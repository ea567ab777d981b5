//===- service/ResultStore.h - Durable routed-result store -------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durable tier behind the in-memory result cache: an append-only
/// on-disk log mapping a CacheKey (circuit x backend x mapper-config
/// fingerprints) to the routed QASM text plus its statistics record.
/// Routed results are deterministic and content-keyed, so a record never
/// goes stale — warm results survive daemon restarts, and a second daemon
/// can share the file read-only.
///
/// On-disk format (host byte order; the file is machine-local state, not
/// an interchange format):
///
///   [file header, 16 bytes]  magic u32 'QSTR' | version u32 | reserved u64
///   [frame]*                 magic u32 'QREC' | payload_len u32
///                            | checksum u64 (FNV-1a over the payload)
///                            | payload (payload_len bytes)
///
/// Each frame's payload is the fixed-width record head (the CacheKey and
/// every CachedResult scalar) followed by the routed QASM bytes. A frame
/// is appended with a single write(2), so a torn append — the daemon
/// SIGKILLed or the machine lost mid-write — is always a *prefix* of a
/// valid frame at end of file.
///
/// Recovery contract (the crash/corruption property ResultStoreTest and
/// store_crash.sh enforce):
///
///  * A tail shorter than one frame header, or a frame whose declared
///    payload extends past end of file, is a torn append: it is truncated
///    (writer) or ignored (reader) and counted in truncated_bytes. Every
///    fully written frame before it is recovered byte-identically.
///  * An in-bounds frame whose checksum does not match had its bytes
///    flipped at rest: the frame is skipped and counted in
///    corrupt_skipped — never a crash, never a wrong result (the caller
///    simply re-routes and re-appends).
///  * A mid-file region without a frame magic (an overwritten stretch) is
///    resynchronized by scanning for the next frame magic; bytes skipped
///    count as corrupt.
///
/// Writes batch their fsyncs: the file is fsynced once at least
/// FsyncBytes have been appended since the last sync (and on flush() /
/// close). Between syncs a record survives process death (the page cache
/// holds it) but not power loss — the usual append-log durability trade.
///
/// Compaction: duplicate-key appends and skipped corrupt regions are
/// garbage. When the garbage fraction of a sufficiently large file
/// exceeds CompactGarbageRatio, put() rewrites the live records to
/// "<path>.compact", fsyncs, and atomically rename(2)s it over the store
/// — readers either see the old inode (their index stays valid for it)
/// or the new one (refresh() detects the inode change and rescans).
///
/// Threading: every public member is safe from any thread; one mutex
/// guards the index, the fd, and the counters (lookups pread under it —
/// plain and ThreadSanitizer-clean; the store sits behind the in-memory
/// cache, so contention is not the hot path).
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_SERVICE_RESULTSTORE_H
#define QLOSURE_SERVICE_RESULTSTORE_H

#include "service/ContextCache.h"
#include "support/Error.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace qlosure {
namespace service {

/// Store sizing and policy knobs.
struct ResultStoreOptions {
  /// Backing file path (required). Created (with its header) when absent
  /// in read-write mode; must exist in read-only mode.
  std::string Path;
  /// Open without write access: get() serves whatever the file holds and
  /// refresh() picks up frames another daemon appends; put() is a no-op.
  bool ReadOnly = false;
  /// fsync once this many bytes have been appended since the last sync
  /// (0 = fsync every record).
  size_t FsyncBytes = 1 << 20;
};

/// Aggregate counters, surfaced under "store" in the stats document.
struct StoreStats {
  uint64_t Records = 0;        ///< Live (indexed) records.
  uint64_t AppendedRecords = 0;///< put()s that reached the file.
  uint64_t Bytes = 0;          ///< Current file size.
  uint64_t LiveBytes = 0;      ///< Bytes owned by live frames.
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t CorruptSkipped = 0; ///< Frames dropped by checksum/resync.
  uint64_t TruncatedBytes = 0; ///< Torn-tail bytes truncated/ignored.
  uint64_t Compactions = 0;
  uint64_t WriteErrors = 0;
};

/// The durable result store. Construction runs the recovery scan; see the
/// file comment for the format and crash contract.
class ResultStore {
public:
  /// Opens (creating if needed, unless read-only) the store at
  /// \p Options.Path and recovers its index. Returns nullptr with \p Err
  /// set when the file cannot be opened or is not a result store.
  static std::unique_ptr<ResultStore> open(const ResultStoreOptions &Options,
                                           Status &Err);
  ~ResultStore();

  ResultStore(const ResultStore &) = delete;
  ResultStore &operator=(const ResultStore &) = delete;

  /// put() compacts once garbage (duplicate and corrupt bytes) exceeds
  /// this fraction of the records' bytes, in a file of at least
  /// CompactMinBytes.
  static constexpr double CompactGarbageRatio = 0.5;
  static constexpr size_t CompactMinBytes = 1 << 20;

  /// Looks \p Key up, re-verifying the frame checksum on read (a record
  /// that rotted since the recovery scan is dropped and counted, never
  /// returned). In read-only mode a miss first refresh()es once, so a
  /// record another daemon just appended is visible. Returns nullptr on
  /// miss.
  std::shared_ptr<const CachedResult> get(const CacheKey &Key);

  /// Appends \p Value under \p Key (single write(2); fsync per the
  /// batching policy) and indexes it. Duplicate keys are skipped —
  /// results are deterministic, so the incumbent is the same bytes.
  /// Returns false in read-only mode or on a write error (counted;
  /// the store stays consistent and serving).
  bool put(const CacheKey &Key, const CachedResult &Value);

  /// fsyncs any batched appends now.
  void flush();

  /// Read-only mode: scans frames appended (or a compaction performed)
  /// by the writing daemon since the last scan. Returns true when new
  /// records became visible. No-op in read-write mode.
  bool refresh();

  /// Forces a compaction pass regardless of the garbage ratio (test
  /// hook; production compaction triggers inside put()). Returns false
  /// in read-only mode or on I/O failure.
  bool compactNow();

  StoreStats stats() const;
  bool readOnly() const { return Options.ReadOnly; }
  const std::string &path() const { return Options.Path; }

  /// Serializes one frame (header + payload) for \p Key / \p Value —
  /// exactly the bytes put() appends. Exposed for the unit tests'
  /// torn-tail and bit-flip harnesses.
  static std::string encodeFrame(const CacheKey &Key,
                                 const CachedResult &Value);

  /// Decodes the frame at the start of \p Data. On success fills \p Key,
  /// \p Value and \p FrameSize (total bytes consumed) and returns true;
  /// returns false on a short / corrupt / checksum-failing frame.
  static bool decodeFrame(const void *Data, size_t Size, CacheKey &Key,
                          CachedResult &Value, size_t &FrameSize);

private:
  ResultStore() = default;

  struct IndexEntry {
    uint64_t Offset = 0; ///< Frame start (header included).
    uint64_t Size = 0;   ///< Total frame size.
  };

  /// Scans frames in [From, FileSize) into the index; updates ScanEnd to
  /// the first byte past the last whole frame (the torn-tail start).
  /// Caller holds Mu.
  void scanLocked(uint64_t From);
  /// Truncates the torn tail (read-write mode) after a scan. Caller
  /// holds Mu.
  void truncateTailLocked();
  /// Rewrites live records to <path>.compact and renames it into place.
  /// Caller holds Mu.
  bool compactLocked();
  /// Reads and re-verifies the frame behind \p Entry. Caller holds Mu.
  std::shared_ptr<const CachedResult> readFrameLocked(const CacheKey &Key,
                                                      const IndexEntry &Entry);

  ResultStoreOptions Options;
  mutable std::mutex Mu;
  int Fd = -1;
  uint64_t FileSize = 0;  ///< Bytes we know about (scan horizon).
  uint64_t ScanEnd = 0;   ///< First unparsed byte (torn tail starts here).
  uint64_t LiveBytes = 0;
  uint64_t PendingSyncBytes = 0;
  std::unordered_map<CacheKey, IndexEntry, CacheKeyHasher> Index;
  StoreStats Counters;
};

} // namespace service
} // namespace qlosure

#endif // QLOSURE_SERVICE_RESULTSTORE_H
