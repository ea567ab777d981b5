//===- perfbench/Inputs.h - Workload definitions and inputs ------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads and the requests they send, all derived from the
/// workload seed.
///
/// Every workload owns a small set of generated base circuits. Its
/// reference requests route those bases once during set-up; their answers
/// give the deterministic quality metrics (swaps_total, depth_ratio). A
/// timed request either repeats a reference request byte for byte (the
/// warm workload) or *freshens* a base by prepending one `rz` whose angle
/// is unique to the request. A fresh circuit has a new fingerprint, so
/// every cache tier misses, while its routing is the base's: a leading
/// single-qubit gate adds no dependence to any other gate, and executes
/// before the first routing decision.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_PERFBENCH_INPUTS_H
#define QLOSURE_PERFBENCH_INPUTS_H

#include "circuit/Circuit.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One generated circuit, split where a freshening gate goes (right after
/// the register declaration).
struct Base {
  std::string Name;
  std::string Head;               ///< Raw QASM up to the insertion point.
  std::string HeadJson, TailJson; ///< Both halves, JSON-string-escaped.
  /// The circuit as the daemon sees it after import.
  std::shared_ptr<const qlosure::Circuit> Logical;
};

/// One protocol request.
struct Request {
  std::string Op; ///< "route" or "batch".
  std::string Id;
  std::string Mapper;
  std::string Line; ///< The wire frame, without the newline.
  /// Base index of each item (one for a route).
  std::vector<size_t> Items;
  /// 0 sends the bases as generated; otherwise the nonce of the prepended
  /// `rz`, unique within a run.
  uint64_t Fresh = 0;
  /// The reference request this one repeats or freshens.
  size_t Combo = 0;
};

struct Workload {
  std::string Name;
  std::string Backend = "sherbrooke";
  unsigned Clients = 2;
  unsigned Workers = 2;
  /// Timed requests go through the single-shard router.
  bool ViaRouter = false;
  /// Batches with the affine replay path (qlosure only).
  bool Affine = false;
  /// Timed requests re-send reference requests (result-cache hits).
  bool RepeatsReference = false;
  std::vector<Base> Bases;
  std::vector<Request> Reference;

  /// The \p I-th timed request (a pure function of the seed and \p I).
  Request timed(size_t I) const;
  /// The logical circuit of item \p Item of \p R, as the daemon imports it.
  qlosure::Circuit itemLogical(const Request &R, size_t Item) const;

private:
  friend Workload makeWorkload(const std::string &, uint64_t, bool);
  Request makeRequest(const std::string &Id, size_t Combo,
                      uint64_t Fresh) const;
  uint64_t Seed = 0;
  std::vector<std::string> Mappers; ///< Mapper of combo c is c % size.
  size_t NumCombos = 0;
};

/// Builds workload \p Name from \p Seed. \p Small shrinks every input for
/// the benchmark's self-test. Returns a workload with an empty name when
/// \p Name is unknown.
Workload makeWorkload(const std::string &Name, uint64_t Seed, bool Small);

} // namespace perfbench

#endif // QLOSURE_PERFBENCH_INPUTS_H
