//===- eval/BatchRunner.h - Parallel batch routing engine ---------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fans a list of (mapper, context) routing jobs across a std::thread pool
/// and aggregates the RunRecords deterministically in insertion order:
/// Records[i] always belongs to Jobs[i], whatever the thread count or
/// completion order, so a 1-thread and an N-thread run of the same job
/// list are byte-identical. Determinism holds because every stochastic
/// choice is derived from per-job state (the router's fixed seed, the
/// workload generator's per-instance seed computed from the run index) —
/// never from RNG state shared across jobs; no mapper stops on a clock.
///
/// A job with an invalid context (or an inconsistent initial mapping)
/// produces a RunRecord with Failed set and the diagnostic in Error; the
/// rest of the batch is unaffected.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_EVAL_BATCHRUNNER_H
#define QLOSURE_EVAL_BATCHRUNNER_H

#include "eval/Harness.h"
#include "route/RoutingContext.h"

#include <vector>

namespace qlosure {

/// One (mapper, circuit-on-backend) routing job. The context and mapper
/// must outlive the batch run; one context is typically shared by the five
/// jobs routing the same circuit with different mappers, and one mapper by
/// every job using it — both are safe because contexts are immutable and
/// routers stateless.
struct BatchJob {
  Router *Mapper = nullptr;
  const RoutingContext *Ctx = nullptr;
  /// Depth-factor denominator (QUEKO optimal depth, or the circuit's own
  /// depth for QASMBench-style runs).
  size_t BaselineDepth = 0;
  EvalConfig Eval;
};

/// Batch execution options.
struct BatchOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency() (at
  /// least 1). 1 runs inline without spawning.
  unsigned Threads = 0;
};

/// The parallel batch engine.
class BatchRunner {
public:
  explicit BatchRunner(BatchOptions Options = {}) : Options(Options) {}

  /// Runs every job and returns Records with Records[i] <-> Jobs[i].
  std::vector<RunRecord> run(const std::vector<BatchJob> &Jobs) const;

  /// Threads run() will actually use for \p NumJobs jobs.
  unsigned effectiveThreads(size_t NumJobs) const;

private:
  BatchOptions Options;
};

/// Convenience wrapper: one-off batch with \p Threads workers.
std::vector<RunRecord> runBatch(const std::vector<BatchJob> &Jobs,
                                unsigned Threads = 0);

} // namespace qlosure

#endif // QLOSURE_EVAL_BATCHRUNNER_H
