//===- eval/Harness.h - Evaluation harness -------------------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for regenerating the paper's tables and figures: run a
/// set of mappers over a set of circuits on a backend, collect per-run
/// records (swaps, depth, time, verification), and aggregate them into the
/// depth-factor / SWAP-ratio / mapping-time summaries of Tables II-IV and
/// the per-circuit rows of Tables V-VI.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_EVAL_HARNESS_H
#define QLOSURE_EVAL_HARNESS_H

#include "route/Router.h"
#include "route/RoutingContext.h"
#include "workloads/Queko.h"

#include <map>
#include <string>
#include <vector>

namespace qlosure {

/// One (mapper, circuit, backend) routing run.
struct RunRecord {
  std::string Mapper;
  std::string Backend;
  std::string Workload;
  unsigned CircuitQubits = 0;
  size_t QuantumOps = 0;
  size_t TwoQubitGates = 0;
  /// For QUEKO runs this is the provably optimal depth; for QASMBench runs
  /// the pre-mapping circuit depth.
  size_t BaselineDepth = 0;
  /// Depth after routing, an inserted SWAP counting as one gate.
  size_t RoutedDepth = 0;
  size_t Swaps = 0;
  double Seconds = 0;
  bool TimedOut = false;
  bool Verified = false;
  /// A rejected input (invalid context / inconsistent mapping): the run
  /// was skipped, Error explains why, and every aggregate ignores it.
  bool Failed = false;
  std::string Error;

  double depthFactor() const {
    return BaselineDepth
               ? static_cast<double>(RoutedDepth) /
                     static_cast<double>(BaselineDepth)
               : 0.0;
  }
};

/// Harness options.
struct EvalConfig {
  /// Independently verify every routing (adjacency + dependence
  /// preservation); failures abort, making every reported number trusted.
  bool Verify = true;
};

/// Routes \p Ctx's circuit with \p Mapper from the identity placement and
/// returns the filled record. \p BaselineDepth seeds the depth-factor
/// denominator (pass the QUEKO optimal depth or the circuit's own depth).
/// An invalid context yields a Failed record instead of aborting.
RunRecord runOnce(Router &Mapper, const RoutingContext &Ctx,
                  size_t BaselineDepth, const EvalConfig &Config = {});

/// As above, but routes through \p Scratch so a caller looping over many
/// runs (one worker thread of BatchRunner, a sweep, a bench) reuses one
/// warm set of kernel buffers instead of reallocating them per run.
RunRecord runOnce(Router &Mapper, const RoutingContext &Ctx,
                  size_t BaselineDepth, const EvalConfig &Config,
                  RoutingScratch &Scratch);

/// One-shot convenience: builds a default context for (\p Circ,
/// \p Backend) and delegates to the context overload.
RunRecord runOnce(Router &Mapper, const Circuit &Circ,
                  const CouplingGraph &Backend, size_t BaselineDepth,
                  const EvalConfig &Config = {});

/// QUEKO sweep parameters.
struct QuekoSweepConfig {
  std::vector<unsigned> Depths;
  unsigned CircuitsPerDepth = 2;
  uint64_t SeedBase = 1000;
  EvalConfig Eval;
  /// BatchRunner worker threads (0 = hardware concurrency). Results are
  /// identical for every thread count.
  unsigned Threads = 0;
};

/// Generates QUEKO circuits (QuekoSpec's default densities) on
/// \p GenDevice per \p Config, routes each with every mapper in
/// \p Mappers on \p Backend, and returns all records. Each instance's
/// context is shared by every mapper.
std::vector<RunRecord> runQuekoSweep(const CouplingGraph &GenDevice,
                                     const CouplingGraph &Backend,
                                     const std::vector<Router *> &Mappers,
                                     const QuekoSweepConfig &Config);

/// Mean of \p Records' depth factors, grouped by mapper, split at the
/// paper's medium (< SplitDepth) / large (>= SplitDepth) boundary.
struct MediumLargeSummary {
  double Medium = 0;
  double Large = 0;
  bool MediumTimedOut = false;
  bool LargeTimedOut = false;
};

/// Per-mapper average depth factor (Table II rows).
std::map<std::string, MediumLargeSummary>
depthFactorSummary(const std::vector<RunRecord> &Records,
                   size_t SplitDepth = 550);

/// Per-mapper average ratio (mapper swaps / reference swaps), paired per
/// workload instance (Table III rows).
std::map<std::string, MediumLargeSummary>
swapRatioSummary(const std::vector<RunRecord> &Records,
                 const std::string &ReferenceMapper,
                 size_t SplitDepth = 550);

/// Per-mapper average mapping seconds (Table IV rows).
std::map<std::string, MediumLargeSummary>
mappingTimeSummary(const std::vector<RunRecord> &Records,
                   size_t SplitDepth = 550);

} // namespace qlosure

#endif // QLOSURE_EVAL_HARNESS_H
