//===- bench/BenchCommon.h - Shared benchmark plumbing ------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure reproduction binaries: command-line
/// scaling flags, the QUEKO grids, and rendering of medium/large summary
/// tables with the paper's reference values alongside.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_BENCH_BENCHCOMMON_H
#define QLOSURE_BENCH_BENCHCOMMON_H

#include "eval/Harness.h"

#include <map>
#include <string>
#include <vector>

namespace qlosure {
namespace bench {

/// Scaling knobs common to all reproduction binaries.
struct BenchConfig {
  /// --full: paper-scale sweeps (slower); default is a scaled-down grid
  /// that preserves every axis of the experiment.
  bool Full = false;
  /// --seed N: base RNG seed for workload generation (the Fig. 8
  /// ablation routes fixed instances and ignores it).
  uint64_t Seed = 2026;
  /// --no-verify: skip routing verification (it is cheap; on by default).
  bool Verify = true;
  /// --threads N: BatchRunner workers (0 = hardware concurrency).
  /// Results are identical for every thread count. Benches whose inner
  /// loop is inherently serial (the ablation and error-aware studies)
  /// accept but ignore the flag.
  unsigned Threads = 0;
};

/// Parses argv (exits with a usage message on unknown flags).
BenchConfig parseArgs(int Argc, char **Argv);

/// QUEKO depth grids: medium (< 550) and large (>= 550) per the paper's
/// grouping. Scaled-down by default; --full widens toward paper scale.
std::vector<unsigned> quekoDepths(const BenchConfig &Config);

/// Renders one medium/large summary table. \p Reference optionally maps
/// mapper name -> (medium, large) paper values printed alongside; pass an
/// empty map to omit. A paper value of 0 marks a paper timeout and prints
/// as `timeout`. \p Fmt controls numeric formatting (e.g. "%.2f").
void printMediumLargeTable(
    const std::string &Title,
    const std::map<std::string, MediumLargeSummary> &Summary,
    const std::map<std::string, std::pair<double, double>> &Reference,
    const char *Fmt = "%.2f");

/// Prints a one-line banner with the binary name and configuration.
void printBanner(const std::string &Name, const BenchConfig &Config);

/// One backend column of the paper's QUEKO tables: QUEKO sets generated on
/// \p GenNames are routed onto \p BackendName by all five mappers.
struct QuekoGridSpec {
  std::string BackendName;
  std::vector<std::string> GenNames;
  std::vector<unsigned> Depths;
  unsigned CircuitsPerDepth = 1;
};

/// Runs one grid and returns all records.
std::vector<RunRecord> runQuekoGrid(const QuekoGridSpec &Spec,
                                    const BenchConfig &Config);

/// The paper's three backend columns (Sherbrooke / Ankaa-3 / Sherbrooke-2X
/// with their respective generation devices), sized per \p Config.
std::vector<QuekoGridSpec> paperQuekoGrids(const BenchConfig &Config);

/// The paper's QMAP timed out on every Sherbrooke-2X instance (Table II).
/// False when \p Records, routed on \p Grid, hold a QMAP run on
/// sherbrooke2x that finished within its expansion budget.
bool qmapTimeoutsHold(const QuekoGridSpec &Grid,
                      const std::vector<RunRecord> &Records);

} // namespace bench
} // namespace qlosure

#endif // QLOSURE_BENCH_BENCHCOMMON_H
