//===- perfbench/Common.h - Shared helpers of the benchmark -------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clock, quantile, seeding and reporting helpers shared by every part of
/// the benchmark.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_PERFBENCH_COMMON_H
#define QLOSURE_PERFBENCH_COMMON_H

#include "support/Json.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double, std::milli>(To - From).count();
}

/// Nearest-rank quantile of \p Values (0 when empty). \p Q is in [0, 1].
double quantile(std::vector<double> Values, double Q);
inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

/// splitmix64: derives independent sub-seeds from the workload seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream);

/// Peak resident set size of this process in MiB.
double peakRssMb();

/// Appends {"value": Value, "unit": Unit} as member \p Name of the metrics
/// object \p Metrics (members keep their insertion order).
void addMetric(qlosure::json::Value &Metrics, const std::string &Name,
               double Value, const char *Unit);

} // namespace perfbench

#endif // QLOSURE_PERFBENCH_COMMON_H
