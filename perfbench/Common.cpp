//===- perfbench/Common.cpp - Shared helpers of the benchmark ------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cmath>

#include <sys/resource.h>

using namespace qlosure;

namespace perfbench {

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * Values.size()));
  return Values[std::min(Values.size(), std::max<size_t>(Rank, 1)) - 1];
}

uint64_t mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed + 0x9E3779B97F4A7C15ULL * (Stream + 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

double peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

void addMetric(json::Value &Metrics, const std::string &Name, double Value,
               const char *Unit) {
  json::Value M = json::Value::object();
  M.set("value", Value);
  M.set("unit", Unit);
  Metrics.set(Name, std::move(M));
}

} // namespace perfbench
