//===- perfbench/main.cpp - The qlosured benchmark -----------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One run of one workload:
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--small] [--commit ID] [--state-dir DIR]
///
/// Set-up (input generation, daemon and router boot, routing the reference
/// requests) runs five times and reports its median as setup_s; the last
/// set-up serves the run. With --trace 0 the timed closed loop runs for S
/// seconds and the end-to-end metrics are printed. With --trace 1 the loop
/// runs for S/2 seconds, followed by the traced per-layer pass, and the
/// per-layer metrics are printed. Every answer is checked (Check.h).
///
/// swaps_total and depth_ratio come from the reference requests and are
/// deterministic for a seed and a source tree: with --state-dir, the first
/// run records them and every later run with the same key must repeat
/// them exactly.
///
/// Stdout gets one stamp line and then the result line:
///   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
///
//===----------------------------------------------------------------------===//

#include "Check.h"
#include "Common.h"
#include "Inputs.h"
#include "Layers.h"
#include "Service.h"

#include "support/StringUtils.h"
#include "topology/Backends.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <sstream>
#include <stdexcept>
#include <sys/stat.h>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace qlosure;
using namespace perfbench;

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
  bool Small = false;
  std::string Commit = "unknown";
  std::string StateDir;
};

bool parseOptions(int Argc, char **Argv, Options &O) {
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    const char *Value = I + 1 < Argc ? Argv[I + 1] : nullptr;
    if (Arg == "--small") {
      O.Small = true;
      continue;
    }
    if (!Value)
      return false;
    ++I;
    if (Arg == "--workload")
      O.Workload = Value;
    else if (Arg == "--seed")
      O.Seed = std::strtoull(Value, nullptr, 10), HaveSeed = true;
    else if (Arg == "--seconds")
      O.Seconds = std::atof(Value);
    else if (Arg == "--trace")
      O.Trace = std::atoi(Value);
    else if (Arg == "--commit")
      O.Commit = Value;
    else if (Arg == "--state-dir")
      O.StateDir = Value;
    else
      return false;
  }
  return !O.Workload.empty() && HaveSeed && O.Seconds > 0 &&
         (O.Trace == 0 || O.Trace == 1);
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned I = 0; I < 3; ++I)
      __get_cpuid(0x80000002 + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    std::string Brand(reinterpret_cast<const char *>(Regs), sizeof(Regs));
    Brand = Brand.c_str(); // Drop the NUL padding.
    return trimString(Brand);
  }
#endif
  return "unknown";
}

/// The state that one set-up leaves behind for the run.
struct Setup {
  Workload W;
  CouplingGraph Hw;
  std::unique_ptr<Fleet> Services;
  ReferenceAnswers Ref;
};

Status setUp(const Options &O, Setup &S) {
  S.W = makeWorkload(O.Workload, O.Seed, O.Small);
  if (S.W.Name.empty())
    return Status::error("unknown workload '" + O.Workload + "'");
  S.Hw = makeBackendByName(S.W.Backend);
  S.Services = std::make_unique<Fleet>();
  if (Status St = S.Services->start(S.W.Workers); !St.ok())
    return St;
  return routeReference(S.W,
                        S.W.ViaRouter ? S.Services->routerAddress()
                                      : S.Services->daemonAddress(),
                        S.Ref);
}

/// Checks the reference answers and derives the quality metrics.
bool checkReference(const Setup &S, std::vector<std::vector<Routed>> &Out,
                    double &SwapsTotal, double &DepthRatio,
                    std::vector<std::string> &Errors) {
  const Workload &W = S.W;
  Out.assign(W.Reference.size(), {});
  double LogRatio = 0;
  size_t Circuits = 0;
  SwapsTotal = 0;
  for (size_t C = 0; C < W.Reference.size(); ++C) {
    std::string Error =
        checkResponse(W, S.Hw, W.Reference[C], S.Ref.Frames[C], Out[C]);
    if (Error.empty() && W.RepeatsReference) {
      std::vector<Routed> Hit;
      Error = checkResponse(W, S.Hw, W.Reference[C], {S.Ref.HitLines[C]}, Hit);
      if (Error.empty() && Hit[0].Swaps != Out[C][0].Swaps)
        Error = "cached answer differs from the routed one";
    }
    if (!Error.empty()) {
      Errors.push_back("reference " + Error);
      return false;
    }
    for (const Routed &R : Out[C]) {
      SwapsTotal += R.Swaps;
      LogRatio += std::log(double(R.DepthAfter) / double(R.DepthBefore));
      ++Circuits;
    }
  }
  DepthRatio = std::exp(LogRatio / double(Circuits));
  return true;
}

/// The determinism guard: the quality metrics of a (workload, seed, size,
/// source tree) must repeat exactly across runs.
bool guardDeterminism(const Options &O, double SwapsTotal, double DepthRatio,
                      std::vector<std::string> &Errors) {
  if (O.StateDir.empty())
    return true;
  ::mkdir(O.StateDir.c_str(), 0755);
  std::string Path = formatString(
      "%s/%s-s%llu-%s-%s.txt", O.StateDir.c_str(), O.Workload.c_str(),
      static_cast<unsigned long long>(O.Seed), O.Small ? "small" : "full",
      O.Commit.c_str());
  std::string Now = formatString("swaps_total %.17g depth_ratio %.17g\n",
                                 SwapsTotal, DepthRatio);
  std::ifstream In(Path);
  if (In) {
    std::stringstream Before;
    Before << In.rdbuf();
    if (Before.str() != Now) {
      Errors.push_back("determinism guard: " + Path + " recorded " +
                       Before.str() + " but this run measured " + Now);
      return false;
    }
    return true;
  }
  std::ofstream(Path) << Now;
  return true;
}

double safeRatio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Set-ups per run; setup_s is their median.
constexpr int SetupRuns = 5;

int run(const Options &O) {
  std::vector<std::string> Errors;
  Setup S;
  std::vector<double> SetupSeconds;
  for (int Rep = 0; Rep < SetupRuns; ++Rep) {
    // The previous set-up's services stop untimed, and the memory they
    // freed goes back to the system so it does not count toward the peak.
    S.Services.reset();
    malloc_trim(0);
    const auto T0 = Clock::now();
    if (Status St = setUp(O, S); !St.ok()) {
      std::fprintf(stderr, "error: set-up failed: %s\n", St.message().c_str());
      return 1;
    }
    SetupSeconds.push_back(msBetween(T0, Clock::now()) / 1e3);
  }
  const Workload &W = S.W;
  const std::string Daemon = S.Services->daemonAddress();
  const std::string Entry =
      W.ViaRouter ? S.Services->routerAddress() : Daemon;

  std::vector<std::vector<Routed>> RefRouted;
  double SwapsTotal = 0, DepthRatio = 0;
  bool Correct = checkReference(S, RefRouted, SwapsTotal, DepthRatio, Errors);
  Correct = Correct && guardDeterminism(O, SwapsTotal, DepthRatio, Errors);

  DaemonStats Before, After;
  Status StatsOk = fetchStats(Daemon, Before);
  LoopResult Loop;
  if (Correct)
    Loop = runClosedLoop(W, S.Hw, Entry, O.Trace ? O.Seconds / 2 : O.Seconds,
                         S.Ref, RefRouted);
  if (StatsOk.ok())
    StatsOk = fetchStats(Daemon, After);
  if (!StatsOk.ok())
    Errors.push_back("stats: " + StatsOk.message());
  DaemonStats Window = After.since(Before);
  double P50 = quantile(Loop.LatenciesMs, 0.5);

  json::Value Metrics = json::Value::object();
  auto add = [&Metrics](const char *Name, double Value, const char *Unit) {
    addMetric(Metrics, Name, Value, Unit);
  };
  size_t LayerRequests = 0;
  if (!O.Trace) {
    add("routes_per_s", safeRatio(Loop.Routes, Loop.Seconds), "1/s");
    add("latency_p50_ms", P50, "ms");
    add("latency_p90_ms", quantile(Loop.LatenciesMs, 0.9), "ms");
    add("swaps_total", SwapsTotal, "count");
    add("depth_ratio", DepthRatio, "ratio");
    add("peak_rss_mb", peakRssMb(), "MB");
    add("setup_s", median(SetupSeconds), "s");
  } else if (Correct) {
    LayerPass Pass = runLayerPass(W, S.Hw, O.Seconds / 2, RefRouted);
    LayerRequests = Pass.Requests;
    Errors.insert(Errors.end(), Pass.Errors.begin(), Pass.Errors.end());
    double Rtt = frameRttMs(size_t(Pass.BytesIn), size_t(Pass.BytesOut), 30);
    double Hop = routerHopMs(W.Reference[0], Daemon,
                             S.Services->routerAddress(), 15, Errors);
    double QueueWait = Window.queueWaitP50Ms();
    Metrics = Pass.Metrics;
    add("service.frame_rtt_ms", Rtt, "ms");
    add("service.bytes_in", Pass.BytesIn, "bytes");
    add("service.bytes_out", Pass.BytesOut, "bytes");
    add("router.hop_ms", Hop, "ms");
    add("cache.result_hit_ratio",
                safeRatio(Window.ResultHits,
                          Window.ResultHits + Window.ResultMisses),
                "ratio");
    add("cache.context_hit_ratio",
                safeRatio(Window.ContextHits,
                          Window.ContextHits + Window.ContextMisses),
                "ratio");
    add("scheduler.submitted", Window.Submitted, "count");
    add("server.coalesced", Window.Coalesced, "count");
    add("scheduler.queue_wait_p50_ms", QueueWait, "ms");
    add("failed_frac", safeRatio(Loop.Failed, Loop.Attempted),
                "ratio");
    // The request path: layers inside the daemon, framing, queueing, and
    // the router hop where the workload goes through the router. A batch
    // item queues behind the items before it, which the layer sums already
    // count.
    double Path = Pass.PathMs + Rtt + (W.Affine ? 0 : QueueWait) +
                  (W.ViaRouter ? Hop : 0);
    add("unattributed_ms", P50 - Path, "ms");
  }

  Errors.insert(Errors.end(), Loop.Errors.begin(), Loop.Errors.end());
  Correct = Correct && Errors.empty() && Loop.Failed == 0 &&
            Loop.Attempted > 0;
  for (size_t I = 0; I < Errors.size() && I < 20; ++I)
    std::fprintf(stderr, "error: %s\n", Errors[I].c_str());

  json::Value Stamp = json::Value::object();
  Stamp.set("commit", O.Commit);
#ifdef __clang__
  Stamp.set("compiler", "clang " __clang_version__);
#else
  Stamp.set("compiler", "g++ " __VERSION__);
#endif
  Stamp.set("build_type", PERFBENCH_BUILD_TYPE);
  Stamp.set("nproc", std::thread::hardware_concurrency());
  Stamp.set("cpu_model", cpuModel());
  Stamp.set("workload", W.Name);
  Stamp.set("seed", O.Seed);
  Stamp.set("seconds", O.Seconds);
  Stamp.set("trace", O.Trace);
  Stamp.set("small", O.Small);
  Stamp.set("loop_seconds", Loop.Seconds);
  Stamp.set("latency_samples", Loop.LatenciesMs.size());
  Stamp.set("setup_samples", SetupSeconds.size());
  Stamp.set("layer_requests", LayerRequests);
  json::Value StampLine = json::Value::object();
  StampLine.set("stamp", std::move(Stamp));
  std::printf("%s\n", StampLine.dump().c_str());

  json::Value Result = json::Value::object();
  Result.set("correct", Correct);
  Result.set("attempted", std::max<size_t>(Loop.Attempted, 1));
  Result.set("failed", Loop.Attempted ? Loop.Failed : 1);
  Result.set("metrics", std::move(Metrics));
  std::printf("%s\n", Result.dump().c_str());
  std::fflush(stdout);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // Fixed allocator thresholds for the whole process. With glibc's dynamic
  // mmap and trim thresholds, the daemon's large per-request buffers were
  // returned to the kernel and faulted back in at varying rates, so runs
  // of identical inputs differed by up to a fifth in import time alone.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 64 << 20);
  Options O;
  if (!parseOptions(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--small] [--commit ID] [--state-dir DIR]\n",
                 Argv[0]);
    return 2;
  }
  try {
    return run(O);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
}
