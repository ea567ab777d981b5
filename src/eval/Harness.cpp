//===- eval/Harness.cpp - Evaluation harness --------------------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "eval/Harness.h"

#include "eval/BatchRunner.h"
#include "route/Verify.h"
#include "support/Error.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"

#include <memory>

using namespace qlosure;

RunRecord qlosure::runOnce(Router &Mapper, const RoutingContext &Ctx,
                           size_t BaselineDepth, const EvalConfig &Config) {
  RoutingScratch Scratch;
  return runOnce(Mapper, Ctx, BaselineDepth, Config, Scratch);
}

RunRecord qlosure::runOnce(Router &Mapper, const RoutingContext &Ctx,
                           size_t BaselineDepth, const EvalConfig &Config,
                           RoutingScratch &Scratch) {
  RunRecord Record;
  Record.Mapper = Mapper.name();
  Record.BaselineDepth = BaselineDepth;
  // Circuit/backend identity is set even on invalid contexts (build()
  // binds both before validating), so Failed records name their input.
  Record.Backend = Ctx.hardware().name();
  Record.Workload = Ctx.circuit().name();
  Record.CircuitQubits = Ctx.circuit().numQubits();
  Record.QuantumOps = Ctx.circuit().numQuantumOps();
  Record.TwoQubitGates = Ctx.circuit().numTwoQubitGates();

  // Recoverable rejection: a bad (circuit, backend) input marks this
  // record Failed and leaves the rest of a batch untouched. The identity
  // mapping derived from a valid context cannot itself be inconsistent,
  // so the context status is the only live check here.
  if (!Ctx.valid()) {
    Record.Failed = true;
    Record.Error = Ctx.status().message();
    return Record;
  }

  RoutingResult Result = Mapper.routeWithIdentity(Ctx, Scratch);
  if (Config.Verify) {
    // Verification failure is a router bug, not a bad input: abort so no
    // table is ever built from an invalid routing.
    VerifyResult V = verifyRouting(Ctx.circuit(), Ctx.hardware(), Result);
    if (!V.Ok)
      reportFatalError(formatString(
          "routing verification failed (%s on %s, circuit %s): %s",
          Mapper.name().c_str(), Ctx.hardware().name().c_str(),
          Ctx.circuit().name().c_str(), V.Message.c_str()));
  }
  Record.RoutedDepth = Result.routedDepth();
  Record.Swaps = Result.NumSwaps;
  Record.Seconds = Result.MappingSeconds;
  Record.TimedOut = Result.TimedOut;
  Record.Verified = Config.Verify;
  return Record;
}

RunRecord qlosure::runOnce(Router &Mapper, const Circuit &Circ,
                           const CouplingGraph &Backend,
                           size_t BaselineDepth, const EvalConfig &Config) {
  RoutingContext Ctx = RoutingContext::build(Circ, Backend);
  return runOnce(Mapper, Ctx, BaselineDepth, Config);
}

std::vector<RunRecord>
qlosure::runQuekoSweep(const CouplingGraph &GenDevice,
                       const CouplingGraph &Backend,
                       const std::vector<Router *> &Mappers,
                       const QuekoSweepConfig &Config) {
  // Ensure the shared backend carries its distance matrix exactly once;
  // every context below references this one prepared copy.
  CouplingGraph Hw = Backend;
  Hw.computeDistances();

  // Generate all instances up front (seeds derive from the (depth,
  // instance) run coordinates, never from shared RNG state), then build
  // one shared context per instance.
  std::vector<QuekoInstance> Instances;
  for (unsigned Depth : Config.Depths) {
    for (unsigned Instance = 0; Instance < Config.CircuitsPerDepth;
         ++Instance) {
      QuekoSpec Spec;
      Spec.Depth = Depth;
      Spec.TwoQubitDensity = Config.TwoQubitDensity;
      Spec.OneQubitDensity = Config.OneQubitDensity;
      Spec.Seed = Config.SeedBase + Depth * 97 + Instance;
      QuekoInstance Queko = generateQueko(GenDevice, Spec);
      Queko.Circ.setName(formatString("queko-%uq-d%u-i%u",
                                      GenDevice.numQubits(), Depth,
                                      Instance));
      Instances.push_back(std::move(Queko));
    }
  }

  std::vector<RoutingContext> Contexts;
  Contexts.reserve(Instances.size());
  for (const QuekoInstance &Queko : Instances)
    Contexts.push_back(RoutingContext::build(Queko.Circ, Hw));

  // Fan (instance x mapper) across the batch engine, keeping the serial
  // sweep's record order: instance-major, mapper-minor.
  std::vector<BatchJob> Jobs;
  Jobs.reserve(Instances.size() * Mappers.size());
  for (size_t I = 0; I < Instances.size(); ++I) {
    for (Router *Mapper : Mappers) {
      BatchJob Job;
      Job.Mapper = Mapper;
      Job.Ctx = &Contexts[I];
      Job.BaselineDepth = Instances[I].OptimalDepth;
      Job.Eval = Config.Eval;
      Jobs.push_back(Job);
    }
  }
  return runBatch(Jobs, Config.Threads);
}

namespace {

/// Groups records by mapper and feeds (value, isLarge, timedOut) samples.
template <typename ValueFn>
std::map<std::string, MediumLargeSummary>
aggregate(const std::vector<RunRecord> &Records, size_t SplitDepth,
          ValueFn Value) {
  struct Buckets {
    std::vector<double> Medium, Large;
    bool MediumTimedOut = false, LargeTimedOut = false;
  };
  std::map<std::string, Buckets> ByMapper;
  for (const RunRecord &R : Records) {
    if (R.Failed)
      continue; // Rejected inputs never contribute to summaries.
    Buckets &B = ByMapper[R.Mapper];
    bool Large = R.BaselineDepth >= SplitDepth;
    if (R.TimedOut) {
      (Large ? B.LargeTimedOut : B.MediumTimedOut) = true;
      continue;
    }
    (Large ? B.Large : B.Medium).push_back(Value(R));
  }
  std::map<std::string, MediumLargeSummary> Out;
  for (auto &[Mapper, B] : ByMapper) {
    MediumLargeSummary S;
    S.Medium = mean(B.Medium);
    S.Large = mean(B.Large);
    S.MediumTimedOut = B.MediumTimedOut;
    S.LargeTimedOut = B.LargeTimedOut;
    Out[Mapper] = S;
  }
  return Out;
}

} // namespace

std::map<std::string, MediumLargeSummary>
qlosure::depthFactorSummary(const std::vector<RunRecord> &Records,
                            size_t SplitDepth) {
  return aggregate(Records, SplitDepth,
                   [](const RunRecord &R) { return R.depthFactor(); });
}

std::map<std::string, MediumLargeSummary>
qlosure::swapRatioSummary(const std::vector<RunRecord> &Records,
                          const std::string &ReferenceMapper,
                          size_t SplitDepth) {
  // Index the reference mapper's swap counts per workload instance.
  std::map<std::string, double> ReferenceSwaps;
  for (const RunRecord &R : Records)
    if (R.Mapper == ReferenceMapper && !R.TimedOut && !R.Failed)
      ReferenceSwaps[R.Workload + "@" + R.Backend] =
          static_cast<double>(R.Swaps);

  std::vector<RunRecord> Ratioed;
  for (const RunRecord &R : Records) {
    if (R.Mapper == ReferenceMapper)
      continue;
    auto It = ReferenceSwaps.find(R.Workload + "@" + R.Backend);
    if (It == ReferenceSwaps.end() || It->second == 0)
      continue;
    Ratioed.push_back(R);
  }
  return aggregate(Ratioed, SplitDepth, [&](const RunRecord &R) {
    double Ref = ReferenceSwaps[R.Workload + "@" + R.Backend];
    return static_cast<double>(R.Swaps) / Ref;
  });
}

std::map<std::string, MediumLargeSummary>
qlosure::mappingTimeSummary(const std::vector<RunRecord> &Records,
                            size_t SplitDepth) {
  return aggregate(Records, SplitDepth,
                   [](const RunRecord &R) { return R.Seconds; });
}
