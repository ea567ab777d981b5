//===- core/Qlosure.cpp - The Qlosure mapping algorithm ------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The router facade over the shared swap loop (route/SwapLoop.h) run with
// Qlosure's kernel (core/QlosureKernel.cpp). When the affine fast path is
// enabled and the context's period detector found loop structure, a
// ReplayDriver is attached so repeated loop bodies route by replaying the
// recorded swap schedule instead of re-scoring candidates
// (route/ReplayPlan.h documents the exactness contract).
//
//===----------------------------------------------------------------------===//

#include "core/Qlosure.h"

#include "core/QlosureKernel.h"
#include "route/ReplayPlan.h"
#include "support/Fingerprint.h"

#include <cstring>
#include <optional>

using namespace qlosure;

QlosureRouter::QlosureRouter(QlosureOptions OptionsIn)
    : Options(OptionsIn) {}

std::string QlosureRouter::name() const {
  if (Options.UseDependencyWeights && Options.UseLayerStructure)
    return "Qlosure";
  if (Options.UseLayerStructure)
    return "Qlosure(layer-only)";
  return "Qlosure(distance-only)";
}

namespace {

/// Folds every option that can influence a routing decision into the
/// replay anchor salt, so plans recorded under one configuration can never
/// match a boundary routed under another.
uint64_t replayConfigSalt(const QlosureOptions &O) {
  uint64_t DecayBits = 0;
  static_assert(sizeof(DecayBits) == sizeof(O.DecayIncrement), "");
  std::memcpy(&DecayBits, &O.DecayIncrement, sizeof(DecayBits));
  uint64_t Salt = 0x51AE17AFF1E0ULL;
  Salt = hashCombine(Salt, O.UseDependencyWeights ? 1 : 0);
  Salt = hashCombine(Salt, O.UseLayerStructure ? 1 : 0);
  Salt = hashCombine(Salt, DecayBits);
  Salt = hashCombine(Salt, O.ErrorAware ? 1 : 0);
  Salt = hashCombine(Salt, O.Seed);
  Salt = hashCombine(Salt, O.MaxSwapsWithoutProgress);
  return Salt;
}

} // namespace

RoutingResult QlosureRouter::route(const RoutingContext &Ctx,
                                   const QubitMapping &Initial,
                                   RoutingScratch &Scratch,
                                   const CancellationToken *Cancel) {
  checkPreconditions(Ctx, Initial);
  detail::QlosureLoop Loop(Ctx, Initial, Scratch, Cancel,
                           {Options.Seed, Options.DecayIncrement,
                            Options.MaxSwapsWithoutProgress},
                           name(), Options, Ctx);
  std::optional<ReplayDriver> Driver;
  if (Options.AffineReplay) {
    if (const PeriodStructure *Period = Ctx.periodStructure()) {
      Driver.emplace(Loop, *Period, replayConfigSalt(Options),
                     Ctx.replayPlanCache());
      Driver->setTraceSink(Scratch.TraceSink);
      Loop.Replay = &*Driver;
    }
  }
  // One span around the whole front-layer loop, recorded only when the
  // serving layer installed a sink.
  RoutingResult Result = Loop.run("front_layer_loop");
  if (Driver) {
    Result.AffineReplayedPeriods = Driver->replayedPeriods();
    Result.AffineFallbackPeriods = Driver->fallbackPeriods();
  }
  return Result;
}
