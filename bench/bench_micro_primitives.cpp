//===- bench/bench_micro_primitives.cpp - google-benchmark microbenches -----------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the library's primitives: APSP,
/// DAG construction, the two omega engines, affine lifting, the symbolic
/// transitive closure, and end-to-end routing of a mid-size circuit and
/// of loop circuits through each swap-loop kernel. They
/// locate time inside one primitive; a speedup claim for a route comes
/// from perfbench (run with --benchmark_filter=... as usual, e.g.
/// --benchmark_filter='DagBuild|OmegaExact').
///
//===----------------------------------------------------------------------===//

#include "affine/Lifter.h"
#include "baselines/RouterRegistry.h"
#include "circuit/Dag.h"
#include "core/Qlosure.h"
#include "deps/TransitiveWeights.h"
#include "presburger/TransitiveClosure.h"
#include "topology/Backends.h"
#include "workloads/QasmBench.h"
#include "workloads/Queko.h"
#include "workloads/Structured.h"

#include <benchmark/benchmark.h>

using namespace qlosure;
using namespace qlosure::presburger;

static Circuit mediumQueko() {
  QuekoSpec Spec;
  Spec.Depth = 100;
  Spec.Seed = 7;
  return generateQueko(makeSycamore54(), Spec).Circ;
}

static void BM_ApspSherbrooke(benchmark::State &State) {
  for (auto _ : State) {
    CouplingGraph G = makeSherbrooke();
    benchmark::DoNotOptimize(G.distance(0, 126));
  }
}
BENCHMARK(BM_ApspSherbrooke);

static void BM_DagBuild(benchmark::State &State) {
  Circuit C = mediumQueko();
  for (auto _ : State) {
    CircuitDag Dag(C);
    benchmark::DoNotOptimize(Dag.numGates());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(C.size()));
}
BENCHMARK(BM_DagBuild);

static void BM_OmegaExact(benchmark::State &State) {
  Circuit C = mediumQueko();
  for (auto _ : State) {
    WeightResult R = computeDependenceWeights(C, WeightEngine::Exact);
    benchmark::DoNotOptimize(R.Weights.data());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(C.size()));
}
BENCHMARK(BM_OmegaExact);

static void BM_OmegaAffine(benchmark::State &State) {
  Circuit C = mediumQueko();
  for (auto _ : State) {
    WeightResult R = computeDependenceWeights(C, WeightEngine::Affine);
    benchmark::DoNotOptimize(R.Weights.data());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(C.size()));
}
BENCHMARK(BM_OmegaAffine);

static void BM_AffineLift(benchmark::State &State) {
  Circuit C = mediumQueko();
  for (auto _ : State) {
    AffineCircuit AC = liftCircuit(C);
    benchmark::DoNotOptimize(AC.numStatements());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(C.size()));
}
BENCHMARK(BM_AffineLift);

static void BM_TranslationClosure(benchmark::State &State) {
  BasicSet Dom(1);
  Dom.addBounds(0, 0, 9999);
  IntegerMap R(BasicMap::translation(Dom, {3}));
  ClosureOptions Opts;
  Opts.AllowFiniteFallback = false;
  for (auto _ : State) {
    ClosureResult C = transitiveClosure(R, Opts);
    benchmark::DoNotOptimize(C.IsExact);
  }
}
BENCHMARK(BM_TranslationClosure);

static void BM_RouteQlosureQft(benchmark::State &State) {
  Circuit C = makeQft(static_cast<unsigned>(State.range(0)));
  CouplingGraph Hw = makeSherbrooke();
  QlosureRouter Router;
  // Context built once outside the loop: iterations measure pure routing,
  // with DAG/distances/omega reused from the shared precomputation.
  RoutingContext Ctx = RoutingContext::build(C, Hw);
  for (auto _ : State) {
    RoutingResult R = Router.routeWithIdentity(Ctx);
    benchmark::DoNotOptimize(R.NumSwaps);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(C.size()));
}
BENCHMARK(BM_RouteQlosureQft)->Arg(16)->Arg(32)->Arg(63);

/// The six loop circuits of perfbench's affine-batch workload, routed on
/// sherbrooke by \p Mapper without replay. They execute many gates per
/// SWAP, so the swap loop's per-step overhead weighs more than on QUEKO.
static void BM_RouteLoopCircuits(benchmark::State &State, const char *Mapper) {
  CouplingGraph Hw = makeSherbrooke();
  const std::vector<Circuit> Circs = {
      qftLikeKernel(16, 1000), qftLikeKernel(8, 200), makeIsing(16, 100),
      makeQaoa(16, 50),        makeQugan(16, 100),
      layeredConveyor(makeLine(24), 3, 40, 1)};
  std::vector<RoutingContext> Ctxs;
  for (const Circuit &C : Circs)
    Ctxs.push_back(RoutingContext::build(C, Hw));
  std::unique_ptr<Router> R = makeRouterByName(Mapper);
  RoutingScratch Scratch;
  // One untimed pass computes omega and warms the scratch.
  for (const RoutingContext &Ctx : Ctxs)
    R->route(Ctx, Ctx.identityMapping(), Scratch);
  for (auto _ : State)
    for (const RoutingContext &Ctx : Ctxs) {
      RoutingResult Result = R->route(Ctx, Ctx.identityMapping(), Scratch);
      benchmark::DoNotOptimize(Result.NumSwaps);
    }
}
BENCHMARK_CAPTURE(BM_RouteLoopCircuits, qlosure, "qlosure");
BENCHMARK_CAPTURE(BM_RouteLoopCircuits, sabre, "sabre");
BENCHMARK_CAPTURE(BM_RouteLoopCircuits, cirq, "cirq");
BENCHMARK_CAPTURE(BM_RouteLoopCircuits, tket, "tket");

BENCHMARK_MAIN();
