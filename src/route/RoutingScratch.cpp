//===- route/RoutingScratch.cpp - Reusable per-step routing buffers --------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "route/RoutingScratch.h"

#include "topology/CouplingGraph.h"

using namespace qlosure;

void RoutingScratch::ensureGates(size_t NumGates) {
  if (PendingPreds.size() < NumGates) {
    PendingPreds.resize(NumGates);
    FrontPos.resize(NumGates);
  }
  WindowNeeded.ensure(NumGates);
}

void RoutingScratch::ensurePhys(unsigned NumPhys) {
  PhysSeen.ensure(NumPhys);
  if (TouchingGates.size() < NumPhys) {
    TouchingGates.resize(NumPhys);
    PhysListed.resize(NumPhys, 0);
  }
}

void RoutingScratch::generateCandidates(const CouplingGraph &Hw,
                                        size_t NumFront) {
  PhysSeen.beginEpoch();
  PFront.clear();
  for (size_t J = 0; J < NumFront; ++J)
    for (unsigned P : {ScoredPA[J], ScoredPB[J]})
      if (!PhysSeen.fresh(P)) {
        PhysSeen.set(P, 1);
        PFront.push_back(P);
      }
  std::sort(PFront.begin(), PFront.end());
  Candidates.clear();
  for (unsigned P1 : PFront)
    for (unsigned P2 : Hw.neighbors(P1))
      // PFront ascends, so an edge between two front qubits was already
      // taken from its lower end.
      if (!(P2 < P1 && PhysSeen.fresh(P2)))
        Candidates.push_back({std::min(P1, P2), std::max(P1, P2)});
}
