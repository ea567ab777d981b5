//===- topology/CouplingGraph.cpp - QPU coupling graphs ----------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "topology/CouplingGraph.h"

#include "support/Error.h"
#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>

using namespace qlosure;

void CouplingGraph::addEdge(unsigned A, unsigned B) {
  assert(A < NumQubits && B < NumQubits && "edge endpoint out of range");
  assert(A != B && "self loops are not allowed");
  if (areAdjacent(A, B))
    return;
  Adjacency[A].push_back(B);
  Adjacency[B].push_back(A);
  if (!EdgeErrors.empty()) { // Keep the rate slots parallel; 0 = no rate.
    EdgeErrors[A].push_back(0.0);
    EdgeErrors[B].push_back(0.0);
  }
  Distances.clear(); // Invalidate the cached APSP matrix.
}

std::vector<std::pair<unsigned, unsigned>> CouplingGraph::edges() const {
  std::vector<std::pair<unsigned, unsigned>> Result;
  for (unsigned A = 0; A < NumQubits; ++A)
    for (unsigned B : Adjacency[A])
      if (A < B)
        Result.push_back({A, B});
  return Result;
}

size_t CouplingGraph::numEdges() const {
  size_t Twice = 0;
  for (const auto &Nbrs : Adjacency)
    Twice += Nbrs.size();
  return Twice / 2;
}

unsigned CouplingGraph::maxDegree() const {
  size_t Max = 0;
  for (const auto &Nbrs : Adjacency)
    Max = std::max(Max, Nbrs.size());
  return static_cast<unsigned>(Max);
}

bool CouplingGraph::isConnected() const {
  if (NumQubits == 0)
    return true;
  std::vector<bool> Seen(NumQubits, false);
  std::deque<unsigned> Queue{0};
  Seen[0] = true;
  size_t Count = 1;
  while (!Queue.empty()) {
    unsigned Q = Queue.front();
    Queue.pop_front();
    for (unsigned N : Adjacency[Q]) {
      if (!Seen[N]) {
        Seen[N] = true;
        ++Count;
        Queue.push_back(N);
      }
    }
  }
  return Count == NumQubits;
}

void CouplingGraph::computeDistances() {
  if (hasDistances())
    return; // Cache valid; addEdge() invalidates on mutation.
  Distances.assign(static_cast<size_t>(NumQubits) * NumQubits,
                   UnreachableDistance);
  std::deque<unsigned> Queue;
  for (unsigned Source = 0; Source < NumQubits; ++Source) {
    uint32_t *Row = &Distances[static_cast<size_t>(Source) * NumQubits];
    Row[Source] = 0;
    Queue.clear();
    Queue.push_back(Source);
    while (!Queue.empty()) {
      unsigned Q = Queue.front();
      Queue.pop_front();
      for (unsigned N : Adjacency[Q]) {
        if (Row[N] == UnreachableDistance) {
          Row[N] = Row[Q] + 1;
          Queue.push_back(N);
        }
      }
    }
  }
}

void CouplingGraph::setEdgeError(unsigned A, unsigned B, double ErrorRate) {
  assert(areAdjacent(A, B) && "error rates attach to existing edges");
  assert(ErrorRate >= 0.0 && ErrorRate < 1.0 && "error rate out of range");
  if (EdgeErrors.empty()) {
    EdgeErrors.resize(NumQubits);
    for (unsigned Q = 0; Q < NumQubits; ++Q)
      EdgeErrors[Q].assign(Adjacency[Q].size(), 0.0);
  }
  EdgeErrors[std::min(A, B)][edgeSlot(A, B)] = ErrorRate;
  ErrorModelInstalled = true;
}

double CouplingGraph::edgeError(unsigned A, unsigned B) const {
  assert(A < NumQubits && B < NumQubits && "qubit out of range");
  if (EdgeErrors.empty())
    return 0.0;
  size_t Slot = edgeSlot(A, B);
  return Slot < EdgeErrors[std::min(A, B)].size()
             ? EdgeErrors[std::min(A, B)][Slot]
             : 0.0;
}

size_t CouplingGraph::edgeSlot(unsigned A, unsigned B) const {
  const std::vector<unsigned> &Nbrs = Adjacency[std::min(A, B)];
  return static_cast<size_t>(
      std::find(Nbrs.begin(), Nbrs.end(), std::max(A, B)) - Nbrs.begin());
}

size_t CouplingGraph::errorModelBytes() const {
  size_t Bytes = EdgeErrors.size() * sizeof(std::vector<double>);
  for (const std::vector<double> &Rates : EdgeErrors)
    Bytes += Rates.size() * sizeof(double);
  return Bytes;
}

void qlosure::applySyntheticErrorModel(CouplingGraph &Graph, uint64_t Seed,
                                       double MinError, double MaxError) {
  assert(MinError > 0 && MinError <= MaxError && MaxError < 1.0 &&
         "bad error range");
  Rng Generator(Seed);
  double LogMin = std::log(MinError);
  double LogMax = std::log(MaxError);
  for (auto [A, B] : Graph.edges()) {
    double Rate =
        std::exp(LogMin + (LogMax - LogMin) * Generator.nextDouble());
    Graph.setEdgeError(A, B, Rate);
  }
}

std::vector<unsigned> CouplingGraph::shortestPath(unsigned A,
                                                  unsigned B) const {
  assert(hasDistances() && "call computeDistances() first");
  if (distance(A, B) == UnreachableDistance)
    reportFatalError("shortestPath between disconnected qubits");
  std::vector<unsigned> Path{A};
  unsigned Current = A;
  while (Current != B) {
    // Greedy descent on distance-to-B is optimal on unweighted graphs.
    unsigned Best = Current;
    unsigned BestDist = distance(Current, B);
    for (unsigned N : Adjacency[Current]) {
      unsigned D = distance(N, B);
      if (D < BestDist) {
        BestDist = D;
        Best = N;
      }
    }
    assert(Best != Current && "no descent neighbor on a connected graph");
    Current = Best;
    Path.push_back(Current);
  }
  return Path;
}
