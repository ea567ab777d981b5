//===- topology/Backends.cpp - QPU topology constructors ----------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "topology/Backends.h"

#include "support/Error.h"

#include <cassert>
#include <vector>

using namespace qlosure;

CouplingGraph qlosure::makeLine(unsigned NumQubits) {
  CouplingGraph G(NumQubits, "line" + std::to_string(NumQubits));
  for (unsigned Q = 0; Q + 1 < NumQubits; ++Q)
    G.addEdge(Q, Q + 1);
  G.computeDistances();
  return G;
}

CouplingGraph qlosure::makeRing(unsigned NumQubits) {
  assert(NumQubits >= 3 && "a ring needs at least three qubits");
  CouplingGraph G(NumQubits, "ring" + std::to_string(NumQubits));
  for (unsigned Q = 0; Q < NumQubits; ++Q)
    G.addEdge(Q, (Q + 1) % NumQubits);
  G.computeDistances();
  return G;
}

CouplingGraph qlosure::makeGrid(unsigned Rows, unsigned Cols) {
  CouplingGraph G(Rows * Cols,
                  "grid" + std::to_string(Rows) + "x" + std::to_string(Cols));
  auto Id = [Cols](unsigned R, unsigned C) { return R * Cols + C; };
  for (unsigned R = 0; R < Rows; ++R)
    for (unsigned C = 0; C < Cols; ++C) {
      if (C + 1 < Cols)
        G.addEdge(Id(R, C), Id(R, C + 1));
      if (R + 1 < Rows)
        G.addEdge(Id(R, C), Id(R + 1, C));
    }
  G.computeDistances();
  return G;
}

CouplingGraph qlosure::makeKingsGrid(unsigned Rows, unsigned Cols) {
  CouplingGraph G(Rows * Cols, "kings" + std::to_string(Rows) + "x" +
                                   std::to_string(Cols));
  auto Id = [Cols](unsigned R, unsigned C) { return R * Cols + C; };
  for (unsigned R = 0; R < Rows; ++R)
    for (unsigned C = 0; C < Cols; ++C) {
      if (C + 1 < Cols)
        G.addEdge(Id(R, C), Id(R, C + 1));
      if (R + 1 < Rows)
        G.addEdge(Id(R, C), Id(R + 1, C));
      if (R + 1 < Rows && C + 1 < Cols)
        G.addEdge(Id(R, C), Id(R + 1, C + 1)); // Down-right diagonal.
      if (R + 1 < Rows && C > 0)
        G.addEdge(Id(R, C), Id(R + 1, C - 1)); // Down-left diagonal.
    }
  G.computeDistances();
  return G;
}

CouplingGraph qlosure::makeHeavyHex(unsigned Rows, unsigned Cols) {
  assert(Rows % 2 == 1 && "heavy-hex needs an odd number of rows");
  assert(Cols % 4 == 3 && "heavy-hex rows must have 4k + 3 qubits");

  // Build over virtual coordinates first, then compact the id space.
  // Virtual layout: for each row R a full row of Cols qubits; between rows
  // R and R+1, one bridge qubit above every fourth column starting at
  // offset 0 (even gaps) or 2 (odd gaps). The first row drops its last
  // qubit and the last row its first (IBM Eagle trimming).
  unsigned NumBridgesPerGap = (Cols + 1) / 4;
  std::vector<std::vector<int>> RowIds(Rows, std::vector<int>(Cols, -1));
  std::vector<std::vector<int>> GapIds(Rows - 1,
                                       std::vector<int>(NumBridgesPerGap, -1));
  unsigned NextId = 0;

  auto rowHasColumn = [&](unsigned R, unsigned C) {
    if (R == 0 && C == Cols - 1)
      return false;
    if (R == Rows - 1 && C == 0)
      return false;
    return true;
  };

  // Ids in reading order: row, then its following gap of bridges.
  for (unsigned R = 0; R < Rows; ++R) {
    for (unsigned C = 0; C < Cols; ++C)
      if (rowHasColumn(R, C))
        RowIds[R][C] = static_cast<int>(NextId++);
    if (R + 1 < Rows)
      for (unsigned B = 0; B < NumBridgesPerGap; ++B)
        GapIds[R][B] = static_cast<int>(NextId++);
  }

  CouplingGraph G(NextId, "heavyhex" + std::to_string(Rows) + "x" +
                              std::to_string(Cols));
  // Horizontal row edges.
  for (unsigned R = 0; R < Rows; ++R)
    for (unsigned C = 0; C + 1 < Cols; ++C)
      if (RowIds[R][C] >= 0 && RowIds[R][C + 1] >= 0)
        G.addEdge(static_cast<unsigned>(RowIds[R][C]),
                  static_cast<unsigned>(RowIds[R][C + 1]));
  // Bridge edges.
  for (unsigned R = 0; R + 1 < Rows; ++R) {
    unsigned Offset = (R % 2 == 0) ? 0 : 2;
    for (unsigned B = 0; B < NumBridgesPerGap; ++B) {
      unsigned C = Offset + 4 * B;
      if (C >= Cols)
        continue;
      int Bridge = GapIds[R][B];
      if (RowIds[R][C] >= 0)
        G.addEdge(static_cast<unsigned>(RowIds[R][C]),
                  static_cast<unsigned>(Bridge));
      if (RowIds[R + 1][C] >= 0)
        G.addEdge(static_cast<unsigned>(Bridge),
                  static_cast<unsigned>(RowIds[R + 1][C]));
    }
  }
  G.computeDistances();
  return G;
}

CouplingGraph qlosure::makeSherbrooke() {
  CouplingGraph G = makeHeavyHex(7, 15);
  assert(G.numQubits() == 127 && "Sherbrooke must have 127 qubits");
  // Rename (keep topology, give it the backend name).
  CouplingGraph Named(127, "sherbrooke");
  for (auto [A, B] : G.edges())
    Named.addEdge(A, B);
  Named.computeDistances();
  return Named;
}

CouplingGraph qlosure::makeAnkaa3() {
  // 7x12 square lattice with two opposite corners disabled: 82 qubits with
  // max degree 4, matching the paper's description of Ankaa-3.
  unsigned Rows = 7, Cols = 12;
  std::vector<int> Compact(Rows * Cols, -1);
  unsigned NextId = 0;
  for (unsigned R = 0; R < Rows; ++R)
    for (unsigned C = 0; C < Cols; ++C) {
      bool Disabled = (R == 0 && C == 0) || (R == Rows - 1 && C == Cols - 1);
      if (!Disabled)
        Compact[R * Cols + C] = static_cast<int>(NextId++);
    }
  CouplingGraph G(NextId, "ankaa3");
  auto Id = [&](unsigned R, unsigned C) { return Compact[R * Cols + C]; };
  for (unsigned R = 0; R < Rows; ++R)
    for (unsigned C = 0; C < Cols; ++C) {
      if (Id(R, C) < 0)
        continue;
      if (C + 1 < Cols && Id(R, C + 1) >= 0)
        G.addEdge(static_cast<unsigned>(Id(R, C)),
                  static_cast<unsigned>(Id(R, C + 1)));
      if (R + 1 < Rows && Id(R + 1, C) >= 0)
        G.addEdge(static_cast<unsigned>(Id(R, C)),
                  static_cast<unsigned>(Id(R + 1, C)));
    }
  assert(G.numQubits() == 82 && "Ankaa-3 must have 82 qubits");
  G.computeDistances();
  return G;
}

CouplingGraph qlosure::makeSherbrooke2X() {
  CouplingGraph Base = makeSherbrooke();
  unsigned N = Base.numQubits();
  CouplingGraph G(2 * N + 2, "sherbrooke2x");
  for (auto [A, B] : Base.edges()) {
    G.addEdge(A, B);
    G.addEdge(A + N, B + N);
  }
  // Two bridge qubits splice the right edge of copy A to the left edge of
  // copy B at two different rows so the joint lattice stays heavy-hex-like.
  unsigned BridgeTop = 2 * N;
  unsigned BridgeBottom = 2 * N + 1;
  // Row-1 right end of copy A is qubit 32; row-1 left end of copy B is 18.
  G.addEdge(32, BridgeTop);
  G.addEdge(BridgeTop, 18 + N);
  // Row-5 right end of copy A is 108; row-5 left end of copy B is 94.
  G.addEdge(108, BridgeBottom);
  G.addEdge(BridgeBottom, 94 + N);
  assert(G.numQubits() == 256 && "Sherbrooke-2X must have 256 qubits");
  G.computeDistances();
  return G;
}

CouplingGraph qlosure::makeKings9x9() {
  CouplingGraph G = makeKingsGrid(9, 9);
  assert(G.numQubits() == 81 && "kings9x9 must have 81 qubits");
  return G;
}

CouplingGraph qlosure::makeKings16x16() {
  CouplingGraph G = makeKingsGrid(16, 16);
  assert(G.numQubits() == 256 && "kings16x16 must have 256 qubits");
  return G;
}

CouplingGraph qlosure::makeAspen16() {
  CouplingGraph G(16, "aspen16");
  // Two octagons 0..7 and 8..15.
  for (unsigned Q = 0; Q < 8; ++Q) {
    G.addEdge(Q, (Q + 1) % 8);
    G.addEdge(8 + Q, 8 + (Q + 1) % 8);
  }
  // Two rungs between the octagons.
  G.addEdge(1, 14);
  G.addEdge(2, 13);
  G.computeDistances();
  return G;
}

CouplingGraph qlosure::makeSycamore54() {
  CouplingGraph G = makeGrid(6, 9);
  assert(G.numQubits() == 54 && "Sycamore-54 must have 54 qubits");
  return G;
}

namespace {

const struct {
  const char *Name;
  CouplingGraph (*Make)();
} NamedBackends[] = {{"sherbrooke", makeSherbrooke},
                     {"ankaa3", makeAnkaa3},
                     {"sherbrooke2x", makeSherbrooke2X},
                     {"kings9x9", makeKings9x9},
                     {"kings16x16", makeKings16x16},
                     {"aspen16", makeAspen16},
                     {"sycamore54", makeSycamore54}};

} // namespace

std::vector<std::string> qlosure::backendNames() {
  std::vector<std::string> Names;
  for (const auto &Backend : NamedBackends)
    Names.push_back(Backend.Name);
  return Names;
}

bool qlosure::isBackendName(const std::string &Name) {
  for (const auto &Backend : NamedBackends)
    if (Name == Backend.Name)
      return true;
  return false;
}

CouplingGraph qlosure::makeBackendByName(const std::string &Name) {
  for (const auto &Backend : NamedBackends)
    if (Name == Backend.Name)
      return Backend.Make();
  reportFatalError("unknown backend name: " + Name);
}
