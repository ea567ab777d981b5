//===- topology/Backends.h - QPU topology constructors -----------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Constructors for the coupling graphs used in the paper's evaluation:
/// IBM Sherbrooke (127-qubit heavy-hex), Rigetti Ankaa-3 (82-qubit square
/// lattice), the synthetic 256-qubit Sherbrooke-2X, the 9x9/16x16
/// eight-neighbor grids used to generate the custom QUEKO sets, and generic
/// line/ring/grid/heavy-hex families for tests and examples.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_TOPOLOGY_BACKENDS_H
#define QLOSURE_TOPOLOGY_BACKENDS_H

#include "topology/CouplingGraph.h"

namespace qlosure {

/// A path 0 - 1 - ... - N-1.
CouplingGraph makeLine(unsigned NumQubits);

/// A cycle over \p NumQubits qubits (requires >= 3).
CouplingGraph makeRing(unsigned NumQubits);

/// A Rows x Cols square lattice with 4-neighbor connectivity.
CouplingGraph makeGrid(unsigned Rows, unsigned Cols);

/// A Rows x Cols king's-graph lattice: every interior qubit connects to its
/// eight nearest neighbors (the paper's custom QUEKO grid architecture).
CouplingGraph makeKingsGrid(unsigned Rows, unsigned Cols);

/// A generic heavy-hexagon lattice with \p Rows qubit rows of length
/// \p Cols; four bridge qubits sit between consecutive rows at alternating
/// offsets, the first row drops its last qubit and the last row its first
/// (IBM Eagle trimming). Rows must be odd and Cols of the form 4k + 3.
CouplingGraph makeHeavyHex(unsigned Rows, unsigned Cols);

/// IBM Sherbrooke: the 127-qubit heavy-hex lattice (7 rows of 15).
CouplingGraph makeSherbrooke();

/// Rigetti Ankaa-3: an 82-qubit square lattice (7x12 grid with two corner
/// qubits disabled, max degree 4).
CouplingGraph makeAnkaa3();

/// Sherbrooke-2X: two Sherbrooke copies joined by two bridge qubits,
/// 256 qubits total (the paper's synthetic scalability backend).
CouplingGraph makeSherbrooke2X();

/// The 81-qubit 9x9 king's-graph QPU used to synthesize queko-bss-81qbt.
CouplingGraph makeKings9x9();

/// The 256-qubit 16x16 king's-graph QPU used to synthesize the 16x16
/// QUEKO circuits evaluated on Sherbrooke-2X.
CouplingGraph makeKings16x16();

/// Rigetti Aspen-4 (16 qubits): two octagonal rings joined by two rungs —
/// the device the original queko-bss-16qbt set targets.
CouplingGraph makeAspen16();

/// Google Sycamore-54 approximation: a 6x9 square lattice (degree <= 4),
/// the generation device for queko-bss-54qbt.
CouplingGraph makeSycamore54();

/// The names makeBackendByName accepts: "sherbrooke", "ankaa3",
/// "sherbrooke2x", "kings9x9", "kings16x16", "aspen16", "sycamore54".
/// This is the one list the daemon and the command-line tools check.
std::vector<std::string> backendNames();

/// True when \p Name is one of backendNames().
bool isBackendName(const std::string &Name);

/// Looks up a backend by name; aborts on names isBackendName rejects.
CouplingGraph makeBackendByName(const std::string &Name);

} // namespace qlosure

#endif // QLOSURE_TOPOLOGY_BACKENDS_H
