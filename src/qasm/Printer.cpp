//===- qasm/Printer.cpp - Circuit to OpenQASM 2.0 export ----------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "qasm/Printer.h"

#include <algorithm>
#include <charconv>

using namespace qlosure;
using namespace qlosure::qasm;

namespace {

template <typename IntT> void appendInt(std::string &Out, IntT V) {
  char Buf[16];
  auto Res = std::to_chars(Buf, Buf + sizeof(Buf), V);
  Out.append(Buf, Res.ptr);
}

/// General format at precision 17, which the C++ standard defines as
/// printf's "%.17g": enough digits to round-trip every double.
void appendReal(std::string &Out, double V) {
  char Buf[32];
  auto Res =
      std::to_chars(Buf, Buf + sizeof(Buf), V, std::chars_format::general, 17);
  Out.append(Buf, Res.ptr);
}

void appendQubit(std::string &Out, const char *Reg, int32_t Q) {
  Out += Reg;
  appendInt(Out, Q);
  Out += ']';
}

} // namespace

std::string qasm::printQasm(const Circuit &Circ) {
  std::string Out;
  // Routed affine-batch items print 15-32 bytes per gate, and 20 for the
  // largest one, which dominates print time.
  Out.reserve(64 + 24 * Circ.size());
  Out += "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[";
  appendInt(Out, Circ.numQubits());
  Out += "];\n";

  if (std::any_of(Circ.gates().begin(), Circ.gates().end(),
                  [](const Gate &G) { return G.Kind == GateKind::Measure; })) {
    Out += "creg c[";
    appendInt(Out, Circ.numQubits());
    Out += "];\n";
  }

  for (const Gate &G : Circ.gates()) {
    if (G.Kind == GateKind::Measure) {
      appendQubit(Out, "measure q[", G.Qubits[0]);
      appendQubit(Out, " -> c[", G.Qubits[0]);
      Out += ";\n";
      continue;
    }
    if (G.Kind == GateKind::Barrier) {
      appendQubit(Out, "barrier q[", G.Qubits[0]);
      Out += ";\n";
      continue;
    }
    Out += gateName(G.Kind);
    unsigned NP = G.numParams();
    if (NP) {
      Out += '(';
      for (unsigned I = 0; I < NP; ++I) {
        if (I)
          Out += ',';
        appendReal(Out, G.Params[I]);
      }
      Out += ')';
    }
    unsigned NQ = G.numQubits();
    for (unsigned I = 0; I < NQ; ++I)
      appendQubit(Out, I ? ",q[" : " q[", G.Qubits[I]);
    Out += ";\n";
  }
  return Out;
}
