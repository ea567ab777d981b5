//===- qasm/Importer.h - OpenQASM 2.0 to circuit IR --------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers OpenQASM 2.0 to the flat Circuit IR: flattens quantum registers
/// into one index space, resolves the qelib1 builtin gates, inlines
/// user-defined gates recursively, applies whole-register broadcasting,
/// and evaluates parameter expressions, which must be finite.
///
/// importProgram() lowers a parsed Program in two passes: declarations,
/// then statements. Registers and gates may be used before they are
/// declared, the last definition of a redefined gate applies to every
/// call, and errors rank the same wherever they sit in the text: a syntax
/// error beats a too-large declaration, which beats a declaration error
/// (duplicate qreg, opaque gate), which beats the first lowering error.
///
/// importQasm() lowers each statement as it parses. It returns a syntax
/// error as is; at any other failure, including a use before declaration
/// or a redefined gate, it stops and answers with
/// importProgram(parseQasm()). Both share one lowering, so they agree on
/// every input: the same Circuit bit for bit, or the same error text.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_QASM_IMPORTER_H
#define QLOSURE_QASM_IMPORTER_H

#include "circuit/Circuit.h"
#include "qasm/Ast.h"

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace qlosure {
namespace qasm {

/// The largest qubit count an import accepts by default; the parser
/// rejects register sizes and totals beyond it.
inline constexpr unsigned MaxImportQubits =
    std::numeric_limits<int32_t>::max();

/// The most gates an import lowers. Each broadcast element counts, and so
/// does each inlined user-gate call, so a definition that lowers to
/// nothing still pays for its calls. A call whose expansion would pass the
/// bound fails before it is inlined. Four bytes (`x a;`) is the shortest
/// gate statement, so no flat text within a 64 MiB request reaches it.
inline constexpr uint64_t MaxImportGates = uint64_t{1} << 24;

/// Outcome of an import: exactly one of Circ/Error is meaningful.
struct ImportResult {
  std::optional<Circuit> Circ;
  std::string Error;
  /// Set, with an Error, when the program declares more qubits than the
  /// caller's bound; NumQubits is the declared total. No gate is lowered
  /// once the running total passes the bound, and before that point no
  /// register, so no broadcast, is wider than the bound.
  bool TooLarge = false;
  unsigned NumQubits = 0;

  bool succeeded() const { return Circ.has_value(); }
};

/// Lowers \p Prog to a Circuit named \p Name; a program declaring more
/// than \p MaxQubits qubits is TooLarge.
ImportResult importProgram(const Program &Prog, const std::string &Name = "",
                           unsigned MaxQubits = MaxImportQubits);

/// Parses and lowers \p Source in one pass; equivalent to
/// importProgram(parseQasm(Source)) with the same bound.
ImportResult importQasm(std::string_view Source, const std::string &Name = "",
                        unsigned MaxQubits = MaxImportQubits);

} // namespace qasm
} // namespace qlosure

#endif // QLOSURE_QASM_IMPORTER_H
