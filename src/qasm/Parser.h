//===- qasm/Parser.h - OpenQASM 2.0 parser -----------------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses OpenQASM 2.0 into a Program AST, through the grammar importQasm
/// also uses (qasm/Grammar.h). Returns either a Program or a diagnostic
/// with source position; the library never throws.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_QASM_PARSER_H
#define QLOSURE_QASM_PARSER_H

#include "qasm/Ast.h"

#include <string>
#include <string_view>

namespace qlosure {
namespace qasm {

/// Outcome of a parse: exactly one of Program/Error is meaningful.
struct ParseResult {
  std::optional<Program> Prog;
  std::string Error;

  bool succeeded() const { return Prog.has_value(); }
};

/// Parses OpenQASM 2.0 source text. `include "qelib1.inc";` is recognized
/// and recorded; the standard gates are built in, so no file access occurs.
ParseResult parseQasm(std::string_view Source);

} // namespace qasm
} // namespace qlosure

#endif // QLOSURE_QASM_PARSER_H
