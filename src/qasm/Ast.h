//===- qasm/Ast.h - OpenQASM 2.0 abstract syntax tree ------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The OpenQASM 2.0 AST. Parameter expressions are small trees supporting
/// the qelib1 operator set (+, -, *, /, ^, unary minus, pi, and the
/// standard unary math functions).
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_QASM_AST_H
#define QLOSURE_QASM_AST_H

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace qlosure {
namespace qasm {

/// A parameter expression node.
struct Expr {
  enum class Kind : uint8_t {
    Number,   ///< Literal value.
    Pi,       ///< The constant pi.
    Param,    ///< A formal gate parameter (only inside gate bodies).
    Unary,    ///< Op in {"-", "sin", "cos", "tan", "exp", "ln", "sqrt"}.
    Binary    ///< Op in {"+", "-", "*", "/", "^"}.
  };

  Kind NodeKind = Kind::Number;
  double Number = 0;
  std::string Name; ///< Param name or operator spelling.
  std::unique_ptr<Expr> Lhs;
  std::unique_ptr<Expr> Rhs;

  /// Evaluates with \p ParamValues bound to formal parameters. Returns
  /// std::nullopt on an unbound parameter or an unknown function.
  std::optional<double>
  evaluate(const std::map<std::string, double> &ParamValues) const;
};

/// Applies a unary operator or function ("-", "sin", "cos", "tan", "exp",
/// "ln", "sqrt") to \p V; std::nullopt for any other name.
std::optional<double> applyUnary(std::string_view Op, double V);

/// Applies a binary operator ("+", "-", "*", "/", "^"); std::nullopt for
/// any other.
std::optional<double> applyBinary(std::string_view Op, double L, double R);

/// A register reference: whole register ("q") or one element ("q[3]").
struct Argument {
  std::string Reg;
  std::optional<unsigned> Index;
};

/// One quantum or classical register declaration.
struct RegDecl {
  bool IsQuantum = true;
  std::string Name;
  unsigned Size = 0;
};

/// A gate application (builtin or user-defined).
struct GateCall {
  std::string Name;
  std::vector<std::unique_ptr<Expr>> Params;
  std::vector<Argument> Args;
  unsigned Line = 0;
};

/// A user gate definition; its body may only contain gate calls (and
/// barriers, which we ignore inside bodies).
struct GateDef {
  std::string Name;
  std::vector<std::string> ParamNames;
  std::vector<std::string> QubitNames;
  std::vector<GateCall> Body;
  bool IsOpaque = false;
};

/// measure src -> dst.
struct MeasureStmt {
  Argument Src;
  Argument Dst;
};

/// barrier over a list of arguments.
struct BarrierStmt {
  std::vector<Argument> Args;
};

/// One top-level statement.
struct Statement {
  enum class Kind : uint8_t { Reg, Gate, Call, Measure, Barrier, Reset };
  Kind StmtKind = Kind::Call;
  RegDecl Reg;
  GateDef Gate;
  GateCall Call;
  MeasureStmt Measure;
  BarrierStmt Barrier;
  Argument ResetArg;
};

/// A parsed OpenQASM 2.0 program.
struct Program {
  std::string Version = "2.0";
  std::vector<std::string> Includes;
  std::vector<Statement> Statements;
};

} // namespace qasm
} // namespace qlosure

#endif // QLOSURE_QASM_AST_H
