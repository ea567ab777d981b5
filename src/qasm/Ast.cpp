//===- qasm/Ast.cpp - OpenQASM 2.0 abstract syntax tree ----------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "qasm/Ast.h"

#include <cmath>

using namespace qlosure;
using namespace qlosure::qasm;

std::optional<double> qasm::applyUnary(std::string_view Op, double V) {
  if (Op == "-")
    return -V;
  if (Op == "sin")
    return std::sin(V);
  if (Op == "cos")
    return std::cos(V);
  if (Op == "tan")
    return std::tan(V);
  if (Op == "exp")
    return std::exp(V);
  if (Op == "ln")
    return std::log(V);
  if (Op == "sqrt")
    return std::sqrt(V);
  return std::nullopt;
}

std::optional<double> qasm::applyBinary(std::string_view Op, double L,
                                        double R) {
  if (Op == "+")
    return L + R;
  if (Op == "-")
    return L - R;
  if (Op == "*")
    return L * R;
  if (Op == "/")
    return L / R;
  if (Op == "^")
    return std::pow(L, R);
  return std::nullopt;
}

std::optional<double>
Expr::evaluate(const std::map<std::string, double> &ParamValues) const {
  switch (NodeKind) {
  case Kind::Number:
    return Number;
  case Kind::Pi:
    return M_PI;
  case Kind::Param: {
    auto It = ParamValues.find(Name);
    if (It == ParamValues.end())
      return std::nullopt;
    return It->second;
  }
  case Kind::Unary: {
    auto V = Lhs->evaluate(ParamValues);
    if (!V)
      return std::nullopt;
    return applyUnary(Name, *V);
  }
  case Kind::Binary: {
    auto L = Lhs->evaluate(ParamValues);
    auto R = Rhs->evaluate(ParamValues);
    if (!L || !R)
      return std::nullopt;
    return applyBinary(Name, *L, *R);
  }
  }
  return std::nullopt;
}
