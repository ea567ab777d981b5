//===- presburger/AffineExpr.cpp - Affine expressions -----------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "presburger/AffineExpr.h"

#include "support/StringUtils.h"

#include <cassert>
#include <cstdlib>
#include <numeric>

using namespace qlosure;
using namespace qlosure::presburger;

AffineExpr AffineExpr::constant(unsigned NumVars, int64_t Value) {
  AffineExpr E(NumVars);
  E.ConstantTerm = Value;
  return E;
}

AffineExpr AffineExpr::variable(unsigned NumVars, unsigned Var) {
  assert(Var < NumVars && "variable index out of range");
  AffineExpr E(NumVars);
  E.Coefficients[Var] = 1;
  return E;
}

int64_t AffineExpr::coefficient(unsigned Var) const {
  assert(Var < numVars() && "variable index out of range");
  return Coefficients[Var];
}

void AffineExpr::setCoefficient(unsigned Var, int64_t Value) {
  assert(Var < numVars() && "variable index out of range");
  Coefficients[Var] = Value;
}

int64_t AffineExpr::evaluate(const Point &Values) const {
  assert(Values.size() == Coefficients.size() &&
         "point dimensionality mismatch");
  int64_t Sum = ConstantTerm;
  for (size_t I = 0, E = Coefficients.size(); I != E; ++I)
    Sum += Coefficients[I] * Values[I];
  return Sum;
}

bool AffineExpr::isConstant() const {
  for (int64_t C : Coefficients)
    if (C != 0)
      return false;
  return true;
}

bool AffineExpr::isUnitVariable() const {
  unsigned NumNonZero = 0;
  for (int64_t C : Coefficients) {
    if (C == 0)
      continue;
    if (C != 1 && C != -1)
      return false;
    ++NumNonZero;
  }
  return NumNonZero == 1;
}

AffineExpr AffineExpr::operator+(const AffineExpr &Other) const {
  assert(numVars() == Other.numVars() && "variable space mismatch");
  AffineExpr Result = *this;
  for (size_t I = 0, E = Coefficients.size(); I != E; ++I)
    Result.Coefficients[I] += Other.Coefficients[I];
  Result.ConstantTerm += Other.ConstantTerm;
  return Result;
}

AffineExpr AffineExpr::operator-(const AffineExpr &Other) const {
  return *this + (-Other);
}

AffineExpr AffineExpr::operator-() const { return *this * -1; }

AffineExpr AffineExpr::operator*(int64_t Scale) const {
  AffineExpr Result = *this;
  for (int64_t &C : Result.Coefficients)
    C *= Scale;
  Result.ConstantTerm *= Scale;
  return Result;
}

AffineExpr AffineExpr::substitute(unsigned Var,
                                  const AffineExpr &Replacement) const {
  assert(Var < numVars() && "variable index out of range");
  assert(Replacement.numVars() == numVars() && "variable space mismatch");
  assert(Replacement.coefficient(Var) == 0 &&
         "replacement must not mention the substituted variable");
  int64_t Coef = Coefficients[Var];
  AffineExpr Result = *this;
  Result.Coefficients[Var] = 0;
  return Result + Replacement * Coef;
}

AffineExpr AffineExpr::remapVars(const std::vector<unsigned> &Mapping,
                                 unsigned NewNumVars) const {
  assert(Mapping.size() == Coefficients.size() && "mapping size mismatch");
  AffineExpr Result(NewNumVars);
  Result.ConstantTerm = ConstantTerm;
  for (size_t I = 0, E = Coefficients.size(); I != E; ++I) {
    if (Coefficients[I] == 0)
      continue; // Dropped variables may carry a dummy mapping entry.
    assert(Mapping[I] < NewNumVars && "mapped variable out of range");
    Result.Coefficients[Mapping[I]] += Coefficients[I];
  }
  return Result;
}

int64_t AffineExpr::normalizeGcd() {
  int64_t Gcd = std::abs(ConstantTerm);
  for (int64_t C : Coefficients)
    Gcd = std::gcd(Gcd, std::abs(C));
  if (Gcd <= 1)
    return 1;
  for (int64_t &C : Coefficients)
    C /= Gcd;
  ConstantTerm /= Gcd;
  return Gcd;
}

std::string AffineExpr::toString() const {
  std::string Out;
  bool First = true;
  for (size_t I = 0, E = Coefficients.size(); I != E; ++I) {
    int64_t C = Coefficients[I];
    if (C == 0)
      continue;
    if (!First)
      Out += C > 0 ? " + " : " - ";
    else if (C < 0)
      Out += "-";
    int64_t Abs = std::abs(C);
    if (Abs != 1)
      Out += formatString("%lld*", static_cast<long long>(Abs));
    Out += formatString("x%zu", I);
    First = false;
  }
  if (First)
    return formatString("%lld", static_cast<long long>(ConstantTerm));
  if (ConstantTerm > 0)
    Out += formatString(" + %lld", static_cast<long long>(ConstantTerm));
  else if (ConstantTerm < 0)
    Out += formatString(" - %lld", static_cast<long long>(-ConstantTerm));
  return Out;
}

std::string Constraint::toString() const {
  return Expr.toString() +
         (Kind == ConstraintKind::Equality ? " == 0" : " >= 0");
}

Constraint presburger::makeEq(AffineExpr Expr) {
  return Constraint(std::move(Expr), ConstraintKind::Equality);
}

Constraint presburger::makeGe(AffineExpr Lhs, AffineExpr Rhs) {
  return Constraint(Lhs - Rhs, ConstraintKind::Inequality);
}

Constraint presburger::makeLe(AffineExpr Lhs, AffineExpr Rhs) {
  return Constraint(Rhs - Lhs, ConstraintKind::Inequality);
}

Constraint presburger::makeEqExpr(AffineExpr Lhs, AffineExpr Rhs) {
  return Constraint(Lhs - Rhs, ConstraintKind::Equality);
}
