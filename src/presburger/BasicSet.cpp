//===- presburger/BasicSet.cpp - Conjunctive integer sets -------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "presburger/BasicSet.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace qlosure;
using namespace qlosure::presburger;

/// Floor division with sign-correct rounding toward negative infinity.
static int64_t floorDiv(int64_t Num, int64_t Den) {
  assert(Den != 0 && "division by zero");
  int64_t Q = Num / Den;
  if ((Num % Den != 0) && ((Num < 0) != (Den < 0)))
    --Q;
  return Q;
}

/// Ceiling division with sign-correct rounding toward positive infinity.
static int64_t ceilDiv(int64_t Num, int64_t Den) {
  assert(Den != 0 && "division by zero");
  int64_t Q = Num / Den;
  if ((Num % Den != 0) && ((Num < 0) == (Den < 0)))
    ++Q;
  return Q;
}

static int64_t checkedNarrow(__int128 Value) {
  if (Value > INT64_MAX || Value < INT64_MIN)
    reportFatalError("coefficient overflow in Fourier-Motzkin elimination");
  return static_cast<int64_t>(Value);
}

/// Combines a lower bound (positive coefficient on Var) with an upper bound
/// (negative coefficient) eliminating Var: (-CU)*L + CL*U >= 0.
static Constraint combineBounds(const Constraint &LowerC,
                                const Constraint &UpperC, unsigned Var,
                                unsigned NumVars) {
  int64_t CL = LowerC.Expr.coefficient(Var);
  int64_t CU = UpperC.Expr.coefficient(Var);
  assert(CL > 0 && CU < 0 && "bad bound orientation");
  AffineExpr Result(NumVars);
  for (unsigned V = 0; V < NumVars; ++V) {
    __int128 Value = static_cast<__int128>(-CU) * LowerC.Expr.coefficient(V) +
                     static_cast<__int128>(CL) * UpperC.Expr.coefficient(V);
    Result.setCoefficient(V, checkedNarrow(Value));
  }
  __int128 K = static_cast<__int128>(-CU) * LowerC.Expr.constantTerm() +
               static_cast<__int128>(CL) * UpperC.Expr.constantTerm();
  Result.setConstantTerm(checkedNarrow(K));
  assert(Result.coefficient(Var) == 0 && "elimination failed");
  Constraint Out(std::move(Result), ConstraintKind::Inequality);
  Out.Expr.normalizeGcd();
  return Out;
}

std::vector<Constraint>
presburger::fourierMotzkinEliminate(const std::vector<Constraint> &Constraints,
                                    unsigned Var, unsigned NumVars) {
  // First look for an equality with a unit coefficient on Var: substituting
  // it is exact and avoids the quadratic blowup of the general combination.
  for (const Constraint &C : Constraints) {
    if (C.Kind != ConstraintKind::Equality)
      continue;
    int64_t Coef = C.Expr.coefficient(Var);
    if (Coef != 1 && Coef != -1)
      continue;
    // Var == Replacement where Replacement = -(Expr - Coef*Var)/Coef.
    AffineExpr Rest = C.Expr;
    Rest.setCoefficient(Var, 0);
    AffineExpr Replacement = (Coef == 1) ? -Rest : Rest;
    std::vector<Constraint> Out;
    Out.reserve(Constraints.size() - 1);
    for (const Constraint &Other : Constraints) {
      if (&Other == &C)
        continue;
      Constraint Sub(Other.Expr.substitute(Var, Replacement), Other.Kind);
      Sub.Expr.normalizeGcd();
      Out.push_back(std::move(Sub));
    }
    return Out;
  }

  std::vector<Constraint> Lower, Upper, Rest;
  for (const Constraint &C : Constraints) {
    int64_t Coef = C.Expr.coefficient(Var);
    if (Coef == 0) {
      Rest.push_back(C);
      continue;
    }
    if (C.Kind == ConstraintKind::Equality) {
      // Split a non-unit equality into a pair of inequalities (rational
      // over-approximation of the integer projection).
      Constraint Ge(C.Expr, ConstraintKind::Inequality);
      Constraint Le(-C.Expr, ConstraintKind::Inequality);
      (Ge.Expr.coefficient(Var) > 0 ? Lower : Upper).push_back(Ge);
      (Le.Expr.coefficient(Var) > 0 ? Lower : Upper).push_back(Le);
      continue;
    }
    (Coef > 0 ? Lower : Upper).push_back(C);
  }

  for (const Constraint &L : Lower)
    for (const Constraint &U : Upper)
      Rest.push_back(combineBounds(L, U, Var, NumVars));
  return Rest;
}

void BasicSet::addConstraint(Constraint C) {
  assert(C.Expr.numVars() == numTotalVars() &&
         "constraint variable space mismatch");
  Conss.push_back(std::move(C));
}

void BasicSet::addBounds(unsigned Var, int64_t Lower, int64_t Upper) {
  assert(Var < NumDims && "bounds are for visible variables");
  AffineExpr V = AffineExpr::variable(numTotalVars(), Var);
  addConstraint(makeGe(V, AffineExpr::constant(numTotalVars(), Lower)));
  addConstraint(makeLe(V, AffineExpr::constant(numTotalVars(), Upper)));
}

bool BasicSet::contains(const Point &P) const {
  assert(P.size() == NumDims && "point dimensionality mismatch");
  // Substitute the visible values, producing constraints over existentials.
  std::vector<Constraint> Reduced;
  Reduced.reserve(Conss.size());
  for (const Constraint &C : Conss) {
    AffineExpr E(NumExists);
    int64_t K = C.Expr.constantTerm();
    for (unsigned V = 0; V < NumDims; ++V)
      K += C.Expr.coefficient(V) * P[V];
    for (unsigned X = 0; X < NumExists; ++X)
      E.setCoefficient(X, C.Expr.coefficient(NumDims + X));
    E.setConstantTerm(K);
    if (NumExists == 0 || E.isConstant()) {
      int64_t Value = E.constantTerm();
      bool Ok = C.Kind == ConstraintKind::Equality ? Value == 0 : Value >= 0;
      if (!Ok)
        return false;
      continue;
    }
    Reduced.push_back(Constraint(std::move(E), C.Kind));
  }
  if (NumExists == 0 || Reduced.empty())
    return true;

  // Depth-first search over existential assignments with FM-derived bounds.
  Point Assignment(NumExists, 0);
  return searchExistentials(Assignment, 0, Reduced);
}

bool BasicSet::searchExistentials(
    Point &P, unsigned ExistIndex,
    const std::vector<Constraint> &Remaining) const {
  if (ExistIndex == NumExists) {
    for (const Constraint &C : Remaining)
      if (!C.isSatisfied(P))
        return false;
    return true;
  }

  // Bound existential ExistIndex by eliminating all later existentials.
  std::vector<Constraint> Projected = Remaining;
  for (unsigned X = NumExists; X-- > ExistIndex + 1;)
    Projected = fourierMotzkinEliminate(Projected, X, NumExists);

  int64_t Lower = 0, Upper = 0;
  bool HasLower = false, HasUpper = false;
  for (const Constraint &C : Projected) {
    int64_t Coef = C.Expr.coefficient(ExistIndex);
    int64_t K = C.Expr.constantTerm();
    for (unsigned V = 0; V < ExistIndex; ++V)
      K += C.Expr.coefficient(V) * P[V];
    if (Coef == 0) {
      bool Ok = C.Kind == ConstraintKind::Equality ? K == 0 : K >= 0;
      if (!Ok)
        return false;
      continue;
    }
    // Coef*x + K >= 0 (or == 0).
    if (C.Kind == ConstraintKind::Equality) {
      if (K % Coef != 0)
        return false;
      int64_t Value = -K / Coef;
      if ((!HasLower || Value >= Lower) && (!HasUpper || Value <= Upper)) {
        Lower = Upper = Value;
        HasLower = HasUpper = true;
      } else {
        return false;
      }
      continue;
    }
    if (Coef > 0) {
      int64_t Bound = ceilDiv(-K, Coef);
      if (!HasLower || Bound > Lower)
        Lower = Bound;
      HasLower = true;
    } else {
      int64_t Bound = floorDiv(K, -Coef);
      if (!HasUpper || Bound < Upper)
        Upper = Bound;
      HasUpper = true;
    }
  }
  if (!HasLower || !HasUpper)
    reportFatalError("existential variable is unbounded; BasicSet membership "
                     "requires bounded existentials");
  for (int64_t Value = Lower; Value <= Upper; ++Value) {
    P[ExistIndex] = Value;
    if (searchExistentials(P, ExistIndex + 1, Remaining))
      return true;
  }
  return false;
}

bool BasicSet::isTriviallyEmpty() const {
  BasicSet Copy = *this;
  return !Copy.simplify();
}

bool BasicSet::isEmpty() const {
  if (isTriviallyEmpty())
    return true;
  auto Points = enumeratePoints();
  if (!Points)
    reportFatalError("isEmpty() requires a bounded set");
  return Points->empty();
}

VarBounds BasicSet::boundsForVar(unsigned Var) const {
  assert(Var < numTotalVars() && "variable index out of range");
  std::vector<Constraint> Projected = Conss;
  for (unsigned V = numTotalVars(); V-- > 0;) {
    if (V == Var)
      continue;
    Projected = fourierMotzkinEliminate(Projected, V, numTotalVars());
  }

  VarBounds Bounds;
  for (const Constraint &C : Projected) {
    int64_t Coef = C.Expr.coefficient(Var);
    int64_t K = C.Expr.constantTerm();
    if (Coef == 0) {
      bool Ok = C.Kind == ConstraintKind::Equality ? K == 0 : K >= 0;
      if (!Ok) { // Contradiction: empty range.
        Bounds.Lower = 1;
        Bounds.Upper = 0;
        Bounds.HasLower = Bounds.HasUpper = true;
        return Bounds;
      }
      continue;
    }
    auto tightenLower = [&](int64_t Value) {
      if (!Bounds.HasLower || Value > Bounds.Lower)
        Bounds.Lower = Value;
      Bounds.HasLower = true;
    };
    auto tightenUpper = [&](int64_t Value) {
      if (!Bounds.HasUpper || Value < Bounds.Upper)
        Bounds.Upper = Value;
      Bounds.HasUpper = true;
    };
    if (C.Kind == ConstraintKind::Equality) {
      // Coef*x + K == 0 pins x to -K/Coef; when not divisible the integer
      // range collapses to empty (Lo > Hi).
      tightenLower(ceilDiv(-K, Coef));
      tightenUpper(floorDiv(-K, Coef));
      continue;
    }
    if (Coef > 0)
      tightenLower(ceilDiv(-K, Coef));
    else
      tightenUpper(floorDiv(K, -Coef));
  }
  return Bounds;
}

std::optional<std::vector<Point>>
BasicSet::enumeratePoints(size_t MaxPoints) const {
  std::vector<Point> Result;
  BasicSet Simplified = *this;
  if (!Simplified.simplify())
    return Result; // Trivially empty.

  // Recursively fix visible dimensions in order. We re-derive bounds after
  // each fixing so nested ranges shrink with the prefix.
  struct Enumerator {
    size_t MaxPoints;
    std::vector<Point> &Result;
    bool Overflow = false;
    bool Unbounded = false;
    Point Prefix;

    void run(const BasicSet &Set) {
      if (Overflow || Unbounded)
        return;
      if (Set.numDims() == 0) {
        // All visible variables fixed; check existential satisfiability.
        if (Set.contains(Point{})) {
          if (Result.size() >= MaxPoints) {
            Overflow = true;
            return;
          }
          Result.push_back(Prefix);
        }
        return;
      }
      VarBounds Bounds = Set.boundsForVar(0);
      if (!Bounds.HasLower || !Bounds.HasUpper) {
        Unbounded = true;
        return;
      }
      for (int64_t V = Bounds.Lower; V <= Bounds.Upper; ++V) {
        BasicSet Fixed = Set.fixAndRemoveDim(0, V);
        if (Fixed.isTriviallyEmpty())
          continue;
        Prefix.push_back(V);
        run(Fixed);
        Prefix.pop_back();
        if (Overflow || Unbounded)
          return;
      }
    }
  };

  Enumerator E{MaxPoints, Result, false, false, {}};
  E.run(Simplified);
  if (E.Overflow || E.Unbounded)
    return std::nullopt;
  return Result;
}

BasicSet BasicSet::intersect(const BasicSet &Other) const {
  assert(NumDims == Other.NumDims && "visible space mismatch");
  BasicSet Result(NumDims, NumExists + Other.NumExists);
  unsigned Total = Result.numTotalVars();

  // This set's variables keep their positions.
  std::vector<unsigned> MapThis(numTotalVars());
  for (unsigned V = 0; V < numTotalVars(); ++V)
    MapThis[V] = V;
  for (const Constraint &C : Conss)
    Result.addConstraint(Constraint(C.Expr.remapVars(MapThis, Total), C.Kind));

  // Other's existentials shift past ours.
  std::vector<unsigned> MapOther(Other.numTotalVars());
  for (unsigned V = 0; V < Other.NumDims; ++V)
    MapOther[V] = V;
  for (unsigned X = 0; X < Other.NumExists; ++X)
    MapOther[Other.NumDims + X] = NumDims + NumExists + X;
  for (const Constraint &C : Other.Conss)
    Result.addConstraint(Constraint(C.Expr.remapVars(MapOther, Total), C.Kind));
  return Result;
}

BasicSet BasicSet::fixAndRemoveDim(unsigned Var, int64_t Value) const {
  assert(Var < NumDims && "can only fix visible variables");
  BasicSet Result(NumDims - 1, NumExists);
  unsigned NewTotal = Result.numTotalVars();
  std::vector<unsigned> Mapping(numTotalVars());
  for (unsigned V = 0, New = 0; V < numTotalVars(); ++V) {
    if (V == Var) {
      Mapping[V] = 0; // Unused; coefficient gets folded below.
      continue;
    }
    Mapping[V] = New++;
  }
  for (const Constraint &C : Conss) {
    int64_t Coef = C.Expr.coefficient(Var);
    AffineExpr Folded = C.Expr;
    Folded.setCoefficient(Var, 0);
    Folded.setConstantTerm(Folded.constantTerm() + Coef * Value);
    Result.addConstraint(
        Constraint(Folded.remapVars(Mapping, NewTotal), C.Kind));
  }
  return Result;
}

bool BasicSet::simplify() {
  std::vector<Constraint> Kept;
  Kept.reserve(Conss.size());
  for (Constraint &C : Conss) {
    if (C.Expr.isConstant()) {
      int64_t K = C.Expr.constantTerm();
      bool Ok = C.Kind == ConstraintKind::Equality ? K == 0 : K >= 0;
      if (!Ok)
        return false;
      continue; // Tautology.
    }
    // Normalize by the GCD of the variable coefficients.
    int64_t Gcd = 0;
    for (unsigned V = 0; V < C.Expr.numVars(); ++V)
      Gcd = std::gcd(Gcd, std::abs(C.Expr.coefficient(V)));
    if (Gcd > 1) {
      int64_t K = C.Expr.constantTerm();
      if (C.Kind == ConstraintKind::Equality && K % Gcd != 0)
        return false; // No integer solutions.
      for (unsigned V = 0; V < C.Expr.numVars(); ++V)
        C.Expr.setCoefficient(V, C.Expr.coefficient(V) / Gcd);
      // floor is exact for >=0 constraints over integers.
      C.Expr.setConstantTerm(C.Kind == ConstraintKind::Equality
                                 ? K / Gcd
                                 : floorDiv(K, Gcd));
    }
    Kept.push_back(std::move(C));
  }

  // Drop duplicates (stable order otherwise).
  std::vector<Constraint> Unique;
  for (Constraint &C : Kept) {
    bool Seen = false;
    for (const Constraint &U : Unique)
      if (U == C) {
        Seen = true;
        break;
      }
    if (!Seen)
      Unique.push_back(std::move(C));
  }
  Conss = std::move(Unique);
  return true;
}

std::string BasicSet::toString() const {
  std::string Out = "{ [";
  for (unsigned V = 0; V < NumDims; ++V) {
    if (V)
      Out += ", ";
    Out += "x" + std::to_string(V);
  }
  Out += "]";
  if (NumExists)
    Out += " : exists " + std::to_string(NumExists) + " vars";
  Out += " : ";
  for (size_t I = 0; I < Conss.size(); ++I) {
    if (I)
      Out += " and ";
    Out += Conss[I].toString();
  }
  if (Conss.empty())
    Out += "true";
  Out += " }";
  return Out;
}
