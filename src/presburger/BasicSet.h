//===- presburger/BasicSet.h - Conjunctive integer sets ----------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A BasicSet is a conjunction of affine constraints over a space of visible
/// (set) variables plus trailing existentially quantified variables:
///
///   { [x1..xn] : exists e1..em . /\ constraints(x, e) }
///
/// Membership and enumeration are exact for bounded sets: candidate ranges
/// come from (rational) Fourier-Motzkin bounds and every candidate is checked
/// against the integer constraints, including a search over the existential
/// variables.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_PRESBURGER_BASICSET_H
#define QLOSURE_PRESBURGER_BASICSET_H

#include "presburger/AffineExpr.h"

#include <optional>
#include <string>
#include <vector>

namespace qlosure {
namespace presburger {

/// Inclusive variable bounds produced by Fourier-Motzkin projection.
struct VarBounds {
  int64_t Lower;
  int64_t Upper;
  bool HasLower = false;
  bool HasUpper = false;
};

/// A conjunction of affine constraints with optional existential variables.
class BasicSet {
public:
  BasicSet() = default;

  /// Creates the universe set over \p NumDims visible variables and
  /// \p NumExists existential variables.
  explicit BasicSet(unsigned NumDims, unsigned NumExists = 0)
      : NumDims(NumDims), NumExists(NumExists) {}

  unsigned numDims() const { return NumDims; }
  unsigned numExists() const { return NumExists; }
  unsigned numTotalVars() const { return NumDims + NumExists; }
  const std::vector<Constraint> &constraints() const { return Conss; }

  /// Appends \p C, which must range over numTotalVars() variables.
  void addConstraint(Constraint C);

  /// Convenience: adds Lower <= x_Var <= Upper.
  void addBounds(unsigned Var, int64_t Lower, int64_t Upper);

  /// Exact membership for a visible point (searches existentials if any).
  bool contains(const Point &P) const;

  /// True if the constraint system is syntactically contradictory after
  /// normalization (cheap check; may return false for deeper emptiness).
  bool isTriviallyEmpty() const;

  /// True if the set has no integer points. Requires the visible space to be
  /// bounded (asserts otherwise via enumeratePoints).
  bool isEmpty() const;

  /// Enumerates all visible integer points. Returns std::nullopt if a
  /// variable is unbounded or more than \p MaxPoints points were found.
  std::optional<std::vector<Point>>
  enumeratePoints(size_t MaxPoints = DefaultEnumerationBudget) const;

  /// Fourier-Motzkin bounds for the visible variable \p Var after rationally
  /// eliminating all other variables. A sound over-approximation: the true
  /// integer bounds are within the returned range.
  VarBounds boundsForVar(unsigned Var) const;

  /// Intersects with \p Other over the same visible space. Existential
  /// variables of both operands are concatenated.
  BasicSet intersect(const BasicSet &Other) const;

  /// Substitutes visible variable \p Var := Value and removes the variable
  /// from the visible space.
  BasicSet fixAndRemoveDim(unsigned Var, int64_t Value) const;

  /// Normalizes constraints (GCD reduction, duplicate removal, constant
  /// folding). Returns false if a contradiction was detected.
  bool simplify();

  /// Renders like "{ [x0, x1] : x0 >= 0 and ... }" for debugging.
  std::string toString() const;

  static constexpr size_t DefaultEnumerationBudget = 4000000;

private:
  /// Searches existential assignments satisfying all constraints given fixed
  /// visible values. \p P has numTotalVars entries; entries [NumDims, end)
  /// are scratch.
  bool searchExistentials(Point &P, unsigned ExistIndex,
                          const std::vector<Constraint> &Remaining) const;

  unsigned NumDims = 0;
  unsigned NumExists = 0;
  std::vector<Constraint> Conss;
};

/// Rationally eliminates variable \p Var from \p Constraints (classic
/// Fourier-Motzkin combination of lower and upper bounds). The result is a
/// sound over-approximation of the integer projection and ranges over the
/// same variable space with \p Var's coefficients zeroed.
std::vector<Constraint>
fourierMotzkinEliminate(const std::vector<Constraint> &Constraints,
                        unsigned Var, unsigned NumVars);

} // namespace presburger
} // namespace qlosure

#endif // QLOSURE_PRESBURGER_BASICSET_H
