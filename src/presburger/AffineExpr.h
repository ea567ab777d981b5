//===- presburger/AffineExpr.h - Affine expressions --------------*- C++ -*-===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Affine (linear + constant) expressions over a fixed-size variable space.
/// These are the atoms of the Presburger substrate: the constraints of every
/// set are built from them. The variable space is positional; the enclosing
/// set assigns meaning to each position.
///
//===----------------------------------------------------------------------===//

#ifndef QLOSURE_PRESBURGER_AFFINEEXPR_H
#define QLOSURE_PRESBURGER_AFFINEEXPR_H

#include <cstdint>
#include <string>
#include <vector>

namespace qlosure {
namespace presburger {

/// A point in Z^n.
using Point = std::vector<int64_t>;

/// An affine expression c0 + c1*x1 + ... + cn*xn over \p numVars variables.
class AffineExpr {
public:
  AffineExpr() = default;

  /// Creates the zero expression over \p NumVars variables.
  explicit AffineExpr(unsigned NumVars)
      : Coefficients(NumVars, 0), ConstantTerm(0) {}

  /// Creates an expression from explicit coefficients and constant.
  AffineExpr(std::vector<int64_t> Coefficients, int64_t ConstantTerm)
      : Coefficients(std::move(Coefficients)), ConstantTerm(ConstantTerm) {}

  /// Returns the constant expression \p Value over \p NumVars variables.
  static AffineExpr constant(unsigned NumVars, int64_t Value);

  /// Returns the expression "x_Var" over \p NumVars variables.
  static AffineExpr variable(unsigned NumVars, unsigned Var);

  unsigned numVars() const {
    return static_cast<unsigned>(Coefficients.size());
  }

  int64_t coefficient(unsigned Var) const;
  void setCoefficient(unsigned Var, int64_t Value);
  int64_t constantTerm() const { return ConstantTerm; }
  void setConstantTerm(int64_t Value) { ConstantTerm = Value; }

  /// Evaluates the expression at \p Values (one value per variable).
  int64_t evaluate(const Point &Values) const;

  /// Returns true if every coefficient is zero.
  bool isConstant() const;

  /// Returns true if exactly one coefficient is nonzero and it is +/-1.
  bool isUnitVariable() const;

  AffineExpr operator+(const AffineExpr &Other) const;
  AffineExpr operator-(const AffineExpr &Other) const;
  AffineExpr operator-() const;
  AffineExpr operator*(int64_t Scale) const;

  bool operator==(const AffineExpr &Other) const {
    return Coefficients == Other.Coefficients &&
           ConstantTerm == Other.ConstantTerm;
  }

  /// Substitutes variable \p Var with the affine expression \p Replacement
  /// (which must be over the same variable space).
  AffineExpr substitute(unsigned Var, const AffineExpr &Replacement) const;

  /// Returns a copy over a new space of \p NewNumVars variables where the
  /// old variable I maps to position Mapping[I].
  AffineExpr remapVars(const std::vector<unsigned> &Mapping,
                       unsigned NewNumVars) const;

  /// Divides all coefficients and the constant by their positive GCD.
  /// Returns the GCD (1 if the expression is zero).
  int64_t normalizeGcd();

  /// Renders e.g. "2*x0 - x2 + 3" for debugging and tests.
  std::string toString() const;

private:
  std::vector<int64_t> Coefficients;
  int64_t ConstantTerm = 0;
};

/// The two constraint kinds of a Presburger formula in normal form.
enum class ConstraintKind : uint8_t {
  Equality,  ///< Expr == 0
  Inequality ///< Expr >= 0
};

/// A single affine constraint: Expr ==/>= 0.
struct Constraint {
  AffineExpr Expr;
  ConstraintKind Kind;

  Constraint() : Kind(ConstraintKind::Inequality) {}
  Constraint(AffineExpr Expr, ConstraintKind Kind)
      : Expr(std::move(Expr)), Kind(Kind) {}

  /// True if \p Values satisfies the constraint.
  bool isSatisfied(const Point &Values) const {
    int64_t V = Expr.evaluate(Values);
    return Kind == ConstraintKind::Equality ? V == 0 : V >= 0;
  }

  bool operator==(const Constraint &Other) const {
    return Kind == Other.Kind && Expr == Other.Expr;
  }

  std::string toString() const;
};

/// Convenience builders for the common constraint shapes.
Constraint makeEq(AffineExpr Expr);
Constraint makeGe(AffineExpr Lhs, AffineExpr Rhs);   ///< Lhs >= Rhs
Constraint makeLe(AffineExpr Lhs, AffineExpr Rhs);   ///< Lhs <= Rhs
Constraint makeEqExpr(AffineExpr Lhs, AffineExpr Rhs); ///< Lhs == Rhs

} // namespace presburger
} // namespace qlosure

#endif // QLOSURE_PRESBURGER_AFFINEEXPR_H
