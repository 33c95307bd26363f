#ifndef CQBOUNDS_LP_LP_PROBLEM_H_
#define CQBOUNDS_LP_LP_PROBLEM_H_

#include <string>
#include <vector>

#include "util/rational.h"

namespace cqbounds {

/// Direction of a linear constraint.
enum class ConstraintSense { kLessEq, kGreaterEq, kEqual };

/// One `coef * x_var` term of a linear expression.
struct LpTerm {
  int var = 0;
  Rational coef;
};

/// A single linear constraint `sum_i terms[i] (sense) rhs`.
struct LpConstraint {
  std::vector<LpTerm> terms;
  ConstraintSense sense = ConstraintSense::kLessEq;
  Rational rhs;
};

/// A linear program over non-negative variables.
///
/// All of the paper's bound computations are LPs of this shape:
///   - the color-number LP of Proposition 3.6 (variables = query variables),
///   - its dual, the fractional edge cover LP of Definition 3.5,
///   - the entropy LP of Proposition 6.9 (variables = subset entropies),
///   - the I-measure LP of Proposition 6.10 (variables = diagram atoms).
/// Variables are implicitly constrained `x >= 0`; this loses no generality
/// for any of the above (entropies are non-negative by the Shannon
/// inequalities they are subjected to).
class LpProblem {
 public:
  /// `maximize`: true for a maximization objective.
  explicit LpProblem(bool maximize) : maximize_(maximize) {}

  /// Adds a variable (>= 0) and returns its index. `name` is used only for
  /// diagnostics.
  int AddVariable(std::string name = "");

  /// Sets the objective coefficient of `var` (default 0).
  void SetObjectiveCoef(int var, Rational coef);

  /// Adds a constraint. Variable indices must have been returned by
  /// AddVariable. Duplicate variable entries in `terms` are summed.
  void AddConstraint(std::vector<LpTerm> terms, ConstraintSense sense,
                     Rational rhs);

  bool maximize() const { return maximize_; }
  int num_variables() const { return static_cast<int>(names_.size()); }
  int num_constraints() const { return static_cast<int>(constraints_.size()); }
  const std::vector<Rational>& objective() const { return objective_; }
  const std::vector<LpConstraint>& constraints() const { return constraints_; }
  const std::string& variable_name(int var) const { return names_[var]; }

 private:
  bool maximize_;
  std::vector<std::string> names_;
  std::vector<Rational> objective_;
  std::vector<LpConstraint> constraints_;
};

/// How both simplex solvers (SolveLp, SolveLpFloat) enter a constraint into
/// their tableau: the row is multiplied by `sign` (+1 or -1) and then reads
/// `row (sense) sign * rhs` with a non-negative right-hand side.
///
/// A row is flipped when its rhs is negative, and also when it is a
/// homogeneous `a.x >= 0`: as `-a.x <= 0` its slack starts in the basis at
/// value 0, so the row needs no artificial column and no phase-1 work. The
/// elemental Shannon rows of the entropy LP (Prop 6.9) are all of that kind.
/// Phase 1 is left with the `==` rows and the `>=` rows with positive rhs.
struct TableauRow {
  int sign = 1;
  ConstraintSense sense = ConstraintSense::kLessEq;
};
TableauRow NormalizeForTableau(const LpConstraint& constraint);

/// Optimal solution of an LpProblem.
struct LpSolution {
  /// Objective value at the optimum.
  Rational objective;
  /// Value of each structural variable.
  std::vector<Rational> values;
  /// Total simplex pivots performed (both phases); exposed so benchmarks can
  /// report the cost of exact arithmetic.
  int pivots = 0;
};

}  // namespace cqbounds

#endif  // CQBOUNDS_LP_LP_PROBLEM_H_
