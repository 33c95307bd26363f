#ifndef CQBOUNDS_LP_SIMPLEX_H_
#define CQBOUNDS_LP_SIMPLEX_H_

#include "lp/lp_problem.h"
#include "util/status.h"

namespace cqbounds {

/// Solves `problem` with the two-phase dense tableau simplex method over
/// exact rationals, using Bland's anti-cycling rule. Rows enter the tableau
/// as NormalizeForTableau says, so homogeneous `>= 0` rows start in a slack
/// basis and only `==` rows and `>=` rows with positive rhs need phase 1.
///
/// Returns:
///   - the optimal `LpSolution` on success;
///   - `StatusCode::kInfeasible` if no feasible point exists;
///   - `StatusCode::kUnbounded` if the objective is unbounded over the
///     feasible region.
///
/// Exactness matters here: the color number of Definition 3.2 is a rational
/// (e.g. 3/2 for the triangle query of Example 3.3) and the size-bound
/// exponents of Theorem 4.4 are compared exactly in tests.
Result<LpSolution> SolveLp(const LpProblem& problem);

}  // namespace cqbounds

#endif  // CQBOUNDS_LP_SIMPLEX_H_
