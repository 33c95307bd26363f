#ifndef CQBOUNDS_LP_FLOAT_SIMPLEX_H_
#define CQBOUNDS_LP_FLOAT_SIMPLEX_H_

#include "lp/lp_problem.h"
#include "util/status.h"

namespace cqbounds {

/// Solution of the floating-point simplex (see SolveLpFloat).
struct FloatLpSolution {
  double objective = 0.0;
  std::vector<double> values;
  int pivots = 0;
};

/// Double-precision counterpart of SolveLp, used ONLY for the exactness
/// ablation (bench_a1_exact_vs_float): same two-phase dense tableau, same
/// row normalization (NormalizeForTableau) and Bland's rule, but with double
/// arithmetic and an epsilon dead-band.
///
/// The library's bound computations never use this solver -- color numbers
/// are small-denominator rationals and the paper's tightness statements are
/// equalities, so the production path is the exact solver. This one exists
/// to quantify what exactness costs (and what floating pivots get wrong on
/// degenerate LPs).
Result<FloatLpSolution> SolveLpFloat(const LpProblem& problem,
                                     double eps = 1e-9);

}  // namespace cqbounds

#endif  // CQBOUNDS_LP_FLOAT_SIMPLEX_H_
