#ifndef CQBOUNDS_CORE_ENTROPY_BOUND_H_
#define CQBOUNDS_CORE_ENTROPY_BOUND_H_

#include "cq/query.h"
#include "util/rational.h"
#include "util/status.h"

namespace cqbounds {

/// Result of the Proposition 6.9 entropy linear program.
struct EntropyBoundResult {
  /// s(Q): the optimal objective, an upper bound on the exponent of the
  /// worst-case size increase under arbitrary FDs.
  Rational value;
  int lp_pivots = 0;
  int num_lp_variables = 0;
  int num_lp_constraints = 0;
};

/// Computes s(Q) per Proposition 6.9 for `query` (callers should pass
/// chase(Q)):
///
///   maximize   h(u0)
///   subject to h(uj) <= 1                          for every body atom,
///              h(rhs | lhs) = 0                    for every variable FD,
///              all elemental Shannon inequalities  (Definition 6.8),
///
/// with one LP variable per non-empty subset of var(Q). The elemental
/// basis has n + n(n-1)2^{n-3} inequalities, so the LP is exponential in
/// n = |var(Q)|. Its Shannon rows are homogeneous, so SolveLp starts them
/// in a slack basis with no phase-1 work, and the pivots stay on the int64
/// fast path of Rational: the 7-cycle solves in tens of milliseconds.
/// What bounds n is the dense tableau, rows x columns both ~2^n (about
/// 3.7M cells at n = 8, ~24M at n = 9), so the LP is guarded to n <= 8.
/// Benchmark E6 reports the LP shape and pivot counts.
///
/// Because the LP relaxes "entropies of a real distribution" to "vectors
/// satisfying Shannon", s(Q) >= true worst-case exponent >= C(chase(Q));
/// the bound is NOT tight in general (non-Shannon inequalities exist --
/// Zhang-Yeung 1998), which the paper leaves as the open frontier.
Result<EntropyBoundResult> EntropySizeBound(const Query& query);

}  // namespace cqbounds

#endif  // CQBOUNDS_CORE_ENTROPY_BOUND_H_
