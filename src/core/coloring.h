#ifndef CQBOUNDS_CORE_COLORING_H_
#define CQBOUNDS_CORE_COLORING_H_

#include <set>
#include <string>
#include <vector>

#include "cq/query.h"
#include "util/rational.h"
#include "util/status.h"

namespace cqbounds {

/// A coloring of the variables of a query (Definition 3.1): `labels[v]` is
/// the set L(X_v) of colors (arbitrary non-negative ints) assigned to
/// variable v. Colors may be shared between variables.
struct Coloring {
  std::vector<std::set<int>> labels;

  /// Union of the labels of `vars`.
  std::set<int> UnionOver(const std::set<int>& vars) const;

  bool AnyNonEmpty() const;

  std::string ToString(const Query& query) const;
};

/// Checks Definition 3.1 against the variable-level FDs of `query`:
/// for each derived FD X1..Xk -> Y, L(Y) must be a subset of the union of
/// the L(Xi); and some variable must have a non-empty label.
Status ValidateColoring(const Query& query, const Coloring& coloring);

/// The color number of a specific coloring (Definition 3.2):
/// |union of head labels| / max over body atoms of |union of atom labels|.
/// Requires a valid coloring (denominator is then non-zero: the paper's
/// validity condition plus the fact that every variable occurs in some atom;
/// colorings whose colors all sit on non-head variables simply score 0).
Rational ColoringNumber(const Query& query, const Coloring& coloring);

/// Exhaustive search for the best color number achievable with at most
/// `max_colors` distinct colors (each variable's label ranges over all
/// 2^max_colors subsets). Exponential -- requires
/// num_variables * max_colors <= 24. Used to cross-validate the LP methods
/// on small queries. Returns 0 if no valid coloring exists at all (cannot
/// happen: a single color on every variable is valid when there are no FDs;
/// with FDs the all-variables-one-color labeling is always valid).
Rational BestColoringBruteForce(const Query& query, int max_colors,
                                Coloring* best = nullptr);

/// True iff `query` admits a valid coloring with 2 colors and color number
/// 2 (the treewidth-blowup witness of Propositions 5.9 / Theorem 5.10 /
/// Proposition 7.3). Implemented as a backtracking search with atom-overflow
/// pruning; worst-case exponential (the decision is NP-complete for
/// arbitrary FDs, Prop 7.3) but fast on the instances used here.
bool ExistsTwoColoringNumberTwo(const Query& query);

}  // namespace cqbounds

#endif  // CQBOUNDS_CORE_COLORING_H_
