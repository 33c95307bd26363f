#ifndef CQBOUNDS_CORE_JOIN_PLAN_H_
#define CQBOUNDS_CORE_JOIN_PLAN_H_

#include <string>
#include <vector>

#include "cq/query.h"
#include "relation/database.h"
#include "relation/evaluate.h"
#include "util/rational.h"
#include "util/status.h"

namespace cqbounds {

/// An explicit join-project plan in the sense of Corollary 4.8 / Atserias
/// et al. Theorem 15: an atom order plus per-step projections.
struct JoinPlan {
  /// JoinPlanStep lives in relation/evaluate.h, next to the binary-join
  /// executor; BuildJoinProjectPlan emits sorted keep sets.
  std::vector<JoinPlanStep> steps;
  /// The Corollary 4.8 time-budget exponent: intermediates stay within
  /// rmax^{C(chase(Q))} and the work within rmax^{C+1} when the guarantee
  /// applies.
  Rational cost_exponent;
  /// True when the paper's guarantee applies: simple FDs only and every
  /// variable occurs in the head (Cor 4.8's precondition). The plan is
  /// still correct otherwise; only the complexity envelope is unproven --
  /// indeed evaluating projection queries with C == 1 can already be
  /// NP-hard (remark after Cor 4.8).
  bool guaranteed = false;

  std::string ToString(const Query& query) const;
};

/// Builds the join-project plan for `query`:
///  - atoms are ordered greedily for connectivity (each next atom shares a
///    maximal number of variables with the already-joined prefix, breaking
///    ties toward smaller new-variable count -- a standard heuristic that
///    avoids accidental cartesian products);
///  - after each step, bindings are projected onto head variables plus the
///    variables of not-yet-joined atoms;
///  - the cost exponent is C(chase(Q)) + 1 from the simple-FD pipeline.
Result<JoinPlan> BuildJoinProjectPlan(const Query& query);

/// How ChooseGenericJoinOrder derived its variable order.
enum class VariableOrderSource {
  /// Reverse elimination order of the certified TreewidthExact decomposition
  /// of the query's variable-intersection graph (taken when the graph is
  /// acyclic or low-width): each variable's already-bound neighbours form a
  /// clique, so trie descents stay aligned.
  kTreeDecomposition,
  /// Greedy by fractional-edge-cover mass: variables whose atoms carry more
  /// optimal cover weight bind first (they are intersected by more of the
  /// relations that pay for the AGM envelope), extended connected-first.
  kFractionalCover,
  /// Atom-degree greedy fallback (DefaultGenericJoinOrder) when the cover
  /// LP is unavailable.
  kGreedy,
};

/// Short lowercase name for `source` ("tree-decomposition", ...).
const char* VariableOrderSourceName(VariableOrderSource source);

/// A variable order for the generic-join executor, plus the certificates
/// that chose it. Any order is correct and worst-case optimal; this module
/// only tunes the constants (seek counts, trie reuse).
struct GenericJoinOrder {
  /// Every body variable exactly once, in binding order. Feed to
  /// EvaluateGenericJoin.
  std::vector<int> order;
  VariableOrderSource source = VariableOrderSource::kGreedy;
  /// rho*(full join) -- the AGM envelope exponent: the generic join
  /// enumerates at most rmax^envelope_exponent bindings at every depth.
  Rational envelope_exponent;
  /// Certified treewidth of the variable-intersection graph when the
  /// kTreeDecomposition path was taken; -1 otherwise.
  int intersection_width = -1;
  /// The executor this module recommends: kHybridYannakakis exactly when
  /// the low-width tree-decomposition path certified (the same gate the
  /// hybrid executor re-derives, so the hybrid's semi-join pass
  /// will actually engage), kGenericJoin otherwise.
  PlanKind recommended_plan = PlanKind::kGenericJoin;

  std::string ToString(const Query& query) const;
};

/// Derives the generic-join variable order for `query`: solves the
/// full-body fractional edge cover LP (the AGM envelope and the weight
/// heuristic), and runs the exact treewidth engine on the query's
/// variable-intersection graph, preferring the certified elimination order
/// when the graph is low-width (<= 2; chains, trees, cycles, triangles).
///
/// A non-null `ctx` shares its plan tier (relation/eval_context.h) for the
/// treewidth probe: the planner and the hybrid executor then derive their
/// low-width certificates from the same cached entry, so planning a query
/// that was already evaluated (or evaluating one that was already planned)
/// re-runs zero TreewidthExact calls. A null `ctx` runs the probe afresh.
Result<GenericJoinOrder> ChooseGenericJoinOrder(const Query& query,
                                                EvalContext* ctx = nullptr);

}  // namespace cqbounds

#endif  // CQBOUNDS_CORE_JOIN_PLAN_H_
