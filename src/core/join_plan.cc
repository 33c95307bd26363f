#include "core/join_plan.h"

#include <set>
#include <sstream>

#include "core/color_number.h"

namespace cqbounds {

std::string JoinPlan::ToString(const Query& query) const {
  std::ostringstream os;
  os << "JoinPlan(cost <= rmax^" << cost_exponent.ToString()
     << (guaranteed ? ", guaranteed" : ", heuristic") << "):\n";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Atom& atom = query.atoms()[steps[i].atom_index];
    os << "  " << i + 1 << ". join " << atom.relation << " -> keep {";
    for (std::size_t j = 0; j < steps[i].keep_vars.size(); ++j) {
      if (j) os << ",";
      os << query.variable_name(steps[i].keep_vars[j]);
    }
    os << "}\n";
  }
  return os.str();
}

Result<JoinPlan> BuildJoinProjectPlan(const Query& query) {
  CQB_RETURN_NOT_OK(query.Validate());
  const std::size_t m = query.atoms().size();

  // Greedy connected ordering.
  std::vector<std::set<int>> atom_vars;
  for (std::size_t i = 0; i < m; ++i) {
    atom_vars.push_back(query.AtomVarSet(static_cast<int>(i)));
  }
  std::vector<int> order;
  std::vector<char> used(m, 0);
  std::set<int> bound;
  for (std::size_t step = 0; step < m; ++step) {
    int best = -1;
    int best_shared = -1;
    int best_new = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (used[i]) continue;
      int shared = 0;
      int fresh = 0;
      for (int v : atom_vars[i]) {
        if (bound.count(v)) {
          ++shared;
        } else {
          ++fresh;
        }
      }
      if (best < 0 || shared > best_shared ||
          (shared == best_shared && fresh < best_new)) {
        best = static_cast<int>(i);
        best_shared = shared;
        best_new = fresh;
      }
    }
    used[best] = 1;
    order.push_back(best);
    bound.insert(atom_vars[best].begin(), atom_vars[best].end());
  }

  JoinPlan plan;
  std::set<int> head = query.HeadVarSet();
  for (std::size_t step = 0; step < m; ++step) {
    // Needed after this step: head vars + vars of atoms later in `order`.
    std::set<int> needed = head;
    for (std::size_t later = step + 1; later < m; ++later) {
      needed.insert(atom_vars[order[later]].begin(),
                    atom_vars[order[later]].end());
    }
    // Intersect with what is bound by the prefix.
    std::set<int> prefix_bound;
    for (std::size_t done = 0; done <= step; ++done) {
      prefix_bound.insert(atom_vars[order[done]].begin(),
                          atom_vars[order[done]].end());
    }
    JoinPlanStep s;
    s.atom_index = order[step];
    for (int v : prefix_bound) {
      if (needed.count(v)) s.keep_vars.push_back(v);
    }
    plan.steps.push_back(std::move(s));
  }

  auto color = ColorNumberOfChase(query);
  if (color.ok()) {
    plan.cost_exponent = color->value + Rational(1);
  } else {
    plan.cost_exponent = Rational(static_cast<std::int64_t>(m));
  }
  std::set<int> body = query.BodyVarSet();
  plan.guaranteed = query.AllFdsSimple() && head == body;
  return plan;
}

const char* VariableOrderSourceName(VariableOrderSource source) {
  switch (source) {
    case VariableOrderSource::kTreeDecomposition: return "tree-decomposition";
    case VariableOrderSource::kFractionalCover: return "fractional-cover";
    case VariableOrderSource::kGreedy: return "greedy";
  }
  return "unknown";
}

std::string GenericJoinOrder::ToString(const Query& query) const {
  std::ostringstream os;
  os << "GenericJoinOrder(source=" << VariableOrderSourceName(source);
  if (intersection_width >= 0) os << ", width=" << intersection_width;
  os << ", plan=" << PlanKindName(recommended_plan);
  os << ", envelope rmax^" << envelope_exponent.ToString() << "): ";
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i) os << " -> ";
    os << query.variable_name(order[i]);
  }
  return os.str();
}

Result<GenericJoinOrder> ChooseGenericJoinOrder(const Query& query,
                                                EvalContext* ctx) {
  CQB_RETURN_NOT_OK(query.Validate());
  GenericJoinOrder out;

  // The AGM envelope and the per-atom weights come from the cover LP over
  // *all* body variables (the generic join enumerates full bindings, so its
  // prefix counts are governed by rho* of the full join, not of the head).
  auto cover = FractionalEdgeCoverWeights(query, /*cover_all_body_vars=*/true);
  if (cover.ok()) {
    out.envelope_exponent = cover->value;
  } else {
    // No fractional cover (only possible for degenerate bodies): fall back
    // to the trivial all-ones cover exponent.
    out.envelope_exponent =
        Rational(static_cast<std::int64_t>(query.atoms().size()));
  }

  // Low-width path: the shared probe (relation/evaluate.h) builds the
  // variable-intersection graph, certifies its width when small and sparse
  // enough, and derives the reverse-elimination binding order -- the same
  // gate the hybrid executor runs, so the recommended plan and the
  // executor's behavior cannot drift apart. With a context, planner and
  // executor even share the same cached probe entry.
  LowWidthProbe transient_probe;
  const LowWidthProbe& probe =
      ctx != nullptr ? ctx->GetPlan(query, nullptr).probe
                     : (transient_probe = ProbeLowWidthStructure(query));
  if (probe.low_width) {
    out.intersection_width = probe.tw.width;
    out.source = VariableOrderSource::kTreeDecomposition;
    out.recommended_plan = PlanKind::kHybridYannakakis;
    out.order = probe.order;
    return out;
  }

  if (!cover.ok()) {
    out.source = VariableOrderSource::kGreedy;
    out.order = DefaultGenericJoinOrder(query);
    return out;
  }

  // Cover-weight path: a variable's mass is the total optimal cover weight
  // of the atoms containing it (>= 1 by the cover constraint). Heavier
  // variables sit in more of the relations that pay for the envelope, so
  // binding them first narrows every trie at once. Connected-first with
  // deterministic ties (ConnectedFirstOrder).
  std::vector<Rational> mass(query.num_variables(), Rational(0));
  for (std::size_t j = 0; j < query.atoms().size(); ++j) {
    for (int v : query.AtomVarSet(static_cast<int>(j))) {
      mass[v] = mass[v] + cover->weights[j];
    }
  }
  out.source = VariableOrderSource::kFractionalCover;
  out.order = ConnectedFirstOrder(query, [&mass](int incumbent, int candidate) {
    return mass[incumbent] < mass[candidate];
  });
  return out;
}

}  // namespace cqbounds
