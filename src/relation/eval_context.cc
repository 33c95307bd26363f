#include "relation/eval_context.h"

#include <sstream>

#include "relation/evaluate.h"

namespace cqbounds {

namespace {

/// Canonical spelling of a query's shape: everything
/// ProbeLowWidthStructure reads (variable count, atom relation names,
/// per-atom variable ids). Two queries with equal signatures have
/// identical variable-intersection graphs, so they share one plan entry --
/// e.g. the same parsed query object evaluated many times, or two parses
/// of the same text (ParseQuery interns variables in order of appearance).
/// Relation names are length-prefixed: Query places no character
/// restrictions on them, so a name containing the signature's own
/// separators must not let two distinct shapes collide on one key.
std::string PlanSignature(const Query& query) {
  std::ostringstream os;
  os << query.num_variables() << '|';
  for (const Atom& atom : query.atoms()) {
    os << atom.relation.size() << ':' << atom.relation << '(';
    for (std::size_t i = 0; i < atom.vars.size(); ++i) {
      if (i != 0) os << ',';
      os << atom.vars[i];
    }
    os << ");";
  }
  return os.str();
}

}  // namespace

std::shared_ptr<const TrieIndex> EvalContext::GetTrie(
    const Relation& rel, const std::vector<std::vector<int>>& level_positions,
    EvalStats* stats) {
  // Identity, not name equality: a same-named relation from another
  // database can coincide in generation, and serving it a "hit" would
  // silently return a trie over different tuples.
  CQB_CHECK(OwnsRelation(rel) &&
            "relation does not belong to the context's database");
  Key key{rel.name(), level_positions};
  const std::uint64_t generation = rel.generation();
  std::shared_ptr<const TrieIndex> stale_base;
  std::uint64_t stale_base_generation = 0;
  {
    MutexLock lock(mu_);
    auto it = tries_.find(key);
    if (it != tries_.end()) {
      if (it->second.generation == generation) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        if (stats != nullptr) ++stats->trie_cache_hits;
        return it->second.trie;
      }
      // Stale entry: snapshot it as a delta base. DeltasSince below decides
      // whether the journal can still name what changed (unpatch) or a
      // structural break forces the rebuild. Either way the rows named are
      // stable because mutations never overlap evaluations.
      stale_base = it->second.trie;
      stale_base_generation = it->second.generation;
    }
  }
  // Build outside the lock: a slow cold build must not block other
  // threads' hits or plan lookups. Two threads racing the same stale
  // entry may both build -- from the same relation state (mutations are
  // excluded during evaluation), so either result is correct; last insert
  // wins and the loser's trie lives on via its own shared_ptr.
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (stats != nullptr) ++stats->trie_cache_misses;
  std::shared_ptr<const TrieIndex> trie;
  Relation::DeltaSet deltas;
  if (stale_base != nullptr &&
      rel.DeltasSince(stale_base_generation, &deltas)) {
    // Every removed row's columns are still readable (no compaction since
    // the snapshot): splice the delta into the cached trie, subtracting the
    // removed keys' support and adding the appended ones -- O(delta log
    // base) work plus one bulk copy. A window without removals is a patch.
    RowView appended(&rel.store());
    appended.rows = std::move(deltas.appended_rows);
    RowView removed(&rel.store());
    removed.rows = std::move(deltas.removed_rows);
    if (stats != nullptr) {
      ++(removed.empty() ? stats->trie_patches : stats->trie_unpatches);
      stats->delta_tuples_processed += appended.size() + removed.size();
    }
    trie = std::make_shared<const TrieIndex>(*stale_base, appended, removed,
                                             level_positions);
  } else {
    if (stats != nullptr) ++stats->trie_rebuilds;
    trie = std::make_shared<const TrieIndex>(rel, level_positions);
  }
  {
    MutexLock lock(mu_);
    Entry& entry = tries_[std::move(key)];
    entry.generation = generation;
    entry.trie = trie;
  }
  return trie;
}

EvalContext::CachedPlan& EvalContext::GetPlan(const Query& query,
                                              EvalStats* stats) {
  std::string key = PlanSignature(query);
  CachedPlan* plan;
  bool inserted;
  {
    MutexLock lock(mu_);
    auto [it, is_new] = plans_.try_emplace(std::move(key));
    plan = &it->second;
    inserted = is_new;
  }
  if (inserted) {
    plan_misses_.fetch_add(1, std::memory_order_relaxed);
    if (stats != nullptr) ++stats->plan_cache_misses;
  } else {
    plan_hits_.fetch_add(1, std::memory_order_relaxed);
    if (stats != nullptr) ++stats->plan_cache_hits;
  }
  // Exactly one caller runs the (potentially exponential) probe; the rest
  // block here until it lands. The probe's TreewidthExact run is charged to
  // whichever caller executed it -- under races that may be a "hit" thread
  // that outpaced the inserter, but the total across threads is always one
  // run per shape.
  std::call_once(plan->probe_once, [plan, &query, stats] {
    plan->probe = ProbeLowWidthStructure(query);
    if (stats != nullptr && plan->probe.probe_ran) {
      ++stats->treewidth_probe_runs;
    }
  });
  return *plan;
}

std::size_t EvalContext::size() const {
  MutexLock lock(mu_);
  return tries_.size();
}

std::size_t EvalContext::plan_size() const {
  MutexLock lock(mu_);
  return plans_.size();
}

void EvalContext::Clear() {
  MutexLock lock(mu_);
  tries_.clear();
  plans_.clear();
}

}  // namespace cqbounds
