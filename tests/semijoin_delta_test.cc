// The hybrid plan's counting delta pass against a from-scratch full pass,
// book by book. A long-lived EvalContext folds >= 1,000 chained mutation
// windows into its cached SemijoinState; after each one a fresh context
// runs the full pass over the same database, and every book must agree:
// each atom's drop-step array (hence its survivor set and every row's
// first dropping step), each step's key support counts (every key at a
// positive count, with its count; a key at count 0 reads as absent), the
// dangling census, the survivor tries' keys, and the evaluation's
// EvalStats. The
// instance joins on about 1% of its keys, so almost every row dangles --
// the regime where a pass that scans the dangling rows costs O(base)
// instead of O(delta).

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <map>
#include <vector>

#include "cq/parser.h"
#include "eval_stats_testing.h"
#include "relation/eval_context.h"
#include "relation/evaluate.h"
#include "util/mutex.h"
#include "util/rng.h"

namespace cqbounds {
namespace {

using SemijoinState = EvalContext::SemijoinState;

/// R and S share the two-variable key (B, C); S and T share D, and T's
/// repeated D makes every row with T[0] != T[1] fail the atom's filter.
constexpr const char* kQuery = "Q(A,E) :- R(A,B,C), S(B,C,D), T(D,D,E).";

/// R's B ranges over [0, 100) and S's over [99, 199): only B = 99 joins,
/// about 1% of R's keys. `hot` draws B = 99 (and, for T, a joining D) so
/// keys vanish and come back often.
Tuple DrawTuple(int rel, bool hot, Rng* rng) {
  const auto pick = [rng](Value lo, Value hi) {
    return rng->NextInRange(lo, hi - 1);
  };
  switch (rel) {
    case 0:
      return {pick(0, 1000), hot ? 99 : pick(0, 100), pick(0, 10)};
    case 1:
      return {hot ? 99 : pick(99, 199), pick(0, 10), pick(0, 50)};
    default: {
      const Value d = hot ? pick(40, 50) : pick(40, 90);
      // About one T row in four fails the repeated-variable filter.
      return {d, rng->NextBelow(4) == 0 ? pick(0, 90) : d, pick(0, 1000)};
    }
  }
}

std::vector<Tuple> TrieKeys(const TrieIndex& trie) {
  std::vector<Tuple> keys;
  Tuple key(trie.num_levels());
  std::function<void(int, TrieIndex::Range)> walk =
      [&](int level, TrieIndex::Range range) {
        for (std::size_t i = range.begin; i < range.end; ++i) {
          key[level] = trie.ValueAt(level, i);
          if (level + 1 == trie.num_levels()) {
            keys.push_back(key);
          } else {
            walk(level + 1, trie.ChildRange(level, i));
          }
        }
      };
  if (trie.num_levels() > 0) walk(0, trie.RootRange());
  return keys;
}

/// A copy of a context's books (taken under the plan's lock).
struct Books {
  std::vector<std::vector<std::uint32_t>> drop_step;
  std::vector<std::size_t> dangling;
  std::vector<bool> all_survive;
  /// Per step: every key at a positive count, with its count.
  std::vector<std::map<Tuple, std::uint32_t>> step_counts;
  std::vector<std::vector<Tuple>> survivor_keys;
  std::size_t built_indexes = 0;
};

Books ReadBooks(EvalContext* ctx, const Query& q) {
  EvalContext::CachedPlan& plan = ctx->GetPlan(q, nullptr);
  MutexLock lock(plan.skip_mu);
  const SemijoinState& state = *plan.semijoin;
  Books books;
  books.drop_step = state.drop_step;
  books.dangling = state.dangling;
  books.all_survive = state.all_survive;
  for (const KeyCounts& counts : state.step_counts) {
    std::map<Tuple, std::uint32_t>& positive = books.step_counts.emplace_back();
    for (std::uint32_t id = 0; id < counts.size(); ++id) {
      if (counts.count(id) == 0) continue;
      const Value* key = counts.key(id);
      positive.emplace(Tuple(key, key + counts.width()), counts.count(id));
    }
  }
  for (const auto& trie : state.survivor_tries) {
    books.survivor_keys.push_back(trie != nullptr ? TrieKeys(*trie)
                                                  : std::vector<Tuple>{});
  }
  for (const SemijoinState::TargetKeyRows& index : state.key_rows) {
    books.built_indexes += index.built() ? 1 : 0;
  }
  return books;
}

// A window that only raises the support of keys already present moves no
// key across zero, so the delta pass reads the window's rows and no key
// index: nothing is killed or revived.
TEST(SemijoinDeltaTest, SupportRaisedOnAPresentKeyWalksNoChain) {
  const Query q = ParseQuery(kQuery).ValueOrDie();
  Database db;
  Relation* r = db.AddRelation("R", 3);
  Relation* s = db.AddRelation("S", 3);
  Relation* t = db.AddRelation("T", 3);
  for (Value c = 0; c < 5; ++c) {
    r->Insert({c, 99, c});
    r->Insert({c, 7, c});  // dangling: no S row carries B = 7
    s->Insert({99, c, 40});
  }
  t->Insert({40, 40, 1});
  EvalContext ctx(db);
  ASSERT_TRUE(EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, nullptr)
                  .ok());
  r->Insert({9, 99, 0});  // key (99, 0) is already supported
  EvalStats stats;
  const Result<Relation> out =
      EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 6u);
  EXPECT_TRUE(stats.semijoin_delta_pass);
  EXPECT_EQ(stats.semijoin_rows_visited, 1u);
  EXPECT_EQ(stats.semijoin_killed_tuples + stats.semijoin_revived_tuples, 0u);
}

TEST(SemijoinDeltaTest, BooksEqualAFullPassOnChainedWindows) {
  const Query q = ParseQuery(kQuery).ValueOrDie();
  Database db;
  Relation* rels[3] = {db.AddRelation("R", 3), db.AddRelation("S", 3),
                       db.AddRelation("T", 3)};
  Rng rng(1993);
  std::vector<std::vector<Tuple>> live(3);
  const auto insert = [&](int r, const Tuple& t) {
    if (rels[r]->Insert(t)) live[r].push_back(t);
  };
  const auto remove_at = [&](int r, std::size_t i) {
    ASSERT_TRUE(rels[r]->Remove(live[r][i]));
    live[r][i] = live[r].back();
    live[r].pop_back();
  };
  for (int r = 0; r < 3; ++r) {
    for (int i = 0; i < 600; ++i) insert(r, DrawTuple(r, i % 50 == 0, &rng));
  }

  EvalContext ctx(db);
  ASSERT_TRUE(EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, nullptr)
                  .ok());
  Books prev;
  {
    EvalContext fresh(db);
    ASSERT_TRUE(
        EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &fresh, nullptr)
            .ok());
    prev = ReadBooks(&fresh, q);
  }
  std::vector<Tuple> vanished;  // S rows whose key was taken away
  int delta_windows = 0;
  int kill_windows = 0;
  int revive_windows = 0;
  int full_windows = 0;
  constexpr int kWindows = 1200;
  for (int w = 0; w < kWindows; ++w) {
    std::uint64_t compactions = 0;
    std::vector<std::uint64_t> generations;
    for (const Relation* r : rels) {
      compactions += r->compactions();
      generations.push_back(r->generation());
    }
    const int kind = w % 6;
    const int ops = 1 + static_cast<int>(rng.NextBelow(8));
    if (w % 300 == 299) {
      // Cross a compaction: a third of R goes at once.
      for (std::size_t k = live[0].size() / 3; k > 0; --k) {
        remove_at(0, rng.NextBelow(live[0].size()));
      }
    } else if (kind == 0) {  // append-only
      for (int k = 0; k < ops; ++k) {
        const int r = static_cast<int>(rng.NextBelow(3));
        insert(r, DrawTuple(r, rng.NextBelow(3) == 0, &rng));
      }
    } else if (kind == 1) {  // remove-only
      for (int k = 0; k < ops; ++k) {
        const int r = static_cast<int>(rng.NextBelow(3));
        if (live[r].size() > 400) remove_at(r, rng.NextBelow(live[r].size()));
      }
    } else if (kind == 2 || kind == 5) {  // mixed
      for (int k = 0; k < ops; ++k) {
        const int r = static_cast<int>(rng.NextBelow(3));
        if (rng.NextBelow(2) == 0 && live[r].size() > 400) {
          remove_at(r, rng.NextBelow(live[r].size()));
        } else {
          insert(r, DrawTuple(r, rng.NextBelow(3) == 0, &rng));
        }
      }
    } else if (kind == 3) {
      // Vanish a joining (B, C) key: every S row carrying it goes, so the
      // R rows leaning on it die at that step.
      const Value c = rng.NextInRange(0, 9);
      for (std::size_t i = live[1].size(); i-- > 0;) {
        if (live[1][i][0] == 99 && live[1][i][1] == c) {
          vanished.push_back(live[1][i]);
          remove_at(1, i);
        }
      }
      insert(1, {99, c == 9 ? 0 : c + 1, rng.NextInRange(40, 49)});
    } else if (!vanished.empty()) {
      // Revive a key vanished some windows ago (kind 4), with a fresh
      // append to another relation in the same window.
      const std::size_t i = rng.NextBelow(vanished.size());
      insert(1, vanished[i]);
      vanished[i] = vanished.back();
      vanished.pop_back();
      insert(0, DrawTuple(0, true, &rng));
    }
    std::uint64_t compactions_after = 0;
    bool moved = false;
    for (int r = 0; r < 3; ++r) {
      compactions_after += rels[r]->compactions();
      moved = moved || rels[r]->generation() != generations[r];
    }
    const bool compacted = compactions_after != compactions;
    const std::string context = "window " + std::to_string(w);

    EvalStats got;
    const Result<Relation> warm =
        EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &ctx, &got);
    ASSERT_TRUE(warm.ok()) << context;
    EvalContext fresh(db);
    EvalStats want;
    const Result<Relation> cold =
        EvaluateQuery(q, db, PlanKind::kHybridYannakakis, &fresh, &want);
    ASSERT_TRUE(cold.ok()) << context;
    const Books now = ReadBooks(&fresh, q);
    const Books books = ReadBooks(&ctx, q);

    ASSERT_EQ(books.drop_step, now.drop_step) << context;
    ASSERT_EQ(books.dangling, now.dangling) << context;
    ASSERT_EQ(books.all_survive, now.all_survive) << context;
    ASSERT_EQ(books.step_counts, now.step_counts) << context;
    ASSERT_EQ(books.survivor_keys, now.survivor_keys) << context;
    ASSERT_EQ(warm->size(), cold->size()) << context;

    // The stats: enumeration counters and the dangling census must equal
    // the full pass's; kills, revivals and new drops must equal the
    // transitions between the previous and the current full-pass books.
    // Only how the state was reached -- cache traffic, delta sizes, rows
    // read -- is the warm run's own.
    EvalStats expected = want;
    expected.indexed_tuples = got.indexed_tuples;
    expected.trie_cache_hits = got.trie_cache_hits;
    expected.trie_cache_misses = got.trie_cache_misses;
    expected.plan_cache_hits = got.plan_cache_hits;
    expected.plan_cache_misses = got.plan_cache_misses;
    expected.treewidth_probe_runs = got.treewidth_probe_runs;
    expected.trie_patches = got.trie_patches;
    expected.trie_unpatches = got.trie_unpatches;
    expected.trie_rebuilds = got.trie_rebuilds;
    expected.survivor_view_hits = got.survivor_view_hits;
    expected.delta_tuples_processed = got.delta_tuples_processed;
    expected.semijoin_rows_visited = got.semijoin_rows_visited;
    if (!moved) {
      // Nothing changed: the skip reuses the books as they are.
      expected.semijoin_pass_ran = false;
      expected.semijoin_pass_skipped = true;
      expected.semijoin_dropped_tuples = 0;
    } else if (compacted) {
      ++full_windows;
    } else {
      ++delta_windows;
      expected.semijoin_delta_pass = true;
      expected.semijoin_killed_tuples = 0;
      expected.semijoin_revived_tuples = 0;
      expected.semijoin_dropped_tuples = 0;
      for (std::size_t a = 0; a < now.drop_step.size(); ++a) {
        for (std::size_t row = 0; row < now.drop_step[a].size(); ++row) {
          const std::uint32_t old_drop = row < prev.drop_step[a].size()
                                             ? prev.drop_step[a][row]
                                             : SemijoinState::kOffBooks;
          const std::uint32_t new_drop = now.drop_step[a][row];
          const bool was = old_drop != SemijoinState::kOffBooks;
          const bool is = new_drop != SemijoinState::kOffBooks;
          const bool was_dangling = was && old_drop != SemijoinState::kNoDrop;
          const bool is_dangling = is && new_drop != SemijoinState::kNoDrop;
          if (was && is && !was_dangling && is_dangling) {
            ++expected.semijoin_killed_tuples;
          }
          if (was && is && was_dangling && !is_dangling) {
            ++expected.semijoin_revived_tuples;
          }
          if (is_dangling && !was_dangling) {
            ++expected.semijoin_dropped_tuples;
          }
        }
      }
      kill_windows += expected.semijoin_killed_tuples > 0 ? 1 : 0;
      revive_windows += expected.semijoin_revived_tuples > 0 ? 1 : 0;
    }
    testutil::ExpectSameStats(got, expected, context);
    if (compacted) {
      // The full pass a compaction forces drops every key index.
      ASSERT_EQ(books.built_indexes, 0u) << context;
    }
    prev = now;
  }
  // Every window kind was exercised: deltas that kill and revive through
  // the key indexes, and full passes across compactions.
  EXPECT_GT(delta_windows, 1000);
  EXPECT_GE(full_windows, 3);
  EXPECT_GT(kill_windows, 50);
  EXPECT_GT(revive_windows, 50);
}

}  // namespace
}  // namespace cqbounds
