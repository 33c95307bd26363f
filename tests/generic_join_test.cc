#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <set>

#include "core/color_number.h"
#include "core/join_plan.h"
#include "core/size_bounds.h"
#include "cq/parser.h"
#include "cq/random_query.h"
#include "relation/evaluate.h"
#include "relation/generator.h"
#include "relation/trie_index.h"
#include "util/rng.h"

namespace cqbounds {
namespace {

// --- TrieIndex -------------------------------------------------------------

TEST(TrieIndexTest, BuildsSortedLevelsAndChildRanges) {
  Relation r("R", 2);
  r.Insert({2, 30});
  r.Insert({1, 10});
  r.Insert({2, 10});
  r.Insert({1, 20});
  r.Insert({2, 30});  // duplicate, set semantics upstream

  TrieIndex trie(r, {{0}, {1}});
  ASSERT_EQ(trie.num_levels(), 2);
  EXPECT_EQ(trie.num_tuples(), 4u);

  TrieIndex::Range root = trie.RootRange();
  ASSERT_EQ(root.size(), 2u);
  EXPECT_EQ(trie.ValueAt(0, 0), 1);
  EXPECT_EQ(trie.ValueAt(0, 1), 2);

  TrieIndex::Range under1 = trie.ChildRange(0, 0);
  ASSERT_EQ(under1.size(), 2u);
  EXPECT_EQ(trie.ValueAt(1, under1.begin), 10);
  EXPECT_EQ(trie.ValueAt(1, under1.begin + 1), 20);

  TrieIndex::Range under2 = trie.ChildRange(0, 1);
  ASSERT_EQ(under2.size(), 2u);
  EXPECT_EQ(trie.ValueAt(1, under2.begin), 10);
  EXPECT_EQ(trie.ValueAt(1, under2.begin + 1), 30);

  // Last level has no children.
  EXPECT_TRUE(trie.ChildRange(1, under2.begin).empty());
}

TEST(TrieIndexTest, ColumnPermutationAndRepeatedVariableFilter) {
  Relation r("R", 3);
  r.Insert({1, 2, 1});   // t[0] == t[2]: survives the X filter
  r.Insert({1, 2, 3});   // violates it: dropped
  r.Insert({4, 5, 4});

  // Atom R(X, Y, X) keyed as Y then X: level 0 reads column 1, level 1
  // reads columns {0, 2} which must agree.
  TrieIndex trie(r, {{1}, {0, 2}});
  EXPECT_EQ(trie.num_tuples(), 2u);
  TrieIndex::Range root = trie.RootRange();
  ASSERT_EQ(root.size(), 2u);
  EXPECT_EQ(trie.ValueAt(0, 0), 2);  // Y values
  EXPECT_EQ(trie.ValueAt(0, 1), 5);
  EXPECT_EQ(trie.ValueAt(1, trie.ChildRange(0, 0).begin), 1);  // X under Y=2
  EXPECT_EQ(trie.ValueAt(1, trie.ChildRange(0, 1).begin), 4);  // X under Y=5
}

/// Every root-to-leaf key of `trie` in lexicographic (level) order, for
/// comparing a patched trie against a from-scratch build.
std::vector<Tuple> AllKeys(const TrieIndex& trie) {
  std::vector<Tuple> keys;
  if (trie.num_levels() == 0) return keys;
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
  walk(0, trie.RootRange());
  return keys;
}

TEST(TrieIndexTest, PatchMatchesFromScratchRebuild) {
  Relation r("R", 2);
  for (Value v : {5, 1, 9, 3}) r.Insert({v, v * 10});
  TrieIndex base(r, {{0}, {1}});

  // Appends interleave with existing keys on both levels. The journal names
  // the rows past the snapshot -- [4, 7) -- and no removed row.
  const std::uint64_t snapshot = r.generation();
  r.Insert({2, 20});
  r.Insert({9, 5});   // new child under an existing level-0 value
  r.Insert({11, 1});  // past the old maximum
  Relation::DeltaSet ds;
  ASSERT_TRUE(r.DeltasSince(snapshot, &ds));
  EXPECT_EQ(ds.appended_rows, (std::vector<std::uint32_t>{4, 5, 6}));
  EXPECT_TRUE(ds.removed_rows.empty());
  RowView appended(&r.store());
  appended.rows = ds.appended_rows;

  TrieIndex patched(base, appended, RowView(&r.store()), {{0}, {1}});
  TrieIndex scratch(r, {{0}, {1}});
  EXPECT_EQ(patched.num_tuples(), scratch.num_tuples());
  EXPECT_EQ(AllKeys(patched), AllKeys(scratch));
  // The base is untouched (patching builds a fresh object).
  EXPECT_EQ(base.num_tuples(), 4u);
}

TEST(TrieIndexTest, PatchIsSetSemanticAndFiltersSelfInconsistent) {
  // Layout for R(X, Y, X): level 0 reads column 1, level 1 requires
  // columns {0, 2} to agree.
  Relation r("R", 3);
  r.Insert({1, 2, 1});
  r.Insert({4, 5, 4});
  TrieIndex base(r, {{1}, {0, 2}});
  ASSERT_EQ(base.num_tuples(), 2u);

  // The delta repeats a base key, adds one genuinely new key, and carries a
  // self-inconsistent tuple: the patch must grow by exactly one. A scratch
  // relation stands in for the appended column segment.
  Relation d("D", 3);
  d.Insert({1, 2, 1});  // repeats a base key
  d.Insert({6, 7, 6});  // genuinely new
  d.Insert({8, 9, 1});  // self-inconsistent under {0, 2}: filtered
  RowView delta(&d.store());
  delta.rows = {0, 1, 2};
  TrieIndex patched(base, delta, RowView(&d.store()), {{1}, {0, 2}});
  EXPECT_EQ(patched.num_tuples(), 3u);
  EXPECT_EQ(AllKeys(patched),
            (std::vector<Tuple>{{2, 1}, {5, 4}, {7, 6}}));
}

TEST(TrieIndexTest, PatchOnNullaryTrieFlipsEmptiness) {
  Relation g("G", 0);
  TrieIndex base(g, {});
  EXPECT_EQ(base.num_levels(), 0);
  EXPECT_EQ(base.num_tuples(), 0u);

  // An empty delta keeps the guard closed; the empty tuple opens it.
  const RowView nothing(&g.store());
  TrieIndex still_empty(base, nothing, nothing, {});
  EXPECT_EQ(still_empty.num_tuples(), 0u);
  Relation d("D", 0);
  d.Insert({});
  RowView one(&d.store());
  one.rows = {0};
  TrieIndex open(base, one, RowView(&d.store()), {});
  EXPECT_EQ(open.num_tuples(), 1u);
}

TEST(TrieIndexTest, DeltaConstructorMatchesRebuildOnChainedWindows) {
  // Each window's trie is refreshed from the previous window's refreshed
  // trie, so support counts must stay exact across the whole chain. Layouts
  // cover every shape the planner emits for a ternary atom.
  const std::vector<std::vector<std::vector<int>>> layouts = {
      {{0}, {1}, {2}},  // plain
      {{2}, {0}, {1}},  // swapped columns
      {{1}, {0}},       // projected: column 2 dropped, supports exceed one
      {{0, 2}, {1}},    // repeated variable R(X, Y, X)
      {},               // nullary guard
  };
  // A trie's support counts are invisible to seeks, so they are observed
  // through one more delta: removing every live row must leave the trie
  // empty. A count too low fails the constructor's support check, one too
  // high leaves its key behind.
  auto expect_drains = [](const TrieIndex& trie, const Relation& r,
                          const std::vector<std::vector<int>>& layout,
                          const std::string& context) {
    RowView live(&r.store());
    for (std::size_t row = 0; row < r.store().size(); ++row) {
      if (r.store().IsLive(row)) {
        live.rows.push_back(static_cast<std::uint32_t>(row));
      }
    }
    const TrieIndex drained(trie, RowView(&r.store()), live, layout);
    EXPECT_EQ(drained.num_tuples(), 0u) << context;
    EXPECT_TRUE(AllKeys(drained).empty()) << context;
  };

  // Scripted windows that hit the splice's edges, run on every layout:
  // a level-0 group emptied entirely, new level-0 values before the
  // first, after the last and between groups, a key removed and re-added
  // in one window, and (under the projected layout) supports above one.
  struct Window {
    std::vector<Tuple> remove;
    std::vector<Tuple> insert;
  };
  const std::vector<Window> script = {
      {{}, {{2, 1, 1}, {2, 1, 5}, {2, 2, 1}, {4, 1, 1}, {4, 3, 3},
            {4, 3, 0}, {6, 1, 2}, {6, 1, 6}}},
      // Empty level-0 group 4 (and, projected, keys of support two).
      {{{4, 1, 1}, {4, 3, 3}, {4, 3, 0}}, {}},
      // New level-0 values before the first, after the last, between.
      {{}, {{0, 5, 5}, {300, 300, 300}, {3, 1, 1}, {5, 0, 0}, {5, 0, 7}}},
      // Remove and re-add one key; drop one of two supports of another.
      {{{2, 1, 1}, {6, 1, 2}}, {{2, 1, 1}}},
      // Empty the first and the last level-0 groups while adding inside.
      {{{0, 5, 5}, {300, 300, 300}}, {{4, 4, 4}, {2, 0, 2}}},
      // Drop the last support of a projected key and re-add elsewhere.
      {{{6, 1, 6}, {2, 1, 5}, {2, 1, 1}}, {{6, 1, 6}, {7, 7, 7}}},
      // Every row below the filler goes, then two come back.
      {{{2, 2, 1}, {3, 1, 1}, {5, 0, 0}, {5, 0, 7}, {4, 4, 4}, {2, 0, 2},
        {7, 7, 7}},
       {{1, 1, 1}, {8, 8, 1}}},
  };
  for (const auto& layout : layouts) {
    // Filler rows between the scripted values and 300 keep the tombstones
    // below the compaction threshold, so every window stays a delta.
    Relation r("R", 3);
    for (Value i = 0; i < 80; ++i) {
      r.Insert({100 + i / 4, 100 + i % 4, 100 + i % 2});
    }
    TrieIndex trie(r, layout);
    for (std::size_t w = 0; w < script.size(); ++w) {
      const std::uint64_t snapshot = r.generation();
      for (const Tuple& t : script[w].remove) ASSERT_TRUE(r.Remove(t));
      for (const Tuple& t : script[w].insert) ASSERT_TRUE(r.Insert(t));
      Relation::DeltaSet ds;
      ASSERT_TRUE(r.DeltasSince(snapshot, &ds)) << "script window " << w;
      RowView appended(&r.store());
      appended.rows = ds.appended_rows;
      RowView removed(&r.store());
      removed.rows = ds.removed_rows;
      trie = TrieIndex(trie, appended, removed, layout);
      const TrieIndex scratch(r, layout);
      const std::string context = "layout " + std::to_string(layout.size()) +
                                  " script window " + std::to_string(w);
      ASSERT_EQ(trie.num_tuples(), scratch.num_tuples()) << context;
      ASSERT_EQ(AllKeys(trie), AllKeys(scratch)) << context;
      expect_drains(trie, r, layout, context);
    }
  }

  Rng rng(20261017);
  std::size_t delta_windows = 0;
  for (const auto& layout : layouts) {
    for (int trial = 0; trial < 3; ++trial) {
      Relation r("R", 3);
      auto random_tuple = [&rng] {
        return Tuple{rng.NextInRange(-3, 3), rng.NextInRange(-3, 3),
                     rng.NextInRange(-3, 3)};
      };
      for (int i = 0; i < 60; ++i) r.Insert(random_tuple());
      TrieIndex trie(r, layout);
      std::uint64_t snapshot = r.generation();
      for (int window = 0; window < 200; ++window) {
        // 0: append-only, 1: remove-only, 2: mixed.
        const int kind = window % 3;
        const int ops = 1 + static_cast<int>(rng.NextBelow(6));
        for (int k = 0; k < ops; ++k) {
          const bool append =
              kind == 0 || (kind == 2 && rng.NextBelow(2) == 0);
          if (append || r.size() == 0) {
            r.Insert(random_tuple());
          } else {
            const std::vector<Tuple> live = r.tuples();
            r.Remove(live[rng.NextBelow(live.size())]);
          }
        }
        Relation::DeltaSet ds;
        if (r.DeltasSince(snapshot, &ds)) {
          if (kind == 0) {
            EXPECT_TRUE(ds.removed_rows.empty());
          }
          RowView appended(&r.store());
          appended.rows = ds.appended_rows;
          RowView removed(&r.store());
          removed.rows = ds.removed_rows;
          trie = TrieIndex(trie, appended, removed, layout);
          ++delta_windows;
        } else {
          trie = TrieIndex(r, layout);  // compaction: a structural break
        }
        snapshot = r.generation();
        const TrieIndex scratch(r, layout);
        ASSERT_EQ(trie.num_tuples(), scratch.num_tuples())
            << "layout " << layout.size() << " window " << window;
        ASSERT_EQ(AllKeys(trie), AllKeys(scratch))
            << "layout " << layout.size() << " window " << window;
        expect_drains(trie, r, layout,
                      "layout " + std::to_string(layout.size()) +
                          " window " + std::to_string(window));
      }
    }
  }
  // Most windows must exercise the delta constructor, not the fallback.
  EXPECT_GT(delta_windows, 2000u);
}

TEST(TrieIndexTest, SeekGallopsWithinRange) {
  Relation r("R", 1);
  for (Value v : {2, 3, 5, 7, 11, 13, 17, 19, 23}) r.Insert({v});
  TrieIndex trie(r, {{0}});
  TrieIndex::Range root = trie.RootRange();
  EXPECT_EQ(trie.ValueAt(0, trie.SeekGE(0, root, 1)), 2);
  EXPECT_EQ(trie.ValueAt(0, trie.SeekGE(0, root, 5)), 5);
  EXPECT_EQ(trie.ValueAt(0, trie.SeekGE(0, root, 6)), 7);
  EXPECT_EQ(trie.ValueAt(0, trie.SeekGE(0, root, 23)), 23);
  EXPECT_EQ(trie.SeekGE(0, root, 24), root.end);
  // Seeks respect the range's start (mid-descent subranges).
  TrieIndex::Range tail{4, root.end};
  EXPECT_EQ(trie.ValueAt(0, trie.SeekGE(0, tail, 3)), 11);
}

/// Sorted distinct values of one shape for the SeekGE property test.
std::vector<Value> SeekTestValues(int shape, std::size_t n, Rng* rng) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  std::vector<Value> v;
  switch (shape) {
    case 0:  // dense dictionary ids
      for (std::size_t i = 0; i < n; ++i) v.push_back(1000 + Value(i));
      break;
    case 1:  // random sparse ids
      while (v.size() < n) {
        v.push_back(rng->NextInRange(-(1LL << 40), 1LL << 40));
      }
      break;
    case 2:  // two dense runs far apart
      for (std::size_t i = 0; i < n; ++i) {
        v.push_back(i < n / 2 ? Value(i) : (1LL << 50) + Value(i));
      }
      break;
    case 3: {  // geometric spacing: gaps grow with the value
      Value x = 1;
      for (std::size_t i = 0; i < n; ++i, x += 1 + x / 1024) v.push_back(x);
      break;
    }
    default:  // negatives and both ends of the int64 range
      for (std::size_t i = 0; i < n / 4; ++i) {
        v.push_back(kMin + 1 + Value(i));
        v.push_back(kMax - Value(i));
        v.push_back(-Value(rng->NextBelow(1u << 20)));
        v.push_back(kMin + 1 + Value(rng->NextBelow(1ull << 62)));
      }
      break;
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

TEST(TrieIndexTest, SeekGEMatchesLowerBound) {
  // Every SeekGE answer equals std::lower_bound over the same window, on
  // value shapes that defeat interpolation (clusters, geometric gaps, the
  // int64 extremes) as well as the dense ids it is built for, for windows
  // on both sides of the inline tier's cache line.
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  const std::size_t kSizes[] = {0, 1, 7, 8, 9, 63, 64, 65, 10000};
  Rng rng(17);
  std::size_t cases = 0;
  std::size_t mismatches = 0;  // reported once, counted always
  for (int shape = 0; shape < 5; ++shape) {
    const std::vector<Value> values = SeekTestValues(shape, 20000, &rng);
    ASSERT_GE(values.size(), 10000u + 65u);
    // Level 1 of a two-level trie: one parent per window size, each over
    // a contiguous run of `values` (so child ranges keep the shape); the
    // last parent spans everything.
    Relation r("R", 2);
    std::vector<std::vector<Value>> children;
    for (std::size_t size : kSizes) {
      const std::size_t count = std::max<std::size_t>(size, 1);
      const std::size_t first = rng.NextBelow(values.size() - count + 1);
      children.emplace_back(values.begin() + first,
                            values.begin() + first + count);
    }
    children.push_back(values);
    for (std::size_t p = 0; p < children.size(); ++p) {
      for (Value c : children[p]) r.Insert({Value(p), c});
    }
    TrieIndex trie(r, {{0}, {1}});
    ASSERT_EQ(trie.RootRange().size(), children.size());
    std::vector<std::vector<Value>> level(2);
    for (int l = 0; l < 2; ++l) {
      const std::size_t n = l == 0 ? children.size() : r.size();
      for (std::size_t i = 0; i < n; ++i) {
        level[l].push_back(trie.ValueAt(l, i));
      }
    }

    const auto check = [&](int l, TrieIndex::Range w, Value target) {
      const std::vector<Value>& vals = level[static_cast<std::size_t>(l)];
      const auto expected = static_cast<std::size_t>(
          std::lower_bound(vals.begin() + static_cast<std::ptrdiff_t>(w.begin),
                           vals.begin() + static_cast<std::ptrdiff_t>(w.end),
                           target) -
          vals.begin());
      const std::size_t got = trie.SeekGE(l, w, target);
      if (got != expected && mismatches++ == 0) {
        ADD_FAILURE() << "shape " << shape << " level " << l << " window ["
                      << w.begin << ", " << w.end << ") target " << target
                      << ": SeekGE " << got << ", lower_bound " << expected;
      }
      ++cases;
    };
    // Targets below, above, at and between the window's values, plus
    // anywhere in its span and anywhere at all.
    const auto targets = [&](const std::vector<Value>& vals,
                             TrieIndex::Range w) {
      std::vector<Value> t = {kMin, kMax, 0};
      if (w.empty()) return t;
      const Value lo = vals[w.begin];
      const Value hi = vals[w.end - 1];
      t.push_back(lo);
      t.push_back(hi);
      if (lo > kMin) t.push_back(lo - 1);
      if (hi < kMax) t.push_back(hi + 1);
      for (int k = 0; k < 6; ++k) {
        const Value at = vals[w.begin + rng.NextBelow(w.size())];
        t.push_back(at);
        if (at > kMin) t.push_back(at - 1);
        if (at < kMax) t.push_back(at + 1);
        const std::uint64_t span = static_cast<std::uint64_t>(hi) -
                                   static_cast<std::uint64_t>(lo) + 1;
        t.push_back(static_cast<Value>(static_cast<std::uint64_t>(lo) +
                                       rng.Next() % span));
        t.push_back(static_cast<Value>(rng.Next()));
      }
      return t;
    };
    for (int rep = 0; rep < 40; ++rep) {
      for (std::size_t p = 0; p < children.size(); ++p) {
        // The whole child range of parent p, then cursors inside it.
        const TrieIndex::Range child = trie.ChildRange(0, p);
        ASSERT_EQ(child.size(), children[p].size());
        for (const TrieIndex::Range w :
             {child,
              TrieIndex::Range{child.begin + rng.NextBelow(child.size() + 1),
                               child.end}}) {
          for (Value t : targets(level[1], w)) check(1, w, t);
        }
      }
      // Windows of every listed size anywhere inside the last parent's
      // children, which hold all of `values`.
      const TrieIndex::Range all = trie.ChildRange(0, children.size() - 1);
      for (std::size_t size : kSizes) {
        const std::size_t b = all.begin + rng.NextBelow(all.size() - size + 1);
        const TrieIndex::Range w{b, b + size};
        for (Value t : targets(level[1], w)) check(1, w, t);
      }
      for (Value t : targets(level[0], trie.RootRange())) {
        check(0, trie.RootRange(), t);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GE(cases, 100000u);
}

// --- Executor correctness --------------------------------------------------

void ExpectSameRelation(const Relation& a, const Relation& b,
                        const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (const Tuple& t : a.tuples()) {
    EXPECT_TRUE(b.Contains(t)) << context;
  }
}

TEST(GenericJoinTest, MatchesBinaryPlansOnHandPickedQueries) {
  const char* queries[] = {
      "Q(X,Y) :- R(X,Y).",
      "Q(X) :- R(X,X).",
      "Q(X,Z) :- R(X,Y), S(Y,Z).",
      "T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).",
      "Q(X,X,Y) :- R(X), S(Y).",
      "Q(A) :- R(A,B), R(B,A).",
      "Q(A,D) :- R(A,B), T(C,D), S(B,C).",
      "Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).",
  };
  for (const char* text : queries) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    RandomDatabaseOptions opts;
    opts.seed = 99;
    opts.tuples_per_relation = 25;
    opts.domain_size = 5;
    Database db = RandomDatabase(*q, opts);
    auto naive = EvaluateQuery(*q, db, PlanKind::kNaive);
    auto generic = EvaluateQuery(*q, db, PlanKind::kGenericJoin);
    ASSERT_TRUE(naive.ok()) << text;
    ASSERT_TRUE(generic.ok()) << text;
    ExpectSameRelation(*naive, *generic, text);
  }
}

TEST(GenericJoinTest, RespectsExplicitVariableOrders) {
  // Every permutation of the triangle's variables gives the same output.
  auto q = ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
  ASSERT_TRUE(q.ok());
  RandomDatabaseOptions opts;
  opts.seed = 5;
  opts.tuples_per_relation = 40;
  opts.domain_size = 8;
  Database db = RandomDatabase(*q, opts);
  auto reference = EvaluateQuery(*q, db, PlanKind::kNaive);
  ASSERT_TRUE(reference.ok());

  const std::set<int> body = q->BodyVarSet();
  std::vector<int> order(body.begin(), body.end());
  do {
    EvalStats stats;
    auto result = EvaluateGenericJoin(*q, db, order, &stats);
    ASSERT_TRUE(result.ok());
    ExpectSameRelation(*reference, *result, "permuted order");
    ASSERT_EQ(stats.intermediate_sizes.size(), order.size());
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(GenericJoinTest, RejectsBadVariableOrders) {
  auto q = ParseQuery("Q(X,Z) :- R(X,Y), S(Y,Z).");
  ASSERT_TRUE(q.ok());
  Database db;
  db.AddRelation("R", 2)->Insert({1, 2});
  db.AddRelation("S", 2)->Insert({2, 3});
  std::vector<int> full = DefaultGenericJoinOrder(*q);
  ASSERT_EQ(full.size(), 3u);

  std::vector<int> missing(full.begin(), full.end() - 1);
  EXPECT_FALSE(EvaluateGenericJoin(*q, db, missing, nullptr).ok());

  std::vector<int> repeated = full;
  repeated.back() = repeated.front();
  EXPECT_FALSE(EvaluateGenericJoin(*q, db, repeated, nullptr).ok());

  std::vector<int> foreign = full;
  foreign.back() = 99;
  EXPECT_FALSE(EvaluateGenericJoin(*q, db, foreign, nullptr).ok());
}

// --- The AGM envelope ------------------------------------------------------

/// rho*(full join): the fractional edge cover number of `query` with every
/// body variable promoted into the head.
Rational FullJoinCoverExponent(const Query& query) {
  auto cover = FractionalEdgeCoverWeights(query, /*cover_all_body_vars=*/true);
  CQB_CHECK(cover.ok());
  return cover->value;
}

TEST(GenericJoinTest, IntermediatesStayWithinAgmEnvelopeOnAdversary) {
  // The fan-in/fan-out chain where the naive left-deep plan carries
  // quadratic intermediates: the generic join must stay within
  // rmax^{rho*(full join)} at every depth (and does much better).
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  ASSERT_TRUE(q.ok());
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  Relation* t = db.AddRelation("T", 2);
  Relation* u = db.AddRelation("U", 2);
  const int fanout = 50;
  for (int i = 0; i < fanout; ++i) {
    r->Insert({0, i});
    s->Insert({i, 0});
    t->Insert({0, i});
    u->Insert({i, 0});
  }
  const BigInt rmax(static_cast<std::int64_t>(db.RMax(*q).ValueOrDie()));
  const Rational envelope = FullJoinCoverExponent(*q);

  EvalStats generic_stats;
  auto generic = EvaluateQuery(*q, db, PlanKind::kGenericJoin, &generic_stats);
  ASSERT_TRUE(generic.ok());
  EXPECT_TRUE(SatisfiesSizeBound(
      BigInt(static_cast<std::int64_t>(generic_stats.max_intermediate)), rmax,
      envelope));

  // And the adversary does hurt the naive plan as designed.
  EvalStats naive_stats;
  auto naive = EvaluateQuery(*q, db, PlanKind::kNaive, &naive_stats);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive_stats.max_intermediate,
            static_cast<std::size_t>(fanout) * fanout);
  EXPECT_LE(generic_stats.max_intermediate, naive_stats.max_intermediate);
  ExpectSameRelation(*naive, *generic, "chain adversary");
}

TEST(GenericJoinTest, IntermediatesStayWithinAgmEnvelopeOnWorstCaseDbs) {
  // On the Prop 4.5 worst-case triangle databases the naive plan's first
  // binary join exceeds the AGM bound; the generic join cannot.
  auto q = ParseQuery("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z).");
  ASSERT_TRUE(q.ok());
  auto bound = ComputeSizeBound(*q);
  ASSERT_TRUE(bound.ok());
  const Rational envelope = FullJoinCoverExponent(*q);
  EXPECT_EQ(envelope, bound->exponent);  // all variables are in the head

  for (std::int64_t m : {4, 8, 16}) {
    auto db = BuildWorstCaseDatabase(*q, bound->witness, m);
    ASSERT_TRUE(db.ok());
    const BigInt rmax(static_cast<std::int64_t>(db->RMax(*q).ValueOrDie()));

    EvalStats generic_stats, naive_stats;
    auto generic = EvaluateQuery(*q, *db, PlanKind::kGenericJoin,
                                 &generic_stats);
    auto naive = EvaluateQuery(*q, *db, PlanKind::kNaive, &naive_stats);
    ASSERT_TRUE(generic.ok());
    ASSERT_TRUE(naive.ok());
    ExpectSameRelation(*naive, *generic, "worst-case triangle");

    EXPECT_TRUE(SatisfiesSizeBound(
        BigInt(static_cast<std::int64_t>(generic_stats.max_intermediate)),
        rmax, envelope))
        << "M=" << m;
    // The worst-case databases are tight for the *output*; the naive
    // intermediate R x R (4M^3 vs the ~5.2M^3 cap) sits above it.
    EXPECT_GT(naive_stats.max_intermediate, generic_stats.max_intermediate)
        << "M=" << m;
  }
}

TEST(GenericJoinTest, NaiveExceedsEnvelopeOnStarTriangleGenericJoinCannot) {
  // The star adversary: E = {(0,i)} u {(i,0)} plus one genuine triangle.
  // The naive plan's second step materializes ~n^2 two-step walks through
  // the hub, blowing past the AGM envelope (2n)^{3/2}; the generic join is
  // structurally incapable of that.
  auto q = ParseQuery("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).");
  ASSERT_TRUE(q.ok());
  Database db = StarTriangleDatabase(60);
  const BigInt rmax(static_cast<std::int64_t>(db.RMax(*q).ValueOrDie()));
  const Rational envelope = FullJoinCoverExponent(*q);
  EXPECT_EQ(envelope, Rational(3, 2));

  EvalStats naive_stats, generic_stats;
  auto naive = EvaluateQuery(*q, db, PlanKind::kNaive, &naive_stats);
  auto generic = EvaluateQuery(*q, db, PlanKind::kGenericJoin,
                               &generic_stats);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(generic.ok());
  ExpectSameRelation(*naive, *generic, "star triangle");
  EXPECT_EQ(generic->size(), 3u);  // the cyclic rotations of the triangle

  EXPECT_FALSE(SatisfiesSizeBound(
      BigInt(static_cast<std::int64_t>(naive_stats.max_intermediate)), rmax,
      envelope));
  EXPECT_TRUE(SatisfiesSizeBound(
      BigInt(static_cast<std::int64_t>(generic_stats.max_intermediate)), rmax,
      envelope));
}

TEST(GenericJoinTest, RandomizedFourPlanCrossValidationWithEnvelope) {
  Rng rng(20260731);
  for (int trial = 0; trial < 40; ++trial) {
    RandomQueryOptions options;
    options.num_variables = 2 + static_cast<int>(rng.NextBelow(4));
    options.num_atoms = 2 + static_cast<int>(rng.NextBelow(3));
    options.max_arity = 3;
    options.random_projection = true;
    Query q = RandomQuery(options, &rng);
    RandomDatabaseOptions opts;
    opts.seed = rng.Next();
    opts.tuples_per_relation = 20;
    opts.domain_size = 4;
    Database db = RandomDatabase(q, opts);

    EvalStats generic_stats, hybrid_stats;
    auto naive = EvaluateQuery(q, db, PlanKind::kNaive);
    auto project = EvaluateQuery(q, db, PlanKind::kJoinProject);
    auto generic = EvaluateQuery(q, db, PlanKind::kGenericJoin,
                                 &generic_stats);
    auto hybrid = EvaluateQuery(q, db, PlanKind::kHybridYannakakis,
                                &hybrid_stats);
    ASSERT_TRUE(naive.ok()) << q.ToString();
    ASSERT_TRUE(project.ok()) << q.ToString();
    ASSERT_TRUE(generic.ok()) << q.ToString();
    ASSERT_TRUE(hybrid.ok()) << q.ToString();
    ExpectSameRelation(*naive, *project, q.ToString());
    ExpectSameRelation(*naive, *generic, q.ToString());
    ExpectSameRelation(*naive, *hybrid, q.ToString());

    const std::size_t rmax_size = db.RMax(q).ValueOrDie();
    if (rmax_size > 0) {
      const BigInt rmax(static_cast<std::int64_t>(rmax_size));
      const Rational envelope = FullJoinCoverExponent(q);
      EXPECT_TRUE(SatisfiesSizeBound(
          BigInt(static_cast<std::int64_t>(generic_stats.max_intermediate)),
          rmax, envelope))
          << q.ToString();
      // The hybrid enumerates over semi-join-reduced (sub)relations, so it
      // inherits the AGM envelope -- and on reduced inputs can only do
      // better.
      EXPECT_TRUE(SatisfiesSizeBound(
          BigInt(static_cast<std::int64_t>(hybrid_stats.max_intermediate)),
          rmax, envelope))
          << q.ToString();
    }
  }
}

// --- Projection-aware early exit -------------------------------------------

TEST(GenericJoinTest, ProjectionEarlyExitSkipsWitnessSubtrees) {
  // Q(A) :- R(A,X), S(X,B): under the order A < X < B, once A is bound the
  // head tuple is fixed -- a single (X, B) witness suffices. The executor
  // used to enumerate every witness and let output->Insert dedup them away.
  auto projected = ParseQuery("Q(A) :- R(A,X), S(X,B).");
  auto full = ParseQuery("Q(A,X,B) :- R(A,X), S(X,B).");
  ASSERT_TRUE(projected.ok());
  ASSERT_TRUE(full.ok());
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  const int fanout = 30;
  for (int a = 0; a < 4; ++a) {
    for (int x = 0; x < fanout; ++x) r->Insert({a, x});
  }
  for (int x = 0; x < fanout; ++x) {
    for (int b = 0; b < fanout; ++b) s->Insert({x, 1000 + b});
  }

  // Same body, same order; only the head differs. ParseQuery interns
  // variables in appearance order, so both queries share variable ids.
  const std::vector<int> order = DefaultGenericJoinOrder(*full);
  EvalStats head_only, full_stats;
  auto result = EvaluateGenericJoin(*projected, db, order, &head_only);
  auto witness_all = EvaluateGenericJoin(*full, db, order, &full_stats);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(witness_all.ok());

  EXPECT_EQ(result->size(), 4u);  // one output tuple per A value
  auto naive = EvaluateQuery(*projected, db, PlanKind::kNaive);
  ASSERT_TRUE(naive.ok());
  ASSERT_EQ(naive->size(), result->size());
  for (const Tuple& t : naive->tuples()) EXPECT_TRUE(result->Contains(t));

  // The projected query truncated witness enumeration; the full-head query
  // could not (its counter must stay zero).
  EXPECT_GT(head_only.projection_subtrees_skipped, 0u);
  EXPECT_EQ(full_stats.projection_subtrees_skipped, 0u);
  EXPECT_LT(head_only.intersection_seeks, full_stats.intersection_seeks);
  EXPECT_LT(head_only.total_intermediate, full_stats.total_intermediate);
}

TEST(GenericJoinTest, BooleanQueryStopsAtTheFirstWitness) {
  // A variable-free head: the whole search is an existence check, so the
  // executor must touch exactly one binding per depth however large E is.
  Query q;
  const int x = q.InternVariable("X");
  const int y = q.InternVariable("Y");
  q.SetHead("Q", {});
  q.AddAtom("E", {x, y});
  ASSERT_TRUE(q.Validate().ok());

  Database db;
  Relation* e = db.AddRelation("E", 2);
  for (int i = 0; i < 500; ++i) e->Insert({i, i + 1});

  EvalStats stats;
  auto result = EvaluateQuery(q, db, PlanKind::kGenericJoin, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->Contains(Tuple{}));
  ASSERT_EQ(stats.intermediate_sizes.size(), 2u);
  EXPECT_EQ(stats.intermediate_sizes[0], 1u);
  EXPECT_EQ(stats.intermediate_sizes[1], 1u);
  EXPECT_GT(stats.projection_subtrees_skipped, 0u);

  // And an unsatisfiable body still reports the empty answer.
  Query dead = q;
  dead.AddAtom("Empty", {x});
  ASSERT_TRUE(dead.Validate().ok());
  db.AddRelation("Empty", 1);
  auto no = EvaluateQuery(dead, db, PlanKind::kGenericJoin);
  ASSERT_TRUE(no.ok());
  EXPECT_EQ(no->size(), 0u);
}

// --- Variable-order selection ----------------------------------------------

TEST(GenericJoinOrderTest, ChainQueryUsesCertifiedDecomposition) {
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  ASSERT_TRUE(q.ok());
  auto order = ChooseGenericJoinOrder(*q);
  ASSERT_TRUE(order.ok()) << order.status();
  EXPECT_EQ(order->source, VariableOrderSource::kTreeDecomposition);
  EXPECT_EQ(order->intersection_width, 1);  // the chain's variable graph
  EXPECT_EQ(order->order.size(), q->BodyVarSet().size());
  // rho* of the full chain join: both endpoint atoms pay 1 and the middle
  // variable B still needs a unit of cover.
  EXPECT_EQ(order->envelope_exponent, Rational(3));
  EXPECT_NE(order->ToString(*q).find("tree-decomposition"),
            std::string::npos);
}

TEST(GenericJoinOrderTest, DenseQueryFallsBackToCoverWeights) {
  // K4 as a clique query: variable graph K4 has width 3 > 2, so the order
  // comes from the fractional-cover mass.
  auto q = ParseQuery(
      "Q(A,B,C,D) :- R(A,B), R(A,C), R(A,D), R(B,C), R(B,D), R(C,D).");
  ASSERT_TRUE(q.ok());
  auto order = ChooseGenericJoinOrder(*q);
  ASSERT_TRUE(order.ok()) << order.status();
  EXPECT_EQ(order->source, VariableOrderSource::kFractionalCover);
  EXPECT_EQ(order->order.size(), 4u);
  EXPECT_EQ(order->envelope_exponent, Rational(2));  // perfect matching
}

TEST(GenericJoinOrderTest, ChosenOrderEvaluatesIdentically) {
  const char* queries[] = {
      "Q(X,Z) :- R(X,Y), S(Y,Z).",
      "T(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X).",
      "Q(A,B,C,D) :- R(A,B), R(A,C), R(A,D), R(B,C), R(B,D), R(C,D).",
  };
  for (const char* text : queries) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    RandomDatabaseOptions opts;
    opts.seed = 31;
    opts.tuples_per_relation = 30;
    opts.domain_size = 6;
    Database db = RandomDatabase(*q, opts);
    auto order = ChooseGenericJoinOrder(*q);
    ASSERT_TRUE(order.ok()) << text;
    auto via_order = EvaluateGenericJoin(*q, db, order->order, nullptr);
    auto reference = EvaluateQuery(*q, db, PlanKind::kNaive);
    ASSERT_TRUE(via_order.ok()) << text;
    ASSERT_TRUE(reference.ok()) << text;
    ExpectSameRelation(*reference, *via_order, text);
  }
}

}  // namespace
}  // namespace cqbounds
