#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <set>
#include <unordered_map>
#include <vector>

#include "relation/column_store.h"
#include "relation/key_index.h"
#include "relation/relation.h"
#include "relation/trie_index.h"
#include "util/rng.h"

namespace cqbounds {
namespace {

// --- ValueDictionary -------------------------------------------------------

TEST(ValueDictionaryTest, InternsInFirstSeenOrderAndRoundTrips) {
  ValueDictionary dict;
  EXPECT_EQ(dict.size(), 0u);
  EXPECT_EQ(dict.CodeOf(42), ValueDictionary::kNoCode);

  EXPECT_EQ(dict.Intern(42), 0u);
  EXPECT_EQ(dict.Intern(-7), 1u);
  EXPECT_EQ(dict.Intern(42), 0u);  // idempotent
  EXPECT_EQ(dict.Intern(0), 2u);
  EXPECT_EQ(dict.size(), 3u);

  EXPECT_EQ(dict.CodeOf(-7), 1u);
  EXPECT_EQ(dict.ValueOf(0), 42);
  EXPECT_EQ(dict.ValueOf(1), -7);
  EXPECT_EQ(dict.ValueOf(2), 0);
}

TEST(ValueDictionaryTest, MatchesAHashMapReferenceOnAdversarialKeys) {
  // Differential check of the open-addressing dictionary against a
  // std::unordered_map reference: codes minted in first-seen order, stable
  // across every rehash, and CodeOf exact on present and absent values.
  ValueDictionary dict;
  for (Value v : {Value{0}, std::numeric_limits<Value>::min(),
                  std::numeric_limits<Value>::max()}) {
    EXPECT_EQ(dict.CodeOf(v), ValueDictionary::kNoCode);  // empty table
  }

  std::vector<Value> keys = {std::numeric_limits<Value>::min(),
                             std::numeric_limits<Value>::min() + 1,
                             std::numeric_limits<Value>::max(),
                             std::numeric_limits<Value>::max() - 1, 0, -1, 1};
  for (Value v = -1; v >= -1000; --v) keys.push_back(v);
  // Multiples of 2^32 (and other large powers of two): identical low bits,
  // so a hash keeping the low bits of v * A would put them in one slot.
  for (int shift : {20, 32, 40, 48}) {
    for (Value k = -300; k <= 300; ++k) {
      keys.push_back(static_cast<Value>(static_cast<std::uint64_t>(k)
                                        << shift));
    }
  }
  // A stride s with s * A == 2^40 (mod 2^64) for the golden-ratio
  // multiplier A: the top bits of k * s * A == k * 2^40 barely move with
  // k, so these keys collide under the dictionary's own Fibonacci hash and
  // pile into one long probe run.
  const std::uint64_t a = 0x9e3779b97f4a7c15ull;
  std::uint64_t inverse = a;  // Newton's iteration for A^-1 mod 2^64
  for (int i = 0; i < 6; ++i) inverse *= 2 - a * inverse;
  ASSERT_EQ(a * inverse, 1u);
  for (std::uint64_t k = 1; k <= 1000; ++k) {
    keys.push_back(static_cast<Value>(k * (inverse << 40)));
  }
  Rng rng(20261017);
  for (int i = 0; i < 4000; ++i) keys.push_back(static_cast<Value>(rng.Next()));

  std::unordered_map<Value, std::uint32_t> reference;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Value v = keys[i];
    const auto [it, fresh] = reference.emplace(
        v, static_cast<std::uint32_t>(reference.size()));
    if (fresh) {
      // Absent until interned.
      ASSERT_EQ(dict.CodeOf(v), ValueDictionary::kNoCode) << v;
    }
    ASSERT_EQ(dict.Intern(v), it->second) << v;
    ASSERT_EQ(dict.size(), reference.size());
    // Re-intern an earlier key now and then: codes must not move.
    const Value earlier = keys[rng.NextBelow(i + 1)];
    ASSERT_EQ(dict.Intern(earlier), reference.at(earlier)) << earlier;
    // A random probe, almost surely absent.
    const Value probe = static_cast<Value>(rng.Next());
    auto ref_it = reference.find(probe);
    ASSERT_EQ(dict.CodeOf(probe), ref_it == reference.end()
                                      ? ValueDictionary::kNoCode
                                      : ref_it->second);
  }
  // ~10^4 distinct values: the 16-slot table doubled about ten times.
  EXPECT_GT(reference.size(), 8000u);
  for (const auto& [v, code] : reference) {
    EXPECT_EQ(dict.CodeOf(v), code);
    EXPECT_EQ(dict.ValueOf(code), v);
  }
}

// --- KeyCounts and KeyRows: the keyed views on the slot table -------------

/// Keys the Fibonacci home slot cannot tell apart: k * s for the stride s
/// with s * 2^64/phi == 2^40 (mod 2^64), as in the dictionary test above.
std::vector<Value> CollidingValues(int count) {
  const std::uint64_t a = 0x9e3779b97f4a7c15ull;
  std::uint64_t inverse = a;
  for (int i = 0; i < 6; ++i) inverse *= 2 - a * inverse;
  std::vector<Value> values;
  for (int k = 1; k <= count; ++k) {
    values.push_back(static_cast<Value>(static_cast<std::uint64_t>(k) *
                                        (inverse << 40)));
  }
  return values;
}

struct TupleKeyHash {
  std::size_t operator()(const Tuple& t) const {
    std::size_t h = t.size();
    for (Value v : t) h = h * 1000003u ^ static_cast<std::size_t>(v);
    return h;
  }
};

TEST(KeyCountsTest, MatchesAHashMapReferenceAcrossWidthsAndGrowth) {
  const std::vector<Value> colliding = CollidingValues(64);
  for (std::size_t width = 0; width <= 4; ++width) {
    KeyCounts counts(width);
    std::unordered_map<Tuple, std::uint32_t, TupleKeyHash> reference;
    Rng rng(1993 + width);
    // ~10^4 distinct keys at width >= 1: the 16-slot table rebuilds about
    // ten times. Half the values come from the colliding stride.
    Tuple key(width);
    for (int i = 0; i < 40000; ++i) {
      for (std::size_t c = 0; c < width; ++c) {
        key[c] = rng.NextBelow(2) == 0
                     ? colliding[rng.NextBelow(colliding.size())]
                     : static_cast<Value>(rng.NextBelow(12)) - 6;
      }
      std::uint32_t& want = reference[key];
      const std::uint32_t id = counts.Insert(key.data());
      // Drop a key to 0 now and then, and bring some back later.
      if (want > 0 && rng.NextBelow(3) == 0) {
        want = 0;
        counts.count(id) = 0;
      } else {
        ++want;
        ++counts.count(id);
      }
      const Tuple probe = reference.begin()->first;
      ASSERT_EQ(counts.CountOf(probe.data()), reference.begin()->second);
    }
    std::size_t positive = 0;
    for (const auto& [k, c] : reference) {
      ASSERT_EQ(counts.CountOf(k.data()), c) << "width " << width;
      positive += c > 0 ? 1 : 0;
    }
    // Every key the table holds is one the reference holds, with its count;
    // a zero-count key is held but reads as absent.
    ASSERT_EQ(counts.size(), reference.size());
    std::size_t held_positive = 0;
    for (std::uint32_t id = 0; id < counts.size(); ++id) {
      const Tuple k(counts.key(id), counts.key(id) + width);
      ASSERT_EQ(reference.at(k), counts.count(id));
      held_positive += counts.count(id) > 0 ? 1 : 0;
    }
    EXPECT_EQ(held_positive, positive);
    const Tuple absent(width, 1000);
    EXPECT_EQ(counts.CountOf(absent.data()),
              width == 0 ? reference.at(Tuple{}) : 0u);
    if (width >= 3) {
      EXPECT_GT(reference.size(), 8000u);
    }
  }
}

TEST(KeyRowsTest, ChainsMatchAHashMapReferenceInAscendingRowOrder) {
  const std::vector<Value> colliding = CollidingValues(32);
  Rng rng(2026);
  ColumnStore store(4);
  std::vector<Tuple> batch;
  for (int i = 0; i < 20000; ++i) {
    Tuple t(4);
    for (Value& v : t) {
      v = rng.NextBelow(2) == 0 ? colliding[rng.NextBelow(colliding.size())]
                                : static_cast<Value>(rng.NextBelow(40));
    }
    batch.push_back(t);
  }
  for (const Tuple& t : batch) store.Append(t);
  // Tombstone some rows; the keep test below leaves them unlinked.
  for (int i = 0; i < 500; ++i) {
    store.Erase(batch[rng.NextBelow(batch.size())]);
  }
  ASSERT_GT(store.dead_count(), 0u);
  for (std::size_t width = 0; width <= 4; ++width) {
    std::vector<int> positions;
    for (std::size_t c = 0; c < width; ++c) {
      positions.push_back(static_cast<int>((c * 3 + 1) % 4));
    }
    KeyRows<7, 8> index(positions);
    std::unordered_map<Tuple, std::vector<std::uint32_t>, TupleKeyHash>
        reference;
    // Link in two calls: the second call's rows go ahead of the first's,
    // each call's own rows in ascending row id.
    const std::size_t half = store.size() / 2;
    const auto live = [&store](std::size_t row) { return store.IsLive(row); };
    EXPECT_EQ(index.LinkRows(store, half, live), half);
    EXPECT_EQ(index.LinkRows(store, store.size(), live), store.size() - half);
    for (std::size_t row = 0; row < store.size(); ++row) {
      if (!store.IsLive(row)) continue;
      Tuple key;
      for (int p : positions) key.push_back(store.ValueAt(row, p));
      reference[key].push_back(static_cast<std::uint32_t>(row));
    }
    for (auto& [key, rows] : reference) {
      std::vector<std::uint32_t> want;
      for (std::uint32_t r : rows) {
        if (r >= half) want.push_back(r);
      }
      for (std::uint32_t r : rows) {
        if (r < half) want.push_back(r);
      }
      std::vector<std::uint32_t> got;
      index.ForEachRow(store, key.data(),
                       [&got](std::uint32_t row) { got.push_back(row); });
      ASSERT_EQ(got, want) << "width " << width;
    }
    if (width == 0) {
      ASSERT_EQ(reference.size(), 1u);  // one chain, every live row
    }
    // A key of interned values that no row carries, and a value the store
    // never interned, name no row.
    const Tuple unseen(width, 1000000);
    bool visited = false;
    index.ForEachRow(store, unseen.data(),
                     [&visited](std::uint32_t) { visited = true; });
    EXPECT_EQ(visited, width == 0);
  }
}

// --- ColumnStore round trips ----------------------------------------------

TEST(ColumnStoreTest, AppendContainsAndDecodeAcrossArities) {
  for (int arity : {1, 2, 3, 5}) {
    ColumnStore store(arity);
    EXPECT_TRUE(store.empty());
    std::vector<Tuple> rows;
    for (Value base : {10, -3, 999}) {
      Tuple t(arity);
      for (int c = 0; c < arity; ++c) t[c] = base + c;
      rows.push_back(t);
      EXPECT_TRUE(store.Append(t)) << "arity " << arity;
      EXPECT_FALSE(store.Append(t)) << "duplicate must be rejected";
    }
    ASSERT_EQ(store.size(), rows.size()) << "arity " << arity;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(store.Row(r), rows[r]);
      EXPECT_TRUE(store.Contains(rows[r]));
      for (int c = 0; c < arity; ++c) {
        EXPECT_EQ(store.ValueAt(r, c), rows[r][c]);
      }
    }
    Tuple absent(arity, Value{123456});
    EXPECT_FALSE(store.Contains(absent));
    // Columns are contiguous and exactly size() long.
    for (int c = 0; c < arity; ++c) {
      EXPECT_EQ(store.column(c).size(), store.size());
    }
  }
}

TEST(ColumnStoreTest, NullaryStoreHoldsAtMostTheEmptyTuple) {
  ColumnStore store(0);
  EXPECT_FALSE(store.Contains(Tuple{}));
  EXPECT_TRUE(store.Append(Tuple{}));
  EXPECT_FALSE(store.Append(Tuple{}));  // set semantics on zero columns
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.Contains(Tuple{}));
  EXPECT_EQ(store.Row(0), Tuple{});
  // A one-row store is past the deferred-compaction threshold the moment
  // its only row dies, so the nullary erase compacts immediately.
  EXPECT_EQ(store.Erase(Tuple{}), ColumnStore::EraseResult::kCompacted);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.Erase(Tuple{}), ColumnStore::EraseResult::kNotFound);
}

TEST(ColumnStoreTest, SharedDictionaryMakesRepeatedValuesCodeEqual) {
  // One dictionary per store: the same value in different columns gets the
  // same code, so intra-tuple equality (R(X,X)) is code equality.
  ColumnStore store(3);
  store.Append({7, 7, 9});
  store.Append({9, 7, 7});
  EXPECT_EQ(store.CodeAt(0, 0), store.CodeAt(0, 1));
  EXPECT_EQ(store.CodeAt(0, 0), store.CodeAt(1, 1));
  EXPECT_EQ(store.CodeAt(0, 2), store.CodeAt(1, 0));
  EXPECT_NE(store.CodeAt(0, 0), store.CodeAt(0, 2));
  EXPECT_EQ(store.dict().size(), 2u);  // only {7, 9} were ever interned
}

TEST(ColumnStoreTest, BatchAppendDedupsWithinAndAgainstExisting) {
  ColumnStore store(2);
  store.Append({1, 2});
  const std::size_t added =
      store.AppendFlat({1, 2, 3, 4, 3, 4, 5, 6, 1, 2}, 5);
  EXPECT_EQ(added, 2u);
  ASSERT_EQ(store.size(), 3u);
  EXPECT_EQ(store.Row(0), (Tuple{1, 2}));
  EXPECT_EQ(store.Row(1), (Tuple{3, 4}));  // first-occurrence order kept
  EXPECT_EQ(store.Row(2), (Tuple{5, 6}));
}

TEST(ColumnStoreTest, FlatAppendMatchesTupleAppend) {
  ColumnStore flat(2);
  ColumnStore slow(2);
  const std::vector<Value> values = {1, 2, 3, 4, 1, 2, 5, 6};
  EXPECT_EQ(flat.AppendFlat(values, 4), 3u);
  for (std::size_t r = 0; r < 4; ++r) {
    slow.Append({values[2 * r], values[2 * r + 1]});
  }
  ASSERT_EQ(flat.size(), slow.size());
  for (std::size_t r = 0; r < flat.size(); ++r) {
    EXPECT_EQ(flat.Row(r), slow.Row(r));
  }
}

TEST(ColumnStoreTest, AppendRowsMergesSpansInOrderIntoItsOwnDictionary) {
  // Two borrowed spans (as the pooled merge hands them over): rows land in
  // span order, duplicates within and across spans and against existing
  // rows collapse to the first occurrence, and values intern into the
  // target's own dictionary.
  ColumnStore target(2);
  target.Append({999, 100});  // pre-seeds a different code assignment
  const std::vector<Value> first = {100, 200, 300, 100, 100, 200};
  const std::vector<Value> second = {999, 100, 7, 8, 300, 100};
  const ColumnStore::RowSpan spans[] = {{first.data(), 3},
                                        {second.data(), 3}};
  EXPECT_EQ(target.AppendRows(spans, 2), 3u);
  ASSERT_EQ(target.size(), 4u);
  EXPECT_EQ(target.Row(1), (Tuple{100, 200}));
  EXPECT_EQ(target.Row(2), (Tuple{300, 100}));
  EXPECT_EQ(target.Row(3), (Tuple{7, 8}));
  EXPECT_EQ(target.dict().CodeOf(100), 1u);  // minted by the first Append
  // No spans, or only empty ones, add nothing.
  EXPECT_EQ(target.AppendRows(nullptr, 0), 0u);
  const ColumnStore::RowSpan empty{first.data(), 0};
  EXPECT_EQ(target.AppendRows(&empty, 1), 0u);
  EXPECT_EQ(target.size(), 4u);

  // Nullary: rows carry no values, so the door never reads the pointer and
  // any number of rows collapses to the one empty tuple.
  ColumnStore nullary(0);
  const ColumnStore::RowSpan empty_rows{nullptr, 5};
  EXPECT_EQ(nullary.AppendRows(&empty_rows, 1), 1u);
  EXPECT_EQ(nullary.size(), 1u);
}

TEST(ColumnStoreTest, EraseTombstonesWithoutMovingRows) {
  ColumnStore store(2);
  for (Value v : {1, 2, 3, 4, 5}) store.Append({v, v * 10});
  EXPECT_EQ(store.Erase({9, 90}), ColumnStore::EraseResult::kNotFound);
  std::uint32_t removed = 0;
  EXPECT_EQ(store.Erase({3, 30}, &removed),
            ColumnStore::EraseResult::kTombstoned);
  EXPECT_EQ(removed, 2u);
  // Physical rows are untouched (the dead row's columns stay readable for
  // delta consumers); only the live view shrinks.
  ASSERT_EQ(store.size(), 5u);
  EXPECT_EQ(store.live_size(), 4u);
  EXPECT_EQ(store.dead_count(), 1u);
  EXPECT_FALSE(store.IsLive(2));
  EXPECT_EQ(store.Row(2), (Tuple{3, 30}));
  // Membership and dedup see only live rows.
  EXPECT_FALSE(store.Contains({3, 30}));
  EXPECT_TRUE(store.Contains({5, 50}));
  EXPECT_FALSE(store.Append({4, 40}));
  EXPECT_EQ(store.Erase({3, 30}), ColumnStore::EraseResult::kNotFound);
}

TEST(ColumnStoreTest, RemoveThenReinsertGetsAFreshRowId) {
  ColumnStore store(2);
  for (Value v : {1, 2, 3, 4, 5, 6, 7}) store.Append({v, v * 10});
  ASSERT_EQ(store.Erase({2, 20}), ColumnStore::EraseResult::kTombstoned);
  // Re-inserting the erased tuple must land on a NEW physical row -- dead
  // row ids never resurrect (removal journals depend on their uniqueness).
  EXPECT_TRUE(store.Append({2, 20}));
  ASSERT_EQ(store.size(), 8u);
  EXPECT_FALSE(store.IsLive(1));
  EXPECT_TRUE(store.IsLive(7));
  EXPECT_EQ(store.Row(7), (Tuple{2, 20}));
  EXPECT_TRUE(store.Contains({2, 20}));
  EXPECT_FALSE(store.Append({2, 20}));  // dedup tracks the live copy
  // Erasing again hits the fresh copy, not the old tombstone.
  std::uint32_t removed = 0;
  ASSERT_EQ(store.Erase({2, 20}, &removed),
            ColumnStore::EraseResult::kTombstoned);
  EXPECT_EQ(removed, 7u);
}

TEST(ColumnStoreTest, CompactionTriggersPastTheQuarterDeadThreshold) {
  ColumnStore store(1);
  for (Value v = 0; v < 8; ++v) store.Append({v});
  // Threshold is dead * 4 > rows: with 8 physical rows the first two
  // erases tombstone (4 <= 8, 8 <= 8) and the third compacts (12 > 8).
  EXPECT_EQ(store.Erase({0}), ColumnStore::EraseResult::kTombstoned);
  EXPECT_EQ(store.Erase({2}), ColumnStore::EraseResult::kTombstoned);
  EXPECT_EQ(store.size(), 8u);
  EXPECT_EQ(store.Erase({4}), ColumnStore::EraseResult::kCompacted);
  // Compaction rewrites the physical rows to the live ones, in order.
  ASSERT_EQ(store.size(), 5u);
  EXPECT_EQ(store.dead_count(), 0u);
  EXPECT_EQ(store.Row(0), (Tuple{1}));
  EXPECT_EQ(store.Row(1), (Tuple{3}));
  EXPECT_EQ(store.Row(2), (Tuple{5}));
  EXPECT_EQ(store.Row(3), (Tuple{6}));
  EXPECT_EQ(store.Row(4), (Tuple{7}));
  // The rebuilt index serves membership and dedup over the new row ids.
  EXPECT_FALSE(store.Contains({4}));
  EXPECT_TRUE(store.Contains({7}));
  EXPECT_FALSE(store.Append({3}));
  EXPECT_TRUE(store.Append({4}));
}

TEST(ColumnStoreTest, CompactionShrinksTheDictionaryToTheLiveValues) {
  // Churn that mints fresh values every round (as a log of new ids would):
  // without dictionary compaction the codes of values whose rows all died
  // would live forever. After every compaction the dictionary holds exactly
  // the live rows' distinct values, every row reads back unchanged and in
  // order, and the re-coded store still serves membership, dedup and
  // repeated-value code equality.
  ColumnStore store(3);
  std::vector<Tuple> rows;  // physical rows, mirrored
  std::vector<bool> live;
  Rng rng(23);
  Value fresh = 0;
  int compactions = 0;
  for (int round = 0; round < 60; ++round) {
    for (int k = 0; k < 40; ++k) {
      // A fresh value, a small shared pool, and the fresh value repeated.
      Tuple t = {fresh, Value(rng.NextBelow(16)) - 8, fresh};
      ++fresh;
      ASSERT_TRUE(store.Append(t));
      rows.push_back(t);
      live.push_back(true);
    }
    for (int k = 0; k < 30; ++k) {
      std::size_t victim = rng.NextBelow(rows.size());
      while (!live[victim]) victim = (victim + 1) % rows.size();
      const ColumnStore::EraseResult erased = store.Erase(rows[victim]);
      ASSERT_NE(erased, ColumnStore::EraseResult::kNotFound);
      live[victim] = false;
      if (erased != ColumnStore::EraseResult::kCompacted) continue;
      ++compactions;
      std::vector<Tuple> kept;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (live[i]) kept.push_back(rows[i]);
      }
      rows = kept;
      live.assign(rows.size(), true);
      std::set<Value> distinct;
      for (const Tuple& t : rows) distinct.insert(t.begin(), t.end());
      ASSERT_EQ(store.dict().size(), distinct.size());
      ASSERT_EQ(store.size(), rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(store.Row(i), rows[i]);
        ASSERT_EQ(store.CodeAt(i, 0), store.CodeAt(i, 2));
        ASSERT_TRUE(store.Contains(rows[i]));
        ASSERT_FALSE(store.Append(rows[i]));
      }
      // A value whose rows all died has no code any more.
      for (Value v = 0; v < fresh; ++v) {
        ASSERT_EQ(store.dict().CodeOf(v) != ValueDictionary::kNoCode,
                  distinct.count(v) == 1)
            << v;
      }
    }
  }
  EXPECT_GE(compactions, 5);
  // Clear drops the dictionary with the rows.
  store.Clear();
  EXPECT_EQ(store.dict().size(), 0u);
  EXPECT_TRUE(store.Append({1, 2, 1}));
  EXPECT_EQ(store.dict().size(), 2u);
}

TEST(ColumnStoreTest, ClearOnAlreadyEmptyStoreIsIdempotent) {
  ColumnStore store(2);
  store.Clear();
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.size(), 0u);
  store.Append({1, 2});
  ASSERT_EQ(store.Erase({1, 2}), ColumnStore::EraseResult::kCompacted);
  store.Clear();  // clearing a compacted-to-empty store
  store.Clear();
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.Append({1, 2}));
}

TEST(ColumnStoreTest, StatsComputeMinMaxDistinctPerColumn) {
  ColumnStore store(2);
  store.Append({5, -1});
  store.Append({-3, -1});
  store.Append({5, 7});
  ColumnStats c0 = store.Stats(0);
  EXPECT_EQ(c0.min, -3);
  EXPECT_EQ(c0.max, 5);
  EXPECT_EQ(c0.distinct, 2u);
  ColumnStats c1 = store.Stats(1);
  EXPECT_EQ(c1.min, -1);
  EXPECT_EQ(c1.max, 7);
  EXPECT_EQ(c1.distinct, 2u);

  ColumnStore empty(1);
  ColumnStats none = empty.Stats(0);
  EXPECT_EQ(none.distinct, 0u);
}

// --- Relation journal over the columnar store ------------------------------

TEST(RelationJournalTest, BatchInsertAdvancesGenerationByRowsAdded) {
  Relation r("R", 2);
  EXPECT_EQ(r.generation(), 0u);
  r.Insert({1, 2});
  EXPECT_EQ(r.generation(), 1u);
  r.Insert({1, 2});  // duplicate: no change
  EXPECT_EQ(r.generation(), 1u);

  const std::uint64_t snapshot = r.generation();
  EXPECT_EQ(r.InsertFlat({1, 2, 3, 4, 5, 6, 3, 4}, 4), 2u);
  EXPECT_EQ(r.generation(), snapshot + 2);

  // The journal names exactly the batch's fresh rows, and no removal.
  Relation::DeltaSet ds;
  ASSERT_TRUE(r.DeltasSince(snapshot, &ds));
  EXPECT_EQ(ds.appended_rows, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_TRUE(ds.removed_rows.empty());
  EXPECT_EQ(r.store().Row(ds.appended_rows.front()), (Tuple{3, 4}));

  // Removing one of three rows crosses the quarter-dead threshold: the
  // compaction is a structural break that closes the old window, while a
  // snapshot taken after it sees an empty one.
  r.Remove({1, 2});
  ASSERT_EQ(r.compactions(), 1u);
  EXPECT_FALSE(r.DeltasSince(snapshot, &ds));
  ASSERT_TRUE(r.DeltasSince(r.generation(), &ds));
  EXPECT_TRUE(ds.appended_rows.empty());
  EXPECT_TRUE(ds.removed_rows.empty());
}

TEST(RelationJournalTest, DeltasSinceNamesBothSidesOfAMixedWindow) {
  Relation r("R", 1);
  for (Value v = 0; v < 8; ++v) r.Insert({v});
  const std::uint64_t snapshot = r.generation();

  r.Insert({100});               // physical row 8
  EXPECT_TRUE(r.Remove({3}));    // tombstones row 3
  r.Insert({101});               // physical row 9
  EXPECT_TRUE(r.Remove({101}));  // appended then removed in one window

  Relation::DeltaSet ds;
  ASSERT_TRUE(r.DeltasSince(snapshot, &ds));
  // The append-then-remove of {101} nets out of BOTH sides: row 9 is dead
  // (not appended) and was never visible at the snapshot (not removed).
  EXPECT_EQ(ds.appended_rows, (std::vector<std::uint32_t>{8}));
  EXPECT_EQ(ds.removed_rows, (std::vector<std::uint32_t>{3}));
  // The removed row's columns stay readable until compaction -- the trie
  // unpatch path reads the dead row's key out of them.
  EXPECT_FALSE(r.store().IsLive(3));
  EXPECT_EQ(r.store().Row(3), (Tuple{3}));

  // The current generation's delta is empty, a future one is invalid.
  ASSERT_TRUE(r.DeltasSince(r.generation(), &ds));
  EXPECT_TRUE(ds.appended_rows.empty());
  EXPECT_TRUE(ds.removed_rows.empty());
  EXPECT_FALSE(r.DeltasSince(r.generation() + 1, &ds));
  // Clear is a structural break: older snapshots can no longer be served.
  r.Clear();
  EXPECT_FALSE(r.DeltasSince(snapshot, &ds));

  // Single Inserts, then an InsertRows batch, then a tombstone and a
  // re-append of the same tuple: from every watermark the journal names
  // exactly the live rows appended after it, whichever door they came in
  // by, and the re-append lands on a fresh physical row.
  std::vector<std::uint64_t> watermarks = {r.generation()};
  std::vector<std::size_t> rows_at = {r.store().size()};
  const auto mark = [&] {
    watermarks.push_back(r.generation());
    rows_at.push_back(r.store().size());
  };
  for (Value v = 0; v < 10; ++v) {
    EXPECT_TRUE(r.Insert({v}));  // physical rows 0..9
    mark();
  }
  const std::vector<Value> batch = {20, 21, 5, 22, 20};
  const ColumnStore::RowSpan span{batch.data(), batch.size()};
  EXPECT_EQ(r.InsertRows(&span, 1), 3u);  // rows 10..12; 5 and 20 repeat
  mark();
  const std::size_t last_before_remove = watermarks.size() - 1;
  EXPECT_TRUE(r.Remove({21}));  // tombstones row 11
  ASSERT_EQ(r.compactions(), 0u);
  mark();
  EXPECT_TRUE(r.Insert({21}));  // re-append: physical row 13
  mark();
  ASSERT_EQ(r.store().size(), 14u);
  for (std::size_t w = 0; w < watermarks.size(); ++w) {
    ASSERT_TRUE(r.DeltasSince(watermarks[w], &ds)) << "watermark " << w;
    std::vector<std::uint32_t> want_appended;
    for (std::size_t row = rows_at[w]; row < r.store().size(); ++row) {
      if (r.store().IsLive(row)) {
        want_appended.push_back(static_cast<std::uint32_t>(row));
      }
    }
    EXPECT_EQ(ds.appended_rows, want_appended) << "watermark " << w;
    // Row 11 is named removed exactly by the windows that saw it live.
    const bool saw_row_11 = rows_at[w] > 11 && w <= last_before_remove;
    EXPECT_EQ(ds.removed_rows, saw_row_11 ? std::vector<std::uint32_t>{11}
                                          : std::vector<std::uint32_t>{})
        << "watermark " << w;
  }
  ASSERT_TRUE(r.DeltasSince(watermarks[10], &ds));  // after the singles
  EXPECT_EQ(ds.appended_rows, (std::vector<std::uint32_t>{10, 12, 13}));
  EXPECT_EQ(r.store().Row(13), (Tuple{21}));
}

TEST(RelationJournalTest, CompactionIsAStructuralBreakForDeltas) {
  Relation r("R", 1);
  for (Value v = 0; v < 8; ++v) r.Insert({v});
  const std::uint64_t snapshot = r.generation();
  EXPECT_EQ(r.compactions(), 0u);
  EXPECT_TRUE(r.Remove({0}));
  EXPECT_TRUE(r.Remove({1}));
  Relation::DeltaSet ds;
  ASSERT_TRUE(r.DeltasSince(snapshot, &ds));  // tombstones: still servable
  EXPECT_EQ(ds.removed_rows.size(), 2u);
  EXPECT_TRUE(r.Remove({2}));  // crosses dead*4 > rows: compacts
  EXPECT_EQ(r.compactions(), 1u);
  EXPECT_EQ(r.store().size(), 5u);  // physically rewritten
  EXPECT_FALSE(r.DeltasSince(snapshot, &ds));  // row ids moved: invalid
  // The post-compaction generation serves deltas again.
  const std::uint64_t after = r.generation();
  r.Insert({100});
  ASSERT_TRUE(r.DeltasSince(after, &ds));
  EXPECT_EQ(ds.appended_rows, (std::vector<std::uint32_t>{5}));
  EXPECT_TRUE(ds.removed_rows.empty());
}

TEST(RelationJournalTest, FlatAndRowInsertsMatchTupleInserts) {
  Relation flat("F", 2);
  EXPECT_EQ(flat.InsertFlat({1, 2, 3, 4, 1, 2}, 3), 2u);
  EXPECT_EQ(flat.generation(), 2u);

  // The generation advances by the rows actually added, in one bump.
  Relation rows("G", 2);
  rows.Insert({3, 4});
  const std::vector<Value> values = {1, 2, 3, 4};
  const ColumnStore::RowSpan span{values.data(), 2};
  EXPECT_EQ(rows.InsertRows(&span, 1), 1u);  // {3,4} already present
  EXPECT_EQ(rows.generation(), 2u);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows.store().Row(1), (Tuple{1, 2}));
}

TEST(RelationJournalTest, MaterializingAccessorMatchesStoreRows) {
  Relation r("R", 2);
  r.InsertFlat({2, 1, 4, 3}, 2);
  const std::vector<Tuple> tuples = r.tuples();  // by value: a fresh decode
  ASSERT_EQ(tuples.size(), r.size());
  for (std::size_t row = 0; row < r.size(); ++row) {
    EXPECT_EQ(tuples[row], r.store().Row(row));
  }
}

// --- Radix trie builds vs a comparison-sort reference ----------------------

/// Every root-to-leaf key of `trie` in lexicographic (level) order.
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

TEST(RadixTrieBuildTest, MatchesSortedSetReferenceOnRandomRelations) {
  Rng rng(20260808);
  // Mixed-sign values force the sign-biased key packing to prove itself:
  // unsigned byte order must still sort negatives before positives.
  for (int round = 0; round < 20; ++round) {
    const int arity = 1 + static_cast<int>(rng.NextBelow(3));
    Relation r("R", arity);
    const std::size_t n = rng.NextBelow(60);
    for (std::size_t i = 0; i < n; ++i) {
      Tuple t(arity);
      for (int c = 0; c < arity; ++c) t[c] = rng.NextInRange(-50, 50);
      r.Insert(t);
    }
    // Identity layout: one level per column.
    std::vector<std::vector<int>> layout;
    for (int c = 0; c < arity; ++c) layout.push_back({c});
    TrieIndex trie(r, layout);

    std::set<Tuple> reference;
    for (std::size_t row = 0; row < r.store().size(); ++row) {
      reference.insert(r.store().Row(row));
    }
    EXPECT_EQ(AllKeys(trie),
              std::vector<Tuple>(reference.begin(), reference.end()))
        << "round " << round << " arity " << arity;
  }
}

TEST(RadixTrieBuildTest, CountsBuildsAndNeverMaterializesTuples) {
  const TrieBuildStats before = GetTrieBuildStats();
  Relation r("R", 2);
  r.InsertFlat({1, 2, 3, 4, 5, 6}, 3);
  TrieIndex scratch(r, {{0}, {1}});
  r.Insert({7, 8});
  RowView appended(&r.store());
  appended.rows = {3};
  TrieIndex patched(scratch, appended, RowView(&r.store()), {{0}, {1}});
  const TrieBuildStats after = GetTrieBuildStats();
  EXPECT_EQ(after.radix_builds, before.radix_builds + 1);
  EXPECT_EQ(after.merge_builds, before.merge_builds + 1);
  // The tripwire: columnar builds create no per-tuple Tuple objects.
  EXPECT_EQ(after.tuple_materializations, before.tuple_materializations);
  EXPECT_EQ(patched.num_tuples(), 4u);
}

}  // namespace
}  // namespace cqbounds
