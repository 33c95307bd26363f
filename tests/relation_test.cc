#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cq/parser.h"
#include "relation/database.h"
#include "relation/evaluate.h"
#include "relation/generator.h"
#include "relation/relation.h"
#include "util/rng.h"

namespace cqbounds {
namespace {

/// True iff the journal names the window since `gen` with no removed row --
/// the append-only windows a cached trie refreshes by pure merging.
bool AppendOnlyWindow(const Relation& r, std::uint64_t gen) {
  Relation::DeltaSet ds;
  return r.DeltasSince(gen, &ds) && ds.removed_rows.empty();
}

TEST(RelationTest, InsertDeduplicates) {
  Relation r("R", 2);
  EXPECT_TRUE(r.Insert({1, 2}));
  EXPECT_FALSE(r.Insert({1, 2}));
  EXPECT_TRUE(r.Insert({2, 1}));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains({1, 2}));
  EXPECT_FALSE(r.Contains({3, 3}));
}

TEST(RelationTest, RemoveErasesAndPreservesInsertionOrder) {
  Relation r("R", 2);
  r.Insert({1, 2});
  r.Insert({3, 4});
  r.Insert({5, 6});
  EXPECT_FALSE(r.Remove({7, 8}));  // absent: no-op
  EXPECT_TRUE(r.Remove({3, 4}));
  EXPECT_FALSE(r.Remove({3, 4}));  // already gone
  EXPECT_EQ(r.size(), 2u);
  EXPECT_FALSE(r.Contains({3, 4}));
  // Remaining tuples keep their relative (insertion) order -- the delta
  // journal's appended-suffix convention depends on a stable prefix.
  EXPECT_EQ(r.tuples()[0], (Tuple{1, 2}));
  EXPECT_EQ(r.tuples()[1], (Tuple{5, 6}));
}

TEST(RelationTest, GenerationAndAppendFloorTrackMutations) {
  Relation r("R", 2);
  EXPECT_EQ(r.generation(), 0u);
  EXPECT_TRUE(AppendOnlyWindow(r, 0));

  // Appends (and only actual inserts) bump the generation; the whole
  // history so far is appends-only from any observed generation.
  r.Insert({1, 2});
  r.Insert({3, 4});
  EXPECT_FALSE(r.Insert({1, 2}));  // duplicate: generation must not move
  EXPECT_EQ(r.generation(), 2u);
  EXPECT_TRUE(AppendOnlyWindow(r, 0));
  EXPECT_TRUE(AppendOnlyWindow(r, 1));
  EXPECT_TRUE(AppendOnlyWindow(r, 2));
  // A future generation is never appends-only reachable.
  EXPECT_FALSE(AppendOnlyWindow(r, 3));

  // Removing one of two rows compacts (a structural break): snapshots
  // older than it can no longer be patched, the current generation still
  // can.
  EXPECT_TRUE(r.Remove({1, 2}));
  EXPECT_EQ(r.compactions(), 1u);
  EXPECT_EQ(r.generation(), 3u);
  EXPECT_FALSE(AppendOnlyWindow(r, 0));
  EXPECT_FALSE(AppendOnlyWindow(r, 2));
  EXPECT_TRUE(AppendOnlyWindow(r, 3));
  r.Insert({5, 6});
  EXPECT_TRUE(AppendOnlyWindow(r, 3));
  EXPECT_TRUE(AppendOnlyWindow(r, 4));

  // Failed structural mutations are no-ops on the journal.
  EXPECT_FALSE(r.Remove({9, 9}));
  EXPECT_EQ(r.generation(), 4u);
  EXPECT_TRUE(AppendOnlyWindow(r, 3));
}

TEST(RelationTest, ClearBumpsGenerationUnlessAlreadyEmpty) {
  Relation r("R", 1);
  r.Clear();  // empty: no observable change, no bump
  EXPECT_EQ(r.generation(), 0u);
  EXPECT_TRUE(AppendOnlyWindow(r, 0));

  r.Insert({1});
  r.Insert({2});
  r.Clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.generation(), 3u);
  EXPECT_FALSE(r.Contains({1}));
  EXPECT_FALSE(AppendOnlyWindow(r, 2));
  EXPECT_TRUE(AppendOnlyWindow(r, 3));
  // Post-clear inserts are appends again from the cleared state on.
  r.Insert({3});
  EXPECT_TRUE(AppendOnlyWindow(r, 3));
  EXPECT_FALSE(AppendOnlyWindow(r, 0));
}

TEST(RelationTest, ProjectWithRepeats) {
  Relation r("R", 2);
  r.Insert({1, 2});
  r.Insert({1, 3});
  Relation p = r.Project({0}, "p");
  EXPECT_EQ(p.size(), 1u);  // both tuples project to (1)
  Relation pp = r.Project({1, 1, 0}, "pp");
  EXPECT_EQ(pp.arity(), 3);
  EXPECT_TRUE(pp.Contains({2, 2, 1}));
}

TEST(RelationTest, ColumnValuesAndActiveDomain) {
  Relation r("R", 2);
  r.Insert({1, 5});
  r.Insert({2, 5});
  EXPECT_EQ(r.ColumnValues(0), (std::vector<Value>{1, 2}));
  EXPECT_EQ(r.ColumnValues(1), (std::vector<Value>{5}));
  EXPECT_EQ(r.ActiveDomain(), (std::vector<Value>{1, 2, 5}));
}

TEST(RelationTest, SatisfiesFd) {
  Relation r("R", 3);
  r.Insert({1, 10, 100});
  r.Insert({2, 10, 200});
  r.Insert({1, 10, 100});
  EXPECT_TRUE(r.SatisfiesFd({0}, 1));
  EXPECT_TRUE(r.SatisfiesFd({0}, 2));
  EXPECT_FALSE(r.SatisfiesFd({1}, 2));  // 10 -> {100, 200}
  EXPECT_TRUE(r.SatisfiesFd({0, 1}, 2));
}

TEST(DatabaseTest, RMaxOverQueryRelations) {
  Database db;
  Relation* r = db.AddRelation("R", 1);
  for (int i = 0; i < 5; ++i) r->Insert({i});
  Relation* s = db.AddRelation("S", 1);
  for (int i = 0; i < 9; ++i) s->Insert({i});
  auto q = ParseQuery("Q(X) :- R(X).");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(db.RMax(*q).ValueOrDie(), 5u);  // S is not referenced by the query
  EXPECT_EQ(db.MaxRelationSize(), 9u);
}

TEST(DatabaseTest, RMaxDistinguishesMissingFromEmpty) {
  Database db;
  db.AddRelation("R", 1);  // present but empty
  auto q = ParseQuery("Q(X) :- R(X).");
  ASSERT_TRUE(q.ok());
  // Present-but-empty is a genuine rmax of 0 ...
  auto empty = db.RMax(*q);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, 0u);
  // ... but a missing body relation is an error, not a silent 0: a size
  // bound computed against the wrong database must not read as legitimate.
  auto missing_q = ParseQuery("Q(X) :- R(X), Nope(X).");
  ASSERT_TRUE(missing_q.ok());
  auto missing = db.RMax(*missing_q);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, AddRelationArityConflictIsRecoverable) {
  Database db;
  Relation* r = db.AddRelation("R", 2);
  ASSERT_NE(r, nullptr);
  r->Insert({1, 2});
  // Re-declaring with a different arity reports the conflict by returning
  // null -- no abort -- and leaves the existing relation untouched.
  EXPECT_EQ(db.AddRelation("R", 3), nullptr);
  ASSERT_NE(db.Find("R"), nullptr);
  EXPECT_EQ(db.Find("R")->arity(), 2);
  EXPECT_EQ(db.Find("R")->size(), 1u);
  // Same-arity re-declaration still fetches the existing relation.
  EXPECT_EQ(db.AddRelation("R", 2), r);
}

TEST(DatabaseTest, CheckFdsReportsViolation) {
  Database db;
  Relation* r = db.AddRelation("R", 2);
  r->Insert({1, 1});
  r->Insert({1, 2});
  auto q = ParseQuery("Q(X,Y) :- R(X,Y). fd R: 1 -> 2.");
  ASSERT_TRUE(q.ok());
  Status status = db.CheckFds(*q);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ValuePoolTest, InternStable) {
  ValuePool pool;
  Value a = pool.Intern("alpha");
  Value b = pool.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Intern("alpha"), a);
  EXPECT_EQ(pool.Spelling(a), "alpha");
  EXPECT_EQ(pool.Spelling(999), "?999");
}

TEST(ValuePoolTest, MatchesAMapReferenceOnAdversarialSpellings) {
  // Differential test of the open-addressing pool against the ordered map
  // it replaced: the same Intern sequence must mint the same ids (dense,
  // first-seen order) and every id must spell back byte-exact.
  std::vector<std::string> spellings = {
      "",
      std::string("\0", 1),
      std::string("\0\0", 2),
      std::string("a\0", 2),
      std::string("a\0b", 3),
      std::string("\0a", 2),
      "a",
      "ab",
      "abc",
      "abcdefg",
      "abcdefgh",   // exactly one 8-byte word
      "abcdefghi",  // one word and a tail byte
      "?0",         // looks like the fallback spelling of id 0
      "%",
      " ",
  };
  for (int c = 0; c < 256; ++c) {
    spellings.push_back(std::string(1, static_cast<char>(c)));
  }
  spellings.push_back(std::string(4096, 'x'));
  spellings.push_back(std::string(4095, 'x') + "y");
  spellings.push_back(std::string(4096, '\0'));
  // Decimal runs that share long prefixes and differ only in their tail.
  for (int i = 0; i < 2000; ++i) {
    spellings.push_back("12345678901234567890" + std::to_string(i));
  }
  // ~10^5 decimal spellings: the pool grows through a dozen doublings.
  for (int i = 0; i < 100000; ++i) spellings.push_back(std::to_string(i));

  // Intern every spelling twice, in a seeded order, so repeats are
  // interleaved with first sightings across every growth.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < spellings.size(); ++i) {
    order.push_back(i);
    order.push_back(i);
  }
  Rng rng(15);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }

  ValuePool pool;
  std::map<std::string, Value> reference;
  std::vector<std::string> reference_spellings;
  for (std::size_t step = 0; step < order.size(); ++step) {
    const std::string& s = spellings[order[step]];
    auto [it, inserted] =
        reference.emplace(s, static_cast<Value>(reference_spellings.size()));
    if (inserted) reference_spellings.push_back(s);
    Value got;
    // Every accepted argument type takes the same path.
    switch (step % 3) {
      case 0:
        got = pool.Intern(s);
        break;
      case 1:
        got = pool.Intern(std::string_view(s));
        break;
      default:
        got = s.find('\0') == std::string::npos ? pool.Intern(s.c_str())
                                                 : pool.Intern(s);
        break;
    }
    ASSERT_EQ(got, it->second) << "step " << step;
    ASSERT_EQ(pool.size(), reference_spellings.size()) << "step " << step;
  }
  // Every sighting is a repeat now; sizes do not move.
  EXPECT_EQ(pool.Intern("abc"), reference.at("abc"));
  EXPECT_EQ(pool.Intern(std::string_view("12345678901234567890" "7")),
            reference.at("123456789012345678907"));
  EXPECT_EQ(pool.size(), reference_spellings.size());

  for (std::size_t id = 0; id < reference_spellings.size(); ++id) {
    const Value v = static_cast<Value>(id);
    ASSERT_EQ(pool.Spelling(v), reference_spellings[id]) << id;
    ASSERT_EQ(pool.SpellingView(v), reference_spellings[id]) << id;
  }
  const Value size = static_cast<Value>(pool.size());
  EXPECT_EQ(pool.Spelling(-1), "?-1");
  EXPECT_EQ(pool.Spelling(size), "?" + std::to_string(size));
  EXPECT_EQ(pool.Spelling(size + 1000), "?" + std::to_string(size + 1000));
}

Database CartesianExample() {
  // Example 2.1: R(A,B) = {(1,1), (1,2), ..., (1,n)} with n = 4.
  Database db;
  Relation* r = db.AddRelation("R", 2);
  for (int i = 1; i <= 4; ++i) r->Insert({1, i});
  return db;
}

TEST(EvaluateTest, Example21SelfJoin) {
  // R'(X,Y,Z) <- R(X,Y), R(X,Z): n^2 output tuples.
  Database db = CartesianExample();
  auto q = ParseQuery("Rp(X,Y,Z) :- R(X,Y), R(X,Z).");
  ASSERT_TRUE(q.ok());
  auto result = EvaluateQuery(*q, db, PlanKind::kNaive);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 16u);
}

TEST(EvaluateTest, ProjectionSemantics) {
  Database db = CartesianExample();
  auto q = ParseQuery("P(X) :- R(X,Y), R(X,Z).");
  ASSERT_TRUE(q.ok());
  auto result = EvaluateQuery(*q, db, PlanKind::kNaive);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);  // only X = 1
}

TEST(EvaluateTest, RepeatedVariableInAtom) {
  Database db;
  Relation* r = db.AddRelation("R", 2);
  r->Insert({1, 1});
  r->Insert({1, 2});
  r->Insert({3, 3});
  auto q = ParseQuery("Q(X) :- R(X,X).");
  ASSERT_TRUE(q.ok());
  auto result = EvaluateQuery(*q, db, PlanKind::kNaive);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);  // (1) and (3)
}

TEST(EvaluateTest, RepeatedHeadVariable) {
  Database db;
  db.AddRelation("R", 1)->Insert({7});
  auto q = ParseQuery("Q(X,X) :- R(X).");
  ASSERT_TRUE(q.ok());
  auto result = EvaluateQuery(*q, db, PlanKind::kNaive);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->Contains({7, 7}));
}

TEST(EvaluateTest, MissingRelation) {
  Database db;
  auto q = ParseQuery("Q(X) :- R(X).");
  ASSERT_TRUE(q.ok());
  auto result = EvaluateQuery(*q, db, PlanKind::kNaive);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(EvaluateTest, ArityMismatch) {
  Database db;
  db.AddRelation("R", 3)->Insert({1, 2, 3});
  auto q = ParseQuery("Q(X) :- R(X,Y).");
  ASSERT_TRUE(q.ok());
  auto result = EvaluateQuery(*q, db, PlanKind::kNaive);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EvaluateTest, EmptyRelationYieldsEmptyResult) {
  Database db;
  db.AddRelation("R", 2);
  auto q = ParseQuery("Q(X,Y) :- R(X,Y).");
  ASSERT_TRUE(q.ok());
  auto result = EvaluateQuery(*q, db, PlanKind::kNaive);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 0u);
}

TEST(EvaluateTest, JoinProjectReducesIntermediates) {
  // Four-atom path projecting onto the endpoints: once X is no longer
  // needed the join-project plan collapses the fan-out that the naive plan
  // carries to the end (10 vs 100 peak bindings here).
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  Relation* t = db.AddRelation("T", 2);
  Relation* u = db.AddRelation("U", 2);
  for (int i = 0; i < 10; ++i) {
    r->Insert({0, i});  // A -> X fan-out
    s->Insert({i, 0});  // X -> B fan-in
    t->Insert({0, i});  // B -> Y fan-out
    u->Insert({i, 0});  // Y -> C fan-in
  }
  auto q = ParseQuery("Q(A,C) :- R(A,X), S(X,B), T(B,Y), U(Y,C).");
  ASSERT_TRUE(q.ok());
  EvalStats naive_stats, jp_stats;
  auto naive = EvaluateQuery(*q, db, PlanKind::kNaive, &naive_stats);
  auto jp = EvaluateQuery(*q, db, PlanKind::kJoinProject, &jp_stats);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(jp.ok());
  EXPECT_EQ(naive->size(), 1u);
  EXPECT_EQ(jp->size(), 1u);
  EXPECT_EQ(naive_stats.max_intermediate, 100u);
  EXPECT_EQ(jp_stats.max_intermediate, 10u);
}

TEST(EquiJoinTest, KeepsAllColumns) {
  Relation r("R", 2), s("S", 2);
  r.Insert({1, 10});
  r.Insert({2, 20});
  s.Insert({10, 100});
  Relation j = EquiJoin(r, s, {{1, 0}});
  ASSERT_EQ(j.size(), 1u);
  EXPECT_EQ(j.arity(), 4);
  EXPECT_TRUE(j.Contains({1, 10, 10, 100}));
}

TEST(EquiJoinTest, MultiConditionJoin) {
  Relation r("R", 2), s("S", 2);
  r.Insert({1, 2});
  r.Insert({1, 3});
  s.Insert({1, 2});
  s.Insert({1, 3});
  Relation j = EquiJoin(r, s, {{0, 0}, {1, 1}});
  EXPECT_EQ(j.size(), 2u);  // exact matches only
}

TEST(EquiJoinTest, NoPairsIsTheCrossProductInRowOrder) {
  Relation r("R", 1), s("S", 2);
  for (Value v : {3, 1, 2}) r.Insert({v});
  for (Value v : {9, 7}) s.Insert({v, v + 1});
  const Relation j = EquiJoin(r, s, {});
  const std::vector<Tuple> want = {{3, 9, 10}, {3, 7, 8}, {1, 9, 10},
                                   {1, 7, 8},  {2, 9, 10}, {2, 7, 8}};
  EXPECT_EQ(j.tuples(), want);
}

TEST(BinaryJoinTest, RepeatedVariableAtomFiltersAndJoinsInRowOrder) {
  // S(Y,Y) binds Y first, so only S's diagonal rows enter its index; R is
  // then indexed on Y, and each key's rows come out in ascending row order.
  Database db;
  Relation* r = db.AddRelation("R", 2);
  Relation* s = db.AddRelation("S", 2);
  for (Value x = 0; x < 6; ++x) r->Insert({x, x % 3});
  for (Value y : {2, 0, 1}) {
    s->Insert({y, y});
    s->Insert({y, y + 1});
  }
  const auto q = ParseQuery("Q(X,Y) :- S(Y,Y), R(X,Y).");
  ASSERT_TRUE(q.ok());
  const std::vector<Tuple> want = {{2, 2}, {5, 2}, {0, 0},
                                   {3, 0}, {1, 1}, {4, 1}};
  for (PlanKind kind : {PlanKind::kNaive, PlanKind::kJoinProject}) {
    EvalStats stats;
    const auto got = EvaluateQuery(*q, db, kind, &stats);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->tuples(), want) << PlanKindName(kind);
    EXPECT_EQ(stats.indexed_tuples, 3u + 6u) << PlanKindName(kind);
  }
  const auto gj = EvaluateQuery(*q, db, PlanKind::kGenericJoin);
  ASSERT_TRUE(gj.ok());
  EXPECT_EQ(gj->size(), want.size());
}

TEST(ValuePoolTest, TruncateThenReinternMintsTheSameIdsAgain) {
  ValuePool pool;
  for (int i = 0; i < 5000; ++i) pool.Intern(std::to_string(i));
  pool.Truncate(1000);
  ASSERT_EQ(pool.size(), 1000u);
  // Kept spellings keep their ids; forgotten ones are minted afresh, in
  // first-seen order, across the slot table's rebuilds.
  for (int i = 999; i >= 0; --i) {
    ASSERT_EQ(pool.Intern(std::to_string(i)), i);
  }
  for (int i = 4999; i >= 1000; --i) {
    ASSERT_EQ(pool.Intern(std::to_string(i)), 1000 + (4999 - i));
  }
  pool.Truncate(0);
  EXPECT_EQ(pool.Intern("7"), 0);
  EXPECT_EQ(pool.Intern("x"), 1);
  EXPECT_EQ(pool.Spelling(1), "x");
}

TEST(GeneratorTest, RandomDatabaseSatisfiesFds) {
  auto q = ParseQuery(
      "Q(X,Y,Z) :- R(X,Y,Z), S(X,Y).\n"
      "key R: 1. fd S: 1 -> 2.");
  ASSERT_TRUE(q.ok());
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomDatabaseOptions opts;
    opts.seed = seed;
    opts.tuples_per_relation = 50;
    opts.domain_size = 6;
    Database db = RandomDatabase(*q, opts);
    EXPECT_TRUE(db.CheckFds(*q).ok()) << "seed " << seed;
    EXPECT_GT(db.RMax(*q).ValueOrDie(), 0u);
  }
}

// Plan equivalence: both plans compute the same relation on random inputs.
class PlanEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(PlanEquivalenceTest, NaiveEqualsJoinProject) {
  const char* queries[] = {
      "Q(X,Z) :- R(X,Y), S(Y,Z).",
      "Q(X) :- R(X,Y), S(Y,Z), T(Z,W).",
      "Q(X,Y,Z) :- R(X,Y), R(Y,Z), R(Z,X).",
      "Q(A,D) :- R(A,B), S(B,C), T(C,D), R(D,A).",
  };
  for (const char* text : queries) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok());
    RandomDatabaseOptions opts;
    opts.seed = static_cast<std::uint64_t>(GetParam()) * 31 + 1;
    opts.tuples_per_relation = 40;
    opts.domain_size = 6;
    Database db = RandomDatabase(*q, opts);
    auto naive = EvaluateQuery(*q, db, PlanKind::kNaive);
    auto jp = EvaluateQuery(*q, db, PlanKind::kJoinProject);
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(jp.ok());
    ASSERT_EQ(naive->size(), jp->size()) << text;
    for (const Tuple& t : naive->tuples()) EXPECT_TRUE(jp->Contains(t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanEquivalenceTest, ::testing::Range(1, 12));

}  // namespace
}  // namespace cqbounds
