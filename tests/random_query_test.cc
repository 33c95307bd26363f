#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/size_bounds.h"
#include "cq/chase.h"
#include "cq/random_query.h"
#include "eval_stats_testing.h"
#include "relation/evaluate.h"
#include "relation/generator.h"
#include "util/thread_pool.h"

namespace cqbounds {
namespace {

TEST(RandomQueryTest, AlwaysValid) {
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    RandomQueryOptions options;
    options.num_variables = 1 + static_cast<int>(rng.NextBelow(6));
    options.num_atoms = 1 + static_cast<int>(rng.NextBelow(5));
    options.key_percent = 40;
    options.compound_fd_percent = 20;
    options.random_projection = rng.NextBool(1, 2);
    Query q = RandomQuery(options, &rng);
    EXPECT_TRUE(q.Validate().ok()) << q.ToString();
  }
}

TEST(RandomQueryTest, Deterministic) {
  RandomQueryOptions options;
  options.key_percent = 50;
  Rng a(42), b(42);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(RandomQuery(options, &a).ToString(),
              RandomQuery(options, &b).ToString());
  }
}

TEST(RandomQueryTest, KeyPercentControlsFds) {
  Rng rng(9);
  RandomQueryOptions no_keys;
  no_keys.key_percent = 0;
  Query q1 = RandomQuery(no_keys, &rng);
  EXPECT_TRUE(q1.fds().empty());

  RandomQueryOptions all_keys;
  all_keys.min_arity = 2;
  all_keys.key_percent = 100;
  Query q2 = RandomQuery(all_keys, &rng);
  EXPECT_FALSE(q2.fds().empty());
  EXPECT_TRUE(q2.AllFdsSimple());
}

// The grand property sweep: for random queries with random simple keys,
// chase + bound + random database + evaluation all cohere (Theorem 4.4 and
// Fact 2.4 at population scale).
class GrandPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GrandPropertyTest, BoundsAndChaseHoldOnRandomInstances) {
  Rng rng(GetParam() * 1009 + 13);
  for (int trial = 0; trial < 12; ++trial) {
    RandomQueryOptions options;
    options.num_variables = 2 + static_cast<int>(rng.NextBelow(4));
    options.num_atoms = 1 + static_cast<int>(rng.NextBelow(3));
    options.key_percent = 50;
    options.random_projection = true;
    Query q = RandomQuery(options, &rng);

    auto bound = ComputeSizeBound(q);
    ASSERT_TRUE(bound.ok()) << q.ToString();
    ASSERT_TRUE(bound->is_upper_bound);  // simple keys only

    RandomDatabaseOptions db_opts;
    db_opts.seed = rng.Next();
    db_opts.tuples_per_relation = 20;
    db_opts.domain_size = 4;
    Database db = RandomDatabase(q, db_opts);
    ASSERT_TRUE(db.CheckFds(q).ok());

    auto result = EvaluateQuery(q, db, PlanKind::kJoinProject);
    ASSERT_TRUE(result.ok());
    BigInt actual(static_cast<std::int64_t>(result->size()));
    BigInt rmax(static_cast<std::int64_t>(db.RMax(q).ValueOrDie()));
    EXPECT_TRUE(SatisfiesSizeBound(actual, rmax, bound->exponent))
        << q.ToString() << " |Q(D)|=" << actual << " rmax=" << rmax
        << " C=" << bound->exponent;

    // Fact 2.4 on the same instance.
    Query chased = Chase(q);
    auto chased_result = EvaluateQuery(chased, db, PlanKind::kJoinProject);
    ASSERT_TRUE(chased_result.ok());
    EXPECT_EQ(result->size(), chased_result->size()) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrandPropertyTest, ::testing::Range(1, 15));

// Over the grand sweep's population, a context-free evaluation is exactly a
// fresh-context evaluation: same rows in the same order and every counter
// equal -- including trie_rebuilds (each cold build is a rebuild) and the
// trie hits of atoms sharing a (relation, layout) pair within the call.
class ContextFreeTest : public ::testing::TestWithParam<int> {};

TEST_P(ContextFreeTest, EqualsAFreshContextOnRandomInstances) {
  Rng rng(GetParam() * 1009 + 13);
  for (int trial = 0; trial < 12; ++trial) {
    RandomQueryOptions options;
    options.num_variables = 2 + static_cast<int>(rng.NextBelow(4));
    options.num_atoms = 1 + static_cast<int>(rng.NextBelow(3));
    options.key_percent = 50;
    options.random_projection = true;
    Query q = RandomQuery(options, &rng);
    RandomDatabaseOptions db_opts;
    db_opts.seed = rng.Next();
    db_opts.tuples_per_relation = 20;
    db_opts.domain_size = 4;
    Database db = RandomDatabase(q, db_opts);

    for (PlanKind kind : {PlanKind::kNaive, PlanKind::kJoinProject,
                          PlanKind::kGenericJoin,
                          PlanKind::kHybridYannakakis}) {
      const std::string context =
          q.ToString() + " plan " + PlanKindName(kind);
      EvalStats free_stats;
      auto free_run = EvaluateQuery(q, db, kind, &free_stats);
      EvalContext fresh(db);
      EvalStats fresh_stats;
      auto fresh_run = EvaluateQuery(q, db, kind, &fresh, &fresh_stats);
      ASSERT_TRUE(free_run.ok()) << context;
      ASSERT_TRUE(fresh_run.ok()) << context;
      EXPECT_EQ(free_run->tuples(), fresh_run->tuples()) << context;
      testutil::ExpectSameStats(free_stats, fresh_stats, context);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContextFreeTest, ::testing::Range(1, 15));

// Over the same population (projecting heads included), a pooled
// evaluation equals the serial one row for row, in order: the parallel
// merge ingests each depth-0 match's rows in match order, the order the
// serial search visits them, so first-occurrence dedup keeps the same
// rows whichever worker claimed which match. Per-depth binding counts
// agree too (seeks do not: workers re-locate each claimed match).
class PooledRowOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(PooledRowOrderTest, PooledEqualsSerialRowForRow) {
  Rng rng(GetParam() * 1009 + 13);
  ThreadPool pool(3);
  std::size_t fanned_out = 0;
  for (int trial = 0; trial < 12; ++trial) {
    RandomQueryOptions options;
    options.num_variables = 2 + static_cast<int>(rng.NextBelow(4));
    options.num_atoms = 1 + static_cast<int>(rng.NextBelow(3));
    options.key_percent = 50;
    options.random_projection = true;
    Query q = RandomQuery(options, &rng);
    RandomDatabaseOptions db_opts;
    db_opts.seed = rng.Next();
    db_opts.tuples_per_relation = 20;
    db_opts.domain_size = 4;
    Database db = RandomDatabase(q, db_opts);

    for (PlanKind kind :
         {PlanKind::kGenericJoin, PlanKind::kHybridYannakakis}) {
      const std::string context =
          q.ToString() + " plan " + PlanKindName(kind);
      EvalContext serial_ctx(db);
      EvalStats serial_stats;
      auto serial = EvaluateQuery(q, db, kind, &serial_ctx, nullptr,
                                  &serial_stats);
      EvalContext pooled_ctx(db);
      EvalStats pooled_stats;
      auto pooled = EvaluateQuery(q, db, kind, &pooled_ctx, &pool,
                                  &pooled_stats);
      ASSERT_TRUE(serial.ok()) << context;
      ASSERT_TRUE(pooled.ok()) << context;
      const std::vector<Tuple> serial_rows = serial->tuples();
      EXPECT_EQ(pooled->tuples(), serial_rows) << context;
      EXPECT_EQ(pooled_stats.intermediate_sizes,
                serial_stats.intermediate_sizes)
          << context;
      if (pooled_stats.parallel_workers > 0) ++fanned_out;
    }
  }
  // The property is vacuous unless the pool actually engaged.
  EXPECT_GT(fanned_out, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PooledRowOrderTest, ::testing::Range(1, 15));

}  // namespace
}  // namespace cqbounds
