#include <gtest/gtest.h>

#include <string>

#include "core/size_bounds.h"
#include "cq/chase.h"
#include "cq/random_query.h"
#include "relation/evaluate.h"
#include "relation/generator.h"

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

void ExpectSameStats(const EvalStats& a, const EvalStats& b,
                     const std::string& context) {
  EXPECT_EQ(a.max_intermediate, b.max_intermediate) << context;
  EXPECT_EQ(a.total_intermediate, b.total_intermediate) << context;
  EXPECT_EQ(a.output_size, b.output_size) << context;
  EXPECT_EQ(a.intermediate_sizes, b.intermediate_sizes) << context;
  EXPECT_EQ(a.indexed_tuples, b.indexed_tuples) << context;
  EXPECT_EQ(a.intersection_seeks, b.intersection_seeks) << context;
  EXPECT_EQ(a.trie_cache_hits, b.trie_cache_hits) << context;
  EXPECT_EQ(a.trie_cache_misses, b.trie_cache_misses) << context;
  EXPECT_EQ(a.plan_cache_hits, b.plan_cache_hits) << context;
  EXPECT_EQ(a.plan_cache_misses, b.plan_cache_misses) << context;
  EXPECT_EQ(a.treewidth_probe_runs, b.treewidth_probe_runs) << context;
  EXPECT_EQ(a.semijoin_dropped_tuples, b.semijoin_dropped_tuples) << context;
  EXPECT_EQ(a.semijoin_pass_ran, b.semijoin_pass_ran) << context;
  EXPECT_EQ(a.semijoin_pass_skipped, b.semijoin_pass_skipped) << context;
  EXPECT_EQ(a.trie_patches, b.trie_patches) << context;
  EXPECT_EQ(a.trie_unpatches, b.trie_unpatches) << context;
  EXPECT_EQ(a.trie_rebuilds, b.trie_rebuilds) << context;
  EXPECT_EQ(a.survivor_view_hits, b.survivor_view_hits) << context;
  EXPECT_EQ(a.delta_tuples_processed, b.delta_tuples_processed) << context;
  EXPECT_EQ(a.semijoin_delta_pass, b.semijoin_delta_pass) << context;
  EXPECT_EQ(a.semijoin_revived_tuples, b.semijoin_revived_tuples) << context;
  EXPECT_EQ(a.semijoin_killed_tuples, b.semijoin_killed_tuples) << context;
  EXPECT_EQ(a.semijoin_dangling_tuples, b.semijoin_dangling_tuples)
      << context;
  EXPECT_EQ(a.projection_subtrees_skipped, b.projection_subtrees_skipped)
      << context;
  EXPECT_EQ(a.parallel_workers, b.parallel_workers) << context;
}

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
      ExpectSameStats(free_stats, fresh_stats, context);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContextFreeTest, ::testing::Range(1, 15));

}  // namespace
}  // namespace cqbounds
