// Field-by-field EvalStats equality for tests that pin two evaluations to
// identical accounting (context-free vs fresh context, pooled fallback vs
// serial). Every counter is listed, so a new EvalStats field must be added
// here to be compared.

#ifndef CQBOUNDS_TESTS_EVAL_STATS_TESTING_H_
#define CQBOUNDS_TESTS_EVAL_STATS_TESTING_H_

#include <gtest/gtest.h>

#include <string>

#include "relation/evaluate.h"

namespace cqbounds {
namespace testutil {

inline void ExpectSameStats(const EvalStats& a, const EvalStats& b,
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
  EXPECT_EQ(a.semijoin_rows_visited, b.semijoin_rows_visited) << context;
  EXPECT_EQ(a.projection_subtrees_skipped, b.projection_subtrees_skipped)
      << context;
  EXPECT_EQ(a.parallel_workers, b.parallel_workers) << context;
}

}  // namespace testutil
}  // namespace cqbounds

#endif  // CQBOUNDS_TESTS_EVAL_STATS_TESTING_H_
