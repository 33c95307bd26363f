#include <gtest/gtest.h>

#include "graph/treewidth.h"
#include "graph/treewidth_bb.h"
#include "util/rng.h"

namespace cqbounds {
namespace {

TEST(TreewidthBbTest, KnownFamilies) {
  EXPECT_EQ(TreewidthExact(Graph::Complete(6)).width, 5);
  EXPECT_EQ(TreewidthExact(Graph::Cycle(7)).width, 2);
  EXPECT_EQ(TreewidthExact(Graph::Grid(3, 4)).width, 3);
  EXPECT_EQ(TreewidthExact(Graph(5)).width, 0);   // no edges
  EXPECT_EQ(TreewidthExact(Graph(0)).width, -1);  // empty graph
}

TEST(TreewidthBbTest, SimplicialRuleHandlesTrees) {
  // A random tree is fully simplicial-reducible: answer 1 instantly.
  Rng rng(3);
  Graph tree(16);
  for (int v = 1; v < 16; ++v) {
    tree.AddEdge(v, static_cast<int>(rng.NextBelow(v)));
  }
  EXPECT_EQ(TreewidthExact(tree).width, 1);
}

// The two independent exact algorithms must agree on random graphs.
class ExactCrossValidationTest : public ::testing::TestWithParam<int> {};

TEST_P(ExactCrossValidationTest, DpEqualsBranchAndBound) {
  Rng rng(GetParam() * 97 + 11);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 5 + static_cast<int>(rng.NextBelow(7));
    Graph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.NextBool(1 + rng.NextBelow(3), 5)) g.AddEdge(u, v);
      }
    }
    int dp = TreewidthExactDp(g, nullptr);
    int bb = TreewidthExact(g).width;
    ASSERT_EQ(dp, bb) << "n=" << n << " edges=" << g.num_edges();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactCrossValidationTest,
                         ::testing::Range(1, 15));

}  // namespace
}  // namespace cqbounds
