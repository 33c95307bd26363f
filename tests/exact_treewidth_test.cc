// Exact-treewidth engine tests: named graphs with known widths, witness
// certification, reduction/stat accounting, and a randomized cross-check
// against the independent subset-DP oracle (treewidth.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/bitset_graph.h"
#include "graph/treewidth.h"
#include "graph/treewidth_bb.h"
#include "util/rng.h"

namespace cqbounds {
namespace {

/// Asserts the full witness contract: reported width matches the expected
/// value, the elimination order is a permutation, and the returned
/// decomposition validates against g with exactly the reported width.
void ExpectCertified(const Graph& g, int expected_width) {
  ExactTreewidthResult r = TreewidthExact(g);
  EXPECT_EQ(r.width, expected_width);
  ASSERT_EQ(static_cast<int>(r.elimination_order.size()), g.num_vertices());
  std::vector<int> sorted = r.elimination_order;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < g.num_vertices(); ++i) {
    ASSERT_EQ(sorted[i], i) << "elimination order is not a permutation";
  }
  ASSERT_TRUE(r.decomposition.Validate(g).ok());
  EXPECT_EQ(r.decomposition.Width(), r.width);
}

TEST(ExactTreewidthTest, EmptyAndEdgeless) {
  ExpectCertified(Graph(0), -1);
  ExpectCertified(Graph(1), 0);
  ExpectCertified(Graph(7), 0);
}

TEST(ExactTreewidthTest, Paths) {
  for (int n = 2; n <= 12; ++n) ExpectCertified(Graph::Path(n), 1);
}

TEST(ExactTreewidthTest, Cycles) {
  for (int n = 3; n <= 12; ++n) ExpectCertified(Graph::Cycle(n), 2);
}

TEST(ExactTreewidthTest, CompleteGraphs) {
  for (int n = 2; n <= 10; ++n) ExpectCertified(Graph::Complete(n), n - 1);
}

TEST(ExactTreewidthTest, Grids) {
  // Fact 5.1: tw of the n x m grid is min(n, m) for n + m >= 3.
  ExpectCertified(Graph::Grid(1, 6), 1);
  ExpectCertified(Graph::Grid(2, 2), 2);
  ExpectCertified(Graph::Grid(2, 7), 2);
  ExpectCertified(Graph::Grid(3, 4), 3);
  ExpectCertified(Graph::Grid(3, 7), 3);
  ExpectCertified(Graph::Grid(4, 4), 4);
  ExpectCertified(Graph::Grid(4, 5), 4);
}

TEST(ExactTreewidthTest, Petersen) {
  ExpectCertified(Graph::Petersen(), 4);
}

TEST(ExactTreewidthTest, DisconnectedComponentsTakeMax) {
  // K5 on {0..4} + C6 on {5..10} + isolated {11}: tw = max(4, 2, 0).
  Graph g(12);
  for (int u = 0; u < 5; ++u) {
    for (int v = u + 1; v < 5; ++v) g.AddEdge(u, v);
  }
  for (int i = 0; i < 6; ++i) g.AddEdge(5 + i, 5 + (i + 1) % 6);
  ExpectCertified(g, 4);
  EXPECT_EQ(TreewidthExact(g).stats.components, 3);
}

TEST(ExactTreewidthTest, TreesCloseWithoutBranching) {
  // Matching min-fill upper bound and MMD+ lower bound certify trees (and
  // cliques) before any branch node is expanded.
  Rng rng(5);
  Graph tree(20);
  for (int v = 1; v < 20; ++v) {
    tree.AddEdge(v, static_cast<int>(rng.NextBelow(v)));
  }
  ExactTreewidthResult r = TreewidthExact(tree);
  EXPECT_EQ(r.width, 1);
  EXPECT_EQ(r.stats.branch_nodes, 0);
  EXPECT_EQ(TreewidthExact(Graph::Complete(9)).stats.branch_nodes, 0);
}

TEST(ExactTreewidthTest, StatsCountSearchWorkOnHardGrids) {
  // The 5x5 grid is the smallest grid whose MMD+ lower bound falls short
  // of the min-fill upper bound, so the engine must actually search: it
  // expands branch nodes, prunes via the memo table and the lower bound,
  // and fires the almost-simplicial rule along the way.
  ExactTreewidthStats stats = TreewidthExact(Graph::Grid(5, 5)).stats;
  EXPECT_GT(stats.branch_nodes, 0);
  EXPECT_GT(stats.memo_hits, 0);
  EXPECT_GT(stats.lower_bound_prunes, 0);
  EXPECT_GT(stats.almost_simplicial_eliminations, 0);
}

TEST(ExactTreewidthTest, StatsCountReductionsOnRandomGraphs) {
  // A moderately dense random graph exercises the degree-<=1, simplicial
  // and almost-simplicial eliminations inside the search.
  Rng rng(42);
  Graph g(14);
  for (int u = 0; u < 14; ++u) {
    for (int v = u + 1; v < 14; ++v) {
      if (rng.NextBool(2, 5)) g.AddEdge(u, v);
    }
  }
  ExactTreewidthStats stats = TreewidthExact(g).stats;
  EXPECT_GT(stats.simplicial_eliminations, 0);
  EXPECT_GT(stats.almost_simplicial_eliminations, 0);
  EXPECT_GT(stats.degree_le_one_eliminations, 0);
}

/// The engine must agree with the independent Held-Karp subset DP (the
/// seed implementation kept in treewidth.h) on random graphs of all
/// densities.
class ExactOracleCrossCheckTest : public ::testing::TestWithParam<int> {};

TEST_P(ExactOracleCrossCheckTest, EngineEqualsDpOracle) {
  Rng rng(GetParam() * 131 + 7);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 4 + static_cast<int>(rng.NextBelow(9));  // 4..12
    Graph g(n);
    // Edge probability sweeps from sparse to dense across trials.
    const std::uint64_t numer = 1 + rng.NextBelow(4);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.NextBool(numer, 5)) g.AddEdge(u, v);
      }
    }
    ExactTreewidthResult r = TreewidthExact(g);
    ASSERT_EQ(r.width, TreewidthExactDp(g, nullptr))
        << "n=" << n << " edges=" << g.num_edges();
    ASSERT_TRUE(r.decomposition.Validate(g).ok());
    ASSERT_EQ(r.decomposition.Width(), r.width);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactOracleCrossCheckTest,
                         ::testing::Range(1, 11));

TEST(VertexBitsetTest, BasicAlgebra) {
  VertexBitset a(130), b(130);
  a.Set(0);
  a.Set(64);
  a.Set(129);
  b.Set(64);
  EXPECT_EQ(a.Count(), 3);
  EXPECT_TRUE(b.IsSubsetOf(a));
  EXPECT_FALSE(a.IsSubsetOf(b));
  EXPECT_EQ(a.CountAnd(b), 1);
  EXPECT_EQ(a.CountAndNot(b), 2);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_EQ(a.First(), 0);
  a.Reset(0);
  EXPECT_EQ(a.First(), 64);
  VertexBitset all(130);
  all.SetAll();
  EXPECT_EQ(all.Count(), 130);
  EXPECT_TRUE(a.IsSubsetOf(all));
  // Canonical representation: equal sets hash and compare equal however
  // they were built.
  VertexBitset c(130);
  c.Set(129);
  c.Set(64);
  EXPECT_EQ(a, c);
  EXPECT_EQ(a.Hash(), c.Hash());
  std::vector<int> members;
  a.ForEach([&](int v) { members.push_back(v); });
  EXPECT_EQ(members, (std::vector<int>{64, 129}));
}

TEST(BitsetGraphTest, MirrorsGraphAdjacency) {
  Graph g = Graph::Petersen();
  BitsetGraph bg(g);
  ASSERT_EQ(bg.num_vertices(), 10);
  for (int u = 0; u < 10; ++u) {
    EXPECT_EQ(bg.Degree(u), g.Degree(u));
    for (int v = 0; v < 10; ++v) {
      EXPECT_EQ(bg.HasEdge(u, v), g.HasEdge(u, v));
    }
  }
  bg.RemoveEdge(0, 1);
  EXPECT_FALSE(bg.HasEdge(1, 0));
  bg.AddEdge(0, 1);
  EXPECT_TRUE(bg.HasEdge(1, 0));
}

}  // namespace
}  // namespace cqbounds
