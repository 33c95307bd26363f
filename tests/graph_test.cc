#include <gtest/gtest.h>

#include "graph/gaifman.h"
#include "graph/graph.h"
#include "graph/tree_decomposition.h"
#include "graph/treewidth.h"
#include "relation/database.h"
#include "util/rng.h"

namespace cqbounds {
namespace {

TEST(GraphTest, Basics) {
  Graph g(3);
  EXPECT_TRUE(g.AddEdge(0, 1));
  EXPECT_FALSE(g.AddEdge(1, 0));  // parallel edge collapsed
  EXPECT_FALSE(g.AddEdge(2, 2));  // self-loop ignored
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.Degree(0), 1);
  g.AddEdge(0, 5);  // grows the vertex set
  EXPECT_EQ(g.num_vertices(), 6);
}

TEST(GraphTest, InducedSubgraph) {
  Graph g = Graph::Complete(4);
  Graph sub = g.InducedSubgraph({0, 2, 3});
  EXPECT_EQ(sub.num_vertices(), 3);
  EXPECT_EQ(sub.num_edges(), 3u);  // K3
}

TEST(TreewidthTest, KnownGraphFamilies) {
  // Fact 5.1 and standard values: tw(K_n) = n-1, tw(C_n) = 2,
  // tw(grid n x m) = min(n, m), tw(tree) = 1, tw(empty) = 0.
  EXPECT_EQ(TreewidthExactDp(Graph::Complete(5), nullptr), 4);
  EXPECT_EQ(TreewidthExactDp(Graph::Cycle(6), nullptr), 2);
  EXPECT_EQ(TreewidthExactDp(Graph::Grid(3, 4), nullptr), 3);
  EXPECT_EQ(TreewidthExactDp(Graph::Grid(2, 7), nullptr), 2);
  Graph path(5);
  for (int i = 0; i + 1 < 5; ++i) path.AddEdge(i, i + 1);
  EXPECT_EQ(TreewidthExactDp(path, nullptr), 1);
  Graph isolated(4);
  EXPECT_EQ(TreewidthExactDp(isolated, nullptr), 0);
}

TEST(TreewidthTest, ExactOrderingProducesMatchingDecomposition) {
  Graph g = Graph::Grid(3, 3);
  std::vector<int> order;
  int tw = TreewidthExactDp(g, &order);
  EXPECT_EQ(tw, 3);
  TreeDecomposition td = DecompositionFromOrdering(g, order);
  EXPECT_EQ(td.Width(), 3);
  EXPECT_TRUE(td.Validate(g).ok());
}

TEST(TreeDecompositionTest, ValidateCatchesBadDecompositions) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  TreeDecomposition td;
  td.bags = {{0, 1}, {1, 2}};
  td.tree_edges = {{0, 1}};
  EXPECT_TRUE(td.Validate(g).ok());

  // Missing edge coverage.
  TreeDecomposition bad_edge;
  bad_edge.bags = {{0, 1}, {2}};
  bad_edge.tree_edges = {{0, 1}};
  EXPECT_FALSE(bad_edge.Validate(g).ok());

  // Missing vertex.
  TreeDecomposition bad_vertex;
  bad_vertex.bags = {{0, 1}};
  bad_vertex.tree_edges = {};
  EXPECT_FALSE(bad_vertex.Validate(g).ok());

  // Disconnected occurrence of vertex 0.
  TreeDecomposition bad_connectivity;
  bad_connectivity.bags = {{0, 1}, {1, 2}, {0, 2}};
  bad_connectivity.tree_edges = {{0, 1}, {1, 2}};
  EXPECT_FALSE(bad_connectivity.Validate(g).ok());

  // Not a tree (cycle among bags).
  TreeDecomposition bad_tree;
  bad_tree.bags = {{0, 1}, {1, 2}, {0, 1, 2}};
  bad_tree.tree_edges = {{0, 1}, {1, 2}, {2, 0}};
  EXPECT_FALSE(bad_tree.Validate(g).ok());
}

TEST(TreeDecompositionTest, TreePath) {
  TreeDecomposition td;
  td.bags = {{0}, {1}, {2}, {3}};
  td.tree_edges = {{0, 1}, {1, 2}, {1, 3}};
  EXPECT_EQ(td.TreePath(0, 3), (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(td.TreePath(2, 2), (std::vector<int>{2}));
}

TEST(TreewidthTest, HeuristicsAreUpperBoundsAndMmdIsLower) {
  Rng rng(5);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 6 + static_cast<int>(rng.NextBelow(6));
    Graph g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.NextBool(1, 3)) g.AddEdge(u, v);
      }
    }
    int exact = TreewidthExactDp(g, nullptr);
    TreeDecomposition td_deg = DecompositionFromOrdering(g, MinDegreeOrdering(g));
    TreeDecomposition td_fill = DecompositionFromOrdering(g, MinFillOrdering(g));
    ASSERT_TRUE(td_deg.Validate(g).ok());
    ASSERT_TRUE(td_fill.Validate(g).ok());
    EXPECT_GE(td_deg.Width(), exact);
    EXPECT_GE(td_fill.Width(), exact);
    EXPECT_LE(TreewidthLowerBoundMmd(g), exact);
  }
}

TEST(TreewidthTest, EstimateSandwich) {
  // Small graph: exact.
  TreewidthEstimate small = EstimateTreewidth(Graph::Grid(3, 3));
  EXPECT_TRUE(small.exact);
  EXPECT_EQ(small.lower, 3);
  EXPECT_EQ(small.upper, 3);
  EXPECT_TRUE(small.decomposition.Validate(Graph::Grid(3, 3)).ok());
  // Large graph: sandwich with validated decomposition.
  Graph big = Graph::Grid(6, 6);  // 36 vertices > exact limit
  TreewidthEstimate est = EstimateTreewidth(big);
  EXPECT_LE(est.lower, 6);
  EXPECT_GE(est.upper, 6);  // true tw is 6
  EXPECT_TRUE(est.decomposition.Validate(big).ok());
  EXPECT_EQ(est.decomposition.Width(), est.upper);
}

TEST(TreewidthTest, DisconnectedGraph) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  g.AddEdge(4, 5);
  EXPECT_EQ(TreewidthExactDp(g, nullptr), 1);
  TreeDecomposition td = DecompositionFromOrdering(g, MinDegreeOrdering(g));
  EXPECT_TRUE(td.Validate(g).ok());  // roots chained into one tree
  EXPECT_EQ(td.Width(), 1);
}

TEST(GaifmanTest, Example21BlowupToClique) {
  // R = {(1, i)}: Gaifman graph of R is a star (treewidth 1); the Gaifman
  // graph of R'(X,Y,Z) <- R(X,Y), R(X,Z) is K_n on the co-occurring values.
  Database db;
  Relation* r = db.AddRelation("R", 2);
  const int n = 6;
  for (int i = 1; i <= n; ++i) r->Insert({100, i});
  GaifmanGraph star = BuildGaifmanGraph(db);
  EXPECT_EQ(star.graph.num_vertices(), n + 1);
  EXPECT_EQ(TreewidthExactDp(star.graph, nullptr), 1);

  Relation joined("Rp", 3);
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= n; ++j) joined.Insert({100, i, j});
  }
  GaifmanGraph clique = BuildGaifmanGraph({&joined});
  EXPECT_EQ(TreewidthExactDp(clique.graph, nullptr), n);  // K_{n+1}
}

TEST(GaifmanTest, ValueVertexMappingRoundTrip) {
  Relation r("R", 2);
  r.Insert({42, 99});
  GaifmanGraph g = BuildGaifmanGraph({&r});
  ASSERT_EQ(g.vertex_values.size(), 2u);
  for (std::size_t v = 0; v < g.vertex_values.size(); ++v) {
    EXPECT_EQ(g.value_to_vertex.at(g.vertex_values[v]), static_cast<int>(v));
  }
  EXPECT_TRUE(g.graph.HasEdge(0, 1));
}

TEST(GaifmanTest, RepeatedValueInTupleNoSelfLoop) {
  Relation r("R", 2);
  r.Insert({5, 5});
  GaifmanGraph g = BuildGaifmanGraph({&r});
  EXPECT_EQ(g.graph.num_vertices(), 1);
  EXPECT_EQ(g.graph.num_edges(), 0u);
}

}  // namespace
}  // namespace cqbounds
