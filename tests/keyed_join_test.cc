#include <gtest/gtest.h>

#include "graph/gaifman.h"
#include "graph/grid_construction.h"
#include "core/treewidth_bounds.h"
#include "graph/keyed_join.h"
#include "graph/treewidth.h"
#include "relation/evaluate.h"
#include "util/rng.h"

namespace cqbounds {
namespace {

TEST(GridConstructionTest, SmallestInstanceExactTreewidth) {
  // n = 3, m = 1: lattice 4 x 3 plus 3 alphas -> 15 vertices, exact DP OK.
  GridConstruction gc = BuildGridConstruction(3, 1);
  const Relation* r = gc.db.Find("R");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->arity(), 3);                 // m + 2
  EXPECT_EQ(r->size(), 9u);                 // n^2 m tuples
  GaifmanGraph g = BuildGaifmanGraph(gc.db);
  EXPECT_EQ(g.graph.num_vertices(), 15);
  // Lemma 5.3: tw(G) = n.
  EXPECT_EQ(TreewidthExactDp(g.graph, nullptr), 3);
}

TEST(GridConstructionTest, SecondAttributeIsKey) {
  GridConstruction gc = BuildGridConstruction(4, 2);
  const Relation* r = gc.db.Find("R");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->size(), 32u);  // n^2 m = 16 * 2
  // A2 (position 1) holds the pairwise-distinct values v_{i, m(j-1)+1}.
  std::vector<int> key = {1};
  EXPECT_TRUE(r->SatisfiesFd(key, 0));
  EXPECT_EQ(r->ColumnValues(1).size(), r->size());
}

TEST(GridConstructionTest, JoinContainsLargeGrid) {
  // Lemma 5.4: the Gaifman graph of R join_{A1=A2} R contains the
  // (nm+1) x nm grid, certifying tw >= nm by Fact 5.1.
  for (auto [n, m] : std::vector<std::pair<int, int>>{{3, 1}, {4, 2}}) {
    GridConstruction gc = BuildGridConstruction(n, m);
    const Relation* r = gc.db.Find("R");
    Relation joined = EquiJoin(*r, *r, {{0, 1}});
    GaifmanGraph g = BuildGaifmanGraph({&joined});
    bool contains = ContainsGridSubgraph(
        g, n * m, n * m + 1,
        [&gc](int row, int col) {
          return gc.LatticeValue(row + 1, col + 1);
        });
    EXPECT_TRUE(contains) << "n=" << n << " m=" << m;
  }
}

TEST(KeyedJoinTest, BoundFormula) {
  // Theorem 5.5: tw <= j(omega + 1) - 1.
  EXPECT_EQ(KeyedJoinTreewidthBound(3, 2), 8);
  EXPECT_EQ(KeyedJoinTreewidthBound(1, 5), 5);
}

TEST(KeyedJoinTest, RejectsNonKeyJoin) {
  Relation r("R", 2), s("S", 2);
  r.Insert({1, 2});
  s.Insert({1, 3});
  s.Insert({1, 4});  // duplicate key value 1
  GaifmanGraph g = BuildGaifmanGraph({&r, &s});
  TreewidthEstimate est = EstimateTreewidth(g.graph);
  auto result = KeyedJoinDecomposition(r, 0, s, 0, g, est.decomposition);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(KeyedJoinTest, ConstructiveDecompositionRespectsBound) {
  // Random keyed instances: the constructed decomposition must be valid for
  // the augmented join graph and have width <= j*(omega+1) - 1.
  Rng rng(17);
  for (int trial = 0; trial < 15; ++trial) {
    const int j = 2 + static_cast<int>(rng.NextBelow(3));  // arity of S
    Relation r("R", 2);
    Relation s("S", j);
    const int keys = 5 + static_cast<int>(rng.NextBelow(5));
    for (int key = 0; key < keys; ++key) {
      Tuple t;
      t.push_back(1000 + key);  // key value in position 0
      for (int c = 1; c < j; ++c) {
        t.push_back(static_cast<Value>(rng.NextBelow(8)));
      }
      s.Insert(t);
    }
    for (int i = 0; i < 12; ++i) {
      r.Insert({static_cast<Value>(rng.NextBelow(8)),
                1000 + static_cast<Value>(rng.NextBelow(keys))});
    }
    GaifmanGraph g = BuildGaifmanGraph({&r, &s});
    TreewidthEstimate est = EstimateTreewidth(g.graph, /*exact_limit=*/18);
    ASSERT_TRUE(est.decomposition.Validate(g.graph).ok());
    const int omega = est.decomposition.Width();

    auto td = KeyedJoinDecomposition(r, 1, s, 0, g, est.decomposition);
    ASSERT_TRUE(td.ok()) << td.status();
    Graph augmented = AugmentedJoinGraph(r, 1, s, 0, g);
    EXPECT_TRUE(td->Validate(augmented).ok());
    EXPECT_LE(td->Width(), KeyedJoinTreewidthBound(j, omega));
    // The augmented graph's true treewidth is also within the bound.
    TreewidthEstimate joined = EstimateTreewidth(augmented, 18);
    EXPECT_LE(joined.upper, KeyedJoinTreewidthBound(j, omega));
  }
}

TEST(KeyedJoinTest, GridSelfJoinDecompositionWithinBound) {
  GridConstruction gc = BuildGridConstruction(3, 1);
  const Relation* r = gc.db.Find("R");
  GaifmanGraph g = BuildGaifmanGraph(gc.db);
  // The certified path: the exact engine's witness decomposition seeds the
  // Theorem 5.5 construction, so omega is the true treewidth.
  int omega = -1;
  auto td = CertifiedKeyedJoinDecomposition(*r, 0, *r, 1, g, &omega);
  ASSERT_TRUE(td.ok()) << td.status();
  EXPECT_EQ(omega, 3);  // Lemma 5.3
  Graph augmented = AugmentedJoinGraph(*r, 0, *r, 1, g);
  EXPECT_TRUE(td->Validate(augmented).ok());
  EXPECT_LE(td->Width(), KeyedJoinTreewidthBound(r->arity(), omega));
  // Lemma 5.4: the join graph's treewidth is at least nm = 3.
  EXPECT_GE(EstimateTreewidth(augmented, 15).lower, 2);
}

TEST(KeyedJoinTest, SequenceOfKeyedJoinsWithinProposition57Bound) {
  // Chain R1 join R2 join R3 with each join keyed: the measured treewidth
  // of every prefix stays within l^{i}(1 + max(tw, 2)) - 1.
  Rng rng(31);
  Relation r1("R1", 2);
  for (int i = 0; i < 10; ++i) {
    r1.Insert({static_cast<Value>(rng.NextBelow(6)), 100 + i});
  }
  // R2, R3: keyed on their first position, covering the join values.
  Relation r2("R2", 3);
  for (int i = 0; i < 10; ++i) {
    r2.Insert({100 + i, 200 + static_cast<Value>(rng.NextBelow(5)),
               300 + static_cast<Value>(rng.NextBelow(5))});
  }
  Relation r3("R3", 2);
  for (int i = 0; i < 5; ++i) r3.Insert({200 + i, 400 + i});

  GaifmanGraph base = BuildGaifmanGraph({&r1, &r2, &r3});
  int tw_in = EstimateTreewidth(base.graph, 16).upper;
  const int l = 3;  // max arity

  Relation j1 = EquiJoin(r1, r2, {{1, 0}}, "j1");
  GaifmanGraph g1 = BuildGaifmanGraph({&j1, &r3});
  EXPECT_LE(EstimateTreewidth(g1.graph, 16).upper,
            KeyedJoinSequenceBound(l, 2, tw_in));

  Relation j2 = EquiJoin(j1, r3, {{3, 0}}, "j2");
  GaifmanGraph g2 = BuildGaifmanGraph({&j2});
  EXPECT_LE(EstimateTreewidth(g2.graph, 16).upper,
            KeyedJoinSequenceBound(l, 3, tw_in));
}

}  // namespace
}  // namespace cqbounds
