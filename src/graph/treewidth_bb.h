#ifndef CQBOUNDS_GRAPH_TREEWIDTH_BB_H_
#define CQBOUNDS_GRAPH_TREEWIDTH_BB_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/tree_decomposition.h"

namespace cqbounds {

/// Search statistics of one TreewidthExact call, for perf tracking and for
/// understanding why an instance was easy or hard. docs/TREEWIDTH.md
/// explains how to read them. All counters are totals across connected
/// components.
struct ExactTreewidthStats {
  /// Connected components solved independently (component split rule).
  std::int64_t components = 0;
  /// Branch nodes expanded (calls into the recursive search, after
  /// reductions; excludes nodes closed by the reduction rules alone).
  std::int64_t branch_nodes = 0;
  /// Vertices eliminated by the degree-<=1 fast path.
  std::int64_t degree_le_one_eliminations = 0;
  /// Vertices eliminated by the simplicial rule (neighbourhood a clique).
  std::int64_t simplicial_eliminations = 0;
  /// Vertices eliminated by the almost-simplicial rule (neighbourhood a
  /// clique minus one vertex, degree <= current lower bound).
  std::int64_t almost_simplicial_eliminations = 0;
  /// Nodes pruned because the alive-set memo held a dominating visit
  /// (same subgraph reached with a prefix of smaller-or-equal width).
  std::int64_t memo_hits = 0;
  /// Distinct alive sets ever inserted into the memo table.
  std::int64_t memo_entries = 0;
  /// Nodes pruned by max(prefix width, MMD+ lower bound) >= best.
  std::int64_t lower_bound_prunes = 0;
  /// Nodes closed by the clique trick: every completion of a subgraph on k
  /// alive vertices has width <= k-1, so max(prefix, k-1) < best finishes
  /// the node immediately.
  std::int64_t clique_closures = 0;
};

/// An exact treewidth value together with its optimality witness.
///
/// `decomposition` is built from `elimination_order` and always satisfies
/// `decomposition.Width() == width` and
/// `decomposition.Validate(g).ok()` for the input graph `g` -- consumers
/// (keyed joins, Theorem 5.10 measurements, examples) use the certified
/// decomposition directly instead of recomputing one heuristically.
struct ExactTreewidthResult {
  /// tw(g); -1 for the empty graph (the width of an empty decomposition).
  int width = -1;
  /// A permutation of {0, .., n-1} whose elimination width equals `width`.
  std::vector<int> elimination_order;
  /// DecompositionFromOrdering(g, elimination_order).
  TreeDecomposition decomposition;
  ExactTreewidthStats stats;
};

/// Exact treewidth by branch-and-bound over elimination orderings
/// (QuickBB lineage, Gogate & Dechter 2004) on a word-parallel bitset
/// adjacency representation (bitset_graph.h). The engine layers, in order:
///
///  1. connected-component split: tw(G) = max over components;
///  2. reduction rules applied exhaustively before every branch --
///     degree-<=1, simplicial, and almost-simplicial (safe when
///     deg(v) <= the subproblem's lower bound);
///  3. a memo table keyed by the alive-vertex bitset, pruning revisits of
///     the same subgraph through a worse-or-equal prefix (this collapses
///     the symmetric elimination orders that dominate naive search);
///  4. an MMD+ (least-c contraction) lower bound, cached per alive set;
///  5. the clique trick: a subproblem on k vertices never exceeds width
///     k-1, so such nodes close without further branching;
///  6. an initial upper bound (and witness ordering) from the min-fill
///     heuristic run on the bitset rows.
///
/// Practical to ~40-50 vertices on the sparse Gaifman graphs the paper's
/// experiments produce (Sections 2 and 5); worst case remains exponential.
/// See docs/TREEWIDTH.md for the design and the safety theorems.
ExactTreewidthResult TreewidthExact(const Graph& g);

}  // namespace cqbounds

#endif  // CQBOUNDS_GRAPH_TREEWIDTH_BB_H_
