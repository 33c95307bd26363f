#ifndef CQBOUNDS_GRAPH_TREEWIDTH_H_
#define CQBOUNDS_GRAPH_TREEWIDTH_H_

#include "graph/graph.h"
#include "graph/tree_decomposition.h"

namespace cqbounds {

/// Elimination ordering produced by the greedy min-degree heuristic
/// (ties broken by smallest vertex id; deterministic). Upper-bound
/// heuristic only -- no optimality guarantee. O(n^2 + fill work).
std::vector<int> MinDegreeOrdering(const Graph& g);

/// Elimination ordering produced by the greedy min-fill heuristic
/// (pick the vertex whose elimination adds the fewest fill edges; ties
/// broken by smallest id). Usually tighter than min-degree; O(n * m * deg)
/// per step in the worst case.
std::vector<int> MinFillOrdering(const Graph& g);

/// Exact treewidth via the Held-Karp style dynamic program over vertex
/// subsets (O*(2^n) time and 2^n memory); also reconstructs an optimal
/// elimination ordering. Requires g.num_vertices() <= 22 (memory guard).
/// `order_out` may be null.
///
/// This is the seed reference implementation, kept as the *oracle* that
/// cross-validates the production bitset branch-and-bound engine
/// (TreewidthExact in treewidth_bb.h) in randomized property tests.
/// Production call sites should prefer the engine: it is orders of
/// magnitude faster on sparse graphs and returns a certified witness
/// decomposition.
int TreewidthExactDp(const Graph& g, std::vector<int>* order_out);

/// Maximum-minimum-degree (MMD) lower bound: repeatedly delete a vertex of
/// minimum degree; the largest minimum degree ever seen is a treewidth lower
/// bound. O(n^2). The exact engine's internal MMD+ (contraction) bound
/// dominates this one; MMD is kept for the large-graph sandwich.
int TreewidthLowerBoundMmd(const Graph& g);

/// A treewidth estimate: `lower <= tw(g) <= upper`, with a validated tree
/// decomposition witnessing `upper`.
struct TreewidthEstimate {
  int lower = 0;
  int upper = 0;
  /// True when lower == upper was certified (exact DP or matching bounds).
  bool exact = false;
  TreeDecomposition decomposition;
};

/// Computes a treewidth sandwich for `g`: the exact bitset branch-and-
/// bound engine (treewidth_bb.h) when the graph has at most `exact_limit`
/// vertices, otherwise the best of the min-degree / min-fill upper bounds
/// together with the MMD lower bound. The returned decomposition always
/// passes TreeDecomposition::Validate. The engine handles graphs well past
/// the old DP's 22-vertex ceiling; `exact_limit` is now purely a latency
/// knob for callers that sweep many graphs.
///
/// This is the "simulated treewidth oracle" substitution documented in
/// DESIGN.md: the paper reasons about tw(D) abstractly; experiments report
/// the sandwich (collapsed to the exact value on small instances).
TreewidthEstimate EstimateTreewidth(const Graph& g, int exact_limit = 14);

}  // namespace cqbounds

#endif  // CQBOUNDS_GRAPH_TREEWIDTH_H_
