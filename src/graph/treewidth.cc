#include "graph/treewidth.h"

#include <algorithm>
#include <set>
#include <vector>

#include "graph/treewidth_bb.h"
#include "util/subset.h"

namespace cqbounds {

namespace {

/// Shared greedy elimination driver: `score(adj, v)` ranks candidates;
/// smallest score (ties: smallest id) is eliminated next.
template <typename ScoreFn>
std::vector<int> GreedyOrdering(const Graph& g, ScoreFn score) {
  const int n = g.num_vertices();
  std::vector<std::set<int>> adj(n);
  for (int v = 0; v < n; ++v) adj[v] = g.Neighbors(v);
  std::vector<char> alive(n, 1);
  std::vector<int> order;
  order.reserve(n);
  for (int step = 0; step < n; ++step) {
    int best = -1;
    long best_score = 0;
    for (int v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      long s = score(adj, v);
      if (best == -1 || s < best_score) {
        best = v;
        best_score = s;
      }
    }
    order.push_back(best);
    std::vector<int> nbrs(adj[best].begin(), adj[best].end());
    for (std::size_t a = 0; a < nbrs.size(); ++a) {
      for (std::size_t b = a + 1; b < nbrs.size(); ++b) {
        adj[nbrs[a]].insert(nbrs[b]);
        adj[nbrs[b]].insert(nbrs[a]);
      }
    }
    for (int u : nbrs) adj[u].erase(best);
    adj[best].clear();
    alive[best] = 0;
  }
  return order;
}

}  // namespace

std::vector<int> MinDegreeOrdering(const Graph& g) {
  return GreedyOrdering(g, [](const std::vector<std::set<int>>& adj, int v) {
    return static_cast<long>(adj[v].size());
  });
}

std::vector<int> MinFillOrdering(const Graph& g) {
  return GreedyOrdering(g, [](const std::vector<std::set<int>>& adj, int v) {
    long fill = 0;
    std::vector<int> nbrs(adj[v].begin(), adj[v].end());
    for (std::size_t a = 0; a < nbrs.size(); ++a) {
      for (std::size_t b = a + 1; b < nbrs.size(); ++b) {
        if (!adj[nbrs[a]].count(nbrs[b])) ++fill;
      }
    }
    return fill;
  });
}

int TreewidthLowerBoundMmd(const Graph& g) {
  const int n = g.num_vertices();
  std::vector<std::set<int>> adj(n);
  for (int v = 0; v < n; ++v) adj[v] = g.Neighbors(v);
  std::vector<char> alive(n, 1);
  int bound = 0;
  for (int step = 0; step < n; ++step) {
    int best = -1;
    for (int v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      if (best == -1 || adj[v].size() < adj[best].size()) best = v;
    }
    bound = std::max(bound, static_cast<int>(adj[best].size()));
    for (int u : adj[best]) adj[u].erase(best);
    adj[best].clear();
    alive[best] = 0;
  }
  return bound;
}

namespace {

/// Q(S, v): number of vertices outside S u {v} reachable from v via paths
/// whose internal vertices all lie in S. This is the degree v would have if
/// the vertices of S were eliminated first.
int EliminationDegree(const Graph& g, SubsetMask eliminated, int v) {
  const int n = g.num_vertices();
  std::vector<char> visited(n, 0);
  visited[v] = 1;
  std::vector<int> stack = {v};
  int degree = 0;
  while (!stack.empty()) {
    int cur = stack.back();
    stack.pop_back();
    for (int nbr : g.Neighbors(cur)) {
      if (visited[nbr]) continue;
      visited[nbr] = 1;
      if (Contains(eliminated, nbr)) {
        stack.push_back(nbr);  // eliminated: pass through
      } else {
        ++degree;  // alive neighbor after elimination
      }
    }
  }
  return degree;
}

}  // namespace

int TreewidthExactDp(const Graph& g, std::vector<int>* order_out) {
  const int n = g.num_vertices();
  CQB_CHECK(n <= 22);
  if (n == 0) {
    if (order_out) order_out->clear();
    return -1;
  }
  const SubsetMask full = FullSet(n);
  // dp[S] = min over orderings eliminating exactly S first of the maximum
  // elimination degree seen; choice[S] = last vertex of an optimal prefix.
  std::vector<int> dp(static_cast<std::size_t>(full) + 1, 0);
  std::vector<signed char> choice(static_cast<std::size_t>(full) + 1, -1);
  // Iterate subsets in increasing numeric order: S-minus-a-bit < S, so all
  // sub-states are ready.
  for (SubsetMask s = 1; s <= full; ++s) {
    int best = -1;
    int best_v = -1;
    SubsetMask iter = s;
    while (iter) {
      int v = __builtin_ctzll(iter);
      iter &= iter - 1;
      SubsetMask prev = s & ~Singleton(v);
      int cost = std::max(dp[prev], EliminationDegree(g, prev, v));
      if (best == -1 || cost < best) {
        best = cost;
        best_v = v;
      }
    }
    dp[s] = best;
    choice[s] = static_cast<signed char>(best_v);
  }
  if (order_out != nullptr) {
    order_out->assign(n, 0);
    SubsetMask s = full;
    for (int i = n - 1; i >= 0; --i) {
      int v = choice[s];
      (*order_out)[i] = v;
      s &= ~Singleton(v);
    }
  }
  return dp[full];
}

TreewidthEstimate EstimateTreewidth(const Graph& g, int exact_limit) {
  TreewidthEstimate est;
  const int n = g.num_vertices();
  if (n == 0) {
    est.lower = est.upper = -1;
    est.exact = true;
    return est;
  }
  if (n <= exact_limit) {
    // Certified exact value from the bitset branch-and-bound engine
    // (treewidth_bb.h); its witness decomposition is returned as-is.
    ExactTreewidthResult exact = TreewidthExact(g);
    est.lower = est.upper = exact.width;
    est.exact = true;
    est.decomposition = std::move(exact.decomposition);
    return est;
  }
  std::vector<int> order_degree = MinDegreeOrdering(g);
  std::vector<int> order_fill = MinFillOrdering(g);
  TreeDecomposition td_degree = DecompositionFromOrdering(g, order_degree);
  TreeDecomposition td_fill = DecompositionFromOrdering(g, order_fill);
  if (td_fill.Width() <= td_degree.Width()) {
    est.decomposition = std::move(td_fill);
  } else {
    est.decomposition = std::move(td_degree);
  }
  est.upper = est.decomposition.Width();
  est.lower = TreewidthLowerBoundMmd(g);
  est.exact = est.lower == est.upper;
  return est;
}

}  // namespace cqbounds
