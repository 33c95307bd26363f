#include "graph/treewidth_bb.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/bitset_graph.h"
#include "graph/tree_decomposition.h"

namespace cqbounds {

namespace {

/// Branch-and-bound solver for one connected component, operating on
/// word-parallel bitset rows throughout. See treewidth_bb.h for the layer
/// list and docs/TREEWIDTH.md for the safety arguments.
class ComponentSolver {
 public:
  ComponentSolver(const Graph& g, ExactTreewidthStats* stats)
      : n_(g.num_vertices()),
        adj_(g),
        alive_(n_),
        alive_count_(n_),
        stats_(stats) {
    alive_.SetAll();
    prefix_.reserve(n_);
  }

  /// Returns tw of the component and an optimal elimination ordering.
  int Run(std::vector<int>* order_out) {
    if (n_ == 0) {
      order_out->clear();
      return -1;
    }
    best_ = MinFillUpperBound(&best_order_);
    // Certified-equal bounds close the instance without any branching.
    if (MmdPlusLowerBound() < best_) Search(0);
    *order_out = best_order_;
    return best_;
  }

 private:
  /// One eliminated vertex plus every adjacency row its elimination
  /// touched, so Restore() is an exact inverse.
  struct Undo {
    int vertex;
    std::vector<std::pair<int, VertexBitset>> saved_rows;
  };

  struct MemoEntry {
    int reached_width;  // smallest prefix width that ever reached this set
    int lower_bound;    // cached MMD+ of the subgraph; -1 = not computed
  };

  /// Eliminates v: turns N(v) into a clique (fill edges), detaches v.
  Undo Eliminate(int v) {
    Undo undo;
    undo.vertex = v;
    const VertexBitset nbrs = adj_.Row(v);
    undo.saved_rows.emplace_back(v, nbrs);
    nbrs.ForEach([&](int u) { undo.saved_rows.emplace_back(u, adj_.Row(u)); });
    nbrs.ForEach([&](int u) {
      VertexBitset& row = adj_.MutableRow(u);
      row.InplaceOr(nbrs);
      row.Reset(u);
      row.Reset(v);
    });
    adj_.MutableRow(v).Clear();
    alive_.Reset(v);
    --alive_count_;
    prefix_.push_back(v);
    return undo;
  }

  void Restore(const Undo& undo) {
    for (const auto& [u, row] : undo.saved_rows) adj_.MutableRow(u) = row;
    alive_.Set(undo.vertex);
    ++alive_count_;
    prefix_.pop_back();
  }

  void RestoreAll(std::vector<Undo>& undos) {
    for (auto it = undos.rbegin(); it != undos.rend(); ++it) Restore(*it);
    undos.clear();
  }

  /// True iff `vertices` induces a clique: every member u must be adjacent
  /// to all others, i.e. vertices \ N(u) == {u}, one CountAndNot per
  /// member.
  bool IsClique(const VertexBitset& vertices) const {
    bool clique = true;
    vertices.ForEach([&](int u) {
      if (clique && vertices.CountAndNot(adj_.Row(u)) != 1) clique = false;
    });
    return clique;
  }

  /// An alive vertex eliminable by the degree-<=1 or simplicial rule, or
  /// -1. Smallest id wins (determinism). The caller attributes the stats
  /// counter when (and only when) it actually eliminates the vertex.
  int FindSimplicialOrLowDegree() {
    int found = -1;
    alive_.ForEach([&](int v) {
      if (found >= 0) return;
      if (adj_.Degree(v) <= 1 || IsClique(adj_.Row(v))) found = v;
    });
    return found;
  }

  /// An alive vertex v whose neighbourhood minus one vertex is a clique
  /// and with deg(v) <= lb (the subgraph's lower bound), or -1. Safe by
  /// the almost-simplicial rule (Bodlaender-Koster preprocessing; see
  /// docs/TREEWIDTH.md).
  int FindAlmostSimplicial(int lb) {
    int found = -1;
    alive_.ForEach([&](int v) {
      if (found >= 0) return;
      const int deg = adj_.Degree(v);
      if (deg > lb || deg < 2) return;
      const VertexBitset& nbrs = adj_.Row(v);
      nbrs.ForEach([&](int w) {
        if (found >= 0) return;
        VertexBitset without = nbrs;
        without.Reset(w);
        if (IsClique(without)) found = v;
      });
    });
    return found;
  }

  /// MMD+ (least-c) lower bound of the alive subgraph: repeatedly take a
  /// minimum-degree vertex v and contract it into the neighbour sharing
  /// the fewest common neighbours; the largest minimum degree seen lower
  /// bounds treewidth (contraction preserves tw, and a graph of min
  /// degree d has tw >= d). Always >= the plain MMD deletion bound.
  int MmdPlusLowerBound() const {
    std::vector<VertexBitset> rows(static_cast<std::size_t>(n_));
    alive_.ForEach([&](int v) { rows[v] = adj_.Row(v); });
    VertexBitset alive = alive_;
    int remaining = alive_count_;
    int bound = 0;
    while (remaining >= 2) {
      int v = -1, v_deg = 0;
      alive.ForEach([&](int u) {
        const int deg = rows[u].Count();
        if (v < 0 || deg < v_deg) {
          v = u;
          v_deg = deg;
        }
      });
      bound = std::max(bound, v_deg);
      if (v_deg == 0) {
        alive.Reset(v);
        --remaining;
        continue;
      }
      int into = -1, into_common = 0;
      rows[v].ForEach([&](int u) {
        const int common = rows[v].CountAnd(rows[u]);
        if (into < 0 || common < into_common) {
          into = u;
          into_common = common;
        }
      });
      // Contract v into `into`: N(into) <- (N(into) | N(v)) \ {v, into}.
      rows[v].ForEach([&](int w) {
        rows[w].Reset(v);
        if (w != into) rows[w].Set(into);
      });
      rows[into].InplaceOr(rows[v]);
      rows[into].Reset(into);
      rows[into].Reset(v);
      rows[v].Clear();
      alive.Reset(v);
      --remaining;
    }
    return bound;
  }

  /// Min-fill greedy upper bound on a scratch copy of the rows; fills
  /// `order_out` with the heuristic elimination ordering that witnesses
  /// the returned width.
  int MinFillUpperBound(std::vector<int>* order_out) const {
    BitsetGraph adj = adj_;
    VertexBitset alive = alive_;
    order_out->clear();
    order_out->reserve(n_);
    int width = 0;
    for (int step = 0; step < n_; ++step) {
      int best_v = -1;
      long best_fill = 0;
      alive.ForEach([&](int v) {
        const VertexBitset& nbrs = adj.Row(v);
        long fill = 0;
        // Each neighbour u contributes |N(v) \ N(u)| - 1 missing partners
        // (u itself is never in N(u)); summing double-counts pairs.
        nbrs.ForEach(
            [&](int u) { fill += nbrs.CountAndNot(adj.Row(u)) - 1; });
        fill /= 2;
        if (best_v < 0 || fill < best_fill) {
          best_v = v;
          best_fill = fill;
        }
      });
      width = std::max(width, adj.Degree(best_v));
      const VertexBitset nbrs = adj.Row(best_v);
      nbrs.ForEach([&](int u) {
        VertexBitset& row = adj.MutableRow(u);
        row.InplaceOr(nbrs);
        row.Reset(u);
        row.Reset(best_v);
      });
      adj.MutableRow(best_v).Clear();
      alive.Reset(best_v);
      order_out->push_back(best_v);
    }
    return width;
  }

  /// Records prefix_ + the remaining alive vertices (any order is
  /// optimal at that point) as the new incumbent of width `width`.
  void RecordBest(int width) {
    best_ = width;
    best_order_ = prefix_;
    alive_.ForEach([&](int v) { best_order_.push_back(v); });
  }

  void Search(int width_so_far) {
    int width = width_so_far;
    std::vector<Undo> undos;
    // Reduction fixpoint, re-entered after every almost-simplicial
    // elimination (which can expose new simplicial vertices).
    while (true) {
      if (width >= best_) {
        RestoreAll(undos);
        return;
      }
      int v;
      while (alive_count_ > 0 && (v = FindSimplicialOrLowDegree()) >= 0) {
        const int deg = adj_.Degree(v);
        if (std::max(width, deg) >= best_) {
          // Eliminating v first is optimal here, so the node is dead.
          RestoreAll(undos);
          return;
        }
        width = std::max(width, deg);
        ++(deg <= 1 ? stats_->degree_le_one_eliminations
                    : stats_->simplicial_eliminations);
        undos.push_back(Eliminate(v));
      }
      if (alive_count_ == 0) {
        RecordBest(width);
        RestoreAll(undos);
        return;
      }
      if (alive_count_ - 1 <= width) {
        // Any completion stays within `width` (each remaining elimination
        // degree is < alive_count_), so this node's value is exactly
        // `width` < best_.
        ++stats_->clique_closures;
        RecordBest(width);
        RestoreAll(undos);
        return;
      }
      // Memo: prune when this subgraph was already reached through a
      // prefix of smaller-or-equal width (that visit dominates this one).
      int lb;
      {
        auto [it, inserted] =
            memo_.try_emplace(alive_, MemoEntry{width, -1});
        if (!inserted) {
          if (it->second.reached_width <= width) {
            ++stats_->memo_hits;
            RestoreAll(undos);
            return;
          }
          it->second.reached_width = width;
        } else {
          ++stats_->memo_entries;
        }
        if (it->second.lower_bound < 0) {
          it->second.lower_bound = MmdPlusLowerBound();
        }
        lb = it->second.lower_bound;
      }
      if (std::max(width, lb) >= best_) {
        ++stats_->lower_bound_prunes;
        RestoreAll(undos);
        return;
      }
      const int almost = FindAlmostSimplicial(lb);
      if (almost < 0) break;
      ++stats_->almost_simplicial_eliminations;
      width = std::max(width, adj_.Degree(almost));  // degree <= lb < best_
      undos.push_back(Eliminate(almost));
    }
    // Branch on the remaining vertices, lowest degree first.
    ++stats_->branch_nodes;
    std::vector<int> candidates;
    candidates.reserve(alive_count_);
    alive_.ForEach([&](int v) { candidates.push_back(v); });
    std::sort(candidates.begin(), candidates.end(), [this](int a, int b) {
      const int da = adj_.Degree(a), db = adj_.Degree(b);
      return da != db ? da < db : a < b;
    });
    for (int v : candidates) {
      const int deg = adj_.Degree(v);
      if (std::max(width, deg) >= best_) continue;
      Undo undo = Eliminate(v);
      Search(std::max(width, deg));
      Restore(undo);
    }
    RestoreAll(undos);
  }

  int n_;
  BitsetGraph adj_;
  VertexBitset alive_;
  int alive_count_;
  std::vector<int> prefix_;
  std::vector<int> best_order_;
  int best_ = 0;
  std::unordered_map<VertexBitset, MemoEntry, VertexBitsetHash> memo_;
  ExactTreewidthStats* stats_;
};

}  // namespace

ExactTreewidthResult TreewidthExact(const Graph& g) {
  ExactTreewidthResult result;
  const int n = g.num_vertices();
  result.elimination_order.reserve(n);
  result.width = n == 0 ? -1 : 0;
  // Component split: tw(G) = max over connected components, and the
  // concatenated per-component optimal orderings form a global optimal
  // ordering (DecompositionFromOrdering chains the components).
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (int start = 0; start < n; ++start) {
    if (seen[start]) continue;
    std::vector<int> component;
    component.push_back(start);
    seen[start] = 1;
    for (std::size_t i = 0; i < component.size(); ++i) {
      for (int u : g.Neighbors(component[i])) {
        if (!seen[u]) {
          seen[u] = 1;
          component.push_back(u);
        }
      }
    }
    std::sort(component.begin(), component.end());
    ++result.stats.components;
    ComponentSolver solver(g.InducedSubgraph(component), &result.stats);
    std::vector<int> local_order;
    result.width = std::max(result.width, solver.Run(&local_order));
    for (int v : local_order) {
      result.elimination_order.push_back(component[v]);
    }
  }
  result.decomposition =
      DecompositionFromOrdering(g, result.elimination_order);
  CQB_CHECK(result.decomposition.Width() == result.width);
  return result;
}

}  // namespace cqbounds
