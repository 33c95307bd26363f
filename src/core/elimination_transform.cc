#include "core/elimination_transform.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace cqbounds {

namespace {

using ValueMap = std::unordered_map<Value, Value>;

/// Finds the position of `var`'s first occurrence in `vars`, or -1.
int PositionOf(const std::vector<int>& vars, int var) {
  for (std::size_t p = 0; p < vars.size(); ++p) {
    if (vars[p] == var) return static_cast<int>(p);
  }
  return -1;
}

}  // namespace

Result<EliminationTransformResult> EliminateSimpleFdsWithDatabase(
    const Query& query, const Database& db) {
  CQB_RETURN_NOT_OK(query.Validate());
  CQB_RETURN_NOT_OK(db.CheckFds(query));
  const int n = query.num_variables();

  // Variable-level FDs; all must be simple.
  std::set<std::pair<int, int>> fds;
  for (const VariableFd& vfd : query.DeriveVariableFds()) {
    if (vfd.lhs.size() != 1) {
      return Status::FailedPrecondition(
          "EliminateSimpleFdsWithDatabase requires simple variable FDs");
    }
    if (vfd.lhs[0] != vfd.rhs) fds.emplace(vfd.lhs[0], vfd.rhs);
  }

  // Value maps x -> y(x), harvested from the relations realizing each
  // positional FD (first writer wins; within a relation the FD check above
  // guarantees consistency).
  std::map<std::pair<int, int>, ValueMap> maps;
  for (const FunctionalDependency& fd : query.fds()) {
    if (!fd.IsSimple()) continue;
    const Relation* rel = db.Find(fd.relation);
    if (rel == nullptr) continue;
    for (const Atom& atom : query.atoms()) {
      if (atom.relation != fd.relation) continue;
      int var_x = atom.vars[fd.lhs[0]];
      int var_y = atom.vars[fd.rhs];
      if (var_x == var_y) continue;
      ValueMap& map = maps[{var_x, var_y}];
      const ColumnStore& store = rel->store();
      for (std::size_t row = 0; row < store.size(); ++row) {
        if (!store.IsLive(row)) continue;
        map.emplace(store.ValueAt(row, fd.lhs[0]),
                    store.ValueAt(row, fd.rhs));
      }
    }
  }

  // Working state: per body atom, its variable list and its tuple set.
  std::vector<std::vector<int>> atom_vars;
  atom_vars.push_back(query.head_vars());  // index 0: the head (no tuples)
  std::vector<std::vector<Tuple>> atom_tuples(1);
  for (const Atom& atom : query.atoms()) {
    atom_vars.push_back(atom.vars);
    const Relation* rel = db.Find(atom.relation);
    if (rel == nullptr) {
      return Status::NotFound("relation '" + atom.relation +
                              "' missing from database");
    }
    // Materialize working copies: the rounds below widen each tuple in
    // place (push_back of determined partners), so this stage genuinely
    // needs mutable row objects, not column views.
    std::vector<Tuple> tuples;
    tuples.reserve(rel->size());
    for (std::size_t row = 0; row < rel->store().size(); ++row) {
      if (!rel->store().IsLive(row)) continue;
      tuples.push_back(rel->store().Row(row));
    }
    atom_tuples.push_back(std::move(tuples));
  }

  EliminationTransformResult out;
  ValuePool* pool = out.db.value_pool();
  // Fresh fallback values for X-values with no determined partner.
  auto fallback = [&pool](int var_y, Value x) {
    return pool->Intern("undef_y" + std::to_string(var_y) + "_x" +
                        std::to_string(x));
  };

  // Rounds, mirroring EliminateSimpleFds.
  for (int i = 0; i < n; ++i) {
    std::vector<int> targets;
    for (const auto& [x, y] : fds) {
      if (x == i) targets.push_back(y);
    }
    for (int j : targets) {
      const ValueMap& map = maps[{i, j}];
      for (std::size_t a = 0; a < atom_vars.size(); ++a) {
        std::vector<int>& vars = atom_vars[a];
        int pos_i = PositionOf(vars, i);
        if (pos_i < 0 || PositionOf(vars, j) >= 0) continue;
        vars.push_back(j);
        if (a == 0) continue;  // head atom carries no tuples
        for (Tuple& t : atom_tuples[a]) {
          auto it = map.find(t[pos_i]);
          t.push_back(it != map.end() ? it->second : fallback(j, t[pos_i]));
        }
      }
      // Derive Z -> Y from Z -> X, composing the value maps.
      std::vector<int> incoming;
      for (const auto& [k, y] : fds) {
        if (y == i) incoming.push_back(k);
      }
      for (int k : incoming) {
        if (k == j) continue;
        if (fds.emplace(k, j).second) {
          ValueMap composed;
          for (const auto& [z_value, x_value] : maps[{k, i}]) {
            auto it = map.find(x_value);
            composed.emplace(z_value, it != map.end()
                                          ? it->second
                                          : fallback(j, x_value));
          }
          maps[{k, j}] = std::move(composed);
        }
      }
      fds.erase({i, j});
    }
  }

  // Rebuild query and database with fresh relation names per atom.
  auto remap = [&](int v) {
    return out.query.InternVariable(query.variable_name(v));
  };
  std::vector<int> head;
  for (int v : atom_vars[0]) head.push_back(remap(v));
  out.query.SetHead(query.head_relation(), std::move(head));
  for (std::size_t a = 1; a < atom_vars.size(); ++a) {
    std::vector<int> vars;
    for (int v : atom_vars[a]) vars.push_back(remap(v));
    const std::string name =
        "E" + std::to_string(a) + "_" + query.atoms()[a - 1].relation;
    Relation* rel = out.db.AddRelation(
        name, static_cast<int>(atom_vars[a].size()));
    for (const Tuple& t : atom_tuples[a]) rel->Insert(t);
    out.query.AddAtom(name, std::move(vars));
  }
  CQB_RETURN_NOT_OK(out.query.Validate());
  return out;
}

}  // namespace cqbounds
