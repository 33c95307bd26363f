#include "relation/generator.h"

#include <set>

#include "relation/key_index.h"

namespace cqbounds {

void FillRandomRelation(Database* db, const std::string& name, int arity,
                        std::size_t count, std::int64_t domain_size,
                        Rng* rng) {
  Relation* rel = db->AddRelation(name, arity);
  // Generators own their naming scheme, so an arity conflict here is a
  // caller bug, not recoverable input.
  CQB_CHECK(rel != nullptr && "arity conflict with an existing relation");
  // Bulk path: draw into one flat row-major buffer (same rng draw order as
  // a per-tuple loop, so seeds reproduce the same instance), then a single
  // batch insert with one dedup pass and one journal bump.
  std::vector<Value> flat;
  flat.reserve(count * static_cast<std::size_t>(arity));
  for (std::size_t i = 0; i < count; ++i) {
    for (int j = 0; j < arity; ++j) {
      flat.push_back(static_cast<Value>(
          rng->NextBelow(static_cast<std::uint64_t>(domain_size))));
    }
  }
  rel->InsertFlat(flat, count);
}

Database RandomDatabase(const Query& query,
                        const RandomDatabaseOptions& opts) {
  Database db;
  Rng rng(opts.seed);
  std::set<std::string> done;
  for (const Atom& atom : query.atoms()) {
    if (!done.insert(atom.relation).second) continue;
    FillRandomRelation(&db, atom.relation,
                       static_cast<int>(atom.vars.size()),
                       opts.tuples_per_relation, opts.domain_size, &rng);
  }
  // FD repair to a fixpoint: rewrite rhs values to the first-seen value for
  // each lhs key. A single pass can break a previously-enforced FD on the
  // same relation, so iterate until stable.
  bool changed = true;
  int guard = 0;
  while (changed && guard++ < 1000) {
    changed = false;
    for (const FunctionalDependency& fd : query.fds()) {
      Relation* rel = db.FindMutable(fd.relation);
      if (rel == nullptr) continue;
      const ColumnStore& store = rel->store();
      std::vector<Value> repaired_flat;
      repaired_flat.reserve(rel->size() * static_cast<std::size_t>(rel->arity()));
      bool rewrote = false;
      std::size_t live_rows = 0;
      ForEachFirstDependent(
          store, fd.lhs, fd.rhs, [&](std::size_t row, Value first) {
            ++live_rows;
            for (int c = 0; c < rel->arity(); ++c) {
              Value v = store.ValueAt(row, c);
              if (c == fd.rhs && v != first) {
                v = first;
                rewrote = true;
              }
              repaired_flat.push_back(v);
            }
            return true;
          });
      if (rewrote) {
        Relation repaired(rel->name(), rel->arity());
        repaired.InsertFlat(repaired_flat, live_rows);
        *rel = std::move(repaired);
        changed = true;
      }
    }
  }
  return db;
}


Database StarTriangleDatabase(int spokes, const std::string& name) {
  Database db;
  Relation* e = db.AddRelation(name, 2);
  for (int i = 1; i <= spokes; ++i) {
    e->Insert({0, i});
    e->Insert({i, 0});
  }
  e->Insert({spokes + 1, spokes + 2});
  e->Insert({spokes + 2, spokes + 3});
  e->Insert({spokes + 3, spokes + 1});
  return db;
}

}  // namespace cqbounds
