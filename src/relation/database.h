#ifndef CQBOUNDS_RELATION_DATABASE_H_
#define CQBOUNDS_RELATION_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cq/query.h"
#include "relation/relation.h"
#include "relation/slot_table.h"
#include "util/status.h"

namespace cqbounds {

/// Interns arbitrary string spellings as Value ids. Used by generators whose
/// natural value space is structured (e.g. the color-index vectors of the
/// Proposition 4.5 product construction, or Shamir shares tagged by group),
/// and by the text reader, which interns every token it parses.
///
/// Ids are dense and minted in first-seen order. The spellings live
/// back to back in one byte arena: id i spans [offsets_[i], offsets_[i+1]).
/// The spelling -> id map is a SlotTable (slot_table.h) of u32 ids held at
/// or under 2/3 full, whose probe compares the candidate's bytes. No hash
/// is kept per id: a rebuild hashes every spelling again from the arena.
/// Per spelling that is its bytes plus an 8-byte offset plus 6-12 bytes of
/// slots, and no per-spelling heap node.
class ValuePool {
 public:
  /// Returns the id of `spelling`, interning it on first use. Accepts
  /// std::string, const char* and std::string_view alike; the bytes are
  /// copied, so `spelling` need not outlive the call.
  Value Intern(std::string_view spelling);
  /// Forgets every spelling with id >= `size` (requires size <= size()):
  /// the arena is cut and the slot table dropped, to be rebuilt from the
  /// kept spellings by the next Intern, which mints id `size` again for a
  /// new spelling. Values holding a forgotten id must not outlive the call.
  void Truncate(std::size_t size);
  /// Reverse lookup; returns "?<id>" if the id was never interned.
  std::string Spelling(Value id) const;
  /// The interned bytes of `id`, valid until the next Intern. Requires
  /// 0 <= id < size().
  std::string_view SpellingView(Value id) const {
    CQB_CHECK(id >= 0 && static_cast<std::size_t>(id) < size());
    const auto i = static_cast<std::size_t>(id);
    return std::string_view(arena_).substr(offsets_[i],
                                           offsets_[i + 1] - offsets_[i]);
  }
  std::size_t size() const { return offsets_.size() - 1; }

 private:
  /// Free-slot sentinel, and the bound on the id space: a pool holds fewer
  /// than 2^32 - 1 spellings.
  static constexpr std::uint32_t kNoId = 0xFFFFFFFFu;

  /// Every spelling, concatenated in id order.
  std::string arena_;
  /// size() + 1 entries: id i's spelling starts at offsets_[i].
  std::vector<std::size_t> offsets_{0};
  /// Open-addressing index: slot -> id, kNoId when free.
  SlotTable<2, 3> slots_;
};

/// A database instance D = (U_D, R_1, ..., R_n): named relations over a
/// shared value space.
class Database {
 public:
  /// Creates (empty) or fetches the relation `name` with the given arity.
  /// Returns nullptr -- a recoverable schema conflict, not a crash -- if
  /// the relation already exists with a *different* arity: the existing
  /// relation and its tuples are left untouched, and the caller decides
  /// whether to error (as the text reader does) or pick another name.
  Relation* AddRelation(const std::string& name, int arity);

  /// Drops the relation `name` and its tuples, if present. Pointers to it
  /// dangle afterwards, so no evaluation context may be serving it.
  void RemoveRelation(const std::string& name);

  /// Returns the relation or nullptr.
  const Relation* Find(const std::string& name) const;
  Relation* FindMutable(const std::string& name);

  const std::map<std::string, Relation>& relations() const {
    return relations_;
  }

  /// rmax(D) restricted to the relations occurring in the body of `query`
  /// (the paper's rmax is over the relations R_{i1},...,R_{im} referenced
  /// by the query). A *missing* body relation is kNotFound -- previously it
  /// was silently skipped, making "relation absent" indistinguishable from
  /// "every referenced relation genuinely empty", and a size bound
  /// rmax^{rho*} computed against the wrong database read as a legitimate
  /// 0. A variable-free body (no atoms) and present-but-empty relations
  /// both yield 0, which is the honest envelope in those cases.
  Result<std::size_t> RMax(const Query& query) const;

  /// Largest relation size over all relations in the database.
  std::size_t MaxRelationSize() const;

  /// Verifies that every positional FD declared on `query` holds in this
  /// instance. Returns the first violated FD in the error message.
  Status CheckFds(const Query& query) const;

  /// The pool used to mint structured values (shared by generators).
  ValuePool* value_pool() { return &pool_; }
  const ValuePool& value_pool() const { return pool_; }

 private:
  std::map<std::string, Relation> relations_;
  ValuePool pool_;
};

}  // namespace cqbounds

#endif  // CQBOUNDS_RELATION_DATABASE_H_
