#ifndef CQBOUNDS_RELATION_RELATION_H_
#define CQBOUNDS_RELATION_RELATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relation/column_store.h"
#include "relation/tuple.h"
#include "util/status.h"

namespace cqbounds {

/// A named, set-semantics relation instance: a deduplicated bag of tuples of
/// fixed arity, stored dictionary-encoded in contiguous uint32_t columns
/// (relation/column_store.h). Insertion order of first occurrences is
/// preserved so that iteration (and thus every algorithm built on it) is
/// deterministic, and row ids are stable across appends.
///
/// ## Concurrency contract (externally synchronized)
///
/// Relation is deliberately lock-free and carries **no capability**: the
/// readers-xor-writer discipline is owned by the caller (EvalContext's
/// documented contract -- mutations never overlap evaluations; any number
/// of concurrent readers between mutations). The delta journal below
/// (generation_ and the removed-row log) is what makes that contract
/// auditable by its consumers: every cached artifact snapshots
/// generation() at build time and revalidates against it, so a violated
/// contract surfaces as a TSan race in CI, never as silently stale data.
/// The machine-checked (Clang -Wthread-safety, docs/STATIC_ANALYSIS.md)
/// annotations live at the synchronization boundary --
/// relation/eval_context.h and util/thread_pool.h -- because a guard
/// annotation here would claim a lock this class intentionally does not
/// have.
class Relation {
 public:
  Relation() : name_("R"), store_(0) {}
  Relation(std::string name, int arity)
      : name_(std::move(name)), store_(arity) {
    CQB_CHECK(arity >= 0);
  }

  const std::string& name() const { return name_; }
  int arity() const { return store_.arity(); }
  /// Logical cardinality: live rows only. The store may hold tombstoned
  /// physical rows beyond this until it compacts (store().size()).
  std::size_t size() const { return store_.live_size(); }
  bool empty() const { return store_.empty(); }

  /// Mutation counter: advanced by the number of rows an operation actually
  /// changed (a duplicate Insert or a Remove of an absent tuple leaves it
  /// unchanged; a batch insert of k fresh rows advances it by k in one
  /// journal update). Index caches (EvalContext in eval_context.h) snapshot
  /// it at build time and refresh when it moves -- generation-based
  /// invalidation instead of content hashing.
  std::uint64_t generation() const { return generation_; }

  /// The delta journal: everything that changed since `gen`, named by row
  /// id. `appended_rows` are the still-live rows appended
  /// since `gen` (a subsequence of the physical row suffix, ascending);
  /// `removed_rows` are the row ids tombstoned since `gen` that existed at
  /// `gen` (ascending; their codes are still readable -- tombstones keep
  /// columns intact). A tuple appended AND removed inside the window
  /// appears in neither list. Valid for any `gen` at or after the last
  /// *hard* structural break (Clear or a deferred compaction, which shift
  /// or drop row ids); returns false and leaves `*out` empty otherwise --
  /// the caller falls back to a full rebuild. An append-only window
  /// yields an empty `removed_rows`.
  struct DeltaSet {
    std::vector<std::uint32_t> appended_rows;
    std::vector<std::uint32_t> removed_rows;
  };
  bool DeltasSince(std::uint64_t gen, DeltaSet* out) const;

  /// Number of hard structural breaks (deferred compactions) this relation
  /// has performed; Clear resets nothing here -- it is its own break. Lets
  /// tests and the mutation oracle distinguish a tombstone Remove (row ids
  /// stable, deltas patchable) from one that compacted.
  std::uint64_t compactions() const { return compactions_; }

  /// Inserts `t` if not present; returns true if inserted. Aborts if the
  /// arity does not match (a programming error, not a data error).
  bool Insert(const Tuple& t);

  /// Bulk insert with a single dedup pass and one journal bump (the
  /// generation advances by the number of rows actually added, sealed as
  /// one column segment). Returns that count.
  std::size_t InsertBatch(const std::vector<Tuple>& batch);

  /// The row-append door (ColumnStore::AppendRows): the rows of
  /// `spans[0..num_spans)`, in order, with one dedup pass, pre-sized once,
  /// sealed as one segment and journaled as one generation bump by the
  /// number of rows actually added. Returns that count.
  std::size_t InsertRows(const ColumnStore::RowSpan* spans,
                         std::size_t num_spans);

  /// InsertRows over one vector of row-major values (`num_rows * arity()`
  /// entries) -- the bulk-ingestion path: no per-tuple Tuple allocation.
  std::size_t InsertFlat(const std::vector<Value>& flat_values,
                         std::size_t num_rows);

  /// Removes `t` if present; returns true if removed. Preserves the order
  /// of the remaining tuples. A removal bumps the generation, but
  /// it is usually a *tombstone*: row ids stay stable, the removal is
  /// journaled in the removed-row log, and DeltasSince() names it -- delta
  /// consumers patch in O(δ) instead of rebuilding. Only when the store's
  /// deferred compaction threshold trips does the removal become a hard
  /// structural break (DeltasSince() goes invalid for older snapshots).
  bool Remove(const Tuple& t);

  /// Drops every tuple. A hard structural break: bumps the generation and
  /// the structural floor unless the store held no physical rows at all.
  void Clear();

  bool Contains(const Tuple& t) const { return store_.Contains(t); }

  /// Materializes every tuple, in row order. This is a compatibility and
  /// test/tooling accessor -- an O(size * arity) decode on every call, NOT a
  /// view into storage. Library code outside src/relation/ must read columns
  /// through store() instead (enforced by the raw-row-access lint rule).
  std::vector<Tuple> tuples() const;

  /// The underlying dictionary-encoded columns: the read path for
  /// evaluation, index builds, and IO.
  const ColumnStore& store() const { return store_; }

  /// Per-column min/max/distinct summary (one column scan).
  ColumnStats Stats(int col) const { return store_.Stats(col); }

  /// Projection onto `positions` (0-based, may repeat), with set semantics.
  Relation Project(const std::vector<int>& positions,
                   const std::string& result_name = "pi") const;

  /// The set of distinct values appearing in column `pos`.
  std::vector<Value> ColumnValues(int pos) const;

  /// All distinct values appearing anywhere in the relation.
  std::vector<Value> ActiveDomain() const;

  /// Checks a positional functional dependency lhs -> rhs on this instance.
  bool SatisfiesFd(const std::vector<int>& lhs, int rhs) const;

 private:
  std::string name_;
  ColumnStore store_;
  std::uint64_t generation_ = 0;
  // Generation value as of the last HARD structural break (Clear or a
  // deferred compaction): snapshots at or after it can still be served a
  // row-id delta (DeltasSince), older ones cannot. Invariant:
  // structural_floor_ <= generation_. All journal state is written only
  // under the caller-owned writer phase (see the class comment) -- it is
  // read concurrently by cached readers, which is safe precisely because
  // writes never overlap reads.
  std::uint64_t structural_floor_ = 0;
  // One entry per tombstoned row since the last hard break, generation-
  // ascending; a row id appears at most once (ids never resurrect).
  struct RemovalEvent {
    std::uint64_t gen = 0;
    std::uint32_t row = 0;
  };
  std::vector<RemovalEvent> removed_log_;
  std::uint64_t compactions_ = 0;
};

}  // namespace cqbounds

#endif  // CQBOUNDS_RELATION_RELATION_H_
