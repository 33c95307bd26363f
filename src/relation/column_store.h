#ifndef CQBOUNDS_RELATION_COLUMN_STORE_H_
#define CQBOUNDS_RELATION_COLUMN_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "relation/slot_table.h"
#include "relation/tuple.h"
#include "util/status.h"

namespace cqbounds {

/// Per-column summary over the live rows: value bounds and distinct count.
/// Computed on demand (one column scan); undefined fields are zero when the
/// store is empty.
struct ColumnStats {
  Value min = 0;
  Value max = 0;
  std::size_t distinct = 0;
};

/// Per-store dictionary mapping arbitrary 64-bit Values to dense uint32_t
/// codes in first-seen order. One dictionary is shared by all columns of a
/// ColumnStore so that intra-tuple equality (repeated query variables such
/// as R(X,X)) reduces to code equality across columns.
///
/// The value -> code map is a SlotTable (slot_table.h) of codes, load
/// factor <= 1/2, whose probe compares candidates against `values_`
/// directly and whose hash is the value itself (the table's Fibonacci
/// multiply spreads strides and multiples of 2^32). It stores 4 bytes per
/// slot and nothing else -- 16-24 bytes per distinct value including the
/// decode array, and no per-value heap node.
class ValueDictionary {
 public:
  /// Sentinel returned by CodeOf for values never interned. Doubles as the
  /// hard capacity limit: a store holds fewer than 2^32 - 1 distinct values.
  static constexpr std::uint32_t kNoCode = 0xFFFFFFFFu;

  /// Code for `v`, minting the next dense code on first sight.
  std::uint32_t Intern(Value v);

  /// Code for `v`, or kNoCode if `v` was never interned.
  std::uint32_t CodeOf(Value v) const {
    return slots_.empty() ? kNoCode : slots_[ProbeSlot(v)];
  }

  Value ValueOf(std::uint32_t code) const { return values_[code]; }
  std::size_t size() const { return values_.size(); }

 private:
  /// Slot holding `v`'s code, or the free slot where it would go. Requires
  /// a non-empty slot table.
  std::size_t ProbeSlot(Value v) const {
    return slots_.Find(static_cast<std::uint64_t>(v),
                       [this, v](std::uint32_t code) {
                         return values_[code] == v;
                       });
  }

  std::vector<Value> values_;
  /// Open-addressing index: slot -> code.
  SlotTable<1, 2> slots_;
};

/// Dictionary-encoded columnar tuple storage with set semantics: `arity`
/// contiguous uint32_t code columns plus an open-addressing hash index over
/// row ids (no per-row heap nodes, no shadow tuple copies). Row order is
/// first-insertion order; appends only ever extend the columns, so row ids
/// are stable across appends and a row-id suffix is a well-defined delta.
///
/// Removal is a *tombstone*: Erase marks the row dead in a lazily-allocated
/// bitmap and leaves the columns, the row index, and every live row id
/// untouched, so a point deletion is O(arity) and delta consumers can name
/// it by row id. Dead rows keep their codes readable (CodeAt/ValueAt still
/// work) until the store *compacts* -- a deferred structural pass triggered
/// when more than a quarter of the physical rows are dead -- which rewrites
/// the columns over the live rows, re-codes them against a fresh
/// dictionary of the live values (so the dictionary never outgrows the
/// live set by more than one compaction epoch), rebuilds the index, and
/// invalidates all row ids and codes. size() stays the PHYSICAL row count
/// (columns, row-id ranges); live_size()/empty() are the logical set. A
/// tombstoned tuple re-appended later gets a NEW physical row id (ids never
/// resurrect), and the row index always points at the newest row for a
/// code-set.
///
/// The store keeps no journal of its own. Appends only extend the columns,
/// so the rows appended after a row-count watermark are the suffix
/// [watermark, size()), and Relation's journal (Relation::DeltasSince)
/// finds that watermark from generation numbers alone.
///
/// Same concurrency contract as Relation (externally synchronized:
/// readers-xor-writer, owned by EvalContext's documented discipline). All
/// const methods are pure reads -- there is no lazily-mutated cache state --
/// so any number of concurrent readers are safe between mutations.
class ColumnStore {
 public:
  /// What Erase did. kTombstoned leaves row ids stable (delta-friendly);
  /// kCompacted means the deferred compaction ran -- row ids and codes
  /// shifted, a structural mutation.
  enum class EraseResult { kNotFound, kTombstoned, kCompacted };

  explicit ColumnStore(int arity);

  int arity() const { return arity_; }
  /// PHYSICAL row count: live + tombstoned. Column sizes and valid row-id
  /// ranges are [0, size()); logical cardinality is live_size().
  std::size_t size() const { return rows_; }
  std::size_t live_size() const { return rows_ - dead_count_; }
  std::size_t dead_count() const { return dead_count_; }
  bool empty() const { return live_size() == 0; }

  /// True iff `row` has not been tombstoned. Dead rows' codes stay readable
  /// until compaction, but they are not part of the logical set.
  bool IsLive(std::size_t row) const {
    return dead_.empty() || !dead_[row];
  }

  /// The code column for position `col` (size() entries, contiguous).
  const std::vector<std::uint32_t>& column(int col) const {
    CQB_CHECK(col >= 0 && col < arity_);
    return columns_[static_cast<std::size_t>(col)];
  }

  std::uint32_t CodeAt(std::size_t row, int col) const {
    return columns_[static_cast<std::size_t>(col)][row];
  }

  Value ValueAt(std::size_t row, int col) const {
    return dict_.ValueOf(CodeAt(row, col));
  }

  /// Decodes row `row` into `*out` (resized to arity()).
  void CopyRow(std::size_t row, Tuple* out) const;
  Tuple Row(std::size_t row) const;

  bool Contains(const Tuple& t) const;

  /// Appends `t` unless already present; returns true iff a row was added.
  /// A one-row AppendRows: the same per-row step, without the batch
  /// pre-sizing.
  bool Append(const Tuple& t);

  /// A borrowed run of `rows` row-major rows: `rows * arity()` values
  /// starting at `values` (which a nullary store never reads).
  struct RowSpan {
    const Value* values = nullptr;
    std::size_t rows = 0;
  };

  /// The row-append door: appends the rows of `spans[0..num_spans)`, in
  /// order, with set semantics -- each row is one probe of the row index,
  /// and a row equal to an existing or earlier one is dropped. The columns
  /// and the slot table are pre-sized once for the spans' total, values are
  /// interned straight from the caller's buffers (no Tuple per row).
  /// Returns the number of rows actually added.
  std::size_t AppendRows(const RowSpan* spans, std::size_t num_spans);

  /// AppendRows over one vector of row-major values: `flat` holds
  /// `num_rows * arity()` values (empty for nullary stores).
  std::size_t AppendFlat(const std::vector<Value>& flat, std::size_t num_rows);

  /// Removes `t` if present. The common case is a tombstone: O(arity), row
  /// ids stable, the open-addressing index untouched. When the tombstone
  /// pushes the dead fraction past the compaction threshold (dead rows >
  /// 1/4 of physical rows) the store compacts instead -- O(size * arity),
  /// row ids and codes shift -- and reports kCompacted
  /// so the journal above can record the structural break. On kTombstoned,
  /// `*removed_row` (when non-null) receives the tombstoned row id.
  EraseResult Erase(const Tuple& t, std::uint32_t* removed_row = nullptr);

  /// Drops all rows, live and dead, and the dictionary with them
  /// (structural).
  void Clear();

  const ValueDictionary& dict() const { return dict_; }

  /// min/max/distinct over the LIVE rows of column `col`, one scan. Pure
  /// read.
  ColumnStats Stats(int col) const;

 private:
  using RowIndex = SlotTable<1, 2>;
  static constexpr std::uint32_t kEmptySlot = RowIndex::kEmpty;

  /// Slot holding the row equal to `codes`, or the empty slot where it
  /// would be inserted. Requires a non-empty slot table.
  std::size_t ProbeSlot(const std::uint32_t* codes) const;
  /// The live row equal to `t`, or kEmptySlot; `codes` (arity() entries)
  /// receives t's codes on the way.
  std::uint32_t LiveRowOf(const Tuple& t, std::uint32_t* codes) const;
  /// Grows the row index (rebuilding it over the live rows) so `rows`
  /// physical rows fit under its load bound; builds an empty one.
  void ReserveRows(std::size_t rows);
  /// Deferred structural pass: copies the live rows down in order,
  /// re-interning their values into a fresh dictionary (so it holds exactly
  /// the live rows' distinct values, coded in first-seen row order), drops
  /// the tombstone bitmap and rebuilds the index. Row ids and codes change.
  void Compact();
  /// The one intern/probe/append step of both append doors: interns the
  /// arity() values at `values`, and appends them as a new row unless a
  /// live row holds them. True iff a row was added. Requires the row index
  /// sized for one more row.
  bool AppendRow(const Value* values);

  int arity_;
  ValueDictionary dict_;
  std::vector<std::vector<std::uint32_t>> columns_;
  std::size_t rows_ = 0;
  /// Tombstone bitmap over physical rows. Lazily allocated: empty means
  /// every row is live (the append-only fast path never pays for it).
  std::vector<bool> dead_;
  std::size_t dead_count_ = 0;
  /// Open-addressing row index: slot -> row id, kEmptySlot when free. A
  /// slot may point at a tombstoned row until that tuple is re-appended.
  RowIndex slots_;
  /// Scratch code buffer for probe/append paths (non-const methods only).
  std::vector<std::uint32_t> scratch_;
};

/// A borrowed, ordered list of row ids into one ColumnStore -- the columnar
/// replacement for the old `vector<const Tuple*>` filtered views (semi-join
/// survivors, journal deltas). Nothing is copied: consumers read key
/// columns straight out of the store. The store must outlive the view.
struct RowView {
  const ColumnStore* store = nullptr;
  std::vector<std::uint32_t> rows;

  RowView() = default;
  explicit RowView(const ColumnStore* s) : store(s) {}

  std::size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }
};

}  // namespace cqbounds

#endif  // CQBOUNDS_RELATION_COLUMN_STORE_H_
