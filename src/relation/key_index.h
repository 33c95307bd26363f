#ifndef CQBOUNDS_RELATION_KEY_INDEX_H_
#define CQBOUNDS_RELATION_KEY_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "relation/column_store.h"
#include "relation/slot_table.h"
#include "relation/tuple.h"

namespace cqbounds {

/// The row-chain view: an index from a key -- the codes at `positions` of
/// one ColumnStore's rows -- to the rows carrying it. A SlotTable holds each
/// key's chain head row (a slot's key is read off that row's codes), and
/// one `next` link per physical row threads the rows of a key: no stored
/// keys, no per-key heap vectors. LinkRows links from the last row to the
/// first, each at the front of its chain, so the rows one call links run
/// in ascending row id, ahead of any linked before. An empty key (a cross
/// product) is one chain of every linked row. Lookups go by value: each
/// value maps to its store code first (code equality is value equality in
/// one store), and a value the store never interned names no row.
template <std::size_t kLoadNum, std::size_t kLoadDen>
class KeyRows {
 public:
  /// End-of-chain sentinel.
  static constexpr std::uint32_t kNoRow = 0xFFFFFFFFu;

  explicit KeyRows(std::vector<int> positions)
      : positions_(std::move(positions)), codes_(positions_.size()) {}

  /// True once LinkRows has run.
  bool built() const { return !heads_.empty(); }

  /// Links the rows in [rows covered so far, end) that `keep(row)` accepts
  /// and covers them; returns the number scanned. Links are never undone:
  /// a caller whose rows can die skips dead ones as it visits them.
  template <typename Keep>
  std::size_t LinkRows(const ColumnStore& store, std::size_t end,
                       Keep&& keep) {
    if (!built()) Grow(store);
    const std::size_t first = next_.size();
    // An eighth of headroom: the semi-join books extend the index by one
    // window at a time.
    if (end > next_.capacity()) next_.reserve(end + end / 8);
    next_.resize(end, kNoRow);
    for (std::size_t row = end; row-- > first;) {
      if (keep(row)) Link(store, static_cast<std::uint32_t>(row));
    }
    return end - first;
  }

  /// Calls `visit(row)` for every row on the chain of the key whose values
  /// (one per position) start at `values`. Requires built().
  template <typename Visit>
  void ForEachRow(const ColumnStore& store, const Value* values,
                  Visit&& visit) {
    for (std::size_t i = 0; i < positions_.size(); ++i) {
      codes_[i] = store.dict().CodeOf(values[i]);
      if (codes_[i] == ValueDictionary::kNoCode) return;
    }
    const std::uint64_t hash = HashWords(codes_.data(), codes_.size());
    for (std::uint32_t row = heads_[Find(store, hash)]; row != kNoRow;
         row = next_[row]) {
      visit(row);
    }
  }

 private:
  using Heads = SlotTable<kLoadNum, kLoadDen>;

  /// Reads `row`'s key into `codes_`; returns its hash.
  std::uint64_t ReadKey(const ColumnStore& store, std::uint32_t row) {
    for (std::size_t i = 0; i < positions_.size(); ++i) {
      codes_[i] = store.CodeAt(row, positions_[i]);
    }
    return HashWords(codes_.data(), codes_.size());
  }

  /// Slot whose chain carries `codes_` (hashing to `hash`), or the free
  /// slot where it would go.
  std::size_t Find(const ColumnStore& store, std::uint64_t hash) const {
    return heads_.Find(hash, [&](std::uint32_t head) {
      for (std::size_t i = 0; i < positions_.size(); ++i) {
        if (store.CodeAt(head, positions_[i]) != codes_[i]) return false;
      }
      return true;
    });
  }

  void Link(const ColumnStore& store, std::uint32_t row) {
    if (!heads_.Fits(keys_ + 1)) Grow(store);
    const std::size_t slot = Find(store, ReadKey(store, row));
    if (heads_[slot] == kNoRow) ++keys_;
    next_[row] = heads_[slot];
    heads_[slot] = row;
  }

  /// Rebuilds the head table to fit one more key, re-seating every chain by
  /// its head row's codes.
  void Grow(const ColumnStore& store) {
    const Heads old = std::move(heads_);  // leaves heads_ empty
    heads_.Reserve(keys_ + 1, [&](auto place) {
      for (std::size_t slot = 0; slot < old.capacity(); ++slot) {
        if (old[slot] != kNoRow) place(old[slot], ReadKey(store, old[slot]));
      }
    });
  }

  std::vector<int> positions_;
  Heads heads_;                       // slot -> chain head row, or kNoRow
  std::vector<std::uint32_t> next_;   // row -> next row of its key
  std::size_t keys_ = 0;              // occupied slots
  std::vector<std::uint32_t> codes_;  // the key being linked or looked up
};

/// A flat table of fixed-width Value keys with a u32 count each: id i's
/// key is values_[i * width, (i + 1) * width), and a SlotTable (load <= 1/2)
/// maps a key to its id. A key at count 0 reads as absent to CountOf and
/// keeps its id for when it comes back. Per key that is its values, 4 bytes
/// of count and 8-16 bytes of slots: no heap node, no Tuple.
class KeyCounts {
 public:
  explicit KeyCounts(std::size_t width = 0) : width_(width) {}

  std::size_t width() const { return width_; }
  /// Keys held, zero-count ones included; ids are [0, size()).
  std::size_t size() const { return counts_.size(); }
  const Value* key(std::uint32_t id) const {
    return values_.data() + id * width_;
  }
  std::uint32_t count(std::uint32_t id) const { return counts_[id]; }
  std::uint32_t& count(std::uint32_t id) { return counts_[id]; }

  /// Id of the key whose width() values start at `key`, added at count 0
  /// when new.
  std::uint32_t Insert(const Value* key) {
    slots_.Reserve(size() + 1, [this](auto place) {
      for (std::uint32_t id = 0; id < size(); ++id) {
        place(id, HashWords(this->key(id), width_));
      }
    });
    const std::size_t slot = Find(key);
    if (slots_[slot] != Slots::kEmpty) return slots_[slot];
    const auto id = static_cast<std::uint32_t>(size());
    slots_[slot] = id;
    values_.insert(values_.end(), key, key + width_);
    counts_.push_back(0);
    return id;
  }

  /// The count of `key`; 0 when it was never inserted.
  std::uint32_t CountOf(const Value* key) const {
    if (slots_.empty()) return 0;
    const std::uint32_t id = slots_[Find(key)];
    return id == Slots::kEmpty ? 0 : counts_[id];
  }

 private:
  using Slots = SlotTable<1, 2>;

  std::size_t Find(const Value* key) const {
    return slots_.Find(HashWords(key, width_), [this, key](std::uint32_t id) {
      const Value* held = this->key(id);
      for (std::size_t i = 0; i < width_; ++i) {
        if (held[i] != key[i]) return false;
      }
      return true;
    });
  }

  std::size_t width_;
  std::vector<Value> values_;
  std::vector<std::uint32_t> counts_;
  Slots slots_;
};

/// The functional-dependency pass lhs -> rhs over `store`'s live rows, in
/// row order: calls `visit(row, first)`, where `first` is the rhs value of
/// the first live row carrying `row`'s lhs values (first row wins). A
/// KeyCounts over the lhs key names each key by a dense id, and one
/// first-dependent value per id sits in a vector. `visit` returns false to
/// stop; the pass returns false iff it was stopped.
template <typename Visit>
bool ForEachFirstDependent(const ColumnStore& store,
                           const std::vector<int>& lhs, int rhs,
                           Visit&& visit) {
  KeyCounts keys(lhs.size());
  std::vector<Value> first;
  std::vector<Value> key(lhs.size());
  for (std::size_t row = 0; row < store.size(); ++row) {
    if (!store.IsLive(row)) continue;
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      key[i] = store.ValueAt(row, lhs[i]);
    }
    const std::uint32_t id = keys.Insert(key.data());
    if (id == first.size()) first.push_back(store.ValueAt(row, rhs));
    if (!visit(row, first[id])) return false;
  }
  return true;
}

}  // namespace cqbounds

#endif  // CQBOUNDS_RELATION_KEY_INDEX_H_
