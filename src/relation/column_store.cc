#include "relation/column_store.h"

#include <algorithm>

namespace cqbounds {

std::uint32_t ValueDictionary::Intern(Value v) {
  // Keep the load bound, counting the value about to be minted.
  slots_.Reserve(values_.size() + 1, [this](auto place) {
    for (std::size_t code = 0; code < values_.size(); ++code) {
      place(static_cast<std::uint32_t>(code),
            static_cast<std::uint64_t>(values_[code]));
    }
  });
  const std::size_t slot = ProbeSlot(v);
  if (slots_[slot] != kNoCode) return slots_[slot];
  CQB_CHECK(values_.size() < kNoCode);
  const auto code = static_cast<std::uint32_t>(values_.size());
  slots_[slot] = code;
  values_.push_back(v);
  return code;
}

ColumnStore::ColumnStore(int arity) : arity_(arity) {
  CQB_CHECK(arity >= 0);
  columns_.resize(static_cast<std::size_t>(arity));
  scratch_.resize(static_cast<std::size_t>(arity));
}

void ColumnStore::CopyRow(std::size_t row, Tuple* out) const {
  out->resize(static_cast<std::size_t>(arity_));
  for (int c = 0; c < arity_; ++c) (*out)[static_cast<std::size_t>(c)] = ValueAt(row, c);
}

Tuple ColumnStore::Row(std::size_t row) const {
  Tuple t;
  CopyRow(row, &t);
  return t;
}

std::size_t ColumnStore::ProbeSlot(const std::uint32_t* codes) const {
  return slots_.Find(HashWords(codes, static_cast<std::size_t>(arity_)),
                     [this, codes](std::uint32_t row) {
                       for (int c = 0; c < arity_; ++c) {
                         if (CodeAt(row, c) != codes[c]) return false;
                       }
                       return true;
                     });
}

void ColumnStore::ReserveRows(std::size_t rows) {
  // A rebuild places the live rows only. A tombstoned row stays unindexed:
  // next to a live re-append of its tuple it would make two slots match
  // one code-set, and a probe stopping at the dead one would report the
  // live tuple absent.
  slots_.Reserve(rows, [this](auto place) {
    std::vector<std::uint32_t> codes(static_cast<std::size_t>(arity_));
    for (std::size_t row = 0; row < rows_; ++row) {
      if (!IsLive(row)) continue;
      for (int c = 0; c < arity_; ++c) {
        codes[static_cast<std::size_t>(c)] = CodeAt(row, c);
      }
      place(static_cast<std::uint32_t>(row),
            HashWords(codes.data(), codes.size()));
    }
  });
}

bool ColumnStore::AppendCodedRow(const std::uint32_t* codes) {
  ReserveRows(rows_ + 1);
  const std::size_t slot = ProbeSlot(codes);
  const bool over_dead =
      slots_[slot] != kEmptySlot && !IsLive(slots_[slot]);
  if (slots_[slot] != kEmptySlot && !over_dead) return false;
  CQB_CHECK(rows_ < kEmptySlot);
  // Re-appending a tombstoned tuple mints a NEW physical row (ids never
  // resurrect, so journaled removals stay valid) and re-points the dead
  // row's slot at it, keeping one indexed slot per code-set.
  slots_[slot] = static_cast<std::uint32_t>(rows_);
  for (int c = 0; c < arity_; ++c) {
    columns_[static_cast<std::size_t>(c)].push_back(codes[c]);
  }
  if (!dead_.empty()) dead_.push_back(false);
  ++rows_;
  return true;
}

void ColumnStore::RecordAppend(std::size_t first_row, std::size_t added,
                               bool seal) {
  if (added == 0) return;
  // Single appends coalesce into the trailing segment -- unless it was
  // sealed by a batch, whose boundary must survive later appends.
  if (!seal && !trailing_sealed_ && !segments_.empty() &&
      segments_.back().end == first_row) {
    segments_.back().end = first_row + added;
    return;
  }
  segments_.push_back(Segment{first_row, first_row + added});
  trailing_sealed_ = seal;
}

std::uint32_t ColumnStore::LiveRowOf(const Tuple& t,
                                     std::uint32_t* codes) const {
  CQB_CHECK(static_cast<int>(t.size()) == arity_);
  if (live_size() == 0) return kEmptySlot;
  for (int c = 0; c < arity_; ++c) {
    codes[c] = dict_.CodeOf(t[static_cast<std::size_t>(c)]);
    if (codes[c] == ValueDictionary::kNoCode) return kEmptySlot;
  }
  const std::uint32_t row = slots_[ProbeSlot(codes)];
  return row != kEmptySlot && IsLive(row) ? row : kEmptySlot;
}

bool ColumnStore::Contains(const Tuple& t) const {
  std::vector<std::uint32_t> codes(static_cast<std::size_t>(arity_));
  return LiveRowOf(t, codes.data()) != kEmptySlot;
}

bool ColumnStore::Append(const Tuple& t) {
  CQB_CHECK(static_cast<int>(t.size()) == arity_);
  for (int c = 0; c < arity_; ++c) {
    scratch_[static_cast<std::size_t>(c)] =
        dict_.Intern(t[static_cast<std::size_t>(c)]);
  }
  const std::size_t first = rows_;
  if (!AppendCodedRow(scratch_.data())) return false;
  RecordAppend(first, 1, /*seal=*/false);
  return true;
}

std::size_t ColumnStore::AppendBatch(const std::vector<Tuple>& batch) {
  std::vector<RowSpan> spans;
  spans.reserve(batch.size());
  for (const Tuple& t : batch) {
    CQB_CHECK(static_cast<int>(t.size()) == arity_);
    spans.push_back(RowSpan{t.data(), 1});
  }
  return AppendRows(spans.data(), spans.size());
}

std::size_t ColumnStore::AppendRows(const RowSpan* spans,
                                    std::size_t num_spans) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < num_spans; ++i) total += spans[i].rows;
  // Pre-size once for the whole batch. Columns grow geometrically, so a
  // caller landing many small batches stays amortized O(1) per row.
  const std::size_t want = rows_ + total;
  ReserveRows(want);
  for (auto& col : columns_) {
    if (col.capacity() < want) col.reserve(std::max(want, 2 * col.capacity()));
  }
  const std::size_t first = rows_;
  std::size_t added = 0;
  const std::size_t width = static_cast<std::size_t>(arity_);
  for (std::size_t i = 0; i < num_spans; ++i) {
    const Value* values = spans[i].values;
    for (std::size_t r = 0; r < spans[i].rows; ++r) {
      for (std::size_t c = 0; c < width; ++c) {
        scratch_[c] = dict_.Intern(values[r * width + c]);
      }
      if (AppendCodedRow(scratch_.data())) ++added;
    }
  }
  RecordAppend(first, added, /*seal=*/true);
  return added;
}

std::size_t ColumnStore::AppendFlat(const std::vector<Value>& flat,
                                    std::size_t num_rows) {
  CQB_CHECK(flat.size() == num_rows * static_cast<std::size_t>(arity_));
  const RowSpan span{flat.data(), num_rows};
  return AppendRows(&span, 1);
}

ColumnStore::EraseResult ColumnStore::Erase(const Tuple& t,
                                            std::uint32_t* removed_row) {
  const std::uint32_t row = LiveRowOf(t, scratch_.data());
  if (row == kEmptySlot) return EraseResult::kNotFound;
  // Tombstone: columns and index untouched, every live row id stable. The
  // slot keeps pointing at the dead row so a re-append of the same tuple
  // can re-point it in place.
  if (dead_.empty()) dead_.assign(rows_, false);
  dead_[row] = true;
  ++dead_count_;
  if (removed_row != nullptr) *removed_row = row;
  // Deferred compaction: once more than a quarter of the physical rows are
  // dead, the O(size * arity) rewrite amortizes against the removals that
  // earned it.
  if (dead_count_ * 4 > rows_) {
    Compact();
    return EraseResult::kCompacted;
  }
  return EraseResult::kTombstoned;
}

void ColumnStore::Compact() {
  // Re-intern the live rows' values into a fresh dictionary, in row order,
  // while moving their codes down: the codes of values whose rows all died
  // go with them, so the dictionary stays bounded by the live set. `remap`
  // carries each old code to its new one (kNoCode until first seen).
  ValueDictionary fresh;
  std::vector<std::uint32_t> remap(dict_.size(), ValueDictionary::kNoCode);
  std::size_t write = 0;
  for (std::size_t row = 0; row < rows_; ++row) {
    if (!IsLive(row)) continue;
    for (int c = 0; c < arity_; ++c) {
      std::vector<std::uint32_t>& col = columns_[static_cast<std::size_t>(c)];
      std::uint32_t& code = remap[col[row]];
      if (code == ValueDictionary::kNoCode) {
        code = fresh.Intern(dict_.ValueOf(col[row]));
      }
      col[write] = code;
    }
    ++write;
  }
  dict_ = std::move(fresh);
  for (auto& col : columns_) col.resize(write);
  rows_ = write;
  dead_.clear();
  dead_count_ = 0;
  slots_ = RowIndex();
  ReserveRows(rows_);
  segments_.clear();
  if (rows_ != 0) segments_.push_back(Segment{0, rows_});
  trailing_sealed_ = false;
}

void ColumnStore::Clear() {
  dict_ = ValueDictionary();
  for (auto& col : columns_) col.clear();
  rows_ = 0;
  dead_.clear();
  dead_count_ = 0;
  slots_ = RowIndex();
  segments_.clear();
  trailing_sealed_ = false;
}

ColumnStats ColumnStore::Stats(int col) const {
  CQB_CHECK(col >= 0 && col < arity_);
  ColumnStats stats;
  if (live_size() == 0) return stats;
  const std::vector<std::uint32_t>& codes =
      columns_[static_cast<std::size_t>(col)];
  std::vector<bool> seen(dict_.size(), false);
  bool seeded = false;
  for (std::size_t row = 0; row < rows_; ++row) {
    if (!IsLive(row)) continue;
    const std::uint32_t code = codes[row];
    if (seen[code]) continue;
    seen[code] = true;
    ++stats.distinct;
    const Value v = dict_.ValueOf(code);
    if (!seeded) {
      stats.min = stats.max = v;
      seeded = true;
    } else {
      stats.min = std::min(stats.min, v);
      stats.max = std::max(stats.max, v);
    }
  }
  return stats;
}

}  // namespace cqbounds
