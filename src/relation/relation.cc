#include "relation/relation.h"

#include <algorithm>

#include "relation/key_index.h"

namespace cqbounds {

bool Relation::Insert(const Tuple& t) {
  CQB_CHECK(static_cast<int>(t.size()) == arity());
  if (!store_.Append(t)) return false;
  ++generation_;
  return true;
}

std::size_t Relation::InsertRows(const ColumnStore::RowSpan* spans,
                                 std::size_t num_spans) {
  const std::size_t added = store_.AppendRows(spans, num_spans);
  generation_ += added;
  return added;
}

std::size_t Relation::InsertFlat(const std::vector<Value>& flat_values,
                                 std::size_t num_rows) {
  const std::size_t added = store_.AppendFlat(flat_values, num_rows);
  generation_ += added;
  return added;
}

bool Relation::Remove(const Tuple& t) {
  CQB_CHECK(static_cast<int>(t.size()) == arity());
  std::uint32_t row = 0;
  switch (store_.Erase(t, &row)) {
    case ColumnStore::EraseResult::kNotFound:
      return false;
    case ColumnStore::EraseResult::kTombstoned:
      ++generation_;
      removed_log_.push_back(RemovalEvent{generation_, row});
      return true;
    case ColumnStore::EraseResult::kCompacted:
      // The deferred compaction ran: row ids shifted, so every journaled
      // row id (including this removal's) is void. Hard break.
      ++generation_;
      structural_floor_ = generation_;
      removed_log_.clear();
      ++compactions_;
      return true;
  }
  return false;  // unreachable
}

void Relation::Clear() {
  // No-op only when the store holds no physical rows: a live-empty store
  // with tombstones still drops rows (and their ids) here.
  if (store_.size() == 0) return;
  store_.Clear();
  ++generation_;
  structural_floor_ = generation_;
  removed_log_.clear();
}

bool Relation::DeltasSince(std::uint64_t gen, DeltaSet* out) const {
  out->appended_rows.clear();
  out->removed_rows.clear();
  if (gen < structural_floor_ || gen > generation_) return false;
  // Every generation unit since `gen` is one appended physical row or one
  // journaled removal event; removal events past `gen` are a suffix of the
  // generation-ascending log.
  auto first_event = std::upper_bound(
      removed_log_.begin(), removed_log_.end(), gen,
      [](std::uint64_t g, const RemovalEvent& e) { return g < e.gen; });
  const std::size_t removals =
      static_cast<std::size_t>(removed_log_.end() - first_event);
  const std::size_t appended =
      static_cast<std::size_t>(generation_ - gen) - removals;
  CQB_CHECK(appended <= store_.size());
  const std::size_t first_row = store_.size() - appended;
  for (std::size_t row = first_row; row < store_.size(); ++row) {
    // A row appended and tombstoned inside the window nets out of both
    // lists.
    if (store_.IsLive(row)) {
      out->appended_rows.push_back(static_cast<std::uint32_t>(row));
    }
  }
  for (auto it = first_event; it != removed_log_.end(); ++it) {
    if (it->row < first_row) out->removed_rows.push_back(it->row);
  }
  std::sort(out->removed_rows.begin(), out->removed_rows.end());
  return true;
}

std::vector<Tuple> Relation::tuples() const {
  std::vector<Tuple> out;
  out.reserve(size());
  Tuple t;
  for (std::size_t row = 0; row < store_.size(); ++row) {
    if (!store_.IsLive(row)) continue;
    store_.CopyRow(row, &t);
    out.push_back(t);
  }
  return out;
}

Relation Relation::Project(const std::vector<int>& positions,
                           const std::string& result_name) const {
  for (int pos : positions) CQB_CHECK(pos >= 0 && pos < arity());
  Relation out(result_name, static_cast<int>(positions.size()));
  std::vector<Value> flat;
  flat.reserve(size() * positions.size());
  std::size_t live_rows = 0;
  for (std::size_t row = 0; row < store_.size(); ++row) {
    if (!store_.IsLive(row)) continue;
    for (int pos : positions) flat.push_back(store_.ValueAt(row, pos));
    ++live_rows;
  }
  out.InsertFlat(flat, live_rows);
  return out;
}

std::vector<Value> Relation::ColumnValues(int pos) const {
  CQB_CHECK(pos >= 0 && pos < arity());
  // Distinct codes via a dictionary-sized seen bitmap, then one sort of the
  // decoded values -- no per-row tree or hash nodes.
  std::vector<bool> seen(store_.dict().size(), false);
  std::vector<Value> values;
  const std::vector<std::uint32_t>& codes = store_.column(pos);
  for (std::size_t row = 0; row < store_.size(); ++row) {
    if (!store_.IsLive(row)) continue;
    const std::uint32_t code = codes[row];
    if (!seen[code]) {
      seen[code] = true;
      values.push_back(store_.dict().ValueOf(code));
    }
  }
  std::sort(values.begin(), values.end());
  return values;
}

std::vector<Value> Relation::ActiveDomain() const {
  std::vector<bool> seen(store_.dict().size(), false);
  std::vector<Value> values;
  for (int c = 0; c < arity(); ++c) {
    const std::vector<std::uint32_t>& codes = store_.column(c);
    for (std::size_t row = 0; row < store_.size(); ++row) {
      if (!store_.IsLive(row)) continue;
      const std::uint32_t code = codes[row];
      if (!seen[code]) {
        seen[code] = true;
        values.push_back(store_.dict().ValueOf(code));
      }
    }
  }
  std::sort(values.begin(), values.end());
  return values;
}

bool Relation::SatisfiesFd(const std::vector<int>& lhs, int rhs) const {
  for (int pos : lhs) CQB_CHECK(pos >= 0 && pos < arity());
  CQB_CHECK(rhs >= 0 && rhs < arity());
  return ForEachFirstDependent(
      store_, lhs, rhs, [this, rhs](std::size_t row, Value first) {
        return store_.ValueAt(row, rhs) == first;
      });
}

}  // namespace cqbounds
