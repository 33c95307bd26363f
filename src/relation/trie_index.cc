#include "relation/trie_index.h"

#include <algorithm>
#include <array>
#include <atomic>

namespace cqbounds {

namespace {

std::atomic<std::uint64_t> g_radix_builds{0};
std::atomic<std::uint64_t> g_merge_builds{0};
std::atomic<std::uint64_t> g_delta_keys_compared{0};
std::atomic<std::uint64_t> g_tuple_materializations{0};

/// Maps a signed Value onto uint64 preserving order: flipping the sign bit
/// makes unsigned byte-wise comparison agree with signed comparison.
inline std::uint64_t BiasValue(Value v) {
  return static_cast<std::uint64_t>(v) ^ (1ull << 63);
}

inline Value UnbiasKey(std::uint64_t k) {
  return static_cast<Value>(k ^ (1ull << 63));
}

/// Lexicographic compare of two packed keys of `depth` words.
inline int CompareKeys(const std::uint64_t* a, const std::uint64_t* b,
                       int depth) {
  for (int l = 0; l < depth; ++l) {
    if (a[l] < b[l]) return -1;
    if (a[l] > b[l]) return 1;
  }
  return 0;
}

/// Stable LSD radix sort of the row permutation `idx` by the packed keys
/// (lexicographic across levels, most significant level last in pass
/// order). Each pass is an 8-bit counting sort; per level, passes above the
/// highest byte where that level's min and max keys differ are skipped --
/// every key in [min, max] shares that byte prefix -- so narrow-domain
/// levels cost one or two passes, not eight.
void RadixSortIndices(const std::vector<std::uint64_t>& keys, std::size_t m,
                      int depth, const std::vector<std::uint64_t>& key_min,
                      const std::vector<std::uint64_t>& key_max,
                      std::vector<std::uint32_t>* idx) {
  std::vector<std::uint32_t> tmp(m);
  std::array<std::size_t, 256> count;
  for (int l = depth - 1; l >= 0; --l) {
    const std::uint64_t lo = key_min[static_cast<std::size_t>(l)];
    const std::uint64_t hi = key_max[static_cast<std::size_t>(l)];
    if (lo == hi) continue;  // Constant column: already in order.
    int top = 7;
    while (((lo >> (8 * top)) & 0xFF) == ((hi >> (8 * top)) & 0xFF)) --top;
    for (int b = 0; b <= top; ++b) {
      const int shift = 8 * b;
      count.fill(0);
      for (std::size_t i = 0; i < m; ++i) {
        const std::uint64_t k =
            keys[static_cast<std::size_t>((*idx)[i]) * depth +
                 static_cast<std::size_t>(l)];
        ++count[(k >> shift) & 0xFF];
      }
      std::size_t sum = 0;
      for (std::size_t j = 0; j < 256; ++j) {
        const std::size_t c = count[j];
        count[j] = sum;
        sum += c;
      }
      for (std::size_t i = 0; i < m; ++i) {
        const std::uint32_t row = (*idx)[i];
        const std::uint64_t k = keys[static_cast<std::size_t>(row) * depth +
                                     static_cast<std::size_t>(l)];
        tmp[count[(k >> shift) & 0xFF]++] = row;
      }
      idx->swap(tmp);
    }
  }
}

/// Radix-sorts the packed `keys` (m rows of `depth` words) and collapses
/// duplicates: `*sorted` receives the distinct sorted key stream and
/// `*counts` one multiplicity per distinct key. Returns the distinct
/// count. Shared by the build and the delta constructor.
std::size_t SortCountKeys(const std::vector<std::uint64_t>& keys,
                          std::size_t m, int depth,
                          const std::vector<std::uint64_t>& key_min,
                          const std::vector<std::uint64_t>& key_max,
                          std::vector<std::uint64_t>* sorted,
                          std::vector<std::uint32_t>* counts) {
  std::vector<std::uint32_t> idx(m);
  for (std::size_t i = 0; i < m; ++i) idx[i] = static_cast<std::uint32_t>(i);
  RadixSortIndices(keys, m, depth, key_min, key_max, &idx);
  sorted->clear();
  sorted->reserve(m * static_cast<std::size_t>(depth));
  counts->clear();
  counts->reserve(m);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t* key =
        keys.data() + static_cast<std::size_t>(idx[i]) * depth;
    if (kept > 0 &&
        CompareKeys(sorted->data() + (kept - 1) * depth, key, depth) == 0) {
      ++counts->back();
      continue;
    }
    sorted->insert(sorted->end(), key, key + depth);
    counts->push_back(1);
    ++kept;
  }
  return kept;
}

}  // namespace

TrieBuildStats GetTrieBuildStats() {
  TrieBuildStats stats;
  stats.radix_builds = g_radix_builds.load(std::memory_order_relaxed);
  stats.merge_builds = g_merge_builds.load(std::memory_order_relaxed);
  stats.delta_keys_compared =
      g_delta_keys_compared.load(std::memory_order_relaxed);
  stats.tuple_materializations =
      g_tuple_materializations.load(std::memory_order_relaxed);
  return stats;
}

std::size_t TrieIndex::ExtractKeys(
    const ColumnStore& store, const std::vector<std::uint32_t>* rows,
    const std::vector<std::vector<int>>& level_positions,
    std::vector<std::uint64_t>* keys, std::vector<std::uint64_t>* key_min,
    std::vector<std::uint64_t>* key_max) {
  const int depth = static_cast<int>(level_positions.size());
  const std::size_t n = rows != nullptr ? rows->size() : store.size();
  keys->reserve(keys->size() + n * static_cast<std::size_t>(depth));
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t row = rows != nullptr ? (*rows)[i] : i;
    // Whole-store builds index the live set; explicit row lists are taken
    // as-is so delta paths can read tombstoned rows' still-intact columns.
    if (rows == nullptr && !store.IsLive(row)) continue;
    const std::size_t mark = keys->size();
    bool consistent = true;
    for (int l = 0; l < depth && consistent; ++l) {
      const std::vector<int>& positions = level_positions[l];
      const std::uint32_t code = store.CodeAt(row, positions.front());
      for (std::size_t p = 1; p < positions.size(); ++p) {
        // One dictionary per store: code equality is value equality.
        if (store.CodeAt(row, positions[p]) != code) {
          consistent = false;
          break;
        }
      }
      if (consistent) {
        keys->push_back(BiasValue(store.dict().ValueOf(code)));
      }
    }
    if (!consistent) {
      keys->resize(mark);
      continue;
    }
    for (int l = 0; l < depth; ++l) {
      const std::uint64_t k = (*keys)[mark + static_cast<std::size_t>(l)];
      std::uint64_t& lo = (*key_min)[static_cast<std::size_t>(l)];
      std::uint64_t& hi = (*key_max)[static_cast<std::size_t>(l)];
      if (kept == 0 || k < lo) lo = k;
      if (kept == 0 || k > hi) hi = k;
    }
    ++kept;
  }
  return kept;
}

void TrieIndex::BuildFromFlatKeys(const std::vector<std::uint64_t>& keys,
                                  std::size_t m, int depth,
                                  const std::vector<std::uint64_t>& key_min,
                                  const std::vector<std::uint64_t>& key_max) {
  // Write out the sorted, deduplicated key stream once (counting the rows
  // collapsed under each key as its support), then build the levels from it
  // in one scan.
  std::vector<std::uint64_t> sorted;
  std::vector<std::uint32_t> counts;
  const std::size_t kept =
      SortCountKeys(keys, m, depth, key_min, key_max, &sorted, &counts);
  BuildFromSortedFlat(sorted, kept, depth);
  SetCounts(std::move(counts));
}

void TrieIndex::SetCounts(std::vector<std::uint32_t>&& counts) {
  for (const std::uint32_t c : counts) {
    if (c != 1) {
      counts_ = std::move(counts);
      return;
    }
  }
  counts_.clear();
}

void TrieIndex::BuildFromSortedFlat(const std::vector<std::uint64_t>& keys,
                                    std::size_t m, int depth) {
  num_tuples_ = m;

  // One scan over the sorted keys builds every level: key i opens new nodes
  // at all levels past its common prefix with key i-1. A node's first-child
  // offset is recorded at creation (the next level's current size); the
  // trailing sentinel closes the last node of each level.
  levels_.resize(static_cast<std::size_t>(depth));
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t* key = keys.data() + i * depth;
    int split = 0;
    if (i > 0) {
      const std::uint64_t* prev = key - depth;
      while (split < depth && key[split] == prev[split]) ++split;
    }
    for (int l = split; l < depth; ++l) {
      if (l + 1 < depth) {
        levels_[l].child_begin.push_back(levels_[l + 1].values.size());
      }
      levels_[l].values.push_back(UnbiasKey(key[l]));
    }
  }
  for (int l = 0; l + 1 < depth; ++l) {
    levels_[l].child_begin.push_back(levels_[l + 1].values.size());
  }
}

TrieIndex::TrieIndex(const Relation& rel,
                     const std::vector<std::vector<int>>& level_positions) {
  g_radix_builds.fetch_add(1, std::memory_order_relaxed);
  const int depth = static_cast<int>(level_positions.size());
  if (depth == 0) {
    // Zero key variables: the trie only records whether any tuple survives
    // the (vacuous) filters -- the atom acts as a boolean guard. The
    // support count remembers how many rows back it, so delta subtraction
    // knows when the guard flips off.
    root_support_ = rel.size();
    num_tuples_ = root_support_ != 0 ? 1 : 0;
    return;
  }
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> key_min(static_cast<std::size_t>(depth));
  std::vector<std::uint64_t> key_max(static_cast<std::size_t>(depth));
  const std::size_t m = ExtractKeys(rel.store(), nullptr, level_positions,
                                    &keys, &key_min, &key_max);
  BuildFromFlatKeys(keys, m, depth, key_min, key_max);
}

TrieIndex::TrieIndex(const RowView& view,
                     const std::vector<std::vector<int>>& level_positions) {
  g_radix_builds.fetch_add(1, std::memory_order_relaxed);
  const int depth = static_cast<int>(level_positions.size());
  if (depth == 0) {
    root_support_ = view.size();
    num_tuples_ = root_support_ != 0 ? 1 : 0;
    return;
  }
  CQB_CHECK(view.store != nullptr);
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> key_min(static_cast<std::size_t>(depth));
  std::vector<std::uint64_t> key_max(static_cast<std::size_t>(depth));
  const std::size_t m = ExtractKeys(*view.store, &view.rows, level_positions,
                                    &keys, &key_min, &key_max);
  BuildFromFlatKeys(keys, m, depth, key_min, key_max);
}

TrieIndex::TrieIndex(const TrieIndex& base, const RowView& appended,
                     const RowView& removed,
                     const std::vector<std::vector<int>>& level_positions) {
  g_merge_builds.fetch_add(1, std::memory_order_relaxed);
  const int depth = static_cast<int>(level_positions.size());
  CQB_CHECK(base.num_levels() == depth);
  if (depth == 0) {
    // No key variables, so every row is vacuously self-consistent and the
    // guard is pure arithmetic on row counts.
    CQB_CHECK(base.root_support_ + appended.size() >= removed.size());
    root_support_ = base.root_support_ + appended.size() - removed.size();
    num_tuples_ = root_support_ != 0 ? 1 : 0;
    return;
  }

  // Both delta sides go through the same extract/sort/count path as the
  // base build, so self-inconsistent rows are filtered symmetrically and
  // the multiset arithmetic below is exact.
  auto sorted_delta = [&level_positions, depth](
                          const RowView& view, std::vector<std::uint64_t>* out,
                          std::vector<std::uint32_t>* out_counts) {
    if (view.empty()) return std::size_t{0};
    CQB_CHECK(view.store != nullptr);
    std::vector<std::uint64_t> keys;
    std::vector<std::uint64_t> key_min(static_cast<std::size_t>(depth));
    std::vector<std::uint64_t> key_max(static_cast<std::size_t>(depth));
    const std::size_t m = ExtractKeys(*view.store, &view.rows,
                                      level_positions, &keys, &key_min,
                                      &key_max);
    return SortCountKeys(keys, m, depth, key_min, key_max, out, out_counts);
  };
  std::vector<std::uint64_t> add;
  std::vector<std::uint32_t> addc;
  const std::size_t ak = sorted_delta(appended, &add, &addc);
  std::vector<std::uint64_t> sub;
  std::vector<std::uint32_t> subc;
  const std::size_t sk = sorted_delta(removed, &sub, &subc);

  // Per level, the node edits in key order. An edit names a base node
  // (kKeep: it stays, kErase: it goes) or the base node an inserted one
  // precedes (kInsert), plus the net change in its child count -- the
  // amount every later first-child offset of that level shifts by.
  enum class EditKind : std::uint8_t { kKeep, kErase, kInsert };
  struct Edit {
    std::size_t pos = 0;
    EditKind kind = EditKind::kKeep;
    Value value = 0;               // kInsert: the new node's key
    std::int64_t child_delta = 0;  // inner levels: net children gained
    std::uint32_t count = 0;       // last level: the key's new support
  };
  std::vector<std::vector<Edit>> edits(static_cast<std::size_t>(depth));
  // The path of the delta key being applied: one pending edit per level,
  // emitted once a later key leaves that node's subtree (so a node's fate
  // is known only after every delta key below it was applied).
  std::vector<Edit> path(static_cast<std::size_t>(depth));
  std::vector<std::size_t> base_children(static_cast<std::size_t>(depth));
  const auto close_level = [&](int l) {
    Edit& e = path[static_cast<std::size_t>(l)];
    const bool leaf = l + 1 == depth;
    if (e.kind == EditKind::kKeep &&
        (leaf ? e.count == 0
              : base_children[static_cast<std::size_t>(l)] +
                        static_cast<std::size_t>(e.child_delta) ==
                    0)) {
      e.kind = EditKind::kErase;
    }
    if (l > 0) {
      std::int64_t& parent = path[static_cast<std::size_t>(l - 1)].child_delta;
      if (e.kind == EditKind::kErase) --parent;
      if (e.kind == EditKind::kInsert) ++parent;
    }
    edits[static_cast<std::size_t>(l)].push_back(e);
  };

  // One pass over the merged delta streams. Each distinct delta key is
  // located in the base by one SeekGE per level inside its parent's child
  // range; below the first level where it is absent, its nodes are
  // new and sit before the base children of the node they precede.
  std::size_t ai = 0;
  std::size_t si = 0;
  const std::uint64_t* prev = nullptr;  // last applied delta key
  std::uint64_t located = 0;
  // where[l]: the key's level-l node in the base, or the base node its new
  // level-l node precedes; levels at and past `absent` are new.
  std::vector<std::size_t> where(static_cast<std::size_t>(depth));
  while (ai < ak || si < sk) {
    const int cmp = ai == ak   ? 1
                    : si == sk ? -1
                               : CompareKeys(add.data() + ai * depth,
                                             sub.data() + si * depth, depth);
    const std::uint64_t* key =
        cmp <= 0 ? add.data() + ai * depth : sub.data() + si * depth;
    const std::uint32_t plus = cmp <= 0 ? addc[ai++] : 0u;
    const std::uint32_t minus = cmp >= 0 ? subc[si++] : 0u;
    ++located;

    int absent = depth;
    std::size_t lo = 0;
    std::size_t hi = base.levels_[0].values.size();
    for (int l = 0; l < depth; ++l) {
      const Level& level = base.levels_[static_cast<std::size_t>(l)];
      std::size_t pos = lo;
      if (absent == depth) {
        pos = base.SeekGE(l, Range{lo, hi}, UnbiasKey(key[l]));
        if (pos == hi || level.values[pos] != UnbiasKey(key[l])) absent = l;
      }
      where[static_cast<std::size_t>(l)] = pos;
      if (l + 1 < depth) {
        // A present node's children are its child range; a new node's
        // children go where the base children of the node it precedes
        // begin.
        lo = level.child_begin[pos];
        hi = absent == depth ? level.child_begin[pos + 1] : lo;
      }
    }
    const bool found = absent == depth;
    const std::uint32_t base_count =
        found ? base.CountOf(where[static_cast<std::size_t>(depth - 1)]) : 0u;
    // A removed key must be supported by the base or the appended rows, and
    // no key's support may go negative -- either is a journal bug upstream.
    CQB_CHECK(minus == 0 || found || plus > 0);
    const std::int64_t net = static_cast<std::int64_t>(base_count) + plus -
                             static_cast<std::int64_t>(minus);
    CQB_CHECK(net >= 0);
    if (!found && net == 0) continue;  // appended and removed: no node

    int split = 0;
    if (prev != nullptr) {
      while (prev[split] == key[split]) ++split;  // keys are distinct
      for (int l = depth - 1; l >= split; --l) close_level(l);
    }
    for (int l = split; l < depth; ++l) {
      const Level& level = base.levels_[static_cast<std::size_t>(l)];
      Edit& e = path[static_cast<std::size_t>(l)];
      e = Edit{};
      e.pos = where[static_cast<std::size_t>(l)];
      e.kind = l < absent ? EditKind::kKeep : EditKind::kInsert;
      e.value = UnbiasKey(key[l]);
      if (l + 1 < depth && l < absent) {
        base_children[static_cast<std::size_t>(l)] =
            level.child_begin[e.pos + 1] - level.child_begin[e.pos];
      }
    }
    path[static_cast<std::size_t>(depth - 1)].count =
        static_cast<std::uint32_t>(net);
    prev = key;
  }
  if (prev != nullptr) {
    for (int l = depth - 1; l >= 0; --l) close_level(l);
  }
  g_delta_keys_compared.fetch_add(located, std::memory_order_relaxed);

  // Splice every level: untouched runs of the base arrays are bulk-copied,
  // first-child offsets shifted by the running child-count change of the
  // nodes before them.
  levels_.resize(static_cast<std::size_t>(depth));
  std::vector<std::uint32_t> counts;
  bool explicit_counts = !base.counts_.empty();
  for (const Edit& e : edits[static_cast<std::size_t>(depth - 1)]) {
    if (e.kind != EditKind::kErase && e.count != 1) explicit_counts = true;
  }
  for (int l = 0; l < depth; ++l) {
    const Level& from = base.levels_[static_cast<std::size_t>(l)];
    Level& to = levels_[static_cast<std::size_t>(l)];
    const bool inner = l + 1 < depth;
    const bool leaf_counts = !inner && explicit_counts;
    const std::vector<Edit>& level_edits = edits[static_cast<std::size_t>(l)];
    to.values.reserve(from.values.size() + level_edits.size());
    if (inner) to.child_begin.reserve(from.child_begin.size() +
                                      level_edits.size());
    if (leaf_counts) counts.reserve(from.values.size() + level_edits.size());
    std::size_t cur = 0;
    std::size_t shift = 0;  // mod 2^64: adding it applies a signed shift
    const auto copy_run = [&](std::size_t end) {
      const auto first = static_cast<std::ptrdiff_t>(cur);
      const auto last = static_cast<std::ptrdiff_t>(end);
      to.values.insert(to.values.end(), from.values.begin() + first,
                       from.values.begin() + last);
      if (inner) {
        for (std::size_t i = cur; i < end; ++i) {
          to.child_begin.push_back(from.child_begin[i] + shift);
        }
      }
      if (leaf_counts) {
        if (base.counts_.empty()) {
          counts.resize(counts.size() + (end - cur), 1u);
        } else {
          counts.insert(counts.end(), base.counts_.begin() + first,
                        base.counts_.begin() + last);
        }
      }
      cur = end;
    };
    for (const Edit& e : level_edits) {
      copy_run(e.pos);
      if (e.kind != EditKind::kErase) {
        to.values.push_back(e.value);
        if (inner) to.child_begin.push_back(from.child_begin[e.pos] + shift);
        if (leaf_counts) counts.push_back(e.count);
      }
      if (e.kind != EditKind::kInsert) cur = e.pos + 1;
      shift += static_cast<std::size_t>(e.child_delta);
    }
    copy_run(from.values.size());
    if (inner) {
      to.child_begin.push_back(from.child_begin[from.values.size()] + shift);
    }
  }
  num_tuples_ = levels_[static_cast<std::size_t>(depth - 1)].values.size();
  if (explicit_counts) SetCounts(std::move(counts));
}

std::size_t TrieIndex::SeekWide(const Value* vals, std::size_t lo,
                                std::size_t end, Value v) {
  std::size_t hi = end - 1;
  if (vals[hi] < v) return end;
  // Interpolate under vals[lo] < v <= vals[hi]. The differences are exact
  // in uint64 (vals[hi] > vals[lo]) and their quotient lies in (0, 1], so
  // no pair of int64 values can overflow the guess or divide by zero, and
  // the guess lies in [lo + 1, hi].
  const auto base = static_cast<std::uint64_t>(vals[lo]);
  const double rise = static_cast<double>(static_cast<std::uint64_t>(v) - base);
  const double span =
      static_cast<double>(static_cast<std::uint64_t>(vals[hi]) - base);
  std::size_t guess =
      lo + static_cast<std::size_t>(rise / span * static_cast<double>(hi - lo));
  guess = std::min(std::max(guess, lo + 1), hi);
  // Gallop from the guess toward the answer, keeping vals[lo] < v <=
  // vals[hi], until the answer lies in (lo, hi] within one doubling.
  std::size_t step = 1;
  if (vals[guess] < v) {
    lo = guess;
    while (lo + step < hi && vals[lo + step] < v) {
      lo += step;
      step <<= 1;
    }
    hi = std::min(lo + step, hi);
  } else {
    hi = guess;
    while (hi - lo > step && vals[hi - step] >= v) {
      hi -= step;
      step <<= 1;
    }
    if (hi - lo > step) lo = hi - step;
  }
  return static_cast<std::size_t>(
      std::lower_bound(vals + lo + 1, vals + hi, v) - vals);
}

}  // namespace cqbounds
