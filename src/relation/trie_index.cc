#include "relation/trie_index.h"

#include <algorithm>
#include <array>
#include <atomic>

namespace cqbounds {

namespace {

std::atomic<std::uint64_t> g_radix_builds{0};
std::atomic<std::uint64_t> g_merge_builds{0};
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

void TrieIndex::EnumerateFlatKeys(std::vector<std::uint64_t>* out) const {
  const int depth = num_levels();
  if (depth == 0 || levels_[0].values.empty()) return;
  // Iterative DFS over the flat levels. stack[l] is the current node index
  // at level l; advancing past a node's sibling range pops back to level
  // l-1. Nodes within a sibling range are sorted and sibling ranges follow
  // parent order, so the walk emits keys in lexicographic order.
  std::vector<std::size_t> stack(static_cast<std::size_t>(depth));
  std::vector<Range> ranges(static_cast<std::size_t>(depth));
  std::vector<std::uint64_t> key(static_cast<std::size_t>(depth));
  ranges[0] = RootRange();
  stack[0] = 0;
  int l = 0;
  while (l >= 0) {
    if (stack[l] >= ranges[l].end) {
      --l;
      if (l >= 0) ++stack[l];
      continue;
    }
    key[l] = BiasValue(levels_[l].values[stack[l]]);
    if (l + 1 < depth) {
      ranges[l + 1] = ChildRange(l, stack[l]);
      stack[l + 1] = ranges[l + 1].begin;
      ++l;
    } else {
      out->insert(out->end(), key.begin(), key.end());
      ++stack[l];
    }
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

  std::vector<std::uint64_t> base_keys;
  base_keys.reserve(base.num_tuples_ * static_cast<std::size_t>(depth));
  base.EnumerateFlatKeys(&base_keys);
  const std::size_t bk = base_keys.size() / static_cast<std::size_t>(depth);

  // One sorted merge. The base and appended streams pick the current key
  // with a single comparison; the (usually short) removed stream is only
  // tested against that chosen key. Per distinct key the net support is
  // base + appended - removed, and the key survives iff it stays positive.
  std::vector<std::uint64_t> merged;
  merged.reserve(base_keys.size() + add.size());
  std::vector<std::uint32_t> counts;
  counts.reserve(bk + ak);
  std::size_t bi = 0;
  std::size_t ai = 0;
  std::size_t si = 0;
  while (ai < ak || si < sk) {
    // A removed key past both the base and the appended streams was never
    // supported: the removed stream must be fully consumed by the merge.
    CQB_CHECK(bi < bk || ai < ak);
    // < 0: base key first; > 0: appended key first; 0: equal keys.
    const int cmp = bi == bk   ? 1
                    : ai == ak ? -1
                               : CompareKeys(base_keys.data() + bi * depth,
                                             add.data() + ai * depth, depth);
    const std::uint64_t* key =
        cmp <= 0 ? base_keys.data() + bi * depth : add.data() + ai * depth;
    std::int64_t net = 0;
    if (cmp <= 0) net += base.CountOf(bi++);
    if (cmp >= 0) net += addc[ai++];
    if (si < sk) {
      const int rcmp = CompareKeys(sub.data() + si * depth, key, depth);
      // A removed key below the current one was skipped by both streams:
      // a removal named a row whose key nothing supported.
      CQB_CHECK(rcmp >= 0);
      if (rcmp == 0) net -= subc[si++];
    }
    // A negative net means a removal outnumbered the key's support -- a
    // journal bug upstream.
    CQB_CHECK(net >= 0);
    if (net > 0) {
      merged.insert(merged.end(), key, key + depth);
      counts.push_back(static_cast<std::uint32_t>(net));
    }
  }
  // Past the last delta key the base's remaining keys carry over verbatim.
  merged.insert(merged.end(),
                base_keys.begin() + static_cast<std::ptrdiff_t>(bi * depth),
                base_keys.end());
  if (base.counts_.empty()) {
    counts.resize(counts.size() + (bk - bi), 1u);
  } else {
    counts.insert(counts.end(),
                  base.counts_.begin() + static_cast<std::ptrdiff_t>(bi),
                  base.counts_.end());
  }

  BuildFromSortedFlat(merged, counts.size(), depth);
  SetCounts(std::move(counts));
}

std::size_t TrieIndex::SeekGE(int level, Range r, Value v) const {
  const std::vector<Value>& vals = levels_[level].values;
  if (r.empty() || vals[r.begin] >= v) return r.begin;
  // Gallop from the current position, then binary-search the final window.
  std::size_t lo = r.begin;
  std::size_t step = 1;
  while (lo + step < r.end && vals[lo + step] < v) {
    lo += step;
    step <<= 1;
  }
  const std::size_t hi = std::min(lo + step + 1, r.end);
  return static_cast<std::size_t>(
      std::lower_bound(vals.begin() + static_cast<std::ptrdiff_t>(lo),
                       vals.begin() + static_cast<std::ptrdiff_t>(hi), v) -
      vals.begin());
}

}  // namespace cqbounds
