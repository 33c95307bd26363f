#ifndef CQBOUNDS_RELATION_SLOT_TABLE_H_
#define CQBOUNDS_RELATION_SLOT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cqbounds {

/// The relation layer's one open-addressing index: a power-of-two array of
/// u32 ids, linear probing, grown by rebuilding. It stores ids only. The
/// caller owns the keys and hands each call the key's 64-bit hash and a
/// "this id holds the key" test as inlined functors (no std::function,
/// nothing virtual), so a probe compiles to a bare loop. Every hash index
/// of the relation layer is a thin keyed view on it; docs/STORAGE.md lists
/// them with their load bounds.
///
/// A hash goes to its home slot by Fibonacci hashing, the top
/// log2(capacity) bits of hash * 2^64/phi, which depend on every bit of the
/// hash: a caller may pass a raw key (the dictionary passes the value) or
/// a cheap fold (HashWords). Reserve keeps the ids at or under
/// kLoadNum/kLoadDen of the slots, from 16 slots up, in powers of two.
template <std::size_t kLoadNum, std::size_t kLoadDen>
class SlotTable {
 public:
  /// Free-slot sentinel; an indexed id is always below it.
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;

  bool empty() const { return slots_.empty(); }
  std::size_t capacity() const { return slots_.size(); }
  std::uint32_t operator[](std::size_t slot) const { return slots_[slot]; }
  std::uint32_t& operator[](std::size_t slot) { return slots_[slot]; }

  /// True iff `n` ids fit at the current capacity.
  bool Fits(std::size_t n) const {
    return n * kLoadDen <= slots_.size() * kLoadNum;
  }

  /// The slot holding the id `holds` accepts, or the free slot where such
  /// an id would go. Requires a non-empty table.
  template <typename Holds>
  std::size_t Find(std::uint64_t hash, Holds&& holds) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t slot = static_cast<std::size_t>((hash * kFib) >> shift_);;
         slot = (slot + 1) & mask) {
      const std::uint32_t id = slots_[slot];
      if (id == kEmpty || holds(id)) return slot;
    }
  }

  /// Makes room for `n` ids. An empty or too-small table is rebuilt at the
  /// smallest capacity that fits them: the old table is freed first, so a
  /// rebuild never holds two, then `place_all(place)` calls
  /// `place(id, hash)` once per id to keep. Kept ids hold distinct keys,
  /// so each goes to the first free slot of its probe run.
  template <typename PlaceAll>
  void Reserve(std::size_t n, PlaceAll&& place_all) {
    if (!slots_.empty() && Fits(n)) return;
    std::size_t capacity = 16;
    while (n * kLoadDen > capacity * kLoadNum) capacity <<= 1;
    std::vector<std::uint32_t>().swap(slots_);
    slots_.assign(capacity, kEmpty);
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    place_all([this](std::uint32_t id, std::uint64_t hash) {
      slots_[Find(hash, [](std::uint32_t) { return false; })] = id;
    });
  }

 private:
  static constexpr std::uint64_t kFib = 0x9e3779b97f4a7c15ull;

  std::vector<std::uint32_t> slots_;  // slot -> id, kEmpty when free
  int shift_ = 64;                    // 64 - log2(capacity)
};

/// Folds `n` words into a SlotTable hash, h = h * 2^64/phi ^ word per word.
/// The table's own multiply finishes the mix, so a one-word key hashes
/// exactly as a Fibonacci hash of the word.
template <typename Word>
std::uint64_t HashWords(const Word* words, std::size_t n) {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < n; ++i) {
    h = (h * 0x9e3779b97f4a7c15ull) ^ static_cast<std::uint64_t>(words[i]);
  }
  return h;
}

}  // namespace cqbounds

#endif  // CQBOUNDS_RELATION_SLOT_TABLE_H_
