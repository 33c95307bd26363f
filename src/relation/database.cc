#include "relation/database.h"

#include <cstring>

namespace cqbounds {

namespace {

/// 64-bit hash of a spelling, built for short tokens (text values are
/// mostly short decimal runs). The length is mixed in first, so spellings
/// that differ only in trailing NULs differ. Up to 8 bytes are read as at
/// most two overlapping fixed-size loads and go straight to the SplitMix64
/// finalizer; a longer spelling folds in 8-byte words by multiply and
/// xor-shift and ends on an overlapping load of its last 8 bytes. The
/// finalizer makes every bit of the hash depend on every byte.
std::uint64_t HashSpelling(std::string_view s) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  const char* p = s.data();
  std::size_t n = s.size();
  std::uint64_t h = static_cast<std::uint64_t>(n) * kMul;
  std::uint64_t word = 0;
  if (n >= 4 && n <= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + n - 4, 4);
    word = (std::uint64_t{lo} << 32) | hi;
  } else if (n > 0 && n < 4) {
    const auto byte = [p](std::size_t i) {
      return std::uint64_t{static_cast<unsigned char>(p[i])};
    };
    word = (byte(0) << 16) | (byte(n >> 1) << 8) | byte(n - 1);
  } else if (n > 8) {
    for (; n > 8; p += 8, n -= 8) {
      std::memcpy(&word, p, 8);
      h = (h ^ word) * kMul;
      h ^= h >> 32;
    }
    std::memcpy(&word, p + n - 8, 8);
  }
  h ^= word;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace

Value ValuePool::Intern(std::string_view spelling) {
  // Keep the load bound, counting the spelling about to be minted. A
  // rebuild hashes every spelling again from the arena.
  slots_.Reserve(size() + 1, [this](auto place) {
    for (std::size_t id = 0; id < size(); ++id) {
      place(static_cast<std::uint32_t>(id),
            HashSpelling(SpellingView(static_cast<Value>(id))));
    }
  });
  const std::size_t slot =
      slots_.Find(HashSpelling(spelling), [this, spelling](std::uint32_t id) {
        return SpellingView(static_cast<Value>(id)) == spelling;
      });
  if (slots_[slot] != kNoId) return static_cast<Value>(slots_[slot]);
  CQB_CHECK(size() < kNoId);
  const auto id = static_cast<std::uint32_t>(size());
  slots_[slot] = id;
  arena_.append(spelling);
  offsets_.push_back(arena_.size());
  return static_cast<Value>(id);
}

void ValuePool::Truncate(std::size_t size) {
  CQB_CHECK(size <= this->size());
  if (size == this->size()) return;
  arena_.resize(offsets_[size]);
  offsets_.resize(size + 1);
  slots_ = SlotTable<2, 3>();  // the next Intern rebuilds it
}

std::string ValuePool::Spelling(Value id) const {
  if (id < 0 || id >= static_cast<Value>(size())) {
    return "?" + std::to_string(id);
  }
  return std::string(SpellingView(id));
}

Relation* Database::AddRelation(const std::string& name, int arity) {
  auto it = relations_.find(name);
  if (it != relations_.end()) {
    // Arity-mismatched re-declaration: a recoverable schema conflict (the
    // caller may be loading untrusted input), not a programming error --
    // report it by returning null instead of aborting the process.
    if (it->second.arity() != arity) return nullptr;
    return &it->second;
  }
  auto [inserted, ok] = relations_.emplace(name, Relation(name, arity));
  (void)ok;
  return &inserted->second;
}

void Database::RemoveRelation(const std::string& name) {
  relations_.erase(name);
}

const Relation* Database::Find(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

Relation* Database::FindMutable(const std::string& name) {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

Result<std::size_t> Database::RMax(const Query& query) const {
  std::size_t rmax = 0;
  for (const Atom& atom : query.atoms()) {
    const Relation* r = Find(atom.relation);
    if (r == nullptr) {
      return Status::NotFound("rmax: relation '" + atom.relation +
                              "' missing from database");
    }
    rmax = std::max(rmax, r->size());
  }
  return rmax;
}

std::size_t Database::MaxRelationSize() const {
  std::size_t rmax = 0;
  for (const auto& [name, rel] : relations_) {
    rmax = std::max(rmax, rel.size());
  }
  return rmax;
}

Status Database::CheckFds(const Query& query) const {
  for (const FunctionalDependency& fd : query.fds()) {
    const Relation* r = Find(fd.relation);
    if (r == nullptr) continue;  // vacuously true
    if (!r->SatisfiesFd(fd.lhs, fd.rhs)) {
      std::string positions;
      for (int p : fd.lhs) positions += std::to_string(p + 1) + " ";
      return Status::FailedPrecondition(
          "relation '" + fd.relation + "' violates FD " + positions + "-> " +
          std::to_string(fd.rhs + 1));
    }
  }
  return Status::OK();
}

}  // namespace cqbounds
