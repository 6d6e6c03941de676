// The grammar merger's rule indexes: a 64-bit hash -> rule ids multimap
// that only grows.
//
// A flat open-addressing table in the style of DigramIndex: a
// power-of-two array of (key, value) slots probed linearly from a
// Fibonacci hash of the key, kNone marking an empty slot. Equal keys are
// all kept, and nothing is erased. An insert takes the first empty slot
// on its key's probe path, and slots never empty again, so a later entry
// sits further along that path than every earlier entry under its key:
// FindIf visits a key's values in insertion order. Growth re-inserts the
// old slots cluster by cluster, starting from an empty slot, which keeps
// that order. Compared with a std::unordered_map of vectors, an insert
// allocates nothing (after Reserve) and a lookup touches one contiguous
// run of slots.

#ifndef NTADOC_COMPRESS_HASH_MULTIMAP_H_
#define NTADOC_COMPRESS_HASH_MULTIMAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ntadoc::compress {

class HashMultimap {
 public:
  /// Slots of an empty map; the table doubles when an insert would fill
  /// more than half of it.
  static constexpr size_t kMinSlots = 16;

  /// Marks an empty slot, and FindIf's "no match"; never a value.
  static constexpr uint32_t kNone = 0xffffffffu;

  HashMultimap() : slots_(kMinSlots) {}

  /// Sizes the table so that `n` entries fit without growth.
  void Reserve(size_t n) {
    if (2 * n > slots_.size()) Rehash(std::bit_ceil(2 * n));
  }

  /// Adds `value` (not kNone) under `key`, after any values already
  /// there.
  void Insert(uint64_t key, uint32_t value) {
    if (2 * (size_ + 1) > slots_.size()) Rehash(2 * slots_.size());
    size_t i = Home(key);
    while (slots_[i].value != kNone) i = Next(i);
    slots_[i] = {key, value};
    ++size_;
  }

  /// The first value under `key`, in insertion order, for which
  /// pred(value) is true, or kNone.
  template <typename Pred>
  uint32_t FindIf(uint64_t key, Pred&& pred) const {
    for (size_t i = Home(key); slots_[i].value != kNone; i = Next(i)) {
      if (slots_[i].key == key && pred(slots_[i].value)) {
        return slots_[i].value;
      }
    }
    return kNone;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t value = kNone;
  };

  size_t Home(uint64_t key) const {
    return (key * 0x9E3779B97F4A7C15ULL) >> shift_;
  }
  size_t Next(size_t i) const { return (i + 1) & (slots_.size() - 1); }

  void Rehash(size_t num_slots) {
    std::vector<Slot> old(num_slots);
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(num_slots);
    // Start one past an empty slot (the table is at most half full), so
    // no probe cluster is cut at the array's end and each key's values
    // are re-inserted in their old probe order.
    size_t start = 0;
    while (old[start].value != kNone) ++start;
    const size_t mask = old.size() - 1;
    for (size_t k = 1; k <= old.size(); ++k) {
      const Slot& s = old[(start + k) & mask];
      if (s.value == kNone) continue;
      size_t i = Home(s.key);
      while (slots_[i].value != kNone) i = Next(i);
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  int shift_ = 64 - std::countr_zero(kMinSlots);  // 64 - log2(slots)
  size_t size_ = 0;
};

}  // namespace ntadoc::compress

#endif  // NTADOC_COMPRESS_HASH_MULTIMAP_H_
