// Sequitur's digram index: digram key -> the node that starts the
// digram's indexed occurrence.
//
// A flat open-addressing table: a power-of-two array of (key, node)
// slots probed linearly from a multiplicative hash of the key, node 0
// (Sequitur's null node) marking an empty slot. Erase shifts the rest of
// the probe cluster back instead of leaving a tombstone, so a lookup
// stops at the first empty slot however many digrams Sequitur has
// erased. Compared with a node-based std::unordered_map, an insert
// allocates nothing and a lookup touches one contiguous run of slots.

#ifndef NTADOC_COMPRESS_DIGRAM_INDEX_H_
#define NTADOC_COMPRESS_DIGRAM_INDEX_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ntadoc::compress {

class DigramIndex {
 public:
  /// Slots of an empty index; the table doubles when an insert would
  /// fill more than half of it.
  static constexpr size_t kMinSlots = 16;

  DigramIndex() : slots_(kMinSlots) {}

  /// The node indexed under `key`, or 0.
  uint32_t Find(uint64_t key) const {
    for (size_t i = Home(key);; i = Next(i)) {
      const Slot& s = slots_[i];
      if (s.node == 0 || s.key == key) return s.node;
    }
  }

  /// The node already indexed under `key`; if there is none, indexes
  /// `node` (non-zero) under it and returns 0.
  uint32_t FindOrInsert(uint64_t key, uint32_t node) {
    size_t i = Home(key);
    for (; slots_[i].node != 0; i = Next(i)) {
      if (slots_[i].key == key) return slots_[i].node;
    }
    if (2 * (size_ + 1) > slots_.size()) {
      Grow();
      for (i = Home(key); slots_[i].node != 0; i = Next(i)) {
      }
    }
    slots_[i] = {key, node};
    ++size_;
    return 0;
  }

  /// Indexes `node` (non-zero) under `key`, replacing any entry.
  void Assign(uint64_t key, uint32_t node) {
    for (size_t i = Home(key); slots_[i].node != 0; i = Next(i)) {
      if (slots_[i].key == key) {
        slots_[i].node = node;
        return;
      }
    }
    FindOrInsert(key, node);
  }

  /// Erases `key`'s entry if it points at `node` (non-zero).
  void Erase(uint64_t key, uint32_t node) {
    size_t i = Home(key);
    for (; slots_[i].node != 0; i = Next(i)) {
      if (slots_[i].key == key) break;
    }
    if (slots_[i].node != node) return;
    // Backward shift: walk the rest of the cluster and move back every
    // entry whose probe path from its home slot passes the hole.
    for (size_t j = Next(i); slots_[j].node != 0; j = Next(j)) {
      const size_t mask = slots_.size() - 1;
      if (((j - Home(slots_[j].key)) & mask) >= ((j - i) & mask)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i].node = 0;
    --size_;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  /// The slot a probe for `key` starts at: the top bits of a Fibonacci
  /// (golden-ratio multiplicative) hash. Exposed for tests.
  size_t Home(uint64_t key) const {
    return (key * 0x9E3779B97F4A7C15ULL) >> shift_;
  }

  /// Calls fn(key, node) for every entry, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.node != 0) fn(s.key, s.node);
    }
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t node = 0;  // 0 = empty
  };

  size_t Next(size_t i) const { return (i + 1) & (slots_.size() - 1); }

  void Grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    --shift_;
    for (const Slot& s : old) {
      if (s.node == 0) continue;
      size_t i = Home(s.key);
      while (slots_[i].node != 0) i = Next(i);
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  int shift_ = 64 - std::countr_zero(kMinSlots);  // 64 - log2(slots)
  size_t size_ = 0;
};

}  // namespace ntadoc::compress

#endif  // NTADOC_COMPRESS_DIGRAM_INDEX_H_
