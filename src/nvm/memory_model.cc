#include "nvm/memory_model.h"

#include <bit>

#include "util/hash.h"
#include "util/logging.h"

namespace ntadoc::nvm {

MemoryModel::MemoryModel(DeviceProfile profile, SimClockPtr clock)
    : profile_(std::move(profile)), clock_(std::move(clock)) {
  NTADOC_CHECK(clock_ != nullptr);
  // Block numbers are computed with a shift (every built-in profile has
  // power-of-two blocks).
  NTADOC_CHECK(std::has_single_bit(profile_.block_size))
      << "block_size " << profile_.block_size << " is not a power of two";
  block_shift_ = static_cast<uint32_t>(std::countr_zero(profile_.block_size));
  sets_ = profile_.buffer_blocks / kWays;
  if (sets_ == 0) sets_ = 1;
  // Power-of-two sets so block->set mapping is a cheap mask.
  sets_ = NextPowerOfTwo(sets_);
  buffer_.assign(sets_ * kWays, BufferEntry{});
}

bool MemoryModel::TouchBlock(uint64_t block) {
  // MRU fast path: the immediately preceding touch was this same block,
  // so it is still resident (it holds the newest stamp in its set and
  // cannot have been evicted since) — skip the hash and the probe.
  if (block == last_block_ && last_entry_ != nullptr) {
    last_entry_->last_used = ++tick_;
    return true;
  }
  const uint64_t set = Mix64(block) & (sets_ - 1);
  BufferEntry* entries = &buffer_[set * kWays];
  ++tick_;
  uint32_t victim = 0;
  uint64_t oldest = ~0ULL;
  for (uint32_t w = 0; w < kWays; ++w) {
    if (entries[w].block == block) {
      entries[w].last_used = tick_;
      last_entry_ = &entries[w];
      return true;
    }
    if (entries[w].last_used < oldest) {
      oldest = entries[w].last_used;
      victim = w;
    }
  }
  entries[victim].block = block;
  entries[victim].last_used = tick_;
  last_entry_ = &entries[victim];
  return false;
}

void MemoryModel::Access(uint64_t addr, uint64_t len, bool is_write) {
  if (len == 0) return;
  const uint64_t first = addr >> block_shift_;
  const uint64_t last = (addr + len - 1) >> block_shift_;
  uint64_t charge = 0;
  for (uint64_t b = first; b <= last; ++b) {
    const bool hit = TouchBlock(b);
    if (hit) {
      charge += profile_.buffer_hit_ns;
      if (is_write) {
        ++stats_.write_hits;
      } else {
        ++stats_.read_hits;
      }
    } else {
      charge += is_write ? profile_.write_miss_ns : profile_.read_miss_ns;
      if (is_write) {
        ++stats_.write_misses;
      } else {
        ++stats_.read_misses;
      }
      // Rotational seek: charged when a missing block is not adjacent to
      // the previously accessed one.
      if (profile_.seek_ns != 0 && last_block_ != ~0ULL &&
          b != last_block_ && b != last_block_ + 1) {
        charge += profile_.seek_ns;
        ++stats_.seeks;
      }
    }
    last_block_ = b;
  }
  if (is_write) {
    stats_.bytes_written += len;
  } else {
    stats_.bytes_read += len;
  }
  clock_->Charge(charge);
}

void MemoryModel::AccessExtent(uint64_t addr, uint64_t len, uint64_t quantum,
                               bool is_write) {
  if (len == 0) return;
  if (quantum == 0 || quantum >= len) {
    // One whole-extent access; the reference loop degenerates to it.
    Access(addr, len, is_write);
    return;
  }
  const uint64_t bs = profile_.block_size;
  const uint64_t first = addr >> block_shift_;
  const uint64_t last = (addr + len - 1) >> block_shift_;
  const uint64_t n_words = (len + quantum - 1) / quantum;
  const uint64_t hit_ns = profile_.buffer_hit_ns;
  const uint64_t miss_ns =
      is_write ? profile_.write_miss_ns : profile_.read_miss_ns;
  uint64_t charge = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t seeks = 0;
  for (uint64_t b = first; b <= last; ++b) {
    // The reference loop touches block b once per quantum-sized access
    // overlapping it, and those k touches are consecutive in its global
    // touch sequence (the sequence is sorted: each access covers an
    // ascending block range starting at or after the previous access's
    // last block). So only the first touch can miss; the remaining k-1
    // are guaranteed hits on the MRU entry and need no probe — only the
    // identical LRU-clock advance.
    const uint64_t block_begin = b << block_shift_;
    const uint64_t i_low =
        block_begin <= addr ? 0 : (block_begin - addr) / quantum;
    uint64_t i_high = (block_begin + bs - addr - 1) / quantum;
    if (i_high >= n_words) i_high = n_words - 1;
    const uint64_t k = i_high - i_low + 1;
    if (TouchBlock(b)) {
      charge += hit_ns;
      ++hits;
    } else {
      charge += miss_ns;
      ++misses;
      if (profile_.seek_ns != 0 && last_block_ != ~0ULL &&
          b != last_block_ && b != last_block_ + 1) {
        charge += profile_.seek_ns;
        ++seeks;
      }
    }
    last_block_ = b;
    if (k > 1) {
      tick_ += k - 1;
      last_entry_->last_used = tick_;
      charge += (k - 1) * hit_ns;
      hits += k - 1;
    }
  }
  if (is_write) {
    stats_.write_hits += hits;
    stats_.write_misses += misses;
    stats_.bytes_written += len;
  } else {
    stats_.read_hits += hits;
    stats_.read_misses += misses;
    stats_.bytes_read += len;
  }
  stats_.seeks += seeks;
  clock_->Charge(charge);
}

void MemoryModel::TouchRead(uint64_t addr, uint64_t len) {
  Access(addr, len, /*is_write=*/false);
}

void MemoryModel::TouchWrite(uint64_t addr, uint64_t len) {
  Access(addr, len, /*is_write=*/true);
}

void MemoryModel::TouchReadExtent(uint64_t addr, uint64_t len,
                                  uint64_t quantum) {
  AccessExtent(addr, len, quantum, /*is_write=*/false);
}

void MemoryModel::TouchWriteExtent(uint64_t addr, uint64_t len,
                                   uint64_t quantum) {
  AccessExtent(addr, len, quantum, /*is_write=*/true);
}

void MemoryModel::ChargeFlush(uint64_t len) {
  if (len == 0 || profile_.flush_line_ns == 0) return;
  const uint64_t lines = (len + 63) / 64;
  stats_.flushed_lines += lines;
  clock_->Charge(lines * profile_.flush_line_ns);
}

void MemoryModel::ChargeDrain() {
  ++stats_.drains;
  clock_->Charge(profile_.drain_ns);
}

void MemoryModel::InvalidateBuffer() {
  for (auto& e : buffer_) e = BufferEntry{};
  last_block_ = ~0ULL;
  last_entry_ = nullptr;
}

}  // namespace ntadoc::nvm
