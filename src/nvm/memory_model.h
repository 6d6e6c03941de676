// Block-granular access cost model with a set-associative device buffer.
//
// MemoryModel is the common currency of the evaluation: the DRAM-resident
// TADOC engine touches it with real pointer addresses (DRAM profile), and
// NvmDevice routes every device access through it with device offsets
// (Optane/SSD/HDD profile). Both charge the same shared SimClock, so
// configurations are directly comparable.

#ifndef NTADOC_NVM_MEMORY_MODEL_H_
#define NTADOC_NVM_MEMORY_MODEL_H_

#include <cstdint>
#include <vector>

#include "nvm/device_profile.h"
#include "nvm/sim_clock.h"

namespace ntadoc::nvm {

/// Access counters of one MemoryModel.
struct AccessStats {
  uint64_t read_hits = 0;
  uint64_t read_misses = 0;
  uint64_t write_hits = 0;
  uint64_t write_misses = 0;
  uint64_t seeks = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t flushed_lines = 0;
  uint64_t drains = 0;

  uint64_t TotalAccesses() const {
    return read_hits + read_misses + write_hits + write_misses;
  }
  double MissRate() const {
    const uint64_t total = TotalAccesses();
    return total == 0
               ? 0.0
               : static_cast<double>(read_misses + write_misses) /
                     static_cast<double>(total);
  }
};

/// Charges block-granular access costs against a SimClock, modeling the
/// device-internal buffer as a 4-way set-associative LRU cache.
class MemoryModel {
 public:
  /// `clock` must outlive the model. `profile.block_size` must be a
  /// power of two.
  MemoryModel(DeviceProfile profile, SimClockPtr clock);

  MemoryModel(const MemoryModel&) = delete;
  MemoryModel& operator=(const MemoryModel&) = delete;

  /// Charges a read of `len` bytes at `addr` (device offset or pointer
  /// value). Touches every covered block.
  void TouchRead(uint64_t addr, uint64_t len);

  /// Charges a write of `len` bytes at `addr`.
  void TouchWrite(uint64_t addr, uint64_t len);

  /// Batched extent charge. Produces exactly the same stats, clock total
  /// and buffer state as the per-call reference loop
  ///
  ///   for (p = addr; p < addr + len; p += quantum)
  ///     TouchRead(p, min(quantum, addr + len - p));
  ///
  /// but costs O(covered blocks) host time instead of O(len / quantum):
  /// repeat touches of a block are folded into one LRU-clock advance.
  /// `quantum == 0` (or >= len) charges the extent as a single access,
  /// identical to TouchRead(addr, len). Callers converting a per-word
  /// loop to one extent call pass the loop's old access width as
  /// `quantum` to keep the cost model bit-identical.
  void TouchReadExtent(uint64_t addr, uint64_t len, uint64_t quantum = 0);

  /// Write flavor of TouchReadExtent (reference loop of TouchWrite).
  void TouchWriteExtent(uint64_t addr, uint64_t len, uint64_t quantum = 0);

  /// Charges the persistence cost of flushing `len` bytes of dirty data
  /// (per 64 B line).
  void ChargeFlush(uint64_t len);

  /// Charges one persistence fence.
  void ChargeDrain();

  /// Drops all buffered blocks (e.g. after a simulated power failure).
  void InvalidateBuffer();

  const DeviceProfile& profile() const { return profile_; }
  const AccessStats& stats() const { return stats_; }
  SimClock& clock() { return *clock_; }
  const SimClockPtr& clock_ptr() const { return clock_; }

  /// Resets counters (not the shared clock).
  void ResetStats() { stats_ = AccessStats(); }

 private:
  static constexpr uint32_t kWays = 4;

  struct BufferEntry {
    uint64_t block = ~0ULL;  // block id, ~0 = empty
    uint64_t last_used = 0;  // LRU stamp
  };

  /// Returns true if the block was already buffered (hit).
  bool TouchBlock(uint64_t block);

  void Access(uint64_t addr, uint64_t len, bool is_write);
  void AccessExtent(uint64_t addr, uint64_t len, uint64_t quantum,
                    bool is_write);

  DeviceProfile profile_;
  SimClockPtr clock_;
  AccessStats stats_;
  std::vector<BufferEntry> buffer_;  // sets_ * kWays entries
  uint64_t sets_ = 0;
  uint32_t block_shift_ = 0;  // log2(profile_.block_size)
  uint64_t tick_ = 0;
  uint64_t last_block_ = ~0ULL;  // for HDD seek detection
  // Buffer entry of last_block_ (never dangles: buffer_ is fixed after
  // construction). MRU fast path: a touch of last_block_ is always a hit
  // on this entry, skipping the hash + associative probe.
  BufferEntry* last_entry_ = nullptr;
};

}  // namespace ntadoc::nvm

#endif  // NTADOC_NVM_MEMORY_MODEL_H_
