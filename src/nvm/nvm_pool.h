// NVM pool: the paper's bump-allocated region on the device.
//
// N-TADOC lays the pruned DAG, rule metadata, traversal queue and result
// counters out contiguously in one pool (Section IV-B), which is what
// gives the traversal its locality. The pool is a monotonic (bump)
// allocator over a region of an NvmDevice with a small persistent header;
// allocation never moves existing objects, matching the paper's
// "upper-bound first, then allocate once" discipline (Section IV-C).
//
// Media repair: a pool may reserve a spare-block region and a remap table
// at its tail (PoolOptions). When a 256 B media block goes permanently
// unreadable and the caller can re-derive its contents, RemapBlock()
// writes the recovered bytes to a spare block, records a checksummed
// remap entry, rewrites the home block (the emulated controller redirects
// the bad media to the spare, so the home offset stays valid for every
// existing pointer), and durably bumps the header's remap count through
// CommitAtomic (nvm/pmem.h).

#ifndef NTADOC_NVM_NVM_POOL_H_
#define NTADOC_NVM_NVM_POOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nvm/nvm_device.h"
#include "util/status.h"

namespace ntadoc::nvm {

class RedoLog;

/// Offset-based handle into the pool's device. 0 is never a valid
/// allocation (the header lives there).
using PoolOffset = uint64_t;
inline constexpr PoolOffset kNullPoolOffset = 0;

/// Optional repair resources reserved at the tail of a new pool.
struct PoolOptions {
  /// 256 B spare media blocks for bad-block remapping (0 = none).
  uint32_t spare_blocks = 0;

  /// Remap table entries; 0 means spare_blocks (one entry per spare).
  uint32_t remap_capacity = 0;
};

/// Bump allocator over a device region. Not thread-safe (the paper's
/// engine is sequential).
///
/// Concurrency discipline (enforced one layer up, see
/// docs/static_analysis.md): each serving session owns a private NvmPool
/// over its private device clone, so allocation and reads never race.
/// The mutating repair surface — RemapBlock, Scrub-then-repair, and the
/// remap_count_/spare bookkeeping it updates — is serialized across
/// sessions by the engine-level repair lock (NTadocOptions::repair_lock,
/// an annotated util::Mutex); callers reach it only through
/// NTadocEngine::RepairDamage / salvage, which hold that lock.
class NvmPool {
 public:
  /// One persistent bad-block remap record.
  struct RemapEntry {
    uint64_t orig_off;   // 256 B-aligned device offset of the bad block
    uint32_t spare_slot; // index into the spare region
    uint32_t checksum;   // CRC32 over orig_off + spare_slot
  };

  /// Formats a new pool covering [base, base+size) of `device` and
  /// persists the header. `device` must outlive the pool.
  static Result<NvmPool> Create(NvmDevice* device, uint64_t base,
                                uint64_t size, const PoolOptions& opts = {});

  /// Opens an existing pool previously formatted at `base`; validates the
  /// header (magic/version/bounds), the remap table, and restores the
  /// bump pointer.
  static Result<NvmPool> Open(NvmDevice* device, uint64_t base);

  NvmPool(NvmPool&&) = default;
  NvmPool& operator=(NvmPool&&) = default;
  NvmPool(const NvmPool&) = delete;
  NvmPool& operator=(const NvmPool&) = delete;

  /// Allocates `size` bytes aligned to `align` (power of two). Returns the
  /// device offset, or ResourceExhausted when the pool is full.
  Result<PoolOffset> Alloc(uint64_t size, uint64_t align = 8);

  /// Allocates an array of `count` trivially-copyable Ts.
  template <typename T>
  Result<PoolOffset> AllocArray(uint64_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Alloc(count * sizeof(T), alignof(T) < 8 ? 8 : alignof(T));
  }

  /// Persists the header (bump pointer + checksum) with flush + drain.
  void PersistHeader();

  /// Flushes the entire allocated data region and the header; used by the
  /// phase-level persistence strategy at phase boundaries.
  void PersistAll();

  /// Resets the bump pointer, logically freeing everything. Remap records
  /// are kept (the media behind them is still bad).
  void Reset();

  /// Sets the bump pointer to `new_top` (a value previously returned by
  /// top()), logically freeing every later allocation while keeping the
  /// prefix, and persists the header. Batch runs use this to keep a
  /// sealed DAG prefix across tasks while reallocating the per-task
  /// tail; the in-memory top may be behind the caller's saved value when
  /// the pool was reopened from a header persisted before the prefix was
  /// laid down (volatile runs persist the header only at creation).
  /// InvalidArgument if `new_top` is outside the allocatable data region.
  Status ResetTopTo(PoolOffset new_top);

  NvmDevice& device() { return *device_; }
  uint64_t base() const { return base_; }
  uint64_t size() const { return size_; }

  /// Next allocation offset (the paper's pool_top).
  PoolOffset top() const { return top_; }

  /// Bytes still available.
  uint64_t Remaining() const { return alloc_limit() - top_; }

  /// Bytes handed out so far (excluding the header block).
  uint64_t UsedBytes() const { return top_ - data_start(); }

  /// Remaps the permanently unreadable media block at `block_off` (256 B
  /// aligned, within the pool) whose re-derived contents are `content`
  /// (`len` <= 256 bytes, the block's extent inside the pool): writes the
  /// recovered bytes to the next spare block, rewrites the home block
  /// (redirecting the bad media), appends a checksummed RemapEntry and
  /// durably bumps the header count, all as one CommitAtomic update
  /// (`log`, when given, must have no open transaction).
  /// Returns the spare slot used, ResourceExhausted when out of spares.
  Result<uint32_t> RemapBlock(uint64_t block_off, const void* content,
                              uint64_t len, RedoLog* log = nullptr);

  /// Number of committed remap entries.
  uint32_t remap_count() const { return remap_count_; }
  uint32_t spare_blocks() const { return spare_blocks_; }
  uint64_t spare_off() const { return spare_off_; }
  uint64_t remap_off() const { return remap_off_; }

  /// Reads a committed remap entry (index < remap_count()).
  Result<RemapEntry> ReadRemapEntry(uint32_t index);

  /// Owner registry: the engine labels its pool regions so a scrub can
  /// map damaged blocks back to the owning object. Registration is
  /// in-memory only (rebuilt on every attach).
  void ClearOwners();
  void RegisterOwner(uint64_t begin, uint64_t len, std::string name);

  /// Name of the first registered extent overlapping [off, off+len), or
  /// "" when unowned.
  std::string OwnerOf(uint64_t off, uint64_t len) const;

  /// One damaged media block found by Scrub.
  struct Damage {
    uint64_t block_off = 0;  // 256 B aligned
    std::string owner;       // registered owner, "" if none
  };

  /// Result of a media scrub over the allocated region.
  struct ScrubReport {
    uint64_t scanned_bytes = 0;
    uint64_t bad_blocks = 0;  // unreadable 256 B media blocks
    std::vector<Damage> damage;  // one per bad block, in address order
  };

  /// Re-validates the header and walks the allocated region in media
  /// block units, mapping unreadable blocks back to their registered
  /// owners (the scoped-salvage work list). Returns DataLoss if the
  /// header itself is unreadable or corrupt; otherwise reports how much
  /// of the region is damaged so the caller can decide how to repair.
  Result<ScrubReport> Scrub();

  static constexpr uint64_t kMediaBlock = 256;
  static constexpr uint64_t kHeaderSlot = 64;  // header block size

 private:
  struct Header {
    uint64_t magic;
    uint32_t version;
    uint32_t spare_blocks;
    uint64_t size;
    uint64_t top;
    uint64_t spare_off;      // device offset of the spare region (0 = none)
    uint64_t remap_off;      // device offset of the remap table (0 = none)
    uint32_t remap_count;
    uint32_t remap_capacity;
    uint64_t checksum;  // over the preceding fields
  };
  static_assert(sizeof(Header) == kHeaderSlot);
  static constexpr uint64_t kMagic = 0x4E54414443504F4FULL;  // "NTADCPOO"
  static constexpr uint32_t kVersion = 2;

  struct OwnerExtent {
    uint64_t begin;
    uint64_t end;
    std::string name;
  };

  NvmPool(NvmDevice* device, uint64_t base, uint64_t size, uint64_t top)
      : device_(device), base_(base), size_(size), top_(top) {}

  uint64_t data_start() const { return base_ + kHeaderSlot; }

  /// Allocation stops where the remap table begins (pool tail holds the
  /// repair resources).
  uint64_t alloc_limit() const {
    return remap_off_ != 0 ? remap_off_ : base_ + size_;
  }

  Header MakeHeader(uint32_t remap_count) const;
  static uint64_t HeaderChecksum(const Header& h);
  static uint32_t RemapChecksum(const RemapEntry& e);

  NvmDevice* device_;
  uint64_t base_;
  uint64_t size_;
  PoolOffset top_;
  uint64_t spare_off_ = 0;
  uint64_t remap_off_ = 0;
  uint32_t spare_blocks_ = 0;
  uint32_t remap_capacity_ = 0;
  uint32_t remap_count_ = 0;
  std::vector<OwnerExtent> owners_;
};

}  // namespace ntadoc::nvm

#endif  // NTADOC_NVM_NVM_POOL_H_
