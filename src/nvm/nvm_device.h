// Emulated byte-addressable non-volatile memory device.
//
// NvmDevice provides the direct-access (DAX-like) programming model the
// paper uses on Intel Optane: loads/stores at byte granularity, explicit
// cache-line flushes (clwb) and fences (sfence) for persistence, and
// crash semantics. Every access is charged to the run's SimClock through
// a MemoryModel with the device's cost profile.
//
// Persistence model (strict mode): stores first land in the "CPU cache"
// — tracked as an undo map of dirtied 64 B lines holding their last
// persisted contents. FlushRange() makes lines durable; SimulateCrash()
// rolls every unflushed line back to its persisted content, exactly like
// losing the CPU cache on power failure. Tests use this to verify the
// recovery protocols. In relaxed mode (default for benchmarks) stores are
// considered durable immediately and only the costs are charged.

#ifndef NTADOC_NVM_NVM_DEVICE_H_
#define NTADOC_NVM_NVM_DEVICE_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "nvm/fault_injector.h"
#include "nvm/memory_model.h"
#include "nvm/persist_check.h"
#include "util/random.h"
#include "util/status.h"

namespace ntadoc::nvm {

/// Bounded read-retry policy for transient media errors. Each retry
/// charges an exponentially growing controller backoff to the simulated
/// clock plus the re-issued read itself, so absorbed faults still cost
/// simulated time. Retries never help against sticky-unreadable blocks.
struct RetryPolicy {
  /// Maximum retry attempts after the initial failed read (0 disables).
  uint32_t max_read_retries = 4;

  /// Backoff before the first retry; doubles each further attempt.
  uint64_t backoff_ns = 2000;
};

/// Construction options for NvmDevice.
struct DeviceOptions {
  /// Device capacity in bytes.
  uint64_t capacity = 64ull << 20;

  /// Cost profile (OptaneProfile(), SsdProfile(), ...).
  DeviceProfile profile = OptaneProfile();

  /// Shared simulated clock; one per experiment run. Created if null.
  SimClockPtr clock;

  /// Strict persistence: track unflushed lines so SimulateCrash() can
  /// discard them. Slower; enable in correctness tests and examples.
  bool strict_persistence = false;

  /// In strict mode, probability that any given store additionally evicts
  /// one random dirty line to the media (CPU caches may write back dirty
  /// lines at any time). Used by adversarial recovery tests.
  double random_evict_probability = 0.0;

  /// Seed for adversarial eviction.
  uint64_t evict_seed = 1;

  /// Declarative media faults (torn flushes, crash-time bit flips,
  /// unreadable blocks). Empty plan = perfect media. Requires
  /// strict_persistence for torn-flush and bit-flip effects to matter.
  FaultPlan fault_plan;

  /// Seed for all randomized fault choices; the same plan + seed
  /// reproduces byte-identical post-crash device states.
  uint64_t fault_seed = 1;

  /// Read-retry policy for transient media errors (see RetryPolicy).
  RetryPolicy retry;

  /// Run the PersistCheck persistency-order analyzer on every access
  /// (see nvm/persist_check.h). Independent of strict_persistence.
  bool persist_check = false;

  /// If nonzero, capture PersistedSnapshot() right after the Nth Drain()
  /// (1-based) while the run continues. The crash-point sweeper uses this
  /// to enumerate every drain point of a workload in one pass each.
  uint64_t snapshot_at_drain = 0;

  /// Windowed multi-fence capture: when snapshot_drains_begin is nonzero,
  /// every Drain() whose 1-based ordinal falls in
  /// [snapshot_drains_begin, snapshot_drains_end] (end 0 = unbounded)
  /// appends a persisted image of the snapshot region to
  /// drain_snapshots(). Unlike snapshot_at_drain (one fence per run),
  /// this enumerates EVERY fence of an epoch in a single run; bounding
  /// the region to the structure under test keeps N fences affordable.
  uint64_t snapshot_drains_begin = 0;
  uint64_t snapshot_drains_end = 0;

  /// Region captured by the windowed snapshots; len 0 = the whole device
  /// from `offset`. Only consulted when snapshot_drains_begin != 0.
  uint64_t snapshot_region_offset = 0;
  uint64_t snapshot_region_len = 0;

  /// Shared immutable base image (sealed-pool serving). When set, the
  /// device starts holding this image (zero-padded to `capacity`) instead
  /// of zeros: N session devices built over one image model N snapshot-
  /// isolated readers of one sealed NVM pool. Each device materializes a
  /// private working copy at construction, so per-session writes, media
  /// faults and repairs never reach the shared image or sibling sessions.
  /// Materialization is an uncharged host-side copy — simulated costs
  /// start with the session's own accesses, exactly as if the session had
  /// DAX-mapped the sealed pool read-only. The image must not exceed
  /// `capacity`.
  std::shared_ptr<const std::vector<uint8_t>> base_image;
};

class TieredPool;

/// Emulated NVM device (see file comment).
class NvmDevice {
 public:
  /// Creates a zero-initialized device.
  static Result<std::unique_ptr<NvmDevice>> Create(DeviceOptions options);

  NvmDevice(const NvmDevice&) = delete;
  NvmDevice& operator=(const NvmDevice&) = delete;

  uint64_t capacity() const { return capacity_; }
  MemoryModel& model() { return model_; }
  const AccessStats& stats() const { return model_.stats(); }
  SimClock& clock() { return model_.clock(); }
  const SimClockPtr& clock_ptr() const { return model_.clock_ptr(); }
  const DeviceProfile& profile() const { return model_.profile(); }
  bool strict_persistence() const { return strict_; }

  /// Attaches (or detaches, with nullptr) a tiered-placement router.
  /// While attached, every access charge is routed through the router's
  /// per-tier cost models instead of this device's own MemoryModel; the
  /// data path (bytes, persistence, faults, crashes) is unchanged. The
  /// router must outlive the attachment. When no router is attached the
  /// charging hot path pays exactly one null check.
  void set_tier_router(TieredPool* router) { tier_router_ = router; }
  TieredPool* tier_router() const { return tier_router_; }

  /// Typed load. T must be trivially copyable.
  template <typename T>
  T Read(uint64_t offset) {
    static_assert(std::is_trivially_copyable_v<T>);
    T out;
    ReadBytes(offset, &out, sizeof(T));
    return out;
  }

  /// Typed store. T must be trivially copyable.
  template <typename T>
  void Write(uint64_t offset, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteBytes(offset, &value, sizeof(T));
  }

  /// Charged bulk load. Transient media errors are absorbed by the retry
  /// policy; if the range overlaps a sticky-unreadable block (or the
  /// retry budget runs out) the destination is deterministically
  /// zero-filled and the media error counter is bumped. Callers on
  /// recovery paths should prefer TryReadBytes.
  void ReadBytes(uint64_t offset, void* dst, uint64_t len);

  /// Charged bulk load that reports uncorrectable media errors: returns
  /// Status::DataLoss (leaving dst poisoned) if the range overlaps an
  /// unreadable block.
  Status TryReadBytes(uint64_t offset, void* dst, uint64_t len);

  /// Zero-copy charged extent read. Charges every covered block in one
  /// batched pass (see MemoryModel::TouchReadExtent; `quantum`
  /// replicates a per-`quantum`-byte read loop, 0 = one bulk access) and
  /// validates the whole extent against unreadable media. On success
  /// returns a borrowed pointer into the backing store whose *contents*
  /// are only valid until the next write, crash, or image load; the
  /// address itself never dangles while the device lives. On an
  /// unreadable overlap the media error counter is bumped and DataLoss is
  /// returned (nothing borrowed, no poison to copy out).
  Result<const uint8_t*> TryReadSpan(uint64_t offset, uint64_t len,
                                     uint64_t quantum = 0);

  /// Typed flavor of TryReadSpan over `count` elements of T. The caller
  /// must ensure `offset` is aligned for T (pool allocations are).
  template <typename T>
  Result<const T*> TryReadTypedSpan(uint64_t offset, uint64_t count,
                                    uint64_t quantum = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto span = TryReadSpan(offset, count * sizeof(T), quantum);
    if (!span.ok()) return span.status();
    return reinterpret_cast<const T*>(*span);
  }

  /// Charged bulk store. `quantum` replicates a per-`quantum`-byte write
  /// loop in the cost model (0 = one bulk access, the historical
  /// behavior); the data movement is a single copy either way.
  void WriteBytes(uint64_t offset, const void* src, uint64_t len,
                  uint64_t quantum = 0);

  /// Charged constant fill (bulk zeroing of fresh allocations). One
  /// batched extent charge (`quantum` replicates a chunked write loop)
  /// and one memset; persistence tracking sees the extent exactly like
  /// one WriteBytes of `len` bytes.
  void FillBytes(uint64_t offset, uint64_t len, uint8_t value,
                 uint64_t quantum = 0);

  /// Makes [offset, offset+len) durable (clwb of covered lines) and
  /// charges the flush cost.
  void FlushRange(uint64_t offset, uint64_t len);

  /// Persistence fence (sfence); charges the drain cost.
  void Drain();

  /// Batched durability for a set of (possibly duplicated, unsorted) 64 B
  /// line indices: dedupes, coalesces adjacent lines into contiguous
  /// runs, issues one FlushRange per run, a single Drain(), and asserts
  /// the persistence contract per run. `lines` is left sorted and
  /// deduplicated. Returns the number of distinct lines made durable. An
  /// empty set is a no-op (no fence is charged).
  uint64_t FlushLineRuns(std::vector<uint64_t>& lines);

  /// Durability contract: declares that [offset, offset+len) must be
  /// persisted (stored -> flushed -> fenced) at this point. A no-op unless
  /// the device was created with persist_check; the checker emits
  /// MissingFlush / FlushWithoutDrain diagnostics for violations.
  /// Persistence frameworks call this at their durability boundaries.
  void AssertPersisted(uint64_t offset, uint64_t len);

  /// Power failure: every line dirtied since its last flush reverts to its
  /// persisted content; the device buffer is invalidated. No-op unless the
  /// device was created with strict_persistence.
  void SimulateCrash();

  /// Number of currently unflushed dirty lines (strict mode only).
  uint64_t DirtyLineCount() const { return dirty_lines_.size(); }

  /// Writes the persisted image to `path` (for cross-process restart
  /// demos). In strict mode the unflushed lines are NOT included, i.e. the
  /// snapshot is exactly the post-crash state.
  Status SaveImage(const std::string& path) const;

  /// Loads a persisted image produced by SaveImage. The image must not be
  /// larger than the device capacity.
  Status LoadImage(const std::string& path);

  /// Uncharged direct access for test assertions only.
  const uint8_t* raw_for_testing() const { return data_.data(); }

  /// Uncharged copy of the persisted image: current data with every
  /// unflushed line rolled back to its pre-image. This is exactly the
  /// post-crash state; tests use it to assert fault-plan determinism.
  std::vector<uint8_t> PersistedSnapshot() const;

  /// Fault-injection state, if a plan was supplied (null otherwise).
  const FaultInjector* fault_injector() const { return injector_.get(); }

  /// Number of reads that hit an unreadable block since construction.
  uint64_t media_error_count() const { return media_errors_; }

  /// Number of read retries issued against transient faults since
  /// construction (both absorbed and budget-exhausted attempts).
  uint64_t transient_retry_count() const { return transient_retries_; }

  /// Marks every block overlapping [offset, offset+len) unreadable,
  /// lazily creating an injector when the device was built without a
  /// fault plan. Models media that went bad while the device was powered
  /// off; tests use it to damage a persisted image between runs. By
  /// default a rewrite heals the block (remappable damage); `sticky`
  /// poison survives rewrites — media dead beyond re-derivation, the
  /// degraded-mode case.
  void PoisonForTesting(uint64_t offset, uint64_t len, bool sticky = false);

  /// The persistency-order analyzer, if enabled (null otherwise).
  const PersistCheck* persist_check() const { return check_.get(); }
  PersistCheck* mutable_persist_check() { return check_.get(); }

  /// Number of Drain() calls since construction.
  uint64_t drain_count() const { return drain_count_; }

  /// The snapshot captured by DeviceOptions::snapshot_at_drain (empty if
  /// the Nth drain has not happened yet or the option was unset).
  const std::vector<uint8_t>& drain_snapshot() const { return drain_snapshot_; }

  /// Region images captured by the DeviceOptions::snapshot_drains_begin
  /// window, one per drain in the window, in drain order. Entry i is the
  /// persisted state of the snapshot region right after drain number
  /// snapshot_drains_begin + i.
  const std::vector<std::vector<uint8_t>>& drain_snapshots() const {
    return drain_snapshots_;
  }

  /// Uncharged persisted image of [offset, offset+len): current data with
  /// every unflushed line overlapping the range rolled back to its
  /// pre-image. Windowed crash sweeps use this to capture just the
  /// structure under test at every fence of an epoch in one run.
  std::vector<uint8_t> PersistedRegion(uint64_t offset, uint64_t len) const;

  /// Replaces the media contents with `image` (at most capacity bytes;
  /// any tail is zeroed), as if restarting on a device holding that
  /// persisted image. Clears dirty-line tracking and the checker's
  /// in-flight state, exactly like LoadImage but without touching disk.
  void LoadSnapshot(const std::vector<uint8_t>& image);

  /// Region flavor of LoadSnapshot: zeroes the whole device, then places
  /// `image` at `offset` — restarting on a device whose only surviving
  /// content is the captured region (valid whenever the region is
  /// self-contained, like a ContainerStore region). Clears dirty-line
  /// tracking and checker state like LoadSnapshot.
  void LoadSnapshotRegion(const std::vector<uint8_t>& image, uint64_t offset);

 private:
  static constexpr uint64_t kLine = 64;
  static constexpr uint64_t kNoTornLine = ~0ull;

  explicit NvmDevice(DeviceOptions options);

  /// Records pre-image of every line covered by [offset, offset+len) that
  /// is not yet dirty, then maybe performs adversarial evictions.
  void TrackDirty(uint64_t offset, uint64_t len);

  /// Consults the injector for a torn flush over lines [first, last].
  /// Returns the torn line index (which must stay dirty) or kNoTornLine.
  uint64_t MaybeTearFlush(uint64_t first, uint64_t last);

  /// Bounded retry loop after a transient read failure: charges backoff
  /// and the re-issued read per attempt. Returns the final outcome
  /// (kNone once healed, kTransient if the budget ran out, kPermanent if
  /// the range also overlaps poison).
  FaultInjector::ReadFault RetryRead(uint64_t offset, uint64_t len,
                                     uint64_t quantum, bool extent);

  /// Routes one access charge to the tier router when attached, else to
  /// the device's own model. Defined in the .cc (TieredPool is only
  /// forward-declared here).
  void ChargeRead(uint64_t offset, uint64_t len);
  void ChargeReadExtent(uint64_t offset, uint64_t len, uint64_t quantum);
  void ChargeWriteExtent(uint64_t offset, uint64_t len, uint64_t quantum);
  void ChargeFlushCost(uint64_t offset, uint64_t len);
  void ChargeDrainCost();
  /// Crash / snapshot-load buffer invalidation covering the tier models.
  void InvalidateAllBuffers();

  uint64_t capacity_;
  MemoryModel model_;
  TieredPool* tier_router_ = nullptr;
  bool strict_;
  // Hot-path guards, fixed at construction: when false, reads (writes)
  // need no injector / persist-check / dirty-tracking work at all and
  // collapse to charge + memcpy.
  bool read_slow_ = false;
  bool write_slow_ = false;
  double random_evict_probability_;
  Rng evict_rng_;
  std::vector<uint8_t> data_;
  // line index -> persisted (pre-write) content of that line
  std::unordered_map<uint64_t, std::array<uint8_t, kLine>> dirty_lines_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<PersistCheck> check_;
  RetryPolicy retry_;
  uint64_t transient_retries_ = 0;
  uint64_t media_errors_ = 0;
  uint64_t drain_count_ = 0;
  uint64_t snapshot_at_drain_ = 0;
  std::vector<uint8_t> drain_snapshot_;
  uint64_t snapshot_drains_begin_ = 0;
  uint64_t snapshot_drains_end_ = 0;
  uint64_t snapshot_region_offset_ = 0;
  uint64_t snapshot_region_len_ = 0;
  std::vector<std::vector<uint8_t>> drain_snapshots_;
};

}  // namespace ntadoc::nvm

#endif  // NTADOC_NVM_NVM_DEVICE_H_
