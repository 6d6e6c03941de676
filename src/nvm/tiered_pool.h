// Tiered placement over one emulated device: cost-domain tiers with
// online hot/cold migration.
//
// The paper's pitch is analytics on compressed text at near-DRAM speed
// from cheaper media. TieredPool adds the capacity/latency lever: the
// pool's extents are partitioned into fixed-size migration units, each
// unit is *resident* in exactly one tier (DRAM / NVM / SSD / HDD), and
// every access the device charges is routed to the resident tier's cost
// model. Following the hybrid-memory emulation methodology (PAPERS.md:
// "Emulating Hybrid Memory on NUMA Hardware"), the tiers share ONE
// backing address space — the session's NvmDevice — and differ only in
// the DeviceProfile their MemoryModel charges. That keeps every
// borrowed span, redo-log record, and persist-check line valid while an
// extent "moves": a migration changes which cost domain future accesses
// pay, not where the bytes live.
//
// The tier whose medium matches the device profile is the HOME tier; it
// charges the device's own MemoryModel, so a config whose only tier is
// the home medium flushes exactly like the untiered device (a range's
// lines are charged once, however many units it crosses). It still
// differs from untiered in two ways: InitRegion formats the placement
// region (one header read, write, flush and drain), and an access that
// crosses a unit boundary inside a device block touches that block once
// per piece (an extra buffer hit).
//
// Tiers above home (e.g. DRAM over an Optane device) are INCLUSIVE: the
// durable home copy remains authoritative and a crash silently folds
// volatile residents back to home. Tiers below home (e.g. SSD capacity
// under an Optane budget) are placement-exclusive in accounting.
//
// Placement is durable: the engine reserves a small region between the
// pool and the meta mirror, and every migration commits a 32-byte
// placement entry there with CommitAtomic (nvm/pmem.h): through
// the session RedoLog at operation level, ordered entry-then-header
// otherwise, exactly like NvmPool::RemapBlock. Recovery replays
// the committed prefix, so at every drain point a unit is exactly
// source- or target-resident, never hybrid (crash_sweep_test
// MigrationCommitSweepTest).
//
// Routing: every charge finds the unit holding its first byte in O(1).
// A page index maps each 4 KiB page of the registered span to the first
// unit that ends past the page's start; units are at least 4 KiB (only
// an extent's last unit may be shorter), so a lookup scans at most the
// few short units that end inside one page. RegisterExtent rebuilds the
// index; ResetExtents empties it.
//
// Thread safety: none. A TieredPool is session-confined like NvmPool:
// only the thread running its session calls it, and the serving layer
// reads tier counters from NTadocRunInfo after Run returns (DESIGN.md
// §10).

#ifndef NTADOC_NVM_TIERED_POOL_H_
#define NTADOC_NVM_TIERED_POOL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nvm/device_profile.h"
#include "nvm/memory_model.h"
#include "nvm/nvm_device.h"
#include "nvm/obj_log.h"
#include "util/status.h"

namespace ntadoc::nvm {

/// Structure classes the engine registers; each routes through its own
/// placement policy (rule/segment metadata, hash tables, payload bytes,
/// gram payload bytes, traversal queue, cursor/integrity slots).
enum class TierClass : uint8_t {
  kMeta = 0,
  kTable,
  kPayload,
  kGramPayload,
  kQueue,
  kCursor,
  kOther,
};
inline constexpr int kNumTierClasses = 7;
const char* TierClassToString(TierClass cls);

/// One tier, fastest first in TierConfig::tiers. budget_bytes caps the
/// resident bytes (0 = uncapped); overflow spills to the next tier down.
struct TierSpec {
  MediumKind kind = MediumKind::kDram;
  uint64_t budget_bytes = 0;
};

/// Sentinel for "the device's own tier" in a TierPolicy.
inline constexpr uint8_t kHomeTier = 0xFF;

/// Per-class placement policy: where units of the class start, and
/// whether the migrator may move them afterwards.
struct TierPolicy {
  uint8_t preferred_tier = kHomeTier;
  bool migratable = false;
};

/// Placement configuration. Carried by NTadocOptions::tiering; when
/// null, no TieredPool exists and the device charges exactly as before
/// (the no-tiering hot path is a single null check).
struct TierConfig {
  std::vector<TierSpec> tiers;  // fastest (top) first
  /// Migration unit granularity; registered extents are split into
  /// units of this many bytes.
  uint64_t unit_bytes = 64 * 1024;
  /// Traversal steps between migration ticks (heat decay + moves).
  uint32_t migrate_interval = 256;
  /// Bound on placement moves per tick.
  uint32_t max_moves_per_tick = 8;
  /// Master switch for online migration (initial placement still
  /// applies; heat is still tracked).
  bool migrate = true;
  std::array<TierPolicy, kNumTierClasses> policy = DefaultPolicy();

  /// Metadata, tables, queue and cursor prefer the top tier (tables
  /// migratable); payload bytes start home and are migratable.
  static std::array<TierPolicy, kNumTierClasses> DefaultPolicy();

  /// Parses "dram:64,nvm" — a comma list of medium[:budget_mb] entries,
  /// fastest first. Budget 0 / omitted = uncapped.
  static Result<TierConfig> Parse(const std::string& spec);
};

/// Monotonic placement counters plus the current per-medium residency.
struct TierCounters {
  uint64_t promotions = 0;
  uint64_t demotions = 0;
  uint64_t migration_epochs = 0;
  std::array<uint64_t, 4> resident_bytes{};  // indexed by MediumKind
};

/// Cost-domain tiering over one NvmDevice. Create with Make(), attach
/// to the device with NvmDevice::set_tier_router(), then (once the
/// session's redo log is recovered) InitRegion() + RegisterExtent()* +
/// ApplyInitialPlacement().
class TieredPool {
 public:
  static constexpr uint64_t kHeaderSlot = 64;
  static constexpr uint64_t kHeaderBytes = 40;
  static constexpr uint64_t kEntryBytes = 32;

  /// Bytes the engine must reserve for the placement region when a
  /// config is active. Deterministic from the config alone (the pool
  /// layout must be reproducible from options).
  static uint64_t PlacementReserve(const TierConfig& config);

  /// Builds the pool over [region_off, region_off + region_len) of
  /// `device` (which must outlive it). Validates the config: at most 4
  /// tiers, distinct media, and a tier matching the device's medium is
  /// appended automatically when absent. The placement region is NOT
  /// read or written until InitRegion().
  static Result<std::unique_ptr<TieredPool>> Make(NvmDevice* device,
                                                  uint64_t region_off,
                                                  uint64_t region_len,
                                                  const TierConfig& config);

  ~TieredPool();

  /// Formats (fresh == true) or loads (fresh == false) the placement
  /// region. Loading validates the header and collects the committed
  /// entry prefix; entries are adopted by ApplyInitialPlacement() once
  /// extents are registered. Loading a region that never was formatted
  /// formats it instead.
  Status InitRegion(bool fresh);

  /// Drops all units (carrying heat and committed tier for extents that
  /// re-register at the same offset, so heat survives re-registration
  /// across Runs on one engine).
  void ResetExtents();

  /// Registers [begin, begin + len) as `cls`, split into unit_bytes
  /// units, and rebuilds the page index. Extents must not overlap.
  void RegisterExtent(uint64_t begin, uint64_t len, TierClass cls);

  /// Places every unplaced unit per policy under the tier budgets
  /// (preferred tier, spilling down when full), after re-applying
  /// placements loaded by InitRegion(). Initial placement is a policy
  /// default, not a migration: nothing is committed to the region.
  Status ApplyInitialPlacement();

  // --- Device charging hot path (NvmDevice calls these when the
  // --- router is attached; offsets are device offsets).
  void TouchRead(uint64_t offset, uint64_t len);
  void TouchWrite(uint64_t offset, uint64_t len);
  void TouchReadExtent(uint64_t offset, uint64_t len, uint64_t quantum);
  void TouchWriteExtent(uint64_t offset, uint64_t len, uint64_t quantum);
  void ChargeFlush(uint64_t offset, uint64_t len);
  void ChargeDrain();
  /// Crash / snapshot load: invalidates every non-home tier buffer (the
  /// device invalidates its own model itself) and folds volatile-tier
  /// residents back to home — a power cut empties DRAM.
  void InvalidateBuffers();

  // --- Migration.
  /// Per-traversal-step hook: every migrate_interval steps runs one
  /// MigrationTick. No-op (one branch) between ticks.
  Status MaybeMigrate(RedoLog* log);
  /// One migration epoch: decays heat, computes the ideal hot-to-fast
  /// packing under budgets, and commits up to max_moves_per_tick
  /// placement moves (each crash-atomic). `log` may be null (ordered
  /// protocol); otherwise it must have no open transaction.
  Status MigrationTick(RedoLog* log);
  /// Forces the unit containing `begin` to `target_tier` with a durable
  /// placement commit. Test / bench surface.
  Status MigrateRange(uint64_t begin, uint8_t target_tier, RedoLog* log);
  /// Promotes the hottest migratable unit not already in the top tier
  /// (test surface for the promotion path).
  Status PromoteHottest(RedoLog* log);

  // --- Introspection.
  /// Forwarding lookup: resident tier index for a device offset, or -1
  /// when the offset is in no registered unit (such accesses charge
  /// home).
  int TierOf(uint64_t offset) const;
  TierCounters counters() const;
  size_t unit_count() const;
  uint64_t heat_of(uint64_t offset) const;
  /// True once since the last poll if a payload/gram-payload unit was
  /// demoted: the engine must invalidate decoded-rule caches, whose
  /// admission costs were measured against the old tier.
  bool TakePayloadDemotion();
  /// Access counters of tier `tier`'s cost model (the device's own
  /// model for the home tier).
  const AccessStats& tier_stats(int tier) const {
    return ModelOf(tier).stats();
  }
  int home_tier() const { return home_tier_; }
  const TierConfig& config() const { return config_; }
  uint64_t region_off() const { return region_off_; }

 private:
  struct Tier {
    DeviceProfile profile;
    /// Owned cost model for non-home tiers; null for home (which
    /// charges the device's own model so single-tier == untiered).
    std::unique_ptr<MemoryModel> owned_model;
    MemoryModel* model = nullptr;
    uint64_t budget = 0;  // 0 = uncapped
  };
  struct Unit {
    uint64_t begin = 0;
    uint32_t len = 0;
    TierClass cls = TierClass::kOther;
    uint8_t tier = kHomeTier;  // kHomeTier == unplaced
    uint64_t heat = 0;
  };
  /// Durable placement record (32 bytes). crc covers begin..seq with
  /// the region generation mixed in, so stale entries from a reformat
  /// can never revalidate.
  struct PlacementEntry {
    uint64_t begin;
    uint32_t len;
    uint8_t cls;
    uint8_t tier;
    uint16_t pad0;
    uint64_t seq;
    uint32_t crc;
    uint32_t pad1;
  };
  static_assert(sizeof(PlacementEntry) == kEntryBytes);
  struct RegionHeader {
    uint64_t magic;
    uint32_t version;
    uint32_t entry_capacity;
    uint32_t committed;
    uint32_t pad0;
    uint64_t generation;
    uint64_t checksum;
  };
  static_assert(sizeof(RegionHeader) == kHeaderBytes);

  TieredPool(NvmDevice* device, uint64_t region_off, uint64_t region_len,
             TierConfig config);

  static uint64_t HeaderChecksum(const RegionHeader& h);
  static uint32_t EntryChecksum(uint64_t generation, const PlacementEntry& e);
  uint64_t entry_off(uint32_t slot) const {
    return region_off_ + kHeaderSlot + uint64_t{slot} * kEntryBytes;
  }
  uint32_t entry_capacity() const {
    return static_cast<uint32_t>((region_len_ - kHeaderSlot) / kEntryBytes);
  }

  /// Page-index granularity; no unit_bytes is smaller.
  static constexpr int kPageShift = 12;

  /// Rebuilds page_first_unit_ from units_.
  void RebuildPageIndex();
  /// Index of the first unit that ends past `offset` (units_.size() if
  /// none); that unit contains `offset` unless it begins after it.
  size_t FirstUnitEndingAfter(uint64_t offset) const;
  /// The unit containing `offset`; SIZE_MAX if none.
  size_t UnitIndex(uint64_t offset) const;
  /// Splits [offset, offset+len) at unit boundaries and calls
  /// fn(tier_index, sub_off, sub_len) per homogeneous sub-range,
  /// bumping unit heat by the covered bytes when `heat` is set.
  template <typename Fn>
  void ForEachRange(uint64_t offset, uint64_t len, bool heat, Fn fn);
  int ResolveTier(size_t unit_idx) const;
  MemoryModel& ModelOf(int tier) const;
  bool TierIsVolatile(int tier) const;

  /// Commits `unit` -> `target` durably (CommitAtomic), charges
  /// the copy costs (source read, target write, flush for persistent
  /// targets), and updates counters. Core of every Promote*/Migrate*.
  Status MigrateUnit(size_t unit_idx, uint8_t target, RedoLog* log);
  Status CommitPlacement(const PlacementEntry& e, RedoLog* log);
  /// Ideal tier for each unit under budgets: hottest migratable units
  /// pack into the fastest tiers, pinned units stay put.
  std::vector<uint8_t> IdealPlacement() const;

  NvmDevice* device_;
  const uint64_t region_off_;
  const uint64_t region_len_;
  const TierConfig config_;
  std::vector<Tier> tiers_;
  int home_tier_ = 0;

  std::vector<Unit> units_;       // sorted by begin, non-overlapping
  std::vector<Unit> prev_units_;  // heat carry-over
  /// page_first_unit_[p] is the first unit ending past the start of page
  /// first_page_ + p; the pages run from the first unit's to the last's.
  std::vector<uint32_t> page_first_unit_;
  uint64_t first_page_ = 0;
  std::vector<PlacementEntry> loaded_entries_;
  bool region_ready_ = false;
  uint32_t committed_entries_ = 0;
  uint64_t generation_ = 0;
  uint64_t step_counter_ = 0;
  uint64_t promotions_ = 0;
  uint64_t demotions_ = 0;
  uint64_t migration_epochs_ = 0;
  bool payload_demotion_pending_ = false;
};

}  // namespace ntadoc::nvm

#endif  // NTADOC_NVM_TIERED_POOL_H_
