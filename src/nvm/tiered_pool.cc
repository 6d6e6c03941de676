#include "nvm/tiered_pool.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>

#include "nvm/pmem.h"
#include "util/hash.h"

namespace ntadoc::nvm {

namespace {
constexpr uint64_t kRegionMagic = 0x4E54414454494552ULL;  // "NTADTIER"
constexpr uint32_t kRegionVersion = 1;

Result<MediumKind> ParseMedium(const std::string& name) {
  if (name == "dram") return MediumKind::kDram;
  if (name == "nvm" || name == "optane") return MediumKind::kOptane;
  if (name == "ssd") return MediumKind::kSsd;
  if (name == "hdd") return MediumKind::kHdd;
  return Status::InvalidArgument("tiered_pool: unknown medium '" + name +
                                 "' (want dram|nvm|ssd|hdd)");
}
}  // namespace

const char* TierClassToString(TierClass cls) {
  switch (cls) {
    case TierClass::kMeta:
      return "meta";
    case TierClass::kTable:
      return "table";
    case TierClass::kPayload:
      return "payload";
    case TierClass::kGramPayload:
      return "gram_payload";
    case TierClass::kQueue:
      return "queue";
    case TierClass::kCursor:
      return "cursor";
    case TierClass::kOther:
      return "other";
  }
  return "?";
}

std::array<TierPolicy, kNumTierClasses> TierConfig::DefaultPolicy() {
  std::array<TierPolicy, kNumTierClasses> p{};
  p[static_cast<int>(TierClass::kMeta)] = {0, false};
  p[static_cast<int>(TierClass::kTable)] = {0, true};
  p[static_cast<int>(TierClass::kPayload)] = {kHomeTier, true};
  p[static_cast<int>(TierClass::kGramPayload)] = {kHomeTier, true};
  p[static_cast<int>(TierClass::kQueue)] = {0, false};
  p[static_cast<int>(TierClass::kCursor)] = {0, false};
  p[static_cast<int>(TierClass::kOther)] = {kHomeTier, false};
  return p;
}

Result<TierConfig> TierConfig::Parse(const std::string& spec) {
  TierConfig config;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    TierSpec tier;
    const size_t colon = item.find(':');
    std::string name = item.substr(0, colon);
    NTADOC_ASSIGN_OR_RETURN(tier.kind, ParseMedium(name));
    if (colon != std::string::npos) {
      const std::string budget = item.substr(colon + 1);
      char* end = nullptr;
      const unsigned long long mb = std::strtoull(budget.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || budget.empty()) {
        return Status::InvalidArgument("tiered_pool: bad budget '" + budget +
                                       "' in tier spec '" + item + "'");
      }
      tier.budget_bytes = uint64_t{mb} << 20;
    }
    config.tiers.push_back(tier);
    if (pos > spec.size()) break;
  }
  if (config.tiers.empty()) {
    return Status::InvalidArgument("tiered_pool: empty tier spec");
  }
  return config;
}

uint64_t TieredPool::PlacementReserve(const TierConfig& config) {
  (void)config;
  // Header slot + 8K placement entries, rounded to the 1 MiB pool
  // block so reserving it never misaligns the pool end. Deterministic
  // from the config alone: the engine must be able to recompute the
  // region offset from options at attach time.
  return 256 * 1024;
}

TieredPool::TieredPool(NvmDevice* device, uint64_t region_off,
                       uint64_t region_len, TierConfig config)
    : device_(device),
      region_off_(region_off),
      region_len_(region_len),
      config_(std::move(config)) {}

TieredPool::~TieredPool() = default;

Result<std::unique_ptr<TieredPool>> TieredPool::Make(NvmDevice* device,
                                                     uint64_t region_off,
                                                     uint64_t region_len,
                                                     const TierConfig& config) {
  if (device == nullptr) {
    return Status::InvalidArgument("tiered_pool: null device");
  }
  if (config.tiers.empty() || config.tiers.size() > 4) {
    return Status::InvalidArgument("tiered_pool: want 1..4 tiers");
  }
  if (config.unit_bytes < 4096 || (config.unit_bytes & (config.unit_bytes - 1)) != 0) {
    return Status::InvalidArgument(
        "tiered_pool: unit_bytes must be a power of two >= 4096");
  }
  if (region_len < kHeaderSlot + kEntryBytes ||
      region_off + region_len > device->capacity()) {
    return Status::InvalidArgument("tiered_pool: bad placement region");
  }
  TierConfig cfg = config;
  const MediumKind home_kind = device->profile().kind;
  int home = -1;
  for (size_t i = 0; i < cfg.tiers.size(); ++i) {
    for (size_t j = i + 1; j < cfg.tiers.size(); ++j) {
      if (cfg.tiers[i].kind == cfg.tiers[j].kind) {
        return Status::InvalidArgument("tiered_pool: duplicate tier medium");
      }
    }
    if (cfg.tiers[i].kind == home_kind) home = static_cast<int>(i);
  }
  if (home < 0) {
    // The device's own medium always participates: it is where every
    // byte durably lives. Append it uncapped as the bottom tier.
    cfg.tiers.push_back(TierSpec{home_kind, 0});
    home = static_cast<int>(cfg.tiers.size()) - 1;
  }
  auto pool = std::unique_ptr<TieredPool>(
      new TieredPool(device, region_off, region_len, std::move(cfg)));
  pool->home_tier_ = home;
  for (size_t i = 0; i < pool->config_.tiers.size(); ++i) {
    Tier tier;
    tier.profile = ProfileFor(pool->config_.tiers[i].kind);
    tier.budget = pool->config_.tiers[i].budget_bytes;
    if (static_cast<int>(i) == home) {
      // Home charges the device's own model, so home residents and
      // pre-attach charges (markers, log formatting) share one buffer
      // state, as they do untiered.
      tier.model = &device->model();
    } else {
      tier.owned_model =
          std::make_unique<MemoryModel>(tier.profile, device->clock_ptr());
      tier.model = tier.owned_model.get();
    }
    pool->tiers_.push_back(std::move(tier));
  }
  return pool;
}

uint64_t TieredPool::HeaderChecksum(const RegionHeader& h) {
  return Fnv1a64(&h, offsetof(RegionHeader, checksum));
}

uint32_t TieredPool::EntryChecksum(uint64_t generation,
                                   const PlacementEntry& e) {
  const uint32_t seed = Crc32(&generation, sizeof(generation));
  return Crc32(&e, offsetof(PlacementEntry, crc), seed);
}

Status TieredPool::InitRegion(bool fresh) {
  RegionHeader existing{};
  const bool readable =
      device_->TryReadBytes(region_off_, &existing, sizeof(existing)).ok();
  const bool valid = readable && existing.magic == kRegionMagic &&
                     existing.version == kRegionVersion &&
                     existing.checksum == HeaderChecksum(existing) &&
                     existing.entry_capacity == entry_capacity() &&
                     existing.committed <= existing.entry_capacity;
  std::vector<PlacementEntry> adopted;
  RegionHeader header{};
  if (!fresh && valid) {
    // Collect the committed prefix; an invalid entry ends adoption (the
    // ordered protocol flushes entries before the header, so a valid
    // header never covers a torn entry — anything else is corruption
    // and the safe fallback is home residency).
    adopted.reserve(existing.committed);
    for (uint32_t s = 0; s < existing.committed; ++s) {
      PlacementEntry e{};
      if (!device_->TryReadBytes(entry_off(s), &e, sizeof(e)).ok()) break;
      if (e.crc != EntryChecksum(existing.generation, e)) break;
      adopted.push_back(e);
    }
    header = existing;
  } else {
    header.magic = kRegionMagic;
    header.version = kRegionVersion;
    header.entry_capacity = entry_capacity();
    header.committed = 0;
    header.generation = valid ? existing.generation + 1 : 1;
    header.checksum = HeaderChecksum(header);
    PmemMemcpyPersist(*device_, region_off_, &header, sizeof(header));
  }
  loaded_entries_ = std::move(adopted);
  committed_entries_ = header.committed;
  generation_ = header.generation;
  region_ready_ = true;
  return Status::OK();
}

void TieredPool::ResetExtents() {
  prev_units_ = std::move(units_);
  units_.clear();
  RebuildPageIndex();
}

void TieredPool::RegisterExtent(uint64_t begin, uint64_t len, TierClass cls) {
  const uint64_t end = begin + len;
  for (uint64_t pos = begin; pos < end; pos += config_.unit_bytes) {
    Unit unit;
    unit.begin = pos;
    unit.len = static_cast<uint32_t>(std::min<uint64_t>(config_.unit_bytes, end - pos));
    unit.cls = cls;
    // Carry heat and residency for a unit re-registered at the same
    // offset (re-Runs on one engine keep their working set hot).
    const auto prev = std::lower_bound(
        prev_units_.begin(), prev_units_.end(), unit.begin,
        [](const Unit& u, uint64_t v) { return u.begin < v; });
    if (prev != prev_units_.end() && prev->begin == unit.begin &&
        prev->len == unit.len && prev->cls == cls) {
      unit.heat = prev->heat;
      unit.tier = prev->tier;
    }
    const auto at = std::lower_bound(
        units_.begin(), units_.end(), unit.begin,
        [](const Unit& u, uint64_t v) { return u.begin < v; });
    units_.insert(at, unit);
  }
  RebuildPageIndex();
}

void TieredPool::RebuildPageIndex() {
  page_first_unit_.clear();
  first_page_ = 0;
  if (units_.empty()) return;
  const Unit& last = units_.back();
  first_page_ = units_.front().begin >> kPageShift;
  const uint64_t last_page = (last.begin + last.len - 1) >> kPageShift;
  page_first_unit_.resize(last_page - first_page_ + 1);
  uint32_t i = 0;
  for (uint64_t p = 0; p < page_first_unit_.size(); ++p) {
    const uint64_t page_begin = (first_page_ + p) << kPageShift;
    while (units_[i].begin + units_[i].len <= page_begin) ++i;
    page_first_unit_[p] = i;
  }
}

Status TieredPool::ApplyInitialPlacement() {
  if (!region_ready_) {
    return Status::FailedPrecondition("tiered_pool: InitRegion first");
  }
  // 1. Re-apply durable placements (recovery after reopen). Volatile
  // targets fold back to home: a power cut empties DRAM, and the
  // inclusive home copy is the authoritative one.
  for (const PlacementEntry& e : loaded_entries_) {
    const auto it = std::lower_bound(
        units_.begin(), units_.end(), e.begin,
        [](const Unit& u, uint64_t v) { return u.begin < v; });
    if (it == units_.end() || it->begin != e.begin || it->len != e.len) continue;
    if (e.tier >= tiers_.size()) continue;
    it->tier = TierIsVolatile(e.tier) ? static_cast<uint8_t>(home_tier_)
                                      : e.tier;
  }
  loaded_entries_.clear();
  // 2. Policy placement for everything still unplaced, preferred tier
  // first, spilling down when a budget is exhausted. The slowest tier
  // absorbs overflow regardless of budget: placement is a cost model,
  // and every byte durably lives on the device either way.
  std::vector<uint64_t> resident(tiers_.size(), 0);
  for (const Unit& u : units_) {
    if (u.tier != kHomeTier) resident[u.tier] += u.len;
  }
  for (Unit& u : units_) {
    if (u.tier != kHomeTier) continue;
    const TierPolicy& policy = config_.policy[static_cast<int>(u.cls)];
    uint8_t t = policy.preferred_tier == kHomeTier
                    ? static_cast<uint8_t>(home_tier_)
                    : policy.preferred_tier;
    if (t >= tiers_.size()) t = static_cast<uint8_t>(home_tier_);
    while (t + 1u < tiers_.size() && tiers_[t].budget != 0 &&
           resident[t] + u.len > tiers_[t].budget) {
      ++t;
    }
    u.tier = t;
    resident[t] += u.len;
  }
  return Status::OK();
}

size_t TieredPool::FirstUnitEndingAfter(uint64_t offset) const {
  const uint64_t page = offset >> kPageShift;
  if (page < first_page_) return 0;
  if (page - first_page_ >= page_first_unit_.size()) return units_.size();
  // The page's first unit ends past the page start; skip the (short)
  // units that end between the page start and `offset`.
  size_t i = page_first_unit_[page - first_page_];
  while (i < units_.size() && units_[i].begin + units_[i].len <= offset) ++i;
  return i;
}

size_t TieredPool::UnitIndex(uint64_t offset) const {
  const size_t i = FirstUnitEndingAfter(offset);
  if (i == units_.size() || units_[i].begin > offset) return SIZE_MAX;
  return i;
}

int TieredPool::ResolveTier(size_t unit_idx) const {
  const uint8_t t = units_[unit_idx].tier;
  return t == kHomeTier ? home_tier_ : t;
}

MemoryModel& TieredPool::ModelOf(int tier) const {
  return *tiers_[static_cast<size_t>(tier)].model;
}

bool TieredPool::TierIsVolatile(int tier) const {
  return !tiers_[static_cast<size_t>(tier)].profile.persistent;
}

template <typename Fn>
void TieredPool::ForEachRange(uint64_t offset, uint64_t len, bool heat,
                              Fn fn) {
  uint64_t pos = offset;
  const uint64_t end = offset + len;
  size_t i = FirstUnitEndingAfter(pos);
  while (pos < end) {
    if (i >= units_.size() || units_[i].begin >= end) {
      fn(home_tier_, pos, end - pos);
      return;
    }
    Unit& u = units_[i];
    if (pos < u.begin) {
      fn(home_tier_, pos, u.begin - pos);
      pos = u.begin;
    }
    // u is the first unit ending past pos, so the piece is never empty.
    const uint64_t sub_end = std::min<uint64_t>(end, u.begin + u.len);
    if (heat) u.heat += sub_end - pos;
    fn(u.tier == kHomeTier ? home_tier_ : u.tier, pos, sub_end - pos);
    pos = sub_end;
    ++i;
  }
}

void TieredPool::TouchRead(uint64_t offset, uint64_t len) {
  ForEachRange(offset, len, /*heat=*/true,
               [this](int tier, uint64_t off, uint64_t sub_len) {
                 ModelOf(tier).TouchRead(off, sub_len);
               });
}

void TieredPool::TouchWrite(uint64_t offset, uint64_t len) {
  ForEachRange(offset, len, /*heat=*/true,
               [this](int tier, uint64_t off, uint64_t sub_len) {
                 ModelOf(tier).TouchWrite(off, sub_len);
               });
}

void TieredPool::TouchReadExtent(uint64_t offset, uint64_t len,
                                 uint64_t quantum) {
  ForEachRange(offset, len, /*heat=*/true,
               [this, quantum](int tier, uint64_t off, uint64_t sub_len) {
                 ModelOf(tier).TouchReadExtent(off, sub_len, quantum);
               });
}

void TieredPool::TouchWriteExtent(uint64_t offset, uint64_t len,
                                  uint64_t quantum) {
  ForEachRange(offset, len, /*heat=*/true,
               [this, quantum](int tier, uint64_t off, uint64_t sub_len) {
                 ModelOf(tier).TouchWriteExtent(off, sub_len, quantum);
               });
}

void TieredPool::ChargeFlush(uint64_t offset, uint64_t len) {
  // Persistence lives at home for volatile residents: flushing a line
  // whose unit sits in DRAM pays the home (durable) flush cost. Unit
  // boundaries are only 8-byte aligned, so the range is cut only where
  // the flush target changes; a target that holds the whole range
  // charges its lines once, exactly as the untiered device would.
  int run_target = home_tier_;
  uint64_t run_len = 0;
  ForEachRange(offset, len, /*heat=*/false,
               [&](int tier, uint64_t, uint64_t sub_len) {
                 const int target = TierIsVolatile(tier) ? home_tier_ : tier;
                 if (target != run_target && run_len != 0) {
                   ModelOf(run_target).ChargeFlush(run_len);
                   run_len = 0;
                 }
                 run_target = target;
                 run_len += sub_len;
               });
  ModelOf(run_target).ChargeFlush(run_len);
}

void TieredPool::ChargeDrain() {
  ModelOf(home_tier_).ChargeDrain();
}

void TieredPool::InvalidateBuffers() {
  for (size_t i = 0; i < tiers_.size(); ++i) {
    if (tiers_[i].owned_model != nullptr) tiers_[i].owned_model->InvalidateBuffer();
  }
  for (Unit& u : units_) {
    if (u.tier != kHomeTier && TierIsVolatile(u.tier)) {
      u.tier = static_cast<uint8_t>(home_tier_);
    }
  }
}

int TieredPool::TierOf(uint64_t offset) const {
  const size_t i = UnitIndex(offset);
  if (i == SIZE_MAX) return -1;
  return ResolveTier(i);
}

uint64_t TieredPool::heat_of(uint64_t offset) const {
  const size_t i = UnitIndex(offset);
  return i == SIZE_MAX ? 0 : units_[i].heat;
}

TierCounters TieredPool::counters() const {
  TierCounters c;
  c.promotions = promotions_;
  c.demotions = demotions_;
  c.migration_epochs = migration_epochs_;
  for (const Unit& u : units_) {
    const int t = u.tier == kHomeTier ? home_tier_ : u.tier;
    c.resident_bytes[static_cast<int>(tiers_[static_cast<size_t>(t)].profile.kind)] +=
        u.len;
  }
  return c;
}

size_t TieredPool::unit_count() const { return units_.size(); }

bool TieredPool::TakePayloadDemotion() {
  const bool pending = payload_demotion_pending_;
  payload_demotion_pending_ = false;
  return pending;
}

Status TieredPool::CommitPlacement(const PlacementEntry& e, RedoLog* log) {
  RegionHeader header{};
  header.magic = kRegionMagic;
  header.version = kRegionVersion;
  header.entry_capacity = entry_capacity();
  header.committed = committed_entries_ + 1;
  header.generation = generation_;
  header.checksum = HeaderChecksum(header);
  const DurableWrite entry[] = {
      {entry_off(static_cast<uint32_t>(e.seq)), &e, sizeof(e)}};
  return CommitAtomic(*device_, log, /*data=*/{}, entry,
                      {region_off_, &header, sizeof(header)});
}

Status TieredPool::MigrateUnit(size_t unit_idx, uint8_t target, RedoLog* log) {
  if (!region_ready_) {
    return Status::FailedPrecondition("tiered_pool: InitRegion first");
  }
  if (unit_idx >= units_.size() || target >= tiers_.size()) {
    return Status::InvalidArgument("tiered_pool: bad migration target");
  }
  if (committed_entries_ >= entry_capacity()) {
    return Status::ResourceExhausted("tiered_pool: placement log full");
  }
  Unit& u = units_[unit_idx];
  const int source = ResolveTier(unit_idx);
  if (source == target) return Status::OK();
  PlacementEntry e{};
  e.begin = u.begin;
  e.len = u.len;
  e.cls = static_cast<uint8_t>(u.cls);
  e.tier = target;
  e.seq = committed_entries_;
  e.crc = EntryChecksum(generation_, e);
  // Copy to target: source read + target write, then make the target
  // copy durable when the target persists (volatile promotions keep the
  // home copy authoritative, so there is nothing to flush).
  ModelOf(source).TouchReadExtent(u.begin, u.len, 0);
  ModelOf(target).TouchWriteExtent(u.begin, u.len, 0);
  if (!TierIsVolatile(target)) {
    ModelOf(target).ChargeFlush(u.len);
    ModelOf(target).ChargeDrain();
  }
  NTADOC_RETURN_IF_ERROR(CommitPlacement(e, log));
  u.tier = target;
  if (target > source &&
      (u.cls == TierClass::kPayload || u.cls == TierClass::kGramPayload)) {
    payload_demotion_pending_ = true;
  }
  ++committed_entries_;
  if (target < source) {
    ++promotions_;
  } else {
    ++demotions_;
  }
  return Status::OK();
}

Status TieredPool::MigrateRange(uint64_t begin, uint8_t target_tier,
                                RedoLog* log) {
  const size_t idx = UnitIndex(begin);
  if (idx == SIZE_MAX) {
    return Status::NotFound("tiered_pool: no unit at offset");
  }
  return MigrateUnit(idx, target_tier, log);
}

Status TieredPool::PromoteHottest(RedoLog* log) {
  size_t best = SIZE_MAX;
  uint64_t best_heat = 0;
  for (size_t i = 0; i < units_.size(); ++i) {
    const Unit& u = units_[i];
    if (!config_.policy[static_cast<int>(u.cls)].migratable) continue;
    if (ResolveTier(i) == 0) continue;
    if (u.heat > best_heat) {
      best = i;
      best_heat = u.heat;
    }
  }
  if (best == SIZE_MAX) {
    return Status::NotFound("tiered_pool: nothing to promote");
  }
  return MigrateUnit(best, 0, log);
}

std::vector<uint8_t> TieredPool::IdealPlacement() const {
  std::vector<uint8_t> ideal(units_.size());
  std::vector<uint64_t> resident(tiers_.size(), 0);
  // Pinned units keep their tier and consume its budget first.
  for (size_t i = 0; i < units_.size(); ++i) {
    const Unit& u = units_[i];
    const int cur = ResolveTier(i);
    ideal[i] = static_cast<uint8_t>(cur);
    if (!config_.policy[static_cast<int>(u.cls)].migratable || u.heat == 0) {
      resident[static_cast<size_t>(cur)] += u.len;
    }
  }
  // Hottest migratable units pack into the fastest tiers under budget;
  // ties break on offset so the packing is deterministic. Units that
  // were never touched since the last decay keep their tier (no
  // speculative promotion of cold bytes).
  std::vector<size_t> order;
  order.reserve(units_.size());
  for (size_t i = 0; i < units_.size(); ++i) {
    const Unit& u = units_[i];
    if (config_.policy[static_cast<int>(u.cls)].migratable && u.heat > 0) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    if (units_[a].heat != units_[b].heat) return units_[a].heat > units_[b].heat;
    return units_[a].begin < units_[b].begin;
  });
  for (const size_t i : order) {
    uint8_t t = 0;
    while (t + 1u < tiers_.size() && tiers_[t].budget != 0 &&
           resident[t] + units_[i].len > tiers_[t].budget) {
      ++t;
    }
    ideal[i] = t;
    resident[t] += units_[i].len;
  }
  return ideal;
}

Status TieredPool::MaybeMigrate(RedoLog* log) {
  ++step_counter_;
  if (!config_.migrate || config_.migrate_interval == 0 ||
      step_counter_ % config_.migrate_interval != 0) {
    return Status::OK();
  }
  return MigrationTick(log);
}

Status TieredPool::MigrationTick(RedoLog* log) {
  if (!region_ready_ || units_.empty()) return Status::OK();
  if (committed_entries_ >= entry_capacity()) {
    // Placement log full: stop migrating rather than risk a torn
    // compaction. Placement stays frozen at the last committed state.
    return Status::OK();
  }
  struct Move {
    size_t idx;
    uint8_t target;
  };
  const std::vector<uint8_t> ideal = IdealPlacement();
  std::vector<Move> promotions;
  std::vector<Move> demotions;
  for (size_t i = 0; i < units_.size(); ++i) {
    const int cur = ResolveTier(i);
    if (ideal[i] == cur) continue;
    if (ideal[i] < cur) {
      promotions.push_back({i, ideal[i]});
    } else {
      demotions.push_back({i, ideal[i]});
    }
  }
  // Demotions first: they free top-tier budget the promotions need.
  const auto hotter = [this](const Move& a, const Move& b) {
    if (units_[a.idx].heat != units_[b.idx].heat) {
      return units_[a.idx].heat > units_[b.idx].heat;
    }
    return units_[a.idx].begin < units_[b.idx].begin;
  };
  std::sort(promotions.begin(), promotions.end(), hotter);
  std::sort(demotions.begin(), demotions.end(),
            [&](const Move& a, const Move& b) { return hotter(b, a); });
  std::vector<Move> moves;
  const size_t cap = config_.max_moves_per_tick;
  for (const Move& m : demotions) {
    if (moves.size() >= cap) break;
    moves.push_back(m);
  }
  for (const Move& m : promotions) {
    if (moves.size() >= cap) break;
    moves.push_back(m);
  }
  // Exponential decay: next interval's heat starts from half of this
  // one, so sustained access dominates stale history.
  for (Unit& u : units_) u.heat >>= 1;
  for (const Move& m : moves) {
    NTADOC_RETURN_IF_ERROR(MigrateUnit(m.idx, m.target, log));
  }
  if (!moves.empty()) ++migration_epochs_;
  return Status::OK();
}

}  // namespace ntadoc::nvm
