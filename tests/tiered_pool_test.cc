// TieredPool unit tests: config parsing, policy-driven initial
// placement with budget spill, heat accounting and decay, forwarding
// (TierOf) lookups across migrations, budget enforcement during ticks,
// the durable placement region's commit/reopen roundtrip, and a seeded
// differential check of the charge routing against a brute-force
// reference router.

#include "nvm/tiered_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "nvm/nvm_device.h"
#include "util/logging.h"
#include "util/random.h"

namespace ntadoc::nvm {
namespace {

constexpr uint64_t kUnit = 4096;
constexpr uint64_t kRegionOff = 1ull << 20;
constexpr uint64_t kRegionLen = 256 * 1024;

std::unique_ptr<NvmDevice> MakeDevice(
    DeviceProfile profile = OptaneProfile()) {
  DeviceOptions opts;
  opts.capacity = 4ull << 20;
  opts.profile = profile;
  auto dev = NvmDevice::Create(opts);
  NTADOC_CHECK(dev.ok());
  return std::move(dev).value();
}

TierConfig SmallUnitConfig(std::vector<TierSpec> tiers) {
  TierConfig cfg;
  cfg.tiers = std::move(tiers);
  cfg.unit_bytes = kUnit;
  cfg.migrate_interval = 2;
  return cfg;
}

Result<std::unique_ptr<TieredPool>> MakePool(NvmDevice* device,
                                             const TierConfig& cfg) {
  return TieredPool::Make(device, kRegionOff, kRegionLen, cfg);
}

TEST(TierConfigTest, ParsesMediaAndBudgets) {
  auto cfg = TierConfig::Parse("dram:64,nvm");
  ASSERT_TRUE(cfg.ok()) << cfg.status();
  ASSERT_EQ(cfg->tiers.size(), 2u);
  EXPECT_EQ(cfg->tiers[0].kind, MediumKind::kDram);
  EXPECT_EQ(cfg->tiers[0].budget_bytes, 64ull << 20);
  EXPECT_EQ(cfg->tiers[1].kind, MediumKind::kOptane);
  EXPECT_EQ(cfg->tiers[1].budget_bytes, 0u);  // uncapped

  auto four = TierConfig::Parse("dram:1,nvm:8,ssd:64,hdd");
  ASSERT_TRUE(four.ok()) << four.status();
  EXPECT_EQ(four->tiers.size(), 4u);
  EXPECT_EQ(four->tiers[3].kind, MediumKind::kHdd);
}

TEST(TierConfigTest, RejectsBadSpecs) {
  EXPECT_FALSE(TierConfig::Parse("").ok());
  EXPECT_FALSE(TierConfig::Parse("floppy:4").ok());
  EXPECT_FALSE(TierConfig::Parse("dram:abc,nvm").ok());
  EXPECT_FALSE(TierConfig::Parse("dram:,nvm").ok());
}

TEST(TieredPoolTest, MakeValidatesConfig) {
  auto device = MakeDevice();
  // Duplicate media are rejected.
  auto dup = MakePool(device.get(),
                      SmallUnitConfig({{MediumKind::kDram, 0},
                                       {MediumKind::kDram, 0}}));
  EXPECT_FALSE(dup.ok());
  // Unit size must be a power of two >= 4096.
  TierConfig tiny = SmallUnitConfig({{MediumKind::kDram, 0}});
  tiny.unit_bytes = 1024;
  EXPECT_FALSE(MakePool(device.get(), tiny).ok());
  // A tier for the device's own medium is appended when absent.
  auto made = MakePool(device.get(),
                       SmallUnitConfig({{MediumKind::kDram, 1ull << 20}}));
  ASSERT_TRUE(made.ok()) << made.status();
  EXPECT_EQ((*made)->config().tiers.size(), 2u);
  EXPECT_EQ((*made)->config().tiers[1].kind, MediumKind::kOptane);
  EXPECT_EQ((*made)->home_tier(), 1);
}

TEST(TieredPoolTest, PolicyPlacesClassesAndSpillsOverBudget) {
  auto device = MakeDevice();
  // DRAM budget of exactly two units over the Optane home tier.
  auto made = MakePool(device.get(),
                       SmallUnitConfig({{MediumKind::kDram, 2 * kUnit}}));
  ASSERT_TRUE(made.ok()) << made.status();
  TieredPool& pool = **made;
  ASSERT_TRUE(pool.InitRegion(/*fresh=*/true).ok());

  // Three meta units prefer tier 0 but only two fit; payload starts home.
  pool.RegisterExtent(0, 3 * kUnit, TierClass::kMeta);
  pool.RegisterExtent(16 * kUnit, 2 * kUnit, TierClass::kPayload);
  ASSERT_TRUE(pool.ApplyInitialPlacement().ok());

  EXPECT_EQ(pool.unit_count(), 5u);
  EXPECT_EQ(pool.TierOf(0), 0);
  EXPECT_EQ(pool.TierOf(kUnit), 0);
  EXPECT_EQ(pool.TierOf(2 * kUnit), pool.home_tier())
      << "third meta unit must spill down past the full DRAM budget";
  EXPECT_EQ(pool.TierOf(16 * kUnit), pool.home_tier());
  // Offsets outside every registered extent are unowned (charge home).
  EXPECT_EQ(pool.TierOf(8 * kUnit), -1);

  const TierCounters tc = pool.counters();
  EXPECT_EQ(tc.resident_bytes[static_cast<int>(MediumKind::kDram)],
            2 * kUnit);
  EXPECT_EQ(tc.resident_bytes[static_cast<int>(MediumKind::kOptane)],
            3 * kUnit);
}

TEST(TieredPoolTest, RoutedAccessesAccumulateAndDecayHeat) {
  auto device = MakeDevice();
  auto made = MakePool(device.get(),
                       SmallUnitConfig({{MediumKind::kDram, 2 * kUnit}}));
  ASSERT_TRUE(made.ok()) << made.status();
  TieredPool& pool = **made;
  device->set_tier_router(&pool);
  ASSERT_TRUE(pool.InitRegion(/*fresh=*/true).ok());
  pool.RegisterExtent(0, 2 * kUnit, TierClass::kPayload);
  ASSERT_TRUE(pool.ApplyInitialPlacement().ok());

  // Device reads route through the tier router and charge unit heat.
  uint8_t buf[256];
  device->ReadBytes(64, buf, sizeof buf);
  device->ReadBytes(64, buf, sizeof buf);
  EXPECT_EQ(pool.heat_of(0), 2 * sizeof buf);
  EXPECT_EQ(pool.heat_of(kUnit), 0u);

  // A tick halves the heat of every unit.
  ASSERT_TRUE(pool.MigrationTick(nullptr).ok());
  EXPECT_EQ(pool.heat_of(0), sizeof buf);
  device->set_tier_router(nullptr);
}

TEST(TieredPoolTest, TickPromotesHotUnitsWithinBudget) {
  auto device = MakeDevice();
  auto made = MakePool(device.get(),
                       SmallUnitConfig({{MediumKind::kDram, 2 * kUnit}}));
  ASSERT_TRUE(made.ok()) << made.status();
  TieredPool& pool = **made;
  ASSERT_TRUE(pool.InitRegion(/*fresh=*/true).ok());
  // Four payload units, all starting at home.
  pool.RegisterExtent(0, 4 * kUnit, TierClass::kPayload);
  ASSERT_TRUE(pool.ApplyInitialPlacement().ok());
  ASSERT_EQ(pool.TierOf(0), pool.home_tier());

  // Heat two of the four; the tick should pack exactly those into the
  // two-unit DRAM budget.
  pool.TouchRead(1 * kUnit, kUnit);
  pool.TouchRead(3 * kUnit, kUnit);
  ASSERT_TRUE(pool.MigrationTick(nullptr).ok());

  EXPECT_EQ(pool.TierOf(1 * kUnit), 0);
  EXPECT_EQ(pool.TierOf(3 * kUnit), 0);
  EXPECT_EQ(pool.TierOf(0 * kUnit), pool.home_tier());
  EXPECT_EQ(pool.TierOf(2 * kUnit), pool.home_tier());

  const TierCounters tc = pool.counters();
  EXPECT_EQ(tc.promotions, 2u);
  EXPECT_EQ(tc.demotions, 0u);
  EXPECT_EQ(tc.migration_epochs, 1u);
  EXPECT_LE(tc.resident_bytes[static_cast<int>(MediumKind::kDram)],
            2 * kUnit)
      << "tick must never exceed the configured tier budget";
}

TEST(TieredPoolTest, HotterUnitEvictsColderOneUnderPressure) {
  auto device = MakeDevice();
  auto made = MakePool(device.get(),
                       SmallUnitConfig({{MediumKind::kDram, kUnit}}));
  ASSERT_TRUE(made.ok()) << made.status();
  TieredPool& pool = **made;
  ASSERT_TRUE(pool.InitRegion(/*fresh=*/true).ok());
  pool.RegisterExtent(0, 2 * kUnit, TierClass::kPayload);
  ASSERT_TRUE(pool.ApplyInitialPlacement().ok());

  pool.TouchRead(0, kUnit);
  ASSERT_TRUE(pool.MigrationTick(nullptr).ok());
  ASSERT_EQ(pool.TierOf(0), 0);

  // The second unit becomes much hotter than the first's decayed heat:
  // the next tick demotes unit 0 and promotes unit 1.
  pool.TouchRead(kUnit, kUnit);
  pool.TouchRead(kUnit, kUnit);
  pool.TouchRead(kUnit, kUnit);
  ASSERT_TRUE(pool.MigrationTick(nullptr).ok());
  EXPECT_EQ(pool.TierOf(0), pool.home_tier());
  EXPECT_EQ(pool.TierOf(kUnit), 0);

  const TierCounters tc = pool.counters();
  EXPECT_EQ(tc.promotions, 2u);
  EXPECT_EQ(tc.demotions, 1u);
  EXPECT_EQ(
      tc.resident_bytes[static_cast<int>(MediumKind::kDram)], kUnit);
}

TEST(TieredPoolTest, MaybeMigrateTicksOnTheConfiguredInterval) {
  auto device = MakeDevice();
  TierConfig cfg = SmallUnitConfig({{MediumKind::kDram, kUnit}});
  cfg.migrate_interval = 4;
  auto made = MakePool(device.get(), cfg);
  ASSERT_TRUE(made.ok()) << made.status();
  TieredPool& pool = **made;
  ASSERT_TRUE(pool.InitRegion(/*fresh=*/true).ok());
  pool.RegisterExtent(0, kUnit, TierClass::kPayload);
  ASSERT_TRUE(pool.ApplyInitialPlacement().ok());
  pool.TouchRead(0, kUnit);

  for (int step = 1; step <= 3; ++step) {
    ASSERT_TRUE(pool.MaybeMigrate(nullptr).ok());
    EXPECT_EQ(pool.counters().migration_epochs, 0u) << "step " << step;
  }
  ASSERT_TRUE(pool.MaybeMigrate(nullptr).ok());
  EXPECT_EQ(pool.counters().migration_epochs, 1u);
  EXPECT_EQ(pool.TierOf(0), 0);
}

TEST(TieredPoolTest, MigrateDisabledFreezesPlacementButKeepsHeat) {
  auto device = MakeDevice();
  TierConfig cfg = SmallUnitConfig({{MediumKind::kDram, kUnit}});
  cfg.migrate = false;
  cfg.migrate_interval = 1;
  auto made = MakePool(device.get(), cfg);
  ASSERT_TRUE(made.ok()) << made.status();
  TieredPool& pool = **made;
  ASSERT_TRUE(pool.InitRegion(/*fresh=*/true).ok());
  pool.RegisterExtent(0, kUnit, TierClass::kPayload);
  ASSERT_TRUE(pool.ApplyInitialPlacement().ok());

  pool.TouchRead(0, kUnit);
  ASSERT_TRUE(pool.MaybeMigrate(nullptr).ok());
  EXPECT_EQ(pool.TierOf(0), pool.home_tier());
  EXPECT_EQ(pool.counters().migration_epochs, 0u);
  EXPECT_GT(pool.heat_of(0), 0u);
}

TEST(TieredPoolTest, PinnedClassesNeverMigrate) {
  auto device = MakeDevice();
  auto made = MakePool(device.get(),
                       SmallUnitConfig({{MediumKind::kDram, 4 * kUnit}}));
  ASSERT_TRUE(made.ok()) << made.status();
  TieredPool& pool = **made;
  ASSERT_TRUE(pool.InitRegion(/*fresh=*/true).ok());
  // kOther is pinned at home by default policy.
  pool.RegisterExtent(0, kUnit, TierClass::kOther);
  ASSERT_TRUE(pool.ApplyInitialPlacement().ok());
  ASSERT_EQ(pool.TierOf(0), pool.home_tier());

  pool.TouchRead(0, kUnit);
  ASSERT_TRUE(pool.MigrationTick(nullptr).ok());
  EXPECT_EQ(pool.TierOf(0), pool.home_tier());
  EXPECT_EQ(pool.counters().promotions, 0u);
}

TEST(TieredPoolTest, PayloadDemotionRaisesCacheInvalidationFlag) {
  auto device = MakeDevice();
  auto made = MakePool(device.get(),
                       SmallUnitConfig({{MediumKind::kDram, kUnit}}));
  ASSERT_TRUE(made.ok()) << made.status();
  TieredPool& pool = **made;
  ASSERT_TRUE(pool.InitRegion(/*fresh=*/true).ok());
  pool.RegisterExtent(0, kUnit, TierClass::kPayload);
  ASSERT_TRUE(pool.ApplyInitialPlacement().ok());
  EXPECT_FALSE(pool.TakePayloadDemotion());

  ASSERT_TRUE(pool.MigrateRange(0, 0, nullptr).ok());
  EXPECT_FALSE(pool.TakePayloadDemotion()) << "promotion must not flag";
  ASSERT_TRUE(
      pool.MigrateRange(0, static_cast<uint8_t>(pool.home_tier()), nullptr)
          .ok());
  EXPECT_TRUE(pool.TakePayloadDemotion());
  EXPECT_FALSE(pool.TakePayloadDemotion()) << "flag is take-once";
}

TEST(TieredPoolTest, CommittedPlacementSurvivesReopen) {
  auto device = MakeDevice();
  // Optane home (tier 0) over an SSD capacity tier (tier 1): both
  // persistent, so a committed demotion must survive reopen.
  const TierConfig cfg = SmallUnitConfig(
      {{MediumKind::kOptane, 0}, {MediumKind::kSsd, 0}});
  {
    auto made = MakePool(device.get(), cfg);
    ASSERT_TRUE(made.ok()) << made.status();
    TieredPool& pool = **made;
    ASSERT_TRUE(pool.InitRegion(/*fresh=*/true).ok());
    pool.RegisterExtent(0, 2 * kUnit, TierClass::kPayload);
    ASSERT_TRUE(pool.ApplyInitialPlacement().ok());
    ASSERT_EQ(pool.TierOf(0), 0);
    ASSERT_TRUE(pool.MigrateRange(0, 1, nullptr).ok());
    ASSERT_EQ(pool.TierOf(0), 1);
    EXPECT_EQ(pool.counters().demotions, 1u);
  }
  {
    auto made = MakePool(device.get(), cfg);
    ASSERT_TRUE(made.ok()) << made.status();
    TieredPool& pool = **made;
    ASSERT_TRUE(pool.InitRegion(/*fresh=*/false).ok());
    pool.RegisterExtent(0, 2 * kUnit, TierClass::kPayload);
    ASSERT_TRUE(pool.ApplyInitialPlacement().ok());
    EXPECT_EQ(pool.TierOf(0), 1)
        << "committed placement entry must be adopted on reopen";
    EXPECT_EQ(pool.TierOf(kUnit), 0);
  }
}

TEST(TieredPoolTest, VolatileResidentsFoldHomeOnReopen) {
  auto device = MakeDevice();
  const TierConfig cfg = SmallUnitConfig({{MediumKind::kDram, 0}});
  {
    auto made = MakePool(device.get(), cfg);
    ASSERT_TRUE(made.ok()) << made.status();
    TieredPool& pool = **made;
    ASSERT_TRUE(pool.InitRegion(/*fresh=*/true).ok());
    pool.RegisterExtent(0, kUnit, TierClass::kPayload);
    ASSERT_TRUE(pool.ApplyInitialPlacement().ok());
    ASSERT_TRUE(pool.MigrateRange(0, 0, nullptr).ok());
    ASSERT_EQ(pool.TierOf(0), 0);
  }
  {
    auto made = MakePool(device.get(), cfg);
    ASSERT_TRUE(made.ok()) << made.status();
    TieredPool& pool = **made;
    ASSERT_TRUE(pool.InitRegion(/*fresh=*/false).ok());
    pool.RegisterExtent(0, kUnit, TierClass::kPayload);
    ASSERT_TRUE(pool.ApplyInitialPlacement().ok());
    // DRAM is volatile: the inclusive home copy is authoritative after
    // a shutdown, so the unit folds back to home.
    EXPECT_EQ(pool.TierOf(0), pool.home_tier());
  }
}

TEST(TieredPoolTest, FreshInitInvalidatesOldGenerationEntries) {
  auto device = MakeDevice();
  const TierConfig cfg = SmallUnitConfig(
      {{MediumKind::kOptane, 0}, {MediumKind::kSsd, 0}});
  {
    auto made = MakePool(device.get(), cfg);
    ASSERT_TRUE(made.ok()) << made.status();
    TieredPool& pool = **made;
    ASSERT_TRUE(pool.InitRegion(/*fresh=*/true).ok());
    pool.RegisterExtent(0, kUnit, TierClass::kPayload);
    ASSERT_TRUE(pool.ApplyInitialPlacement().ok());
    ASSERT_TRUE(pool.MigrateRange(0, 1, nullptr).ok());
  }
  {
    // A fresh re-init (salvage restart) bumps the generation; the old
    // entries' checksums no longer validate and must not be adopted.
    auto made = MakePool(device.get(), cfg);
    ASSERT_TRUE(made.ok()) << made.status();
    TieredPool& pool = **made;
    ASSERT_TRUE(pool.InitRegion(/*fresh=*/true).ok());
    pool.RegisterExtent(0, kUnit, TierClass::kPayload);
    ASSERT_TRUE(pool.ApplyInitialPlacement().ok());
    EXPECT_EQ(pool.TierOf(0), 0);
  }
}

TEST(TieredPoolTest, HeatCarriesAcrossReRegistration) {
  auto device = MakeDevice();
  auto made = MakePool(device.get(),
                       SmallUnitConfig({{MediumKind::kDram, kUnit}}));
  ASSERT_TRUE(made.ok()) << made.status();
  TieredPool& pool = **made;
  ASSERT_TRUE(pool.InitRegion(/*fresh=*/true).ok());
  pool.RegisterExtent(0, kUnit, TierClass::kPayload);
  ASSERT_TRUE(pool.ApplyInitialPlacement().ok());
  pool.TouchRead(0, kUnit);
  ASSERT_EQ(pool.heat_of(0), kUnit);

  // A new Run re-registers the same extents; heat must survive so the
  // migrator's history spans runs.
  pool.ResetExtents();
  pool.RegisterExtent(0, kUnit, TierClass::kPayload);
  ASSERT_TRUE(pool.ApplyInitialPlacement().ok());
  EXPECT_EQ(pool.heat_of(0), kUnit);
}

// A flush across a unit boundary charges its lines once: a home-only
// router charges exactly what the device's own model charges, on random
// 8-byte-aligned ranges that straddle unit boundaries and gaps.
TEST(TieredPoolTest, HomeOnlyFlushChargesLikeUntieredDevice) {
  auto tiered = MakeDevice();
  auto plain = MakeDevice();
  auto made =
      MakePool(tiered.get(), SmallUnitConfig({{MediumKind::kOptane, 0}}));
  ASSERT_TRUE(made.ok()) << made.status();
  TieredPool& pool = **made;
  tiered->set_tier_router(&pool);
  ASSERT_TRUE(pool.InitRegion(/*fresh=*/true).ok());
  // The repro: a unit ends at 4104, so [4096, 4224) crosses it.
  pool.RegisterExtent(8, 2 * kUnit, TierClass::kPayload);
  ASSERT_TRUE(pool.ApplyInitialPlacement().ok());
  uint64_t t0 = tiered->clock().NowNanos();
  tiered->FlushRange(4096, 128);
  EXPECT_EQ(tiered->clock().NowNanos() - t0, 200u) << "2 lines at 100 ns";

  pool.ResetExtents();
  Rng rng(7);
  for (uint64_t pos = 8 * rng.Uniform(512); pos < kRegionOff;) {
    const uint64_t len = 8 + 8 * rng.Uniform(3 * kUnit / 8);
    pool.RegisterExtent(pos, std::min(len, kRegionOff - pos),
                        TierClass::kPayload);
    pos += len + (rng.Bernoulli(0.5) ? 8 * rng.Uniform(kUnit / 8) : 0);
  }
  ASSERT_TRUE(pool.ApplyInitialPlacement().ok());
  const AccessStats& got = pool.tier_stats(pool.home_tier());
  for (int i = 0; i < 2000; ++i) {
    const uint64_t off = 8 * rng.Uniform(kRegionOff / 8);
    const uint64_t words = rng.Bernoulli(0.8) ? 64 : 4 * kUnit / 8;
    const uint64_t len = 8 * (1 + rng.Uniform(words));
    const uint64_t lines0 = got.flushed_lines;
    const uint64_t want0 = plain->model().stats().flushed_lines;
    t0 = tiered->clock().NowNanos();
    const uint64_t p0 = plain->clock().NowNanos();
    tiered->FlushRange(off, len);
    plain->FlushRange(off, len);
    ASSERT_EQ(got.flushed_lines - lines0,
              plain->model().stats().flushed_lines - want0)
        << "[" << off << ", " << off + len << ")";
    ASSERT_EQ(tiered->clock().NowNanos() - t0, plain->clock().NowNanos() - p0)
        << "[" << off << ", " << off + len << ")";
  }
  tiered->set_tier_router(nullptr);
}

// ---- Differential check of the routing ------------------------------------

// Brute-force model of a TieredPool attached to its device: every lookup
// is a linear scan over the units, every charge is split at unit
// boundaries and gaps and sent to the resident tier's own MemoryModel,
// and placement (initial policy, migration ticks, forced moves, and the
// placement commits' device traffic) follows the documented rules. It
// shares no code with the pool's page index.
class ReferenceRouter {
 public:
  ReferenceRouter(const TierConfig& config, int home, uint64_t region_off)
      : config_(config), home_(home), region_off_(region_off) {
    for (const TierSpec& spec : config_.tiers) {
      models_.push_back(
          std::make_unique<MemoryModel>(ProfileFor(spec.kind), clock_));
    }
  }

  // TieredPool::InitRegion(fresh) on a never-formatted region: the
  // header probe, then the formatted header made durable.
  void InitRegion() {
    Home().TouchRead(region_off_, TieredPool::kHeaderBytes);
    Home().TouchWriteExtent(region_off_, TieredPool::kHeaderBytes, 0);
    Flush(region_off_, TieredPool::kHeaderBytes);
    Drain();
  }

  void Reset() {
    prev_ = std::move(units_);
    units_.clear();
  }

  void Register(uint64_t begin, uint64_t len, TierClass cls) {
    for (uint64_t pos = begin; pos < begin + len; pos += config_.unit_bytes) {
      Unit u{pos, std::min<uint64_t>(config_.unit_bytes, begin + len - pos),
             cls, kHomeTier, 0};
      for (const Unit& p : prev_) {
        if (p.begin == u.begin && p.len == u.len && p.cls == cls) {
          u.heat = p.heat;
          u.tier = p.tier;
        }
      }
      units_.push_back(u);
    }
    std::sort(units_.begin(), units_.end(),
              [](const Unit& a, const Unit& b) { return a.begin < b.begin; });
  }

  void Place() {
    std::vector<uint64_t> resident(models_.size(), 0);
    for (const Unit& u : units_) {
      if (u.tier != kHomeTier) resident[u.tier] += u.len;
    }
    for (Unit& u : units_) {
      if (u.tier != kHomeTier) continue;
      const uint8_t pref =
          config_.policy[static_cast<int>(u.cls)].preferred_tier;
      size_t t = pref == kHomeTier || pref >= models_.size() ? home_ : pref;
      t = Spill(t, u.len, resident);
      u.tier = static_cast<uint8_t>(t);
      resident[t] += u.len;
    }
  }

  void Read(uint64_t off, uint64_t len) {
    Route(off, len, true, [&](int t, uint64_t o, uint64_t l) {
      Model(t).TouchRead(o, l);
    });
  }
  void Write(uint64_t off, uint64_t len) {
    Route(off, len, true, [&](int t, uint64_t o, uint64_t l) {
      Model(t).TouchWrite(o, l);
    });
  }
  void ReadExtent(uint64_t off, uint64_t len, uint64_t quantum) {
    Route(off, len, true, [&](int t, uint64_t o, uint64_t l) {
      Model(t).TouchReadExtent(o, l, quantum);
    });
  }
  void WriteExtent(uint64_t off, uint64_t len, uint64_t quantum) {
    Route(off, len, true, [&](int t, uint64_t o, uint64_t l) {
      Model(t).TouchWriteExtent(o, l, quantum);
    });
  }
  // Lines are charged per run of pieces with one flush target (volatile
  // residents flush at home).
  void Flush(uint64_t off, uint64_t len) {
    std::vector<std::pair<int, uint64_t>> runs;
    Route(off, len, false, [&](int t, uint64_t, uint64_t l) {
      const int target = Volatile(t) ? home_ : t;
      if (runs.empty() || runs.back().first != target) {
        runs.push_back({target, 0});
      }
      runs.back().second += l;
    });
    for (const auto& [target, bytes] : runs) Model(target).ChargeFlush(bytes);
  }
  void Drain() { Home().ChargeDrain(); }

  // TieredPool::MigrateRange: forces the unit holding `off` to `target`.
  void MigrateRange(uint64_t off, uint8_t target) {
    for (size_t i = 0; i < units_.size(); ++i) {
      if (units_[i].begin <= off && off < units_[i].begin + units_[i].len) {
        Migrate(i, target);
      }
    }
  }

  void Tick() {
    if (units_.empty()) return;
    // Ideal packing: pinned and cold units hold their tier's budget, hot
    // migratable units fill the fastest tiers hottest first.
    std::vector<uint64_t> resident(models_.size(), 0);
    std::vector<size_t> hot;
    for (size_t i = 0; i < units_.size(); ++i) {
      if (Migratable(i) && units_[i].heat > 0) {
        hot.push_back(i);
      } else {
        resident[Tier(i)] += units_[i].len;
      }
    }
    std::sort(hot.begin(), hot.end(), [&](size_t a, size_t b) {
      return Hotter(a, b);
    });
    std::vector<size_t> ideal(units_.size());
    for (size_t i = 0; i < units_.size(); ++i) ideal[i] = Tier(i);
    for (size_t i : hot) {
      ideal[i] = Spill(0, units_[i].len, resident);
      resident[ideal[i]] += units_[i].len;
    }
    std::vector<size_t> up, down;
    for (size_t i = 0; i < units_.size(); ++i) {
      if (ideal[i] < Tier(i)) up.push_back(i);
      if (ideal[i] > Tier(i)) down.push_back(i);
    }
    std::sort(up.begin(), up.end(),
              [&](size_t a, size_t b) { return Hotter(a, b); });
    std::sort(down.begin(), down.end(),
              [&](size_t a, size_t b) { return Hotter(b, a); });
    std::vector<size_t> moves;
    for (const auto* list : {&down, &up}) {
      for (size_t i : *list) {
        if (moves.size() < config_.max_moves_per_tick) moves.push_back(i);
      }
    }
    for (Unit& u : units_) u.heat >>= 1;
    for (size_t i : moves) Migrate(i, static_cast<uint8_t>(ideal[i]));
  }

  int TierOf(uint64_t off) const {
    for (size_t i = 0; i < units_.size(); ++i) {
      if (units_[i].begin <= off && off < units_[i].begin + units_[i].len) {
        return static_cast<int>(Tier(i));
      }
    }
    return -1;
  }

  struct Unit {
    uint64_t begin;
    uint64_t len;
    TierClass cls;
    uint8_t tier;
    uint64_t heat;
  };
  const std::vector<Unit>& units() const { return units_; }
  const AccessStats& stats(int tier) const { return Model(tier).stats(); }
  uint64_t now() const { return clock_->NowNanos(); }

 private:
  MemoryModel& Model(int tier) const {
    return *models_[static_cast<size_t>(tier)];
  }
  MemoryModel& Home() const { return Model(home_); }
  bool Volatile(int tier) const {
    return !Model(tier).profile().persistent;
  }
  size_t Tier(size_t i) const {
    return units_[i].tier == kHomeTier ? static_cast<size_t>(home_)
                                       : units_[i].tier;
  }
  bool Migratable(size_t i) const {
    return config_.policy[static_cast<int>(units_[i].cls)].migratable;
  }
  bool Hotter(size_t a, size_t b) const {
    if (units_[a].heat != units_[b].heat) {
      return units_[a].heat > units_[b].heat;
    }
    return units_[a].begin < units_[b].begin;
  }
  // First tier at or below `t` whose budget fits `len` more bytes; the
  // bottom tier takes the rest.
  size_t Spill(size_t t, uint64_t len,
               const std::vector<uint64_t>& resident) const {
    while (t + 1 < models_.size() && config_.tiers[t].budget_bytes != 0 &&
           resident[t] + len > config_.tiers[t].budget_bytes) {
      ++t;
    }
    return t;
  }

  // Splits [off, off + len) into the pieces held by one unit or by no
  // unit (home) and calls fn(tier, piece_off, piece_len) in address order.
  template <typename Fn>
  void Route(uint64_t off, uint64_t len, bool heat, Fn fn) {
    uint64_t pos = off;
    const uint64_t end = off + len;
    while (pos < end) {
      size_t next = units_.size();  // first unit ending past pos
      for (size_t i = 0; i < units_.size(); ++i) {
        if (units_[i].begin + units_[i].len > pos) {
          next = i;
          break;
        }
      }
      if (next == units_.size() || units_[next].begin >= end) {
        fn(home_, pos, end - pos);
        return;
      }
      Unit& u = units_[next];
      if (pos < u.begin) {
        fn(home_, pos, u.begin - pos);
        pos = u.begin;
      }
      const uint64_t piece_end = std::min(end, u.begin + u.len);
      if (heat) u.heat += piece_end - pos;
      fn(static_cast<int>(Tier(next)), pos, piece_end - pos);
      pos = piece_end;
    }
  }

  // TieredPool::MigrateUnit with the ordered commit protocol (no log):
  // the copy, then the entry and the header rewrite through the device.
  void Migrate(size_t i, uint8_t target) {
    const int source = static_cast<int>(Tier(i));
    if (source == target) return;
    Unit& u = units_[i];
    Model(source).TouchReadExtent(u.begin, u.len, 0);
    Model(target).TouchWriteExtent(u.begin, u.len, 0);
    if (!Volatile(target)) {
      Model(target).ChargeFlush(u.len);
      Model(target).ChargeDrain();
    }
    const uint64_t slot = region_off_ + TieredPool::kHeaderSlot +
                          committed_ * TieredPool::kEntryBytes;
    WriteExtent(slot, TieredPool::kEntryBytes, 0);
    Flush(slot, TieredPool::kEntryBytes);
    Drain();
    WriteExtent(region_off_, TieredPool::kHeaderBytes, 0);
    Flush(region_off_, TieredPool::kHeaderBytes);
    Drain();
    ++committed_;
    u.tier = target;
  }

  TierConfig config_;
  int home_;
  uint64_t region_off_;
  SimClockPtr clock_ = MakeSimClock();
  std::vector<std::unique_ptr<MemoryModel>> models_;
  std::vector<Unit> units_;
  std::vector<Unit> prev_;
  uint64_t committed_ = 0;
};

void ExpectSameStats(const AccessStats& got, const AccessStats& want,
                     const std::string& where) {
  EXPECT_EQ(got.read_hits, want.read_hits) << where;
  EXPECT_EQ(got.read_misses, want.read_misses) << where;
  EXPECT_EQ(got.write_hits, want.write_hits) << where;
  EXPECT_EQ(got.write_misses, want.write_misses) << where;
  EXPECT_EQ(got.seeks, want.seeks) << where;
  EXPECT_EQ(got.bytes_read, want.bytes_read) << where;
  EXPECT_EQ(got.bytes_written, want.bytes_written) << where;
  EXPECT_EQ(got.flushed_lines, want.flushed_lines) << where;
  EXPECT_EQ(got.drains, want.drains) << where;
}

struct Extent {
  uint64_t begin;
  uint64_t len;
  TierClass cls;
};

// Random 8-byte-aligned extents below and above the placement region:
// unaligned begins, gaps of up to two units, adjacent extents, and
// extents shorter than a unit.
std::vector<Extent> RandomExtents(Rng& rng, uint64_t unit) {
  std::vector<Extent> out;
  const uint64_t spans[2][2] = {{8, kRegionOff},
                                {kRegionOff + kRegionLen, 3ull << 20}};
  for (const auto& span : spans) {
    uint64_t pos = span[0] + 8 * rng.Uniform(64);
    while (true) {
      uint64_t len = 8 + 8 * rng.Uniform(64);  // shorter than a unit
      if (rng.Bernoulli(0.6)) len = 8 + 8 * rng.Uniform(4 * unit / 8);
      if (pos + len > span[1] || out.size() >= 48) break;
      const auto cls = static_cast<TierClass>(rng.Uniform(kNumTierClasses));
      out.push_back({pos, len, cls});
      pos += len;
      if (rng.Bernoulli(0.6)) pos += 8 * rng.Uniform(2 * unit / 8);  // gap
    }
  }
  return out;
}

// A charge range: anywhere, or straddling a unit boundary or gap edge.
std::pair<uint64_t, uint64_t> RandomRange(Rng& rng,
                                          const ReferenceRouter& ref,
                                          uint64_t unit) {
  uint64_t off = 0;
  const auto& units = ref.units();
  if (!units.empty() && rng.Bernoulli(0.7)) {
    const auto& u = units[rng.Uniform(units.size())];
    const uint64_t edge = rng.Bernoulli(0.5) ? u.begin : u.begin + u.len;
    off = edge - std::min<uint64_t>(edge, rng.Uniform(300));
  } else {
    off = rng.Uniform(3ull << 20);
  }
  const uint64_t len = rng.Bernoulli(0.8) ? 1 + rng.Uniform(600)
                                          : 1 + rng.Uniform(3 * unit);
  return {off, len};
}

class TieredRoutingDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TieredRoutingDifferentialTest, MatchesBruteForceReference) {
  Rng rng(GetParam());
  const uint64_t unit = rng.Bernoulli(0.5) ? 4096 : 16384;
  auto device = MakeDevice();
  // DRAM over the Optane home over an SSD capacity tier, with budgets so
  // placement spills and ticks both promote and demote.
  TierConfig cfg = SmallUnitConfig({{MediumKind::kDram, 6 * unit},
                                    {MediumKind::kOptane, 24 * unit},
                                    {MediumKind::kSsd, 0}});
  cfg.unit_bytes = unit;
  cfg.max_moves_per_tick = 4;
  auto made = MakePool(device.get(), cfg);
  ASSERT_TRUE(made.ok()) << made.status();
  TieredPool& pool = **made;
  device->set_tier_router(&pool);
  ReferenceRouter ref(pool.config(), pool.home_tier(), kRegionOff);
  ASSERT_TRUE(pool.InitRegion(/*fresh=*/true).ok());
  ref.InitRegion();

  auto register_all = [&] {
    pool.ResetExtents();
    ref.Reset();
    for (const Extent& e : RandomExtents(rng, unit)) {
      pool.RegisterExtent(e.begin, e.len, e.cls);
      ref.Register(e.begin, e.len, e.cls);
    }
    ASSERT_TRUE(pool.ApplyInitialPlacement().ok());
    ref.Place();
  };
  register_all();

  const int tiers = static_cast<int>(pool.config().tiers.size());
  for (int op = 0; op < 4000; ++op) {
    const auto [off, len] = RandomRange(rng, ref, unit);
    constexpr uint64_t kQuanta[] = {0, 1, 4, 8, 64};
    const uint64_t quantum = kQuanta[rng.Uniform(5)];
    const std::string where = "op " + std::to_string(op);
    switch (rng.Uniform(12)) {
      case 0:
      case 1:
        pool.TouchRead(off, len);
        ref.Read(off, len);
        break;
      case 2:
        pool.TouchWrite(off, len);
        ref.Write(off, len);
        break;
      case 3:
      case 4:
        pool.TouchReadExtent(off, len, quantum);
        ref.ReadExtent(off, len, quantum);
        break;
      case 5:
        pool.TouchWriteExtent(off, len, quantum);
        ref.WriteExtent(off, len, quantum);
        break;
      case 6:
        device->FlushRange(off, len);
        ref.Flush(off, len);
        break;
      case 7:
        device->Drain();
        ref.Drain();
        break;
      case 8: {
        const auto target = static_cast<uint8_t>(rng.Uniform(tiers));
        const Status st = pool.MigrateRange(off, target, nullptr);
        EXPECT_EQ(st.ok(), ref.TierOf(off) >= 0) << where << ": " << st;
        ref.MigrateRange(off, target);
        break;
      }
      case 9:
      case 10:
        ASSERT_TRUE(pool.MigrationTick(nullptr).ok()) << where;
        ref.Tick();
        break;
      case 11:
        if (rng.Bernoulli(0.1)) register_all();
        break;
    }
    if (op % 16 != 15) continue;
    for (int t = 0; t < tiers; ++t) {
      ExpectSameStats(pool.tier_stats(t), ref.stats(t),
                      where + " tier " + std::to_string(t));
    }
    ASSERT_EQ(device->clock().NowNanos(), ref.now()) << where;
    ASSERT_EQ(pool.unit_count(), ref.units().size()) << where;
    for (const auto& u : ref.units()) {
      ASSERT_EQ(pool.heat_of(u.begin), u.heat) << where << " unit " << u.begin;
      ASSERT_EQ(pool.heat_of(u.begin + u.len - 1), u.heat)
          << where << " unit " << u.begin;
    }
    for (int probe = 0; probe < 64; ++probe) {
      const uint64_t at = RandomRange(rng, ref, unit).first;
      ASSERT_EQ(pool.TierOf(at), ref.TierOf(at)) << where << " offset " << at;
    }
    if (HasFailure()) break;
  }
  // The walk must have moved units and charged every tier.
  const TierCounters tc = pool.counters();
  EXPECT_GT(tc.promotions, 0u);
  EXPECT_GT(tc.demotions, 0u);
  for (int t = 0; t < tiers; ++t) {
    EXPECT_GT(pool.tier_stats(t).TotalAccesses(), 0u) << "tier " << t;
  }
  device->set_tier_router(nullptr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TieredRoutingDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace ntadoc::nvm
