// Property sweep: inject a power failure at every early traversal step,
// for both persistence levels and both traversal strategies, and require
// exact recovery. This is the strongest evidence that the persistence
// protocols are correct at every step boundary. The fence sweeps below go
// further: SweepEveryFence enumerates EVERY persistence fence of a
// workload, crashes at each one, and requires exact recovery plus a clean
// PersistCheck report.

#include <gtest/gtest.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cstring>
#include <functional>
#include <optional>
#include <string>

#include "compress/compressor.h"
#include "core/container_store.h"
#include "core/engine.h"
#include "nvm/tiered_pool.h"
#include "reference_impl.h"

namespace ntadoc::core {
namespace {

using tests::RandomCorpus;
using tests::ReferenceRun;

struct SweepCase {
  PersistenceMode persistence;
  tadoc::TraversalStrategy strategy;
  tadoc::Task task;
  // Operation-level group commit: 1 = strict per-step transactions,
  // K > 1 = epoch commits (crashes land mid-epoch for most step counts).
  uint32_t commit_interval = 1;
};

class CrashSweepTest
    : public ::testing::TestWithParam<std::tuple<SweepCase, uint64_t>> {};

TEST_P(CrashSweepTest, ExactRecoveryAtEveryStep) {
  const auto& [c, step] = GetParam();
  const auto corpus = RandomCorpus(909, 20, 4, 220);
  const auto expected = ReferenceRun(corpus, c.task, {});

  nvm::DeviceOptions dopts;
  dopts.capacity = 192ull << 20;
  dopts.strict_persistence = true;
  dopts.persist_check = true;
  auto device = nvm::NvmDevice::Create(dopts);
  ASSERT_TRUE(device.ok());

  NTadocOptions opts;
  opts.persistence = c.persistence;
  opts.traversal = c.strategy;
  opts.commit_interval = c.commit_interval;

  // Crash at `step`, then recover on the same device; returns the
  // recovery engine's resume cursor (phase-local, hence only comparable
  // between runs that crashed at the same step).
  const auto crash_and_recover =
      [&](NTadocOptions o, nvm::NvmDevice* dev) -> uint64_t {
    o.crash_after_traversal_steps = step;
    {
      NTadocEngine engine(&corpus, dev, o);
      auto crashed = engine.Run(c.task);
      EXPECT_FALSE(crashed.ok());
    }
    o.crash_after_traversal_steps = 0;
    NTadocEngine engine(&corpus, dev, o);
    auto got = engine.Run(c.task);
    EXPECT_TRUE(got.ok()) << got.status();
    if (got.ok()) {
      EXPECT_EQ(*got, expected)
          << "persistence=" << PersistenceModeToString(c.persistence)
          << " strategy=" << tadoc::TraversalStrategyToString(c.strategy)
          << " task=" << tadoc::TaskToString(c.task)
          << " crash step=" << step;
    }
    return engine.run_info().resumed_at_step;
  };

  const uint64_t resumed = crash_and_recover(opts, device->get());
  EXPECT_TRUE((*device)->persist_check()->report().empty())
      << (*device)->persist_check()->report().ToString();

  if (c.persistence == PersistenceMode::kOperation &&
      c.commit_interval > 1) {
    // Epoch recovery resumes at the last committed epoch boundary
    // (rounded down), so it may trail strict per-step recovery of the
    // identical crash by at most the open epoch's commit_interval - 1
    // steps — and never lead it.
    auto strict_device = nvm::NvmDevice::Create(dopts);
    ASSERT_TRUE(strict_device.ok());
    NTadocOptions strict = opts;
    strict.commit_interval = 1;
    const uint64_t resumed_strict =
        crash_and_recover(strict, strict_device->get());
    EXPECT_LE(resumed, resumed_strict);
    EXPECT_LT(resumed_strict - resumed, uint64_t{c.commit_interval})
        << "lost more than the open epoch: crash step=" << step
        << " strict resumed=" << resumed_strict
        << " epoch resumed=" << resumed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Steps, CrashSweepTest,
    ::testing::Combine(
        ::testing::Values(
            SweepCase{PersistenceMode::kPhase,
                      tadoc::TraversalStrategy::kTopDown,
                      tadoc::Task::kWordCount},
            SweepCase{PersistenceMode::kOperation,
                      tadoc::TraversalStrategy::kTopDown,
                      tadoc::Task::kWordCount},
            SweepCase{PersistenceMode::kOperation,
                      tadoc::TraversalStrategy::kTopDown,
                      tadoc::Task::kSequenceCount},
            SweepCase{PersistenceMode::kOperation,
                      tadoc::TraversalStrategy::kBottomUp,
                      tadoc::Task::kWordCount},
            SweepCase{PersistenceMode::kOperation,
                      tadoc::TraversalStrategy::kBottomUp,
                      tadoc::Task::kTermVector},
            SweepCase{PersistenceMode::kPhase,
                      tadoc::TraversalStrategy::kBottomUp,
                      tadoc::Task::kRankedInvertedIndex},
            // Epoch group commit: the step sweep below lands most
            // crashes mid-epoch (interval 3 divides none of 1,2,5,8,13),
            // exercising the lose-at-most-the-open-epoch contract.
            SweepCase{PersistenceMode::kOperation,
                      tadoc::TraversalStrategy::kTopDown,
                      tadoc::Task::kWordCount, /*commit_interval=*/8},
            SweepCase{PersistenceMode::kOperation,
                      tadoc::TraversalStrategy::kTopDown,
                      tadoc::Task::kSequenceCount, /*commit_interval=*/3},
            SweepCase{PersistenceMode::kOperation,
                      tadoc::TraversalStrategy::kBottomUp,
                      tadoc::Task::kTermVector, /*commit_interval=*/8}),
        ::testing::Values(1, 2, 3, 5, 8, 13, 21)));

TEST(CrashSweepTest, DoubleCrashStillRecovers) {
  // Crash, recover partially by crashing again later, then finish.
  const auto corpus = RandomCorpus(910, 20, 4, 300);
  const auto expected = ReferenceRun(corpus, tadoc::Task::kWordCount, {});
  nvm::DeviceOptions dopts;
  dopts.capacity = 192ull << 20;
  dopts.strict_persistence = true;
  auto device = nvm::NvmDevice::Create(dopts);
  ASSERT_TRUE(device.ok());
  NTadocOptions opts;
  opts.persistence = PersistenceMode::kOperation;
  for (uint64_t crash_at : {4ull, 9ull}) {
    opts.crash_after_traversal_steps = crash_at;
    NTadocEngine engine(&corpus, device->get(), opts);
    ASSERT_FALSE(engine.Run(tadoc::Task::kWordCount).ok());
  }
  opts.crash_after_traversal_steps = 0;
  NTadocEngine engine(&corpus, device->get(), opts);
  auto got = engine.Run(tadoc::Task::kWordCount);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected);
}

// ---------------------------------------------------------------------------
// SweepEveryFence: the one crash-at-every-fence harness.
//
// Every Drain() is a potential last-durable-instant: the persisted image
// right after the Kth fence is exactly what a power failure there leaves
// on media. The harness
//   1. runs the workload once on a persist-checked device, counting its
//      fences and requiring a clean persistency report;
//   2. re-runs it with windowed capture (DeviceOptions::
//      snapshot_drains_begin/end): one run records the persisted image
//      after every fence of a window, and the window is sized so the held
//      images stay under kCaptureBudget;
//   3. loads each image onto a fresh device, runs the case's
//      recover-and-verify there, and requires its report clean too;
//   4. cross-checks the first image against the full-device
//      snapshot_at_drain capture of the same fence.
// ---------------------------------------------------------------------------

using DeviceFn = std::function<void(nvm::NvmDevice*)>;

struct SweepOptions {
  uint64_t capacity = 16ull << 20;
  /// Runs before the workload on every workload device; its fences (say,
  /// formatting a store) are counted but not swept.
  DeviceFn setup;
  /// Captured region; len 0 runs to the end of the device. A region
  /// restarts on a device holding nothing else, so it must be
  /// self-contained.
  uint64_t region_offset = 0;
  uint64_t region_len = 0;
  /// Media faults of the workload devices; recovery devices get none.
  nvm::FaultPlan faults;
};

constexpr uint64_t kCaptureBudget = 64ull << 20;

std::string Diagnostics(const nvm::NvmDevice& device) {
  return device.persist_check()->report().ToString();
}

/// Runs setup and workload on a fresh device; null after a fatal failure.
/// `setup_fences` (optional) receives the fence count setup issued.
std::unique_ptr<nvm::NvmDevice> RunWorkload(const nvm::DeviceOptions& dopts,
                                            const SweepOptions& opts,
                                            const DeviceFn& workload,
                                            uint64_t* setup_fences = nullptr) {
  auto device = nvm::NvmDevice::Create(dopts);
  EXPECT_TRUE(device.ok()) << device.status();
  if (!device.ok()) return nullptr;
  if (opts.setup) opts.setup(device->get());
  if (setup_fences != nullptr) *setup_fences = (*device)->drain_count();
  if (!::testing::Test::HasFatalFailure()) workload(device->get());
  if (::testing::Test::HasFatalFailure()) return nullptr;
  return std::move(*device);
}

/// Crashes `workload` after each of its fences (see above) and records
/// how many it swept as the test property "fences".
void SweepEveryFence(const DeviceFn& workload,
                     const DeviceFn& recover_and_verify,
                     const SweepOptions& opts = {}) {
  nvm::DeviceOptions dopts;
  dopts.capacity = opts.capacity;
  dopts.strict_persistence = true;
  dopts.persist_check = true;
  nvm::DeviceOptions wopts = dopts;
  wopts.fault_plan = opts.faults;

  uint64_t setup_fences = 0;
  uint64_t total = 0;
  {
    const auto clean = RunWorkload(wopts, opts, workload, &setup_fences);
    if (clean == nullptr) return;
    EXPECT_TRUE(clean->persist_check()->report().empty())
        << Diagnostics(*clean);
    total = clean->drain_count();
  }
  EXPECT_GT(total, setup_fences) << "the workload issued no fence";

  const uint64_t region = opts.region_len != 0
                              ? opts.region_len
                              : opts.capacity - opts.region_offset;
  const uint64_t window = std::max<uint64_t>(1, kCaptureBudget / region);
  wopts.snapshot_region_offset = opts.region_offset;
  wopts.snapshot_region_len = opts.region_len;
  for (uint64_t begin = setup_fences + 1; begin <= total; begin += window) {
    wopts.snapshot_drains_begin = begin;
    wopts.snapshot_drains_end = std::min(total, begin + window - 1);
    const auto writer = RunWorkload(wopts, opts, workload);
    if (writer == nullptr) return;
    const auto& images = writer->drain_snapshots();
    if (images.size() != wopts.snapshot_drains_end - begin + 1) {
      ADD_FAILURE() << "captured " << images.size() << " images for fences "
                    << begin << ".." << wopts.snapshot_drains_end;
      return;
    }
    if (begin == setup_fences + 1) {
      nvm::DeviceOptions solo = dopts;
      solo.fault_plan = opts.faults;
      solo.snapshot_at_drain = begin;
      const auto full = RunWorkload(solo, opts, workload);
      if (full == nullptr) return;
      EXPECT_EQ(std::memcmp(full->drain_snapshot().data() + opts.region_offset,
                            images[0].data(), images[0].size()),
                0)
          << "windowed capture disagrees with full-device capture";
    }
    for (uint64_t i = 0; i < images.size(); ++i) {
      SCOPED_TRACE("crash after fence " + std::to_string(begin + i) + " of " +
                   std::to_string(total));
      auto device = nvm::NvmDevice::Create(dopts);
      EXPECT_TRUE(device.ok()) << device.status();
      if (!device.ok()) return;
      (*device)->LoadSnapshot(images[i], opts.region_offset);
      recover_and_verify(device->get());
      if (::testing::Test::HasFatalFailure()) return;
      EXPECT_TRUE((*device)->persist_check()->report().empty())
          << Diagnostics(**device);
    }
  }
#ifdef __GLIBC__
  // Hand the freed images back: a fragmented heap would otherwise carry
  // them into the next test's peak.
  malloc_trim(0);
#endif
  ::testing::Test::RecordProperty("fences",
                                  std::to_string(total - setup_fences));
}

// ---------------------------------------------------------------------------
// Engine runs: every fence of a whole query, from init through the phase
// markers, must recover to the reference result.
// ---------------------------------------------------------------------------

/// The workload and the verifier of an engine sweep: a run that must end
/// in `expected`, either from scratch or by recovering a crash image.
DeviceFn RunsExactly(const compress::CompressedCorpus& corpus,
                     const NTadocOptions& opts, tadoc::Task task,
                     const AnalyticsOutput& expected) {
  return [&corpus, opts, task, &expected](nvm::NvmDevice* device) {
    NTadocEngine engine(&corpus, device, opts);
    auto got = engine.Run(task);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, expected);
  };
}

class DrainPointSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DrainPointSweepTest, ExactRecoveryFromEveryDrainPoint) {
  const SweepCase& c = GetParam();
  const auto corpus = RandomCorpus(911, 10, 4, 120);
  const auto expected = ReferenceRun(corpus, c.task, {});

  NTadocOptions opts;
  opts.persistence = c.persistence;
  opts.traversal = c.strategy;
  opts.commit_interval = c.commit_interval;
  const DeviceFn run = RunsExactly(corpus, opts, c.task, expected);
  SweepEveryFence(run, run);
}

class GroupCheckpointSweepTest
    : public ::testing::TestWithParam<uint32_t> {};

TEST_P(GroupCheckpointSweepTest, ExactRecoveryAcrossCheckpoints) {
  // A redo log small enough that group checkpoints (flush applied home
  // lines, truncate) happen repeatedly: crashing right after a truncation
  // fence is only recoverable if every home line the discarded records
  // covered was durable first. Swept for both the strict per-step
  // protocol and epoch group commit — the epoch variant additionally
  // interleaves sealed batch records with truncations, so recovery must
  // reject resurrected records from the pre-truncate generation.
  const auto corpus = RandomCorpus(913, 6, 3, 60);
  const auto expected = ReferenceRun(corpus, tadoc::Task::kWordCount, {});

  NTadocOptions opts;
  opts.persistence = PersistenceMode::kOperation;
  opts.commit_interval = GetParam();
  // Small enough that the log fills and truncates repeatedly — the epoch
  // variant needs a smaller log still, because record coalescing and
  // batch packing shrink what each epoch appends.
  opts.redo_log_bytes = opts.commit_interval > 1 ? 2048 : 4096;

  const auto workload = [&](nvm::NvmDevice* device) {
    NTadocEngine engine(&corpus, device, opts);
    auto got = engine.Run(tadoc::Task::kWordCount);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, expected);
    ASSERT_GT(engine.run_info().group_checkpoints, 0u)
        << "log never filled; the checkpoint path was not exercised";
  };
  SweepEveryFence(workload,
                  RunsExactly(corpus, opts, tadoc::Task::kWordCount, expected));
}

TEST(ComposedSweepTest, TieredMigrationUnderEpochCommit) {
  // The durable_oplog composition: epoch group commit, a DRAM tier over
  // the Optane home with a migration tick every step, and a redo log
  // small enough to checkpoint. Placement moves commit through the same
  // log between epochs.
  const auto corpus = RandomCorpus(909, 20, 4, 220);
  const auto expected = ReferenceRun(corpus, tadoc::Task::kWordCount, {});

  nvm::TierConfig tiers;
  tiers.tiers = {{nvm::MediumKind::kDram, 8 * 1024}};
  tiers.unit_bytes = 4096;
  tiers.migrate_interval = 1;
  NTadocOptions opts;
  opts.persistence = PersistenceMode::kOperation;
  opts.commit_interval = 8;
  opts.redo_log_bytes = 4096;
  opts.tiering = std::make_shared<const nvm::TierConfig>(tiers);

  const auto workload = [&](nvm::NvmDevice* device) {
    NTadocEngine engine(&corpus, device, opts);
    auto got = engine.Run(tadoc::Task::kWordCount);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, expected);
    const NTadocRunInfo& info = engine.run_info();
    ASSERT_GT(info.promotions + info.demotions, 0u)
        << "no placement move committed";
    EXPECT_GT(info.epoch_commits, 0u);
    EXPECT_GT(info.group_checkpoints, 0u);
  };
  SweepEveryFence(workload,
                  RunsExactly(corpus, opts, tadoc::Task::kWordCount, expected));
}

TEST(ComposedSweepTest, MidRunRepairUnderEpochCommit) {
  // A payload block goes unreadable mid-traversal while an epoch is open:
  // the epoch is unwound, scoped repair re-derives the block and remaps it
  // through the same redo log, and the run resumes.
  const auto corpus = RandomCorpus(909, 20, 4, 220);
  const auto expected = ReferenceRun(corpus, tadoc::Task::kWordCount, {});
  NTadocOptions opts;
  opts.persistence = PersistenceMode::kOperation;
  opts.commit_interval = 8;

  SweepOptions sweep;
  {
    // Scout: the layout is deterministic, so a crashed run on a device of
    // the sweep's capacity shows where the payload lands.
    nvm::DeviceOptions dopts;
    dopts.capacity = sweep.capacity;
    dopts.strict_persistence = true;
    auto scout = nvm::NvmDevice::Create(dopts);
    ASSERT_TRUE(scout.ok());
    NTadocOptions crashing = opts;
    crashing.crash_after_traversal_steps = 2;
    NTadocEngine engine(&corpus, scout->get(), crashing);
    ASSERT_FALSE(engine.Run(tadoc::Task::kWordCount).ok());
    nvm::FaultSpec fault;
    fault.effect = nvm::FaultEffect::kUnreadableBlock;
    fault.trigger = nvm::FaultTrigger::kNthRead;
    fault.n = 500;
    std::tie(fault.range_begin, fault.range_end) = engine.payload_region();
    ASSERT_LT(fault.range_begin, fault.range_end);
    sweep.faults.faults.push_back(fault);
  }

  const auto workload = [&](nvm::NvmDevice* device) {
    NTadocEngine engine(&corpus, device, opts);
    auto got = engine.Run(tadoc::Task::kWordCount);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, expected);
    ASSERT_GT(engine.run_info().blocks_remapped, 0u)
        << "the fault never reached the repair path";
    EXPECT_EQ(engine.run_info().salvage_restarts, 0u);
  };
  SweepEveryFence(workload,
                  RunsExactly(corpus, opts, tadoc::Task::kWordCount, expected),
                  sweep);
}

// ---------------------------------------------------------------------------
// Small durable updates (nvm::CommitAtomic), each swept under both of its
// variants — journaled through a redo log and ordered — plus the
// container store, whose descriptor flip is always journaled.
// ---------------------------------------------------------------------------

constexpr uint64_t kLogBase = 0;
constexpr uint64_t kLogSize = 8192;

/// The redo log of a journaled sweep case (none for the ordered one).
std::optional<nvm::RedoLog> MakeLog(nvm::NvmDevice* device, bool journaled) {
  if (!journaled) return std::nullopt;
  auto made = nvm::RedoLog::Create(device, kLogBase, kLogSize);
  EXPECT_TRUE(made.ok()) << made.status();
  if (!made.ok()) return std::nullopt;
  return std::move(*made);
}

/// Engine recovery order: replay the committed log prefix before trusting
/// anything it may cover.
void RecoverLog(nvm::NvmDevice* device, bool journaled) {
  if (!journaled) return;
  auto log = nvm::RedoLog::Open(device, kLogBase);
  if (log.ok()) {
    ASSERT_TRUE(log->Recover().ok());
  }
}

/// Sweep options for the small-update cases: their layouts fit 2 MiB.
SweepOptions SmallDevice() {
  SweepOptions o;
  o.capacity = 2ull << 20;
  return o;
}

class RemapCommitSweepTest : public ::testing::TestWithParam<bool> {};

TEST_P(RemapCommitSweepTest, RemapIsAtomicAtEveryDrainPoint) {
  // A power failure anywhere inside RemapBlock leaves either no committed
  // entry (media still bad, the repair is simply redone) or one fully
  // valid entry whose spare block holds the recovered bytes — never a
  // torn count, a checksum-invalid entry, or a committed entry without
  // durable contents.
  const bool journaled = GetParam();
  constexpr uint64_t kPoolBase = 16384;
  constexpr uint64_t kPoolSize = 256 * 1024;
  constexpr uint64_t kBlock = nvm::NvmPool::kMediaBlock;

  std::vector<uint8_t> before(kBlock), after(kBlock);
  for (uint64_t i = 0; i < kBlock; ++i) {
    before[i] = static_cast<uint8_t>(0xA0 + i);
    after[i] = static_cast<uint8_t>(0x5B ^ i);
  }

  // Format, persist a block of data, then remap it with new contents (as
  // scoped repair does after re-deriving a damaged block).
  uint64_t block_off = 0;
  const auto workload = [&](nvm::NvmDevice* device) {
    nvm::PoolOptions popts;
    popts.spare_blocks = 4;
    auto pool = nvm::NvmPool::Create(device, kPoolBase, kPoolSize, popts);
    ASSERT_TRUE(pool.ok());
    auto off = pool->Alloc(4 * kBlock, kBlock);
    ASSERT_TRUE(off.ok());
    block_off = *off;
    device->WriteBytes(block_off, before.data(), kBlock);
    pool->PersistAll();
    std::optional<nvm::RedoLog> log = MakeLog(device, journaled);
    auto slot = pool->RemapBlock(block_off, after.data(), kBlock,
                                 log ? &*log : nullptr);
    ASSERT_TRUE(slot.ok()) << slot.status();
    if (log) {
      log->FlushAppliedHome();
      log->Truncate();
    }
  };
  const auto verify = [&](nvm::NvmDevice* device) {
    RecoverLog(device, journaled);
    auto pool = nvm::NvmPool::Open(device, kPoolBase);
    ASSERT_TRUE(pool.ok()) << "pool header torn: " << pool.status();
    ASSERT_LE(pool->remap_count(), 1u) << "torn remap count";
    if (pool->remap_count() == 0) return;
    auto entry = pool->ReadRemapEntry(0);
    ASSERT_TRUE(entry.ok()) << "committed remap entry invalid: "
                            << entry.status();
    EXPECT_EQ(entry->orig_off, block_off);
    // A committed entry promises durable recovered contents, in the spare
    // block and at the (redirected) home offset.
    const uint8_t* raw = device->raw_for_testing();
    const uint64_t spare =
        pool->spare_off() + uint64_t{entry->spare_slot} * kBlock;
    EXPECT_EQ(std::memcmp(raw + spare, after.data(), kBlock), 0)
        << "spare contents torn";
    EXPECT_EQ(std::memcmp(raw + block_off, after.data(), kBlock), 0)
        << "home contents torn";
  };
  SweepEveryFence(workload, verify, SmallDevice());
}

class MigrationCommitSweepTest : public ::testing::TestWithParam<bool> {};

TEST_P(MigrationCommitSweepTest, SourceOrTargetAtEveryDrainPoint) {
  // A durable placement commit (TieredPool::MigrateRange: a 32-byte
  // placement entry plus a header bump) leaves the unit EITHER
  // source-resident (the commit did not land) or target-resident (it did)
  // — never a hybrid or a parse failure.
  const bool journaled = GetParam();
  constexpr uint64_t kRegionOff = 1ull << 20;
  constexpr uint64_t kRegionLen = 256 * 1024;
  constexpr uint64_t kUnit = 4096;
  constexpr uint64_t kUnitOff = 16384;

  // Optane home (tier 0) over SSD capacity (tier 1): both persistent,
  // so the committed placement is exactly what recovery must see.
  nvm::TierConfig cfg;
  cfg.tiers = {{nvm::MediumKind::kOptane, 0}, {nvm::MediumKind::kSsd, 0}};
  cfg.unit_bytes = kUnit;

  const auto reopen = [&](nvm::NvmDevice* device, bool fresh)
      -> std::unique_ptr<nvm::TieredPool> {
    auto made =
        nvm::TieredPool::Make(device, kRegionOff, kRegionLen, cfg);
    if (!made.ok() || !(*made)->InitRegion(fresh).ok()) return nullptr;
    (*made)->RegisterExtent(kUnitOff, 2 * kUnit, nvm::TierClass::kPayload);
    if (!(*made)->ApplyInitialPlacement().ok()) return nullptr;
    return std::move(*made);
  };

  // Format the region, place two payload units at home, then durably
  // demote the first one to the SSD tier.
  const auto workload = [&](nvm::NvmDevice* device) {
    auto pool = reopen(device, /*fresh=*/true);
    ASSERT_NE(pool, nullptr);
    ASSERT_EQ(pool->TierOf(kUnitOff), 0);
    std::optional<nvm::RedoLog> log = MakeLog(device, journaled);
    const Status moved = pool->MigrateRange(kUnitOff, 1, log ? &*log : nullptr);
    ASSERT_TRUE(moved.ok()) << moved;
    ASSERT_EQ(pool->TierOf(kUnitOff), 1);
    if (log) {
      log->FlushAppliedHome();
      log->Truncate();
    }
  };
  bool saw_source = false;
  bool saw_target = false;
  const auto verify = [&](nvm::NvmDevice* device) {
    RecoverLog(device, journaled);
    auto pool = reopen(device, /*fresh=*/false);
    ASSERT_NE(pool, nullptr) << "placement region unreadable";
    const int tier = pool->TierOf(kUnitOff);
    ASSERT_TRUE(tier == 0 || tier == 1) << "hybrid placement: tier " << tier;
    (tier == 0 ? saw_source : saw_target) = true;
    // The commit is per-unit: its sibling must be untouched either way.
    EXPECT_EQ(pool->TierOf(kUnitOff + kUnit), 0) << "sibling unit moved";
  };
  SweepEveryFence(workload, verify, SmallDevice());
  // The sweep brackets the commit point: both outcomes must occur.
  EXPECT_TRUE(saw_source) << "no fence recovered source-resident";
  EXPECT_TRUE(saw_target) << "no fence recovered target-resident";
}

/// A store holding batch A that appends batch B (file names kept apart).
struct AppendCase {
  static constexpr uint64_t kStoreBase = 4096;
  static constexpr uint64_t kStoreRegion = 4ull << 20;

  AppendCase(uint64_t seed_a, uint64_t seed_b, const std::string& prefix)
      : batch_a(tests::RandomInputs(seed_a, 60, 5, 90)),
        batch_b(tests::RandomInputs(seed_b, 60, 3, 80)) {
    for (size_t i = 0; i < batch_b.size(); ++i) {
      batch_b[i].name = prefix + std::to_string(i);
    }
    std::vector<compress::InputFile> all = batch_a;
    all.insert(all.end(), batch_b.begin(), batch_b.end());
    pre = *compress::Compress(batch_a);
    post = *compress::Compress(all);
    popts.threads = 2;
    popts.min_chunk_bytes = 1;
  }

  /// Sweep options: Create is setup, and the store region is captured.
  SweepOptions Sweep() {
    SweepOptions o;
    o.setup = [this](nvm::NvmDevice* device) {
      auto made = ContainerStore::Create(device, kStoreBase, kStoreRegion, pre);
      ASSERT_TRUE(made.ok()) << made.status();
      store.emplace(std::move(*made));
    };
    o.region_offset = kStoreBase;
    o.region_len = kStoreRegion;
    return o;
  }

  /// Recovers the store and requires exactly the pre- or post-append
  /// container; returns the recovered generation (0 on failure).
  uint64_t Recover(nvm::NvmDevice* device) {
    auto opened = ContainerStore::Open(device, kStoreBase);
    EXPECT_TRUE(opened.ok()) << "open failed: " << opened.status();
    if (!opened.ok()) return 0;
    auto loaded = opened->Load();
    EXPECT_TRUE(loaded.ok()) << "load failed: " << loaded.status();
    if (!loaded.ok()) return 0;
    const uint64_t generation = opened->generation();
    EXPECT_TRUE(generation == 1 || generation == 2) << generation;
    const compress::CompressedCorpus& want = generation == 2 ? post : pre;
    EXPECT_EQ(compress::DecodeToTokens(*loaded),
              compress::DecodeToTokens(want))
        << "generation " << generation << " torn";
    EXPECT_EQ(loaded->file_names, want.file_names);
    return generation;
  }

  std::vector<compress::InputFile> batch_a;
  std::vector<compress::InputFile> batch_b;
  compress::CompressedCorpus pre;
  compress::CompressedCorpus post;
  compress::ParallelCompressOptions popts;
  std::optional<ContainerStore> store;
};

TEST(ContainerAppendSweepTest, PreOrPostAppendAtEveryDrainPoint) {
  // A durable streaming append (ContainerStore::AppendFiles: shadow-slot
  // write, then the descriptor commit) recovers to EITHER the pre-append
  // container or the post-append one — never a mix, never a parse
  // failure. Only AppendFiles claims crash atomicity, so Create is setup.
  AppendCase c(991, 992, "g");
  SweepEveryFence(
      [&](nvm::NvmDevice*) {
        ASSERT_TRUE(c.store->AppendFiles(c.batch_b, c.popts).ok());
      },
      [&](nvm::NvmDevice* device) { c.Recover(device); }, c.Sweep());
}

TEST(GenerationCutoverSweepTest, PreOrPostGenerationAtEveryDrainPoint) {
  // The serve-while-ingest refresh protocol (StageAppend — seal elsewhere
  // — CommitAppend). The refresher seals the new serving generation on a
  // PRIVATE device between stage and commit, so the store device's fences
  // are exactly those of the cutover. Recovery lands on exactly the
  // pre-refresh or post-refresh generation, and the sweep must see both.
  AppendCase c(993, 994, "h");
  bool saw_pre = false;
  bool saw_post = false;
  SweepEveryFence(
      [&](nvm::NvmDevice*) {
        auto pending = c.store->StageAppend(c.batch_b, c.popts);
        ASSERT_TRUE(pending.ok()) << pending.status();
        // <- the refresher seals the new generation here, on its own
        //    device: zero fences on the store device.
        ASSERT_TRUE(c.store->CommitAppend(*pending).ok());
      },
      [&](nvm::NvmDevice* device) {
        const uint64_t generation = c.Recover(device);
        saw_pre |= generation == 1;
        saw_post |= generation == 2;
      },
      c.Sweep());
  EXPECT_TRUE(saw_pre) << "no fence recovered to the old generation";
  EXPECT_TRUE(saw_post) << "no fence recovered to the new generation";
}

INSTANTIATE_TEST_SUITE_P(CommitProtocols, RemapCommitSweepTest,
                         ::testing::Bool());

INSTANTIATE_TEST_SUITE_P(CommitProtocols, MigrationCommitSweepTest,
                         ::testing::Bool());

INSTANTIATE_TEST_SUITE_P(CommitIntervals, GroupCheckpointSweepTest,
                         ::testing::Values(1u, 4u));

INSTANTIATE_TEST_SUITE_P(
    Modes, DrainPointSweepTest,
    ::testing::Values(SweepCase{PersistenceMode::kPhase,
                                tadoc::TraversalStrategy::kTopDown,
                                tadoc::Task::kWordCount},
                      SweepCase{PersistenceMode::kPhase,
                                tadoc::TraversalStrategy::kBottomUp,
                                tadoc::Task::kWordCount},
                      SweepCase{PersistenceMode::kOperation,
                                tadoc::TraversalStrategy::kTopDown,
                                tadoc::Task::kWordCount},
                      SweepCase{PersistenceMode::kOperation,
                                tadoc::TraversalStrategy::kBottomUp,
                                tadoc::Task::kTermVector},
                      // Epoch group commit: fences now include the
                      // sealed batch-record flushes; a crash between an
                      // epoch's seal and the next must recover to that
                      // epoch's boundary exactly.
                      SweepCase{PersistenceMode::kOperation,
                                tadoc::TraversalStrategy::kTopDown,
                                tadoc::Task::kWordCount,
                                /*commit_interval=*/8},
                      SweepCase{PersistenceMode::kOperation,
                                tadoc::TraversalStrategy::kBottomUp,
                                tadoc::Task::kTermVector,
                                /*commit_interval=*/8}));

}  // namespace
}  // namespace ntadoc::core
