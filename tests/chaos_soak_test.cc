// Chaos soak: the online-repair acceptance suite. Each scenario injects
// one class of media failure under a real analytics run and pins down
// which repair layer must absorb it:
//
//   A  transient read faults   -> device retry policy, no repair at all
//   B  permanent single-block  -> scoped repair + bad-block remap, never
//      damage found at attach     a full salvage restart
//   C  permanent single-block  -> scoped repair mid-run, traversal
//      damage found mid-run       resumes (or restarts its phase)
//   D  sticky damage, repair   -> degraded completion with an honest
//      and salvage disabled       completeness fraction (opt-in only)
//   E  primary metadata gone   -> failover to the replicated mirror
//
// Every scenario is seeded and deterministic; NTADOC_CHAOS_SEED varies
// the corpus for soak runs without editing the test.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/engine.h"
#include "reference_impl.h"

namespace ntadoc::core {
namespace {

using tests::RandomCorpus;
using tests::ReferenceRun;

uint64_t ChaosSeed() {
  const char* env = std::getenv("NTADOC_CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 909;
}

Result<std::unique_ptr<nvm::NvmDevice>> MakeDevice(
    nvm::FaultPlan plan = {}, uint64_t fault_seed = 1) {
  nvm::DeviceOptions dopts;
  dopts.capacity = 192ull << 20;
  dopts.strict_persistence = true;
  dopts.fault_plan = std::move(plan);
  dopts.fault_seed = fault_seed;
  return nvm::NvmDevice::Create(dopts);
}

nvm::FaultSpec Transient(nvm::FaultTrigger trigger, uint64_t n,
                         uint32_t fail_count) {
  nvm::FaultSpec s;
  s.effect = nvm::FaultEffect::kTransientRead;
  s.trigger = trigger;
  s.n = n;
  s.transient_fail_count = fail_count;
  return s;
}

// Crashes a run mid-traversal and returns a region its completed init
// laid out (the pruned payloads by default), so later runs can aim damage
// at re-derivable data. Layout is deterministic: the same corpus +
// options + capacity reproduce the same region on a fresh device.
std::pair<uint64_t, uint64_t> CrashAndLocatePayload(
    const compress::CompressedCorpus& corpus, nvm::NvmDevice* device,
    NTadocOptions opts, tadoc::Task task,
    std::pair<uint64_t, uint64_t> (NTadocEngine::*region)() const =
        &NTadocEngine::payload_region) {
  // Per-file strategies count one traversal step per file, so the crash
  // point must stay below the corpus's file count to fire on every task.
  opts.crash_after_traversal_steps = 2;
  NTadocEngine engine(&corpus, device, opts);
  EXPECT_FALSE(engine.Run(task).ok());
  return (engine.*region)();
}

// ---- Scenario A: transient faults are absorbed silently --------------
//
// Flaky reads that heal within the retry budget must never surface: no
// corruption detected, no repair, no restart — just retries charged to
// the simulated clock. All six tasks, exact answers.

TEST(ChaosSoakTest, TransientFaultsAbsorbedAcrossAllTasks) {
  const auto corpus = RandomCorpus(ChaosSeed(), 20, 4, 220);

  for (tadoc::Task task : tadoc::kAllTasks) {
    nvm::FaultPlan plan;
    plan.faults.push_back(
        Transient(nvm::FaultTrigger::kAddressRange, 1, /*fail_count=*/2));
    plan.faults.push_back(
        Transient(nvm::FaultTrigger::kNthRead, 200, /*fail_count=*/3));
    plan.faults.push_back(
        Transient(nvm::FaultTrigger::kNthRead, 3000, /*fail_count=*/2));
    auto device = MakeDevice(plan, 11 + static_cast<uint64_t>(task));
    ASSERT_TRUE(device.ok());

    NTadocOptions opts;
    opts.persistence = PersistenceMode::kPhase;
    NTadocEngine engine(&corpus, device->get(), opts);
    auto got = engine.Run(task);
    ASSERT_TRUE(got.ok()) << tadoc::TaskToString(task) << ": "
                          << got.status();
    EXPECT_EQ(*got, ReferenceRun(corpus, task, {}))
        << tadoc::TaskToString(task);

    const NTadocRunInfo& info = engine.run_info();
    EXPECT_GT(info.transient_retries, 0u) << tadoc::TaskToString(task);
    EXPECT_EQ(info.corruption_detected, 0u) << tadoc::TaskToString(task);
    EXPECT_EQ(info.salvage_restarts, 0u) << tadoc::TaskToString(task);
    EXPECT_EQ(info.blocks_remapped, 0u) << tadoc::TaskToString(task);
    EXPECT_EQ(info.degraded_queries, 0u) << tadoc::TaskToString(task);
    EXPECT_EQ(info.completeness, 1.0) << tadoc::TaskToString(task);
    EXPECT_EQ((*device)->media_error_count(), 0u)
        << tadoc::TaskToString(task);
    EXPECT_GT((*device)->transient_retry_count(), 0u)
        << tadoc::TaskToString(task);
  }
}

// ---- Scenario B: permanent single-block damage, found at attach ------
//
// The acceptance bar for online repair: a block of re-derivable payload
// goes bad between runs. Recovery must re-derive it from the compressed
// container and remap the media — completing every task exactly, with
// zero salvage restarts and full completeness.

class AttachRepairSoakTest : public ::testing::TestWithParam<tadoc::Task> {};

TEST_P(AttachRepairSoakTest, SingleBadBlockIsRemappedWithoutSalvage) {
  const tadoc::Task task = GetParam();
  const auto corpus = RandomCorpus(ChaosSeed(), 20, 4, 220);
  const auto expected = ReferenceRun(corpus, task, {});

  auto device = MakeDevice();
  ASSERT_TRUE(device.ok());

  NTadocOptions opts;
  opts.persistence = PersistenceMode::kPhase;
  const auto [pbegin, pend] =
      CrashAndLocatePayload(corpus, device->get(), opts, task);
  ASSERT_LT(pbegin, pend) << "init did not lay out a payload region";

  // One 256 B media block in the middle of the pruned payload goes bad
  // while "powered off" (readable again only after a rewrite).
  const uint64_t block = ((pbegin + pend) / 2) & ~uint64_t{255};
  ASSERT_GE(block, pbegin);
  (*device)->PoisonForTesting(block, 1);

  NTadocEngine engine(&corpus, device->get(), opts);
  auto got = engine.Run(task);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected);

  const NTadocRunInfo& info = engine.run_info();
  EXPECT_GT(info.corruption_detected, 0u);
  EXPECT_GT(info.blocks_remapped, 0u);
  EXPECT_GT(info.scoped_repairs, 0u);
  EXPECT_EQ(info.salvage_restarts, 0u)
      << "single-block payload damage must not cost a full restart";
  EXPECT_EQ(info.blocks_lost, 0u);
  EXPECT_EQ(info.degraded_queries, 0u);
  EXPECT_EQ(info.completeness, 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllTasks, AttachRepairSoakTest,
                         ::testing::ValuesIn(tadoc::kAllTasks));

// The same bar for the local n-gram lists, the other re-derivable init
// structure: a bad block in them is rebuilt from the grammar byte for
// byte, so the init integrity hash still verifies and the init is reused.
// The region's first whole media block holds rule lists and its last one
// file-segment lists; top-down runs add the lists into counter tables,
// bottom-up runs merge them into list arrays.

struct GramDamageCase {
  tadoc::Task task;
  tadoc::TraversalStrategy strategy;
  bool last_block;  // else the first whole block of the region
};

class GramRepairSoakTest : public ::testing::TestWithParam<GramDamageCase> {
};

TEST_P(GramRepairSoakTest, DamagedGramBlockIsRederivedWithoutSalvage) {
  const GramDamageCase& c = GetParam();
  const auto corpus = RandomCorpus(ChaosSeed(), 20, 4, 220);
  const auto expected = ReferenceRun(corpus, c.task, {});

  auto device = MakeDevice();
  ASSERT_TRUE(device.ok());

  NTadocOptions opts;
  opts.persistence = PersistenceMode::kPhase;
  opts.traversal = c.strategy;
  const auto [gbegin, gend] = CrashAndLocatePayload(
      corpus, device->get(), opts, c.task, &NTadocEngine::gram_region);
  constexpr uint64_t kBlock = 256;
  const uint64_t first = (gbegin + kBlock - 1) & ~(kBlock - 1);
  ASSERT_LE(first + kBlock, gend) << "no whole media block of gram lists";
  const uint64_t block = c.last_block ? (gend & ~(kBlock - 1)) - kBlock
                                      : first;
  (*device)->PoisonForTesting(block, 1);

  NTadocEngine engine(&corpus, device->get(), opts);
  auto got = engine.Run(c.task);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected);

  const NTadocRunInfo& info = engine.run_info();
  EXPECT_GT(info.blocks_remapped, 0u);
  EXPECT_EQ(info.salvage_restarts, 0u)
      << "single-block gram damage must not cost a full restart";
  EXPECT_TRUE(info.init_phase_reused)
      << "the re-derived lists must reproduce the sealed init exactly";
}

std::vector<GramDamageCase> GramDamageCases() {
  std::vector<GramDamageCase> cases;
  for (tadoc::Task task :
       {tadoc::Task::kSequenceCount, tadoc::Task::kRankedInvertedIndex}) {
    for (tadoc::TraversalStrategy strategy :
         {tadoc::TraversalStrategy::kTopDown,
          tadoc::TraversalStrategy::kBottomUp}) {
      for (bool last_block : {false, true}) {
        cases.push_back(GramDamageCase{task, strategy, last_block});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    SequenceTasks, GramRepairSoakTest, ::testing::ValuesIn(GramDamageCases()),
    [](const ::testing::TestParamInfo<GramDamageCase>& info) {
      const GramDamageCase& c = info.param;
      return std::string(c.task == tadoc::Task::kSequenceCount
                             ? "SequenceCount"
                             : "RankedInvertedIndex") +
             (c.strategy == tadoc::TraversalStrategy::kTopDown ? "_TopDown"
                                                               : "_BottomUp") +
             (c.last_block ? "_LastBlock" : "_FirstBlock");
    });

// Same damage under operation-level persistence: the remap entry and
// header bump commit through the run's redo log.

TEST(ChaosSoakTest, AttachRepairJournalsRemapUnderOperationPersistence) {
  const auto corpus = RandomCorpus(ChaosSeed(), 20, 4, 220);
  const auto expected = ReferenceRun(corpus, tadoc::Task::kWordCount, {});

  auto device = MakeDevice();
  ASSERT_TRUE(device.ok());

  NTadocOptions opts;
  opts.persistence = PersistenceMode::kOperation;
  const auto [pbegin, pend] = CrashAndLocatePayload(
      corpus, device->get(), opts, tadoc::Task::kWordCount);
  ASSERT_LT(pbegin, pend);

  const uint64_t block = ((pbegin + pend) / 2) & ~uint64_t{255};
  (*device)->PoisonForTesting(block, 1);

  NTadocEngine engine(&corpus, device->get(), opts);
  auto got = engine.Run(tadoc::Task::kWordCount);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected);
  EXPECT_GT(engine.run_info().blocks_remapped, 0u);
  EXPECT_EQ(engine.run_info().salvage_restarts, 0u);
  EXPECT_EQ(engine.run_info().completeness, 1.0);
}

// ---- Scenario C: permanent single-block damage, found mid-run --------
//
// The Nth read overlapping the payload region poisons one block under
// it, so the loss is discovered by the traversal itself, not at attach.
// Because the damage is confined to re-derivable payload, scoped repair
// must always win: zero salvage restarts at every ordinal.

class MidRunRepairSoakTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MidRunRepairSoakTest, PayloadDamageIsRepairedInPlace) {
  const uint64_t nth_read = GetParam();
  const auto corpus = RandomCorpus(ChaosSeed(), 20, 4, 220);
  const auto expected = ReferenceRun(corpus, tadoc::Task::kWordCount, {});

  NTadocOptions opts;
  opts.persistence = PersistenceMode::kOperation;
  opts.traversal = tadoc::TraversalStrategy::kTopDown;

  // Scout run: learn where the payload lands (deterministic layout).
  uint64_t pbegin = 0;
  uint64_t pend = 0;
  {
    auto scout = MakeDevice();
    ASSERT_TRUE(scout.ok());
    std::tie(pbegin, pend) = CrashAndLocatePayload(
        corpus, scout->get(), opts, tadoc::Task::kWordCount);
    ASSERT_LT(pbegin, pend);
  }

  nvm::FaultSpec s;
  s.effect = nvm::FaultEffect::kUnreadableBlock;
  s.trigger = nvm::FaultTrigger::kNthRead;
  s.n = nth_read;
  s.range_begin = pbegin;
  s.range_end = pend;
  nvm::FaultPlan plan;
  plan.faults.push_back(s);
  auto device = MakeDevice(plan, 31 + nth_read);
  ASSERT_TRUE(device.ok());

  NTadocEngine engine(&corpus, device->get(), opts);
  auto got = engine.Run(tadoc::Task::kWordCount);
  ASSERT_TRUE(got.ok()) << "nth_read=" << nth_read << ": " << got.status();
  EXPECT_EQ(*got, expected) << "nth_read=" << nth_read;

  const NTadocRunInfo& info = engine.run_info();
  EXPECT_EQ(info.salvage_restarts, 0u)
      << "payload-only damage must be repaired in place (nth_read="
      << nth_read << ")";
  EXPECT_EQ(info.completeness, 1.0);
  const auto* inj = (*device)->fault_injector();
  ASSERT_NE(inj, nullptr);
  if (inj->stats().failed_reads > 0) {
    EXPECT_GT(info.blocks_remapped, 0u) << "nth_read=" << nth_read;
    EXPECT_GT(info.scoped_repairs, 0u) << "nth_read=" << nth_read;
  }
}

INSTANTIATE_TEST_SUITE_P(ReadOrdinals, MidRunRepairSoakTest,
                         ::testing::Values(500, 1500, 2500, 6000));

// ---- Scenario D: degraded completion --------------------------------
//
// Sticky damage (dead media, not remappable) with repair and salvage
// budgets at zero. Without opt-in the run must fail loudly; with
// allow_degraded it completes, reports itself degraded and publishes a
// completeness fraction below 1.

TEST(ChaosSoakTest, StickyDamageNeedsOptInForDegradedCompletion) {
  const auto corpus = RandomCorpus(ChaosSeed(), 20, 4, 220);

  auto device = MakeDevice();
  ASSERT_TRUE(device.ok());

  NTadocOptions opts;
  opts.persistence = PersistenceMode::kPhase;
  const auto [pbegin, pend] = CrashAndLocatePayload(
      corpus, device->get(), opts, tadoc::Task::kWordCount);
  ASSERT_LT(pbegin, pend);

  const uint64_t block = ((pbegin + pend) / 2) & ~uint64_t{255};
  (*device)->PoisonForTesting(block, 1, /*sticky=*/true);

  opts.max_scoped_repairs = 0;
  opts.max_salvage_restarts = 0;

  {
    // Not opted in: unrepairable damage is a hard failure, never a
    // silently incomplete answer.
    NTadocEngine engine(&corpus, device->get(), opts);
    ASSERT_FALSE(engine.Run(tadoc::Task::kWordCount).ok());
    EXPECT_EQ(engine.run_info().degraded_queries, 0u);
  }

  opts.allow_degraded = true;
  NTadocEngine engine(&corpus, device->get(), opts);
  auto got = engine.Run(tadoc::Task::kWordCount);
  ASSERT_TRUE(got.ok()) << got.status();

  const NTadocRunInfo& info = engine.run_info();
  EXPECT_EQ(info.degraded_queries, 1u);
  EXPECT_LT(info.completeness, 1.0);
  EXPECT_GE(info.completeness, 0.0);
  EXPECT_EQ(info.salvage_restarts, 0u);
  EXPECT_EQ(info.blocks_remapped, 0u);
}

// ---- Scenario E: metadata mirror failover ---------------------------
//
// The primary phase marker (device block 0) goes unreadable between
// runs. Attach must fail over to the replicated copy at the device tail,
// rewrite the primary, and reuse the persisted init as if nothing
// happened.

TEST(ChaosSoakTest, MarkerDamageFailsOverToMetaMirror) {
  const auto corpus = RandomCorpus(ChaosSeed(), 20, 4, 220);
  const auto expected = ReferenceRun(corpus, tadoc::Task::kWordCount, {});

  auto device = MakeDevice();
  ASSERT_TRUE(device.ok());

  NTadocOptions opts;
  opts.persistence = PersistenceMode::kPhase;
  CrashAndLocatePayload(corpus, device->get(), opts,
                        tadoc::Task::kWordCount);

  (*device)->PoisonForTesting(0, 128);

  NTadocEngine engine(&corpus, device->get(), opts);
  auto got = engine.Run(tadoc::Task::kWordCount);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected);

  const NTadocRunInfo& info = engine.run_info();
  EXPECT_TRUE(engine.run_info().init_phase_reused)
      << "mirror failover should preserve the completed init phase";
  EXPECT_GT(info.corruption_detected, 0u);
  EXPECT_EQ(info.salvage_restarts, 0u);
  EXPECT_EQ(info.completeness, 1.0);
}

}  // namespace
}  // namespace ntadoc::core
