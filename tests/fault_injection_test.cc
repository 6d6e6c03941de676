// End-to-end media-fault tests: torn flushes, sticky-unreadable blocks,
// and crash-time bit rot injected under real analytics runs. The
// invariant everywhere: a run either returns the exact reference answer
// or fails loudly — never a silent wrong answer — and damage detected
// during recovery or traversal is salvaged by restarting from the
// still-valid compressed container.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/engine.h"
#include "reference_impl.h"
#include "util/logging.h"

namespace ntadoc::core {
namespace {

using tests::RandomCorpus;
using tests::ReferenceRun;

nvm::DeviceOptions FaultyDeviceOptions(nvm::FaultPlan plan, uint64_t seed) {
  nvm::DeviceOptions dopts;
  dopts.capacity = 192ull << 20;
  dopts.strict_persistence = true;
  dopts.fault_plan = std::move(plan);
  dopts.fault_seed = seed;
  return dopts;
}

nvm::FaultSpec MakeSpec(nvm::FaultEffect effect, nvm::FaultTrigger trigger,
                        uint64_t n) {
  nvm::FaultSpec s;
  s.effect = effect;
  s.trigger = trigger;
  s.n = n;
  return s;
}

// ---- Torn flushes ---------------------------------------------------
//
// One flush in the run persists only a prefix of one of its lines. The
// recovery run must return the exact answer: either the tear was healed
// by a later flush / detected and salvaged, or it landed in working
// state that recovery rebuilds anyway.

class TornFlushSweepTest
    : public ::testing::TestWithParam<std::tuple<PersistenceMode, uint64_t>> {
};

TEST_P(TornFlushSweepTest, RecoveryIsExactOrSalvaged) {
  const auto& [mode, torn_at] = GetParam();
  const auto corpus = RandomCorpus(909, 20, 4, 220);
  const auto expected = ReferenceRun(corpus, tadoc::Task::kWordCount, {});

  nvm::FaultPlan plan;
  plan.faults.push_back(MakeSpec(nvm::FaultEffect::kTornFlush,
                                 nvm::FaultTrigger::kNthFlush, torn_at));
  auto device =
      nvm::NvmDevice::Create(FaultyDeviceOptions(plan, 11 + torn_at));
  ASSERT_TRUE(device.ok());

  NTadocOptions opts;
  opts.persistence = mode;
  opts.traversal = tadoc::TraversalStrategy::kTopDown;
  opts.crash_after_traversal_steps = 6;
  {
    NTadocEngine engine(&corpus, device->get(), opts);
    ASSERT_FALSE(engine.Run(tadoc::Task::kWordCount).ok());
  }
  opts.crash_after_traversal_steps = 0;
  NTadocEngine engine(&corpus, device->get(), opts);
  auto got = engine.Run(tadoc::Task::kWordCount);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected)
      << "persistence=" << PersistenceModeToString(mode)
      << " torn flush #" << torn_at;

  const auto* inj = (*device)->fault_injector();
  ASSERT_NE(inj, nullptr);
  // Early ordinals always have a qualifying flush before the crash.
  if (torn_at <= 3) {
    EXPECT_EQ(inj->stats().torn_flushes, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ordinals, TornFlushSweepTest,
    ::testing::Combine(::testing::Values(PersistenceMode::kPhase,
                                         PersistenceMode::kOperation),
                       ::testing::Values(1, 2, 3, 5, 9, 14, 21, 30)));

// ---- Unreadable blocks ----------------------------------------------
//
// The Nth media read poisons one 256 B block under it: that read and all
// later reads of the block fail until something rewrites it. A single
// Run() must absorb the loss internally — detect it, restart from the
// compressed container (which rewrites and thereby heals the block), and
// still return the exact answer.

class UnreadableBlockSweepTest
    : public ::testing::TestWithParam<std::tuple<PersistenceMode, uint64_t>> {
};

TEST_P(UnreadableBlockSweepTest, SalvageRestartsAndStaysExact) {
  const auto& [mode, nth_read] = GetParam();
  const auto corpus = RandomCorpus(909, 20, 4, 220);
  const auto expected = ReferenceRun(corpus, tadoc::Task::kWordCount, {});

  nvm::FaultPlan plan;
  plan.faults.push_back(MakeSpec(nvm::FaultEffect::kUnreadableBlock,
                                 nvm::FaultTrigger::kNthRead, nth_read));
  auto device =
      nvm::NvmDevice::Create(FaultyDeviceOptions(plan, 101 + nth_read));
  ASSERT_TRUE(device.ok());

  NTadocOptions opts;
  opts.persistence = mode;
  opts.traversal = tadoc::TraversalStrategy::kTopDown;
  NTadocEngine engine(&corpus, device->get(), opts);
  auto got = engine.Run(tadoc::Task::kWordCount);
  ASSERT_TRUE(got.ok()) << "persistence=" << PersistenceModeToString(mode)
                        << " nth_read=" << nth_read << ": " << got.status();
  EXPECT_EQ(*got, expected)
      << "persistence=" << PersistenceModeToString(mode)
      << " nth_read=" << nth_read;

  const auto* inj = (*device)->fault_injector();
  ASSERT_NE(inj, nullptr);
  if (inj->stats().failed_reads > 0) {
    // The loss was observed: it must have been reported and salvaged,
    // never silently absorbed.
    EXPECT_TRUE(engine.run_info().corruption_detected > 0 ||
                engine.run_info().salvage_restarts > 0)
        << "poisoned reads were consumed without detection";
  }
}

INSTANTIATE_TEST_SUITE_P(
    ReadOrdinals, UnreadableBlockSweepTest,
    ::testing::Combine(::testing::Values(PersistenceMode::kNone,
                                         PersistenceMode::kPhase,
                                         PersistenceMode::kOperation),
                       ::testing::Values(3, 25, 250, 2500, 12500)));

// ---- Transient read faults ------------------------------------------
//
// Flaky reads that heal within the device's retry budget are a
// controller-internal event: the run completes exactly, nothing is
// reported as corruption, and the only trace is the retry counter (plus
// the simulated backoff cost).

TEST(TransientReadTest, RetriesAbsorbFlakyReadsSilently) {
  const auto corpus = RandomCorpus(909, 20, 4, 220);
  const auto expected = ReferenceRun(corpus, tadoc::Task::kWordCount, {});

  nvm::FaultSpec flaky = MakeSpec(nvm::FaultEffect::kTransientRead,
                                  nvm::FaultTrigger::kNthRead, 40);
  flaky.transient_fail_count = 3;  // within the default retry budget of 4
  nvm::FaultPlan plan;
  plan.faults.push_back(flaky);
  auto device = nvm::NvmDevice::Create(FaultyDeviceOptions(plan, 7));
  ASSERT_TRUE(device.ok());

  NTadocOptions opts;
  opts.persistence = PersistenceMode::kPhase;
  NTadocEngine engine(&corpus, device->get(), opts);
  auto got = engine.Run(tadoc::Task::kWordCount);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected);

  EXPECT_GT((*device)->transient_retry_count(), 0u);
  EXPECT_EQ((*device)->media_error_count(), 0u);
  EXPECT_GT((*device)->fault_injector()->stats().transient_faults, 0u);
  EXPECT_GT(engine.run_info().transient_retries, 0u);
  EXPECT_EQ(engine.run_info().corruption_detected, 0u);
  EXPECT_EQ(engine.run_info().salvage_restarts, 0u);
}

// A transient window deeper than the retry budget is indistinguishable
// from permanent loss at the failing read — it must surface through the
// normal detect-and-repair machinery, never as a silent wrong answer.

TEST(TransientReadTest, BudgetExhaustionEscalatesLikePermanentLoss) {
  const auto corpus = RandomCorpus(909, 20, 4, 220);
  const auto expected = ReferenceRun(corpus, tadoc::Task::kWordCount, {});

  nvm::FaultSpec flaky = MakeSpec(nvm::FaultEffect::kTransientRead,
                                  nvm::FaultTrigger::kNthRead, 40);
  flaky.transient_fail_count = 64;  // outlives any retry budget
  nvm::FaultPlan plan;
  plan.faults.push_back(flaky);
  auto device = nvm::NvmDevice::Create(FaultyDeviceOptions(plan, 7));
  ASSERT_TRUE(device.ok());

  NTadocOptions opts;
  opts.persistence = PersistenceMode::kPhase;
  NTadocEngine engine(&corpus, device->get(), opts);
  auto got = engine.Run(tadoc::Task::kWordCount);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected);
  EXPECT_GT((*device)->media_error_count(), 0u);
  EXPECT_TRUE(engine.run_info().corruption_detected > 0 ||
              engine.run_info().salvage_restarts > 0)
      << "exhausted retries were consumed without detection";
}

// ---- Crash-time bit rot ---------------------------------------------
//
// SimulateCrash flips seeded bits anywhere on the device. With phase
// persistence, every flip lands either in checksummed / hashed state
// (detected at attach, salvaged) or in working state the restarted
// traversal rebuilds from scratch — so recovery stays exact.

TEST(CrashBitFlipTest, PhaseRecoveryIsExactUnderBitRot) {
  const auto corpus = RandomCorpus(909, 20, 4, 220);
  const auto expected = ReferenceRun(corpus, tadoc::Task::kWordCount, {});

  for (uint64_t seed = 1; seed <= 5; ++seed) {
    nvm::FaultSpec rot = MakeSpec(nvm::FaultEffect::kCrashBitFlip,
                                  nvm::FaultTrigger::kAddressRange, 1);
    rot.bit_flips = 8;
    nvm::FaultPlan plan;
    plan.faults.push_back(rot);
    auto device = nvm::NvmDevice::Create(FaultyDeviceOptions(plan, seed));
    ASSERT_TRUE(device.ok());

    NTadocOptions opts;
    opts.persistence = PersistenceMode::kPhase;
    opts.traversal = tadoc::TraversalStrategy::kTopDown;
    opts.crash_after_traversal_steps = 6;
    {
      NTadocEngine engine(&corpus, device->get(), opts);
      ASSERT_FALSE(engine.Run(tadoc::Task::kWordCount).ok());
    }
    ASSERT_EQ((*device)->fault_injector()->stats().bits_flipped, 8u);
    opts.crash_after_traversal_steps = 0;
    NTadocEngine engine(&corpus, device->get(), opts);
    auto got = engine.Run(tadoc::Task::kWordCount);
    ASSERT_TRUE(got.ok()) << "seed=" << seed << ": " << got.status();
    EXPECT_EQ(*got, expected) << "seed=" << seed;
  }
}

// ---- Crash during initialization ------------------------------------

class CrashInInitTest : public ::testing::TestWithParam<PersistenceMode> {};

TEST_P(CrashInInitTest, CleanRunRecoversExactly) {
  const PersistenceMode mode = GetParam();
  const auto corpus = RandomCorpus(909, 20, 4, 220);
  const auto expected = ReferenceRun(corpus, tadoc::Task::kWordCount, {});

  nvm::DeviceOptions dopts;
  dopts.capacity = 192ull << 20;
  dopts.strict_persistence = true;
  auto device = nvm::NvmDevice::Create(dopts);
  ASSERT_TRUE(device.ok());

  NTadocOptions opts;
  opts.persistence = mode;
  opts.crash_in_init = true;
  {
    NTadocEngine engine(&corpus, device->get(), opts);
    ASSERT_FALSE(engine.Run(tadoc::Task::kWordCount).ok());
  }
  opts.crash_in_init = false;
  NTadocEngine engine(&corpus, device->get(), opts);
  auto got = engine.Run(tadoc::Task::kWordCount);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected)
      << "persistence=" << PersistenceModeToString(mode);
  // A half-built init must never be mistaken for a committed one.
  EXPECT_FALSE(engine.run_info().init_phase_reused);
}

INSTANTIATE_TEST_SUITE_P(Modes, CrashInInitTest,
                         ::testing::Values(PersistenceMode::kPhase,
                                           PersistenceMode::kOperation));

// ---- Fault-plan determinism -----------------------------------------
//
// The acceptance bar for every test above: the same plan and seed must
// reproduce byte-identical post-crash device states, or none of the
// sweeps would be debuggable.

TEST(FaultPlanDeterminismTest, SameSeedSamePostCrashSnapshot) {
  const auto corpus = RandomCorpus(910, 20, 4, 220);

  nvm::FaultPlan plan;
  plan.faults.push_back(
      MakeSpec(nvm::FaultEffect::kTornFlush, nvm::FaultTrigger::kNthFlush, 3));
  nvm::FaultSpec rot = MakeSpec(nvm::FaultEffect::kCrashBitFlip,
                                nvm::FaultTrigger::kAddressRange, 1);
  rot.bit_flips = 6;
  plan.faults.push_back(rot);
  plan.faults.push_back(MakeSpec(nvm::FaultEffect::kUnreadableBlock,
                                 nvm::FaultTrigger::kNthRead, 500));

  auto run_to_crash = [&](uint64_t fault_seed) {
    auto dopts = FaultyDeviceOptions(plan, fault_seed);
    dopts.capacity = 64ull << 20;
    auto device = nvm::NvmDevice::Create(dopts);
    NTADOC_CHECK(device.ok());
    NTadocOptions opts;
    opts.persistence = PersistenceMode::kOperation;
    opts.traversal = tadoc::TraversalStrategy::kTopDown;
    opts.crash_after_traversal_steps = 5;
    NTadocEngine engine(&corpus, device->get(), opts);
    NTADOC_CHECK(!engine.Run(tadoc::Task::kWordCount).ok());
    return (*device)->PersistedSnapshot();
  };

  const std::vector<uint8_t> a = run_to_crash(77);
  const std::vector<uint8_t> b = run_to_crash(77);
  EXPECT_TRUE(a == b) << "same plan + seed must replay byte-identically";

  const std::vector<uint8_t> c = run_to_crash(78);
  EXPECT_FALSE(a == c) << "a different seed must perturb the fault choices";
}

}  // namespace
}  // namespace ntadoc::core
