// N-TADOC engine tests: result equivalence against the brute-force
// reference across tasks, traversal strategies, persistence modes and
// ablations; plus crash-injection recovery tests.

#include "core/engine.h"

#include <gtest/gtest.h>

#include "reference_impl.h"
#include "tadoc/analytics.h"

namespace ntadoc::core {
namespace {

using tadoc::SummarizeOutput;
using tadoc::TaskToString;
using tadoc::TraversalStrategyToString;
using tests::RandomCorpus;
using tests::ReferenceRun;

std::unique_ptr<nvm::NvmDevice> MakeDevice(uint64_t capacity = 256ull << 20,
                                           bool strict = false) {
  nvm::DeviceOptions opts;
  opts.capacity = capacity;
  opts.profile = nvm::OptaneProfile();
  opts.strict_persistence = strict;
  auto dev = nvm::NvmDevice::Create(opts);
  NTADOC_CHECK(dev.ok());
  return std::move(dev).value();
}

struct EngineCase {
  uint64_t seed;
  uint32_t vocab;
  uint32_t files;
  uint32_t tokens_per_file;
  TraversalStrategy strategy;
  PersistenceMode persistence;
  uint32_t commit_interval = 1;  // > 1: epoch group commit (operation level)
};

class NTadocEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<EngineCase, Task>> {};

TEST_P(NTadocEquivalenceTest, MatchesReference) {
  const auto& [c, task] = GetParam();
  const auto corpus =
      RandomCorpus(c.seed, c.vocab, c.files, c.tokens_per_file);
  const AnalyticsOptions opts;
  const AnalyticsOutput expected = ReferenceRun(corpus, task, opts);
  auto device = MakeDevice();
  NTadocOptions nopts;
  nopts.traversal = c.strategy;
  nopts.persistence = c.persistence;
  nopts.commit_interval = c.commit_interval;
  NTadocEngine engine(&corpus, device.get(), nopts);
  auto got = engine.Run(task, opts);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected)
      << TaskToString(task) << " strat=" << TraversalStrategyToString(c.strategy)
      << " persist=" << PersistenceModeToString(c.persistence)
      << " ci=" << c.commit_interval << "\n"
      << SummarizeOutput(*got) << " vs " << SummarizeOutput(expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NTadocEquivalenceTest,
    ::testing::Combine(
        ::testing::Values(
            EngineCase{21, 30, 3, 400, TraversalStrategy::kTopDown,
                       PersistenceMode::kPhase},
            EngineCase{22, 30, 3, 400, TraversalStrategy::kBottomUp,
                       PersistenceMode::kPhase},
            EngineCase{23, 50, 8, 150, TraversalStrategy::kTopDown,
                       PersistenceMode::kOperation},
            EngineCase{24, 50, 8, 150, TraversalStrategy::kBottomUp,
                       PersistenceMode::kOperation},
            EngineCase{25, 20, 1, 1200, TraversalStrategy::kTopDown,
                       PersistenceMode::kNone},
            EngineCase{26, 100, 40, 60, TraversalStrategy::kAuto,
                       PersistenceMode::kPhase},
            EngineCase{27, 15, 5, 800, TraversalStrategy::kBottomUp,
                       PersistenceMode::kNone},
            EngineCase{28, 50, 8, 150, TraversalStrategy::kTopDown,
                       PersistenceMode::kOperation, 8},
            EngineCase{29, 50, 8, 150, TraversalStrategy::kBottomUp,
                       PersistenceMode::kOperation, 8}),
        ::testing::ValuesIn(tadoc::kAllTasks)),
    [](const auto& info) {
      std::string name =
          "seed" + std::to_string(std::get<0>(info.param).seed) + "_";
      std::string t = TaskToString(std::get<1>(info.param));
      for (char ch : t) name.push_back(ch == ' ' ? '_' : ch);
      return name;
    });

// ---- Ablations must stay correct (they only change cost) ----

class NTadocAblationTest : public ::testing::TestWithParam<Task> {};

TEST_P(NTadocAblationTest, NoPruningMatchesReference) {
  const Task task = GetParam();
  const auto corpus = RandomCorpus(31, 40, 4, 300);
  const AnalyticsOutput expected = ReferenceRun(corpus, task, {});
  auto device = MakeDevice();
  NTadocOptions nopts;
  nopts.enable_pruning = false;
  NTadocEngine engine(&corpus, device.get(), nopts);
  auto got = engine.Run(task);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected);
}

TEST_P(NTadocAblationTest, NoSummationMatchesReference) {
  const Task task = GetParam();
  const auto corpus = RandomCorpus(32, 40, 4, 300);
  const AnalyticsOutput expected = ReferenceRun(corpus, task, {});
  auto device = MakeDevice();
  NTadocOptions nopts;
  nopts.enable_summation = false;
  nopts.persistence = PersistenceMode::kPhase;
  NTadocEngine engine(&corpus, device.get(), nopts);
  auto got = engine.Run(task);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected);
  // The whole point of disabling the estimator: rebuild traffic happens.
  EXPECT_GT(engine.run_info().counter_rebuilds, 0u)
      << "expected at least one reconstruction without summation";
}

TEST_P(NTadocAblationTest, NoSummationBottomUpMatchesReference) {
  const Task task = GetParam();
  const auto corpus = RandomCorpus(33, 40, 40, 80);
  const AnalyticsOutput expected = ReferenceRun(corpus, task, {});
  auto device = MakeDevice();
  NTadocOptions nopts;
  nopts.enable_summation = false;
  nopts.traversal = TraversalStrategy::kBottomUp;
  NTadocEngine engine(&corpus, device.get(), nopts);
  auto got = engine.Run(task);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected);
}

INSTANTIATE_TEST_SUITE_P(AllTasks, NTadocAblationTest,
                         ::testing::ValuesIn(tadoc::kAllTasks));

// ---- Crash recovery ----

struct CrashCase {
  Task task;
  TraversalStrategy strategy;
  PersistenceMode persistence;
  uint64_t crash_step;
};

class NTadocCrashTest : public ::testing::TestWithParam<CrashCase> {};

TEST_P(NTadocCrashTest, RecoversToCorrectResult) {
  const CrashCase& c = GetParam();
  const auto corpus = RandomCorpus(41, 30, 6, 250);
  const AnalyticsOutput expected = ReferenceRun(corpus, c.task, {});
  auto device = MakeDevice(256ull << 20, /*strict=*/true);

  // First run crashes mid-traversal (power failure: unflushed lines are
  // lost).
  NTadocOptions nopts;
  nopts.traversal = c.strategy;
  nopts.persistence = c.persistence;
  nopts.crash_after_traversal_steps = c.crash_step;
  {
    NTadocEngine engine(&corpus, device.get(), nopts);
    auto crashed = engine.Run(c.task);
    ASSERT_FALSE(crashed.ok());
    EXPECT_EQ(crashed.status().code(), StatusCode::kInternal);
  }

  // Second run (fresh engine, same device) must recover and produce the
  // exact result.
  nopts.crash_after_traversal_steps = 0;
  NTadocEngine engine(&corpus, device.get(), nopts);
  auto got = engine.Run(c.task);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected);
  // Phase-level and operation-level persistence both preserve the
  // completed init phase.
  EXPECT_TRUE(engine.run_info().init_phase_reused);
}

std::vector<CrashCase> CrashCases() {
  std::vector<CrashCase> cases = {
      CrashCase{Task::kWordCount, TraversalStrategy::kTopDown,
                PersistenceMode::kPhase, 3},
      CrashCase{Task::kWordCount, TraversalStrategy::kTopDown,
                PersistenceMode::kOperation, 3},
      CrashCase{Task::kWordCount, TraversalStrategy::kTopDown,
                PersistenceMode::kOperation, 10},
      CrashCase{Task::kSequenceCount, TraversalStrategy::kTopDown,
                PersistenceMode::kPhase, 5},
      CrashCase{Task::kSequenceCount, TraversalStrategy::kTopDown,
                PersistenceMode::kOperation, 7},
      CrashCase{Task::kWordCount, TraversalStrategy::kBottomUp,
                PersistenceMode::kOperation, 4},
      CrashCase{Task::kTermVector, TraversalStrategy::kBottomUp,
                PersistenceMode::kOperation, 6},
      CrashCase{Task::kInvertedIndex, TraversalStrategy::kTopDown,
                PersistenceMode::kPhase, 2},
      CrashCase{Task::kRankedInvertedIndex, TraversalStrategy::kBottomUp,
                PersistenceMode::kPhase, 5},
      CrashCase{Task::kSort, TraversalStrategy::kTopDown,
                PersistenceMode::kOperation, 1}};
  // Every catalog slot is re-attached at least once: all six tasks under
  // both strategies and both durable modes (every counter table and list
  // array a task can use), crashing early in the traversal.
  for (Task task : tadoc::kAllTasks) {
    for (TraversalStrategy strategy :
         {TraversalStrategy::kTopDown, TraversalStrategy::kBottomUp}) {
      for (PersistenceMode mode :
           {PersistenceMode::kPhase, PersistenceMode::kOperation}) {
        cases.push_back(CrashCase{task, strategy, mode, 2});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, NTadocCrashTest,
                         ::testing::ValuesIn(CrashCases()));

TEST(NTadocCrashTest, CrashDuringInitRestartsInit) {
  const auto corpus = RandomCorpus(42, 20, 3, 200);
  const AnalyticsOutput expected = ReferenceRun(corpus, Task::kWordCount, {});
  auto device = MakeDevice(256ull << 20, /*strict=*/true);
  NTadocOptions nopts;
  nopts.crash_in_init = true;
  {
    NTadocEngine engine(&corpus, device.get(), nopts);
    ASSERT_FALSE(engine.Run(Task::kWordCount).ok());
  }
  nopts.crash_in_init = false;
  NTadocEngine engine(&corpus, device.get(), nopts);
  auto got = engine.Run(Task::kWordCount);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected);
  EXPECT_FALSE(engine.run_info().init_phase_reused)
      << "an interrupted init must not be reused";
}

TEST(NTadocCrashTest, OperationLevelResumesMidTraversal) {
  const auto corpus = RandomCorpus(43, 30, 4, 400);
  const AnalyticsOutput expected = ReferenceRun(corpus, Task::kWordCount, {});
  auto device = MakeDevice(256ull << 20, /*strict=*/true);
  NTadocOptions nopts;
  nopts.persistence = PersistenceMode::kOperation;
  nopts.traversal = TraversalStrategy::kTopDown;
  nopts.crash_after_traversal_steps = 8;
  {
    NTadocEngine engine(&corpus, device.get(), nopts);
    ASSERT_FALSE(engine.Run(Task::kWordCount).ok());
  }
  nopts.crash_after_traversal_steps = 0;
  NTadocEngine engine(&corpus, device.get(), nopts);
  auto got = engine.Run(Task::kWordCount);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected);
  EXPECT_TRUE(engine.run_info().init_phase_reused);
  // The durable cursor allowed resuming past the beginning.
  EXPECT_GT(engine.run_info().resumed_at_step, 0u);
}

TEST(NTadocCrashTest, AdversarialEvictionStillRecovers) {
  // CPU caches may write back dirty lines at any time; operation-level
  // recovery must be correct regardless.
  const auto corpus = RandomCorpus(44, 25, 4, 300);
  const AnalyticsOutput expected =
      ReferenceRun(corpus, Task::kWordCount, {});
  for (uint64_t evict_seed = 1; evict_seed <= 4; ++evict_seed) {
    nvm::DeviceOptions dopts;
    dopts.capacity = 256ull << 20;
    dopts.strict_persistence = true;
    dopts.random_evict_probability = 0.02;
    dopts.evict_seed = evict_seed;
    auto device = nvm::NvmDevice::Create(dopts);
    ASSERT_TRUE(device.ok());
    NTadocOptions nopts;
    nopts.persistence = PersistenceMode::kOperation;
    nopts.crash_after_traversal_steps = 5 + evict_seed;
    {
      NTadocEngine engine(&corpus, device->get(), nopts);
      ASSERT_FALSE(engine.Run(Task::kWordCount).ok());
    }
    nopts.crash_after_traversal_steps = 0;
    NTadocEngine engine(&corpus, device->get(), nopts);
    auto got = engine.Run(Task::kWordCount);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, expected) << "evict_seed=" << evict_seed;
  }
}

// ---- Misc engine behaviour ----

TEST(NTadocEngineTest, PersistenceNamesRoundTrip) {
  for (PersistenceMode m : {PersistenceMode::kNone, PersistenceMode::kPhase,
                            PersistenceMode::kOperation}) {
    auto parsed = ParsePersistenceMode(PersistenceModeToString(m));
    ASSERT_TRUE(parsed.ok()) << PersistenceModeToString(m);
    EXPECT_EQ(*parsed, m);
  }
  // The --persistence= flag values.
  EXPECT_EQ(*ParsePersistenceMode("none"), PersistenceMode::kNone);
  EXPECT_EQ(*ParsePersistenceMode("phase"), PersistenceMode::kPhase);
  EXPECT_EQ(*ParsePersistenceMode("operation"), PersistenceMode::kOperation);
  for (const char* bad : {"", "Phase", "op", "operations", "strict"}) {
    const auto parsed = ParsePersistenceMode(bad);
    EXPECT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(NTadocEngineTest, OperationLevelRequiresSummation) {
  const auto corpus = RandomCorpus(51, 10, 1, 50);
  auto device = MakeDevice();
  NTadocOptions nopts;
  nopts.persistence = PersistenceMode::kOperation;
  nopts.enable_summation = false;
  NTadocEngine engine(&corpus, device.get(), nopts);
  auto got = engine.Run(Task::kWordCount);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(NTadocEngineTest, RunInfoPopulated) {
  const auto corpus = RandomCorpus(52, 30, 2, 500);
  auto device = MakeDevice();
  NTadocEngine engine(&corpus, device.get());
  tadoc::RunMetrics m;
  auto got = engine.Run(Task::kWordCount, {}, &m);
  ASSERT_TRUE(got.ok());
  EXPECT_GT(engine.run_info().pool_used_bytes, 0u);
  EXPECT_GT(engine.run_info().traversal_steps, 0u);
  EXPECT_GT(engine.run_info().prune.redundancy_eliminated, 0.0);
  EXPECT_GT(m.TotalSimNs(), 0u);
}

// Tiered placement: with a DRAM tier over the Optane home device the
// run must stay bit-identical to the untiered reference while the tier
// counters the CLI exports (`ntadoc run --stats`) populate — residency
// from initial placement, promotions/epochs once the hot payload warms
// up across repeated runs on one engine (heat persists per session).
TEST(NTadocEngineTest, TierCountersPopulated) {
  const auto corpus = RandomCorpus(57, 30, 3, 500);
  const AnalyticsOutput expected =
      ReferenceRun(corpus, Task::kWordCount, {});

  auto device = MakeDevice();
  NTadocOptions opts;
  auto tiering = std::make_shared<nvm::TierConfig>();
  tiering->tiers = {{nvm::MediumKind::kDram, 1ull << 20}};
  tiering->unit_bytes = 4096;
  tiering->migrate_interval = 8;
  opts.tiering = tiering;
  NTadocEngine engine(&corpus, device.get(), opts);

  auto got = engine.Run(Task::kWordCount);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected);
  const auto& info = engine.run_info();
  const int dram = static_cast<int>(nvm::MediumKind::kDram);
  EXPECT_GT(info.tier_resident_bytes[dram], 0u)
      << "policy placement must put metadata/tables in the DRAM tier";
  // The traversal heats payload units past the tick interval, so the
  // online migrator promotes them into the (roomy) DRAM budget during
  // the run itself.
  EXPECT_GT(info.migration_epochs, 0u);
  EXPECT_GT(info.promotions, 0u);

  // Second run on the warmed session: placement is already ideal (no
  // forced moves) and the result stays bit-identical.
  auto again = engine.Run(Task::kWordCount);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(*again, expected);
  EXPECT_GT(
      engine.run_info().tier_resident_bytes[dram], 0u);
}

TEST(NTadocEngineTest, WriteAmplificationVisibleAtOperationLevel) {
  const auto corpus = RandomCorpus(53, 30, 3, 500);
  auto phase_dev = MakeDevice();
  auto op_dev = MakeDevice();
  NTadocOptions phase_opts;
  phase_opts.persistence = PersistenceMode::kPhase;
  NTadocOptions op_opts;
  op_opts.persistence = PersistenceMode::kOperation;
  NTadocEngine phase_engine(&corpus, phase_dev.get(), phase_opts);
  NTadocEngine op_engine(&corpus, op_dev.get(), op_opts);
  tadoc::RunMetrics pm, om;
  ASSERT_TRUE(phase_engine.Run(Task::kWordCount, {}, &pm).ok());
  ASSERT_TRUE(op_engine.Run(Task::kWordCount, {}, &om).ok());
  EXPECT_GT(op_engine.run_info().redo_logged_bytes, 0u);
  // Operation-level persistence must cost more simulated device time.
  EXPECT_GT(om.TotalSimNs(), pm.TotalSimNs());
}

// Epoch group commit: the stats counters the CLI exports must be live.
// At commit_interval=1 the strict per-step protocol runs and all epoch
// counters stay zero; at commit_interval=8 every counter is exercised
// and the result is still bit-identical to the reference.
TEST(NTadocEngineTest, EpochCommitCountersPopulated) {
  const auto corpus = RandomCorpus(55, 30, 3, 500);
  const AnalyticsOutput expected =
      ReferenceRun(corpus, Task::kWordCount, {});

  auto strict_dev = MakeDevice();
  NTadocOptions strict_opts;
  strict_opts.persistence = PersistenceMode::kOperation;
  strict_opts.commit_interval = 1;
  NTadocEngine strict_engine(&corpus, strict_dev.get(), strict_opts);
  tadoc::RunMetrics sm;
  auto strict_got = strict_engine.Run(Task::kWordCount, {}, &sm);
  ASSERT_TRUE(strict_got.ok()) << strict_got.status();
  EXPECT_EQ(*strict_got, expected);
  EXPECT_EQ(strict_engine.run_info().epoch_commits, 0u);
  EXPECT_EQ(strict_engine.run_info().coalesced_records, 0u);
  EXPECT_EQ(strict_engine.run_info().coalesced_flush_lines, 0u);

  auto epoch_dev = MakeDevice();
  NTadocOptions epoch_opts = strict_opts;
  epoch_opts.commit_interval = 8;
  NTadocEngine epoch_engine(&corpus, epoch_dev.get(), epoch_opts);
  tadoc::RunMetrics em;
  auto epoch_got = epoch_engine.Run(Task::kWordCount, {}, &em);
  ASSERT_TRUE(epoch_got.ok()) << epoch_got.status();
  EXPECT_EQ(*epoch_got, expected);
  const NTadocRunInfo& info = epoch_engine.run_info();
  EXPECT_GT(info.epoch_commits, 0u);
  EXPECT_GT(info.coalesced_records, 0u);
  EXPECT_GT(info.coalesced_flush_lines, 0u);
  EXPECT_EQ(info.batch_init_reuses, 0u);  // single Run, no batch
  // The whole point: grouping commits must be cheaper on the device.
  EXPECT_LT(em.traversal_sim_ns, sm.traversal_sim_ns);
}

// RunBatch shares one pool init across tasks: every task after the
// first reuses the sealed DAG prefix, and each output still matches the
// standalone reference.
TEST(NTadocEngineTest, RunBatchPaysInitOnce) {
  const auto corpus = RandomCorpus(56, 30, 3, 500);
  const std::vector<Task> tasks = {Task::kWordCount, Task::kSort,
                                   Task::kTermVector};
  auto device = MakeDevice();
  NTadocEngine engine(&corpus, device.get());
  std::vector<tadoc::RunMetrics> metrics;
  auto got = engine.RunBatch(tasks, {}, &metrics);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->size(), tasks.size());
  ASSERT_EQ(metrics.size(), tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ((*got)[i], ReferenceRun(corpus, tasks[i], {}))
        << TaskToString(tasks[i]);
  }
  EXPECT_EQ(engine.run_info().batch_init_reuses, tasks.size() - 1);
  // Reused inits must be much cheaper than the first, paid-for init.
  for (size_t i = 1; i < tasks.size(); ++i) {
    EXPECT_LT(metrics[i].init_sim_ns, metrics[0].init_sim_ns / 2)
        << TaskToString(tasks[i]);
  }
}

// RunBatch's one batch-only extension: a sequence task's local n-gram
// lists, laid right after the DAG, are reused by a later n-gram task
// unless a task in between allocated over them.
TEST(NTadocEngineTest, RunBatchReusesGramRegionUntilOverwritten) {
  const auto corpus = RandomCorpus(57, 30, 3, 500);
  auto batch = [&corpus](const std::vector<Task>& tasks) {
    auto device = MakeDevice();
    NTadocEngine engine(&corpus, device.get());
    std::vector<tadoc::RunMetrics> metrics;
    auto got = engine.RunBatch(tasks, {}, &metrics);
    EXPECT_TRUE(got.ok()) << got.status();
    if (got.ok()) {
      for (size_t i = 0; i < tasks.size(); ++i) {
        EXPECT_EQ((*got)[i], ReferenceRun(corpus, tasks[i], {}))
            << TaskToString(tasks[i]);
      }
    }
    EXPECT_EQ(engine.run_info().batch_init_reuses, tasks.size() - 1);
    return metrics;
  };
  const auto without = batch({Task::kWordCount, Task::kRankedInvertedIndex});
  const auto reused =
      batch({Task::kSequenceCount, Task::kRankedInvertedIndex});
  const auto rebuilt = batch({Task::kSequenceCount, Task::kWordCount,
                              Task::kRankedInvertedIndex});
  ASSERT_EQ(without.size(), 2u);
  ASSERT_EQ(reused.size(), 2u);
  ASSERT_EQ(rebuilt.size(), 3u);

  // Reused: the gram region is part of the shared cost, not paid again.
  EXPECT_TRUE(reused[1].init_shared);
  EXPECT_LT(reused[1].init_sim_ns, without[1].init_sim_ns);
  EXPECT_GT(reused[1].shared_init_sim_ns, without[1].shared_init_sim_ns);

  // Rebuilt: word count allocated over the region, so the last task lays
  // its grams again and shares only the DAG and the estimates.
  EXPECT_TRUE(rebuilt[2].init_shared);
  EXPECT_GT(rebuilt[2].init_sim_ns, reused[1].init_sim_ns);
  EXPECT_EQ(rebuilt[2].shared_init_sim_ns, without[1].shared_init_sim_ns);
}

// A fresh init and one that reuses a batch's prefix size the shared
// per-file word table alike, with pruning on and off. Both lay out the
// same pool above the DAG, so equal pool use means equal table capacity.
TEST(NTadocEngineTest, FileTableSameFreshAndReused) {
  for (const uint64_t seed : {58, 59, 60}) {
    const auto corpus = RandomCorpus(seed, 400, 2 + seed % 5, 300);
    for (const bool pruning : {true, false}) {
      NTadocOptions opts;
      opts.enable_pruning = pruning;
      for (const Task task : {Task::kTermVector, Task::kInvertedIndex}) {
        SCOPED_TRACE(std::string(TaskToString(task)) + " seed " +
                     std::to_string(seed) + " pruning " +
                     std::to_string(pruning));
        auto fresh_device = MakeDevice();
        NTadocEngine fresh(&corpus, fresh_device.get(), opts);
        tadoc::RunMetrics fm;
        ASSERT_TRUE(fresh.Run(task, {}, &fm).ok());
        EXPECT_FALSE(fm.init_shared);

        auto batch_device = MakeDevice();
        NTadocEngine batch(&corpus, batch_device.get(), opts);
        std::vector<tadoc::RunMetrics> bm;
        const std::vector<Task> tasks = {Task::kWordCount, task};
        ASSERT_TRUE(batch.RunBatch(tasks, {}, &bm).ok());
        EXPECT_TRUE(bm[1].init_shared);
        EXPECT_EQ(batch.run_info().pool_used_bytes,
                  fresh.run_info().pool_used_bytes);
      }
    }
  }
}

TEST(NTadocEngineTest, PoolTooSmallIsGracefulError) {
  const auto corpus = RandomCorpus(54, 800, 4, 4000);
  auto device = MakeDevice(/*capacity=*/1 << 15);
  NTadocEngine engine(&corpus, device.get());
  auto got = engine.Run(Task::kWordCount);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace ntadoc::core
