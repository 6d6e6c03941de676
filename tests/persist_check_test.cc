// PersistCheck unit tests: each diagnostic class is deliberately
// committed and the exact report asserted; the frameworks and the full
// engine are then required to run diagnostic-free in every persistence
// mode.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/nvm_hash_table.h"
#include "core/nvm_vector.h"
#include "nvm/nvm_device.h"
#include "nvm/nvm_pool.h"
#include "nvm/obj_log.h"
#include "nvm/pmem.h"
#include "nvm/persist_check.h"
#include "reference_impl.h"

namespace ntadoc {
namespace {

using nvm::DeviceOptions;
using nvm::NvmDevice;
using nvm::PersistDiagKind;

std::unique_ptr<NvmDevice> MakeCheckedDevice(uint64_t capacity = 1 << 20) {
  DeviceOptions opts;
  opts.capacity = capacity;
  opts.strict_persistence = true;
  opts.persist_check = true;
  auto dev = NvmDevice::Create(opts);
  EXPECT_TRUE(dev.ok());
  return std::move(dev).value();
}

const nvm::PersistCheckReport& Report(const NvmDevice& dev) {
  return dev.persist_check()->report();
}

TEST(PersistCheckTest, CleanProtocolProducesNoDiagnostics) {
  auto dev = MakeCheckedDevice();
  const uint64_t v = 42;
  dev->Write(128, v);
  dev->FlushRange(128, sizeof(v));
  dev->Drain();
  dev->AssertPersisted(128, sizeof(v));
  EXPECT_TRUE(Report(*dev).empty()) << Report(*dev).ToString();
}

TEST(PersistCheckTest, MissingFlushDetected) {
  auto dev = MakeCheckedDevice();
  const uint64_t v = 42;
  dev->Write(128, v);
  dev->AssertPersisted(128, sizeof(v));  // never flushed
  ASSERT_EQ(Report(*dev).total(), 1u);
  EXPECT_EQ(Report(*dev).count(PersistDiagKind::kMissingFlush), 1u);
  const auto& d = Report(*dev).diagnostics().front();
  EXPECT_EQ(d.kind, PersistDiagKind::kMissingFlush);
  EXPECT_EQ(d.offset, 128u);  // line-granular range containing the store
  EXPECT_EQ(d.len, 64u);
}

TEST(PersistCheckTest, FlushWithoutDrainOnAssert) {
  auto dev = MakeCheckedDevice();
  const uint64_t v = 42;
  dev->Write(128, v);
  dev->FlushRange(128, sizeof(v));
  dev->AssertPersisted(128, sizeof(v));  // flushed but no fence yet
  ASSERT_EQ(Report(*dev).total(), 1u);
  EXPECT_EQ(Report(*dev).count(PersistDiagKind::kFlushWithoutDrain), 1u);
}

TEST(PersistCheckTest, FlushWithoutDrainOnRead) {
  auto dev = MakeCheckedDevice();
  const uint64_t v = 42;
  dev->Write(128, v);
  dev->FlushRange(128, sizeof(v));
  (void)dev->Read<uint64_t>(128);  // read between clwb and fence
  ASSERT_EQ(Report(*dev).total(), 1u);
  EXPECT_EQ(Report(*dev).count(PersistDiagKind::kFlushWithoutDrain), 1u);
  dev->Drain();
  (void)dev->Read<uint64_t>(128);  // after the fence: clean
  EXPECT_EQ(Report(*dev).total(), 1u);
}

TEST(PersistCheckTest, RedundantFlushDetected) {
  auto dev = MakeCheckedDevice();
  const uint64_t v = 42;
  dev->Write(128, v);
  dev->FlushRange(128, sizeof(v));
  dev->Drain();
  dev->FlushRange(128, sizeof(v));  // line already clean
  ASSERT_EQ(Report(*dev).total(), 1u);
  EXPECT_EQ(Report(*dev).count(PersistDiagKind::kRedundantFlush), 1u);
  const auto& d = Report(*dev).diagnostics().front();
  EXPECT_EQ(d.offset, 128u);
  EXPECT_EQ(d.len, sizeof(v));
}

TEST(PersistCheckTest, FlushOfNeverWrittenRangeIsRedundant) {
  auto dev = MakeCheckedDevice();
  dev->FlushRange(4096, 256);
  EXPECT_EQ(Report(*dev).count(PersistDiagKind::kRedundantFlush), 1u);
}

TEST(PersistCheckTest, BulkFlushCoveringOneDirtyLineIsNotRedundant) {
  // Phase-level persistence flushes whole regions; that is legitimate as
  // long as the flush does some persistence work.
  auto dev = MakeCheckedDevice();
  const uint64_t v = 7;
  dev->Write(4096, v);
  dev->FlushRange(0, 8192);
  dev->Drain();
  EXPECT_TRUE(Report(*dev).empty()) << Report(*dev).ToString();
}

TEST(PersistCheckTest, StoreAfterFlushBeforeDrainDetected) {
  auto dev = MakeCheckedDevice();
  const uint64_t v = 42;
  dev->Write(128, v);
  dev->FlushRange(128, sizeof(v));
  dev->Write(136, v);  // same 64 B line, before the fence
  ASSERT_EQ(Report(*dev).total(), 1u);
  EXPECT_EQ(Report(*dev).count(PersistDiagKind::kStoreAfterFlushBeforeDrain),
            1u);
  // The line is dirty again: a correct flush+drain makes it clean.
  dev->FlushRange(128, 64);
  dev->Drain();
  dev->AssertPersisted(128, 64);
  EXPECT_EQ(Report(*dev).total(), 1u);
}

TEST(PersistCheckTest, DiagnosticsCarrySimulatedTimestamps) {
  auto dev = MakeCheckedDevice();
  const uint64_t v = 1;
  dev->Write(0, v);  // advances the simulated clock
  dev->Write(128, v);
  dev->AssertPersisted(128, sizeof(v));
  ASSERT_EQ(Report(*dev).total(), 1u);
  EXPECT_GT(Report(*dev).diagnostics().front().sim_time_ns, 0u);
}

TEST(PersistCheckTest, ContiguousDirtyLinesCoalesceIntoOneDiagnostic) {
  auto dev = MakeCheckedDevice();
  std::vector<uint8_t> buf(4096, 0xAB);
  dev->WriteBytes(8192, buf.data(), buf.size());
  dev->AssertPersisted(8192, buf.size());
  ASSERT_EQ(Report(*dev).total(), 1u);  // one range, not 64 lines
  const auto& d = Report(*dev).diagnostics().front();
  EXPECT_EQ(d.offset, 8192u);
  EXPECT_EQ(d.len, 4096u);
}

TEST(PersistCheckTest, CrashResetsInFlightStateButKeepsReport) {
  auto dev = MakeCheckedDevice();
  const uint64_t v = 42;
  dev->Write(128, v);
  dev->AssertPersisted(128, sizeof(v));  // 1 diagnostic
  dev->SimulateCrash();
  // Post-crash the media holds exactly the persisted image: nothing is
  // in flight, so durability claims hold trivially.
  dev->AssertPersisted(0, 1 << 20);
  EXPECT_EQ(Report(*dev).total(), 1u);
}

TEST(PersistCheckTest, ReportToStringAndClear) {
  auto dev = MakeCheckedDevice();
  const uint64_t v = 42;
  dev->Write(128, v);
  dev->AssertPersisted(128, sizeof(v));
  auto* check = dev->mutable_persist_check();
  EXPECT_NE(check->report().ToString().find("MissingFlush"),
            std::string::npos);
  check->mutable_report().Clear();
  EXPECT_TRUE(check->report().empty());
  EXPECT_NE(check->report().ToString().find("clean"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Framework-level contracts: each persistence substrate must be
// diagnostic-free under its intended protocol.
// ---------------------------------------------------------------------------

TEST(PersistCheckFrameworkTest, PmemHelpersAreClean) {
  auto dev = MakeCheckedDevice();
  std::vector<uint8_t> buf(300, 0x5A);
  nvm::PmemMemcpyPersist(*dev, 1024, buf.data(), buf.size());
  dev->WriteBytes(8192, buf.data(), buf.size());
  nvm::PmemPersist(*dev, 8192, buf.size());
  EXPECT_TRUE(Report(*dev).empty()) << Report(*dev).ToString();
}

TEST(PersistCheckFrameworkTest, PhaseMarkerIsClean) {
  auto dev = MakeCheckedDevice();
  nvm::PhaseMarker marker(dev.get(), 0);
  marker.Format();
  marker.CommitPhase(1);
  marker.CommitPhase(2);
  EXPECT_EQ(marker.LastCommittedPhase(), 2u);
  EXPECT_TRUE(Report(*dev).empty()) << Report(*dev).ToString();
}

TEST(PersistCheckFrameworkTest, RedoLogCommitApplyRecoverIsClean) {
  auto dev = MakeCheckedDevice();
  auto log = nvm::RedoLog::Create(dev.get(), 128, 64 << 10);
  ASSERT_TRUE(log.ok());
  const uint64_t home = 128 + (64 << 10);
  for (int txn = 0; txn < 3; ++txn) {
    log->Begin();
    // Two entries targeting the SAME line: the replay path must not
    // flush between them.
    log->StageValue<uint64_t>(home, txn);
    log->StageValue<uint64_t>(home + 8, txn + 100);
    ASSERT_TRUE(log->Commit().ok());
  }
  // Restart: replay the committed prefix.
  auto reopened = nvm::RedoLog::Open(dev.get(), 128);
  ASSERT_TRUE(reopened.ok());
  auto replayed = reopened->Recover();
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 6u);
  EXPECT_EQ(dev->Read<uint64_t>(home), 2u);
  EXPECT_EQ(dev->Read<uint64_t>(home + 8), 102u);
  EXPECT_TRUE(Report(*dev).empty()) << Report(*dev).ToString();
}

TEST(PersistCheckFrameworkTest, NvmPoolPersistIsClean) {
  auto dev = MakeCheckedDevice();
  auto pool = nvm::NvmPool::Create(dev.get(), 0, 256 << 10);
  ASSERT_TRUE(pool.ok());
  auto off = pool->Alloc(1024, 64);
  ASSERT_TRUE(off.ok());
  std::vector<uint8_t> buf(1024, 0x77);
  dev->WriteBytes(*off, buf.data(), buf.size());
  pool->PersistAll();
  EXPECT_TRUE(Report(*dev).empty()) << Report(*dev).ToString();
}

TEST(PersistCheckFrameworkTest, ContainersPersistClean) {
  auto dev = MakeCheckedDevice();
  auto pool = nvm::NvmPool::Create(dev.get(), 0, 512 << 10);
  ASSERT_TRUE(pool.ok());
  auto vec = core::NvmVector<uint64_t>::Create(&*pool, 100);
  ASSERT_TRUE(vec.ok());
  vec->Resize(100);
  for (uint64_t i = 0; i < 100; ++i) vec->Set(i, i * 3);
  vec->Persist();
  struct U32Hash {
    uint64_t operator()(uint32_t k) const { return Mix64(k); }
  };
  auto table = core::NvmHashTable<uint32_t, uint64_t, U32Hash>::Create(
      &*pool, 64);
  ASSERT_TRUE(table.ok());
  for (uint32_t k = 1; k <= 40; ++k) {
    ASSERT_TRUE(table->AddDelta(k, k).ok());
  }
  table->Persist();
  table->Clear();
  table->PersistStatus();
  EXPECT_TRUE(Report(*dev).empty()) << Report(*dev).ToString();
}

// ---------------------------------------------------------------------------
// Regression: the full engine must be diagnostic-free end to end in all
// three persistence modes (this is what caught the ordering bugs fixed in
// this change: redundant metadata flushes at the operation-mode reset and
// a descriptor-array read between clwb and fence in the phase flush).
// ---------------------------------------------------------------------------

class PersistCheckEngineTest
    : public ::testing::TestWithParam<core::PersistenceMode> {};

TEST_P(PersistCheckEngineTest, EngineRunsWithZeroDiagnostics) {
  const auto corpus = tests::RandomCorpus(912, 12, 4, 150);
  for (const auto strategy : {tadoc::TraversalStrategy::kTopDown,
                              tadoc::TraversalStrategy::kBottomUp}) {
    for (const auto task : {tadoc::Task::kWordCount, tadoc::Task::kTermVector,
                            tadoc::Task::kSequenceCount}) {
      DeviceOptions dopts;
      dopts.capacity = 64ull << 20;
      dopts.strict_persistence = true;
      dopts.persist_check = true;
      auto device = NvmDevice::Create(dopts);
      ASSERT_TRUE(device.ok());
      core::NTadocOptions opts;
      opts.persistence = GetParam();
      opts.traversal = strategy;
      core::NTadocEngine engine(&corpus, device->get(), opts);
      auto got = engine.Run(task);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, tests::ReferenceRun(corpus, task, {}));
      EXPECT_TRUE(Report(**device).empty())
          << "persistence=" << core::PersistenceModeToString(GetParam())
          << " strategy=" << tadoc::TraversalStrategyToString(strategy)
          << " task=" << tadoc::TaskToString(task) << "\n"
          << Report(**device).ToString();
    }
  }
}

TEST_P(PersistCheckEngineTest, MidRunRepairRunsWithZeroDiagnostics) {
  // A payload block goes unreadable at the 500th payload read, mid-run.
  // Scoped repair re-derives and remaps it (the volatile mode restarts
  // from the container instead): every line it stores is flushed once,
  // after its last store, and nothing is read back or stored again
  // between a flush and its fence.
  const auto corpus = tests::RandomCorpus(909, 20, 4, 220);
  const auto expected =
      tests::ReferenceRun(corpus, tadoc::Task::kWordCount, {});
  const bool logged = GetParam() == core::PersistenceMode::kOperation;
  for (const uint32_t interval : {1u, 8u}) {
    if (interval > 1 && !logged) continue;
    core::NTadocOptions opts;
    opts.persistence = GetParam();
    opts.traversal = tadoc::TraversalStrategy::kTopDown;
    opts.commit_interval = interval;
    DeviceOptions dopts;
    dopts.capacity = 64ull << 20;
    dopts.strict_persistence = true;

    // Scout run: the layout is deterministic, so a crashed run shows
    // where the payload lands.
    nvm::FaultSpec fault;
    {
      auto scout = NvmDevice::Create(dopts);
      ASSERT_TRUE(scout.ok());
      core::NTadocOptions crashing = opts;
      crashing.crash_after_traversal_steps = 2;
      core::NTadocEngine engine(&corpus, scout->get(), crashing);
      ASSERT_FALSE(engine.Run(tadoc::Task::kWordCount).ok());
      std::tie(fault.range_begin, fault.range_end) = engine.payload_region();
    }
    ASSERT_LT(fault.range_begin, fault.range_end);
    fault.effect = nvm::FaultEffect::kUnreadableBlock;
    fault.trigger = nvm::FaultTrigger::kNthRead;
    fault.n = 500;
    dopts.persist_check = true;
    dopts.fault_plan.faults.push_back(fault);
    auto device = NvmDevice::Create(dopts);
    ASSERT_TRUE(device.ok());

    core::NTadocEngine engine(&corpus, device->get(), opts);
    auto got = engine.Run(tadoc::Task::kWordCount);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, expected);
    if (GetParam() != core::PersistenceMode::kNone) {
      EXPECT_GT(engine.run_info().blocks_remapped, 0u);
    }
    EXPECT_TRUE(Report(**device).empty())
        << "persistence=" << core::PersistenceModeToString(GetParam())
        << " commit_interval=" << interval << "\n"
        << Report(**device).ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, PersistCheckEngineTest,
                         ::testing::Values(core::PersistenceMode::kNone,
                                           core::PersistenceMode::kPhase,
                                           core::PersistenceMode::kOperation));

TEST(PersistCheckEngineCheckpointTest, GroupCheckpointsAreClean) {
  // A tiny redo log forces repeated group checkpoints (flush applied
  // home lines, truncate). The checkpoint must flush exactly the lines
  // the applied entries dirtied: a wholesale re-flush of traversal
  // state here used to clwb mostly clean lines.
  const auto corpus = tests::RandomCorpus(912, 12, 4, 150);
  DeviceOptions dopts;
  dopts.capacity = 64ull << 20;
  dopts.strict_persistence = true;
  dopts.persist_check = true;
  auto device = NvmDevice::Create(dopts);
  ASSERT_TRUE(device.ok());
  core::NTadocOptions opts;
  opts.persistence = core::PersistenceMode::kOperation;
  opts.redo_log_bytes = 4096;
  core::NTadocEngine engine(&corpus, device->get(), opts);
  auto got = engine.Run(tadoc::Task::kWordCount);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, tests::ReferenceRun(corpus, tadoc::Task::kWordCount, {}));
  EXPECT_GT(engine.run_info().group_checkpoints, 0u)
      << "log never filled; the checkpoint path was not exercised";
  EXPECT_TRUE(Report(**device).empty()) << Report(**device).ToString();
}

}  // namespace
}  // namespace ntadoc
