// Unit tests for the NVM emulation substrate: profiles, memory model,
// device persistence semantics, pool allocator, redo log, phase marker.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <vector>

#include "nvm/device_profile.h"
#include "nvm/memory_model.h"
#include "nvm/nvm_device.h"
#include "nvm/nvm_pool.h"
#include "nvm/obj_log.h"
#include "nvm/pmem.h"
#include "util/logging.h"

namespace ntadoc::nvm {
namespace {

std::unique_ptr<NvmDevice> MakeDevice(DeviceOptions opts = {}) {
  auto dev = NvmDevice::Create(opts);
  NTADOC_CHECK(dev.ok());
  return std::move(dev).value();
}

TEST(DeviceProfileTest, ShapesAreSane) {
  const auto dram = DramProfile();
  const auto optane = OptaneProfile();
  const auto ssd = SsdProfile();
  const auto hdd = HddProfile();
  EXPECT_LT(dram.read_miss_ns, optane.read_miss_ns);
  EXPECT_LT(optane.read_miss_ns, ssd.read_miss_ns);
  EXPECT_LT(ssd.read_miss_ns, hdd.read_miss_ns + hdd.seek_ns);
  // NVM write asymmetry.
  EXPECT_GT(optane.write_miss_ns, optane.read_miss_ns);
  // Media granularities.
  EXPECT_EQ(dram.block_size, 64u);
  EXPECT_EQ(optane.block_size, 256u);
  EXPECT_EQ(ssd.block_size, 4096u);
  EXPECT_FALSE(dram.persistent);
  EXPECT_TRUE(optane.persistent);
}

TEST(MemoryModelTest, HitsAfterMisses) {
  auto clock = MakeSimClock();
  MemoryModel model(OptaneProfile(), clock);
  model.TouchRead(0, 256);
  EXPECT_EQ(model.stats().read_misses, 1u);
  model.TouchRead(0, 256);
  EXPECT_EQ(model.stats().read_hits, 1u);
  EXPECT_EQ(clock->NowNanos(), OptaneProfile().read_miss_ns +
                                   OptaneProfile().buffer_hit_ns);
}

TEST(MemoryModelTest, AccessSpanningBlocksTouchesEach) {
  auto clock = MakeSimClock();
  MemoryModel model(OptaneProfile(), clock);
  model.TouchRead(200, 200);  // crosses the 256-byte boundary
  EXPECT_EQ(model.stats().read_misses, 2u);
}

TEST(MemoryModelTest, HddChargesSeeksOnNonSequentialMisses) {
  auto clock = MakeSimClock();
  MemoryModel model(HddProfile(/*cache_bytes=*/4096), clock);
  model.TouchRead(0, 4096);
  model.TouchRead(4096, 4096);  // sequential: no seek
  EXPECT_EQ(model.stats().seeks, 0u);
  model.TouchRead(40 << 20, 4096);  // far away: seek
  EXPECT_EQ(model.stats().seeks, 1u);
}

TEST(MemoryModelTest, BufferEvictionWithTinyBuffer) {
  auto profile = OptaneProfile();
  profile.buffer_blocks = 4;
  auto clock = MakeSimClock();
  MemoryModel model(profile, clock);
  // Touch far more blocks than fit, then re-touch the first: must miss.
  for (uint64_t b = 0; b < 64; ++b) model.TouchRead(b * 256, 1);
  const uint64_t misses = model.stats().read_misses;
  model.TouchRead(0, 1);
  EXPECT_EQ(model.stats().read_misses, misses + 1);
}

TEST(NvmDeviceTest, ReadBackWrites) {
  auto dev = MakeDevice();
  dev->Write<uint64_t>(128, 0xDEADBEEFull);
  EXPECT_EQ(dev->Read<uint64_t>(128), 0xDEADBEEFull);
  const char buf[] = "hello nvm";
  dev->WriteBytes(4096, buf, sizeof(buf));
  char out[sizeof(buf)];
  dev->ReadBytes(4096, out, sizeof(buf));
  EXPECT_STREQ(out, "hello nvm");
}

TEST(NvmDeviceTest, CrashDiscardsUnflushedWrites) {
  DeviceOptions opts;
  opts.strict_persistence = true;
  auto dev = MakeDevice(opts);
  dev->Write<uint32_t>(0, 111);
  dev->FlushRange(0, 4);
  dev->Drain();
  dev->Write<uint32_t>(0, 222);    // unflushed overwrite
  dev->Write<uint32_t>(1024, 333);  // unflushed fresh write
  EXPECT_GT(dev->DirtyLineCount(), 0u);
  dev->SimulateCrash();
  EXPECT_EQ(dev->Read<uint32_t>(0), 111u);  // rolled back to flushed value
  EXPECT_EQ(dev->Read<uint32_t>(1024), 0u);
  EXPECT_EQ(dev->DirtyLineCount(), 0u);
}

TEST(NvmDeviceTest, FlushMakesWritesDurable) {
  DeviceOptions opts;
  opts.strict_persistence = true;
  auto dev = MakeDevice(opts);
  dev->Write<uint32_t>(64, 7);
  dev->FlushRange(64, 4);
  dev->SimulateCrash();
  EXPECT_EQ(dev->Read<uint32_t>(64), 7u);
}

TEST(NvmDeviceTest, RelaxedModeCrashKeepsData) {
  auto dev = MakeDevice();  // strict off: writes durable immediately
  dev->Write<uint32_t>(0, 5);
  dev->SimulateCrash();
  EXPECT_EQ(dev->Read<uint32_t>(0), 5u);
}

TEST(NvmDeviceTest, SaveAndLoadImage) {
  DeviceOptions opts;
  opts.capacity = 1 << 20;
  opts.strict_persistence = true;
  auto dev = MakeDevice(opts);
  dev->Write<uint64_t>(0, 42);
  dev->FlushRange(0, 8);
  dev->Write<uint64_t>(8, 43);  // unflushed: must NOT survive the image
  ASSERT_TRUE(dev->SaveImage("/tmp/ntadoc_test.img").ok());
  auto dev2 = MakeDevice(opts);
  ASSERT_TRUE(dev2->LoadImage("/tmp/ntadoc_test.img").ok());
  EXPECT_EQ(dev2->Read<uint64_t>(0), 42u);
  EXPECT_EQ(dev2->Read<uint64_t>(8), 0u);

  // An image shorter than the device leaves no stale bytes past its end.
  DeviceOptions small = opts;
  small.capacity = 64 << 10;
  auto short_dev = MakeDevice(small);
  short_dev->Write<uint64_t>(0, 44);
  short_dev->FlushRange(0, 8);
  ASSERT_TRUE(short_dev->SaveImage("/tmp/ntadoc_test_short.img").ok());
  dev2->Write<uint64_t>(512 << 10, 45);
  ASSERT_TRUE(dev2->LoadImage("/tmp/ntadoc_test_short.img").ok());
  EXPECT_EQ(dev2->Read<uint64_t>(0), 44u);
  EXPECT_EQ(dev2->Read<uint64_t>(512 << 10), 0u);
}

TEST(NvmDeviceTest, InvalidOptionsRejected) {
  DeviceOptions opts;
  opts.capacity = 0;
  EXPECT_FALSE(NvmDevice::Create(opts).ok());
  // More than the host can map: a clean error, not an abort.
  opts.capacity = 1ull << 62;
  EXPECT_EQ(NvmDevice::Create(opts).status().code(),
            StatusCode::kResourceExhausted);
}

// Counts the resident host pages of the page-aligned [base, base+bytes).
uint64_t ResidentPages(const uint8_t* base, uint64_t bytes) {
  const uint64_t page = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec((bytes + page - 1) / page);
  EXPECT_EQ(mincore(const_cast<uint8_t*>(base), bytes, vec.data()), 0);
  uint64_t resident = 0;
  for (const unsigned char v : vec) resident += v & 1;
  return resident;
}

// Counts the resident host pages of the device's own mapping.
uint64_t ResidentPages(const NvmDevice& dev) {
  return ResidentPages(dev.raw_for_testing(), dev.capacity());
}

TEST(NvmDeviceTest, HostBacksOnlyTouchedPages) {
  DeviceOptions opts;
  opts.capacity = 256ull << 20;
  auto dev = MakeDevice(opts);
  EXPECT_EQ(ResidentPages(*dev), 0u);
  dev->Write<uint64_t>(1 << 20, 7);
  EXPECT_EQ(ResidentPages(*dev), 1u);

  dev->FillBytes(0, dev->capacity(), 0xAB);
  const std::vector<uint8_t> image(4096, 0xCD);
  dev->LoadSnapshotRegion(image, 100 << 20);
  // Counted before any read-back: reading a released page maps the
  // host's shared zero page, which mincore reports as resident.
  EXPECT_LE(ResidentPages(*dev), 2u);
  EXPECT_EQ(dev->Read<uint8_t>(0), 0u);
  EXPECT_EQ(dev->Read<uint8_t>((100 << 20) + 4095), 0xCDu);
  EXPECT_EQ(dev->Read<uint8_t>(dev->capacity() - 1), 0u);
}

// Reads one byte past the device end the way a buggy caller would.
uint8_t ReadPastEnd(const NvmDevice& dev) {
  return *static_cast<const volatile uint8_t*>(dev.raw_for_testing() +
                                               dev.capacity());
}

TEST(NvmDeviceDeathTest, OverrunPastCapacityFaults) {
  DeviceOptions opts;
  opts.capacity = 1 << 20;  // a page multiple: the guard page catches it
  auto dev = MakeDevice(opts);
  EXPECT_DEATH(ReadPastEnd(*dev), "");
#ifdef __SANITIZE_ADDRESS__
  // Inside the last data page, only the poisoned slack catches it.
  opts.capacity = (1 << 20) + 100;
  auto ragged = MakeDevice(opts);
  EXPECT_DEATH(ReadPastEnd(*ragged), "");
#endif
}

// Sealing hands the device's persisted state over as the image: on a
// strict device the unflushed stores roll back exactly as
// PersistedSnapshot() rolls them back; on a relaxed one every store is
// in it.
TEST(SealedImageTest, BytesEqualPersistedSnapshot) {
  for (const bool strict : {true, false}) {
    SCOPED_TRACE(strict ? "strict" : "relaxed");
    DeviceOptions opts;
    opts.capacity = (1 << 20) + 100;  // ragged: not a page multiple
    opts.strict_persistence = strict;
    auto dev = MakeDevice(opts);
    dev->Write<uint64_t>(0, 1);
    dev->FlushRange(0, 8);
    dev->Drain();
    dev->Write<uint64_t>(0, 2);
    dev->FillBytes(4000, 200, 0xEE);  // straddles a page edge
    dev->Write<uint64_t>(dev->capacity() - 8, 3);  // last line is partial
    EXPECT_EQ(dev->DirtyLineCount(), strict ? 6u : 0u);
    const std::vector<uint8_t> persisted = dev->PersistedSnapshot();
    EXPECT_EQ(persisted[0], strict ? 1 : 2);

    auto image = NvmDevice::Seal(std::move(dev));
    ASSERT_TRUE(image.ok()) << image.status();
    ASSERT_EQ((*image)->size(), persisted.size());
    EXPECT_EQ(std::memcmp((*image)->data(), persisted.data(),
                          persisted.size()),
              0);
  }
}

// Sealing copies nothing: the image is the device's own lazily zeroed
// mapping, so only the pages the run wrote are backed, where a dense copy
// of the 64 MiB would back all 16,384.
TEST(SealedImageTest, ImageBacksOnlyWrittenPages) {
  auto dev = MakeDevice();  // 64 MiB
  const uint64_t page = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  constexpr uint64_t kWritten = 8;
  for (uint64_t k = 0; k < kWritten; ++k) {
    dev->Write<uint64_t>(k * 1000 * page + 64, k + 1);
  }
  auto image = NvmDevice::Seal(std::move(dev));
  ASSERT_TRUE(image.ok()) << image.status();
  // Counted before anything reads the image (see HostBacksOnlyTouchedPages).
  EXPECT_LE(ResidentPages((*image)->data(), (*image)->size()), kWritten);
  uint64_t last = 0;
  std::memcpy(&last, (*image)->data() + (kWritten - 1) * 1000 * page + 64,
              sizeof(last));
  EXPECT_EQ(last, kWritten);
}

// Writes one byte through the image the way a buggy caller would.
void WriteThrough(const SealedImage& image) {
  *static_cast<volatile uint8_t*>(const_cast<uint8_t*>(image.data())) = 1;
}

TEST(NvmDeviceDeathTest, SealedImageIsReadOnly) {
  auto image = NvmDevice::Seal(MakeDevice());
  ASSERT_TRUE(image.ok()) << image.status();
  EXPECT_DEATH(WriteThrough(**image), "");
}

TEST(NvmPoolTest, AllocAlignmentAndExhaustion) {
  auto dev = MakeDevice();
  auto pool = NvmPool::Create(dev.get(), 0, 4096);
  ASSERT_TRUE(pool.ok());
  auto a = pool->Alloc(10, 8);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a % 8, 0u);
  auto b = pool->Alloc(100, 64);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b % 64, 0u);
  EXPECT_GT(*b, *a);
  auto too_big = pool->Alloc(1 << 20);
  EXPECT_EQ(too_big.status().code(), StatusCode::kResourceExhausted);
}

TEST(NvmPoolTest, PersistAndReopen) {
  auto dev = MakeDevice();
  uint64_t top;
  {
    auto pool = NvmPool::Create(dev.get(), 4096, 64 * 1024);
    ASSERT_TRUE(pool.ok());
    ASSERT_TRUE(pool->Alloc(1000).ok());
    pool->PersistHeader();
    top = pool->top();
  }
  auto reopened = NvmPool::Open(dev.get(), 4096);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->top(), top);
  EXPECT_EQ(reopened->size(), 64u * 1024u);
}

TEST(NvmPoolTest, OpenRejectsCorruptHeader) {
  auto dev = MakeDevice();
  auto pool = NvmPool::Create(dev.get(), 0, 4096);
  ASSERT_TRUE(pool.ok());
  dev->Write<uint64_t>(0, 0x1234);  // clobber the magic
  EXPECT_EQ(NvmPool::Open(dev.get(), 0).status().code(),
            StatusCode::kDataLoss);
}

TEST(RedoLogTest, CommitAppliesWrites) {
  auto dev = MakeDevice();
  auto log = RedoLog::Create(dev.get(), 0, 64 * 1024);
  ASSERT_TRUE(log.ok());
  log->Begin();
  log->StageValue<uint64_t>(1 << 20, 99);
  log->StageValue<uint32_t>(2 << 20, 7);
  ASSERT_TRUE(log->Commit().ok());
  EXPECT_EQ(dev->Read<uint64_t>(1 << 20), 99u);
  EXPECT_EQ(dev->Read<uint32_t>(2 << 20), 7u);
  EXPECT_EQ(log->committed_txns(), 1u);
  EXPECT_GT(log->logged_payload_bytes(), 0u);
}

TEST(RedoLogTest, AbortDiscardsStagedWrites) {
  auto dev = MakeDevice();
  auto log = RedoLog::Create(dev.get(), 0, 64 * 1024);
  ASSERT_TRUE(log.ok());
  log->Begin();
  log->StageValue<uint64_t>(1 << 20, 99);
  log->Abort();
  EXPECT_EQ(dev->Read<uint64_t>(1 << 20), 0u);
}

TEST(RedoLogTest, RecoveryReplaysCommittedPrefixAfterCrash) {
  DeviceOptions opts;
  opts.strict_persistence = true;
  auto dev = MakeDevice(opts);
  auto log = RedoLog::Create(dev.get(), 0, 64 * 1024);
  ASSERT_TRUE(log.ok());
  // Two committed txns to the same location (absolute values).
  log->Begin();
  log->StageValue<uint64_t>(1 << 20, 10);
  ASSERT_TRUE(log->Commit().ok());
  log->Begin();
  log->StageValue<uint64_t>(1 << 20, 20);
  ASSERT_TRUE(log->Commit().ok());
  // Home writes are applied but NOT flushed: the crash discards them.
  dev->SimulateCrash();
  EXPECT_EQ(dev->Read<uint64_t>(1 << 20), 0u);
  auto reopened = RedoLog::Open(dev.get(), 0);
  ASSERT_TRUE(reopened.ok());
  auto replayed = reopened->Recover();
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 2u);
  // Replay in order converges to the newest committed value.
  EXPECT_EQ(dev->Read<uint64_t>(1 << 20), 20u);
}

TEST(RedoLogTest, UncommittedTailDiscarded) {
  DeviceOptions opts;
  opts.strict_persistence = true;
  auto dev = MakeDevice(opts);
  auto log = RedoLog::Create(dev.get(), 0, 64 * 1024);
  ASSERT_TRUE(log.ok());
  log->Begin();
  log->StageValue<uint64_t>(1 << 20, 55);
  // No commit; crash.
  dev->SimulateCrash();
  auto reopened = RedoLog::Open(dev.get(), 0);
  ASSERT_TRUE(reopened.ok());
  auto replayed = reopened->Recover();
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 0u);
  EXPECT_EQ(dev->Read<uint64_t>(1 << 20), 0u);
}

TEST(RedoLogTest, FullLogRequiresCheckpoint) {
  auto dev = MakeDevice();
  auto log = RedoLog::Create(dev.get(), 0, 1024);  // tiny log
  ASSERT_TRUE(log.ok());
  std::vector<uint8_t> blob(384, 0xAB);
  log->Begin();
  log->Stage(1 << 20, blob.data(), blob.size());
  ASSERT_TRUE(log->Commit().ok());
  log->Begin();
  log->Stage(2 << 20, blob.data(), blob.size());
  ASSERT_TRUE(log->Commit().ok());
  log->Begin();
  log->Stage(3 << 20, blob.data(), blob.size());
  // Third large txn does not fit: caller must checkpoint + truncate.
  Status full = log->Commit();
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  log->Truncate();
  EXPECT_TRUE(log->Commit().ok());
  EXPECT_EQ(dev->Read<uint8_t>(3 << 20), 0xABu);
}

TEST(RedoLogTest, OversizedTransactionRejected) {
  auto dev = MakeDevice();
  auto log = RedoLog::Create(dev.get(), 0, 1024);
  ASSERT_TRUE(log.ok());
  std::vector<uint8_t> blob(4096, 1);
  log->Begin();
  log->Stage(1 << 20, blob.data(), blob.size());
  EXPECT_EQ(log->Commit().code(), StatusCode::kInvalidArgument);
}

TEST(PhaseMarkerTest, CommitAndReadBack) {
  auto dev = MakeDevice();
  PhaseMarker marker(dev.get(), 0);
  EXPECT_EQ(marker.LastCommittedPhase(), 0u);  // unformatted reads as 0
  marker.Format();
  EXPECT_EQ(marker.LastCommittedPhase(), 0u);
  marker.CommitPhase(1);
  EXPECT_EQ(marker.LastCommittedPhase(), 1u);
  marker.CommitPhase(2);
  EXPECT_EQ(marker.LastCommittedPhase(), 2u);
}

TEST(PhaseMarkerTest, TornMarkerReadsAsZero) {
  DeviceOptions opts;
  opts.strict_persistence = true;
  auto dev = MakeDevice(opts);
  PhaseMarker marker(dev.get(), 0);
  marker.CommitPhase(3);
  // Corrupt one byte of the (only) record; no intact slot remains.
  dev->Write<uint8_t>(4, 0xFF);
  EXPECT_EQ(marker.LastCommittedPhase(), 0u);
}

TEST(PhaseMarkerTest, TornCommitFallsBackToPreviousPhase) {
  auto dev = MakeDevice();
  PhaseMarker marker(dev.get(), 0);
  marker.Format();
  marker.CommitPhase(1);
  marker.CommitPhase(2);
  // Commits alternate slots, so exactly one of the two 64 B slots holds
  // phase 2. Tear it: recovery must fall back to the intact phase-1 slot
  // instead of restarting from scratch.
  ASSERT_EQ(marker.LastCommittedPhase(), 2u);
  for (uint64_t slot_off : {uint64_t{0}, PhaseMarker::kSlotSize}) {
    const uint64_t before = marker.LastCommittedPhase();
    const uint8_t byte = dev->Read<uint8_t>(slot_off + 8);
    dev->Write<uint8_t>(slot_off + 8, byte ^ 0xFF);
    if (marker.LastCommittedPhase() == 1u) {
      EXPECT_EQ(before, 2u);
      return;  // tore the newest slot; fallback observed
    }
    dev->Write<uint8_t>(slot_off + 8, byte);  // tore the old slot; undo
  }
  FAIL() << "neither slot held the newest record";
}

TEST(PhaseMarkerTest, CommitsAlternateBetweenSlots) {
  auto dev = MakeDevice();
  PhaseMarker marker(dev.get(), 0);
  marker.Format();
  marker.CommitPhase(1);
  std::vector<uint8_t> before(PhaseMarker::kRegionSize);
  dev->ReadBytes(0, before.data(), before.size());
  marker.CommitPhase(2);
  std::vector<uint8_t> after(PhaseMarker::kRegionSize);
  dev->ReadBytes(0, after.data(), after.size());
  // A commit must overwrite exactly one slot — the other keeps the
  // previous record so a torn write can never lose both.
  int changed = 0;
  for (int slot = 0; slot < 2; ++slot) {
    const size_t off = slot * PhaseMarker::kSlotSize;
    if (!std::equal(before.begin() + off,
                    before.begin() + off + PhaseMarker::kSlotSize,
                    after.begin() + off)) {
      ++changed;
    }
  }
  EXPECT_EQ(changed, 1);
  EXPECT_EQ(marker.LastCommittedPhase(), 2u);
}

TEST(FaultInjectionTest, NthReadPoisonsOneBlockAndWriteHeals) {
  DeviceOptions opts;
  opts.capacity = 1 << 20;
  FaultSpec s;
  s.effect = FaultEffect::kUnreadableBlock;
  s.trigger = FaultTrigger::kNthRead;
  s.n = 3;
  opts.fault_plan.faults.push_back(s);
  auto dev = MakeDevice(opts);

  std::vector<uint8_t> buf(1024, 0x5A);
  dev->WriteBytes(0, buf.data(), buf.size());
  std::vector<uint8_t> out(1024);
  ASSERT_TRUE(dev->TryReadBytes(0, out.data(), out.size()).ok());
  ASSERT_TRUE(dev->TryReadBytes(0, out.data(), out.size()).ok());
  // The third read fires: exactly one 256 B block under it goes bad, and
  // the triggering read itself fails.
  EXPECT_EQ(dev->TryReadBytes(0, out.data(), out.size()).code(),
            StatusCode::kDataLoss);
  const auto* inj = dev->fault_injector();
  ASSERT_NE(inj, nullptr);
  EXPECT_EQ(inj->poisoned_block_count(), 1u);

  // Locate the bad block (reads do not heal).
  int bad = -1;
  for (int b = 0; b < 4; ++b) {
    if (!dev->TryReadBytes(b * 256, out.data(), 256).ok()) {
      ASSERT_EQ(bad, -1) << "more than one block poisoned";
      bad = b;
    }
  }
  ASSERT_NE(bad, -1);

  // The non-reporting read path zero-fills deterministically and counts
  // a media error.
  const uint64_t errors_before = dev->media_error_count();
  std::memset(out.data(), 0xEE, 256);
  dev->ReadBytes(bad * 256, out.data(), 256);
  for (int i = 0; i < 256; ++i) ASSERT_EQ(out[i], 0);
  EXPECT_GT(dev->media_error_count(), errors_before);

  // Any store touching the block remaps it; reads work again.
  dev->Write<uint8_t>(bad * 256 + 17, 0x77);
  EXPECT_EQ(inj->poisoned_block_count(), 0u);
  ASSERT_TRUE(dev->TryReadBytes(bad * 256, out.data(), 256).ok());
}

TEST(FaultInjectionTest, TornFlushKeepsAlignedPrefix) {
  DeviceOptions opts;
  opts.capacity = 1 << 20;
  opts.strict_persistence = true;
  opts.fault_seed = 7;
  FaultSpec s;
  s.effect = FaultEffect::kTornFlush;
  s.trigger = FaultTrigger::kNthFlush;
  s.n = 2;
  opts.fault_plan.faults.push_back(s);
  auto dev = MakeDevice(opts);

  std::vector<uint8_t> oldv(64, 0xAA);
  std::vector<uint8_t> newv(64, 0xBB);
  dev->WriteBytes(128, oldv.data(), 64);
  dev->FlushRange(128, 64);  // flush #1: intact
  dev->Drain();
  dev->WriteBytes(128, newv.data(), 64);
  dev->FlushRange(128, 64);  // flush #2: torn
  dev->Drain();
  EXPECT_EQ(dev->fault_injector()->stats().torn_flushes, 1u);

  // The tear is invisible until power is lost.
  uint8_t cur[64];
  dev->ReadBytes(128, cur, 64);
  for (int i = 0; i < 64; ++i) ASSERT_EQ(cur[i], 0xBB);

  dev->SimulateCrash();
  dev->ReadBytes(128, cur, 64);
  size_t keep = 0;
  while (keep < 64 && cur[keep] == 0xBB) ++keep;
  EXPECT_EQ(keep % 8, 0u) << "tear must respect the 8 B atomic unit";
  EXPECT_GE(keep, 8u);
  EXPECT_LE(keep, 56u);
  for (size_t i = keep; i < 64; ++i) ASSERT_EQ(cur[i], 0xAA);
}

TEST(FaultInjectionTest, CrashBitFlipsAreSeededAndDeterministic) {
  auto build = [](uint64_t seed) {
    DeviceOptions opts;
    opts.capacity = 1 << 20;
    opts.strict_persistence = true;
    opts.fault_seed = seed;
    FaultSpec s;
    s.effect = FaultEffect::kCrashBitFlip;
    s.trigger = FaultTrigger::kAddressRange;
    s.range_begin = 0;
    s.range_end = 4096;
    s.bit_flips = 4;
    opts.fault_plan.faults.push_back(s);
    auto dev = MakeDevice(opts);
    std::vector<uint8_t> buf(4096);
    for (size_t i = 0; i < buf.size(); ++i) buf[i] = i & 0xFF;
    dev->WriteBytes(0, buf.data(), buf.size());
    dev->FlushRange(0, buf.size());
    dev->Drain();
    dev->SimulateCrash();
    return dev;
  };

  auto a = build(42);
  auto b = build(42);
  EXPECT_EQ(a->fault_injector()->stats().bits_flipped, 4u);
  EXPECT_TRUE(a->PersistedSnapshot() == b->PersistedSnapshot());

  // The damage is real: some bits differ from the written pattern.
  std::vector<uint8_t> out(4096);
  a->ReadBytes(0, out.data(), out.size());
  int damaged_bits = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    damaged_bits += __builtin_popcount(out[i] ^ static_cast<uint8_t>(i));
  }
  EXPECT_GT(damaged_bits, 0);
  EXPECT_LE(damaged_bits, 4);

  auto c = build(43);
  EXPECT_FALSE(a->PersistedSnapshot() == c->PersistedSnapshot());
}

TEST(NvmPoolTest, ScrubReportsUnreadableBlocks) {
  DeviceOptions opts;
  opts.capacity = 1 << 20;
  FaultSpec s;
  s.effect = FaultEffect::kUnreadableBlock;
  s.trigger = FaultTrigger::kAddressRange;
  s.range_begin = 8192;
  s.range_end = 8192 + 256;  // one media block inside the pool
  opts.fault_plan.faults.push_back(s);
  auto dev = MakeDevice(opts);

  auto pool = NvmPool::Create(dev.get(), 4096, (1 << 20) - 4096);
  ASSERT_TRUE(pool.ok());
  // Allocate past the bad block without writing it: the poison persists.
  ASSERT_TRUE(pool->Alloc(8192).ok());
  pool->PersistHeader();
  auto report = pool->Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->bad_blocks, 1u);
  EXPECT_GT(report->scanned_bytes, 0u);
}

TEST(NvmPoolTest, ScrubCleanPoolFindsNothing) {
  auto dev = MakeDevice();
  auto pool = NvmPool::Create(dev.get(), 4096, 1 << 20);
  ASSERT_TRUE(pool.ok());
  ASSERT_TRUE(pool->Alloc(10000).ok());
  pool->PersistHeader();
  auto report = pool->Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->bad_blocks, 0u);
}

TEST(RedoLogTest, RecoveryRejectsCorruptPayload) {
  DeviceOptions opts;
  opts.strict_persistence = true;
  auto dev = MakeDevice(opts);
  auto log = RedoLog::Create(dev.get(), 0, 64 * 1024);
  ASSERT_TRUE(log.ok());
  log->Begin();
  log->StageValue<uint64_t>(1 << 20, 0x1122334455667788ull);
  ASSERT_TRUE(log->Commit().ok());

  // Durably flip one byte of the logged payload (header slot is 64 B,
  // the entry header is 16 B, the payload follows).
  const uint64_t payload_off = 64 + 16;
  const uint8_t byte = dev->Read<uint8_t>(payload_off);
  dev->Write<uint8_t>(payload_off, byte ^ 0xFF);
  dev->FlushRange(payload_off, 1);
  dev->Drain();
  dev->SimulateCrash();

  auto reopened = RedoLog::Open(dev.get(), 0);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->Recover().status().code(), StatusCode::kDataLoss);
  // The corrupt record must not have been applied to its home location.
  EXPECT_EQ(dev->Read<uint64_t>(1 << 20), 0u);
}

TEST(RedoLogTest, RecoveryRejectsZeroedRecords) {
  // Regression: a torn flush can zero a slice of the committed extent.
  // An all-zero EntryHeader {target=0, len=0, checksum=0} must NOT
  // self-validate — CRC32 of an empty payload is 0, so a payload-only
  // checksum would accept it and replay a bogus write to offset 0.
  DeviceOptions opts;
  opts.strict_persistence = true;
  auto dev = MakeDevice(opts);
  auto log = RedoLog::Create(dev.get(), 0, 64 * 1024);
  ASSERT_TRUE(log.ok());
  log->Begin();
  log->StageValue<uint64_t>(1 << 20, 77);
  ASSERT_TRUE(log->Commit().ok());

  // Durably zero the whole committed record (entry header + payload).
  const uint8_t zeros[24] = {};
  dev->WriteBytes(64, zeros, sizeof(zeros));
  dev->FlushRange(64, sizeof(zeros));
  dev->Drain();
  dev->SimulateCrash();

  auto reopened = RedoLog::Open(dev.get(), 0);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->Recover().status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(dev->Read<uint64_t>(1 << 20), 0u);
}

TEST(RedoLogTest, RecoveryRejectsRedirectedTarget) {
  // Regression: the record checksum covers the target, so a torn header
  // cannot silently redirect an intact payload to the wrong home.
  DeviceOptions opts;
  opts.strict_persistence = true;
  auto dev = MakeDevice(opts);
  auto log = RedoLog::Create(dev.get(), 0, 64 * 1024);
  ASSERT_TRUE(log.ok());
  log->Begin();
  log->StageValue<uint64_t>(1 << 20, 77);
  ASSERT_TRUE(log->Commit().ok());

  // Durably rewrite the record's target field (first 8 B of the entry
  // header at data_start = 64), leaving len/checksum/payload intact.
  dev->Write<uint64_t>(64, 2 << 20);
  dev->FlushRange(64, sizeof(uint64_t));
  dev->Drain();
  dev->SimulateCrash();

  auto reopened = RedoLog::Open(dev.get(), 0);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->Recover().status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(dev->Read<uint64_t>(2 << 20), 0u);
}

TEST(PmemTest, MemcpyPersistSurvivesCrash) {
  DeviceOptions opts;
  opts.strict_persistence = true;
  auto dev = MakeDevice(opts);
  const uint64_t v = 0xABCD;
  PmemMemcpyPersist(*dev, 256, &v, sizeof(v));
  dev->SimulateCrash();
  EXPECT_EQ(dev->Read<uint64_t>(256), 0xABCDu);
}

}  // namespace
}  // namespace ntadoc::nvm
