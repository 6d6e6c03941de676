// ContainerStore correctness: Create/Open/Load round-trips, durable
// streaming appends that decode identically to a full recompress, slot
// alternation, reopen-after-restart, and graceful failure when a merged
// container outgrows its slot. Every test runs under strict persistence
// with the persist checker on, so a missing flush or fence in the store
// protocol fails here, not just in the crash sweep.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compress/compressor.h"
#include "compress/format.h"
#include "compress/parallel_compress.h"
#include "core/container_store.h"
#include "reference_impl.h"

namespace ntadoc::core {
namespace {

using compress::CompressedCorpus;
using compress::InputFile;
using compress::ParallelCompressOptions;
using compress::ParallelCompressStats;

std::unique_ptr<nvm::NvmDevice> MakeDevice() {
  nvm::DeviceOptions dopts;
  dopts.capacity = 16ull << 20;
  dopts.strict_persistence = true;
  dopts.persist_check = true;
  auto device = nvm::NvmDevice::Create(dopts);
  EXPECT_TRUE(device.ok());
  return std::move(*device);
}

// Every aspect of the decoded corpus the pipeline consumes.
void ExpectDecodesIdentical(const CompressedCorpus& a,
                            const CompressedCorpus& b) {
  EXPECT_EQ(compress::DecodeToTokens(a), compress::DecodeToTokens(b));
  EXPECT_EQ(a.file_names, b.file_names);
  ASSERT_EQ(a.dict.size(), b.dict.size());
  for (compress::WordId id = 0; id < a.dict.size(); ++id) {
    ASSERT_EQ(a.dict.Spell(id), b.dict.Spell(id)) << "word id " << id;
  }
}

CompressedCorpus MustCompress(const std::vector<InputFile>& files) {
  auto corpus = compress::Compress(files);
  EXPECT_TRUE(corpus.ok()) << corpus.status();
  return std::move(*corpus);
}

// `prefix` followed by `i`, as a file name. Appending to a constructed
// string rather than writing `"g" + std::to_string(i)` keeps GCC 12's
// -O3 -Wrestrict false positive away.
std::string Numbered(std::string prefix, uint64_t i) {
  prefix += std::to_string(i);
  return prefix;
}

constexpr uint64_t kBase = 4096;
constexpr uint64_t kRegion = 8ull << 20;

TEST(ContainerStoreTest, CreateOpenLoadRoundTrip) {
  auto device = MakeDevice();
  const auto files = tests::RandomInputs(21, 120, 8, 200);
  const CompressedCorpus corpus = MustCompress(files);

  auto store = ContainerStore::Create(device.get(), kBase, kRegion, corpus);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->active_slot(), 0u);
  EXPECT_EQ(store->sequence(), 1u);
  EXPECT_GT(store->container_bytes(), 0u);

  auto loaded = store->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectDecodesIdentical(*loaded, corpus);

  // A fresh Open on the same device sees the same container.
  auto reopened = ContainerStore::Open(device.get(), kBase);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->active_slot(), 0u);
  EXPECT_EQ(reopened->sequence(), 1u);
  auto reloaded = reopened->Load();
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  ExpectDecodesIdentical(*reloaded, corpus);

  EXPECT_TRUE(device->persist_check()->report().empty())
      << device->persist_check()->report().ToString();
}

TEST(ContainerStoreTest, AppendDecodesAsFullRecompress) {
  auto device = MakeDevice();
  const auto batch_a = tests::RandomInputs(31, 120, 9, 180);
  auto batch_b = tests::RandomInputs(32, 120, 5, 160);
  for (size_t i = 0; i < batch_b.size(); ++i) {
    batch_b[i].name = Numbered("g", i);
  }

  auto store =
      ContainerStore::Create(device.get(), kBase, kRegion,
                             MustCompress(batch_a));
  ASSERT_TRUE(store.ok()) << store.status();

  ParallelCompressOptions popts;
  popts.threads = 2;
  popts.min_chunk_bytes = 1;
  ParallelCompressStats stats;
  ASSERT_TRUE(store->AppendFiles(batch_b, popts, &stats).ok());
  EXPECT_EQ(store->active_slot(), 1u);
  EXPECT_EQ(store->sequence(), 2u);
  EXPECT_EQ(stats.append_epochs, 1u);
  EXPECT_GT(stats.merged_rules, 0u);

  std::vector<InputFile> all = batch_a;
  all.insert(all.end(), batch_b.begin(), batch_b.end());
  auto loaded = store->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectDecodesIdentical(*loaded, MustCompress(all));

  EXPECT_TRUE(device->persist_check()->report().empty())
      << device->persist_check()->report().ToString();
}

TEST(ContainerStoreTest, AppendsAlternateSlotsAndSurviveReopen) {
  auto device = MakeDevice();
  const auto batch_a = tests::RandomInputs(41, 100, 6, 150);
  std::vector<InputFile> all = batch_a;

  auto store =
      ContainerStore::Create(device.get(), kBase, kRegion,
                             MustCompress(batch_a));
  ASSERT_TRUE(store.ok()) << store.status();

  ParallelCompressOptions popts;
  popts.min_chunk_bytes = 1;
  for (uint32_t round = 0; round < 3; ++round) {
    auto batch = tests::RandomInputs(50 + round, 100, 3, 120);
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i].name = Numbered(Numbered("r", round) + "_", i);
    }
    ASSERT_TRUE(store->AppendFiles(batch, popts).ok()) << "round " << round;
    all.insert(all.end(), batch.begin(), batch.end());
    // Dual slots: each append flips to the other slot.
    EXPECT_EQ(store->active_slot(), (round + 1) % 2) << "round " << round;
    EXPECT_EQ(store->sequence(), round + 2u);
  }
  EXPECT_EQ(store->append_epochs(), 3u);

  // Restart: Open recovers the log and lands on the last committed
  // descriptor; the container decodes as a recompress of every batch.
  auto reopened = ContainerStore::Open(device.get(), kBase);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->sequence(), 4u);
  auto loaded = reopened->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectDecodesIdentical(*loaded, MustCompress(all));

  EXPECT_TRUE(device->persist_check()->report().empty())
      << device->persist_check()->report().ToString();
}

TEST(ContainerStoreTest, CreateRejectsBadGeometry) {
  auto device = MakeDevice();
  const CompressedCorpus corpus =
      MustCompress(tests::RandomInputs(61, 50, 2, 40));

  // Misaligned base.
  EXPECT_FALSE(
      ContainerStore::Create(device.get(), kBase + 8, kRegion, corpus).ok());
  // Region too small for two slots plus metadata.
  EXPECT_FALSE(
      ContainerStore::Create(device.get(), kBase, 4096, corpus).ok());
  // Region past the end of the device.
  EXPECT_FALSE(ContainerStore::Create(device.get(),
                                      device->capacity() - 4096,
                                      kRegion, corpus)
                   .ok());
}

TEST(ContainerStoreTest, HeaderBitFlipsFailCleanlyOrLoadTheOriginal) {
  // The geometry header carries no checksum. Every single-bit flip of its
  // 56 used bytes must end in DataLoss from Open or Load, or load the
  // original container: never a crash or a read past the device. Swept
  // with slot 0 active, then again after one append (slot 1).
  auto device = MakeDevice();
  auto batch_b = tests::RandomInputs(42, 60, 3, 80);
  for (size_t i = 0; i < batch_b.size(); ++i) {
    batch_b[i].name = Numbered("f", i);
  }
  auto store = ContainerStore::Create(
      device.get(), kBase, kRegion,
      MustCompress(tests::RandomInputs(41, 60, 5, 90)));
  ASSERT_TRUE(store.ok()) << store.status();
  for (const uint32_t active : {0u, 1u}) {
    if (active == 1) {
      ParallelCompressOptions popts;
      popts.threads = 2;
      ASSERT_TRUE(store->AppendFiles(batch_b, popts).ok());
    }
    ASSERT_EQ(store->active_slot(), active);
    auto want = store->Load();
    ASSERT_TRUE(want.ok()) << want.status();
    constexpr uint64_t kHeaderBits = 56 * 8;
    for (uint64_t bit = 0; bit < kHeaderBits; ++bit) {
      const uint64_t off = kBase + bit / 8;
      const uint8_t original = device->raw_for_testing()[off];
      device->Write(off, static_cast<uint8_t>(original ^ (1u << (bit % 8))));
      auto opened = ContainerStore::Open(device.get(), kBase);
      Status s = opened.status();
      if (opened.ok()) {
        auto loaded = opened->Load();
        s = loaded.status();
        if (loaded.ok()) ExpectDecodesIdentical(*loaded, *want);
      }
      EXPECT_TRUE(s.ok() || s.code() == StatusCode::kDataLoss)
          << "slot " << active << " bit " << bit << ": " << s;
      device->Write(off, original);
    }
  }
}

TEST(ContainerStoreTest, OversizeAppendFailsAndKeepsOldContainer) {
  auto device = MakeDevice();
  const auto batch_a = tests::RandomInputs(71, 80, 4, 100);
  const CompressedCorpus corpus = MustCompress(batch_a);

  // Slot capacity barely fits the initial container.
  const uint64_t slot =
      (compress::SerializeCorpus(corpus).size() + 4096) & ~63ull;
  ContainerStoreOptions opts;
  auto store = ContainerStore::Create(device.get(), kBase,
                                      2 * 64 + opts.log_bytes + 2 * slot,
                                      corpus, opts);
  ASSERT_TRUE(store.ok()) << store.status();

  // An append whose merged container overflows the slot must fail
  // without touching the active descriptor.
  auto big = tests::RandomInputs(72, 4000, 40, 400, /*zipf_theta=*/0.2);
  ParallelCompressOptions popts;
  popts.min_chunk_bytes = 1;
  Status s = store->AppendFiles(big, popts);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s;
  EXPECT_EQ(store->active_slot(), 0u);
  EXPECT_EQ(store->sequence(), 1u);
  auto loaded = store->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectDecodesIdentical(*loaded, corpus);
}

TEST(ContainerStoreTest, OpenRejectsUnformattedRegion) {
  auto device = MakeDevice();
  EXPECT_FALSE(ContainerStore::Open(device.get(), kBase).ok());
}

// Device whose slot-0 data region returns transient read errors for the
// first `fail_count` attempts, then heals. Slot 0 is only *read* by the
// Load() inside an append (Create writes it, never reads), so the fault
// lands deterministically in the append path.
std::unique_ptr<nvm::NvmDevice> MakeTransientSlotDevice(uint32_t fail_count) {
  const uint64_t slot0 = kBase + 2 * 64 + ContainerStoreOptions{}.log_bytes;
  nvm::DeviceOptions dopts;
  dopts.capacity = 16ull << 20;
  dopts.strict_persistence = true;
  dopts.persist_check = true;
  nvm::FaultSpec spec;
  spec.effect = nvm::FaultEffect::kTransientRead;
  spec.trigger = nvm::FaultTrigger::kAddressRange;
  spec.range_begin = slot0;
  spec.range_end = slot0 + 64;
  spec.transient_fail_count = fail_count;
  dopts.fault_plan.faults.push_back(spec);
  auto device = nvm::NvmDevice::Create(dopts);
  EXPECT_TRUE(device.ok());
  return std::move(*device);
}

// Transient read faults within the retry budget (4 retries after the
// initial attempt) are absorbed: the append succeeds, the retries are
// counted, and the backoff is charged to the simulated clock — never
// silently free.
TEST(ContainerStoreTest, AppendAbsorbsTransientReadsWithChargedBackoff) {
  const auto batch_a = tests::RandomInputs(81, 100, 5, 120);
  auto batch_b = tests::RandomInputs(82, 100, 3, 100);
  for (size_t i = 0; i < batch_b.size(); ++i) {
    batch_b[i].name = Numbered("t", i);
  }
  ParallelCompressOptions popts;
  popts.min_chunk_bytes = 1;

  auto run_append = [&](nvm::NvmDevice* device) -> Status {
    auto store = ContainerStore::Create(device, kBase, kRegion,
                                        MustCompress(batch_a));
    EXPECT_TRUE(store.ok()) << store.status();
    return store->AppendFiles(batch_b, popts);
  };

  auto clean = MakeDevice();
  ASSERT_TRUE(run_append(clean.get()).ok());
  EXPECT_EQ(clean->transient_retry_count(), 0u);

  // Two failed attempts, healed by the third: well inside the budget.
  auto faulted = MakeTransientSlotDevice(2);
  ASSERT_TRUE(run_append(faulted.get()).ok());
  EXPECT_EQ(faulted->transient_retry_count(), 2u);
  EXPECT_EQ(faulted->media_error_count(), 0u);
  // Identical workload, so the extra simulated time is exactly the
  // retry cost (backoff + re-issued reads).
  EXPECT_GT(faulted->clock().NowNanos(), clean->clock().NowNanos());

  // The appended container is intact despite the turbulence.
  auto reopened = ContainerStore::Open(faulted.get(), kBase);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->sequence(), 2u);
  std::vector<InputFile> all = batch_a;
  all.insert(all.end(), batch_b.begin(), batch_b.end());
  auto loaded = reopened->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectDecodesIdentical(*loaded, MustCompress(all));

  EXPECT_TRUE(faulted->persist_check()->report().empty())
      << faulted->persist_check()->report().ToString();
}

// Retry-budget exhaustion: the append fails with a clean DataLoss and
// the old slot/descriptor stay live; once the fault heals, a later
// append over the same store succeeds.
TEST(ContainerStoreTest, AppendRetryExhaustionKeepsOldSlotLive) {
  const auto batch_a = tests::RandomInputs(91, 100, 5, 120);
  auto batch_b = tests::RandomInputs(92, 100, 3, 100);
  for (size_t i = 0; i < batch_b.size(); ++i) {
    batch_b[i].name = Numbered("x", i);
  }
  ParallelCompressOptions popts;
  popts.min_chunk_bytes = 1;

  // 7 failing attempts: the first append's read (1 initial + 4 retries)
  // exhausts its budget and fails; the second append burns the last two
  // and heals on its third attempt.
  auto device = MakeTransientSlotDevice(7);
  auto store = ContainerStore::Create(device.get(), kBase, kRegion,
                                      MustCompress(batch_a));
  ASSERT_TRUE(store.ok()) << store.status();

  Status s = store->AppendFiles(batch_b, popts);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s;
  EXPECT_EQ(device->media_error_count(), 1u);
  // Old container untouched: descriptor still names slot 0, sequence 1.
  EXPECT_EQ(store->active_slot(), 0u);
  EXPECT_EQ(store->sequence(), 1u);

  ASSERT_TRUE(store->AppendFiles(batch_b, popts).ok());
  EXPECT_EQ(store->sequence(), 2u);
  EXPECT_EQ(device->transient_retry_count(), 6u);  // 4 + 2 across appends
  std::vector<InputFile> all = batch_a;
  all.insert(all.end(), batch_b.begin(), batch_b.end());
  auto loaded = store->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectDecodesIdentical(*loaded, MustCompress(all));

  EXPECT_TRUE(device->persist_check()->report().empty())
      << device->persist_check()->report().ToString();
}

}  // namespace
}  // namespace ntadoc::core
