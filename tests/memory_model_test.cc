// Equivalence tests for the batched extent charging API and the
// zero-copy device read path.
//
// The load-bearing invariant of the hot-path optimization: for any
// extent, TouchReadExtent / TouchWriteExtent must produce bit-identical
// AccessStats, SimClock totals and buffer (LRU) state as the per-call
// reference loop they replace, and NvmDevice::TryReadSpan must charge
// exactly like the per-word Read<T> loop it replaces — with and without
// media faults in the read range.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "nvm/device_profile.h"
#include "nvm/fault_injector.h"
#include "nvm/memory_model.h"
#include "nvm/nvm_device.h"
#include "nvm/sim_clock.h"
#include "util/logging.h"
#include "util/random.h"

namespace ntadoc::nvm {
namespace {

// The per-quantum loop that TouchReadExtent/TouchWriteExtent replace
// (documented contract in memory_model.h).
void ReferenceExtent(MemoryModel* m, uint64_t addr, uint64_t len,
                     uint64_t quantum, bool is_write) {
  if (len == 0) return;
  if (quantum == 0) quantum = len;
  for (uint64_t p = addr; p < addr + len; p += quantum) {
    const uint64_t n = std::min(quantum, addr + len - p);
    if (is_write) {
      m->TouchWrite(p, n);
    } else {
      m->TouchRead(p, n);
    }
  }
}

void ExpectStatsEqual(const AccessStats& a, const AccessStats& b) {
  EXPECT_EQ(a.read_hits, b.read_hits);
  EXPECT_EQ(a.read_misses, b.read_misses);
  EXPECT_EQ(a.write_hits, b.write_hits);
  EXPECT_EQ(a.write_misses, b.write_misses);
  EXPECT_EQ(a.seeks, b.seeks);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.flushed_lines, b.flushed_lines);
  EXPECT_EQ(a.drains, b.drains);
}

// Two models with the same profile but independent clocks: one charged
// through the batched API, one through the reference loop.
struct ModelPair {
  explicit ModelPair(const DeviceProfile& profile)
      : batched_clock(MakeSimClock()),
        reference_clock(MakeSimClock()),
        batched(profile, batched_clock),
        reference(profile, reference_clock) {}

  void Extent(uint64_t addr, uint64_t len, uint64_t quantum, bool is_write) {
    if (is_write) {
      batched.TouchWriteExtent(addr, len, quantum);
    } else {
      batched.TouchReadExtent(addr, len, quantum);
    }
    ReferenceExtent(&reference, addr, len, quantum, is_write);
  }

  void Single(uint64_t addr, uint64_t len, bool is_write) {
    if (is_write) {
      batched.TouchWrite(addr, len);
      reference.TouchWrite(addr, len);
    } else {
      batched.TouchRead(addr, len);
      reference.TouchRead(addr, len);
    }
  }

  void ExpectEqual() {
    ExpectStatsEqual(batched.stats(), reference.stats());
    EXPECT_EQ(batched.clock().NowNanos(), reference.clock().NowNanos());
  }

  SimClockPtr batched_clock;
  SimClockPtr reference_clock;
  MemoryModel batched;
  MemoryModel reference;
};

TEST(TouchExtentTest, MatchesReferenceLoopAcrossQuantaAndBoundaries) {
  const DeviceProfile profile = OptaneProfile();  // block_size = 256
  const uint64_t bs = profile.block_size;
  const uint64_t quanta[] = {0, 1, 3, 8, 24, bs - 1, bs, bs + 1, 4096};
  // Extents chosen to start/end on, before, and after block boundaries,
  // to fit inside one block, and to span many blocks.
  const std::pair<uint64_t, uint64_t> extents[] = {
      {0, 1},           {0, bs},         {0, bs + 1},    {bs - 1, 2},
      {bs - 1, bs + 2}, {100, 50},       {100, 1000},    {3 * bs, 4 * bs},
      {5 * bs + 7, 3},  {7 * bs + 9, 10 * bs + 13},      {0, 64 * bs},
  };
  for (const uint64_t q : quanta) {
    SCOPED_TRACE("quantum=" + std::to_string(q));
    ModelPair reads(profile);
    ModelPair writes(profile);
    for (const auto& [addr, len] : extents) {
      reads.Extent(addr, len, q, /*is_write=*/false);
      writes.Extent(addr, len, q, /*is_write=*/true);
      reads.ExpectEqual();
      writes.ExpectEqual();
    }
    // Buffer-state equality: a deterministic probe sweep after the
    // extents turns any divergence in buffered blocks or LRU stamps into
    // a hit/miss count difference.
    for (uint64_t b = 0; b < 80; ++b) {
      reads.Single(b * bs * 3 % (64 * bs), 8, /*is_write=*/b % 2 == 0);
      writes.Single(b * bs * 3 % (64 * bs), 8, /*is_write=*/b % 2 == 1);
    }
    reads.ExpectEqual();
    writes.ExpectEqual();
  }
}

TEST(TouchExtentTest, LruEvictionOrderMatchesUnderTinyBuffer) {
  // 8-block buffer (2 sets x 4 ways) forces constant eviction, so any
  // divergence in the folded LRU-clock advance shows up immediately.
  DeviceProfile profile = OptaneProfile();
  profile.buffer_blocks = 8;
  const uint64_t bs = profile.block_size;
  ModelPair pair(profile);
  // Alternate wide extents (folded repeat touches) with singles that
  // re-rank individual blocks, then probe.
  for (uint64_t round = 0; round < 6; ++round) {
    pair.Extent(round * 3 * bs, 10 * bs + round, /*quantum=*/24,
                /*is_write=*/round % 2 == 0);
    pair.Single((round * 7 + 1) * bs, 4, /*is_write=*/false);
    pair.Extent(round * 5 * bs + 13, 2 * bs, /*quantum=*/1,
                /*is_write=*/false);
    pair.ExpectEqual();
  }
  for (uint64_t b = 0; b < 32; ++b) {
    pair.Single(b * bs, 8, /*is_write=*/false);
  }
  pair.ExpectEqual();
  EXPECT_GT(pair.batched.stats().read_misses, 0u);
  EXPECT_GT(pair.batched.stats().read_hits, 0u);
}

TEST(TouchExtentTest, HddSeeksMatchOnNonSequentialExtents) {
  const DeviceProfile profile = HddProfile();
  ASSERT_GT(profile.seek_ns, 0u);
  const uint64_t bs = profile.block_size;
  ModelPair pair(profile);
  // Jump backward and forward between distant extents: every jump is a
  // seek, and intra-extent blocks are sequential.
  pair.Extent(100 * bs, 8 * bs, /*quantum=*/512, /*is_write=*/false);
  pair.Extent(10 * bs, 4 * bs, /*quantum=*/0, /*is_write=*/false);
  pair.Extent(500 * bs + 3, 6 * bs, /*quantum=*/4096, /*is_write=*/true);
  pair.Extent(14 * bs, 2 * bs, /*quantum=*/8, /*is_write=*/false);
  pair.ExpectEqual();
  EXPECT_GT(pair.batched.stats().seeks, 0u);
}

TEST(TouchExtentTest, RandomizedMixedSequencesMatch) {
  const DeviceProfile profiles[] = {DramProfile(), OptaneProfile(),
                                    SsdProfile(), HddProfile()};
  const uint64_t quanta[] = {0, 1, 7, 8, 24, 64, 256, 333, 4096};
  for (const DeviceProfile& profile : profiles) {
    SCOPED_TRACE(profile.name);
    Rng rng(42);
    ModelPair pair(profile);
    for (int op = 0; op < 2000; ++op) {
      const uint64_t addr = rng.Uniform(1ull << 20);
      const bool is_write = rng.Bernoulli(0.4);
      if (rng.Bernoulli(0.5)) {
        const uint64_t len = 1 + rng.Uniform(8192);
        const uint64_t q = quanta[rng.Uniform(std::size(quanta))];
        pair.Extent(addr, len, q, is_write);
      } else {
        pair.Single(addr, 1 + rng.Uniform(64), is_write);
      }
      if (op % 250 == 0) pair.ExpectEqual();
    }
    pair.ExpectEqual();
  }
}

std::unique_ptr<NvmDevice> MakeDevice(DeviceOptions opts = {}) {
  auto dev = NvmDevice::Create(opts);
  NTADOC_CHECK(dev.ok());
  return std::move(dev).value();
}

void ExpectDevicesEqual(NvmDevice& a, NvmDevice& b) {
  ExpectStatsEqual(a.stats(), b.stats());
  EXPECT_EQ(a.clock().NowNanos(), b.clock().NowNanos());
}

// MemoryModel computes block numbers with a shift, so every built-in
// profile must have a power-of-two block size.
TEST(DeviceProfileTest, EveryProfileHasPowerOfTwoBlocks) {
  const DeviceProfile profiles[] = {DramProfile(), OptaneProfile(),
                                    SsdProfile(),  HddProfile(),
                                    ReRamProfile(), PcmProfile()};
  for (const DeviceProfile& p : profiles) {
    EXPECT_GT(p.block_size, 0u) << p.name;
    EXPECT_EQ(p.block_size & (p.block_size - 1), 0u)
        << p.name << " block_size " << p.block_size;
  }
}

TEST(DeviceSpanTest, TryReadSpanChargesLikePerWordLoop) {
  DeviceOptions opts;
  opts.capacity = 1ull << 20;
  auto span_dev = MakeDevice(opts);
  auto loop_dev = MakeDevice(opts);

  // Identical seeded contents, written identically on both devices.
  Rng rng(7);
  std::vector<uint64_t> payload(4096);
  for (auto& w : payload) w = rng.Next();
  const uint64_t bytes = payload.size() * sizeof(uint64_t);
  for (NvmDevice* dev : {span_dev.get(), loop_dev.get()}) {
    dev->WriteBytes(1000, payload.data(), bytes);
  }
  ExpectDevicesEqual(*span_dev, *loop_dev);

  // Span read vs per-word Read<uint64_t> loop over several misaligned
  // sub-extents; contents and charges must both match.
  const std::pair<uint64_t, uint64_t> regions[] = {  // (word index, words)
      {0, 1}, {1, 300}, {31, 1024}, {500, 4096 - 500}};
  for (const auto& [first, count] : regions) {
    const uint64_t off = 1000 + first * sizeof(uint64_t);
    auto span = span_dev->TryReadTypedSpan<uint64_t>(off, count,
                                                     sizeof(uint64_t));
    ASSERT_TRUE(span.ok());
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t got = loop_dev->Read<uint64_t>(off + i * sizeof(uint64_t));
      ASSERT_EQ((*span)[i], got);
      ASSERT_EQ(got, payload[first + i]);
    }
    ExpectDevicesEqual(*span_dev, *loop_dev);
  }
  EXPECT_EQ(span_dev->media_error_count(), 0u);
  EXPECT_EQ(loop_dev->media_error_count(), 0u);
}

TEST(DeviceSpanTest, BulkWriteQuantumChargesLikePerElementLoop) {
  DeviceOptions opts;
  opts.capacity = 1ull << 20;
  auto bulk_dev = MakeDevice(opts);
  auto loop_dev = MakeDevice(opts);

  struct Entry {
    uint64_t key;
    uint32_t count;
    uint32_t pad;
  };
  std::vector<Entry> entries(777);
  Rng rng(11);
  for (auto& e : entries) e = {rng.Next(), static_cast<uint32_t>(rng.Next()), 0};

  const uint64_t off = 4096 + 8;  // deliberately block-misaligned
  bulk_dev->WriteBytes(off, entries.data(), entries.size() * sizeof(Entry),
                       /*quantum=*/sizeof(Entry));
  for (size_t i = 0; i < entries.size(); ++i) {
    loop_dev->Write<Entry>(off + i * sizeof(Entry), entries[i]);
  }
  ExpectDevicesEqual(*bulk_dev, *loop_dev);
  EXPECT_EQ(std::memcmp(bulk_dev->raw_for_testing() + off,
                        loop_dev->raw_for_testing() + off,
                        entries.size() * sizeof(Entry)),
            0);

  // FillBytes with a quantum charges like a chunked zeroing loop.
  const std::vector<uint8_t> zeros(512, 0);
  const uint64_t fill_len = 100 * 512 + 37;
  bulk_dev->FillBytes(200000, fill_len, 0, /*quantum=*/512);
  for (uint64_t p = 0; p < fill_len; p += 512) {
    loop_dev->WriteBytes(200000 + p, zeros.data(),
                         std::min<uint64_t>(512, fill_len - p));
  }
  ExpectDevicesEqual(*bulk_dev, *loop_dev);
}

TEST(DeviceSpanTest, SpanChargesMatchLoopEvenAcrossUnreadableBlocks) {
  // One sticky-unreadable block in the middle of the read extent, armed
  // at construction (kAddressRange). The span read fails as a whole with
  // a single media error; the per-word loop fails word by word. Charges
  // must be identical either way: cost accrues whether or not the data
  // is readable.
  FaultSpec spec;
  spec.effect = FaultEffect::kUnreadableBlock;
  spec.trigger = FaultTrigger::kAddressRange;
  spec.range_begin = 2048;
  spec.range_end = 2048 + FaultInjector::kBlock;

  DeviceOptions opts;
  opts.capacity = 1ull << 20;
  opts.fault_plan.faults.push_back(spec);
  auto span_dev = MakeDevice(opts);
  auto loop_dev = MakeDevice(opts);

  const uint64_t off = 1024;
  const uint64_t words = 512;  // covers [1024, 5120) — includes the block
  auto span =
      span_dev->TryReadTypedSpan<uint64_t>(off, words, sizeof(uint64_t));
  EXPECT_FALSE(span.ok());
  EXPECT_EQ(span_dev->media_error_count(), 1u);

  uint64_t loop_errors = 0;
  for (uint64_t i = 0; i < words; ++i) {
    uint64_t w;
    if (!loop_dev->TryReadBytes(off + i * sizeof(uint64_t), &w, sizeof(w))
             .ok()) {
      ++loop_errors;
    }
  }
  EXPECT_EQ(loop_errors, FaultInjector::kBlock / sizeof(uint64_t));
  EXPECT_EQ(loop_dev->media_error_count(), loop_errors);

  // The cost model is oblivious to the poison: identical charges.
  ExpectDevicesEqual(*span_dev, *loop_dev);

  // Rewriting the block remaps the media; the same span then succeeds
  // and charges exactly like a fresh per-word loop.
  const std::vector<uint8_t> fresh(FaultInjector::kBlock, 0xAB);
  for (NvmDevice* dev : {span_dev.get(), loop_dev.get()}) {
    dev->WriteBytes(2048, fresh.data(), fresh.size());
  }
  auto healed =
      span_dev->TryReadTypedSpan<uint64_t>(off, words, sizeof(uint64_t));
  ASSERT_TRUE(healed.ok());
  for (uint64_t i = 0; i < words; ++i) {
    ASSERT_EQ((*healed)[i],
              loop_dev->Read<uint64_t>(off + i * sizeof(uint64_t)));
  }
  ExpectDevicesEqual(*span_dev, *loop_dev);
  EXPECT_EQ(span_dev->media_error_count(), 1u);
}

}  // namespace
}  // namespace ntadoc::nvm
