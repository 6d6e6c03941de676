// RecordArena (epoch group commit's write staging) against a per-byte
// reference model that keeps the last byte written at each address.

#include "core/record_arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "nvm/obj_log.h"
#include "util/random.h"

namespace ntadoc::core {
namespace {

using nvm::RedoLog;

struct Interval {
  uint64_t off;
  std::vector<uint8_t> bytes;
  bool operator==(const Interval&) const = default;
};

/// Maximal runs of written addresses: what coalescing must produce.
std::vector<Interval> ReferenceIntervals(
    const std::map<uint64_t, uint8_t>& bytes) {
  std::vector<Interval> out;
  for (const auto& [addr, b] : bytes) {
    if (out.empty() || out.back().off + out.back().bytes.size() != addr) {
      out.push_back(Interval{addr, {}});
    }
    out.back().bytes.push_back(b);
  }
  return out;
}

uint64_t EncodedSum(const std::vector<Interval>& intervals) {
  uint64_t sum = 0;
  for (const Interval& i : intervals) {
    sum += RedoLog::EncodedRecordBytes(static_cast<uint32_t>(i.bytes.size()));
  }
  return sum;
}

std::vector<Interval> ArenaIntervals(const RecordArena& arena) {
  std::vector<Interval> out;
  for (const RecordArena::Record& r : arena.records()) {
    const uint8_t* p = arena.bytes(r);
    out.push_back(Interval{r.off, std::vector<uint8_t>(p, p + r.len)});
  }
  return out;
}

TEST(RecordArenaTest, NewestBytesWinAcrossOffsets) {
  RecordArena arena;
  const std::vector<uint8_t> a(8, 'a');
  const std::vector<uint8_t> b(8, 'b');
  const std::vector<uint8_t> c(4, 'c');
  arena.Add(4, a.data(), 8);   // [4, 12)
  arena.Add(0, b.data(), 8);   // [0, 8), newer and lower
  arena.Add(12, c.data(), 4);  // touches [4, 12)
  arena.Add(17, c.data(), 1);  // one byte gap: separate interval
  arena.Add(30, c.data(), 0);  // ignored
  EXPECT_EQ(arena.writes(), 4u);
  EXPECT_EQ(arena.encoded_bytes(), 2 * RedoLog::EncodedRecordBytes(8) +
                                       RedoLog::EncodedRecordBytes(4) +
                                       RedoLog::EncodedRecordBytes(1));

  arena.Coalesce();
  const std::vector<uint8_t> first = {'b', 'b', 'b', 'b', 'b', 'b', 'b', 'b',
                                      'a', 'a', 'a', 'a', 'c', 'c', 'c', 'c'};
  const std::vector<Interval> want = {{0, first}, {17, {'c'}}};
  EXPECT_EQ(ArenaIntervals(arena), want);
  EXPECT_EQ(arena.encoded_bytes(), RedoLog::EncodedRecordBytes(16) +
                                       RedoLog::EncodedRecordBytes(1));
  EXPECT_EQ(arena.writes(), 4u);

  arena.Clear();
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.writes(), 0u);
  EXPECT_EQ(arena.encoded_bytes(), 0u);
}

TEST(RecordArenaTest, EarlyCommitRuleDecidesOnMergedSum) {
  // Overlapping writes one byte apart: the sum over the records crosses
  // the limit, the one coalesced interval stays far below it.
  RecordArena arena;
  const uint64_t limit = 4 * RedoLog::EncodedRecordBytes(8);
  for (uint64_t i = 0; i < 16; ++i) arena.Add(64 + i, &i, sizeof(i));
  EXPECT_GE(arena.encoded_bytes(), limit);
  EXPECT_TRUE(arena.EncodedBelow(limit));
  ASSERT_EQ(arena.records().size(), 1u);
  EXPECT_EQ(arena.records()[0].off, 64u);
  EXPECT_EQ(arena.records()[0].len, 23u);
  EXPECT_EQ(arena.encoded_bytes(), RedoLog::EncodedRecordBytes(23));
  EXPECT_FALSE(arena.EncodedBelow(RedoLog::EncodedRecordBytes(23)));
}

// Seeded random writes: overlapping, adjacent, contained, repeated,
// zero-length and far apart. After every write a copy of the arena is
// coalesced and compared with the per-byte model; the arena itself is
// coalesced in place now and then, so appends after a coalesce are
// covered too.
TEST(RecordArenaTest, MatchesPerByteModel) {
  uint64_t raw_crosses_merged_below = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // Odd seeds sit near the top of a 64-bit device range.
    const uint64_t base = seed % 2 == 1 ? (uint64_t{1} << 40) - 300 : 0;
    RecordArena arena;
    std::map<uint64_t, uint8_t> model;
    std::vector<std::pair<uint64_t, uint32_t>> history;  // (off, len)
    uint64_t raw = 0;
    uint64_t writes = 0;
    for (int step = 0; step < 300; ++step) {
      uint64_t off = base + rng.Uniform(256);
      uint32_t len = static_cast<uint32_t>(rng.Uniform(25));
      if (!history.empty()) {
        const auto [hoff, hlen] = history[rng.Uniform(history.size())];
        switch (rng.Uniform(7)) {
          case 0:  // repeated
            off = hoff;
            len = hlen;
            break;
          case 1:  // contained
            if (hlen > 0) {
              off = hoff + rng.Uniform(hlen);
              len = static_cast<uint32_t>(
                  1 + rng.Uniform(hoff + hlen - off));
            }
            break;
          case 2:  // adjacent on the right
            off = hoff + hlen;
            break;
          case 3:  // adjacent on the left
            if (hoff >= base + len) off = hoff - len;
            break;
          case 4:  // zero-length
            len = 0;
            break;
          case 5:  // far apart: the offset sort spans several bytes
            off = base + rng.Uniform(64) * 0x10101;
            break;
          default:  // uniform, mostly overlapping something
            break;
        }
      }
      std::vector<uint8_t> data(len);
      for (uint8_t& b : data) b = static_cast<uint8_t>(rng.Next());
      arena.Add(off, data.data(), len);
      history.emplace_back(off, len);
      for (uint32_t i = 0; i < len; ++i) model[off + i] = data[i];
      if (len > 0) {
        ++writes;
        raw += RedoLog::EncodedRecordBytes(len);
      }

      const std::vector<Interval> want = ReferenceIntervals(model);
      const uint64_t merged = EncodedSum(want);
      ASSERT_EQ(arena.writes(), writes);
      ASSERT_EQ(arena.encoded_bytes(), raw);
      ASSERT_LE(merged, raw);

      RecordArena copy = arena;
      copy.Coalesce();
      ASSERT_EQ(ArenaIntervals(copy), want) << "step " << step;
      ASSERT_EQ(copy.encoded_bytes(), merged);
      ASSERT_EQ(copy.writes(), writes);

      // The early-commit decision at limits around both sums.
      for (const uint64_t limit :
           {merged, merged + 1, (merged + raw) / 2, raw, raw + 1}) {
        RecordArena probe = arena;
        ASSERT_EQ(probe.EncodedBelow(limit), merged < limit)
            << "step " << step << " limit " << limit;
        if (raw >= limit && merged < limit) ++raw_crosses_merged_below;
      }

      if (step % 17 == 16) {
        arena.Coalesce();
        raw = merged;
      }
      if (step % 101 == 100) {
        arena.Clear();
        model.clear();
        history.clear();
        raw = 0;
        writes = 0;
      }
    }
  }
  EXPECT_GT(raw_crosses_merged_below, 0u);
}

}  // namespace
}  // namespace ntadoc::core
