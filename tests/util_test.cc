// Unit tests for the util substrate.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/dram_tracker.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/zipf.h"

namespace ntadoc {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::DataLoss("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Result<int> Doubled(int v) {
  NTADOC_ASSIGN_OR_RETURN(const int parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(ResultTest, ValueAndErrorPaths) {
  auto good = Doubled(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  auto bad = Doubled(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.ValueOr(7), 7);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(HashTest, DeterministicAndSpread) {
  EXPECT_EQ(HashString("hello"), HashString("hello"));
  EXPECT_NE(HashString("hello"), HashString("hellp"));
  EXPECT_NE(Mix64(1), Mix64(2));
  EXPECT_NE(HashPair(1, 2), HashPair(2, 1));
}

TEST(HashTest, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(0), 1u);
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024u);
  EXPECT_EQ(NextPowerOfTwo(1025), 2048u);
}

/// Byte-at-a-time CRC-32 (reflected 0xEDB88320), bit by bit: the
/// definition Crc32 must match.
uint32_t ReferenceCrc32(const uint8_t* p, size_t len, uint32_t seed) {
  uint32_t c = ~seed;
  for (size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

TEST(HashTest, Crc32StandardCheckValue) {
  const char kCheck[] = "123456789";
  EXPECT_EQ(Crc32(kCheck, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(kCheck, 0), 0u);
  // Chaining over a split equals one pass.
  EXPECT_EQ(Crc32(kCheck + 4, 5, Crc32(kCheck, 4)), 0xCBF43926u);
}

TEST(HashTest, Crc32MatchesByteAtATimeReference) {
  Rng rng(7);
  std::vector<uint8_t> buf(300 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 300; ++len) {
      const uint8_t* p = buf.data() + align;
      const uint32_t seed = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(Crc32(p, len), ReferenceCrc32(p, len, 0))
          << "align " << align << " len " << len;
      ASSERT_EQ(Crc32(p, len, seed), ReferenceCrc32(p, len, seed))
          << "align " << align << " len " << len << " seed " << seed;
      // A chain split anywhere equals one pass.
      const size_t cut = len == 0 ? 0 : rng.Uniform(len + 1);
      ASSERT_EQ(Crc32(p + cut, len - cut, Crc32(p, cut, seed)),
                ReferenceCrc32(p, len, seed))
          << "align " << align << " len " << len << " cut " << cut;
    }
  }
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(1), b(1), c(2);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    const uint64_t v = rng.UniformRange(5, 7);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 7u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfTest, SkewsTowardLowRanks) {
  Rng rng(4);
  ZipfSampler zipf(1000, 1.0);
  uint64_t low = 0, total = 20000;
  for (uint64_t i = 0; i < total; ++i) {
    if (zipf.Sample(rng) < 10) ++low;
  }
  // With theta=1 the top-10 ranks carry ~39% of the mass.
  EXPECT_GT(low, total / 4);
  EXPECT_LT(low, total / 2);
}

TEST(ZipfTest, AllRanksInRange) {
  Rng rng(5);
  ZipfSampler zipf(7, 1.2);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Sample(rng), 7u);
}

TEST(StringUtilTest, SplitTokens) {
  const auto toks = SplitTokens("  a b\tc\n\nd ");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0], "a");
  EXPECT_EQ(toks[3], "d");
  EXPECT_TRUE(SplitTokens("").empty());
  EXPECT_TRUE(SplitTokens("   ").empty());
}

TEST(StringUtilTest, Formatting) {
  EXPECT_EQ(WithThousandsSeparators(0), "0");
  EXPECT_EQ(WithThousandsSeparators(999), "999");
  EXPECT_EQ(WithThousandsSeparators(1234567), "1,234,567");
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KiB");
  EXPECT_EQ(HumanDuration(500), "500 ns");
  EXPECT_EQ(HumanDuration(1500000000ull), "1.50 s");
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
}

TEST(DramTrackerTest, TracksPeak) {
  DramUsageScope scope;
  {
    tracked::vector<uint64_t> v(1000);
    EXPECT_GE(DramTracker::CurrentBytes(), 8000u);
  }
  EXPECT_GE(scope.PeakDelta(), 8000u);
}

TEST(DramTrackerTest, NestedScopesSeeOwnDeltas) {
  tracked::vector<int> outer(100);
  DramUsageScope inner_scope;
  { tracked::vector<int> inner(50); }
  EXPECT_GE(inner_scope.PeakDelta(), 200u);
  EXPECT_LT(inner_scope.PeakDelta(), 4000u);
}

}  // namespace
}  // namespace ntadoc
