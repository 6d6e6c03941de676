// Correctness tests for the Sequitur grammar builder.

#include "compress/sequitur.h"

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "compress/compressor.h"
#include "compress/digram_index.h"
#include "compress/grammar.h"
#include "util/random.h"
#include "util/zipf.h"

namespace ntadoc::compress {
namespace {

// Builds a grammar from one token file (no separator logic beyond
// AppendFile) and returns it.
Grammar BuildGrammar(const std::vector<std::vector<WordId>>& files,
                     uint32_t dict_size) {
  Sequitur seq;
  for (const auto& f : files) seq.AppendFile(f);
  EXPECT_TRUE(seq.CheckInvariants().ok()) << seq.CheckInvariants();
  return seq.Finish(static_cast<uint32_t>(files.size()), dict_size);
}

// Expands the grammar and strips separators back into per-file tokens.
std::vector<std::vector<WordId>> Expand(const Grammar& g) {
  std::vector<std::vector<WordId>> files(1);
  for (Symbol s : g.ExpandAll()) {
    if (IsFileSep(s)) {
      files.emplace_back();
    } else {
      files.back().push_back(s);
    }
  }
  files.pop_back();  // stream ends with a separator
  return files;
}

TEST(SequiturTest, EmptyFile) {
  const std::vector<std::vector<WordId>> files = {{}};
  Grammar g = BuildGrammar(files, 1);
  EXPECT_TRUE(g.Validate().ok()) << g.Validate();
  EXPECT_EQ(Expand(g), files);
}

TEST(SequiturTest, SingleWord) {
  const std::vector<std::vector<WordId>> files = {{5}};
  Grammar g = BuildGrammar(files, 6);
  EXPECT_TRUE(g.Validate().ok());
  EXPECT_EQ(Expand(g), files);
}

TEST(SequiturTest, ClassicAbcdbc) {
  // "a b c d b c" -> rule for (b c).
  const std::vector<std::vector<WordId>> files = {{1, 2, 3, 4, 2, 3}};
  Grammar g = BuildGrammar(files, 5);
  EXPECT_TRUE(g.Validate().ok()) << g.Validate();
  EXPECT_EQ(Expand(g), files);
  EXPECT_EQ(g.NumRules(), 2u);
  EXPECT_EQ(g.rules[0].size(), 5u);  // a R d R <sep>
}

TEST(SequiturTest, NestedRules) {
  // "a b c d a b c d" -> hierarchy.
  const std::vector<std::vector<WordId>> files = {{1, 2, 3, 4, 1, 2, 3, 4}};
  Grammar g = BuildGrammar(files, 5);
  EXPECT_TRUE(g.Validate().ok()) << g.Validate();
  EXPECT_EQ(Expand(g), files);
  // Root must be R(abcd) R(abcd) <sep>.
  EXPECT_EQ(g.rules[0].size(), 3u);
}

TEST(SequiturTest, OverlappingRunsOfOneSymbol) {
  for (int n = 1; n <= 40; ++n) {
    std::vector<WordId> tokens(n, 7);
    const std::vector<std::vector<WordId>> files = {tokens};
    Grammar g = BuildGrammar(files, 8);
    EXPECT_TRUE(g.Validate().ok()) << "n=" << n << ": " << g.Validate();
    EXPECT_EQ(Expand(g), files) << "n=" << n;
  }
}

TEST(SequiturTest, RuleUtilityInlining) {
  // "a b a b a b" — rules are created then partially inlined; utility
  // must hold in the final grammar: every non-root rule used >= 2 times.
  const std::vector<std::vector<WordId>> files = {{1, 2, 1, 2, 1, 2}};
  Grammar g = BuildGrammar(files, 3);
  EXPECT_TRUE(g.Validate().ok()) << g.Validate();
  EXPECT_EQ(Expand(g), files);
  std::vector<uint32_t> uses(g.NumRules(), 0);
  for (const auto& body : g.rules) {
    for (Symbol s : body) {
      if (IsRule(s)) ++uses[RuleIndex(s)];
    }
  }
  for (uint32_t r = 1; r < g.NumRules(); ++r) {
    EXPECT_GE(uses[r], 2u) << "rule utility violated for R" << r;
  }
}

TEST(SequiturTest, SeparatorsNeverEnterRules) {
  // Identical files: huge cross-file redundancy, but separators must stay
  // in the root.
  std::vector<std::vector<WordId>> files;
  for (int i = 0; i < 8; ++i) files.push_back({1, 2, 3, 4, 5, 6, 7, 8});
  Grammar g = BuildGrammar(files, 9);
  EXPECT_TRUE(g.Validate().ok()) << g.Validate();
  EXPECT_EQ(Expand(g), files);
  for (uint32_t r = 1; r < g.NumRules(); ++r) {
    for (Symbol s : g.rules[r]) {
      EXPECT_FALSE(IsFileSep(s)) << "separator inside R" << r;
    }
  }
}

TEST(SequiturTest, CompressionActuallyCompresses) {
  // 64 copies of the same 32-token block must compress far below input
  // size.
  std::vector<WordId> tokens;
  for (int rep = 0; rep < 64; ++rep) {
    for (WordId w = 1; w <= 32; ++w) tokens.push_back(w);
  }
  Grammar g = BuildGrammar({tokens}, 33);
  EXPECT_TRUE(g.Validate().ok());
  EXPECT_LT(g.TotalSymbols(), tokens.size() / 4);
  EXPECT_EQ(g.ExpandedLength(), tokens.size() + 1);  // + separator
}

struct RandomCase {
  uint64_t seed;
  uint32_t vocab;
  uint32_t len;
  double zipf_theta;
};

class SequiturRandomTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(SequiturRandomTest, RoundTripAndInvariants) {
  const RandomCase& c = GetParam();
  Rng rng(c.seed);
  ZipfSampler zipf(c.vocab, c.zipf_theta);
  // 1-3 files of random zipfian tokens.
  const int nfiles = 1 + static_cast<int>(rng.Uniform(3));
  std::vector<std::vector<WordId>> files(nfiles);
  for (auto& f : files) {
    const uint32_t len = c.len / nfiles;
    f.reserve(len);
    for (uint32_t i = 0; i < len; ++i) {
      f.push_back(static_cast<WordId>(kFirstWordId + zipf.Sample(rng)));
    }
  }
  Sequitur seq;
  for (const auto& f : files) seq.AppendFile(f);
  const Status inv = seq.CheckInvariants();
  ASSERT_TRUE(inv.ok()) << inv;
  Grammar g =
      seq.Finish(static_cast<uint32_t>(files.size()), c.vocab + kFirstWordId);
  ASSERT_TRUE(g.Validate().ok()) << g.Validate();
  EXPECT_EQ(Expand(g), files) << "seed=" << c.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SequiturRandomTest,
    ::testing::Values(
        RandomCase{1, 4, 200, 1.0}, RandomCase{2, 4, 2000, 1.0},
        RandomCase{3, 2, 500, 0.8}, RandomCase{4, 2, 5000, 1.2},
        RandomCase{5, 16, 2000, 1.0}, RandomCase{6, 16, 20000, 1.1},
        RandomCase{7, 100, 5000, 1.0}, RandomCase{8, 100, 50000, 0.9},
        RandomCase{9, 1000, 20000, 1.0}, RandomCase{10, 3, 10000, 1.0},
        RandomCase{11, 8, 40000, 1.3}, RandomCase{12, 2, 64, 1.0},
        RandomCase{13, 5, 33, 1.0}, RandomCase{14, 50, 100000, 1.05},
        RandomCase{15, 7, 777, 0.7}, RandomCase{16, 9, 9999, 1.4}));

TEST(SequiturTest, ManySmallIdenticalFiles) {
  std::vector<std::vector<WordId>> files(100, {3, 1, 4, 1, 5, 9, 2, 6});
  Grammar g = BuildGrammar(files, 10);
  EXPECT_TRUE(g.Validate().ok()) << g.Validate();
  EXPECT_EQ(Expand(g), files);
  // Root should be ~100 rule refs + 100 separators; compression of the
  // shared content into one rule is expected.
  EXPECT_LE(g.rules[0].size(), 2u * 100u);
}

TEST(SequiturTest, TokensConsumedCountsSeparators) {
  Sequitur seq;
  seq.AppendFile({1, 2, 3});
  seq.AppendFile({4, 5});
  EXPECT_EQ(seq.tokens_consumed(), 7u);  // 5 words + 2 separators
}

// Builds `files` one AppendFile at a time, holding the invariants after
// each, and checks the round trip.
void ExpectInvariantsPerFile(const std::vector<std::vector<WordId>>& files,
                             uint32_t dict_size) {
  Sequitur seq;
  for (size_t i = 0; i < files.size(); ++i) {
    seq.AppendFile(files[i]);
    const Status inv = seq.CheckInvariants();
    ASSERT_TRUE(inv.ok()) << "after file " << i << ": " << inv;
  }
  Grammar g = seq.Finish(static_cast<uint32_t>(files.size()), dict_size);
  ASSERT_TRUE(g.Validate().ok()) << g.Validate();
  EXPECT_EQ(Expand(g), files);
}

TEST(SequiturTest, DigramIndexGrowsThroughSeveralRehashes) {
  // Uniform tokens over a wide vocabulary: few digrams repeat, so the
  // index holds nearly every input digram and doubles many times past
  // its kMinSlots start.
  Rng rng(21);
  std::vector<std::vector<WordId>> files(6);
  std::set<std::pair<WordId, WordId>> distinct;
  for (auto& f : files) {
    for (int i = 0; i < 600; ++i) {
      f.push_back(static_cast<WordId>(kFirstWordId + rng.Uniform(3000)));
      if (f.size() > 1) distinct.emplace(f[f.size() - 2], f.back());
    }
  }
  // At most half the slots fill, so this many digrams need >= 2 doublings.
  ASSERT_GT(distinct.size(), 8 * DigramIndex::kMinSlots);
  ExpectInvariantsPerFile(files, kFirstWordId + 3000);
}

TEST(SequiturTest, RestructuringHeavyInputKeepsInvariants) {
  // Runs, repeated phrases and their overlaps over three words: rules
  // form, get reused and are inlined again on nearly every token.
  Rng rng(22);
  std::vector<std::vector<WordId>> files(8);
  const std::vector<std::vector<WordId>> phrases = {
      {1, 2, 1, 2, 1}, {1, 1, 1, 1}, {2, 3, 2, 3}, {3, 1, 2}, {1, 2, 3, 1, 2}};
  for (auto& f : files) {
    while (f.size() < 3000) {
      if (rng.Bernoulli(0.7)) {
        const auto& p = phrases[rng.Uniform(phrases.size())];
        f.insert(f.end(), p.begin(), p.end());
      } else {
        f.push_back(static_cast<WordId>(1 + rng.Uniform(3)));
      }
    }
  }
  ExpectInvariantsPerFile(files, 4);
}

// Keys whose probe starts at `home` in `index`, the first `n` found.
std::vector<uint64_t> KeysAtHome(const DigramIndex& index, size_t home,
                                 size_t n) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; keys.size() < n; ++k) {
    if (index.Home(k) == home) keys.push_back(k);
  }
  return keys;
}

// Entries in slot order, as (key, node).
std::vector<std::pair<uint64_t, uint32_t>> Entries(const DigramIndex& index) {
  std::vector<std::pair<uint64_t, uint32_t>> out;
  index.ForEach([&](uint64_t k, uint32_t n) { out.emplace_back(k, n); });
  return out;
}

TEST(DigramIndexTest, FindOrInsertAssignErase) {
  DigramIndex index;
  EXPECT_EQ(index.Find(7), 0u);
  EXPECT_EQ(index.FindOrInsert(7, 70), 0u);
  EXPECT_EQ(index.FindOrInsert(7, 71), 70u);  // an existing entry stays
  EXPECT_EQ(index.Find(7), 70u);
  index.Assign(7, 72);
  EXPECT_EQ(index.Find(7), 72u);
  index.Erase(7, 70);  // points elsewhere: kept
  EXPECT_EQ(index.Find(7), 72u);
  index.Assign(8, 80);  // absent: inserted
  EXPECT_EQ(index.size(), 2u);
  index.Erase(7, 72);
  EXPECT_EQ(index.Find(7), 0u);
  EXPECT_EQ(index.Find(8), 80u);
  EXPECT_EQ(index.size(), 1u);
}

TEST(DigramIndexTest, EraseShiftsAClusterThatWrapsPastTheLastSlot) {
  DigramIndex index;
  const size_t last = index.capacity() - 1;
  // Three keys homed at the last slot fill it and wrap to slots 0 and 1;
  // a key homed at slot 0 lands in slot 2, and one homed at slot 2 in 3.
  const std::vector<uint64_t> tail = KeysAtHome(index, last, 3);
  const uint64_t zero = KeysAtHome(index, 0, 1)[0];
  const uint64_t two = KeysAtHome(index, 2, 1)[0];
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(index.FindOrInsert(tail[i], 10 + i), 0u);
  }
  EXPECT_EQ(index.FindOrInsert(zero, 20), 0u);
  EXPECT_EQ(index.FindOrInsert(two, 30), 0u);
  ASSERT_EQ(index.capacity(), last + 1) << "no growth at this load";
  using E = std::vector<std::pair<uint64_t, uint32_t>>;
  EXPECT_EQ(Entries(index), (E{{tail[1], 11}, {tail[2], 12}, {zero, 20},
                               {two, 30}, {tail[0], 10}}));

  // Erasing the head of the cluster pulls every entry one slot back,
  // across the wrap, and `two` into its home slot.
  index.Erase(tail[0], 10);
  EXPECT_EQ(Entries(index),
            (E{{tail[2], 12}, {zero, 20}, {two, 30}, {tail[1], 11}}));
  // Erasing at slot 0 moves `zero` back to its home; `two` already sits
  // at its home and stays, so the hole ends at slot 1.
  index.Erase(tail[2], 12);
  EXPECT_EQ(Entries(index), (E{{zero, 20}, {two, 30}, {tail[1], 11}}));
  for (const auto& [k, n] : Entries(index)) EXPECT_EQ(index.Find(k), n);
  EXPECT_EQ(index.Find(tail[0]), 0u);
  EXPECT_EQ(index.Find(tail[2]), 0u);
  EXPECT_EQ(index.size(), 3u);
}

TEST(DigramIndexTest, MatchesAMapUnderRandomOperations) {
  // A small key space keeps clusters long and erases frequent; the op
  // count takes the table through several doublings.
  Rng rng(23);
  DigramIndex index;
  std::unordered_map<uint64_t, uint32_t> ref;
  for (int op = 0; op < 200000; ++op) {
    const uint64_t key = rng.Uniform(4096);
    const uint32_t node = 1 + static_cast<uint32_t>(rng.Uniform(8));
    switch (rng.Uniform(4)) {
      case 0: {
        const auto [it, inserted] = ref.try_emplace(key, node);
        EXPECT_EQ(index.FindOrInsert(key, node), inserted ? 0u : it->second);
        break;
      }
      case 1:
        ref[key] = node;
        index.Assign(key, node);
        break;
      case 2: {
        const auto it = ref.find(key);
        if (it != ref.end() && it->second == node) ref.erase(it);
        index.Erase(key, node);
        break;
      }
      default: {
        const auto it = ref.find(key);
        ASSERT_EQ(index.Find(key), it == ref.end() ? 0u : it->second);
      }
    }
    ASSERT_EQ(index.size(), ref.size());
  }
  EXPECT_GE(index.capacity(), 4 * DigramIndex::kMinSlots);
  for (const auto& [k, n] : Entries(index)) EXPECT_EQ(ref.at(k), n);
}

}  // namespace
}  // namespace ntadoc::compress
