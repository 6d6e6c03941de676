// Unit tests for the N-TADOC building blocks: NvmVector, NvmHashTable
// (Figure 4), pruning (Algorithm 1), bottom-up summation (Algorithm 2),
// head/tail structures and boundary-window scanning.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "compress/compressor.h"
#include "core/nvm_hash_table.h"
#include "core/nvm_vector.h"
#include "core/pruning.h"
#include "core/summation.h"
#include "reference_impl.h"
#include "tadoc/head_tail.h"
#include "tadoc/windows.h"
#include "util/random.h"

namespace ntadoc::core {
namespace {

using compress::Grammar;
using compress::kFileSepWord;
using compress::MakeRuleSymbol;
using compress::Symbol;

struct PoolFixture {
  std::unique_ptr<nvm::NvmDevice> device;
  std::optional<nvm::NvmPool> pool;

  explicit PoolFixture(uint64_t capacity = 32ull << 20) {
    nvm::DeviceOptions opts;
    opts.capacity = capacity;
    auto dev = nvm::NvmDevice::Create(opts);
    NTADOC_CHECK(dev.ok());
    device = std::move(dev).value();
    auto p = nvm::NvmPool::Create(device.get(), 0, capacity);
    NTADOC_CHECK(p.ok());
    pool.emplace(std::move(p).value());
  }
};

TEST(NvmVectorTest, PushBackAndGet) {
  PoolFixture fx;
  auto v = NvmVector<uint32_t>::Create(&*fx.pool, 4);
  ASSERT_TRUE(v.ok());
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(v->PushBack(i * 10).ok());
  }
  EXPECT_EQ(v->PushBack(99).code(), StatusCode::kResourceExhausted);
  for (uint32_t i = 0; i < 4; ++i) EXPECT_EQ(v->Get(i), i * 10);
}

TEST(NvmVectorTest, BulkRangesAndZeroFill) {
  PoolFixture fx;
  auto v = NvmVector<uint64_t>::Create(&*fx.pool, 1000);
  ASSERT_TRUE(v.ok());
  v->ZeroFill(1000);
  std::vector<uint64_t> src(500);
  for (size_t i = 0; i < src.size(); ++i) src[i] = i * i;
  v->WriteRange(100, 500, src.data());
  std::vector<uint64_t> dst(500);
  v->ReadRange(100, 500, dst.data());
  EXPECT_EQ(src, dst);
  EXPECT_EQ(v->Get(0), 0u);
}

TEST(NvmVectorTest, AttachSeesExistingData) {
  PoolFixture fx;
  auto v = NvmVector<uint32_t>::Create(&*fx.pool, 8);
  ASSERT_TRUE(v.ok());
  v->Resize(8);
  v->Set(3, 1234);
  auto attached =
      NvmVector<uint32_t>::Attach(&*fx.pool, v->offset(), 8, 8);
  EXPECT_EQ(attached.Get(3), 1234u);
}

struct IdentityHash {
  size_t operator()(uint32_t v) const { return Mix64(v); }
};
using TestTable = NvmHashTable<uint32_t, uint64_t, IdentityHash>;

TEST(NvmHashTableTest, PowerOfTwoCapacity) {
  PoolFixture fx;
  auto t = TestTable::Create(&*fx.pool, 100);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->capacity() & (t->capacity() - 1), 0u);
  EXPECT_GE(t->capacity(), 100u);
}

TEST(NvmHashTableTest, AddDeltaAccumulates) {
  PoolFixture fx;
  auto t = TestTable::Create(&*fx.pool, 16);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->AddDelta(5, 3).ok());
  EXPECT_TRUE(t->AddDelta(5, 4).ok());
  EXPECT_TRUE(t->AddDelta(9, 1).ok());
  EXPECT_EQ(*t->Get(5), 7u);
  EXPECT_EQ(*t->Get(9), 1u);
  EXPECT_EQ(t->Get(77).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(t->size(), 2u);
}

TEST(NvmHashTableTest, OverflowReportsResourceExhausted) {
  PoolFixture fx;
  auto t = TestTable::Create(&*fx.pool, 4);
  ASSERT_TRUE(t.ok());
  Status last = Status::OK();
  for (uint32_t k = 1; k <= 64 && last.ok(); ++k) {
    last = t->AddDelta(k, 1);
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
}

TEST(NvmHashTableTest, RebuildPreservesEntries) {
  PoolFixture fx;
  auto small = TestTable::Create(&*fx.pool, 8);
  ASSERT_TRUE(small.ok());
  for (uint32_t k = 1; k <= 8; ++k) {
    ASSERT_TRUE(small->AddDelta(k, k).ok());
  }
  auto big = TestTable::Create(&*fx.pool, 64);
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(small->RebuildInto(&*big).ok());
  for (uint32_t k = 1; k <= 8; ++k) EXPECT_EQ(*big->Get(k), k);
}

class NvmHashTableRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NvmHashTableRandomTest, MatchesStdMap) {
  PoolFixture fx;
  Rng rng(GetParam());
  auto t = TestTable::Create(&*fx.pool, 2000);
  ASSERT_TRUE(t.ok());
  std::map<uint32_t, uint64_t> expected;
  for (int i = 0; i < 5000; ++i) {
    const uint32_t key = 1 + static_cast<uint32_t>(rng.Uniform(1500));
    const uint64_t delta = 1 + rng.Uniform(5);
    expected[key] += delta;
    ASSERT_TRUE(t->AddDelta(key, delta).ok());
  }
  std::vector<std::pair<uint32_t, uint64_t>> got;
  t->Extract(&got);
  std::sort(got.begin(), got.end());
  const std::vector<std::pair<uint32_t, uint64_t>> want(expected.begin(),
                                                        expected.end());
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NvmHashTableRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(NvmHashTableTest, TransactionalAddDeltaThroughRedoLog) {
  nvm::DeviceOptions opts;
  opts.capacity = 32ull << 20;
  auto dev = nvm::NvmDevice::Create(opts);
  ASSERT_TRUE(dev.ok());
  auto log = nvm::RedoLog::Create(dev->get(), 0, 1 << 20);
  ASSERT_TRUE(log.ok());
  auto pool = nvm::NvmPool::Create(dev->get(), 1 << 20, 16ull << 20);
  ASSERT_TRUE(pool.ok());
  auto t = TestTable::Create(&*pool, 64);
  ASSERT_TRUE(t.ok());

  TestTable::Pending pending;
  log->Begin();
  // Several keys, including a repeat, staged in one transaction.
  ASSERT_TRUE(t->AddDeltaTx(3, 5, &*log, &pending).ok());
  ASSERT_TRUE(t->AddDeltaTx(4, 1, &*log, &pending).ok());
  ASSERT_TRUE(t->AddDeltaTx(3, 2, &*log, &pending).ok());
  // Not yet applied.
  EXPECT_EQ(t->Get(3).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(log->Commit().ok());
  EXPECT_EQ(*t->Get(3), 7u);
  EXPECT_EQ(*t->Get(4), 1u);

  // A second txn updating an existing durable key.
  pending.Clear();
  log->Begin();
  ASSERT_TRUE(t->AddDeltaTx(3, 10, &*log, &pending).ok());
  ASSERT_TRUE(t->AddDeltaTx(3, 10, &*log, &pending).ok());
  ASSERT_TRUE(log->Commit().ok());
  EXPECT_EQ(*t->Get(3), 27u);
}

// ---- Pruning (Algorithm 1) ----

compress::CompressedCorpus SmallCorpus() {
  auto c = compress::Compress({{"a", "x y x y x y z q x y"},
                               {"b", "x y z q z q z q"}});
  NTADOC_CHECK(c.ok());
  return std::move(c).value();
}

TEST(PruningTest, EliminatesRedundancyAndKeepsCounts) {
  PoolFixture fx;
  const auto corpus = SmallCorpus();
  PruneStats stats;
  auto dag = BuildPrunedDag(corpus.grammar, &*fx.pool, true, &stats);
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->num_rules, corpus.grammar.NumRules());
  EXPECT_EQ(dag->num_files, 2u);
  EXPECT_GT(stats.redundancy_eliminated, 0.0);
  EXPECT_LE(stats.pruned_entries, stats.raw_symbols);

  // Per-rule payloads: unique ids, frequencies summing to the raw counts.
  for (uint32_t r = 1; r < dag->num_rules; ++r) {
    const auto payload = ReadRulePayload(*dag, &*fx.pool, r);
    std::set<uint32_t> subs;
    uint64_t occurrences = 0;
    for (const auto& [id, freq] : payload.subrules) {
      EXPECT_TRUE(subs.insert(id).second) << "duplicate subrule entry";
      occurrences += freq;
    }
    std::set<uint32_t> words;
    for (const auto& [id, freq] : payload.words) {
      EXPECT_TRUE(words.insert(id).second) << "duplicate word entry";
      occurrences += freq;
    }
    EXPECT_EQ(occurrences, corpus.grammar.rules[r].size());
  }
}

TEST(PruningTest, RawModeKeepsOriginalOrder) {
  PoolFixture fx;
  const auto corpus = SmallCorpus();
  auto dag = BuildPrunedDag(corpus.grammar, &*fx.pool, false, nullptr);
  ASSERT_TRUE(dag.ok());
  for (uint32_t r = 1; r < dag->num_rules; ++r) {
    const auto payload = ReadRulePayload(*dag, &*fx.pool, r);
    EXPECT_EQ(payload.subrules.size() + payload.words.size(),
              corpus.grammar.rules[r].size());
  }
}

TEST(PruningTest, SegmentsPreservePerFileContent) {
  PoolFixture fx;
  const auto corpus = SmallCorpus();
  auto dag = BuildPrunedDag(corpus.grammar, &*fx.pool, true, nullptr);
  ASSERT_TRUE(dag.ok());
  // Sum of all segment + weighted rule word frequencies must equal the
  // total token count (checked indirectly by the engine equivalence
  // tests; here check the segment count and non-emptiness).
  ASSERT_EQ(dag->seg_meta.size(), 2u);
  const auto seg0 = ReadSegmentPayload(*dag, &*fx.pool, 0);
  const auto seg1 = ReadSegmentPayload(*dag, &*fx.pool, 1);
  EXPECT_GT(seg0.subrules.size() + seg0.words.size(), 0u);
  EXPECT_GT(seg1.subrules.size() + seg1.words.size(), 0u);
}

/// The sort-based bucket step BucketCounter replaces: sort every id, then
/// fold runs into (id, frequency) pairs.
std::vector<PrunedEntry> SortedBuckets(std::vector<uint32_t> ids) {
  std::sort(ids.begin(), ids.end());
  std::vector<PrunedEntry> out;
  for (size_t i = 0; i < ids.size();) {
    size_t j = i;
    while (j < ids.size() && ids[j] == ids[i]) ++j;
    out.push_back({ids[i], static_cast<uint32_t>(j - i)});
    i = j;
  }
  return out;
}

bool SameEntries(const std::vector<PrunedEntry>& a,
                 const std::vector<PrunedEntry>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const PrunedEntry& x, const PrunedEntry& y) {
                      return x.id == y.id && x.freq == y.freq;
                    });
}

TEST(PruningTest, BucketCounterMatchesSortBasedReference) {
  // One counter across every span, as BuildPrunedDag uses it, so a count
  // left behind by one call would corrupt a later one. Spans run from
  // empty to 6k symbols (root segments pass 4k), over narrow and wide id
  // ranges.
  constexpr uint32_t kRules = 5000;
  constexpr uint32_t kDict = 3000;
  BucketCounter counter(kRules, kDict);
  Rng rng(31);
  for (int round = 0; round < 300; ++round) {
    const uint32_t len = static_cast<uint32_t>(
        round % 10 == 0 ? 4096 + rng.Uniform(2048) : rng.Uniform(64));
    const uint32_t rule_span = 1 + static_cast<uint32_t>(rng.Uniform(kRules));
    const uint32_t word_span =
        1 + static_cast<uint32_t>(rng.Uniform(kDict - 1));
    std::vector<Symbol> seq;
    std::vector<uint32_t> subs;
    std::vector<uint32_t> words;
    for (uint32_t i = 0; i < len; ++i) {
      switch (rng.Uniform(5)) {
        case 0:
          seq.push_back(kFileSepWord);
          break;
        case 1:
        case 2: {
          const auto id = static_cast<uint32_t>(rng.Uniform(rule_span));
          seq.push_back(MakeRuleSymbol(id));
          subs.push_back(id);
          break;
        }
        default: {
          const auto w = 1 + static_cast<uint32_t>(rng.Uniform(word_span));
          seq.push_back(w);
          words.push_back(w);
        }
      }
    }
    counter.Count(seq);
    ASSERT_TRUE(SameEntries(counter.subrules(), SortedBuckets(subs)))
        << "round " << round << ", " << len << " symbols";
    ASSERT_TRUE(SameEntries(counter.words(), SortedBuckets(words)))
        << "round " << round << ", " << len << " symbols";
  }
}

// ---- Bottom-up summation (Algorithm 2) ----

TEST(SummationTest, PaperFigure1Example) {
  // R0 -> R1 .. R1 R2 (unique children R1, R2); R1 -> R2 + 2 words;
  // R2 -> 2 words. Paper: ub(R2)=2, ub(R1)=4, ub(R0)=6 (own words 0).
  DagChildren children(3);
  children[0] = {{1, 2}, {2, 1}};
  children[1] = {{2, 1}};
  children[2] = {};
  const std::vector<uint64_t> own = {0, 2, 2};
  const auto ub = BottomUpSummation(children, own);
  EXPECT_EQ(ub[2], 2u);
  EXPECT_EQ(ub[1], 4u);
  EXPECT_EQ(ub[0], 6u);
}

TEST(SummationTest, DeepChainIterative) {
  // A 100k-deep chain must not overflow the stack.
  const uint32_t n = 100000;
  DagChildren children(n);
  std::vector<uint64_t> own(n, 1);
  for (uint32_t r = 0; r + 1 < n; ++r) children[r] = {{r + 1, 1}};
  const auto ub = BottomUpSummation(children, own);
  EXPECT_EQ(ub[0], n);
  EXPECT_EQ(ub[n - 1], 1u);
}

TEST(SummationTest, BoundDominatesTrueDistinctCount) {
  // Property: for real grammars, ub(r) >= distinct words in expansion(r).
  const auto corpus = tests::RandomCorpus(77, 30, 2, 400);
  const auto& g = corpus.grammar;
  DagChildren children(g.NumRules());
  std::vector<uint64_t> own(g.NumRules(), 0);
  for (uint32_t r = 1; r < g.NumRules(); ++r) {
    std::map<uint32_t, uint32_t> subs;
    std::set<uint32_t> words;
    for (Symbol s : g.rules[r]) {
      if (compress::IsRule(s)) {
        ++subs[compress::RuleIndex(s)];
      } else {
        words.insert(s);
      }
    }
    children[r].assign(subs.begin(), subs.end());
    own[r] = words.size();
  }
  const auto ub = BottomUpSummation(children, own);
  for (uint32_t r = 1; r < g.NumRules(); ++r) {
    std::vector<Symbol> expansion;
    g.ExpandRule(r, &expansion);
    const std::set<Symbol> distinct(expansion.begin(), expansion.end());
    EXPECT_GE(ub[r], distinct.size()) << "R" << r;
  }
}

// ---- Head/tail + boundary windows ----

TEST(HeadTailTest, ValuesMatchExpansion) {
  const auto corpus = tests::RandomCorpus(88, 12, 2, 300);
  const auto& g = corpus.grammar;
  for (uint32_t n = 2; n <= 4; ++n) {
    const auto ht = tadoc::HeadTailTable::Build(g, n);
    for (uint32_t r = 1; r < g.NumRules(); ++r) {
      std::vector<Symbol> expansion;
      g.ExpandRule(r, &expansion);
      ASSERT_EQ(ht.explen(r), expansion.size());
      const auto head = ht.head(r);
      const auto tail = ht.tail(r);
      const size_t keep = std::min<size_t>(n - 1, expansion.size());
      ASSERT_EQ(head.size(), keep);
      ASSERT_EQ(tail.size(), keep);
      for (size_t i = 0; i < keep; ++i) {
        EXPECT_EQ(head[i], expansion[i]);
        EXPECT_EQ(tail[i], expansion[expansion.size() - keep + i]);
      }
      if (ht.is_short(r)) {
        const auto full = ht.short_expansion(r);
        EXPECT_TRUE(std::equal(full.begin(), full.end(),
                               expansion.begin(), expansion.end()));
      }
    }
  }
}

TEST(WindowScannerTest, TotalWeightedWindowsEqualBruteForce) {
  // Property: sum over rules of weight * local windows == number of
  // n-grams in the expanded text.
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto corpus = tests::RandomCorpus(seed + 300, 10, 3, 250);
    const auto& g = corpus.grammar;
    for (uint32_t n = 2; n <= 4; ++n) {
      const auto ht = tadoc::HeadTailTable::Build(g, n);
      tadoc::WindowScanner scanner(&ht, n);
      // Global weights.
      std::vector<uint64_t> w(g.NumRules(), 0);
      w[0] = 1;
      for (uint32_t r : g.TopologicalOrder()) {
        for (Symbol s : g.rules[r]) {
          if (compress::IsRule(s)) w[compress::RuleIndex(s)] += w[r];
        }
      }
      uint64_t compressed_total = 0;
      for (uint32_t r = 1; r < g.NumRules(); ++r) {
        uint64_t local = 0;
        scanner.Scan(g.rules[r], [&](const tadoc::NgramKey&) { ++local; });
        compressed_total += local * w[r];
      }
      // Root segments.
      const auto& root = g.rules[0];
      uint32_t begin = 0;
      for (uint32_t i = 0; i < root.size(); ++i) {
        if (compress::IsWord(root[i]) && compress::IsFileSep(root[i])) {
          scanner.Scan(
              std::span<const Symbol>(root.data() + begin, i - begin),
              [&](const tadoc::NgramKey&) { ++compressed_total; });
          begin = i + 1;
        }
      }
      uint64_t brute = 0;
      for (const auto& toks : compress::DecodeToTokens(corpus)) {
        if (toks.size() >= n) brute += toks.size() - n + 1;
      }
      EXPECT_EQ(compressed_total, brute) << "seed=" << seed << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace ntadoc::core
