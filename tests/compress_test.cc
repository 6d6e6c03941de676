// Unit tests for the compression substrate beyond Sequitur itself:
// dictionary, grammar utilities, the merger's hash multimap, container
// format, end-to-end compressor, and the synthetic corpus generator.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "compress/compressor.h"
#include "compress/format.h"
#include "compress/grammar.h"
#include "compress/hash_multimap.h"
#include "textgen/generator.h"
#include "util/hash.h"
#include "util/random.h"

namespace ntadoc::compress {
namespace {

TEST(DictionaryTest, ReservedSeparatorAndDenseIds) {
  Dictionary d;
  EXPECT_EQ(d.size(), kFirstWordId);
  EXPECT_EQ(d.Spell(kFileSepWord), "<file-sep>");
  const WordId a = d.GetOrAdd("alpha");
  const WordId b = d.GetOrAdd("beta");
  EXPECT_EQ(a, kFirstWordId);
  EXPECT_EQ(b, kFirstWordId + 1);
  EXPECT_EQ(d.GetOrAdd("alpha"), a);  // idempotent
  EXPECT_EQ(d.Spell(a), "alpha");
  EXPECT_EQ(d.vocabulary_size(), 2u);
}

TEST(DictionaryTest, FindMissing) {
  Dictionary d;
  EXPECT_EQ(d.Find("nope").status().code(), StatusCode::kNotFound);
}

TEST(DictionaryTest, AddWithIdRequiresDenseOrder) {
  Dictionary d;
  EXPECT_TRUE(d.AddWithId("w1", 1).ok());
  EXPECT_FALSE(d.AddWithId("w5", 5).ok());
}

Grammar TinyGrammar() {
  // R0 -> R1 R1 <sep> ; R1 -> w1 w2
  Grammar g;
  g.rules = {{MakeRuleSymbol(1), MakeRuleSymbol(1), kFileSepWord},
             {1, 2}};
  g.num_files = 1;
  g.dict_size = 3;
  return g;
}

TEST(GrammarTest, ValidateAcceptsWellFormed) {
  EXPECT_TRUE(TinyGrammar().Validate().ok());
}

TEST(GrammarTest, ValidateRejectsBadReferences) {
  Grammar g = TinyGrammar();
  g.rules[1].push_back(MakeRuleSymbol(9));
  EXPECT_EQ(g.Validate().code(), StatusCode::kDataLoss);
}

TEST(GrammarTest, ValidateRejectsCycles) {
  Grammar g = TinyGrammar();
  g.rules[1].push_back(MakeRuleSymbol(1));  // self-cycle
  EXPECT_EQ(g.Validate().code(), StatusCode::kDataLoss);
}

TEST(GrammarTest, ValidateRejectsSeparatorInsideRule) {
  Grammar g = TinyGrammar();
  g.rules[1].push_back(kFileSepWord);
  EXPECT_EQ(g.Validate().code(), StatusCode::kDataLoss);
}

TEST(GrammarTest, ValidateRejectsUnreferencedRule) {
  Grammar g = TinyGrammar();
  g.rules.push_back({1});
  EXPECT_EQ(g.Validate().code(), StatusCode::kDataLoss);
}

TEST(GrammarTest, ValidateRejectsWordOutsideDictionary) {
  Grammar g = TinyGrammar();
  g.rules[1].push_back(g.dict_size);  // one past the last assigned id
  const Status st = g.Validate();
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_NE(st.message().find("dictionary"), std::string::npos) << st;
}

TEST(GrammarTest, ValidateRejectsSeparatorCountMismatch) {
  Grammar g = TinyGrammar();
  g.num_files = 2;  // the root holds one separator
  const Status st = g.Validate();
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_NE(st.message().find("separator count"), std::string::npos) << st;
}

TEST(GrammarTest, ExpandAndLengths) {
  const Grammar g = TinyGrammar();
  EXPECT_EQ(g.ExpandAll(),
            (std::vector<Symbol>{1, 2, 1, 2, kFileSepWord}));
  EXPECT_EQ(g.ExpandedLength(), 5u);
  EXPECT_EQ(g.TotalSymbols(), 5u);
}

TEST(GrammarTest, TopologicalOrderParentsFirst) {
  const Grammar g = TinyGrammar();
  const auto order = g.TopologicalOrder();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
}

TEST(GrammarTest, StatsComputeRatio) {
  const auto stats = ComputeStats(TinyGrammar());
  EXPECT_EQ(stats.num_rules, 2u);
  EXPECT_EQ(stats.expanded_tokens, 5u);
  EXPECT_EQ(stats.root_length, 3u);
  EXPECT_DOUBLE_EQ(stats.compression_ratio, 1.0);
}

// ---- HashMultimap (the merger's rule indexes) ----

/// Every value under `key`, in the order FindIf visits them.
std::vector<uint32_t> Visit(const HashMultimap& map, uint64_t key) {
  std::vector<uint32_t> seen;
  EXPECT_EQ(map.FindIf(key,
                       [&](uint32_t v) {
                         seen.push_back(v);
                         return false;
                       }),
            HashMultimap::kNone);
  return seen;
}

TEST(HashMultimapTest, DuplicateKeysVisitedInInsertionOrder) {
  HashMultimap map;
  const uint64_t k = 0x1234'5678'9abc'def0ull;
  map.Insert(k, 5);
  map.Insert(7, 100);
  map.Insert(k, 1);
  map.Insert(k, 9);
  map.Insert(8, 101);
  map.Insert(k, 3);
  EXPECT_EQ(Visit(map, k), (std::vector<uint32_t>{5, 1, 9, 3}));
  EXPECT_EQ(Visit(map, 7), std::vector<uint32_t>{100});
  EXPECT_TRUE(Visit(map, 9).empty());
  // FindIf stops at the first accepted value.
  EXPECT_EQ(map.FindIf(k, [](uint32_t v) { return v > 4; }), 5u);
  EXPECT_EQ(map.FindIf(k, [](uint32_t v) { return v < 4; }), 1u);
  EXPECT_EQ(map.FindIf(k, [](uint32_t v) { return v == 4; }),
            HashMultimap::kNone);
  EXPECT_EQ(map.size(), 6u);
}

TEST(HashMultimapTest, GrowthThroughSeveralDoublingsKeepsEachKeysOrder) {
  HashMultimap map;
  constexpr uint32_t kEntries = 1000;
  constexpr uint64_t kKeys = 37;
  for (uint32_t v = 0; v < kEntries; ++v) map.Insert(v % kKeys * 977, v);
  EXPECT_EQ(map.size(), kEntries);
  // At most half full: 16 -> 2048 slots is seven doublings.
  EXPECT_EQ(map.capacity(), 2048u);
  for (uint64_t k = 0; k < kKeys; ++k) {
    std::vector<uint32_t> want;
    for (uint32_t v = static_cast<uint32_t>(k); v < kEntries; v += kKeys) {
      want.push_back(v);
    }
    EXPECT_EQ(Visit(map, k * 977), want) << "key " << k;
  }
}

TEST(HashMultimapTest, ReserveSizesForTheCountWithoutGrowth) {
  HashMultimap map;
  map.Reserve(100);
  EXPECT_EQ(map.capacity(), 256u);
  for (uint32_t v = 0; v < 100; ++v) map.Insert(v, v);
  EXPECT_EQ(map.capacity(), 256u);
  map.Reserve(10);  // never shrinks
  EXPECT_EQ(map.capacity(), 256u);
}

TEST(HashMultimapTest, MatchesUnorderedMultimapUnderRandomInserts) {
  // A small key pool keeps clusters long and duplicates frequent; the
  // insert count takes the table through several doublings, so clusters
  // wrap past the last slot and get re-inserted. Every pool key's order
  // is checked after each doubling.
  Rng rng(29);
  std::vector<uint64_t> pool(300);
  for (uint64_t& k : pool) k = rng.Next();
  HashMultimap map;
  std::unordered_multimap<uint64_t, uint32_t> ref;
  std::unordered_map<uint64_t, std::vector<uint32_t>> in_order;
  auto check = [&](uint64_t key) {
    std::vector<uint32_t> got = Visit(map, key);
    EXPECT_EQ(got, in_order[key]) << "key " << key;
    std::vector<uint32_t> want;
    const auto [b, e] = ref.equal_range(key);
    for (auto it = b; it != e; ++it) want.push_back(it->second);
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "key " << key;
  };
  int doublings = 0;
  for (uint32_t v = 0; v < 20000; ++v) {
    const uint64_t key =
        rng.Uniform(8) == 0 ? rng.Next() : pool[rng.Uniform(pool.size())];
    const size_t capacity = map.capacity();
    map.Insert(key, v);
    ref.emplace(key, v);
    in_order[key].push_back(v);
    if (map.capacity() != capacity) {
      ++doublings;
      for (uint64_t k : pool) check(k);
      check(key);
    }
  }
  EXPECT_EQ(map.size(), ref.size());
  EXPECT_GE(doublings, 10);
  for (uint64_t k : pool) check(k);
}

TEST(CompressorTest, RoundTripsText) {
  const std::vector<InputFile> files = {
      {"a.txt", "to be or not to be that is the question"},
      {"b.txt", "to be or not to be whether tis nobler"},
  };
  auto corpus = Compress(files);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  const auto texts = DecodeToText(*corpus);
  ASSERT_EQ(texts.size(), 2u);
  EXPECT_EQ(texts[0], "to be or not to be that is the question");
  EXPECT_EQ(texts[1], "to be or not to be whether tis nobler");
}

TEST(CompressorTest, EmptyInputRejected) {
  EXPECT_EQ(Compress({}).status().code(), StatusCode::kInvalidArgument);
}

TEST(CompressorTest, HandlesEmptyAndWhitespaceFiles) {
  const std::vector<InputFile> files = {
      {"empty.txt", ""}, {"spaces.txt", "   \n\t "}, {"one.txt", "word"}};
  auto corpus = Compress(files);
  ASSERT_TRUE(corpus.ok());
  const auto tokens = DecodeToTokens(*corpus);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_TRUE(tokens[0].empty());
  EXPECT_TRUE(tokens[1].empty());
  EXPECT_EQ(tokens[2].size(), 1u);
}

TEST(FormatTest, SerializeDeserializeRoundTrip) {
  const std::vector<InputFile> files = {
      {"x", "a b c a b c a b c"}, {"y", "c b a c b a"}};
  auto corpus = Compress(files);
  ASSERT_TRUE(corpus.ok());
  const std::string bytes = SerializeCorpus(*corpus);
  auto restored = DeserializeCorpus(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->grammar.rules, corpus->grammar.rules);
  EXPECT_EQ(restored->file_names, corpus->file_names);
  EXPECT_EQ(restored->dict.size(), corpus->dict.size());
  for (WordId w = 0; w < corpus->dict.size(); ++w) {
    EXPECT_EQ(restored->dict.Spell(w), corpus->dict.Spell(w));
  }
}

TEST(FormatTest, DetectsCorruption) {
  auto corpus = Compress({{"x", "a b c d e f g"}});
  ASSERT_TRUE(corpus.ok());
  std::string bytes = SerializeCorpus(*corpus);
  // Flip one byte in the middle.
  bytes[bytes.size() / 2] ^= 0x5A;
  EXPECT_EQ(DeserializeCorpus(bytes).status().code(), StatusCode::kDataLoss);
}

TEST(FormatTest, DetectsTruncation) {
  auto corpus = Compress({{"x", "a b c d e f g"}});
  ASSERT_TRUE(corpus.ok());
  std::string bytes = SerializeCorpus(*corpus);
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(DeserializeCorpus(bytes).ok());
}

/// A container header (magic, version, the three counts) followed by
/// `rest`, sealed with the FNV-1a64 trailer DeserializeCorpus checks
/// first, so a crafted count reaches the parser.
std::string Crafted(uint64_t num_files, uint64_t dict_size,
                    uint64_t num_rules, const std::string& rest = "") {
  std::string out = "NTDC";
  auto put = [&out](auto v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(uint32_t{1});
  put(num_files);
  put(dict_size);
  put(num_rules);
  out += rest;
  put(Fnv1a64(out.data(), out.size()));
  return out;
}

std::string U32(uint32_t v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}
std::string U64(uint64_t v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}

TEST(FormatTest, CraftedCountsAreDataLossNotAborts) {
  // Each count or length is far beyond what the bytes could hold; the
  // parser must refuse it, with the check that names it, before
  // allocating for it.
  struct Case {
    const char* what;
    std::string bytes;
    const char* error;
  };
  const Case cases[] = {
      {"num_files 2^60", Crafted(1ull << 60, 1, 1), "file count"},
      {"dict_size 2^40", Crafted(0, 1ull << 40, 1), "dictionary size"},
      {"num_rules 2^60", Crafted(0, 1, 1ull << 60), "rule count"},
      {"rule length 2^62", Crafted(0, 1, 1, U64(1ull << 62)), "rule length"},
      {"file name length 2^32-1", Crafted(1, 1, 1, U32(0xffffffffu) + "ab"),
       "truncated"},
      {"word length 2^32-1", Crafted(0, 2, 1, U32(0xffffffffu) + "ab"),
       "truncated"},
  };
  for (const Case& c : cases) {
    const Status st = DeserializeCorpus(c.bytes).status();
    EXPECT_EQ(st.code(), StatusCode::kDataLoss) << c.what;
    EXPECT_NE(st.message().find(c.error), std::string::npos)
        << c.what << ": " << st;
  }
  // The same header with honest counts still parses: one empty file, a
  // root holding its separator.
  auto ok = DeserializeCorpus(
      Crafted(1, 1, 1, U32(1) + "f" + U64(1) + U32(kFileSepWord)));
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->file_names, std::vector<std::string>{"f"});
}

TEST(FormatTest, FileRoundTrip) {
  auto corpus = Compress({{"x", "the rain in spain stays mainly"}});
  ASSERT_TRUE(corpus.ok());
  ASSERT_TRUE(SaveCorpus(*corpus, "/tmp/ntadoc_fmt_test.ntdc").ok());
  auto loaded = LoadCorpus("/tmp/ntadoc_fmt_test.ntdc");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->grammar.rules, corpus->grammar.rules);
}

TEST(FormatTest, MissingFileIsIoError) {
  EXPECT_EQ(LoadCorpus("/tmp/definitely_not_here.ntdc").status().code(),
            StatusCode::kIoError);
}

class TextgenTest : public ::testing::TestWithParam<int> {};

TEST_P(TextgenTest, GeneratedCorporaCompressAndValidate) {
  const auto specs = textgen::AllDatasets(0.02);
  const auto& spec = specs[GetParam()];
  const auto files = textgen::GenerateCorpus(spec);
  EXPECT_EQ(files.size(), spec.num_files);
  auto corpus = Compress(files);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  EXPECT_TRUE(corpus->grammar.Validate().ok());
  const auto stats = ComputeStats(corpus->grammar);
  // Template redundancy must yield real compression.
  EXPECT_GT(stats.compression_ratio, 1.5) << "dataset " << spec.name;
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, TextgenTest,
                         ::testing::Values(0, 1, 2, 3));

TEST(TextgenTest, DeterministicForSeed) {
  const auto spec = textgen::DatasetA(0.02);
  const auto a = textgen::GenerateCorpus(spec);
  const auto b = textgen::GenerateCorpus(spec);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[0].content, b[0].content);
}

}  // namespace
}  // namespace ntadoc::compress
