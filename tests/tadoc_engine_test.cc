// Equivalence tests: DRAM TADOC engine (both traversal strategies) and
// the uncompressed baseline must match the brute-force reference on every
// task.

#include "tadoc/engine.h"

#include <gtest/gtest.h>

#include "baseline/uncompressed.h"
#include "reference_impl.h"
#include "textgen/generator.h"

namespace ntadoc::tadoc {
namespace {

using tests::RandomCorpus;
using tests::ReferenceRun;

struct CorpusCase {
  uint64_t seed;
  uint32_t vocab;
  uint32_t files;
  uint32_t tokens_per_file;
};

class EngineEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<CorpusCase, Task>> {};

TEST_P(EngineEquivalenceTest, TopDownMatchesReference) {
  const auto& [c, task] = GetParam();
  const auto corpus =
      RandomCorpus(c.seed, c.vocab, c.files, c.tokens_per_file);
  const AnalyticsOptions opts;
  const AnalyticsOutput expected = ReferenceRun(corpus, task, opts);
  TadocEngine engine(&corpus,
                     {.traversal = TraversalStrategy::kTopDown});
  auto got = engine.Run(task, opts);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected) << SummarizeOutput(*got) << " vs "
                            << SummarizeOutput(expected);
}

TEST_P(EngineEquivalenceTest, BottomUpMatchesReference) {
  const auto& [c, task] = GetParam();
  const auto corpus =
      RandomCorpus(c.seed, c.vocab, c.files, c.tokens_per_file);
  const AnalyticsOptions opts;
  const AnalyticsOutput expected = ReferenceRun(corpus, task, opts);
  TadocEngine engine(&corpus,
                     {.traversal = TraversalStrategy::kBottomUp});
  auto got = engine.Run(task, opts);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected) << SummarizeOutput(*got) << " vs "
                            << SummarizeOutput(expected);
}

TEST_P(EngineEquivalenceTest, BaselineMatchesReference) {
  const auto& [c, task] = GetParam();
  const auto corpus =
      RandomCorpus(c.seed, c.vocab, c.files, c.tokens_per_file);
  const AnalyticsOptions opts;
  const AnalyticsOutput expected = ReferenceRun(corpus, task, opts);
  nvm::DeviceOptions dev_opts;
  dev_opts.capacity = 64ull << 20;
  auto device = nvm::NvmDevice::Create(dev_opts);
  ASSERT_TRUE(device.ok());
  baseline::UncompressedAnalytics engine(&corpus, device->get());
  auto got = engine.Run(task, opts);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected) << SummarizeOutput(*got) << " vs "
                            << SummarizeOutput(expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineEquivalenceTest,
    ::testing::Combine(
        ::testing::Values(CorpusCase{11, 20, 1, 400},
                          CorpusCase{12, 50, 3, 300},
                          CorpusCase{13, 10, 8, 64},
                          CorpusCase{14, 200, 2, 2000},
                          CorpusCase{15, 5, 40, 30},
                          CorpusCase{16, 100, 6, 500},
                          CorpusCase{17, 30, 1, 3000},
                          CorpusCase{18, 400, 5, 1000}),
        ::testing::ValuesIn(kAllTasks)),
    [](const auto& info) {
      std::string name =
          "seed" + std::to_string(std::get<0>(info.param).seed) + "_";
      std::string t = TaskToString(std::get<1>(info.param));
      for (char ch : t) name.push_back(ch == ' ' ? '_' : ch);
      return name;
    });

// N-gram length sweep for sequence tasks.
class NgramLengthTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(NgramLengthTest, SequenceTasksMatchReference) {
  const uint32_t n = GetParam();
  const auto corpus = RandomCorpus(99, 15, 4, 200);
  AnalyticsOptions opts;
  opts.ngram = n;
  for (Task task : {Task::kSequenceCount, Task::kRankedInvertedIndex}) {
    const AnalyticsOutput expected = ReferenceRun(corpus, task, opts);
    for (auto strat :
         {TraversalStrategy::kTopDown, TraversalStrategy::kBottomUp}) {
      TadocEngine engine(&corpus, {.traversal = strat});
      auto got = engine.Run(task, opts);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, expected)
          << "n=" << n << " task=" << TaskToString(task)
          << " strat=" << TraversalStrategyToString(strat);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ngram, NgramLengthTest, ::testing::Values(2u, 3u, 4u));

TEST(TadocEngineTest, InvalidOptionsRejected) {
  const auto corpus = RandomCorpus(1, 10, 1, 50);
  TadocEngine engine(&corpus);
  AnalyticsOptions bad;
  bad.ngram = 1;
  EXPECT_FALSE(engine.Run(Task::kSequenceCount, bad).ok());
  bad.ngram = 5;
  EXPECT_FALSE(engine.Run(Task::kSequenceCount, bad).ok());
  AnalyticsOptions bad_k;
  bad_k.top_k = 0;
  EXPECT_FALSE(engine.Run(Task::kTermVector, bad_k).ok());
}

TEST(TadocEngineTest, AutoStrategySelection) {
  const auto few = RandomCorpus(2, 10, 2, 100);
  const auto many = RandomCorpus(3, 10, 50, 20);
  auto resolve = [](const compress::CompressedCorpus& corpus, Task task) {
    return ResolveStrategy(TraversalStrategy::kAuto, task, corpus.num_files());
  };
  EXPECT_EQ(resolve(few, Task::kTermVector), TraversalStrategy::kTopDown);
  EXPECT_EQ(resolve(many, Task::kTermVector), TraversalStrategy::kBottomUp);
  // Global tasks stay top-down regardless of file count.
  EXPECT_EQ(resolve(many, Task::kWordCount), TraversalStrategy::kTopDown);
  // An explicit strategy is kept.
  EXPECT_EQ(ResolveStrategy(TraversalStrategy::kTopDown, Task::kTermVector,
                            many.num_files()),
            TraversalStrategy::kTopDown);
  // The engine runs the strategy the policy picks.
  TadocEngine engine(&many);
  RunMetrics m;
  ASSERT_TRUE(engine.Run(Task::kTermVector, {}, &m).ok());
  EXPECT_EQ(m.used_traversal, TraversalStrategy::kBottomUp);
}

TEST(TadocEngineTest, StrategyNamesRoundTrip) {
  for (TraversalStrategy s :
       {TraversalStrategy::kAuto, TraversalStrategy::kTopDown,
        TraversalStrategy::kBottomUp}) {
    auto parsed = ParseTraversalStrategy(TraversalStrategyToString(s));
    ASSERT_TRUE(parsed.ok()) << TraversalStrategyToString(s);
    EXPECT_EQ(*parsed, s);
  }
  // The --traversal= flag values.
  EXPECT_EQ(*ParseTraversalStrategy("auto"), TraversalStrategy::kAuto);
  EXPECT_EQ(*ParseTraversalStrategy("topdown"), TraversalStrategy::kTopDown);
  EXPECT_EQ(*ParseTraversalStrategy("bottomup"), TraversalStrategy::kBottomUp);
  for (const char* bad : {"", "TopDown", "top_down", "bottom", "?"}) {
    const auto parsed = ParseTraversalStrategy(bad);
    EXPECT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(TadocEngineTest, MetricsPopulated) {
  const auto corpus = RandomCorpus(4, 20, 2, 500);
  auto clock = nvm::MakeSimClock();
  nvm::MemoryModel model(nvm::DramProfile(), clock);
  TadocEngine engine(&corpus, {.model = &model});
  RunMetrics m;
  auto got = engine.Run(Task::kWordCount, {}, &m);
  ASSERT_TRUE(got.ok());
  EXPECT_GT(m.traversal_wall_ns, 0u);
  EXPECT_GT(m.TotalSimNs(), 0u);  // charging was active
  EXPECT_EQ(m.used_traversal, TraversalStrategy::kTopDown);
}

TEST(TadocEngineTest, GeneratedDatasetsRoundTrip) {
  // The textgen corpora must compress, validate, and produce matching
  // word counts across engines (smoke-scale).
  auto spec = textgen::DatasetA(0.05);
  auto files = textgen::GenerateCorpus(spec);
  auto corpus = compress::Compress(files);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  const AnalyticsOutput expected =
      ReferenceRun(*corpus, Task::kWordCount, {});
  TadocEngine engine(&*corpus);
  auto got = engine.Run(Task::kWordCount);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, expected);
}

}  // namespace
}  // namespace ntadoc::tadoc
