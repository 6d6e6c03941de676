// Cross-module integration tests: full pipeline (generate -> compress ->
// persist container -> load -> analyze on three engines), edge-case
// corpora, and engine re-use / signature-mismatch behaviour.

#include <gtest/gtest.h>

#include "baseline/uncompressed.h"
#include "compress/format.h"
#include "core/engine.h"
#include "reference_impl.h"
#include "textgen/generator.h"
#include "util/dram_tracker.h"

namespace ntadoc {
namespace {

using baseline::UncompressedAnalytics;
using compress::CompressedCorpus;
using compress::InputFile;
using core::NTadocEngine;
using core::NTadocOptions;
using tadoc::AnalyticsOptions;
using tadoc::Task;
using tests::ReferenceRun;

std::unique_ptr<nvm::NvmDevice> MakeDevice(uint64_t cap = 256ull << 20) {
  nvm::DeviceOptions opts;
  opts.capacity = cap;
  auto dev = nvm::NvmDevice::Create(opts);
  NTADOC_CHECK(dev.ok());
  return std::move(dev).value();
}

void ExpectAllEnginesAgree(const CompressedCorpus& corpus) {
  for (Task task : tadoc::kAllTasks) {
    const auto expected = ReferenceRun(corpus, task, {});
    tadoc::TadocEngine dram(&corpus);
    auto dram_out = dram.Run(task);
    ASSERT_TRUE(dram_out.ok()) << dram_out.status();
    EXPECT_EQ(*dram_out, expected) << tadoc::TaskToString(task);

    auto nt_dev = MakeDevice();
    NTadocEngine nt(&corpus, nt_dev.get());
    auto nt_out = nt.Run(task);
    ASSERT_TRUE(nt_out.ok()) << nt_out.status();
    EXPECT_EQ(*nt_out, expected) << tadoc::TaskToString(task);

    auto base_dev = MakeDevice();
    UncompressedAnalytics base(&corpus, base_dev.get());
    auto base_out = base.Run(task);
    ASSERT_TRUE(base_out.ok()) << base_out.status();
    EXPECT_EQ(*base_out, expected) << tadoc::TaskToString(task);
  }
}

TEST(IntegrationTest, FullPipelineThroughContainerFile) {
  // Generate, compress, save, reload, and verify all engines agree on
  // the reloaded corpus.
  const auto files = textgen::GenerateCorpus(textgen::DatasetB(0.01));
  auto corpus = compress::Compress(files);
  ASSERT_TRUE(corpus.ok());
  const std::string path = "/tmp/ntadoc_integration.ntdc";
  ASSERT_TRUE(compress::SaveCorpus(*corpus, path).ok());
  auto loaded = compress::LoadCorpus(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectAllEnginesAgree(*loaded);
}

TEST(IntegrationTest, SingleWordCorpus) {
  auto corpus = compress::Compress({{"one.txt", "hello"}});
  ASSERT_TRUE(corpus.ok());
  ExpectAllEnginesAgree(*corpus);
}

TEST(IntegrationTest, RepeatedSingleWord) {
  // "a a a a ..." exercises the Sequitur overlap rule and degenerate
  // grammars in every engine.
  std::string text;
  for (int i = 0; i < 200; ++i) text += "a ";
  auto corpus = compress::Compress({{"rep.txt", text}});
  ASSERT_TRUE(corpus.ok());
  ExpectAllEnginesAgree(*corpus);
}

TEST(IntegrationTest, FilesShorterThanNgram) {
  // Files with 0..2 tokens produce no 3-grams but must not break any
  // per-file task.
  auto corpus = compress::Compress({{"empty.txt", ""},
                                    {"one.txt", "solo"},
                                    {"two.txt", "pair here"},
                                    {"long.txt", "a b c d e f g h"}});
  ASSERT_TRUE(corpus.ok());
  ExpectAllEnginesAgree(*corpus);
}

TEST(IntegrationTest, IdenticalFiles) {
  // Maximum cross-file redundancy: rules shared by every file; per-file
  // attribution must still be exact.
  std::vector<InputFile> files(6, {"f", "x y z x y z x y z w"});
  for (size_t i = 0; i < files.size(); ++i) {
    files[i].name += std::to_string(i);  // "f0", "f1", ...
  }
  auto corpus = compress::Compress(files);
  ASSERT_TRUE(corpus.ok());
  ExpectAllEnginesAgree(*corpus);
}

TEST(IntegrationTest, EngineReusableAcrossTasksAndRuns) {
  const auto corpus = tests::RandomCorpus(71, 25, 3, 300);
  auto device = MakeDevice();
  NTadocEngine engine(&corpus, device.get());
  // Same task twice (second run reuses the device after a completed
  // marker), then a different task (signature mismatch: fresh init).
  auto a = engine.Run(Task::kWordCount);
  ASSERT_TRUE(a.ok()) << a.status();
  auto b = engine.Run(Task::kWordCount);
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(*a, *b);
  auto c = engine.Run(Task::kInvertedIndex);
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_EQ(*c, ReferenceRun(corpus, Task::kInvertedIndex, {}));
}

TEST(IntegrationTest, SignatureMismatchForcesFreshInit) {
  const auto corpus = tests::RandomCorpus(72, 25, 3, 300);
  auto device = MakeDevice();
  {
    NTadocEngine engine(&corpus, device.get());
    ASSERT_TRUE(engine.Run(Task::kWordCount).ok());
  }
  // A different configuration on the same device must not attach to the
  // old pool.
  NTadocOptions other;
  other.enable_pruning = false;
  NTadocEngine engine(&corpus, device.get(), other);
  auto out = engine.Run(Task::kWordCount);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_FALSE(engine.run_info().init_phase_reused);
  EXPECT_EQ(*out, ReferenceRun(corpus, Task::kWordCount, {}));
}

TEST(IntegrationTest, TopKVariants) {
  const auto corpus = tests::RandomCorpus(73, 40, 4, 400);
  for (uint32_t k : {1u, 3u, 100u}) {
    AnalyticsOptions opts;
    opts.top_k = k;
    const auto expected = ReferenceRun(corpus, Task::kTermVector, opts);
    auto device = MakeDevice();
    NTadocEngine engine(&corpus, device.get());
    auto got = engine.Run(Task::kTermVector, opts);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, expected) << "k=" << k;
  }
}

TEST(IntegrationTest, DramSavingsDirection) {
  // N-TADOC's tracked DRAM working set must be far below TADOC's
  // (corpus + intermediates) — the direction of Section VI-C.
  const auto files = textgen::GenerateCorpus(textgen::DatasetA(0.05));
  auto corpus = compress::Compress(files);
  ASSERT_TRUE(corpus.ok());

  DramUsageScope tadoc_scope;
  tadoc::TadocEngine dram(&*corpus);
  ASSERT_TRUE(dram.Run(Task::kWordCount).ok());
  const uint64_t tadoc_peak = tadoc_scope.PeakDelta();

  auto device = MakeDevice();
  DramUsageScope nt_scope;
  NTadocEngine nt(&*corpus, device.get());
  ASSERT_TRUE(nt.Run(Task::kWordCount).ok());
  const uint64_t nt_peak = nt_scope.PeakDelta();

  EXPECT_LT(nt_peak, tadoc_peak);
}

TEST(IntegrationTest, DeviceImagePersistsAcrossProcessBoundary) {
  // Simulated "restart in a new process": save the device image after a
  // crash, load it into a brand-new device, recover there.
  const auto corpus = tests::RandomCorpus(74, 20, 3, 250);
  const auto expected = ReferenceRun(corpus, Task::kWordCount, {});
  nvm::DeviceOptions dopts;
  dopts.capacity = 128ull << 20;
  dopts.strict_persistence = true;
  auto dev1 = nvm::NvmDevice::Create(dopts);
  ASSERT_TRUE(dev1.ok());
  NTadocOptions opts;
  opts.persistence = core::PersistenceMode::kOperation;
  opts.crash_after_traversal_steps = 6;
  {
    NTadocEngine engine(&corpus, dev1->get(), opts);
    ASSERT_FALSE(engine.Run(Task::kWordCount).ok());
  }
  const std::string image = "/tmp/ntadoc_restart.img";
  ASSERT_TRUE((*dev1)->SaveImage(image).ok());

  auto dev2 = nvm::NvmDevice::Create(dopts);
  ASSERT_TRUE(dev2.ok());
  ASSERT_TRUE((*dev2)->LoadImage(image).ok());
  opts.crash_after_traversal_steps = 0;
  NTadocEngine engine(&corpus, dev2->get(), opts);
  auto got = engine.Run(Task::kWordCount);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, expected);
  EXPECT_TRUE(engine.run_info().init_phase_reused);
}

}  // namespace
}  // namespace ntadoc
