// Pins the container bytes of every ingest path. For textgen's A′–D′ at
// scale 0.02 (default seeds), the FNV-1a digest of SerializeCorpus must
// equal the recorded value for:
//   * sequential Compress();
//   * ParallelCompress at 4 threads and 4 chunks (A′ has one file, so
//     one chunk);
//   * AppendFiles of two generated documents onto the Compress() corpus;
//   * a chain of three such appends onto the ParallelCompress corpus, each
//     merging two chunks (the streaming-refresh path: base index, body
//     hash-consing across chunks and the expansion-dedup pass, three
//     times over).
// A change to Sequitur's bookkeeping (its digram index) or to the merge
// that alters which rules are formed changes a digest here, even when
// every decode still round-trips.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compress/compressor.h"
#include "compress/format.h"
#include "compress/parallel_compress.h"
#include "textgen/generator.h"
#include "util/hash.h"

namespace ntadoc {
namespace {

using compress::CompressedCorpus;
using compress::InputFile;
using compress::ParallelCompressOptions;

constexpr double kScale = 0.02;

std::string Digest(const CompressedCorpus& corpus) {
  const std::string bytes = compress::SerializeCorpus(corpus);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(
                    Fnv1a64(bytes.data(), bytes.size())));
  return hex;
}

ParallelCompressOptions FourThreads() {
  ParallelCompressOptions o;
  o.threads = 4;
  o.chunks = 4;
  o.min_chunk_bytes = 1;  // chunk even the small corpora of this scale
  return o;
}

/// Two documents to append: the dataset's shape under its own name and
/// seed `spec.seed + step`.
std::vector<InputFile> AppendedDocs(const textgen::CorpusSpec& spec,
                                    uint64_t step = 1) {
  textgen::CorpusSpec extra = spec;
  extra.name = spec.name + "x";
  extra.num_files = 2;
  extra.total_tokens = 1200;
  extra.seed = spec.seed + step;
  return textgen::GenerateCorpus(extra);
}

struct Pinned {
  const char* dataset;
  const char* compress;
  const char* parallel;
  const char* append;
  const char* chain;
};

constexpr Pinned kPinned[] = {
    {"A", "0af65bbb13d30422", "0af65bbb13d30422", "5d7fdbb02b2d78f5",
     "3e6f9674e097a8a8"},
    {"B", "4317b21dfb0e5923", "9932e3d804bffa0a", "c0303b1af95cccc3",
     "2bc68bffd5266498"},
    {"C", "ad3ce1f23cb444bb", "0364f20b663ee512", "f4755a9dc7d90e40",
     "faafab115499d0c9"},
    {"D", "cc6ab88e6e3d53d0", "788cb1e6e332dd76", "3418d14c95289fa2",
     "23874864387a5d7f"},
};

TEST(ContainerDigestTest, IngestPathsEmitPinnedBytes) {
  const std::vector<textgen::CorpusSpec> specs = textgen::AllDatasets(kScale);
  ASSERT_EQ(specs.size(), std::size(kPinned));
  for (size_t i = 0; i < specs.size(); ++i) {
    const Pinned& want = kPinned[i];
    ASSERT_EQ(specs[i].name, want.dataset);
    SCOPED_TRACE("dataset " + specs[i].name);
    const std::vector<InputFile> files = textgen::GenerateCorpus(specs[i]);

    auto seq = compress::Compress(files);
    ASSERT_TRUE(seq.ok()) << seq.status();
    EXPECT_EQ(Digest(*seq), want.compress) << "Compress";

    auto par = compress::ParallelCompress(files, FourThreads());
    ASSERT_TRUE(par.ok()) << par.status();
    EXPECT_EQ(Digest(*par), want.parallel) << "ParallelCompress";

    CompressedCorpus chain = std::move(par).value();
    for (uint64_t step = 1; step <= 3; ++step) {
      auto next = compress::AppendFiles(std::move(chain),
                                        AppendedDocs(specs[i], step),
                                        FourThreads());
      ASSERT_TRUE(next.ok()) << next.status() << " at append " << step;
      chain = std::move(next).value();
    }
    EXPECT_EQ(Digest(chain), want.chain) << "three chained AppendFiles";

    auto app = compress::AppendFiles(std::move(seq).value(),
                                     AppendedDocs(specs[i]),
                                     ParallelCompressOptions{.threads = 1});
    ASSERT_TRUE(app.ok()) << app.status();
    EXPECT_EQ(Digest(*app), want.append) << "AppendFiles";
  }
}

}  // namespace
}  // namespace ntadoc
