// Pins the container bytes of every ingest path. For textgen's A′–D′ at
// scale 0.02 (default seeds), the FNV-1a digest of SerializeCorpus must
// equal the recorded value for:
//   * sequential Compress();
//   * ParallelCompress at 4 threads and 4 chunks (A′ has one file, so
//     one chunk);
//   * AppendFiles of two generated documents onto the Compress() corpus.
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
/// the next seed.
std::vector<InputFile> AppendedDocs(const textgen::CorpusSpec& spec) {
  textgen::CorpusSpec extra = spec;
  extra.name = spec.name + "x";
  extra.num_files = 2;
  extra.total_tokens = 1200;
  extra.seed = spec.seed + 1;
  return textgen::GenerateCorpus(extra);
}

struct Pinned {
  const char* dataset;
  const char* compress;
  const char* parallel;
  const char* append;
};

constexpr Pinned kPinned[] = {
    {"A", "0af65bbb13d30422", "0af65bbb13d30422", "5d7fdbb02b2d78f5"},
    {"B", "4317b21dfb0e5923", "9932e3d804bffa0a", "c0303b1af95cccc3"},
    {"C", "ad3ce1f23cb444bb", "0364f20b663ee512", "f4755a9dc7d90e40"},
    {"D", "cc6ab88e6e3d53d0", "788cb1e6e332dd76", "3418d14c95289fa2"},
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

    auto app = compress::AppendFiles(std::move(seq).value(),
                                     AppendedDocs(specs[i]),
                                     ParallelCompressOptions{.threads = 1});
    ASSERT_TRUE(app.ok()) << app.status();
    EXPECT_EQ(Digest(*app), want.append) << "AppendFiles";
  }
}

}  // namespace
}  // namespace ntadoc
