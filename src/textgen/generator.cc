#include "textgen/generator.h"

#include <algorithm>

#include "util/logging.h"
#include "util/random.h"
#include "util/zipf.h"

namespace ntadoc::textgen {
namespace {

/// Deterministic word spelling for rank `r`: short, pronounceable-ish,
/// unique ("wa", "wb", ..., with a base-26 suffix).
std::string SpellWord(uint32_t rank) {
  std::string s = "w";
  uint32_t v = rank;
  do {
    s.push_back(static_cast<char>('a' + v % 26));
    v /= 26;
  } while (v != 0);
  return s;
}

}  // namespace

CorpusSpec DatasetA(double scale) {
  return {.name = "A",
          .num_files = 1,
          .vocabulary = static_cast<uint32_t>(24000 * scale) + 6000,
          .total_tokens = static_cast<uint64_t>(120000 * scale),
          .zipf_theta = 1.0,
          .num_templates = 250,
          .template_len = 10,
          .template_prob = 0.93,
          .seed = 1001};
}

CorpusSpec DatasetB(double scale) {
  return {.name = "B",
          .num_files = static_cast<uint32_t>(1600 * scale) + 64,
          .vocabulary = static_cast<uint32_t>(48000 * scale) + 8000,
          .total_tokens = static_cast<uint64_t>(480000 * scale),
          .zipf_theta = 1.0,
          .num_templates = 500,
          .template_len = 9,
          .template_prob = 0.92,
          .seed = 1002};
}

CorpusSpec DatasetC(double scale) {
  return {.name = "C",
          .num_files = 4,
          .vocabulary = static_cast<uint32_t>(120000 * scale) + 12000,
          .total_tokens = static_cast<uint64_t>(1200000 * scale),
          .zipf_theta = 1.05,
          .num_templates = 900,
          .template_len = 12,
          .template_prob = 0.94,
          .seed = 1003};
}

CorpusSpec DatasetD(double scale) {
  return {.name = "D",
          .num_files = static_cast<uint32_t>(48 * scale) + 8,
          .vocabulary = static_cast<uint32_t>(240000 * scale) + 16000,
          .total_tokens = static_cast<uint64_t>(3600000 * scale),
          .zipf_theta = 1.05,
          .num_templates = 1600,
          .template_len = 12,
          .template_prob = 0.95,
          .seed = 1004};
}

std::vector<CorpusSpec> AllDatasets(double scale) {
  return {DatasetA(scale), DatasetB(scale), DatasetC(scale),
          DatasetD(scale)};
}

std::vector<compress::InputFile> GenerateCorpus(const CorpusSpec& spec) {
  NTADOC_CHECK_GE(spec.num_files, 1u);
  NTADOC_CHECK_GE(spec.vocabulary, spec.template_len);
  Rng rng(spec.seed);
  ZipfSampler zipf(spec.vocabulary, spec.zipf_theta);

  // Template library: each template is a fixed word sequence; reuse of
  // templates is what creates the phrase-level redundancy Sequitur
  // compresses into rules.
  std::vector<std::vector<uint32_t>> templates(spec.num_templates);
  for (auto& t : templates) {
    t.resize(spec.template_len);
    for (auto& w : t) w = static_cast<uint32_t>(zipf.Sample(rng));
  }
  // Template popularity is itself Zipfian (some phrases are everywhere).
  ZipfSampler template_zipf(std::max<uint32_t>(spec.num_templates, 1), 1.5);

  const uint64_t tokens_per_file =
      std::max<uint64_t>(1, spec.total_tokens / spec.num_files);
  std::vector<compress::InputFile> files(spec.num_files);
  for (uint32_t f = 0; f < spec.num_files; ++f) {
    auto& file = files[f];
    file.name = "doc_" + spec.name + "_" + std::to_string(f) + ".txt";
    std::string& text = file.content;
    text.reserve(tokens_per_file * 6);
    uint64_t emitted = 0;
    while (emitted < tokens_per_file) {
      if (spec.num_templates > 0 && rng.Bernoulli(spec.template_prob)) {
        const auto& t = templates[template_zipf.Sample(rng)];
        for (uint32_t w : t) {
          text.append(SpellWord(w));
          text.push_back(' ');
        }
        emitted += t.size();
      } else {
        for (uint32_t i = 0; i < spec.template_len; ++i) {
          text.append(SpellWord(static_cast<uint32_t>(zipf.Sample(rng))));
          text.push_back(' ');
        }
        emitted += spec.template_len;
      }
      text.push_back('\n');
    }
  }
  return files;
}

}  // namespace ntadoc::textgen
