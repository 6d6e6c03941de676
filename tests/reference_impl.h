// Brute-force reference analytics used by tests: computes every task
// directly from the decoded token stream with plain containers. All
// engines must match these results exactly.

#ifndef NTADOC_TESTS_REFERENCE_IMPL_H_
#define NTADOC_TESTS_REFERENCE_IMPL_H_

#include <algorithm>
#include <map>
#include <vector>

#include "compress/compressor.h"
#include "tadoc/analytics.h"
#include "tadoc/canonical.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/zipf.h"

namespace ntadoc::tests {

using compress::CompressedCorpus;
using compress::WordId;
using tadoc::AnalyticsOptions;
using tadoc::AnalyticsOutput;
using tadoc::NgramKey;
using tadoc::Task;

/// Computes `task` over the decoded corpus by brute force.
inline AnalyticsOutput ReferenceRun(const CompressedCorpus& corpus,
                                    Task task,
                                    const AnalyticsOptions& opts = {}) {
  const std::vector<std::vector<WordId>> files =
      compress::DecodeToTokens(corpus);
  AnalyticsOutput out;
  out.task = task;

  auto file_ngrams = [&](const std::vector<WordId>& toks) {
    std::map<NgramKey, uint64_t> grams;
    if (toks.size() >= opts.ngram) {
      for (size_t i = 0; i + opts.ngram <= toks.size(); ++i) {
        NgramKey k{};
        for (uint32_t j = 0; j < opts.ngram; ++j) k.words[j] = toks[i + j];
        ++grams[k];
      }
    }
    return grams;
  };

  switch (task) {
    case Task::kWordCount:
    case Task::kSort: {
      std::map<WordId, uint64_t> counts;
      for (const auto& f : files) {
        for (WordId w : f) ++counts[w];
      }
      tadoc::WordCountResult wc(counts.begin(), counts.end());
      if (task == Task::kSort) {
        out.sorted_words = tadoc::CanonicalSort(wc, corpus.dict);
      } else {
        out.word_counts = std::move(wc);
      }
      break;
    }
    case Task::kTermVector: {
      for (const auto& f : files) {
        std::map<WordId, uint64_t> counts;
        for (WordId w : f) ++counts[w];
        out.term_vectors.push_back(tadoc::CanonicalTopK(counts, opts.top_k));
      }
      break;
    }
    case Task::kInvertedIndex: {
      std::map<WordId, std::vector<uint32_t>> postings;
      for (uint32_t fi = 0; fi < files.size(); ++fi) {
        std::vector<WordId> uniq(files[fi].begin(), files[fi].end());
        std::sort(uniq.begin(), uniq.end());
        uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
        for (WordId w : uniq) postings[w].push_back(fi);
      }
      out.inverted_index.assign(postings.begin(), postings.end());
      break;
    }
    case Task::kSequenceCount: {
      std::map<NgramKey, uint64_t> counts;
      for (const auto& f : files) {
        for (const auto& [k, c] : file_ngrams(f)) counts[k] += c;
      }
      out.sequence_counts.assign(counts.begin(), counts.end());
      break;
    }
    case Task::kRankedInvertedIndex: {
      std::map<NgramKey, std::vector<std::pair<uint32_t, uint64_t>>> idx;
      for (uint32_t fi = 0; fi < files.size(); ++fi) {
        for (const auto& [k, c] : file_ngrams(files[fi])) {
          idx[k].emplace_back(fi, c);
        }
      }
      for (auto& [k, postings] : idx) {
        // Ranked: count descending, ties by file ascending.
        std::sort(postings.begin(), postings.end(),
                  [](const auto& a, const auto& b) {
                    if (a.second != b.second) return a.second > b.second;
                    return a.first < b.first;
                  });
        out.ranked_index.emplace_back(k, std::move(postings));
      }
      break;
    }
  }
  return out;
}

/// Builds random multi-file inputs for property tests: Zipfian words
/// with occasional repeated phrases so the grammar has real structure.
inline std::vector<compress::InputFile> RandomInputs(
    uint64_t seed, uint32_t vocab, uint32_t files, uint32_t tokens_per_file,
    double zipf_theta = 1.0) {
  Rng rng(seed);
  ZipfSampler zipf(vocab, zipf_theta);
  // A small phrase library to create compressible repetition.
  std::vector<std::vector<uint32_t>> phrases(8);
  for (auto& p : phrases) {
    p.resize(3 + rng.Uniform(5));
    for (auto& w : p) w = static_cast<uint32_t>(zipf.Sample(rng));
  }
  std::vector<compress::InputFile> inputs(files);
  for (uint32_t f = 0; f < files; ++f) {
    std::string name = "f";
    name += std::to_string(f);
    inputs[f].name = std::move(name);
    std::string& text = inputs[f].content;
    const auto emit = [&text](uint64_t w) {
      text += 't';
      text += std::to_string(w);
      text += ' ';
    };
    uint32_t emitted = 0;
    while (emitted < tokens_per_file) {
      if (rng.Bernoulli(0.4)) {
        for (uint32_t w : phrases[rng.Uniform(phrases.size())]) {
          emit(w);
          ++emitted;
        }
      } else {
        emit(zipf.Sample(rng));
        ++emitted;
      }
    }
  }
  return inputs;
}

/// Compresses RandomInputs into a corpus.
inline CompressedCorpus RandomCorpus(uint64_t seed, uint32_t vocab,
                                     uint32_t files,
                                     uint32_t tokens_per_file,
                                     double zipf_theta = 1.0) {
  auto result = compress::Compress(
      RandomInputs(seed, vocab, files, tokens_per_file, zipf_theta));
  NTADOC_CHECK(result.ok()) << result.status();
  return std::move(result).value();
}

}  // namespace ntadoc::tests

#endif  // NTADOC_TESTS_REFERENCE_IMPL_H_
