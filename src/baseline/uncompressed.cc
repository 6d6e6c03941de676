#include "baseline/uncompressed.h"

#include <algorithm>

#include "core/nvm_hash_table.h"
#include "core/nvm_vector.h"
#include "nvm/nvm_pool.h"
#include "tadoc/canonical.h"
#include "util/dram_tracker.h"
#include "util/logging.h"
#include "util/timer.h"

namespace ntadoc::baseline {

using compress::IsFileSep;
using compress::Symbol;
using compress::WordId;
using core::NvmHashTable;
using core::NvmVector;
using tadoc::CanonicalSort;
using tadoc::CanonicalTopK;
using tadoc::CanonicalWordCounts;
using tadoc::GramPosting;
using tadoc::NgramKey;
using tadoc::NgramKeyHash;
using tadoc::RankedIndex;

namespace {

/// The baseline operates under the paper's memory budget (20% of the
/// uncompressed dataset), so analytics counters live on the device too.
/// Tables start small and are rebuilt on overflow — the dynamic-growth
/// cost N-TADOC's summation estimator avoids.
using GramTable = NvmHashTable<NgramKey, uint64_t, NgramKeyHash>;

Status GrowGramTable(GramTable* table, nvm::NvmPool* pool) {
  NTADOC_ASSIGN_OR_RETURN(GramTable bigger,
                          GramTable::Create(pool, table->capacity()));
  NTADOC_RETURN_IF_ERROR(table->RebuildInto(&bigger));
  *table = bigger;
  return Status::OK();
}

Status GramAdd(GramTable* table, nvm::NvmPool* pool, const NgramKey& key) {
  Status s = table->AddDelta(key, 1);
  if (s.code() != StatusCode::kResourceExhausted) return s;
  NTADOC_RETURN_IF_ERROR(GrowGramTable(table, pool));
  return table->AddDelta(key, 1);
}

}  // namespace

UncompressedAnalytics::UncompressedAnalytics(const CompressedCorpus* corpus,
                                             nvm::NvmDevice* device)
    : corpus_(corpus), device_(device) {
  NTADOC_CHECK(corpus != nullptr);
  NTADOC_CHECK(device != nullptr);
}

Result<uint64_t> UncompressedAnalytics::LoadStream() {
  const std::vector<Symbol> stream = corpus_->grammar.ExpandAll();
  const uint64_t bytes = stream.size() * sizeof(Symbol);
  // Reading the dataset from the source disk: the stored form is the
  // original text (the dictionary conversion happens while loading).
  uint64_t raw_text_bytes = 0;
  for (Symbol s : stream) {
    raw_text_bytes += corpus_->dict.Spell(s).size() + 1;
  }
  device_->clock().Charge(
      static_cast<uint64_t>(raw_text_bytes * nvm::kSourceDiskNsPerByte));
  if (bytes > device_->capacity()) {
    return Status::ResourceExhausted(
        "token stream does not fit the device: need " +
        std::to_string(bytes) + " bytes");
  }
  // Bulk load with streaming stores; the write charge is the persistence
  // cost, only a fence follows.
  constexpr uint64_t kChunk = 4096;
  const auto* src = reinterpret_cast<const uint8_t*>(stream.data());
  for (uint64_t pos = 0; pos < bytes; pos += kChunk) {
    const uint64_t n = std::min(kChunk, bytes - pos);
    device_->WriteBytes(pos, src + pos, n);
  }
  device_->Drain();
  stream_bytes_ = bytes;
  return static_cast<uint64_t>(stream.size());
}

Result<AnalyticsOutput> UncompressedAnalytics::Run(Task task,
                                                   const AnalyticsOptions& opts,
                                                   RunMetrics* metrics) {
  if (opts.ngram < 2 || opts.ngram > NgramKey::kMaxNgram) {
    return Status::InvalidArgument("ngram must be in [2, 4]");
  }
  WallTimer timer;
  const uint64_t sim0 = device_->clock().NowNanos();

  // ---- Initialization: load the uncompressed stream onto the device and
  // set up the device-resident counter region ----
  NTADOC_ASSIGN_OR_RETURN(const uint64_t num_symbols, LoadStream());
  const uint64_t pool_base = (stream_bytes_ + 4095) & ~4095ull;
  NTADOC_ASSIGN_OR_RETURN(
      auto pool, nvm::NvmPool::Create(device_, pool_base,
                                      device_->capacity() - pool_base));
  const uint32_t dict_size = corpus_->grammar.dict_size;
  const bool word_task =
      task == Task::kWordCount || task == Task::kSort ||
      task == Task::kTermVector || task == Task::kInvertedIndex;
  NvmVector<uint64_t> counts;
  GramTable grams;
  if (word_task) {
    NTADOC_ASSIGN_OR_RETURN(counts,
                            NvmVector<uint64_t>::Create(&pool, dict_size));
    counts.ZeroFill(dict_size);
  } else {
    NTADOC_ASSIGN_OR_RETURN(grams, GramTable::Create(&pool, 1024));
  }
  const uint64_t init_wall = timer.ElapsedNanos();
  const uint64_t init_sim = device_->clock().NowNanos() - sim0;
  timer.Reset();

  // ---- Traversal: stream the tokens through the task kernel ----
  const uint32_t num_files = corpus_->num_files();
  AnalyticsOutput out;
  out.task = task;

  // Chunked sequential reader.
  constexpr uint64_t kChunkSyms = 1024;
  std::vector<Symbol> buf(kChunkSyms);
  auto for_each_symbol = [&](auto&& fn) -> Status {
    for (uint64_t pos = 0; pos < num_symbols; pos += kChunkSyms) {
      const uint64_t n = std::min(kChunkSyms, num_symbols - pos);
      device_->ReadBytes(pos * sizeof(Symbol), buf.data(),
                         n * sizeof(Symbol));
      for (uint64_t i = 0; i < n; ++i) {
        NTADOC_RETURN_IF_ERROR(fn(buf[i]));
      }
    }
    return Status::OK();
  };

  switch (task) {
    case Task::kWordCount:
    case Task::kSort: {
      NTADOC_RETURN_IF_ERROR(for_each_symbol([&](Symbol s) -> Status {
        if (!IsFileSep(s)) counts.Set(s, counts.Get(s) + 1);
        return Status::OK();
      }));
      tracked::vector<uint64_t> host(dict_size);
      counts.ReadRange(0, dict_size, host.data());
      tadoc::WordCountResult wc = CanonicalWordCounts(host);
      if (task == Task::kSort) {
        out.sorted_words = CanonicalSort(wc, corpus_->dict);
      } else {
        out.word_counts = std::move(wc);
      }
      break;
    }
    case Task::kTermVector:
    case Task::kInvertedIndex: {
      const bool want_tv = task == Task::kTermVector;
      if (want_tv) out.term_vectors.resize(num_files);
      std::vector<std::vector<uint32_t>> postings;
      if (!want_tv) postings.resize(dict_size);
      tracked::vector<WordId> touched;
      uint32_t file = 0;
      auto flush_file = [&]() {
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()),
                      touched.end());
        if (want_tv) {
          tracked::vector<std::pair<WordId, uint64_t>> fc;
          fc.reserve(touched.size());
          for (WordId w : touched) fc.emplace_back(w, counts.Get(w));
          out.term_vectors[file] = CanonicalTopK(fc, opts.top_k);
        } else {
          for (WordId w : touched) postings[w].push_back(file);
        }
        for (WordId w : touched) counts.Set(w, 0);
        touched.clear();
      };
      NTADOC_RETURN_IF_ERROR(for_each_symbol([&](Symbol s) -> Status {
        if (IsFileSep(s)) {
          flush_file();
          ++file;
          return Status::OK();
        }
        const uint64_t v = counts.Get(s);
        if (v == 0) touched.push_back(s);
        counts.Set(s, v + 1);
        return Status::OK();
      }));
      if (!want_tv) {
        for (WordId w = compress::kFirstWordId; w < postings.size(); ++w) {
          if (!postings[w].empty()) {
            out.inverted_index.emplace_back(w, std::move(postings[w]));
          }
        }
      }
      break;
    }
    case Task::kSequenceCount: {
      const uint32_t n = opts.ngram;
      NgramKey window{};
      uint32_t filled = 0;
      NTADOC_RETURN_IF_ERROR(for_each_symbol([&](Symbol s) -> Status {
        if (IsFileSep(s)) {
          filled = 0;
          window = NgramKey{};
          return Status::OK();
        }
        for (uint32_t i = 0; i + 1 < n; ++i) {
          window.words[i] = window.words[i + 1];
        }
        window.words[n - 1] = s;
        if (filled < n) ++filled;
        if (filled == n) {
          NTADOC_RETURN_IF_ERROR(GramAdd(&grams, &pool, window));
        }
        return Status::OK();
      }));
      tracked::vector<std::pair<NgramKey, uint64_t>> host;
      grams.Extract(&host);
      std::sort(host.begin(), host.end());
      out.sequence_counts.assign(host.begin(), host.end());
      break;
    }
    case Task::kRankedInvertedIndex: {
      const uint32_t n = opts.ngram;
      std::vector<GramPosting> postings;
      uint32_t file = 0;
      NgramKey window{};
      uint32_t filled = 0;
      auto flush_file = [&]() {
        tracked::vector<std::pair<NgramKey, uint64_t>> host;
        grams.Extract(&host);
        for (const auto& [k, c] : host) postings.push_back({k, file, c});
        grams.Clear();
      };
      NTADOC_RETURN_IF_ERROR(for_each_symbol([&](Symbol s) -> Status {
        if (IsFileSep(s)) {
          flush_file();
          ++file;
          filled = 0;
          window = NgramKey{};
          return Status::OK();
        }
        for (uint32_t i = 0; i + 1 < n; ++i) {
          window.words[i] = window.words[i + 1];
        }
        window.words[n - 1] = s;
        if (filled < n) ++filled;
        if (filled == n) {
          NTADOC_RETURN_IF_ERROR(GramAdd(&grams, &pool, window));
        }
        return Status::OK();
      }));
      out.ranked_index = RankedIndex(std::move(postings));
      break;
    }
  }

  if (metrics != nullptr) {
    metrics->init_wall_ns = init_wall;
    metrics->init_sim_ns = init_sim;
    metrics->traversal_wall_ns = timer.ElapsedNanos();
    metrics->traversal_sim_ns = device_->clock().NowNanos() - sim0 - init_sim;
    metrics->used_traversal = tadoc::TraversalStrategy::kTopDown;
  }
  return out;
}

}  // namespace ntadoc::baseline
