#include "compress/parallel_compress.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "compress/grammar_merge.h"
#include "compress/sequitur.h"
#include "util/timer.h"
#include "util/worker_pool.h"

namespace ntadoc::compress {

namespace {

/// Output slot of one chunk worker. Slots are pre-sized before workers
/// start; each worker writes only its own index, and the pool's Drain
/// publishes the writes to the merging thread.
struct ChunkResult {
  Grammar grammar;
  Dictionary dict;
  std::vector<std::string> file_names;
};

/// Compresses files[first, first+count) exactly as Compress() would:
/// same tokenization, same per-file separator placement.
ChunkResult CompressChunk(const std::vector<InputFile>& files, size_t first,
                          size_t count) {
  ChunkResult out;
  Sequitur seq;
  for (size_t i = first; i < first + count; ++i) {
    out.file_names.push_back(files[i].name);
    seq.AppendFile(EncodeTokens(files[i].content, &out.dict));
  }
  out.grammar =
      seq.Finish(static_cast<uint32_t>(count), out.dict.size());
  return out;
}

Result<CompressedCorpus> MergeChunks(
    GrammarMerger merger, const std::vector<InputFile>& files,
    const std::vector<std::pair<size_t, size_t>>& plan,
    const ParallelCompressOptions& opts, ParallelCompressStats* stats) {
  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  uint32_t threads = opts.threads != 0 ? opts.threads : hw;
  // The chunk plan follows the *requested* thread count (so the output
  // bytes depend only on the flags), but the worker count is clamped to
  // the machine: oversubscribing Sequitur workers on fewer cores just
  // thrashes their digram indexes against each other.
  threads = std::min(threads, hw);
  threads = std::min<uint32_t>(
      threads, std::max<uint32_t>(1, static_cast<uint32_t>(plan.size())));

  std::vector<ChunkResult> results(plan.size());
  std::vector<uint64_t> chunk_ns(plan.size(), 0);
  {
    util::WorkerPool::Options popts;
    popts.workers = threads;
    util::WorkerPool pool(
        popts, [&](uint32_t /*worker*/, uint64_t ticket) {
          const auto [first, count] = plan[ticket];
          WallTimer timer;
          results[ticket] = CompressChunk(files, first, count);
          chunk_ns[ticket] = timer.ElapsedNanos();
        });
    for (uint64_t c = 0; c < plan.size(); ++c) pool.Post(c);
    // Join-before-merge: the barrier is what makes the merge order (and
    // hence the output bytes) independent of completion order.
    pool.Shutdown();
  }

  for (const ChunkResult& r : results) {
    NTADOC_RETURN_IF_ERROR(merger.MergeChunk(r.grammar, r.dict, r.file_names));
  }
  // Finish runs the expansion-dedup pass and settles the rule counts, so
  // the stats snapshot comes after it.
  Result<CompressedCorpus> merged = std::move(merger).Finish();
  if (stats != nullptr && merged.ok()) {
    stats->chunks = static_cast<uint32_t>(plan.size());
    stats->threads = threads;
    stats->merged_rules = merger.stats().merged_rules;
    stats->deduped_rules = merger.stats().deduped_rules;
    stats->chunk_compute_ns = std::move(chunk_ns);
  }
  return merged;
}

}  // namespace

std::vector<std::pair<size_t, size_t>> PlanChunks(
    const std::vector<InputFile>& files, const ParallelCompressOptions& opts) {
  uint64_t total_bytes = 0;
  for (const InputFile& f : files) total_bytes += f.content.size();

  uint32_t want = opts.chunks;
  if (want == 0) {
    want = opts.threads != 0 ? opts.threads
                             : std::max(1u, std::thread::hardware_concurrency());
  }
  // A chunk holds at least one whole document and at least
  // min_chunk_bytes of content (when the corpus has that much).
  want = std::min<uint64_t>(want, files.size());
  if (opts.min_chunk_bytes > 0) {
    const uint64_t by_bytes =
        std::max<uint64_t>(1, total_bytes / opts.min_chunk_bytes);
    want = static_cast<uint32_t>(std::min<uint64_t>(want, by_bytes));
  }
  want = std::max(1u, want);

  // Greedy balance by content bytes: close a chunk once it reaches the
  // even share, but always leave one file for each remaining chunk.
  std::vector<std::pair<size_t, size_t>> plan;
  const uint64_t share = (total_bytes + want - 1) / want;
  size_t first = 0;
  uint64_t acc = 0;
  for (size_t i = 0; i < files.size(); ++i) {
    acc += files[i].content.size();
    const size_t remaining_chunks = want - plan.size();
    const size_t remaining_files = files.size() - (i + 1);
    const bool last_chunk = remaining_chunks == 1;
    // Close on reaching the even share, or as soon as waiting longer
    // would leave fewer files than the chunks still owed one each
    // (closing here leaves remaining_chunks-1 chunks for
    // remaining_files files, so require remaining_files >= that).
    if (!last_chunk &&
        (acc >= share || remaining_files < remaining_chunks)) {
      plan.emplace_back(first, i + 1 - first);
      first = i + 1;
      acc = 0;
    }
  }
  if (first < files.size()) {
    plan.emplace_back(first, files.size() - first);
  }
  return plan;
}

Result<CompressedCorpus> ParallelCompress(const std::vector<InputFile>& files,
                                          const ParallelCompressOptions& opts,
                                          ParallelCompressStats* stats) {
  if (files.empty()) {
    return Status::InvalidArgument("no input files to compress");
  }
  const std::vector<std::pair<size_t, size_t>> plan = PlanChunks(files, opts);
  if (plan.size() == 1) {
    // Nothing to shard: take the legacy sequential path so the container
    // bytes are identical to Compress() (the single-threaded baseline
    // the bench and the differential tests compare against).
    WallTimer timer;
    NTADOC_ASSIGN_OR_RETURN(CompressedCorpus corpus, Compress(files));
    if (stats != nullptr) {
      stats->chunks = 1;
      stats->threads = 1;
      stats->merged_rules = corpus.grammar.NumRules() - 1;
      stats->deduped_rules = 0;
      stats->chunk_compute_ns = {timer.ElapsedNanos()};
    }
    return corpus;
  }
  return MergeChunks(GrammarMerger(), files, plan, opts, stats);
}

Result<CompressedCorpus> AppendFiles(CompressedCorpus base,
                                     const std::vector<InputFile>& new_files,
                                     const ParallelCompressOptions& opts,
                                     ParallelCompressStats* stats) {
  if (new_files.empty()) {
    return Status::InvalidArgument("no files to append");
  }
  // Appends always go through the merger (even a single new chunk must
  // merge into the existing grammar).
  NTADOC_ASSIGN_OR_RETURN(GrammarMerger merger,
                          GrammarMerger::FromCorpus(std::move(base)));
  return MergeChunks(std::move(merger), new_files, PlanChunks(new_files, opts),
                     opts, stats);
}

}  // namespace ntadoc::compress
