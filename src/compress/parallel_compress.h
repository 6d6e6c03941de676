// Chunk-parallel ingest: sharded Sequitur inference with deterministic
// grammar merge (after rapidgzip's chunked-pipeline architecture).
//
// The single-threaded Compress() runs one Sequitur over the whole
// corpus; building a large container is therefore the dominant cost of
// standing up a serving fleet. ParallelCompress shards the file set into
// balanced chunks (never splitting a document), compresses each chunk
// independently on a util::WorkerPool — each worker owns a private
// Dictionary and Sequitur, so inference needs no locks — and then
// merges the sub-grammars in chunk-index order with GrammarMerger.
//
// Guarantees:
//   * Decoded output (DecodeToTokens: per-file token ids, file order,
//     dictionary contents) is bit-identical to single-threaded
//     Compress() for every chunk/thread count.
//   * The merged container bytes are deterministic: a pure function of
//     (files, chunk plan), independent of thread count and completion
//     order, because workers are joined before the sequential merge.
//   * The grammar differs structurally from the sequential one (rules
//     found per chunk, deduped across chunks), so the compressed size
//     may differ slightly; the bench gate bounds the regression.
//
// Sharding also wins *algorithmically*, not just via thread overlap:
// Sequitur's digram index grows with grammar size, so per-chunk indexes
// are smaller and stay hotter in cache — chunked inference is cheaper
// even on one core (measured in bench/bench_ingest.cc).

#ifndef NTADOC_COMPRESS_PARALLEL_COMPRESS_H_
#define NTADOC_COMPRESS_PARALLEL_COMPRESS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "compress/compressor.h"
#include "compress/format.h"
#include "util/status.h"

namespace ntadoc::compress {

/// Knobs for chunk-parallel ingest.
struct ParallelCompressOptions {
  /// Worker threads; 0 = one per hardware thread.
  uint32_t threads = 0;

  /// Chunk count; 0 = one per worker thread. Clamped to the file count
  /// (a chunk holds at least one whole document) and to what
  /// min_chunk_bytes allows.
  uint32_t chunks = 0;

  /// Auto-chunking floor: chunks are not made smaller than this many
  /// content bytes (avoids degenerate grammars on tiny corpora).
  uint64_t min_chunk_bytes = 64 * 1024;
};

/// Counters for one ParallelCompress/AppendFiles call (and, via the
/// durable container path, epoch-commit appends).
struct ParallelCompressStats {
  uint32_t chunks = 0;        // chunks actually planned
  uint32_t threads = 0;       // workers actually used
  uint64_t merged_rules = 0;  // non-root rules in the merged grammar
  uint64_t deduped_rules = 0;  // rules collapsed onto an equivalent one
  uint64_t append_epochs = 0;  // epoch commits (durable appends only)
  /// Measured wall time of each chunk's compression (encode + Sequitur),
  /// indexed by chunk. Telemetry only — the compressed output is
  /// independent of it. bench_ingest feeds these into its lane-schedule
  /// model to project multi-core ingest makespans from a serial run.
  std::vector<uint64_t> chunk_compute_ns;
};

/// Deterministic chunk plan: contiguous [first, count) file ranges,
/// balanced by content bytes, at least one file per chunk. Exposed for
/// tests and the bench harness.
std::vector<std::pair<size_t, size_t>> PlanChunks(
    const std::vector<InputFile>& files, const ParallelCompressOptions& opts);

/// Chunk-parallel equivalent of Compress() (see file comment).
/// `stats` (optional) receives the call's counters. A single-chunk plan
/// (threads=1 with default chunking, or a corpus too small to split)
/// takes the legacy sequential path and produces bytes identical to
/// Compress() — chunking, merge, and dedup only engage at >= 2 chunks.
Result<CompressedCorpus> ParallelCompress(
    const std::vector<InputFile>& files, const ParallelCompressOptions& opts,
    ParallelCompressStats* stats = nullptr);

/// Streaming append: compresses `new_files` as extra chunk(s) and merges
/// them into `base`, deduping new rules against the existing grammar.
/// `base` is taken by value: a caller that keeps its corpus passes an
/// lvalue and it is copied, one that is done with it moves it in. Decodes
/// identically to a full recompress of the combined file set (same
/// per-file tokens and dictionary); the in-memory merge is pure — the
/// durable epoch-commit path wraps it in core::ContainerStore.
Result<CompressedCorpus> AppendFiles(CompressedCorpus base,
                                     const std::vector<InputFile>& new_files,
                                     const ParallelCompressOptions& opts,
                                     ParallelCompressStats* stats = nullptr);

}  // namespace ntadoc::compress

#endif  // NTADOC_COMPRESS_PARALLEL_COMPRESS_H_
