// Deterministic merge of per-chunk Sequitur grammars into one CFG.
//
// Chunk-parallel ingest (parallel_compress.h) compresses disjoint file
// ranges independently, each with its own Dictionary and grammar. The
// merger stitches the results back into a single CompressedCorpus:
//
//   * Dictionary remap: chunk-local word ids are translated through
//     GetOrAdd on the merged dictionary, visiting local ids in ascending
//     order. Because a chunk's dictionary lists words in first-occurrence
//     order of that chunk's token stream, merging chunk dictionaries in
//     chunk-index order reproduces *exactly* the id assignment the
//     single-threaded Compress() would have made — which is what makes
//     the decoded token streams (and serialized dictionary section)
//     bit-identical to the sequential build.
//   * Rule remap + hash-cons: non-root rules are merged bottom-up
//     (children before parents, via reverse topological order); each
//     remapped body is hash-consed against every body merged so far, so
//     structurally identical rules across chunks collapse to one id.
//   * Root rebuild: chunk root bodies are concatenated in chunk-index
//     order, preserving global file order and the file-separator layout
//     the root invariant requires.
//   * Expansion dedup (Finish): Sequitur is history-dependent, so the
//     same phrase usually factors into *structurally different* rules in
//     different chunks, which body hash-consing cannot collapse. A final
//     bottom-up pass merges every pair of rules whose full expansions
//     are equal (rolling-hash candidates, confirmed by exact expansion
//     compare), then drops rules no longer reachable from the root. This
//     recovers most of the size lost to chunk-local rule discovery.
//
// Determinism: MergeChunk must be called in chunk-index order (the
// parallel driver joins all workers first, then merges sequentially), so
// the output is a pure function of the input corpus — independent of
// thread count and completion order.
//
// The merged grammar satisfies Grammar::Validate() (acyclic by
// construction: a merged body only references rules merged before it)
// but not Sequitur's internal digram-uniqueness/rule-utility invariants;
// nothing downstream of Compress() depends on those.

#ifndef NTADOC_COMPRESS_GRAMMAR_MERGE_H_
#define NTADOC_COMPRESS_GRAMMAR_MERGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "compress/format.h"
#include "compress/hash_multimap.h"
#include "util/status.h"

namespace ntadoc::compress {

/// Accumulates per-chunk grammars into one corpus (see file comment).
/// Not thread-safe; the caller serializes MergeChunk in chunk order.
class GrammarMerger {
 public:
  struct Stats {
    /// Non-root rules in the finished grammar (set by Finish).
    uint64_t merged_rules = 0;
    /// Rules collapsed onto an equivalent one: body hash-cons hits during
    /// MergeChunk plus expansion-equal merges during Finish.
    uint64_t deduped_rules = 0;
  };

  /// Starts from an empty corpus (fresh parallel build).
  GrammarMerger();

  /// Starts from an existing corpus (streaming append): new chunks merge
  /// into it, deduping against its rules. `corpus` must be valid.
  static Result<GrammarMerger> FromCorpus(CompressedCorpus corpus);

  /// Merges the next chunk. `grammar` must be valid against `dict`
  /// (as produced by Sequitur::Finish), `file_names` sized to its
  /// num_files. Chunks must arrive in chunk-index order.
  Status MergeChunk(const Grammar& grammar, const Dictionary& dict,
                    const std::vector<std::string>& file_names);

  /// Runs the expansion-dedup pass, validates and returns the merged
  /// corpus; the merger is consumed. Read stats() after calling this —
  /// Finish settles the final rule counts.
  Result<CompressedCorpus> Finish() &&;

  const Stats& stats() const { return stats_; }

 private:
  /// Collapses rules with equal full expansions and sweeps unreachable
  /// ones (see file comment). Deterministic: candidates are visited in
  /// reverse topological order of the (deterministic) merged grammar.
  void DedupByExpansion();

  CompressedCorpus corpus_;
  /// Body hash -> merged rule ids with that hash (exact body compare
  /// resolves collisions). Never contains the root.
  HashMultimap dedup_;
  Stats stats_;
};

}  // namespace ntadoc::compress

#endif  // NTADOC_COMPRESS_GRAMMAR_MERGE_H_
