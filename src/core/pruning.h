// Pruning with NVM pool management (Section IV-B, Algorithm 1).
//
// Each rule's grammar is trimmed to unique (subrule, frequency) pairs
// followed by unique (word, frequency) pairs, and the pruned payloads of
// all rules are written adjacently into the DAG pool in topological
// order — the traversal then reads the pool near-sequentially, which is
// what restores data locality on the 256 B-granular device. The root rule
// is pruned per file segment so per-file attribution survives.
//
// With pruning disabled (ablation), payloads are the raw symbol
// sequences: duplicated subrules, no frequency aggregation, more NVM
// bytes and more scattered traversal work.

#ifndef NTADOC_CORE_PRUNING_H_
#define NTADOC_CORE_PRUNING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "compress/grammar.h"
#include "core/nvm_vector.h"
#include "nvm/nvm_pool.h"
#include "util/status.h"

namespace ntadoc::core {

using compress::Grammar;
using compress::Symbol;

/// One pruned payload element: a subrule or word id with its in-rule
/// frequency.
struct PrunedEntry {
  uint32_t id;
  uint32_t freq;
};

/// Pool-resident metadata of one rule (the paper's rule metadata:
/// position, degrees, word list size, weight slot).
struct RuleMeta {
  /// Device offset of the pruned payload.
  uint64_t payload_off;

  /// Payload shape: subrule entries come first, then word entries. In
  /// pruned mode these are unique-id counts; in raw mode, occurrence
  /// counts (and the payload is a raw Symbol sequence).
  uint32_t num_subrules;
  uint32_t num_words;

  /// Incoming edges for Kahn traversal (unique parents when pruned,
  /// total references when raw).
  uint32_t in_degree;

  /// Outgoing edges (matches num_subrules interpretation).
  uint32_t out_degree;

  /// Original grammar length of the rule (L_raw, for stats).
  uint32_t raw_len;

  uint32_t reserved;

  /// Rule weight, written during top-down traversal.
  uint64_t weight;
};

/// Pool-resident metadata of one root-rule file segment.
struct SegmentMeta {
  uint64_t payload_off;
  uint32_t num_subrules;
  uint32_t num_words;
};

/// Handle to the pool-resident pruned DAG.
struct PrunedDag {
  NvmVector<RuleMeta> rule_meta;   // [num_rules]
  NvmVector<SegmentMeta> seg_meta;  // [num_files]
  bool pruned = true;
  uint32_t num_rules = 0;
  uint32_t num_files = 0;

  /// Topological order used for payload layout (parents first); rules
  /// are processed in this order so pool reads are near-sequential.
  std::vector<uint32_t> layout_order;

  /// Total payload bytes written (compressed-on-NVM size measure).
  uint64_t payload_bytes = 0;

  /// Device extent holding every rule and segment payload (recorded in
  /// the catalog; scoped salvage classifies damaged blocks against it).
  uint64_t payload_begin = 0;
  uint64_t payload_end = 0;

  /// Grammar bytes before pruning (for the redundancy-elimination stat).
  uint64_t raw_bytes = 0;
};

/// Algorithm 1's bucket step: the distinct subrule ids and the distinct
/// word ids of one rule body or root segment, each with its frequency and
/// each list sorted by id (the deterministic payload layout). File
/// separators are skipped. Counts into dense per-id scratch sized for one
/// grammar and sorts only the distinct ids, so a call allocates nothing
/// once the output lists have grown to the largest body.
class BucketCounter {
 public:
  /// Scratch for rule ids below `num_rules` and word ids below
  /// `dict_size`.
  BucketCounter(uint32_t num_rules, uint32_t dict_size);

  /// Buckets `seq`, whose ids must be below the constructor's bounds.
  /// The lists stay valid until the next call.
  void Count(std::span<const Symbol> seq);

  const std::vector<PrunedEntry>& subrules() const { return subrules_; }
  const std::vector<PrunedEntry>& words() const { return words_; }

 private:
  std::vector<uint32_t> rule_freq_;  // zero between calls
  std::vector<uint32_t> word_freq_;  // zero between calls
  std::vector<PrunedEntry> subrules_;
  std::vector<PrunedEntry> words_;
};

/// Statistics of one pruning run.
struct PruneStats {
  uint64_t rules = 0;
  uint64_t raw_symbols = 0;
  uint64_t pruned_entries = 0;
  double redundancy_eliminated = 0.0;  // 1 - pruned/raw
};

/// Builds the pruned DAG in `pool` (Algorithm 1 applied to every rule and
/// to each root segment). When `enable_pruning` is false the payloads are
/// raw symbol sequences instead.
Result<PrunedDag> BuildPrunedDag(const Grammar& grammar,
                                 nvm::NvmPool* pool, bool enable_pruning,
                                 PruneStats* stats = nullptr);

/// Host-side decoded payload of one rule/segment, read back from the
/// pool with one sequential charged read.
struct DecodedPayload {
  /// (subrule id, frequency) pairs; unique when pruned.
  std::vector<std::pair<uint32_t, uint32_t>> subrules;
  /// (word id, frequency) pairs; unique when pruned.
  std::vector<std::pair<uint32_t, uint32_t>> words;
};

/// Device extents one payload read touches (metadata slot + encoded
/// payload). The engine's decoded-rule cache replays these against a DRAM
/// cost model on a cache hit instead of re-reading the device.
struct PayloadExtent {
  uint64_t meta_off = 0;
  uint64_t meta_len = 0;
  uint64_t payload_off = 0;
  uint64_t payload_len = 0;
};

/// Reads rule `r`'s payload. `extent`, when non-null, receives the
/// charged device extents.
DecodedPayload ReadRulePayload(const PrunedDag& dag, nvm::NvmPool* pool,
                               uint32_t r, PayloadExtent* extent = nullptr);

/// Reads file segment `f`'s payload. `extent` as in ReadRulePayload.
DecodedPayload ReadSegmentPayload(const PrunedDag& dag, nvm::NvmPool* pool,
                                  uint32_t f,
                                  PayloadExtent* extent = nullptr);

/// Scoped salvage: re-derives rule `r`'s payload from the compressed
/// container and rewrites it byte-exactly at its original pool offset
/// (payload layout is deterministic, so the init-region integrity hash
/// still verifies afterward). The rule's metadata must be readable and
/// consistent with the re-derivation; returns DataLoss when it is not.
/// The bytes are stored, not flushed: the caller flushes them.
Status RederiveRulePayload(const Grammar& grammar, const PrunedDag& dag,
                           nvm::NvmPool* pool, uint32_t r);

/// Scoped salvage for file segment `f`'s payload; see RederiveRulePayload.
Status RederiveSegmentPayload(const Grammar& grammar, const PrunedDag& dag,
                              nvm::NvmPool* pool, uint32_t f);

}  // namespace ntadoc::core

#endif  // NTADOC_CORE_PRUNING_H_
