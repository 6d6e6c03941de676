#include "core/pruning.h"

#include <algorithm>
#include <span>

#include "compress/symbols.h"
#include "util/logging.h"

namespace ntadoc::core {

using compress::IsFileSep;
using compress::IsRule;
using compress::RuleIndex;

namespace {

/// Sorts `entries` (distinct ids, counted in `freq`) by id and moves
/// each count from `freq` into its entry, leaving `freq` zero again.
void SettleBuckets(std::vector<PrunedEntry>* entries,
                   std::vector<uint32_t>* freq) {
  std::sort(entries->begin(), entries->end(),
            [](const PrunedEntry& a, const PrunedEntry& b) {
              return a.id < b.id;
            });
  for (PrunedEntry& e : *entries) {
    e.freq = (*freq)[e.id];
    (*freq)[e.id] = 0;
  }
}

}  // namespace

BucketCounter::BucketCounter(uint32_t num_rules, uint32_t dict_size)
    : rule_freq_(num_rules, 0), word_freq_(dict_size, 0) {}

void BucketCounter::Count(std::span<const Symbol> seq) {
  subrules_.clear();
  words_.clear();
  for (Symbol s : seq) {
    if (IsRule(s)) {
      const uint32_t id = RuleIndex(s);
      NTADOC_DCHECK_LT(id, rule_freq_.size());
      if (rule_freq_[id]++ == 0) subrules_.push_back({id, 0});
    } else if (!IsFileSep(s)) {
      NTADOC_DCHECK_LT(s, word_freq_.size());
      if (word_freq_[s]++ == 0) words_.push_back({s, 0});
    }
  }
  SettleBuckets(&subrules_, &rule_freq_);
  SettleBuckets(&words_, &word_freq_);
}

namespace {

/// Stores the bucketed entries at device offset `off`: subrules, then
/// words.
void StoreBuckets(nvm::NvmPool* pool, uint64_t off,
                  const BucketCounter& buckets) {
  const std::vector<PrunedEntry>& subrules = buckets.subrules();
  const std::vector<PrunedEntry>& words = buckets.words();
  if (!subrules.empty()) {
    pool->device().WriteBytes(off, subrules.data(),
                              subrules.size() * sizeof(PrunedEntry));
  }
  if (!words.empty()) {
    pool->device().WriteBytes(off + subrules.size() * sizeof(PrunedEntry),
                              words.data(),
                              words.size() * sizeof(PrunedEntry));
  }
}

/// Allocates and writes one pruned payload. Returns its device offset.
Result<uint64_t> WritePrunedPayload(nvm::NvmPool* pool,
                                    const BucketCounter& buckets) {
  NTADOC_ASSIGN_OR_RETURN(
      const nvm::PoolOffset off,
      pool->AllocArray<PrunedEntry>(buckets.subrules().size() +
                                    buckets.words().size()));
  StoreBuckets(pool, off, buckets);
  return static_cast<uint64_t>(off);
}

Result<uint64_t> WriteRawPayload(nvm::NvmPool* pool,
                                 std::span<const Symbol> seq) {
  NTADOC_ASSIGN_OR_RETURN(const nvm::PoolOffset off,
                          pool->AllocArray<Symbol>(seq.size()));
  if (!seq.empty()) {
    pool->device().WriteBytes(off, seq.data(), seq.size() * sizeof(Symbol));
  }
  return static_cast<uint64_t>(off);
}

}  // namespace

Result<PrunedDag> BuildPrunedDag(const Grammar& grammar, nvm::NvmPool* pool,
                                 bool enable_pruning, PruneStats* stats) {
  PrunedDag dag;
  NTADOC_RETURN_IF_ERROR(grammar.Validate(&dag.layout_order));
  dag.pruned = enable_pruning;
  dag.num_rules = grammar.NumRules();
  dag.num_files = grammar.num_files;

  NTADOC_ASSIGN_OR_RETURN(dag.rule_meta,
                          NvmVector<RuleMeta>::Create(pool, dag.num_rules));
  dag.rule_meta.Resize(dag.num_rules);
  NTADOC_ASSIGN_OR_RETURN(dag.seg_meta,
                          NvmVector<SegmentMeta>::Create(pool, dag.num_files));
  dag.seg_meta.Resize(dag.num_files);

  const uint64_t payload_begin = pool->top();
  BucketCounter buckets(dag.num_rules, grammar.dict_size);
  std::vector<uint32_t> in_degree(dag.num_rules, 0);
  std::vector<RuleMeta> metas(dag.num_rules, RuleMeta{});
  uint64_t raw_symbols = 0;
  uint64_t pruned_entries = 0;

  const auto& root = grammar.rules[0];
  const std::vector<std::pair<uint32_t, uint32_t>> segments =
      grammar.RootSegments();
  NTADOC_CHECK_EQ(segments.size(), dag.num_files);

  // Writes the payload of `seq` (pruned entries or raw symbols), sets its
  // meta fields and counts its subrule edges into in_degree.
  auto write_payload = [&](std::span<const Symbol> seq, uint64_t* off,
                           uint32_t* num_subrules,
                           uint32_t* num_words) -> Status {
    raw_symbols += seq.size();
    if (enable_pruning) {
      buckets.Count(seq);
      NTADOC_ASSIGN_OR_RETURN(*off, WritePrunedPayload(pool, buckets));
      *num_subrules = static_cast<uint32_t>(buckets.subrules().size());
      *num_words = static_cast<uint32_t>(buckets.words().size());
      pruned_entries += buckets.subrules().size() + buckets.words().size();
      for (const auto& e : buckets.subrules()) ++in_degree[e.id];
    } else {
      NTADOC_ASSIGN_OR_RETURN(*off, WriteRawPayload(pool, seq));
      uint32_t subs = 0;
      uint32_t ws = 0;
      for (Symbol s : seq) {
        if (IsRule(s)) {
          ++subs;
          ++in_degree[RuleIndex(s)];
        } else {
          ++ws;
        }
      }
      *num_subrules = subs;
      *num_words = ws;
      pruned_entries += seq.size();
    }
    return Status::OK();
  };

  // Rule payloads, adjacent, in topological (traversal) order. The root's
  // content lives in the segment payloads instead.
  for (uint32_t r : dag.layout_order) {
    if (r == 0) continue;
    const auto& body = grammar.rules[r];
    RuleMeta& m = metas[r];
    m.raw_len = static_cast<uint32_t>(body.size());
    NTADOC_RETURN_IF_ERROR(
        write_payload(body, &m.payload_off, &m.num_subrules, &m.num_words));
    m.out_degree = m.num_subrules;
    m.weight = 0;
  }

  // Segment payloads (the pruned root).
  for (uint32_t f = 0; f < dag.num_files; ++f) {
    const auto [begin, end] = segments[f];
    SegmentMeta sm{};
    NTADOC_RETURN_IF_ERROR(write_payload(
        std::span<const Symbol>(root.data() + begin, end - begin),
        &sm.payload_off, &sm.num_subrules, &sm.num_words));
    dag.seg_meta.Set(f, sm);
  }

  for (uint32_t r = 0; r < dag.num_rules; ++r) {
    metas[r].in_degree = in_degree[r];
    dag.rule_meta.Set(r, metas[r]);
  }

  dag.payload_bytes = pool->top() - payload_begin;
  dag.payload_begin = payload_begin;
  dag.payload_end = pool->top();
  dag.raw_bytes = raw_symbols * sizeof(Symbol);
  if (stats != nullptr) {
    stats->rules = dag.num_rules;
    stats->raw_symbols = raw_symbols;
    stats->pruned_entries = pruned_entries;
    stats->redundancy_eliminated =
        raw_symbols == 0 ? 0.0
                         : 1.0 - static_cast<double>(pruned_entries) /
                                     static_cast<double>(raw_symbols);
  }
  return dag;
}

namespace {

DecodedPayload DecodePayload(const PrunedDag& dag, nvm::NvmPool* pool,
                             uint64_t payload_off, uint32_t num_subrules,
                             uint32_t num_words) {
  DecodedPayload out;
  // Corrupt (e.g. poison-filled) metadata would request an absurd read;
  // return empty instead — the caller's media-error check reports the
  // damage, and this avoids allocating gigabytes for garbage counts.
  {
    const uint64_t cap = pool->device().capacity();
    const uint64_t entry =
        dag.pruned ? sizeof(PrunedEntry) : sizeof(Symbol);
    const uint64_t n =
        static_cast<uint64_t>(num_subrules) + num_words;
    if (payload_off > cap || n > (cap - payload_off) / entry) return out;
  }
  // Zero-copy decode: borrow the payload from the backing store instead
  // of staging it in a host buffer. On an unreadable block the payload
  // comes back empty with the media error counter bumped — the caller's
  // media-error check reports the loss either way.
  if (dag.pruned) {
    const uint64_t n = static_cast<uint64_t>(num_subrules) + num_words;
    if (n == 0) return out;
    auto span =
        pool->device().TryReadTypedSpan<PrunedEntry>(payload_off, n);
    if (!span.ok()) return out;
    const PrunedEntry* buf = *span;
    out.subrules.reserve(num_subrules);
    for (uint32_t i = 0; i < num_subrules; ++i) {
      out.subrules.emplace_back(buf[i].id, buf[i].freq);
    }
    out.words.reserve(num_words);
    for (uint64_t i = num_subrules; i < n; ++i) {
      out.words.emplace_back(buf[i].id, buf[i].freq);
    }
  } else {
    const uint64_t n = static_cast<uint64_t>(num_subrules) + num_words;
    if (n == 0) return out;
    auto span = pool->device().TryReadTypedSpan<Symbol>(payload_off, n);
    if (!span.ok()) return out;
    const Symbol* buf = *span;
    for (uint64_t i = 0; i < n; ++i) {
      const Symbol s = buf[i];
      if (IsRule(s)) {
        out.subrules.emplace_back(RuleIndex(s), 1);
      } else if (!IsFileSep(s)) {
        out.words.emplace_back(s, 1);
      }
    }
  }
  return out;
}

}  // namespace

namespace {

void FillExtent(const PrunedDag& dag, uint64_t meta_off, uint64_t meta_len,
                uint64_t payload_off, uint64_t n, PayloadExtent* extent) {
  if (extent == nullptr) return;
  extent->meta_off = meta_off;
  extent->meta_len = meta_len;
  extent->payload_off = payload_off;
  extent->payload_len =
      n * (dag.pruned ? sizeof(PrunedEntry) : sizeof(Symbol));
}

}  // namespace

DecodedPayload ReadRulePayload(const PrunedDag& dag, nvm::NvmPool* pool,
                               uint32_t r, PayloadExtent* extent) {
  const RuleMeta m = dag.rule_meta.Get(r);
  FillExtent(dag, dag.rule_meta.ElementOffset(r), sizeof(RuleMeta),
             m.payload_off,
             static_cast<uint64_t>(m.num_subrules) + m.num_words, extent);
  return DecodePayload(dag, pool, m.payload_off, m.num_subrules,
                       m.num_words);
}

DecodedPayload ReadSegmentPayload(const PrunedDag& dag, nvm::NvmPool* pool,
                                  uint32_t f, PayloadExtent* extent) {
  const SegmentMeta m = dag.seg_meta.Get(f);
  FillExtent(dag, dag.seg_meta.ElementOffset(f), sizeof(SegmentMeta),
             m.payload_off,
             static_cast<uint64_t>(m.num_subrules) + m.num_words, extent);
  return DecodePayload(dag, pool, m.payload_off, m.num_subrules,
                       m.num_words);
}

namespace {

/// Rewrites one payload's bytes at its original offset after validating
/// the (possibly damaged) metadata against the re-derivation, without
/// flushing them. The encoded bytes are identical to what BuildPrunedDag
/// wrote, so healed blocks still match the init-region integrity hash.
Status RewritePayload(const Grammar& grammar, const PrunedDag& dag,
                      nvm::NvmPool* pool, uint64_t payload_off,
                      uint32_t num_subrules, uint32_t num_words,
                      std::span<const Symbol> body, uint32_t raw_len,
                      bool check_raw_len) {
  auto bad = [](const char* what) {
    return Status::DataLoss(std::string("rederive: metadata mismatch: ") +
                            what);
  };
  if (dag.pruned) {
    BucketCounter buckets(grammar.NumRules(), grammar.dict_size);
    buckets.Count(body);
    const uint64_t entries = buckets.subrules().size() + buckets.words().size();
    if (num_subrules != buckets.subrules().size() ||
        num_words != buckets.words().size()) {
      return bad("entry counts");
    }
    const uint64_t bytes = entries * sizeof(PrunedEntry);
    if (payload_off < dag.payload_begin ||
        payload_off + bytes > dag.payload_end) {
      return bad("payload bounds");
    }
    StoreBuckets(pool, payload_off, buckets);
  } else {
    if (check_raw_len && raw_len != body.size()) return bad("raw length");
    uint32_t subs = 0;
    uint32_t ws = 0;
    for (Symbol s : body) {
      if (IsRule(s)) {
        ++subs;
      } else {
        ++ws;
      }
    }
    if (num_subrules != subs || num_words != ws) return bad("entry counts");
    const uint64_t bytes = body.size() * sizeof(Symbol);
    if (payload_off < dag.payload_begin ||
        payload_off + bytes > dag.payload_end) {
      return bad("payload bounds");
    }
    if (!body.empty()) {
      pool->device().WriteBytes(payload_off, body.data(), bytes);
    }
  }
  return Status::OK();
}

}  // namespace

Status RederiveRulePayload(const Grammar& grammar, const PrunedDag& dag,
                           nvm::NvmPool* pool, uint32_t r) {
  if (r == 0 || r >= dag.num_rules || r >= grammar.NumRules()) {
    return Status::InvalidArgument("rederive: rule index out of range");
  }
  const RuleMeta m = dag.rule_meta.Get(r);
  const auto& body = grammar.rules[r];
  return RewritePayload(grammar, dag, pool, m.payload_off, m.num_subrules,
                        m.num_words, body, m.raw_len,
                        /*check_raw_len=*/true);
}

Status RederiveSegmentPayload(const Grammar& grammar, const PrunedDag& dag,
                              nvm::NvmPool* pool, uint32_t f) {
  if (f >= dag.num_files || grammar.rules.empty()) {
    return Status::InvalidArgument("rederive: segment index out of range");
  }
  // The segment spans exactly as BuildPrunedDag laid them out.
  const auto& root = grammar.rules[0];
  const std::vector<std::pair<uint32_t, uint32_t>> segments =
      grammar.RootSegments();
  if (f >= segments.size()) {
    return Status::DataLoss("rederive: segment spans inconsistent");
  }
  const auto [sb, se] = segments[f];
  const std::span<const Symbol> seg(root.data() + sb, se - sb);
  const SegmentMeta m = dag.seg_meta.Get(f);
  return RewritePayload(grammar, dag, pool, m.payload_off, m.num_subrules,
                        m.num_words, seg, 0, /*check_raw_len=*/false);
}

}  // namespace ntadoc::core
