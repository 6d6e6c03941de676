#include "compress/grammar_merge.h"

#include <algorithm>
#include <utility>

namespace ntadoc::compress {

namespace {

// FNV-1a64 over a rule body's symbols (little-endian byte order is
// irrelevant here: the hash only feeds the in-memory dedup index).
uint64_t HashBody(const std::vector<Symbol>& body) {
  uint64_t h = 1469598103934665603ull;
  for (Symbol s : body) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (s >> shift) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace

GrammarMerger::GrammarMerger() {
  // Empty root; chunks append to it.
  corpus_.grammar.rules.emplace_back();
  corpus_.grammar.num_files = 0;
}

Result<GrammarMerger> GrammarMerger::FromCorpus(CompressedCorpus corpus) {
  NTADOC_RETURN_IF_ERROR(corpus.grammar.Validate());
  GrammarMerger m;
  m.corpus_ = std::move(corpus);
  const std::vector<std::vector<Symbol>>& rules = m.corpus_.grammar.rules;
  m.dedup_.Reserve(rules.size());
  for (uint32_t r = 1; r < rules.size(); ++r) {
    m.dedup_.Insert(HashBody(rules[r]), r);
  }
  return m;
}

Status GrammarMerger::MergeChunk(const Grammar& grammar,
                                 const Dictionary& dict,
                                 const std::vector<std::string>& file_names) {
  if (grammar.rules.empty()) {
    return Status::InvalidArgument("MergeChunk: chunk grammar has no root");
  }
  if (file_names.size() != grammar.num_files) {
    return Status::InvalidArgument(
        "MergeChunk: file_names/num_files mismatch");
  }
  // Word remap. Visiting local ids in ascending order is what reproduces
  // the sequential first-occurrence id assignment (see file comment of
  // grammar_merge.h) — do not reorder.
  std::vector<WordId> word_map(dict.size());
  word_map[kFileSepWord] = kFileSepWord;
  for (WordId id = kFirstWordId; id < dict.size(); ++id) {
    word_map[id] = corpus_.dict.GetOrAdd(dict.Spell(id));
  }

  // Non-root rules, children before parents: TopologicalOrder lists every
  // rule before the rules it references (root first), so the reverse walk
  // guarantees rule_map is populated for every reference we remap.
  const std::vector<uint32_t> topo = grammar.TopologicalOrder();
  constexpr uint32_t kUnmapped = 0xffffffffu;
  std::vector<uint32_t> rule_map(grammar.rules.size(), kUnmapped);
  std::vector<Symbol> body;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const uint32_t r = *it;
    if (r == 0) continue;  // root handled below
    body.clear();
    body.reserve(grammar.rules[r].size());
    for (Symbol s : grammar.rules[r]) {
      if (IsRule(s)) {
        const uint32_t child = rule_map[RuleIndex(s)];
        if (child == kUnmapped) {
          return Status::InvalidArgument(
              "MergeChunk: rule references violate topological order");
        }
        body.push_back(MakeRuleSymbol(child));
      } else {
        if (s >= word_map.size()) {
          return Status::InvalidArgument(
              "MergeChunk: word id out of dictionary range");
        }
        body.push_back(word_map[s]);
      }
    }
    // Hash-cons: reuse any already-merged rule with the same body.
    const uint64_t h = HashBody(body);
    uint32_t merged_id = dedup_.FindIf(h, [&](uint32_t cand) {
      return corpus_.grammar.rules[cand] == body;
    });
    if (merged_id != HashMultimap::kNone) {
      ++stats_.deduped_rules;
    } else {
      merged_id = corpus_.grammar.NumRules();
      corpus_.grammar.rules.push_back(body);
      dedup_.Insert(h, merged_id);
    }
    rule_map[r] = merged_id;
  }

  // Root: append the chunk's remapped top level, preserving file order
  // and the per-file separators.
  std::vector<Symbol>& root = corpus_.grammar.rules[0];
  for (Symbol s : grammar.rules[0]) {
    if (IsRule(s)) {
      const uint32_t child = rule_map[RuleIndex(s)];
      if (child == kUnmapped) {
        return Status::InvalidArgument(
            "MergeChunk: root references unmerged rule");
      }
      root.push_back(MakeRuleSymbol(child));
    } else {
      if (s >= word_map.size()) {
        return Status::InvalidArgument(
            "MergeChunk: root word id out of dictionary range");
      }
      root.push_back(word_map[s]);
    }
  }
  corpus_.grammar.num_files += grammar.num_files;
  corpus_.file_names.insert(corpus_.file_names.end(), file_names.begin(),
                            file_names.end());
  return Status::OK();
}

void GrammarMerger::DedupByExpansion() {
  Grammar& g = corpus_.grammar;
  const uint32_t num_rules = g.NumRules();
  if (num_rules <= 1) return;

  // Polynomial rolling hash of each rule's full expansion, combinable
  // from child hashes without materializing the expansion:
  //   H(ab) = H(a) + P^len(a) * H(b).
  struct ExpHash {
    uint64_t hash = 0;
    uint64_t pow_len = 1;  // P^len mod 2^64
    uint64_t len = 0;
  };
  constexpr uint64_t kP = 1099511628211ull;

  const std::vector<uint32_t> topo = g.TopologicalOrder();
  std::vector<ExpHash> exp(num_rules);
  std::vector<uint32_t> remap(num_rules);
  for (uint32_t r = 0; r < num_rules; ++r) remap[r] = r;
  // Expansion hash (mixed with length) -> canonical rule ids. A hash hit
  // is confirmed by comparing the actual expansions, so a collision can
  // never merge rules that expand differently.
  HashMultimap by_expansion;
  by_expansion.Reserve(num_rules);
  std::vector<Symbol> expansion_a;
  std::vector<Symbol> expansion_b;
  // Children before parents: a parent's hash is computed over already
  // canonicalized children, so two rules whose subtrees differ in
  // structure but not in expansion still hash (and compare) equal.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const uint32_t r = *it;
    if (r == 0) continue;  // the root is never a dedup candidate
    ExpHash x;
    for (Symbol s : g.rules[r]) {
      if (IsRule(s)) {
        const ExpHash& child = exp[remap[RuleIndex(s)]];
        x.hash += x.pow_len * child.hash;
        x.pow_len *= child.pow_len;
        x.len += child.len;
      } else {
        x.hash += x.pow_len * (s + 0x9e3779b97f4a7c15ull);
        x.pow_len *= kP;
        x.len += 1;
      }
    }
    const uint64_t key = x.hash ^ (x.len * 0x2545f4914f6cdd1dull);
    const uint32_t cand = by_expansion.FindIf(key, [&](uint32_t c) {
      if (exp[c].len != x.len || exp[c].hash != x.hash) return false;
      expansion_a.clear();
      expansion_b.clear();
      g.ExpandRule(r, &expansion_a);
      g.ExpandRule(c, &expansion_b);
      return expansion_a == expansion_b;
    });
    if (cand != HashMultimap::kNone) {
      remap[r] = cand;
      ++stats_.deduped_rules;
    } else {
      by_expansion.Insert(key, r);
      exp[r] = x;
    }
  }

  // Keep the rules the root reaches through the remap: a duplicate is
  // never reached, and neither is a rule only duplicates referenced.
  // remap sends every reference to a canonical rule, whose own remap
  // entry is itself.
  constexpr uint32_t kDropped = 0xffffffffu;
  std::vector<uint32_t> new_id(num_rules, kDropped);
  new_id[0] = 0;
  std::vector<uint32_t> stack = {0};
  while (!stack.empty()) {
    const uint32_t r = stack.back();
    stack.pop_back();
    for (Symbol s : g.rules[r]) {
      if (!IsRule(s)) continue;
      const uint32_t child = remap[RuleIndex(s)];
      if (new_id[child] == kDropped) {
        new_id[child] = 0;
        stack.push_back(child);
      }
    }
  }
  // Renumber the survivors in stable order, then move each down to its
  // new id and rewrite its references through remap and the new ids in
  // the same pass (new_id[r] <= r, so no survivor is overwritten before
  // it moves).
  uint32_t kept = 0;
  for (uint32_t r = 0; r < num_rules; ++r) {
    if (new_id[r] != kDropped) new_id[r] = kept++;
  }
  for (uint32_t r = 0; r < num_rules; ++r) {
    if (new_id[r] == kDropped) continue;
    std::vector<Symbol>& body = g.rules[new_id[r]];
    if (new_id[r] != r) body = std::move(g.rules[r]);
    for (Symbol& s : body) {
      if (IsRule(s)) s = MakeRuleSymbol(new_id[remap[RuleIndex(s)]]);
    }
  }
  g.rules.resize(kept);
}

Result<CompressedCorpus> GrammarMerger::Finish() && {
  DedupByExpansion();
  stats_.merged_rules = corpus_.grammar.NumRules() - 1;
  corpus_.grammar.dict_size = corpus_.dict.size();
  NTADOC_RETURN_IF_ERROR(corpus_.grammar.Validate());
  return std::move(corpus_);
}

}  // namespace ntadoc::compress
