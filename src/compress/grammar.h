// Context-free grammar produced by Sequitur — the TADOC representation.

#ifndef NTADOC_COMPRESS_GRAMMAR_H_
#define NTADOC_COMPRESS_GRAMMAR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "compress/symbols.h"
#include "util/status.h"

namespace ntadoc::compress {

/// A straight-line CFG: rules[0] (R0) derives the whole corpus including
/// file separators; every other rule is referenced at least twice.
struct Grammar {
  /// Rule bodies; index == rule id; rules[0] is the root.
  std::vector<std::vector<Symbol>> rules;

  /// Number of input files (separator count in R0 must equal this).
  uint32_t num_files = 0;

  /// Dictionary ids assigned (upper bound on word ids appearing).
  uint32_t dict_size = 0;

  uint32_t NumRules() const { return static_cast<uint32_t>(rules.size()); }

  /// Total symbols across all rule bodies (compressed size measure).
  uint64_t TotalSymbols() const;

  /// Length of the fully expanded token stream (incl. separators).
  uint64_t ExpandedLength() const;

  /// Fully expands rule `rule_id` into `out` (appends). Iterative;
  /// separators are included.
  void ExpandRule(uint32_t rule_id, std::vector<Symbol>* out) const;

  /// Expands the whole corpus (R0).
  std::vector<Symbol> ExpandAll() const;

  /// The root's file segments, TADOC's per-file unit: one [begin, end)
  /// index range into rules[0] per file separator, in file order, the
  /// separator itself excluded.
  std::vector<std::pair<uint32_t, uint32_t>> RootSegments() const;

  /// Structural validation: root exists, symbol references in range,
  /// rule graph acyclic, every non-root rule referenced, separators only
  /// in the root, separator count == num_files. On success, a non-null
  /// `topo_order` receives TopologicalOrder()'s order, taken from the
  /// validating walk.
  Status Validate(std::vector<uint32_t>* topo_order = nullptr) const;

  /// Rule ids in a topological order where every rule precedes the rules
  /// it references (root first). Reverse it for bottom-up traversal.
  /// Requires a valid (acyclic) grammar.
  std::vector<uint32_t> TopologicalOrder() const;
};

/// Summary statistics used by Table I and the compression reports.
struct GrammarStats {
  uint64_t num_rules = 0;
  uint64_t total_symbols = 0;    // compressed size in symbols
  uint64_t expanded_tokens = 0;  // original size in tokens
  uint64_t root_length = 0;
  uint64_t max_rule_length = 0;
  double compression_ratio = 0.0;  // expanded / compressed
};

GrammarStats ComputeStats(const Grammar& grammar);

}  // namespace ntadoc::compress

#endif  // NTADOC_COMPRESS_GRAMMAR_H_
