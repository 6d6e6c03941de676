// Bottom-up summation (Section IV-C, Algorithm 2).
//
// Estimates, for every rule, an upper bound on the size of its
// variable-length analytics structure (distinct-word list, or local
// n-gram list for sequence tasks): once a rule's subrules are all
// "determined", its bound is the sum of their bounds plus its own item
// count. The engine allocates each pool structure at its bound exactly
// once, eliminating the read-modify-write reconstruction traffic that
// dynamic growth on NVM would cause.

#ifndef NTADOC_CORE_SUMMATION_H_
#define NTADOC_CORE_SUMMATION_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace ntadoc::core {

/// Adjacency of the pruned DAG: children[r] lists rule r's unique
/// (subrule, frequency) pairs.
using DagChildren = std::vector<std::vector<std::pair<uint32_t, uint32_t>>>;

/// Runs Algorithm 2 over every rule: returns ub[r] = own_count[r] +
/// sum over unique subrules s of ub[s]. `children` and `own_count` must
/// have equal size; the DAG must be acyclic (guaranteed by the grammar).
///
/// Implemented as an explicit-stack depth-first pass that mirrors the
/// paper's recursion (including the "determined" memoization) without
/// risking stack overflow on deep grammars.
std::vector<uint64_t> BottomUpSummation(const DagChildren& children,
                                        const std::vector<uint64_t>& own_count);

/// Upper bound for a single composite span (e.g. a root file segment):
/// own_count plus the bounds of its unique children.
uint64_t SpanUpperBound(
    const std::vector<std::pair<uint32_t, uint32_t>>& child_entries,
    uint64_t own_count, const std::vector<uint64_t>& rule_bounds);

/// Algorithm 2's host-side inputs and bounds over one pruned DAG. They
/// depend only on the grammar and the pruning setting, never on the
/// task, so every task an init prefix serves reuses them without
/// touching the device.
struct Estimates {
  DagChildren children;             // combined (child, freq) per rule
  std::vector<uint64_t> own_words;  // distinct own words per rule
  std::vector<uint64_t> own_len;    // own word occurrences per rule
  std::vector<uint64_t> explen;     // expansion length per rule
  std::vector<uint64_t> word_ub;    // distinct-word bound per rule
  DagChildren seg_children;         // combined (child, freq) per segment
  std::vector<uint64_t> seg_explen;
  std::vector<uint64_t> seg_word_ub;
  std::vector<uint64_t> seg_own_distinct;  // distinct own words per segment
};

}  // namespace ntadoc::core

#endif  // NTADOC_CORE_SUMMATION_H_
