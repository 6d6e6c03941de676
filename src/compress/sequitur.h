// Sequitur: linear-time grammar inference (Nevill-Manning & Witten),
// the core compression algorithm TADOC builds on.
//
// Sequitur maintains two invariants while consuming the token stream:
//   * digram uniqueness — no indexable digram (pair of adjacent symbols)
//     occurs more than once without being the body of a rule;
//   * rule utility — every rule (except the root) is used at least twice.
// Repeated digrams become rules; rules whose use count drops to one are
// inlined back. File separators (word id 0) never participate in digrams,
// so they stay at the top level of the root rule and mark file boundaries
// in the final grammar.

#ifndef NTADOC_COMPRESS_SEQUITUR_H_
#define NTADOC_COMPRESS_SEQUITUR_H_

#include <cstdint>
#include <vector>

#include "compress/digram_index.h"
#include "compress/grammar.h"
#include "compress/symbols.h"
#include "util/status.h"

namespace ntadoc::compress {

/// Incremental Sequitur grammar builder. Feed words with Append(), then
/// call Finish() once to obtain the flattened Grammar.
class Sequitur {
 public:
  Sequitur();

  Sequitur(const Sequitur&) = delete;
  Sequitur& operator=(const Sequitur&) = delete;

  /// Appends one token (word id or the file separator) to the stream.
  void Append(WordId word);

  /// Appends a file's tokens followed by the boundary separator.
  void AppendFile(const std::vector<WordId>& words);

  /// Number of Append() calls so far.
  uint64_t tokens_consumed() const { return tokens_; }

  /// Flattens the working representation into a Grammar. `num_files` and
  /// `dict_size` are recorded on the result. The builder must not be used
  /// afterwards.
  Grammar Finish(uint32_t num_files, uint32_t dict_size);

  /// Verifies internal invariants (digram uniqueness over indexable
  /// digrams, rule utility, list consistency). O(grammar size); meant for
  /// tests.
  Status CheckInvariants() const;

 private:
  static constexpr uint32_t kNull = 0;            // node index 0 = null
  static constexpr Symbol kGuardSym = 0xFFFFFFFFu;
  static constexpr Symbol kFreeSym = 0xFFFFFFFEu;

  struct Node {
    Symbol sym = kFreeSym;
    uint32_t prev = kNull;
    uint32_t next = kNull;
    uint32_t aux = 0;  // guard nodes: owning rule id
  };

  struct RuleRec {
    uint32_t guard = kNull;
    uint32_t uses = 0;
    bool alive = false;
  };

  bool IsGuard(uint32_t n) const { return nodes_[n].sym == kGuardSym; }

  /// True if a digram of these two symbols may be indexed/replaced.
  static bool Indexable(Symbol a, Symbol b) {
    return !IsFileSep(a) && !IsFileSep(b);
  }

  static uint64_t DigramKey(Symbol a, Symbol b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  uint32_t NewNode(Symbol sym);
  void FreeNode(uint32_t n);
  uint32_t NewRule();

  /// Links b directly after a.
  void LinkAfter(uint32_t a, uint32_t b);

  /// Erases the index entry for the digram starting at `first` if the
  /// entry points exactly at `first`.
  void RemoveDigram(uint32_t first);

  /// Checks the digram starting at `first`; restructures on a repeat.
  /// Returns true if `first` (and its successor) were consumed.
  bool TryDigram(uint32_t first);

  /// Handles a repeated digram: `newer` and `match` start equal,
  /// non-overlapping digrams.
  void HandleMatch(uint32_t newer, uint32_t match);

  /// Replaces the two nodes starting at `first` with a reference to rule
  /// `r`, then re-checks the junction digrams.
  void ReplacePair(uint32_t first, uint32_t rule_id);

  /// True if node `first` starts the complete body of a non-root rule
  /// (guard, first, second, guard).
  bool IsCompleteRuleBody(uint32_t first) const;

  /// Inlines the (use-count-1) rule referenced by node `n` in place.
  void ExpandRuleAt(uint32_t n);

  /// Decrements the use count of `sym`'s rule (if it is a rule symbol).
  void DecrementUse(Symbol sym);

  /// If `n` is live and references a rule with use count 1, expands it.
  void MaybeExpandUnderused(uint32_t n);

  /// CheckInvariants for one digram index entry: it points at a live
  /// digram with its key and is found from that key.
  Status CheckIndexEntry(uint64_t key, uint32_t first) const;

  std::vector<Node> nodes_;
  std::vector<uint32_t> free_nodes_;
  std::vector<RuleRec> rules_;
  DigramIndex digram_index_;
  uint64_t tokens_ = 0;
  bool finished_ = false;
};

}  // namespace ntadoc::compress

#endif  // NTADOC_COMPRESS_SEQUITUR_H_
