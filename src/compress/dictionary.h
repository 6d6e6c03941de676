// Word dictionary: the TADOC "dictionary conversion" that digitizes text.

#ifndef NTADOC_COMPRESS_DICTIONARY_H_
#define NTADOC_COMPRESS_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "compress/symbols.h"
#include "util/status.h"

namespace ntadoc::compress {

/// Bidirectional word <-> id mapping. Id 0 is the reserved file separator
/// (rendered as "<file-sep>"); real words get ids from kFirstWordId up.
///
/// Lookups are heterogeneous: GetOrAdd/Find probe the index with the
/// string_view itself and materialize an owned std::string only when a
/// new word is actually inserted — on the ingest hot path most tokens
/// are repeats, so this removes an allocation per token.
class Dictionary {
 public:
  Dictionary();

  Dictionary(const Dictionary&) = default;
  Dictionary& operator=(const Dictionary&) = default;
  Dictionary(Dictionary&&) = default;
  Dictionary& operator=(Dictionary&&) = default;

  /// Returns the id of `word`, inserting it if new.
  WordId GetOrAdd(std::string_view word);

  /// Returns the id of `word` or NotFound.
  Result<WordId> Find(std::string_view word) const;

  /// Returns the spelling of `id`; CHECK-fails on out-of-range ids.
  const std::string& Spell(WordId id) const;

  /// Total ids assigned, including the reserved separator.
  uint32_t size() const { return static_cast<uint32_t>(words_.size()); }

  /// Distinct real words (excludes the separator).
  uint32_t vocabulary_size() const { return size() - kFirstWordId; }

  /// Re-registers a word under a known id during deserialization; ids must
  /// arrive densely in increasing order.
  Status AddWithId(std::string_view word, WordId id);

  /// Sizes the id table and the index for `size` ids (the separator
  /// included), so loading that many words allocates only their strings
  /// and index nodes.
  void Reserve(uint32_t size);

 private:
  // Transparent hash so find(string_view) needs no temporary string.
  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  // Keys stay owned std::strings (a string_view key into words_ would
  // dangle when small-string storage moves on vector growth).
  std::vector<std::string> words_;
  std::unordered_map<std::string, WordId, TransparentHash, std::equal_to<>>
      index_;
};

}  // namespace ntadoc::compress

#endif  // NTADOC_COMPRESS_DICTIONARY_H_
