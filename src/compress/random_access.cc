#include "compress/random_access.h"

#include <algorithm>

#include "util/logging.h"

namespace ntadoc::compress {

RandomAccessReader::RandomAccessReader(const CompressedCorpus* corpus)
    : corpus_(corpus) {
  NTADOC_CHECK(corpus != nullptr);
  const Grammar& g = corpus->grammar;
  rule_len_.assign(g.NumRules(), 0);
  const std::vector<uint32_t> topo = g.TopologicalOrder();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const uint32_t r = *it;
    uint64_t len = 0;
    for (Symbol s : g.rules[r]) {
      len += IsRule(s) ? rule_len_[RuleIndex(s)] : 1;
    }
    rule_len_[r] = len;
  }
  // Root file segments and their token lengths.
  const auto& root = g.rules[0];
  segments_ = g.RootSegments();
  for (const auto& [begin, end] : segments_) {
    uint64_t len = 0;
    for (uint32_t j = begin; j < end; ++j) {
      len += IsRule(root[j]) ? rule_len_[RuleIndex(root[j])] : 1;
    }
    file_len_.push_back(len);
  }
}

Result<uint64_t> RandomAccessReader::FileLength(uint32_t file) const {
  if (file >= file_len_.size()) {
    return Status::OutOfRange("file index out of range");
  }
  return file_len_[file];
}

void RandomAccessReader::ExtractFromSpan(const std::vector<Symbol>& body,
                                         uint64_t begin, uint64_t end,
                                         uint64_t skip, uint64_t want,
                                         std::vector<WordId>* out) const {
  // Walk the span, skipping whole symbols until the range starts, then
  // descending only into the rules that overlap it.
  for (uint64_t i = begin; i < end && want > 0; ++i) {
    const Symbol s = body[i];
    const uint64_t len = IsRule(s) ? rule_len_[RuleIndex(s)] : 1;
    if (skip >= len) {
      skip -= len;
      continue;
    }
    if (IsRule(s)) {
      const auto& child = corpus_->grammar.rules[RuleIndex(s)];
      const uint64_t before = out->size();
      ExtractFromSpan(child, 0, child.size(), skip, want, out);
      want -= out->size() - before;
    } else {
      out->push_back(s);
      --want;
    }
    skip = 0;
  }
}

Result<std::vector<WordId>> RandomAccessReader::ExtractTokens(
    uint32_t file, uint64_t offset, uint64_t count) const {
  if (file >= segments_.size()) {
    return Status::OutOfRange("file index out of range");
  }
  if (offset + count > file_len_[file]) {
    return Status::OutOfRange("token range exceeds file length");
  }
  std::vector<WordId> out;
  out.reserve(count);
  const auto [begin, end] = segments_[file];
  ExtractFromSpan(corpus_->grammar.rules[0], begin, end, offset, count,
                  &out);
  NTADOC_DCHECK_EQ(out.size(), count);
  return out;
}

Result<std::vector<WordId>> RandomAccessReader::ExtractFile(
    uint32_t file) const {
  NTADOC_ASSIGN_OR_RETURN(const uint64_t len, FileLength(file));
  return ExtractTokens(file, 0, len);
}

Result<std::string> RandomAccessReader::ExtractText(uint32_t file,
                                                    uint64_t offset,
                                                    uint64_t count) const {
  NTADOC_ASSIGN_OR_RETURN(const std::vector<WordId> tokens,
                          ExtractTokens(file, offset, count));
  std::string out;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) out.push_back(' ');
    out.append(corpus_->dict.Spell(tokens[i]));
  }
  return out;
}

}  // namespace ntadoc::compress
