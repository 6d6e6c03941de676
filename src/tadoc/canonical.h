// Canonical result construction shared by every engine so that
// DRAM-TADOC, N-TADOC and the uncompressed baseline produce
// bit-identical outputs for identical inputs.

#ifndef NTADOC_TADOC_CANONICAL_H_
#define NTADOC_TADOC_CANONICAL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "compress/dictionary.h"
#include "tadoc/analytics.h"

namespace ntadoc::tadoc {

/// Dense count vector -> (word, count) pairs sorted by word id, zeros and
/// the separator dropped.
template <typename Vec>
WordCountResult CanonicalWordCounts(const Vec& counts) {
  WordCountResult out;
  for (WordId w = compress::kFirstWordId; w < counts.size(); ++w) {
    if (counts[w] != 0) out.emplace_back(w, counts[w]);
  }
  return out;
}

/// Already-sorted (word, count) pairs -> sort-task result ordered by
/// spelling.
template <typename Vec>
SortResult CanonicalSort(const Vec& counts,
                         const compress::Dictionary& dict) {
  SortResult out;
  out.reserve(counts.size());
  for (const auto& [w, c] : counts) out.emplace_back(dict.Spell(w), c);
  std::sort(out.begin(), out.end());
  return out;
}

/// Per-file (word, count) pairs (any order, unique words) -> top-k by
/// count descending, ties by word id ascending.
template <typename Vec>
std::vector<std::pair<WordId, uint64_t>> CanonicalTopK(const Vec& in,
                                                       uint32_t k) {
  std::vector<std::pair<WordId, uint64_t>> counts(in.begin(), in.end());
  std::sort(counts.begin(), counts.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (counts.size() > k) counts.resize(k);
  return counts;
}

/// Sorted merge-accumulate: adds `addend` (sorted by key, unique keys)
/// into `acc` (same ordering), scaling addend counts by `mult`.
template <typename VecA, typename VecB>
void MergeSortedCounts(VecA* acc, const VecB& addend, uint64_t mult = 1) {
  if (addend.empty() || mult == 0) return;
  VecA merged;
  merged.reserve(acc->size() + addend.size());
  size_t i = 0, j = 0;
  while (i < acc->size() && j < addend.size()) {
    if ((*acc)[i].first < addend[j].first) {
      merged.push_back((*acc)[i++]);
    } else if (addend[j].first < (*acc)[i].first) {
      merged.emplace_back(addend[j].first, addend[j].second * mult);
      ++j;
    } else {
      merged.emplace_back((*acc)[i].first,
                          (*acc)[i].second + addend[j].second * mult);
      ++i;
      ++j;
    }
  }
  for (; i < acc->size(); ++i) merged.push_back((*acc)[i]);
  for (; j < addend.size(); ++j) {
    merged.emplace_back(addend[j].first, addend[j].second * mult);
  }
  acc->swap(merged);
}

/// Sorts an arbitrary (key, count) list and combines duplicate keys.
template <typename Vec>
void SortAndCombine(Vec* v) {
  std::sort(v->begin(), v->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t out = 0;
  for (size_t i = 0; i < v->size();) {
    size_t j = i;
    uint64_t total = 0;
    while (j < v->size() && (*v)[j].first == (*v)[i].first) {
      total += (*v)[j].second;
      ++j;
    }
    (*v)[out++] = {(*v)[i].first, total};
    i = j;
  }
  v->resize(out);
}

/// One posting of the ranked inverted index: `count` instances of gram
/// `key` in file `file`.
struct GramPosting {
  NgramKey key;
  uint32_t file;
  uint64_t count;
};

/// Every file's postings (any order, at most one per gram and file, no
/// zero counts) -> the ranked inverted index. One sort puts each gram's
/// postings together in ranked order: count descending, ties by file
/// ascending.
inline RankedInvertedIndexResult RankedIndex(std::vector<GramPosting> p) {
  std::sort(p.begin(), p.end(),
            [](const GramPosting& a, const GramPosting& b) {
              if (a.key != b.key) return a.key < b.key;
              if (a.count != b.count) return a.count > b.count;
              return a.file < b.file;
            });
  RankedInvertedIndexResult out;
  for (size_t i = 0; i < p.size();) {
    size_t j = i;
    while (j < p.size() && p[j].key == p[i].key) ++j;
    std::vector<std::pair<uint32_t, uint64_t>> ranked;
    ranked.reserve(j - i);
    for (size_t k = i; k < j; ++k) ranked.emplace_back(p[k].file, p[k].count);
    out.emplace_back(p[i].key, std::move(ranked));
    i = j;
  }
  return out;
}

}  // namespace ntadoc::tadoc

#endif  // NTADOC_TADOC_CANONICAL_H_
