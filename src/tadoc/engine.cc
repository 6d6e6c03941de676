#include "tadoc/engine.h"

#include <algorithm>
#include <string>

#include "tadoc/canonical.h"
#include "util/dram_tracker.h"
#include "tadoc/epoch_counts.h"
#include "tadoc/windows.h"
#include "util/logging.h"
#include "util/timer.h"

namespace ntadoc::tadoc {

using compress::IsFileSep;
using compress::IsRule;
using compress::IsWord;
using compress::RuleIndex;
using compress::Symbol;

namespace {

/// Sorted (key, count) list; the "word list" of classic TADOC. Tracked:
/// these intermediates are what the DRAM-savings evaluation measures.
template <typename K>
using CountList = tracked::vector<std::pair<K, uint64_t>>;

/// Builds the aggregate count list of a symbol span: direct words (or
/// window emissions) plus children's lists scaled by their multiplicity.
template <typename K>
CountList<K> MergeChildLists(std::span<const Symbol> seq,
                             const std::vector<CountList<K>>& lists,
                             CountList<K> own,
                             const AccessCharger& charger) {
  CountList<uint32_t> kids;
  for (Symbol s : seq) {
    if (IsRule(s)) kids.emplace_back(RuleIndex(s), 1);
  }
  SortAndCombine(&own);
  SortAndCombine(&kids);
  for (const auto& [kid, mult] : kids) {
    charger.Read(lists[kid].data(),
                 lists[kid].size() * sizeof(typename CountList<K>::value_type));
    MergeSortedCounts(&own, lists[kid], mult);
  }
  charger.Write(own.data(), own.size() * sizeof(typename CountList<K>::value_type));
  return own;
}

/// Each strategy's display name and its --traversal= flag value.
struct StrategyName {
  TraversalStrategy strategy;
  const char* name;
  const char* flag;
};
constexpr StrategyName kStrategyNames[] = {
    {TraversalStrategy::kAuto, "auto", "auto"},
    {TraversalStrategy::kTopDown, "top-down", "topdown"},
    {TraversalStrategy::kBottomUp, "bottom-up", "bottomup"},
};

}  // namespace

const char* TraversalStrategyToString(TraversalStrategy s) {
  for (const StrategyName& n : kStrategyNames) {
    if (n.strategy == s) return n.name;
  }
  return "?";
}

Result<TraversalStrategy> ParseTraversalStrategy(std::string_view name) {
  for (const StrategyName& n : kStrategyNames) {
    if (name == n.flag || name == n.name) return n.strategy;
  }
  return Status::InvalidArgument("unknown traversal strategy '" +
                                 std::string(name) + "'");
}

TraversalStrategy ResolveStrategy(TraversalStrategy requested, Task task,
                                  uint32_t num_files) {
  if (requested != TraversalStrategy::kAuto) return requested;
  return IsPerFileTask(task) && num_files > kManyFilesThreshold
             ? TraversalStrategy::kBottomUp
             : TraversalStrategy::kTopDown;
}

struct TadocEngine::Prepared {
  std::vector<uint32_t> topo;
  std::vector<std::pair<uint32_t, uint32_t>> segments;
  std::unique_ptr<HeadTailTable> head_tail;
};

TadocEngine::TadocEngine(const CompressedCorpus* corpus,
                         EngineOptions options)
    : corpus_(corpus), options_(options) {
  NTADOC_CHECK(corpus != nullptr);
}

std::vector<uint64_t> TadocEngine::TopDownWeights(
    const AccessCharger& charger) const {
  const auto& g = corpus_->grammar;
  tracked::vector<uint64_t> w(g.NumRules(), 0);
  w[0] = 1;
  // Topological order guarantees every rule's weight is final before it
  // propagates to its subrules.
  for (uint32_t r : g.TopologicalOrder()) {
    const auto& body = g.rules[r];
    charger.Read(body.data(), body.size() * sizeof(Symbol));
    for (Symbol s : body) {
      if (IsRule(s)) {
        w[RuleIndex(s)] += w[r];
        charger.Write(&w[RuleIndex(s)], sizeof(uint64_t));
      }
    }
  }
  return std::vector<uint64_t>(w.begin(), w.end());
}

std::vector<std::pair<uint32_t, uint32_t>> TadocEngine::FileSegments(
    const AccessCharger& charger) const {
  const auto& root = corpus_->grammar.rules[0];
  charger.Read(root.data(), root.size() * sizeof(Symbol));
  return corpus_->grammar.RootSegments();
}

Result<AnalyticsOutput> TadocEngine::Run(Task task,
                                         const AnalyticsOptions& opts,
                                         RunMetrics* metrics) {
  if (opts.ngram < 2 || opts.ngram > NgramKey::kMaxNgram) {
    return Status::InvalidArgument("ngram must be in [2, 4]");
  }
  if (opts.top_k == 0) {
    return Status::InvalidArgument("top_k must be > 0");
  }
  const AccessCharger charger(options_.model);
  const TraversalStrategy strategy =
      ResolveStrategy(options_.traversal, task, corpus_->num_files());

  WallTimer timer;
  const uint64_t sim0 =
      options_.model ? options_.model->clock().NowNanos() : 0;
  if (options_.model != nullptr) {
    uint64_t container_bytes =
        corpus_->grammar.TotalSymbols() * sizeof(Symbol) +
        16 * corpus_->grammar.NumRules();
    for (compress::WordId w = 0; w < corpus_->dict.size(); ++w) {
      container_bytes += corpus_->dict.Spell(w).size() + 4;
    }
    options_.model->clock().Charge(static_cast<uint64_t>(
        container_bytes * nvm::kSourceDiskNsPerByte));
  }

  // ---- Initialization phase: DAG metadata and auxiliary structures ----
  Prepared prep;
  prep.topo = corpus_->grammar.TopologicalOrder();
  prep.segments = FileSegments(charger);
  if (IsSequenceTask(task)) {
    prep.head_tail = std::make_unique<HeadTailTable>(
        HeadTailTable::Build(corpus_->grammar, opts.ngram, charger));
  }
  const uint64_t init_wall = timer.ElapsedNanos();
  const uint64_t init_sim =
      (options_.model ? options_.model->clock().NowNanos() : 0) - sim0;

  // ---- Graph traversal phase ----
  timer.Reset();
  AnalyticsOutput out;
  switch (task) {
    case Task::kWordCount:
    case Task::kSort: {
      const bool as_sort = task == Task::kSort;
      out = strategy == TraversalStrategy::kBottomUp
                ? RunWordCountBottomUp(prep, charger, as_sort)
                : RunWordCount(prep, charger, as_sort);
      break;
    }
    case Task::kTermVector:
    case Task::kInvertedIndex:
      out = RunTermVectorOrIndex(prep, charger, task, opts, strategy);
      break;
    case Task::kSequenceCount:
    case Task::kRankedInvertedIndex:
      out = RunSequence(prep, charger, task, opts, strategy);
      break;
  }
  if (metrics != nullptr) {
    metrics->init_wall_ns = init_wall;
    metrics->init_sim_ns = init_sim;
    metrics->traversal_wall_ns = timer.ElapsedNanos();
    metrics->traversal_sim_ns =
        (options_.model ? options_.model->clock().NowNanos() : 0) - sim0 -
        init_sim;
    metrics->used_traversal = strategy;
  }
  return out;
}

AnalyticsOutput TadocEngine::RunWordCount(const Prepared& prep,
                                          const AccessCharger& charger,
                                          bool as_sort) const {
  const auto& g = corpus_->grammar;
  const std::vector<uint64_t> weights = TopDownWeights(charger);
  tracked::vector<uint64_t> counts(g.dict_size, 0);
  for (uint32_t r : prep.topo) {
    const auto& body = g.rules[r];
    charger.Read(body.data(), body.size() * sizeof(Symbol));
    for (Symbol s : body) {
      if (IsWord(s) && !IsFileSep(s)) {
        counts[s] += weights[r];
        charger.Write(&counts[s], sizeof(uint64_t));
      }
    }
  }
  AnalyticsOutput out;
  out.task = as_sort ? Task::kSort : Task::kWordCount;
  WordCountResult wc;
  for (WordId w2 = compress::kFirstWordId; w2 < counts.size(); ++w2) {
    if (counts[w2] != 0) wc.emplace_back(w2, counts[w2]);
  }
  if (as_sort) {
    out.sorted_words = CanonicalSort(wc, corpus_->dict);
  } else {
    out.word_counts = std::move(wc);
  }
  return out;
}

AnalyticsOutput TadocEngine::RunWordCountBottomUp(
    const Prepared& prep, const AccessCharger& charger, bool as_sort) const {
  const auto& g = corpus_->grammar;
  std::vector<CountList<WordId>> lists(g.NumRules());
  for (auto it = prep.topo.rbegin(); it != prep.topo.rend(); ++it) {
    const uint32_t r = *it;
    if (r == 0) continue;
    const auto& body = g.rules[r];
    charger.Read(body.data(), body.size() * sizeof(Symbol));
    CountList<WordId> own;
    for (Symbol s : body) {
      if (IsWord(s)) own.emplace_back(s, 1);
    }
    lists[r] = MergeChildLists<WordId>(body, lists, std::move(own), charger);
  }
  // Root scan: merge everything (global counts), skipping separators.
  const auto& root = g.rules[0];
  charger.Read(root.data(), root.size() * sizeof(Symbol));
  CountList<WordId> own;
  for (Symbol s : root) {
    if (IsWord(s) && !IsFileSep(s)) own.emplace_back(s, 1);
  }
  CountList<WordId> total =
      MergeChildLists<WordId>(root, lists, std::move(own), charger);

  AnalyticsOutput out;
  out.task = as_sort ? Task::kSort : Task::kWordCount;
  if (as_sort) {
    out.sorted_words = CanonicalSort(total, corpus_->dict);
  } else {
    out.word_counts.assign(total.begin(), total.end());
  }
  return out;
}

AnalyticsOutput TadocEngine::RunTermVectorOrIndex(
    const Prepared& prep, const AccessCharger& charger, Task task,
    const AnalyticsOptions& opts, TraversalStrategy strategy) const {
  const auto& g = corpus_->grammar;
  const uint32_t num_files = static_cast<uint32_t>(prep.segments.size());
  AnalyticsOutput out;
  out.task = task;
  const bool want_tv = task == Task::kTermVector;
  if (want_tv) out.term_vectors.resize(num_files);
  std::vector<std::vector<uint32_t>> postings;  // word -> files
  if (!want_tv) postings.resize(g.dict_size);

  auto consume_file = [&](uint32_t f, const CountList<WordId>& counts) {
    if (want_tv) {
      out.term_vectors[f] = CanonicalTopK(counts, opts.top_k);
    } else {
      for (const auto& [w, c] : counts) {
        if (c != 0) postings[w].push_back(f);
      }
    }
  };

  if (strategy == TraversalStrategy::kBottomUp) {
    // Per-rule word lists once, then one cheap merge per file segment.
    std::vector<CountList<WordId>> lists(g.NumRules());
    for (auto it = prep.topo.rbegin(); it != prep.topo.rend(); ++it) {
      const uint32_t r = *it;
      if (r == 0) continue;
      const auto& body = g.rules[r];
      charger.Read(body.data(), body.size() * sizeof(Symbol));
      CountList<WordId> own;
      for (Symbol s : body) {
        if (IsWord(s)) own.emplace_back(s, 1);
      }
      lists[r] = MergeChildLists<WordId>(body, lists, std::move(own), charger);
    }
    const auto& root = g.rules[0];
    for (uint32_t f = 0; f < num_files; ++f) {
      const auto [begin, end] = prep.segments[f];
      const std::span<const Symbol> seg(root.data() + begin, end - begin);
      charger.Read(seg.data(), seg.size() * sizeof(Symbol));
      CountList<WordId> own;
      for (Symbol s : seg) {
        if (IsWord(s)) own.emplace_back(s, 1);
      }
      consume_file(
          f, MergeChildLists<WordId>(seg, lists, std::move(own), charger));
    }
  } else {
    // Top-down: per file, propagate weights through the reachable DAG.
    // Deliberately expensive for many files (the paper's Section VI-E).
    EpochCounts rule_w(g.NumRules(), &charger);
    EpochCounts word_c(g.dict_size, &charger);
    const auto& root = g.rules[0];
    for (uint32_t f = 0; f < num_files; ++f) {
      rule_w.NewEpoch();
      word_c.NewEpoch();
      const auto [begin, end] = prep.segments[f];
      for (uint32_t i = begin; i < end; ++i) {
        const Symbol s = root[i];
        charger.Read(&root[i], sizeof(Symbol));
        if (IsRule(s)) {
          rule_w.Add(RuleIndex(s), 1);
        } else {
          word_c.Add(s, 1);
        }
      }
      for (uint32_t r : prep.topo) {
        if (r == 0) continue;
        const uint64_t w = rule_w.Get(r);
        if (w == 0) continue;
        const auto& body = g.rules[r];
        charger.Read(body.data(), body.size() * sizeof(Symbol));
        for (Symbol s : body) {
          if (IsRule(s)) {
            rule_w.Add(RuleIndex(s), w);
          } else {
            word_c.Add(s, w);
          }
        }
      }
      CountList<WordId> counts;
      counts.reserve(word_c.touched().size());
      for (uint32_t w : word_c.touched()) {
        counts.emplace_back(w, word_c.Get(w));
      }
      std::sort(counts.begin(), counts.end());
      charger.Write(counts.data(),
                    counts.size() * sizeof(CountList<WordId>::value_type));
      consume_file(f, counts);
    }
  }

  if (!want_tv) {
    for (WordId w = compress::kFirstWordId; w < postings.size(); ++w) {
      if (!postings[w].empty()) {
        out.inverted_index.emplace_back(w, std::move(postings[w]));
      }
    }
  }
  return out;
}

AnalyticsOutput TadocEngine::RunSequence(const Prepared& prep,
                                         const AccessCharger& charger,
                                         Task task,
                                         const AnalyticsOptions& opts,
                                         TraversalStrategy strategy) const {
  const auto& g = corpus_->grammar;
  const uint32_t num_files = static_cast<uint32_t>(prep.segments.size());
  WindowScanner scanner(prep.head_tail.get(), opts.ngram);
  AnalyticsOutput out;
  out.task = task;
  const bool global = task == Task::kSequenceCount;
  const auto& root = g.rules[0];

  // Local boundary windows of each rule body (computed once).
  auto local_windows = [&](uint32_t r) {
    CountList<NgramKey> local;
    const auto& body = g.rules[r];
    charger.Read(body.data(), body.size() * sizeof(Symbol));
    scanner.Scan(body, [&](const NgramKey& k) { local.emplace_back(k, 1); });
    SortAndCombine(&local);
    return local;
  };
  // A file segment's windows, one entry per instance (unsorted).
  auto segment_windows = [&](uint32_t f) {
    CountList<NgramKey> local;
    const auto [begin, end] = prep.segments[f];
    const std::span<const Symbol> seg(root.data() + begin, end - begin);
    charger.Read(seg.data(), seg.size() * sizeof(Symbol));
    scanner.Scan(seg, [&](const NgramKey& k) { local.emplace_back(k, 1); });
    return local;
  };

  if (global) {
    if (strategy == TraversalStrategy::kBottomUp) {
      std::vector<CountList<NgramKey>> lists(g.NumRules());
      for (auto it = prep.topo.rbegin(); it != prep.topo.rend(); ++it) {
        const uint32_t r = *it;
        if (r == 0) continue;
        lists[r] = MergeChildLists<NgramKey>(g.rules[r], lists,
                                             local_windows(r), charger);
      }
      CountList<NgramKey> total;
      for (uint32_t f = 0; f < num_files; ++f) {
        const auto [begin, end] = prep.segments[f];
        const std::span<const Symbol> seg(root.data() + begin, end - begin);
        MergeSortedCounts(
            &total,
            MergeChildLists<NgramKey>(seg, lists, segment_windows(f),
                                      charger));
      }
      out.sequence_counts.assign(total.begin(), total.end());
    } else {
      const std::vector<uint64_t> weights = TopDownWeights(charger);
      CountList<NgramKey> emitted;
      for (uint32_t r = 1; r < g.NumRules(); ++r) {
        scanner.Scan(g.rules[r], [&](const NgramKey& k) {
          emitted.emplace_back(k, weights[r]);
          charger.Write(&emitted.back(), sizeof(emitted.back()));
        });
        charger.Read(g.rules[r].data(), g.rules[r].size() * sizeof(Symbol));
      }
      for (uint32_t f = 0; f < num_files; ++f) {
        const auto [begin, end] = prep.segments[f];
        const std::span<const Symbol> seg(root.data() + begin, end - begin);
        scanner.Scan(seg,
                     [&](const NgramKey& k) { emitted.emplace_back(k, 1); });
      }
      SortAndCombine(&emitted);
      out.sequence_counts.assign(emitted.begin(), emitted.end());
    }
    return out;
  }

  // Ranked inverted index: every file's gram counts go into one flat
  // postings list, ranked by one sort at the end.
  std::vector<GramPosting> postings;
  auto consume_file = [&](uint32_t f, const CountList<NgramKey>& counts) {
    for (const auto& [k, c] : counts) {
      if (c != 0) postings.push_back({k, f, c});
    }
  };

  if (strategy == TraversalStrategy::kBottomUp) {
    std::vector<CountList<NgramKey>> lists(g.NumRules());
    for (auto it = prep.topo.rbegin(); it != prep.topo.rend(); ++it) {
      const uint32_t r = *it;
      if (r == 0) continue;
      lists[r] = MergeChildLists<NgramKey>(g.rules[r], lists,
                                           local_windows(r), charger);
    }
    for (uint32_t f = 0; f < num_files; ++f) {
      const auto [begin, end] = prep.segments[f];
      const std::span<const Symbol> seg(root.data() + begin, end - begin);
      consume_file(f, MergeChildLists<NgramKey>(seg, lists,
                                                segment_windows(f), charger));
    }
  } else {
    // Top-down: cache per-rule local windows, propagate per-file weights.
    // A file's list is its segment's windows plus each reached rule's
    // local windows scaled by the rule's weight, combined by one sort.
    std::vector<CountList<NgramKey>> locals(g.NumRules());
    for (uint32_t r = 1; r < g.NumRules(); ++r) locals[r] = local_windows(r);
    EpochCounts rule_w(g.NumRules(), &charger);
    for (uint32_t f = 0; f < num_files; ++f) {
      rule_w.NewEpoch();
      const auto [begin, end] = prep.segments[f];
      for (uint32_t i = begin; i < end; ++i) {
        if (IsRule(root[i])) rule_w.Add(RuleIndex(root[i]), 1);
      }
      CountList<NgramKey> counts = segment_windows(f);
      for (uint32_t r : prep.topo) {
        if (r == 0) continue;
        const uint64_t w = rule_w.Get(r);
        if (w == 0) continue;
        const auto& body = g.rules[r];
        charger.Read(body.data(), body.size() * sizeof(Symbol));
        for (Symbol s : body) {
          if (IsRule(s)) rule_w.Add(RuleIndex(s), w);
        }
        const CountList<NgramKey>& local = locals[r];
        charger.Read(local.data(), local.size() * sizeof(local[0]));
        for (const auto& [k, c] : local) counts.emplace_back(k, c * w);
      }
      SortAndCombine(&counts);
      charger.Write(counts.data(), counts.size() * sizeof(counts[0]));
      consume_file(f, counts);
    }
  }
  out.ranked_index = RankedIndex(std::move(postings));
  return out;
}

}  // namespace ntadoc::tadoc
