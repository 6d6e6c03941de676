// DRAM-resident TADOC analytics engine.
//
// This is the paper's comparator: classic TADOC (Zhang et al.) running on
// ordinary heap memory. It supports both traversal strategies:
//   * top-down — rule weights propagate root-to-leaves in topological
//     order; good when files are few;
//   * bottom-up — per-rule word/sequence lists merge leaves-to-root in
//     reverse topological order and the root is scanned per file segment;
//     good when files are many (Section VI-E).
// The same engine doubles as the "naive TADOC port to NVM" comparator
// (Section III-B): pass a MemoryModel with an NVM profile and every data
// access is charged at NVM cost with heap-pointer (i.e. scattered)
// addresses.

#ifndef NTADOC_TADOC_ENGINE_H_
#define NTADOC_TADOC_ENGINE_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "compress/compressor.h"
#include "tadoc/analytics.h"
#include "tadoc/charge.h"
#include "tadoc/head_tail.h"
#include "util/status.h"

namespace ntadoc::tadoc {

using compress::CompressedCorpus;

/// DAG traversal strategy (Section VI-E).
enum class TraversalStrategy : uint8_t { kAuto = 0, kTopDown, kBottomUp };

const char* TraversalStrategyToString(TraversalStrategy s);

/// Parses a --traversal= flag value ("auto", "topdown", "bottomup") or a
/// TraversalStrategyToString name; InvalidArgument for anything else.
Result<TraversalStrategy> ParseTraversalStrategy(std::string_view name);

/// kAuto switches per-file tasks to bottom-up above this many files: a
/// per-file top-down pass re-walks the whole DAG once per file
/// (Section VI-E).
inline constexpr uint32_t kManyFilesThreshold = 32;

/// The strategy a run over `num_files` files uses for `task`: kAuto
/// resolved by the policy above, anything else as requested. Both the
/// DRAM engine and N-TADOC resolve through this one function.
TraversalStrategy ResolveStrategy(TraversalStrategy requested, Task task,
                                  uint32_t num_files);

/// Engine construction options.
struct EngineOptions {
  /// Access-cost model; null disables charging (pure wall-clock runs).
  /// With a model, initialization also charges reading the compressed
  /// container from the source disk (the paper's timing includes dataset
  /// IO).
  nvm::MemoryModel* model = nullptr;

  /// Traversal strategy; kAuto picks per task and file count.
  TraversalStrategy traversal = TraversalStrategy::kAuto;
};

/// Phase timing and accounting of one Run().
struct RunMetrics {
  uint64_t init_wall_ns = 0;
  uint64_t traversal_wall_ns = 0;
  uint64_t init_sim_ns = 0;       // simulated device time in init phase
  uint64_t traversal_sim_ns = 0;  // simulated device time in traversal
  /// Simulated init cost this run consumed from a shared prefix without
  /// paying it itself (RunBatch reuse / sealed-prefix sessions): the
  /// container load, DAG build and estimator reads another task already
  /// charged. 0 when this run paid its full init (init_sim_ns has it
  /// all), so init_sim_ns + shared_init_sim_ns is comparable across all
  /// tasks of a batch and across serving sessions.
  uint64_t shared_init_sim_ns = 0;
  /// True when this run's init consumed a shared prefix.
  bool init_shared = false;
  TraversalStrategy used_traversal = TraversalStrategy::kTopDown;

  uint64_t TotalWallNs() const { return init_wall_ns + traversal_wall_ns; }
  uint64_t TotalSimNs() const { return init_sim_ns + traversal_sim_ns; }
};

/// DRAM TADOC engine. Stateless between runs; each Run() performs the
/// paper's two phases (initialization, graph traversal) from scratch.
class TadocEngine {
 public:
  /// `corpus` must outlive the engine.
  TadocEngine(const CompressedCorpus* corpus, EngineOptions options = {});

  /// Runs one analytics task; fills `metrics` if non-null.
  Result<AnalyticsOutput> Run(Task task, const AnalyticsOptions& opts = {},
                              RunMetrics* metrics = nullptr);

  // -- Building blocks exposed for tests and benchmarks --

  /// Global rule weights (occurrence counts) by top-down propagation.
  std::vector<uint64_t> TopDownWeights(const AccessCharger& charger) const;

  /// Root-rule file segments as (begin, end) index ranges (separator
  /// excluded).
  std::vector<std::pair<uint32_t, uint32_t>> FileSegments(
      const AccessCharger& charger) const;

 private:
  struct Prepared;  // per-run state (topo order, segments, head/tail)

  AnalyticsOutput RunWordCount(const Prepared& prep,
                               const AccessCharger& charger,
                               bool as_sort) const;
  AnalyticsOutput RunWordCountBottomUp(const Prepared& prep,
                                       const AccessCharger& charger,
                                       bool as_sort) const;
  AnalyticsOutput RunTermVectorOrIndex(const Prepared& prep,
                                       const AccessCharger& charger,
                                       Task task,
                                       const AnalyticsOptions& opts,
                                       TraversalStrategy strategy) const;
  AnalyticsOutput RunSequence(const Prepared& prep,
                              const AccessCharger& charger, Task task,
                              const AnalyticsOptions& opts,
                              TraversalStrategy strategy) const;

  const CompressedCorpus* corpus_;
  EngineOptions options_;
};

}  // namespace ntadoc::tadoc

#endif  // NTADOC_TADOC_ENGINE_H_
