// Shared infrastructure for the paper-reproduction benchmark harness.
//
// Every bench binary reproduces one table or figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Common pieces here:
// flag parsing, dataset generation + compression (cached on disk), engine
// run wrappers that meter simulated device time, wall time and tracked
// DRAM, fixed-width table printers, and the result-row writer that is the
// only machine-readable output of the gated benches.
//
// Reported "cost" = simulated device nanoseconds (deterministic, from
// the calibrated profiles) + host wall nanoseconds. Ratios are the
// reproduction target; absolute values are not comparable to the paper's
// Optane testbed.

#ifndef NTADOC_BENCH_BENCH_COMMON_H_
#define NTADOC_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/uncompressed.h"
#include "core/engine.h"
#include "tadoc/engine.h"
#include "textgen/generator.h"

namespace ntadoc::bench {

using compress::CompressedCorpus;
using core::NTadocOptions;
using core::PersistenceMode;
using tadoc::AnalyticsOptions;
using tadoc::RunMetrics;
using tadoc::Task;
using tadoc::TraversalStrategy;

/// One generated-and-compressed dataset.
struct DatasetBundle {
  textgen::CorpusSpec spec;
  CompressedCorpus corpus;
  uint64_t raw_text_bytes = 0;
  uint64_t token_count = 0;  // including separators

  /// Device capacity sized for this dataset.
  uint64_t device_capacity = 128ull << 20;
};

/// Command-line configuration of the bench binaries.
struct BenchConfig {
  /// Dataset scale factor (1.0 = the sizes in textgen).
  double scale = 0.25;

  /// Restrict to these dataset names (empty = all of A..D).
  std::vector<std::string> datasets;

  /// Directory for cached compressed containers.
  std::string cache_dir = "bench_cache";

  /// Minimum device capacity for emulated-NVM runs (each dataset gets
  /// max(this, 12x its token-stream bytes)).
  uint64_t device_capacity = 128ull << 20;

  /// Ingest threads for dataset compression. <= 1 keeps the legacy
  /// sequential Compress() (and the historical cache file names, so
  /// existing cached containers and sim baselines stay byte-identical);
  /// > 1 compresses with ParallelCompress and caches under a
  /// thread-count-suffixed name.
  uint32_t threads = 1;

  // The flags below are accepted only by the benches that declare them
  // (BenchFlags).

  /// --json=PATH: also write the result rows to PATH (RowSink).
  std::string json_path;

  /// --repeat=N: repetitions per configuration; wall times keep the
  /// minimum (least-noise) run.
  uint32_t repeat = 1;

  /// --dram-cache-mb=N: decoded-rule cache budget of bench_hotpath's
  /// cache rows (0 skips them).
  uint64_t dram_cache_mb = 8;

  /// --queries=N: queries per bench_serving fleet.
  uint32_t queries = 48;

  /// --threads-list=1,4,8: bench_ingest's thread counts.
  std::vector<uint32_t> threads_list = {1, 4, 8};
};

/// Flags a bench accepts beyond the shared --scale=, --datasets=,
/// --cache-dir=, --device-mb= and --threads=.
enum BenchFlags : unsigned {
  kJsonFlag = 1u << 0,
  kRepeatFlag = 1u << 1,
  kDramCacheFlag = 1u << 2,
  kQueriesFlag = 1u << 3,
  kThreadsListFlag = 1u << 4,
};

/// Parses the shared flags plus the `extra` ones. A malformed, out-of-range
/// or unknown flag prints usage to stderr and exits 2; --help prints it to
/// stdout and exits 0.
BenchConfig ParseArgs(int argc, char** argv, unsigned extra = 0);

/// Generates (or loads from cache) the requested datasets.
std::vector<DatasetBundle> LoadDatasets(const BenchConfig& config);

/// DRAM bytes the compressed corpus itself occupies when held in host
/// memory (rule bodies + dictionary) — TADOC keeps this resident; N-TADOC
/// moves it to the NVM pool.
uint64_t CorpusDramBytes(const CompressedCorpus& corpus);

/// DRAM bytes of the dictionary alone — N-TADOC keeps the dictionary
/// resident for result materialization (the paper's init phase "ends
/// with reading the dictionary of compressed data").
uint64_t DictDramBytes(const CompressedCorpus& corpus);

/// Metered result of one engine run.
struct RunResult {
  RunMetrics metrics;
  uint64_t dram_peak_bytes = 0;

  uint64_t cost_ns() const { return metrics.TotalCostNs(); }
  uint64_t init_ns() const {
    return metrics.init_wall_ns + metrics.init_sim_ns;
  }
  uint64_t traversal_ns() const {
    return metrics.traversal_wall_ns + metrics.traversal_sim_ns;
  }
};

/// N-TADOC on a fresh emulated device with `profile`.
RunResult RunNTadoc(const CompressedCorpus& corpus, Task task,
                    const AnalyticsOptions& opts,
                    const NTadocOptions& engine_opts,
                    const nvm::DeviceProfile& profile,
                    uint64_t device_capacity,
                    core::NTadocRunInfo* info = nullptr);

/// Uncompressed baseline on a fresh emulated device with `profile`; host
/// counters charged at DRAM cost on the same clock.
RunResult RunBaseline(const CompressedCorpus& corpus, Task task,
                      const AnalyticsOptions& opts,
                      const nvm::DeviceProfile& profile,
                      uint64_t device_capacity);

/// Classic TADOC on DRAM (the paper's efficiency upper bound).
RunResult RunTadocDram(const CompressedCorpus& corpus, Task task,
                       const AnalyticsOptions& opts,
                       TraversalStrategy strategy = TraversalStrategy::kAuto);

/// Naive TADOC port to NVM: same DRAM engine, every data access charged
/// at NVM cost against scattered heap addresses (Section III-B).
RunResult RunNaiveNvmTadoc(const CompressedCorpus& corpus, Task task,
                           const AnalyticsOptions& opts);

/// Geometric mean of ratios.
double GeoMean(const std::vector<double>& values);

// ---- tiered capacity planning ----

/// Device capacity for a tiered run: the dataset's planned capacity
/// grown by the durable placement region the engine carves from the
/// pool, rounded up to the 1 MiB planning block so the pool end stays
/// block-aligned (the same rounding untiered capacity planning uses).
uint64_t TieredDeviceCapacity(uint64_t base_capacity,
                              const nvm::TierConfig& config);

/// Per-tier capacity plan over `total_bytes` of pool-resident data:
/// capped tiers get their budget, the final (slowest) tier absorbs the
/// remainder, and every tier's plan is rounded up to the 1 MiB planning
/// block. Bench reporting only — the engine enforces raw budgets.
std::vector<uint64_t> PlanTierCapacities(uint64_t total_bytes,
                                         const nvm::TierConfig& config);

// ---- table printing ----

/// Prints "== <title> ==" with the reproduction context line.
void PrintTitle(const std::string& title, const std::string& paper_ref);

/// Prints one row of fixed-width cells.
void PrintRow(const std::vector<std::string>& cells, int width = 14);

/// Formats a ratio as "2.04x".
std::string Ratio(double v);

/// Formats nanoseconds as seconds with 3 decimals.
std::string Secs(uint64_t ns);

// ---- result rows ----

/// One machine-readable result: a flat JSON object on one line. `bench`,
/// `row` (the kind of result), `dataset` and `scale` come first, then the
/// fields in the order they are added: identity fields, then measurements
/// named by unit (`*_sim_ns`, `*_wall_ns`, `*_bytes`). Keys are
/// [a-z0-9_]+ and string values hold no quote, comma, space, '=',
/// backslash or control character (both checked), so a line reader splits
/// a row exactly (tools/bench_gates.sh).
class Row {
 public:
  Row& Str(std::string_view key, std::string_view value);
  Row& Num(std::string_view key, uint64_t value);
  /// A finite `value` with `digits` decimals.
  Row& Real(std::string_view key, double value, int digits);

 private:
  friend class RowSink;
  Row() = default;
  void Key(std::string_view key);
  std::string text_;  // the object so far, without its closing brace
};

/// The only machine-readable output of a bench: the emitted rows go to
/// stdout and, with --json=PATH, to PATH as a JSON array, one row per line.
class RowSink {
 public:
  RowSink(std::string_view bench, const BenchConfig& config);

  /// A row of kind `row` on `dataset`, its four leading fields filled in.
  Row Start(std::string_view row, std::string_view dataset) const;

  void Emit(const Row& row);

  /// Prints every emitted row to stdout, one per line, after the bench's
  /// tables, and writes the --json file if one was asked for. Returns the
  /// bench's exit code: 1, after a message on stderr, if the file cannot
  /// be written.
  int Finish() const;

 private:
  std::string bench_;
  double scale_;
  std::string json_path_;
  std::vector<std::string> rows_;
};

}  // namespace ntadoc::bench

#endif  // NTADOC_BENCH_BENCH_COMMON_H_
