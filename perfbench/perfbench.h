// perfbench: the repo's end-to-end benchmark program.
//
// Three workloads (serve_phase, durable_oplog, refresh_ingest; see
// README.md) run in one process each. The benchmark only calls public APIs
// of textgen, compress, nvm, core and serve, times those calls from the
// outside, reads the counters the layers already expose, and checks every
// answer against the DRAM TADOC engine. Simulated device time and host
// wall time are always reported as separate metrics, never summed.
//
// A run is: setup (repeated, median reported), a timed phase made of
// workload "cycles" until --seconds elapse, then post-phase checks. With
// --trace 1 the cycles alternate between untraced and traced (a span
// around every public call), so the per-layer numbers and the tracing
// overhead come from the same process and the same moments of host drift.

#ifndef NTADOC_PERFBENCH_PERFBENCH_H_
#define NTADOC_PERFBENCH_PERFBENCH_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "compress/compressor.h"
#include "core/engine.h"
#include "nvm/memory_model.h"
#include "serve/serving.h"
#include "tadoc/analytics.h"
#include "tadoc/engine.h"
#include "textgen/generator.h"
#include "util/random.h"
#include "util/status.h"

namespace ntadoc::perfbench {

using tadoc::Task;

/// Command line (see README.md for the flags).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;            // span file (trace mode)
  std::string revision = "unknown";  // source identity, recorded in meta
  double scale = 0.25;              // dataset scale factor
  uint64_t max_queries = 0;         // stop after this many (0 = time only)
  bool corrupt_reference = false;   // self-test: plant a wrong reference
};

/// Monotonic host wall clock, nanoseconds.
uint64_t NowNs();

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One recorded call into a layer.
struct SpanRecord {
  std::string name;
  uint64_t start_ns = 0;  // relative to the tracer's origin
  uint64_t end_ns = 0;
  int64_t parent = -1;    // index of the enclosing span, -1 = none
  int64_t query = -1;     // query id the call served, -1 = none
};

/// In-memory span recorder. Only the benchmark's own thread records, so the
/// enclosing span is simply the top of a stack. Disabled tracers record
/// nothing.
class Tracer {
 public:
  Tracer();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (-1 when disabled).
  int64_t Begin(const char* name, int64_t query);
  void End(int64_t id);

  /// Durations (ms) of every closed span named `name`.
  std::vector<double> DurationsMs(std::string_view name) const;
  size_t size() const { return spans_.size(); }

  /// Writes the spans as Chrome trace-event JSON.
  Status Write(const std::string& path) const;

 private:
  bool enabled_ = false;
  uint64_t origin_ns_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int64_t> stack_;
};

/// RAII span around one public call.
class Span {
 public:
  Span(Tracer* tracer, const char* name, int64_t query = -1)
      : tracer_(tracer), id_(tracer->Begin(name, query)) {}
  ~Span() { tracer_->End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

// ---------------------------------------------------------------------------
// Per-query records and the run context
// ---------------------------------------------------------------------------

/// Everything the benchmark keeps about one answered query.
struct QueryRecord {
  Task task = Task::kWordCount;
  bool faulted = false;      // carried poison (serving) or crashed (durable)
  uint64_t sim_ns = 0;       // simulated latency of the whole query
  uint64_t run_wall_ns = 0;  // Σ RunMetrics wall of the Runs it took
  uint64_t run_sim_ns = 0;   // Σ RunMetrics sim of the Runs it took
  tadoc::RunMetrics metrics;  // of the final Run
  core::NTadocRunInfo info;   // of the final Run
  double pool_per_raw = 0;    // pool_used_bytes / raw text bytes
  // Device counters; only where the benchmark owns the device.
  bool has_device = false;
  nvm::AccessStats device;
  // Crash + resume queries only.
  uint64_t recovery_wall_ns = 0;
};

/// Shared state of one workload run.
struct Context {
  explicit Context(const Args& a) : args(a) {}

  const Args& args;
  Tracer tracer;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first failure messages, for stderr

  std::vector<QueryRecord> queries;
  // Wall time and query count of the timed phase, split into the
  // untraced [0] and traced [1] cycles.
  std::array<uint64_t, 2> timed_wall_ns{};
  std::array<uint64_t, 2> timed_queries{};
  // Wall time spent between cycles on freshness probes and setup
  // repetitions, kept out of the timed phase.
  uint64_t untimed_ns = 0;
  // Set by a workload that cannot continue; ends the timed phase.
  bool stop = false;

  /// Records one failed operation.
  void Fail(std::string what);
  /// True once the timed phase must end before its time limit.
  bool Done() const {
    return stop ||
           (args.max_queries > 0 && queries.size() >= args.max_queries);
  }
};

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// A workload: set up, run timed cycles, then check and report.
class Workload {
 public:
  virtual ~Workload() = default;

  /// One setup repetition: generate, compress, reference outputs, seal
  /// or create the store. Timed by the harness.
  virtual Status Setup(Context* ctx) = 0;

  /// One cycle of the timed phase: a batch of queries, plus one refresh
  /// (refresh_ingest) or off-clock freshness probes (the others).
  /// Failures go to ctx->Fail.
  virtual void Cycle(Context* ctx) = 0;

  /// Post-phase checks (answers, durability); failures go to ctx->Fail.
  virtual void Finish(Context* /*ctx*/) {}

  /// Workload-specific end-to-end and per-layer metrics. The harness
  /// adds setup_s, qps_wall, latency percentiles, peak_rss_mb and the
  /// per-query roll-ups itself.
  virtual void Report(const Context& ctx, std::vector<Metric>* e2e,
                      std::vector<Metric>* layer) const = 0;
};

std::unique_ptr<Workload> MakeServePhase();
std::unique_ptr<Workload> MakeDurableOplog();
std::unique_ptr<Workload> MakeRefreshIngest();

// ---------------------------------------------------------------------------
// Inputs and references
// ---------------------------------------------------------------------------

/// `base` re-seeded from the run seed (same shape, different text).
textgen::CorpusSpec SeededSpec(textgen::CorpusSpec base, uint64_t seed);

/// Generates and compresses a corpus, recording both calls as spans.
/// `raw_bytes` receives the raw text size.
Result<compress::CompressedCorpus> BuildCorpus(
    Context* ctx, const textgen::CorpusSpec& spec,
    std::vector<compress::InputFile>* files, uint64_t* raw_bytes);

/// Two small documents (600 tokens each) drawn from `like`'s
/// vocabulary for the refresh with ordinal `index`; deterministic in
/// (seed, index).
std::vector<compress::InputFile> FreshDocs(const textgen::CorpusSpec& like,
                                           uint64_t seed, uint32_t index);

/// Total content bytes of `files`.
uint64_t RawBytes(const std::vector<compress::InputFile>& files);

/// Output fingerprint of every task on the DRAM TADOC engine (the
/// correctness oracle), indexed by Task.
using Fingerprints = std::array<uint64_t, tadoc::kAllTasks.size()>;
Result<Fingerprints> ReferenceFingerprints(Context* ctx,
                                           const compress::CompressedCorpus&
                                               corpus);

/// The seeded query mix, generated in blocks of 48: every task eight
/// times in a seeded order, one of the eight flagged for a fault (poison
/// or crash), so 1 query in 8 is faulted.
struct QueryPlan {
  Task task = Task::kWordCount;
  bool fault = false;
  uint64_t draw = 0;  // seeded value for the fault's parameters
};
class QueryMix {
 public:
  explicit QueryMix(uint64_t seed) : rng_(seed) {}
  QueryPlan Next();

 private:
  Rng rng_;
  std::vector<QueryPlan> block_;
  size_t pos_ = 0;
};
inline constexpr uint32_t kMixBlock = 48;

/// Data-freshness lag of a workload without an online refresh: the wall
/// time from new documents to a state its queries could be served from.
/// Every workload must report every end-to-end metric, refresh_wall_p50_ms
/// included, so serve_phase and durable_oplog take it from this probe.
/// Probes run between batches, off the clock (ctx->untimed_ns).
class FreshnessProbe {
 public:
  /// Merges the next two seeded documents into `corpus`, then re-seals the
  /// merged corpus with `reseal` when it is given. The result is dropped.
  void Run(Context* ctx, const textgen::CorpusSpec& spec,
           const compress::CompressedCorpus& corpus,
           const serve::SealOptions* reseal);
  double P50Ms() const;

 private:
  std::vector<double> ms_;
};

/// Roll-up shared by the serving workloads, summed over the engine each
/// cycle builds: worker lane time, makespan, worker time spent outside
/// Run, and sessions that finished on a draining generation.
class FleetRollup {
 public:
  /// The record of one finished session; `raw_bytes` is the raw text size
  /// of the generation it served.
  static QueryRecord Record(const serve::QueryResult& r,
                            const QueryPlan& plan, uint64_t raw_bytes);

  /// Adds a drained engine that was busy for `wall_ns` while its sessions
  /// spent `run_wall_ns` inside Run.
  void AddEngine(const serve::ServingEngine& server, uint64_t wall_ns,
                 uint64_t run_wall_ns);

  /// qps_sim over the summed makespans, plus the serve.* layer metrics.
  void Report(const Context& ctx, std::vector<Metric>* e2e,
              std::vector<Metric>* layer) const;

 private:
  std::vector<double> lane_ns_;
  double makespan_ns_ = 0;
  double overhead_ns_ = 0;
  uint64_t drained_sessions_ = 0;
};

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50);
}
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace ntadoc::perfbench

#endif  // NTADOC_PERFBENCH_PERFBENCH_H_
