// perfbench harness: argument parsing, spans, inputs, references, the
// setup / timed-phase / check sequence, and the result report.

#include "perfbench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>

#include "compress/parallel_compress.h"
#include "util/hash.h"
#include "util/logging.h"

namespace ntadoc::perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer() : origin_ns_(NowNs()) {}

int64_t Tracer::Begin(const char* name, int64_t query) {
  if (!enabled_) return -1;
  SpanRecord s;
  s.name = name;
  s.start_ns = NowNs() - origin_ns_;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.query = query;
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int64_t>(spans_.size() - 1));
  return stack_.back();
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs() - origin_ns_;
  // Spans close in LIFO order (they are scoped objects).
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> Tracer::DurationsMs(std::string_view name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name && s.end_ns >= s.start_ns) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

Status Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %lld, \"query\": %lld}}%s\n",
                 s.name.c_str(), static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.query),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IoError("cannot write " + path);
}

void Context::Fail(std::string what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(std::move(what));
}

// ---------------------------------------------------------------------------
// Inputs and references
// ---------------------------------------------------------------------------

textgen::CorpusSpec SeededSpec(textgen::CorpusSpec base, uint64_t seed) {
  base.seed = HashCombine(base.seed, seed);
  return base;
}

uint64_t RawBytes(const std::vector<compress::InputFile>& files) {
  uint64_t n = 0;
  for (const auto& f : files) n += f.content.size();
  return n;
}

Result<compress::CompressedCorpus> BuildCorpus(
    Context* ctx, const textgen::CorpusSpec& spec,
    std::vector<compress::InputFile>* files, uint64_t* raw_bytes) {
  {
    Span span(&ctx->tracer, "textgen::GenerateCorpus");
    *files = textgen::GenerateCorpus(spec);
  }
  *raw_bytes = RawBytes(*files);
  Span span(&ctx->tracer, "compress::Compress");
  return compress::Compress(*files);
}

std::vector<compress::InputFile> FreshDocs(const textgen::CorpusSpec& like,
                                           uint64_t seed, uint32_t index) {
  textgen::CorpusSpec spec = like;
  spec.name = "fresh" + std::to_string(index);
  spec.num_files = 2;
  spec.total_tokens = 2 * 600;
  spec.seed = HashCombine(HashCombine(like.seed, seed), 0xF2E5 + index);
  return textgen::GenerateCorpus(spec);
}

void FreshnessProbe::Run(Context* ctx, const textgen::CorpusSpec& spec,
                         const compress::CompressedCorpus& corpus,
                         const serve::SealOptions* reseal) {
  compress::ParallelCompressOptions popts;
  popts.threads = 1;
  const auto docs = FreshDocs(spec, ctx->args.seed,
                              static_cast<uint32_t>(ms_.size()) + 1);
  ++ctx->attempted;
  const uint64_t t0 = NowNs();
  auto merged = compress::AppendFiles(corpus, docs, popts);
  Status st = merged.status();
  if (st.ok() && reseal != nullptr) {
    st = serve::SealPool(&*merged, *reseal).status();
  }
  const uint64_t wall = NowNs() - t0;
  ctx->untimed_ns += wall;
  if (!st.ok()) {
    ctx->Fail("freshness probe: " + st.ToString());
    return;
  }
  ms_.push_back(static_cast<double>(wall) * 1e-6);
}

double FreshnessProbe::P50Ms() const { return Median(ms_); }

Result<Fingerprints> ReferenceFingerprints(
    Context* ctx, const compress::CompressedCorpus& corpus) {
  tadoc::TadocEngine oracle(&corpus);
  Fingerprints fp{};
  for (Task task : tadoc::kAllTasks) {
    Span span(&ctx->tracer, "tadoc::TadocEngine::Run");
    auto out = oracle.Run(task);
    if (!out.ok()) return out.status();
    fp[static_cast<size_t>(task)] = tadoc::FingerprintOutput(*out);
  }
  // Self-test hook: a planted wrong answer must fail the run.
  if (ctx->args.corrupt_reference) fp[0] ^= 1;
  return fp;
}

QueryPlan QueryMix::Next() {
  if (pos_ == block_.size()) {
    constexpr size_t kTasks = tadoc::kAllTasks.size();
    block_.clear();
    for (uint32_t i = 0; i < kMixBlock; ++i) {
      QueryPlan q;
      q.task = tadoc::kAllTasks[i % kTasks];
      // One fault per task per block: the faulted share of every task is
      // fixed, so a percentile cannot slide between task groups with the
      // seed's fault placement.
      q.fault = i < kTasks;
      q.draw = rng_.Next();
      block_.push_back(q);
    }
    // Fisher-Yates with the run's generator: a seeded order of a
    // balanced mix, so percentiles do not move with the seed's task
    // proportions.
    for (size_t i = block_.size() - 1; i > 0; --i) {
      std::swap(block_[i], block_[rng_.Uniform(i + 1)]);
    }
    pos_ = 0;
  }
  return block_[pos_++];
}

QueryRecord FleetRollup::Record(const serve::QueryResult& r,
                                const QueryPlan& plan, uint64_t raw_bytes) {
  QueryRecord q;
  q.task = plan.task;
  q.faulted = plan.fault;
  q.sim_ns = r.latency_sim_ns;
  q.run_wall_ns = r.metrics.TotalWallNs();
  q.run_sim_ns = r.metrics.TotalSimNs();
  q.metrics = r.metrics;
  q.info = r.info;
  q.pool_per_raw = Ratio(static_cast<double>(r.info.pool_used_bytes),
                         static_cast<double>(raw_bytes));
  return q;
}

void FleetRollup::AddEngine(const serve::ServingEngine& server,
                            uint64_t wall_ns, uint64_t run_wall_ns) {
  lane_ns_.resize(server.workers());
  for (uint32_t w = 0; w < server.workers(); ++w) {
    lane_ns_[w] += static_cast<double>(server.worker_lane_ns(w));
  }
  makespan_ns_ += static_cast<double>(server.makespan_sim_ns());
  // Worker time not spent inside Run: session device clone, engine
  // construction and scheduling.
  overhead_ns_ += static_cast<double>(wall_ns) * server.workers() -
                  static_cast<double>(run_wall_ns);
  drained_sessions_ += server.stats().drained_sessions;
}

void FleetRollup::Report(const Context& ctx, std::vector<Metric>* e2e,
                         std::vector<Metric>* layer) const {
  const double n = static_cast<double>(ctx.queries.size());
  e2e->push_back({"qps_sim", Ratio(n * 1e9, makespan_ns_), "1/s"});
  layer->push_back(
      {"serve.session_overhead_ms", Ratio(overhead_ns_ * 1e-6, n), "ms"});
  double max_lane = 0, sum_lane = 0;
  for (double l : lane_ns_) {
    max_lane = std::max(max_lane, l);
    sum_lane += l;
  }
  layer->push_back(
      {"serve.lane_imbalance",
       Ratio(max_lane, sum_lane / static_cast<double>(lane_ns_.size())),
       "ratio"});
  layer->push_back({"serve.drained_sessions",
                    static_cast<double>(drained_sessions_), "count"});
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

namespace {

// ---------------------------------------------------------------------------
// Metric catalogue (must match BENCHMARK.json)
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"qps_wall", "1/s"},
    {"qps_sim", "1/s"},
    {"query_sim_p50_us", "us"},
    {"query_sim_p95_us", "us"},
    {"refresh_wall_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"container_bytes_per_raw_byte", "ratio"},
    {"pool_bytes_per_raw_byte", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"compress.corpus_ms", "ms"},
    {"compress.stage_ms", "ms"},
    {"nvm.device_create_ms", "ms"},
    {"nvm.bytes_read_per_query", "B/query"},
    {"nvm.bytes_written_per_query", "B/query"},
    {"nvm.flushed_lines_per_query", "lines/query"},
    {"nvm.drains_per_query", "count/query"},
    {"nvm.block_miss_rate", "ratio"},
    {"nvm.redo_logged_bytes_per_query", "B/query"},
    {"nvm.tier.promotions_per_query", "count/query"},
    {"nvm.tier.demotions_per_query", "count/query"},
    {"nvm.tier.dram_resident_frac", "ratio"},
    {"nvm.store.drains_per_refresh", "count/refresh"},
    {"core.init_wall_ms", "ms"},
    {"core.traversal_wall_ms", "ms"},
    {"core.init_sim_us", "us"},
    {"core.traversal_sim_us", "us"},
    {"core.wall_per_sim", "ratio"},
    {"core.epoch_commits_per_query", "count/query"},
    {"core.coalesced_records_per_query", "count/query"},
    {"core.recovery_ms", "ms"},
    {"core.resumed_at_step", "step"},
    {"core.rule_cache.hit_ratio", "ratio"},
    {"core.prefix_reuse_frac", "ratio"},
    {"core.repairs_per_faulted_query", "count/query"},
    {"serve.seal_ms", "ms"},
    {"serve.session_overhead_ms", "ms"},
    {"serve.lane_imbalance", "ratio"},
    {"serve.refresh.commit_ms", "ms"},
    {"serve.refresh.publish_ms", "ms"},
    {"serve.refresh.drain_ms", "ms"},
    {"serve.drained_sessions", "count"},
    {"trace.overhead_pct", "%"},
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_phase|durable_oplog|"
               "refresh_ingest --seed N --seconds S --trace 0|1\n"
               "  [--trace-out PATH] [--revision STR] [--scale F]\n"
               "  [--max-queries N] [--corrupt-reference 0|1]\n");
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a->trace = v == "1";
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else if (flag == "--revision") {
      a->revision = v;
    } else if (flag == "--scale") {
      a->scale = std::atof(v.c_str());
    } else if (flag == "--max-queries") {
      a->max_queries = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--corrupt-reference") {
      a->corrupt_reference = v == "1";
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && a->scale > 0;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "serve_phase") return MakeServePhase();
  if (name == "durable_oplog") return MakeDurableOplog();
  if (name == "refresh_ingest") return MakeRefreshIngest();
  return nullptr;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Roll-up of every per-query counter the layers expose (QueryResult::info,
// RunMetrics, device stats): the per-layer metrics shared by all
// workloads.
void AddQueryLayerMetrics(const Context& ctx,
                          std::map<std::string, double>* m) {
  const auto& qs = ctx.queries;
  const double n = static_cast<double>(qs.size());
  double with_device = 0, accesses = 0, misses = 0;
  double bytes_read = 0, bytes_written = 0, flushed = 0, drains = 0;
  double redo = 0, promotions = 0, demotions = 0, epochs = 0, coalesced = 0;
  double hits = 0, lookups = 0, shared = 0, wall = 0, sim = 0;
  double faulted = 0, repairs = 0;
  std::vector<double> init_wall, trav_wall, init_sim, trav_sim, dram_frac;
  std::vector<double> recovery, resumed;
  for (const QueryRecord& q : qs) {
    if (q.has_device) {
      ++with_device;
      accesses += static_cast<double>(q.device.TotalAccesses());
      misses += static_cast<double>(q.device.read_misses +
                                    q.device.write_misses);
      bytes_read += static_cast<double>(q.device.bytes_read);
      bytes_written += static_cast<double>(q.device.bytes_written);
      flushed += static_cast<double>(q.device.flushed_lines);
      drains += static_cast<double>(q.device.drains);
    }
    const core::NTadocRunInfo& i = q.info;
    redo += static_cast<double>(i.redo_logged_bytes);
    promotions += static_cast<double>(i.promotions);
    demotions += static_cast<double>(i.demotions);
    epochs += static_cast<double>(i.epoch_commits);
    coalesced += static_cast<double>(i.coalesced_records);
    hits += static_cast<double>(i.rule_cache_hits);
    lookups += static_cast<double>(i.rule_cache_hits + i.rule_cache_misses);
    uint64_t resident = 0;
    for (uint64_t b : i.tier_resident_bytes) resident += b;
    if (resident > 0) {
      dram_frac.push_back(
          Ratio(static_cast<double>(i.tier_resident_bytes[0]), resident));
    }
    if (q.metrics.init_shared) ++shared;
    init_wall.push_back(static_cast<double>(q.metrics.init_wall_ns) * 1e-6);
    trav_wall.push_back(static_cast<double>(q.metrics.traversal_wall_ns) *
                        1e-6);
    init_sim.push_back(static_cast<double>(q.metrics.init_sim_ns) * 1e-3);
    trav_sim.push_back(static_cast<double>(q.metrics.traversal_sim_ns) *
                       1e-3);
    wall += static_cast<double>(q.run_wall_ns);
    sim += static_cast<double>(q.run_sim_ns);
    if (q.faulted) {
      ++faulted;
      repairs += static_cast<double>(i.scoped_repairs + i.salvage_restarts);
    }
    if (q.recovery_wall_ns > 0) {
      recovery.push_back(static_cast<double>(q.recovery_wall_ns) * 1e-6);
      // Only global tasks keep a traversal cursor to resume at.
      if (!tadoc::IsPerFileTask(q.task)) {
        resumed.push_back(static_cast<double>(i.resumed_at_step));
      }
    }
  }
  (*m)["nvm.bytes_read_per_query"] = Ratio(bytes_read, with_device);
  (*m)["nvm.bytes_written_per_query"] = Ratio(bytes_written, with_device);
  (*m)["nvm.flushed_lines_per_query"] = Ratio(flushed, with_device);
  (*m)["nvm.drains_per_query"] = Ratio(drains, with_device);
  (*m)["nvm.block_miss_rate"] = Ratio(misses, accesses);
  (*m)["nvm.redo_logged_bytes_per_query"] = Ratio(redo, n);
  (*m)["nvm.tier.promotions_per_query"] = Ratio(promotions, n);
  (*m)["nvm.tier.demotions_per_query"] = Ratio(demotions, n);
  double frac_sum = 0;
  for (double f : dram_frac) frac_sum += f;
  (*m)["nvm.tier.dram_resident_frac"] =
      Ratio(frac_sum, static_cast<double>(dram_frac.size()));
  (*m)["core.init_wall_ms"] = Median(init_wall);
  (*m)["core.traversal_wall_ms"] = Median(trav_wall);
  (*m)["core.init_sim_us"] = Median(init_sim);
  (*m)["core.traversal_sim_us"] = Median(trav_sim);
  (*m)["core.wall_per_sim"] = Ratio(wall, sim);
  (*m)["core.epoch_commits_per_query"] = Ratio(epochs, n);
  (*m)["core.coalesced_records_per_query"] = Ratio(coalesced, n);
  (*m)["core.recovery_ms"] = Median(recovery);
  (*m)["core.resumed_at_step"] = Median(resumed);
  (*m)["core.rule_cache.hit_ratio"] = Ratio(hits, lookups);
  (*m)["core.prefix_reuse_frac"] = Ratio(shared, n);
  (*m)["core.repairs_per_faulted_query"] = Ratio(repairs, faulted);
}

// Per-layer wall times taken from the spans around the benchmark's calls.
void AddSpanLayerMetrics(const Tracer& t, std::map<std::string, double>* m) {
  (*m)["compress.corpus_ms"] = Median(t.DurationsMs("compress::Compress"));
  (*m)["compress.stage_ms"] =
      Median(t.DurationsMs("core::ContainerStore::StageAppend"));
  (*m)["nvm.device_create_ms"] =
      Median(t.DurationsMs("nvm::NvmDevice::Create"));
  (*m)["serve.seal_ms"] = Median(t.DurationsMs("serve::SealPool"));
  (*m)["serve.refresh.commit_ms"] =
      Median(t.DurationsMs("core::ContainerStore::CommitAppend"));
  (*m)["serve.refresh.publish_ms"] =
      Median(t.DurationsMs("serve::ServingEngine::PublishGeneration"));
  (*m)["serve.refresh.drain_ms"] =
      Median(t.DurationsMs("serve::ServingEngine::WaitGenerationDrained"));
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
}

// Orders `values` by `defs` (the catalogue is the same for every
// workload). A per-layer metric of a layer the workload does not exercise
// reads 0; a missing end-to-end metric (`required`) or a non-finite value
// fails the run.
std::vector<Metric> Catalogue(Context* ctx, const MetricDef* defs, size_t n,
                              const std::map<std::string, double>& values,
                              bool required) {
  std::vector<Metric> out;
  for (size_t i = 0; i < n; ++i) {
    auto it = values.find(defs[i].name);
    double v = 0.0;
    if (it != values.end()) {
      v = it->second;
    } else if (required) {
      ctx->Fail(std::string("metric not produced: ") + defs[i].name);
    }
    if (!std::isfinite(v)) {
      ctx->Fail(std::string("metric not finite: ") + defs[i].name);
      v = 0.0;
    }
    out.push_back({defs[i].name, v, defs[i].unit});
  }
  return out;
}

// p95 needs at least 200 queries so that 10 samples lie beyond it; a slow
// host keeps cycling past --seconds until it has them.
constexpr size_t kMinQueries = 200;

// Setup repetitions per run; setup_s is their median.
constexpr size_t kSetupReps = 5;

// One setup repetition on a fresh workload; records its wall time.
Result<std::unique_ptr<Workload>> TimedSetup(Context* ctx,
                                             std::vector<double>* setup_s) {
  std::unique_ptr<Workload> wl = MakeWorkload(ctx->args.workload);
  const uint64_t t0 = NowNs();
  const Status st = wl->Setup(ctx);
  setup_s->push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  if (!st.ok()) return st;
  return wl;
}

int Run(const Args& args) {
  if (MakeWorkload(args.workload) == nullptr) {
    PrintUsage();
    return 2;
  }
  Context ctx(args);
  std::vector<double> setup_s;
  ctx.tracer.set_enabled(args.trace);
  auto first = TimedSetup(&ctx, &setup_s);
  if (!first.ok()) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n",
                 first.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Workload> wl = std::move(*first);

  // The other setup repetitions are spread over the timed phase, between
  // cycles and off the clock: host speed drifts over seconds, and a median
  // of back-to-back repetitions would sample only one moment of it.
  const uint64_t budget_ns = static_cast<uint64_t>(args.seconds * 1e9);
  const uint64_t phase_start = NowNs();
  const auto extra_setup = [&] {
    ctx.tracer.set_enabled(args.trace);
    const uint64_t t0 = NowNs();
    const auto rep = TimedSetup(&ctx, &setup_s);
    if (!rep.ok()) ctx.Fail("setup: " + rep.status().ToString());
    ctx.untimed_ns += NowNs() - t0;
  };
  const auto setup_due = [&] {
    return setup_s.size() < kSetupReps &&
           (NowNs() - phase_start) * kSetupReps >= setup_s.size() * budget_ns;
  };

  // Timed phase. In trace mode the cycles alternate untraced [0] and
  // traced [1], and there is at least one of each.
  uint64_t cycles = 0;
  const auto more = [&] {
    if (ctx.stop) return false;
    if (args.trace && cycles < 2) return true;
    return !ctx.Done() && (NowNs() - phase_start < budget_ns ||
                           ctx.queries.size() < kMinQueries);
  };
  do {
    const size_t mode = args.trace ? cycles % 2 : 0;
    ++cycles;
    ctx.tracer.set_enabled(mode == 1);
    const uint64_t start = NowNs();
    const uint64_t untimed0 = ctx.untimed_ns;
    const size_t q0 = ctx.queries.size();
    wl->Cycle(&ctx);
    ctx.timed_wall_ns[mode] += NowNs() - start - (ctx.untimed_ns - untimed0);
    ctx.timed_queries[mode] += ctx.queries.size() - q0;
    while (setup_due()) extra_setup();
  } while (more());
  while (setup_s.size() < kSetupReps) extra_setup();
  ctx.tracer.set_enabled(false);
  wl->Finish(&ctx);

  // ---- report ----
  std::vector<Metric> e2e_list, layer_list;
  wl->Report(ctx, &e2e_list, &layer_list);
  std::map<std::string, double> e2e, layer;
  for (const Metric& m : e2e_list) e2e[m.name] = m.value;
  for (const Metric& m : layer_list) layer[m.name] = m.value;

  std::vector<double> sim_us;
  std::vector<double> pool_ratio;
  for (const QueryRecord& q : ctx.queries) {
    sim_us.push_back(static_cast<double>(q.sim_ns) * 1e-3);
    pool_ratio.push_back(q.pool_per_raw);
  }
  const double total_wall =
      static_cast<double>(ctx.timed_wall_ns[0] + ctx.timed_wall_ns[1]);
  e2e["setup_s"] = Median(setup_s);
  e2e["qps_wall"] = Ratio(static_cast<double>(ctx.queries.size()) * 1e9,
                          total_wall);
  e2e["query_sim_p50_us"] = Percentile(sim_us, 50);
  e2e["query_sim_p95_us"] = Percentile(sim_us, 95);
  e2e["peak_rss_mb"] = PeakRssMb();
  // Footprint: the device must hold the largest pool any task builds.
  e2e["pool_bytes_per_raw_byte"] = Percentile(pool_ratio, 100);

  AddQueryLayerMetrics(ctx, &layer);
  AddSpanLayerMetrics(ctx.tracer, &layer);
  if (args.trace) {
    const double untraced =
        Ratio(static_cast<double>(ctx.timed_queries[0]),
              static_cast<double>(ctx.timed_wall_ns[0]));
    const double traced =
        Ratio(static_cast<double>(ctx.timed_queries[1]),
              static_cast<double>(ctx.timed_wall_ns[1]));
    layer["trace.overhead_pct"] = (Ratio(untraced, traced) - 1.0) * 100.0;
    if (!args.trace_out.empty()) {
      const Status st = ctx.tracer.Write(args.trace_out);
      if (!st.ok()) ctx.Fail("trace output: " + st.ToString());
    }
  }

  const auto e2e_out =
      Catalogue(&ctx, kEndToEnd, std::size(kEndToEnd), e2e, true);
  const auto layer_out =
      Catalogue(&ctx, kPerLayer, std::size(kPerLayer), layer, false);
  for (const std::string& e : ctx.errors) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());
  }
  const bool correct = ctx.failed == 0 && ctx.attempted > 0;

  // Run identity and the other metric family, for humans and archives.
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %ld, "
      "\"build_type\": \"%s\", \"revision\": \"%s\", \"scale\": %g, "
      "\"trace\": %d, \"queries\": %zu, \"setup_reps\": %zu, "
      "\"timed_wall_s\": %.6f, \"spans\": %zu}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
      args.revision.c_str(), args.scale, args.trace ? 1 : 0,
      ctx.queries.size(), kSetupReps, total_wall * 1e-9,
      ctx.tracer.size());
  // Per-task sim p50 (clean / faulted queries), to see the mix's shape.
  std::printf("{\"task_sim_p50_us\": {");
  for (Task task : tadoc::kAllTasks) {
    std::vector<double> clean, faulted;
    for (const QueryRecord& q : ctx.queries) {
      if (q.task == task) {
        (q.faulted ? faulted : clean)
            .push_back(static_cast<double>(q.sim_ns) * 1e-3);
      }
    }
    std::printf("%s\"%s\": [%.1f, %.1f]", task == Task::kWordCount ? "" : ", ",
                tadoc::TaskToString(task), Median(clean), Median(faulted));
  }
  std::printf("}}\n");
  std::printf("{\"%s\": {", args.trace ? "end_to_end" : "per_layer");
  PrintMetrics(args.trace ? e2e_out : layer_out);
  std::printf("}}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ctx.attempted),
              static_cast<unsigned long long>(ctx.failed));
  PrintMetrics(args.trace ? layer_out : e2e_out);
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ntadoc::perfbench

int main(int argc, char** argv) {
  ntadoc::SetLogLevel(ntadoc::LogLevel::kError);
  ntadoc::perfbench::Args args;
  if (!ntadoc::perfbench::ParseArgs(argc, argv, &args)) {
    ntadoc::perfbench::PrintUsage();
    return 2;
  }
  return ntadoc::perfbench::Run(args);
}
