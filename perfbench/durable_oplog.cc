// durable_oplog: the durable write path, one thread, sequential queries
// over dataset C' (4 large documents, so per-file tasks go top-down).
//
// Every query creates a fresh NvmDevice and runs NTadocEngine::Run with
// operation-level persistence at commit_interval=8, with structures
// placed on DRAM+NVM tiers (migration on). The DRAM budget scales with the
// dataset: 1 MiB at the default scale 0.25, which word_count fits in and
// sequence_count does not. About 1 query in 8 runs on a strict-persistence
// device, crashes at a seeded traversal step past the second epoch, and
// is resumed by a second engine on the same device;
// its latency covers both runs. Epoch commit, redo log, flush/drain, tier
// routing, migration and recovery do the work; there is no base-image
// clone and no scheduler. Every 16 queries an off-clock probe merges two
// new documents into the corpus the queries init from (refresh_wall_p50_ms).

#include <algorithm>

#include "compress/format.h"
#include "perfbench.h"
#include "nvm/nvm_device.h"
#include "nvm/tiered_pool.h"

namespace ntadoc::perfbench {
namespace {

constexpr uint64_t kMinCapacity = 64ull << 20;
// DRAM tier budget per unit of dataset scale: 1 MiB at the default 0.25.
constexpr double kDramBytesPerScale = 4.0 * (1ull << 20);
constexpr uint32_t kCommitInterval = 8;
// A global task crashes after its second epoch boundary, so it always has
// a durable cursor past its first step to resume at. A per-file top-down
// walk keeps no cursor, and its steps are few.
uint64_t FirstCrashStep(Task task) {
  return tadoc::IsPerFileTask(task) ? 1 : 2 * kCommitInterval + 1;
}
constexpr uint32_t kQueriesPerProbe = 16;

uint64_t RoundUpMiB(uint64_t bytes) {
  constexpr uint64_t kMiB = 1ull << 20;
  return (bytes + kMiB - 1) / kMiB * kMiB;
}

class DurableOplog : public Workload {
 public:
  Status Setup(Context* ctx) override {
    spec_ = SeededSpec(textgen::DatasetC(ctx->args.scale), ctx->args.seed);
    std::vector<compress::InputFile> files;
    NTADOC_ASSIGN_OR_RETURN(corpus_,
                            BuildCorpus(ctx, spec_, &files, &raw_bytes_));
    container_bytes_ = compress::SerializeCorpus(corpus_).size();
    NTADOC_ASSIGN_OR_RETURN(refs_, ReferenceFingerprints(ctx, corpus_));

    nvm::TierConfig tiers;
    tiers.tiers = {{nvm::MediumKind::kDram,
                    static_cast<uint64_t>(kDramBytesPerScale *
                                          ctx->args.scale)}};
    tiers.unit_bytes = 16 * 1024;
    tiers.migrate = true;
    opts_.persistence = core::PersistenceMode::kOperation;
    opts_.commit_interval = kCommitInterval;
    opts_.tiering = std::make_shared<const nvm::TierConfig>(tiers);
    const uint64_t reserve = nvm::TieredPool::PlacementReserve(tiers);
    capacity_ = RoundUpMiB(
        std::max<uint64_t>(kMinCapacity,
                           corpus_.grammar.ExpandedLength() * 48) +
        reserve);

    // Calibration: one clean run per task, on a generously sized device,
    // learns its traversal length (crash points are drawn below it) and
    // its pool footprint, and checks the durable configuration against
    // the oracle before anything is timed.
    uint64_t pool_need = 0;
    for (Task task : tadoc::kAllTasks) {
      QueryRecord q;
      NTADOC_RETURN_IF_ERROR(RunQuery(ctx, {task, false, 0}, &q));
      if (q.info.traversal_steps <= FirstCrashStep(task)) {
        return Status::Internal("traversal too short to crash inside");
      }
      steps_[static_cast<size_t>(task)] = q.info.traversal_steps;
      pool_need = std::max(pool_need, q.info.pool_used_bytes);
    }
    // The timed queries get a device sized to what they use: the redo log,
    // twice the largest pool, the placement region and a MiB for the
    // marker, pool header, spare blocks and mirror. On a device the size of
    // the calibration one, a query's wall time would be mostly page faults
    // for zero-filled memory it never touches.
    capacity_ = RoundUpMiB(opts_.redo_log_bytes + 2 * pool_need + reserve +
                           (1ull << 20));
    mix_ = QueryMix(ctx->args.seed);
    return Status::OK();
  }

  void Cycle(Context* ctx) override {
    for (uint32_t i = 0; i < kMixBlock; ++i) {
      const QueryPlan plan = mix_.Next();
      ++ctx->attempted;
      QueryRecord q;
      const Status st = RunQuery(ctx, plan, &q);
      if (!st.ok()) {
        ctx->Fail(std::string(tadoc::TaskToString(plan.task)) + ": " +
                  st.ToString());
        continue;
      }
      ctx->queries.push_back(q);
      sim_total_ns_ += static_cast<double>(q.sim_ns);
      // Probes follow different queries, so the allocator and cache state
      // the last query left behind does not bias their median.
      if ((i + 1) % kQueriesPerProbe == 0) {
        freshness_.Run(ctx, spec_, corpus_, nullptr);
      }
    }
  }

  void Report(const Context& ctx, std::vector<Metric>* e2e,
              std::vector<Metric>* /*layer*/) const override {
    const double n = static_cast<double>(ctx.queries.size());
    e2e->push_back({"qps_sim", Ratio(n * 1e9, sim_total_ns_), "1/s"});
    e2e->push_back({"refresh_wall_p50_ms", freshness_.P50Ms(), "ms"});
    e2e->push_back({"container_bytes_per_raw_byte",
                    Ratio(container_bytes_, raw_bytes_), "ratio"});
  }

 private:
  // One query on a fresh device; a fault plan crashes the first engine
  // at a seeded step and resumes on a second one over the same device.
  Status RunQuery(Context* ctx, const QueryPlan& plan, QueryRecord* q) {
    const int64_t qid = static_cast<int64_t>(ctx->attempted);
    nvm::DeviceOptions dopts;
    dopts.capacity = capacity_;
    dopts.strict_persistence = plan.fault;
    std::unique_ptr<nvm::NvmDevice> device;
    {
      Span span(&ctx->tracer, "nvm::NvmDevice::Create", qid);
      NTADOC_ASSIGN_OR_RETURN(device, nvm::NvmDevice::Create(dopts));
    }
    const size_t t = static_cast<size_t>(plan.task);
    q->task = plan.task;
    q->faulted = plan.fault;
    if (plan.fault) {
      core::NTadocOptions crash = opts_;
      const uint64_t first = FirstCrashStep(plan.task);
      crash.crash_after_traversal_steps =
          first + plan.draw % (steps_[t] - first);
      core::NTadocEngine engine(&corpus_, device.get(), crash);
      tadoc::RunMetrics m;
      const uint64_t w0 = NowNs();
      Status crashed;
      {
        Span span(&ctx->tracer, "core::NTadocEngine::Run", qid);
        crashed = engine.Run(plan.task, {}, &m).status();
      }
      q->run_wall_ns += NowNs() - w0;
      // Only the planted crash may end the first run: the resume below
      // would hide any other failure.
      if (crashed.code() != StatusCode::kInternal ||
          !crashed.message().starts_with("injected crash")) {
        return Status::Internal("expected the injected crash, got " +
                                crashed.ToString());
      }
    }
    core::NTadocEngine engine(&corpus_, device.get(), opts_);
    const uint64_t w0 = NowNs();
    Result<tadoc::AnalyticsOutput> out = Status::Internal("not run");
    {
      Span span(&ctx->tracer, "core::NTadocEngine::Run", qid);
      out = engine.Run(plan.task, {}, &q->metrics);
    }
    const uint64_t wall = NowNs() - w0;
    if (!out.ok()) return out.status();
    if (tadoc::FingerprintOutput(*out) != refs_[t]) {
      return Status::Internal(plan.fault ? "resumed answer differs"
                                         : "wrong answer");
    }
    q->info = engine.run_info();
    // The second engine must pick up the crashed run, not start over: it
    // reuses the completed init, and a global task resumes at its durable
    // traversal cursor (a per-file top-down walk keeps no cursor and
    // restarts its files).
    if (plan.fault &&
        !(q->info.init_phase_reused &&
          (tadoc::IsPerFileTask(plan.task) || q->info.resumed_at_step > 0))) {
      return Status::Internal("resumed run did not recover the crashed one");
    }
    q->run_wall_ns += wall;
    if (plan.fault) q->recovery_wall_ns = wall;
    // A fresh device's clock holds exactly this query's simulated time.
    q->sim_ns = device->clock().NowNanos();
    q->run_sim_ns = q->sim_ns;
    q->pool_per_raw = Ratio(static_cast<double>(q->info.pool_used_bytes),
                            static_cast<double>(raw_bytes_));
    q->has_device = true;
    q->device = device->stats();
    return Status::OK();
  }

  textgen::CorpusSpec spec_;
  compress::CompressedCorpus corpus_;
  uint64_t raw_bytes_ = 0;
  uint64_t container_bytes_ = 0;
  Fingerprints refs_{};
  core::NTadocOptions opts_;
  uint64_t capacity_ = 0;
  std::array<uint64_t, tadoc::kAllTasks.size()> steps_{};
  QueryMix mix_{0};

  double sim_total_ns_ = 0;
  FreshnessProbe freshness_;
};

}  // namespace

std::unique_ptr<Workload> MakeDurableOplog() {
  return std::make_unique<DurableOplog>();
}

}  // namespace ntadoc::perfbench
