// serve_phase: read-only serving of dataset B' (hundreds of small files,
// so per-file tasks take the bottom-up path) from one sealed pool.
//
// Setup seals the corpus once with phase-level persistence. Each cycle
// builds a ServingEngine (3 workers, work stealing off, shared rule cache
// on), pre-fills its queue from this thread with 48 queries of the seeded
// mix, drains it and checks every answer. One engine per cycle bounds the
// results the engine retains; the sealed pool is shared by all of them.
// About 1 query in 8 carries a repairable poisoned payload block, so the
// repair ladder runs. There is no redo log, no tiering and no ingest.
// After each cycle an off-clock probe merges two new documents and seals
// the grown corpus again: what a read-only fleet must do before it can
// serve them (refresh_wall_p50_ms).

#include <algorithm>

#include "compress/format.h"
#include "perfbench.h"
#include "serve/serving.h"

namespace ntadoc::perfbench {
namespace {

constexpr uint32_t kWorkers = 3;
constexpr uint32_t kBatch = kMixBlock;
constexpr uint64_t kMinCapacity = 64ull << 20;
constexpr uint64_t kSharedCacheBytes = 8ull << 20;
constexpr uint64_t kPoisonBlock = 256;

class ServePhase : public Workload {
 public:
  Status Setup(Context* ctx) override {
    spec_ = SeededSpec(textgen::DatasetB(ctx->args.scale), ctx->args.seed);
    std::vector<compress::InputFile> files;
    NTADOC_ASSIGN_OR_RETURN(corpus_,
                            BuildCorpus(ctx, spec_, &files, &raw_bytes_));
    container_bytes_ = compress::SerializeCorpus(corpus_).size();
    NTADOC_ASSIGN_OR_RETURN(refs_, ReferenceFingerprints(ctx, corpus_));

    so_.capacity = std::max<uint64_t>(
        kMinCapacity, corpus_.grammar.ExpandedLength() * 48);
    so_.engine.persistence = core::PersistenceMode::kPhase;
    NTADOC_RETURN_IF_ERROR(LocatePayload(ctx));
    Span span(&ctx->tracer, "serve::SealPool");
    NTADOC_ASSIGN_OR_RETURN(sealed_, serve::SealPool(&corpus_, so_));
    mix_ = QueryMix(ctx->args.seed);
    return Status::OK();
  }

  void Cycle(Context* ctx) override {
    serve::ServingOptions sopts;
    sopts.workers = kWorkers;
    sopts.queue_capacity = kBatch;
    sopts.work_stealing = false;  // fixed lanes: per-lane sim is exact
    sopts.shared_cache_bytes = kSharedCacheBytes;
    serve::ServingEngine server(&sealed_, sopts);

    struct Pending {
      uint64_t ticket;
      QueryPlan plan;
    };
    std::vector<Pending> pending;
    const uint64_t t0 = NowNs();
    for (uint32_t i = 0; i < kBatch; ++i) {
      const QueryPlan plan = mix_.Next();
      serve::QueryRequest req;
      req.task = plan.task;
      if (plan.fault) req.poison.push_back({PoisonOffset(plan.draw), 1, false});
      ++ctx->attempted;
      Span span(&ctx->tracer, "serve::ServingEngine::Submit",
                static_cast<int64_t>(ctx->attempted));
      auto ticket = server.Submit(std::move(req));
      if (!ticket.ok()) {
        ctx->Fail("submit: " + ticket.status().ToString());
        continue;
      }
      pending.push_back({*ticket, plan});
    }
    {
      Span span(&ctx->tracer, "serve::ServingEngine::Drain");
      server.Drain();
    }
    const uint64_t wall = NowNs() - t0;

    uint64_t run_wall = 0;
    for (const Pending& p : pending) {
      const serve::QueryResult& r = server.result(p.ticket);
      if (!r.status.ok()) {
        ctx->Fail(std::string(tadoc::TaskToString(p.plan.task)) + ": " +
                  r.status.ToString());
        continue;
      }
      if (tadoc::FingerprintOutput(r.output) !=
          refs_[static_cast<size_t>(p.plan.task)]) {
        ctx->Fail(std::string("wrong answer: ") +
                  tadoc::TaskToString(p.plan.task));
        continue;
      }
      QueryRecord q = FleetRollup::Record(r, p.plan, raw_bytes_);
      run_wall += q.run_wall_ns;
      ctx->queries.push_back(q);
    }
    fleet_.AddEngine(server, wall, run_wall);
    freshness_.Run(ctx, spec_, corpus_, &so_);
  }

  void Report(const Context& ctx, std::vector<Metric>* e2e,
              std::vector<Metric>* layer) const override {
    fleet_.Report(ctx, e2e, layer);
    e2e->push_back({"refresh_wall_p50_ms", freshness_.P50Ms(), "ms"});
    e2e->push_back({"container_bytes_per_raw_byte",
                    Ratio(container_bytes_, raw_bytes_), "ratio"});
  }

 private:
  // The sealed layout is deterministic, so a solo run with the same
  // options shows where the pruned payloads live; poison lands there,
  // where a session's repair ladder can re-derive it.
  Status LocatePayload(Context* ctx) {
    nvm::DeviceOptions dopts;
    dopts.capacity = so_.capacity;
    dopts.profile = so_.profile;
    std::unique_ptr<nvm::NvmDevice> device;
    {
      Span span(&ctx->tracer, "nvm::NvmDevice::Create");
      NTADOC_ASSIGN_OR_RETURN(device, nvm::NvmDevice::Create(dopts));
    }
    core::NTadocEngine engine(&corpus_, device.get(), so_.engine);
    {
      Span span(&ctx->tracer, "core::NTadocEngine::Run");
      NTADOC_RETURN_IF_ERROR(engine.Run(Task::kWordCount).status());
    }
    const auto [begin, end] = engine.payload_region();
    if (end < begin + kPoisonBlock) {
      return Status::Internal("payload region too small to poison");
    }
    payload_begin_ = begin;
    payload_blocks_ = (end - begin) / kPoisonBlock;
    return Status::OK();
  }

  uint64_t PoisonOffset(uint64_t draw) const {
    return payload_begin_ + (draw % payload_blocks_) * kPoisonBlock;
  }

  textgen::CorpusSpec spec_;
  compress::CompressedCorpus corpus_;
  uint64_t raw_bytes_ = 0;
  uint64_t container_bytes_ = 0;
  Fingerprints refs_{};
  serve::SealOptions so_;
  serve::SealedPool sealed_;
  uint64_t payload_begin_ = 0;
  uint64_t payload_blocks_ = 1;
  QueryMix mix_{0};

  FleetRollup fleet_;
  FreshnessProbe freshness_;
};

}  // namespace

std::unique_ptr<Workload> MakeServePhase() {
  return std::make_unique<ServePhase>();
}

}  // namespace ntadoc::perfbench
