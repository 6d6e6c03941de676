// refresh_ingest: writes beside reads. Dataset C' is hosted in a durable
// ContainerStore and served by a ServingEngine; each cycle submits a wave
// of queries, refreshes the corpus with two seeded new documents while
// that wave is served, submits a second wave (pinned to the new
// generation at submit time), and drains both. StageAppend re-runs
// Sequitur and the grammar merge, the refresh re-seals the pool, commits
// one redo epoch and publishes a generation; meanwhile the old one keeps
// serving.
//
// Untraced runs call CorpusRefresher::Refresh. Traced runs drive the same
// public steps Refresh uses (StageAppend, SealPool, CommitAppend,
// PublishGeneration) so each gets its own span; they do so in their
// untraced cycles too, so the tracing overhead compares one code path.
//
// Engines rotate per cycle to bound the results they retain. Cycle k's
// engine is built over the generation cycle k-1's engine published, whose
// corpus that engine owns; so an engine is released only once its
// successor has drained that generation.
//
// Thread budget: serving workers + this thread (which runs the refresh)
// stay within nproc.

#include <unistd.h>

#include <algorithm>
#include <deque>
#include <map>

#include "compress/format.h"
#include "core/container_store.h"
#include "perfbench.h"
#include "serve/refresh.h"
#include "serve/serving.h"
#include "util/string_util.h"

namespace ntadoc::perfbench {
namespace {

constexpr uint32_t kWave = kMixBlock / 2;
constexpr uint32_t kMaxRefreshes = 64;
constexpr uint64_t kMinCapacity = 64ull << 20;

// Words joined by single spaces: the text a container decodes to.
std::string Normalize(const std::string& text) {
  std::string out;
  for (std::string_view tok : SplitTokens(text)) {
    if (!out.empty()) out.push_back(' ');
    out.append(tok);
  }
  return out;
}

class RefreshIngest : public Workload {
 public:
  // Newest engine first: an older engine owns the corpus of the
  // generation its successor was built over.
  ~RefreshIngest() override {
    while (!fleets_.empty()) fleets_.pop_back();
  }

  Status Setup(Context* ctx) override {
    spec_ = SeededSpec(textgen::DatasetC(ctx->args.scale), ctx->args.seed);
    NTADOC_ASSIGN_OR_RETURN(corpus_,
                            BuildCorpus(ctx, spec_, &files_, &raw_bytes_));

    // The store is sized for every refresh a run may make.
    uint64_t fresh_bytes = 0;
    for (uint32_t i = 1; i <= kMaxRefreshes; ++i) {
      fresh_bytes += RawBytes(FreshDocs(spec_, ctx->args.seed, i));
    }
    const uint64_t slot_bytes =
        (compress::SerializeCorpus(corpus_).size() + fresh_bytes + 65536) &
        ~uint64_t{63};
    core::ContainerStoreOptions csopts;
    const uint64_t region = 2 * 64 + csopts.log_bytes + 2 * slot_bytes;
    nvm::DeviceOptions dopts;
    dopts.capacity = region + 4096;
    dopts.strict_persistence = true;  // the durability check needs it
    store_capacity_ = dopts.capacity;
    {
      Span span(&ctx->tracer, "nvm::NvmDevice::Create");
      NTADOC_ASSIGN_OR_RETURN(store_device_, nvm::NvmDevice::Create(dopts));
    }
    {
      Span span(&ctx->tracer, "core::ContainerStore::Create");
      NTADOC_ASSIGN_OR_RETURN(
          auto store, core::ContainerStore::Create(store_device_.get(), 0,
                                                   region, corpus_, csopts));
      store_ = std::make_unique<core::ContainerStore>(std::move(store));
    }

    serve::SealOptions so;
    so.capacity = std::max<uint64_t>(kMinCapacity,
                                     corpus_.grammar.ExpandedLength() * 48);
    so.engine.persistence = core::PersistenceMode::kPhase;
    so.engine.container_generation = store_->generation();
    {
      Span span(&ctx->tracer, "serve::SealPool");
      NTADOC_ASSIGN_OR_RETURN(auto sealed, serve::SealPool(&corpus_, so));
      pool_ = std::make_shared<const serve::SealedPool>(std::move(sealed));
    }
    Generation g0;
    g0.raw_bytes = raw_bytes_;
    NTADOC_ASSIGN_OR_RETURN(g0.refs, ReferenceFingerprints(ctx, corpus_));
    gens_.clear();
    gens_[store_->generation()] = std::move(g0);
    published_ = store_->generation();

    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    workers_ = static_cast<uint32_t>(std::clamp<long>(nproc - 1, 1, 3));
    mix_ = QueryMix(ctx->args.seed);
    return Status::OK();
  }

  void Cycle(Context* ctx) override {
    if (refreshes_ >= kMaxRefreshes) {
      ctx->stop = true;  // the store was sized for this many
      return;
    }
    serve::ServingOptions sopts;
    sopts.workers = workers_;
    sopts.queue_capacity = 2 * kWave;
    sopts.work_stealing = false;
    // No shared rule cache: its entries are not keyed by generation, and
    // sessions of the draining and the new generation share it, so a
    // refresh under load can serve stale decoded rules (see README.md).
    Fleet& fleet = fleets_.emplace_back();
    fleet.pool = pool_;
    fleet.server = std::make_unique<serve::ServingEngine>(pool_.get(), sopts);
    serve::ServingEngine& server = *fleet.server;

    const uint64_t t0 = NowNs();
    SubmitWave(ctx, &server);
    Refresh(ctx, &server);
    SubmitWave(ctx, &server);
    {
      Span span(&ctx->tracer, "serve::ServingEngine::Drain");
      server.Drain();
    }
    {
      Span span(&ctx->tracer, "serve::ServingEngine::WaitGenerationDrained");
      server.WaitGenerationDrained();
    }
    const uint64_t wall = NowNs() - t0;

    uint64_t run_wall = 0;
    for (const Pending& p : pending_) {
      const serve::QueryResult& r = server.result(p.ticket);
      if (!r.status.ok()) {
        ctx->Fail(std::string(tadoc::TaskToString(p.plan.task)) + ": " +
                  r.status.ToString());
        continue;
      }
      auto gen = gens_.find(r.generation);
      if (gen == gens_.end()) {
        ctx->Fail("query served unknown generation " +
                  std::to_string(r.generation));
        continue;
      }
      // Checked against the oracle after the timed phase.
      answers_.push_back(
          {r.generation, p.plan.task, tadoc::FingerprintOutput(r.output)});
      QueryRecord q =
          FleetRollup::Record(r, p.plan, gen->second.raw_bytes);
      run_wall += q.run_wall_ns;
      ctx->queries.push_back(q);
    }
    pending_.clear();
    fleet_.AddEngine(server, wall, run_wall);

    // The next cycle serves what this one published; the previous
    // engine's generation has now drained here, so it can go.
    pool_ = server.current_pool();
    if (fleets_.size() > 1) fleets_.pop_front();
  }

  void Finish(Context* ctx) override {
    // Every answer against the oracle for its task and generation. Later
    // generations are rebuilt by replaying the appends on the original
    // corpus; the first one's references were made during setup.
    compress::ParallelCompressOptions popts;
    popts.threads = 1;
    compress::CompressedCorpus current = corpus_;
    for (auto it = std::next(gens_.begin()); it != gens_.end(); ++it) {
      auto merged = compress::AppendFiles(
          current, FreshDocs(spec_, ctx->args.seed, it->second.refresh),
          popts);
      auto refs = merged.ok() ? ReferenceFingerprints(ctx, *merged)
                              : Result<Fingerprints>(merged.status());
      if (!refs.ok()) {
        ctx->Fail("reference: " + refs.status().ToString());
        break;
      }
      it->second.refs = *refs;
      current = std::move(*merged);
    }
    for (const Answer& a : answers_) {
      if (a.fingerprint != gens_[a.generation].refs[static_cast<size_t>(
                               a.task)]) {
        ctx->Fail("wrong answer: " + std::string(tadoc::TaskToString(a.task)) +
                  " at generation " + std::to_string(a.generation));
      }
    }
    ++ctx->attempted;
    const Status st = CheckRecovery(ctx);
    if (!st.ok()) ctx->Fail("durability: " + st.ToString());
  }

  void Report(const Context& ctx, std::vector<Metric>* e2e,
              std::vector<Metric>* layer) const override {
    fleet_.Report(ctx, e2e, layer);
    e2e->push_back({"refresh_wall_p50_ms", Median(refresh_ms_), "ms"});
    e2e->push_back(
        {"container_bytes_per_raw_byte",
         Ratio(store_->container_bytes(), gens_.rbegin()->second.raw_bytes),
         "ratio"});
    layer->push_back({"nvm.store.drains_per_refresh",
                      Ratio(static_cast<double>(store_drains_), refreshes_),
                      "count/refresh"});
  }

 private:
  struct Fleet {
    std::shared_ptr<const serve::SealedPool> pool;  // outlives server
    std::unique_ptr<serve::ServingEngine> server;
  };
  struct Generation {
    uint32_t refresh = 0;  // ordinal of the refresh that made it
    uint64_t raw_bytes = 0;
    Fingerprints refs{};
  };
  struct Pending {
    uint64_t ticket;
    QueryPlan plan;
  };
  struct Answer {
    uint64_t generation;
    Task task;
    uint64_t fingerprint;
  };

  void SubmitWave(Context* ctx, serve::ServingEngine* server) {
    for (uint32_t i = 0; i < kWave; ++i) {
      const QueryPlan plan = mix_.Next();
      serve::QueryRequest req;
      req.task = plan.task;
      ++ctx->attempted;
      Span span(&ctx->tracer, "serve::ServingEngine::Submit",
                static_cast<int64_t>(ctx->attempted));
      auto ticket = server->Submit(std::move(req));
      if (!ticket.ok()) {
        ctx->Fail("submit: " + ticket.status().ToString());
        continue;
      }
      pending_.push_back({*ticket, plan});
    }
  }

  // One refresh while the first wave is being served.
  void Refresh(Context* ctx, serve::ServingEngine* server) {
    const auto docs = FreshDocs(spec_, ctx->args.seed, refreshes_ + 1);
    ++ctx->attempted;
    const uint64_t drains0 = store_device_->drain_count();
    const uint64_t t0 = NowNs();
    const Status st = ctx->args.trace
                          ? RefreshInSteps(ctx, server, docs)
                          : RefreshInOneCall(server, docs);
    refresh_ms_.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    if (!st.ok()) {
      ctx->Fail("refresh: " + st.ToString());
      ctx->stop = true;  // engine rotation relies on a new generation
      return;
    }
    ++refreshes_;
    store_drains_ += store_device_->drain_count() - drains0;
    files_.insert(files_.end(), docs.begin(), docs.end());
    published_ = server->current_generation();
    Generation g;
    g.refresh = refreshes_;
    g.raw_bytes = gens_.rbegin()->second.raw_bytes + RawBytes(docs);
    gens_[published_] = std::move(g);
  }

  Status RefreshInOneCall(serve::ServingEngine* server,
                          const std::vector<compress::InputFile>& docs) {
    serve::RefreshOptions ropts;
    ropts.compress.threads = 1;  // deterministic merged bytes
    serve::CorpusRefresher refresher(store_.get(), server, ropts);
    return refresher.Refresh(docs);
  }

  Status RefreshInSteps(Context* ctx, serve::ServingEngine* server,
                        const std::vector<compress::InputFile>& docs) {
    compress::ParallelCompressOptions popts;
    popts.threads = 1;
    Result<core::PendingAppend> staged = Status::Internal("not staged");
    {
      Span span(&ctx->tracer, "core::ContainerStore::StageAppend");
      staged = store_->StageAppend(docs, popts);
    }
    NTADOC_RETURN_IF_ERROR(staged.status());
    auto corpus =
        std::make_shared<compress::CompressedCorpus>(std::move(staged->merged));
    serve::SealOptions so = server->current_pool()->options;
    so.engine.container_generation = staged->sequence;
    so.capacity = std::max<uint64_t>(so.capacity,
                                     corpus->grammar.ExpandedLength() * 48);
    Result<serve::SealedPool> sealed = Status::Internal("not sealed");
    {
      Span span(&ctx->tracer, "serve::SealPool");
      sealed = serve::SealPool(corpus.get(), so);
    }
    NTADOC_RETURN_IF_ERROR(sealed.status());
    {
      Span span(&ctx->tracer, "core::ContainerStore::CommitAppend");
      NTADOC_RETURN_IF_ERROR(store_->CommitAppend(*staged));
    }
    {
      Span span(&ctx->tracer, "serve::ServingEngine::PublishGeneration");
      server->PublishGeneration(
          std::make_shared<const serve::SealedPool>(std::move(*sealed)),
          staged->sequence, std::move(corpus));
    }
    return Status::OK();
  }

  // Restart from the store's persisted bytes alone: the recovered store
  // must name the last published generation and decode to the original
  // plus every appended document.
  Status CheckRecovery(Context* ctx) {
    nvm::DeviceOptions dopts;
    dopts.capacity = store_capacity_;
    dopts.strict_persistence = true;
    std::unique_ptr<nvm::NvmDevice> device;
    {
      Span span(&ctx->tracer, "nvm::NvmDevice::Create");
      NTADOC_ASSIGN_OR_RETURN(device, nvm::NvmDevice::Create(dopts));
    }
    device->LoadSnapshot(store_device_->PersistedSnapshot());
    NTADOC_ASSIGN_OR_RETURN(auto store,
                            core::ContainerStore::Open(device.get(), 0));
    if (store.generation() != published_) {
      return Status::DataLoss("recovered generation " +
                              std::to_string(store.generation()) +
                              ", published " + std::to_string(published_));
    }
    NTADOC_ASSIGN_OR_RETURN(auto corpus, store.Load());
    const std::vector<std::string> texts = compress::DecodeToText(corpus);
    if (texts.size() != files_.size() ||
        corpus.file_names.size() != files_.size()) {
      return Status::DataLoss("recovered " + std::to_string(texts.size()) +
                              " files, expected " +
                              std::to_string(files_.size()));
    }
    for (size_t i = 0; i < files_.size(); ++i) {
      if (corpus.file_names[i] != files_[i].name ||
          texts[i] != Normalize(files_[i].content)) {
        return Status::DataLoss("recovered file " + files_[i].name +
                                " differs");
      }
    }
    return Status::OK();
  }

  textgen::CorpusSpec spec_;
  compress::CompressedCorpus corpus_;
  std::vector<compress::InputFile> files_;  // original + appended, in order
  uint64_t raw_bytes_ = 0;
  std::unique_ptr<nvm::NvmDevice> store_device_;
  uint64_t store_capacity_ = 0;
  std::unique_ptr<core::ContainerStore> store_;
  std::shared_ptr<const serve::SealedPool> pool_;  // next cycle's pool
  std::map<uint64_t, Generation> gens_;            // by generation id
  uint64_t published_ = 0;
  uint32_t workers_ = 1;
  QueryMix mix_{0};

  // Declared after everything the engines point into, so they go first.
  std::deque<Fleet> fleets_;
  std::vector<Pending> pending_;
  std::vector<Answer> answers_;
  uint32_t refreshes_ = 0;
  uint64_t store_drains_ = 0;
  std::vector<double> refresh_ms_;
  FleetRollup fleet_;
};

}  // namespace

std::unique_ptr<Workload> MakeRefreshIngest() {
  return std::make_unique<RefreshIngest>();
}

}  // namespace ntadoc::perfbench
