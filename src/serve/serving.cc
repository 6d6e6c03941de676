#include "serve/serving.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace ntadoc::serve {

// ---------------------------------------------------------------------------
// SealPool
// ---------------------------------------------------------------------------

Result<SealedPool> SealPool(const CompressedCorpus* corpus,
                            const SealOptions& options) {
  if (corpus == nullptr) {
    return Status::InvalidArgument("SealPool: corpus must not be null");
  }
  nvm::DeviceOptions dopts;
  dopts.capacity = options.capacity;
  dopts.profile = options.profile;
  dopts.strict_persistence = options.strict_persistence;
  NTADOC_ASSIGN_OR_RETURN(auto device, nvm::NvmDevice::Create(dopts));

  core::NTadocOptions eng_opts = options.engine;
  // The sealing run is a plain single-session run.
  eng_opts.deadline_sim_ns = 0;
  eng_opts.cancel = nullptr;
  eng_opts.shared_cache.reset();
  eng_opts.sealed_prefix.reset();
  eng_opts.repair_lock.reset();

  SealedPool sealed;
  {
    // Scoped: the engine touches the device as it goes away, and the
    // device is consumed below.
    core::NTadocEngine engine(corpus, device.get(), eng_opts);
    NTADOC_RETURN_IF_ERROR(engine
                               .RunAndCapturePrefix(options.seal_task,
                                                    options.seal_opts,
                                                    &sealed.prefix)
                               .status());
  }
  sealed.corpus = corpus;
  sealed.options = options;
  sealed.seal_sim_ns = device->clock().NowNanos();
  // The persisted state *is* the sealed pool: what survives power loss
  // is exactly what every session clone starts from. The device's own
  // pages become the image, as a DAX pool is its media.
  NTADOC_ASSIGN_OR_RETURN(sealed.image,
                          nvm::NvmDevice::Seal(std::move(device)));
  return sealed;
}

// ---------------------------------------------------------------------------
// ServingEngine
// ---------------------------------------------------------------------------

ServingEngine::ServingEngine(const SealedPool* pool, ServingOptions options)
    : pool_(pool), options_(std::move(options)) {
  NTADOC_CHECK(pool_ != nullptr);
  NTADOC_CHECK(pool_->image != nullptr);
  if (options_.workers == 0) options_.workers = 1;
  repair_lock_ = std::make_shared<util::Mutex>();
  lanes_.reserve(options_.workers);
  for (uint32_t w = 0; w < options_.workers; ++w) {
    lanes_.push_back(nvm::MakeSimClock());
  }
  {
    // Generation 0: the construction pool, non-owning (the caller keeps
    // it alive). Its identity is the container generation the pool was
    // sealed from (0 when not container-backed).
    util::MutexLock lock(&mu_);
    generations_.push_back(NewGeneration(
        pool_->options.engine.container_generation,
        std::shared_ptr<const SealedPool>(std::shared_ptr<const void>(),
                                          pool_),
        nullptr));
    current_gen_ = 0;
  }
  util::WorkerPool::Options popts;
  popts.workers = options_.workers;
  popts.work_stealing = options_.work_stealing;
  popts.start_paused = options_.start_paused;
  wpool_ = std::make_unique<util::WorkerPool>(
      popts, [this](uint32_t w, uint64_t ticket) { Execute(w, ticket); });
}

ServingEngine::~ServingEngine() { Shutdown(); }

std::unique_ptr<ServingEngine::Generation> ServingEngine::NewGeneration(
    uint64_t id, std::shared_ptr<const SealedPool> pool,
    std::shared_ptr<const void> keepalive) const {
  auto g = std::make_unique<Generation>();
  g->id = id;
  g->pool = std::move(pool);
  g->keepalive = std::move(keepalive);
  g->cancel = std::make_shared<std::atomic<bool>>(false);
  if (options_.shared_cache_bytes > 0) {
    g->rule_cache =
        std::make_shared<core::SharedRuleCache>(options_.shared_cache_bytes);
  }
  return g;
}

Result<uint64_t> ServingEngine::Submit(QueryRequest request) {
  util::MutexLock lock(&mu_);
  ++stats_.submitted;
  // Ticket allocation and the admission decision are both serialized by
  // mu_ (held across TryPost), so a rejected submission can roll its
  // slot back without another submitter having observed it.
  const uint64_t ticket = results_.size();
  results_.push_back(std::make_unique<QueryResult>());
  requests_.push_back(std::move(request));
  // Generation pinning happens at admission: whatever is current *now*
  // is what this session will serve from, even if a refresh publishes a
  // newer generation before a worker picks the ticket up.
  ticket_gen_.push_back(current_gen_);
  const util::WorkerPool::PostOutcome outcome = wpool_->TryPost(
      ticket, options_.queue_capacity, options_.shed_watermark,
      requests_[ticket].sheddable);
  switch (outcome) {
    case util::WorkerPool::PostOutcome::kRejected:
      // Fast-reject: no ticket, no session state, the caller backs off.
      results_.pop_back();
      requests_.pop_back();
      ticket_gen_.pop_back();
      ++stats_.rejected_queue_full;
      return Status::ResourceExhausted("serving queue full");
    case util::WorkerPool::PostOutcome::kShed: {
      // Load shedding: admitted-and-dropped, never queued (and never
      // pinned — a shed session holds no generation alive).
      QueryResult& r = *results_[ticket];
      r.status = Status::DeadlineExceeded("shed under load");
      r.generation = generations_[current_gen_]->id;
      r.shed = true;
      r.done = true;
      ++stats_.shed;
      return ticket;
    }
    case util::WorkerPool::PostOutcome::kQueued:
      break;
  }
  ++generations_[current_gen_]->pinned;
  ++stats_.accepted;
  return ticket;
}

void ServingEngine::PublishGeneration(std::shared_ptr<const SealedPool> pool,
                                      uint64_t id,
                                      std::shared_ptr<const void> keepalive,
                                      uint64_t drain_deadline_sim_ns) {
  NTADOC_CHECK(pool != nullptr && pool->image != nullptr);
  {
    util::MutexLock lock(&mu_);
    Generation* old = generations_[current_gen_].get();
    old->draining = true;
    old->drain_deadline_sim_ns = drain_deadline_sim_ns;
    old->publish_makespan_ns = makespan_sim_ns();
    if (old->pinned == 0) {
      // Nothing was in flight: retire the old image immediately.
      old->pool.reset();
      old->keepalive.reset();
      old->rule_cache.reset();
    }
    generations_.push_back(
        NewGeneration(id, std::move(pool), std::move(keepalive)));
    current_gen_ = static_cast<uint32_t>(generations_.size() - 1);
    ++stats_.generations_published;
    EnforceDrainDeadlines();
  }
  gen_cv_.NotifyAll();
}

void ServingEngine::WaitGenerationDrained() {
  util::MutexLock lock(&mu_);
  gen_cv_.Wait(&mu_, [this]() NTADOC_REQUIRES(mu_) {
    EnforceDrainDeadlines();
    for (const auto& g : generations_) {
      if (g->draining && g->pinned > 0) return false;
    }
    return true;
  });
}

uint64_t ServingEngine::current_generation() const {
  util::MutexLock lock(&mu_);
  return generations_[current_gen_]->id;
}

std::shared_ptr<const SealedPool> ServingEngine::current_pool() const {
  util::MutexLock lock(&mu_);
  return generations_[current_gen_]->pool;
}

void ServingEngine::EnforceDrainDeadlines() {
  const uint64_t mk = makespan_sim_ns();
  for (const auto& g : generations_) {
    if (g->draining && g->pinned > 0 && g->drain_deadline_sim_ns > 0 &&
        mk > g->publish_makespan_ns &&
        mk - g->publish_makespan_ns > g->drain_deadline_sim_ns &&
        !g->cancel->load(std::memory_order_relaxed)) {
      g->cancel->store(true, std::memory_order_relaxed);
    }
  }
}

void ServingEngine::Start() { wpool_->Start(); }

void ServingEngine::Drain() { wpool_->Drain(); }

void ServingEngine::Shutdown() { wpool_->Shutdown(); }

const QueryResult& ServingEngine::result(uint64_t ticket) const {
  util::MutexLock lock(&mu_);
  NTADOC_CHECK(ticket < results_.size());
  return *results_[ticket];
}

ServingStats ServingEngine::stats() const {
  ServingStats s;
  {
    util::MutexLock lock(&mu_);
    s = stats_;
  }
  const util::WorkerPool::Counters c = wpool_->counters();
  s.stolen = c.stolen;
  s.max_queue_depth = c.max_pending;
  return s;
}

uint64_t ServingEngine::worker_lane_ns(uint32_t w) const {
  NTADOC_CHECK(w < lanes_.size());
  return lanes_[w]->NowNanos();
}

uint64_t ServingEngine::makespan_sim_ns() const {
  uint64_t mk = 0;
  for (const auto& lane : lanes_) mk = std::max(mk, lane->NowNanos());
  return mk;
}

QueryResult ServingEngine::RunSession(uint32_t w, uint64_t ticket) {
  // Snapshot the request and the pinned generation under the lock;
  // everything below runs without it — session construction and the
  // query itself touch only private state plus the explicitly
  // thread-safe shared pieces. The shared_ptr copies keep the pinned
  // pool (and whatever owns its corpus) alive even if the generation is
  // retired concurrently — which cannot happen while pinned > 0, but
  // costs nothing to make structurally impossible.
  QueryRequest req;
  std::shared_ptr<const SealedPool> pool;
  std::shared_ptr<const void> keepalive;
  std::shared_ptr<std::atomic<bool>> cancel;
  std::shared_ptr<core::SharedRuleCache> rule_cache;
  uint64_t gen_id = 0;
  {
    util::MutexLock lock(&mu_);
    req = requests_[ticket];
    // A queued old-generation session starting after the drain deadline
    // passed should be cancelled up front, not run to completion.
    EnforceDrainDeadlines();
    const Generation& g = *generations_[ticket_gen_[ticket]];
    pool = g.pool;
    keepalive = g.keepalive;
    cancel = g.cancel;
    rule_cache = g.rule_cache;
    gen_id = g.id;
  }

  QueryResult local;
  local.worker = w;
  local.generation = gen_id;

  nvm::DeviceOptions dopts;
  dopts.capacity = pool->options.capacity;
  dopts.profile = pool->options.profile;
  dopts.strict_persistence = pool->options.strict_persistence;
  dopts.clock = lanes_[w];  // persistent per-worker lane
  dopts.base_image = pool->image;
  dopts.fault_plan = req.fault_plan;
  dopts.fault_seed = req.fault_seed;
  auto device = nvm::NvmDevice::Create(dopts);
  if (!device.ok()) {
    local.status = device.status();
    local.done = true;
  } else {
    for (const QueryRequest::Poison& p : req.poison) {
      (*device)->PoisonForTesting(p.offset, p.len, p.sticky);
    }
    core::NTadocOptions eng_opts = pool->options.engine;
    eng_opts.deadline_sim_ns = req.deadline_sim_ns != 0
                                   ? req.deadline_sim_ns
                                   : options_.default_deadline_sim_ns;
    eng_opts.cancel = cancel.get();
    eng_opts.sealed_prefix = pool->prefix;
    eng_opts.repair_lock = repair_lock_;
    eng_opts.shared_cache = std::move(rule_cache);
    if (req.allow_degraded) eng_opts.allow_degraded = true;

    core::NTadocEngine engine(pool->corpus, device->get(), eng_opts);
    const uint64_t lane0 = lanes_[w]->NowNanos();
    auto out = engine.Run(req.task, req.opts, &local.metrics);
    local.latency_sim_ns = lanes_[w]->NowNanos() - lane0;
    local.info = engine.run_info();
    if (out.ok()) {
      local.output = std::move(*out);
      local.status = Status::OK();
    } else {
      local.status = out.status();
    }
    local.done = true;
  }
  return local;
}

void ServingEngine::Execute(uint32_t w, uint64_t ticket) {
  // Every reference the session took on its generation (pool, image,
  // keepalive, cache) dies with RunSession's scope, before the session
  // counts as finished: once WaitGenerationDrained returns, the engine
  // holds nothing of a retired generation, and its image is unmapped
  // unless the caller still holds it.
  QueryResult local = RunSession(w, ticket);
  {
    util::MutexLock lock(&mu_);
    if (local.status.ok()) {
      ++stats_.completed;
      if (local.info.degraded_queries > 0) ++stats_.degraded;
    } else if (local.status.code() == StatusCode::kDeadlineExceeded) {
      ++stats_.deadline_expired;
    } else {
      ++stats_.failed;
    }
    stats_.sessions += local.info;
    Generation& g = *generations_[ticket_gen_[ticket]];
    --g.pinned;
    if (g.draining) {
      ++stats_.drained_sessions;
      if (g.pinned == 0) {
        // Last straggler gone: release the retired image, corpus and
        // cache.
        g.pool.reset();
        g.keepalive.reset();
        g.rule_cache.reset();
      }
    }
    // Lane time advanced: stragglers on other draining generations may
    // now be past their deadline.
    EnforceDrainDeadlines();
    *results_[ticket] = std::move(local);
  }
  gen_cv_.NotifyAll();
}

}  // namespace ntadoc::serve
