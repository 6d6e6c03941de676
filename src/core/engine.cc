#include "core/engine_internal.h"

namespace ntadoc::core {

namespace {

/// Each mode's display name and its --persistence= flag value.
struct PersistenceName {
  PersistenceMode mode;
  const char* name;
  const char* flag;
};
constexpr PersistenceName kPersistenceNames[] = {
    {PersistenceMode::kNone, "none", "none"},
    {PersistenceMode::kPhase, "phase-level", "phase"},
    {PersistenceMode::kOperation, "operation-level", "operation"},
};

}  // namespace

const char* PersistenceModeToString(PersistenceMode m) {
  for (const PersistenceName& n : kPersistenceNames) {
    if (n.mode == m) return n.name;
  }
  return "?";
}

Result<PersistenceMode> ParsePersistenceMode(std::string_view name) {
  for (const PersistenceName& n : kPersistenceNames) {
    if (name == n.flag || name == n.name) return n.mode;
  }
  return Status::InvalidArgument("unknown persistence mode '" +
                                 std::string(name) + "'");
}

// ---------------------------------------------------------------------------
// Construction / signature
// ---------------------------------------------------------------------------

NTadocEngine::NTadocEngine(const CompressedCorpus* corpus,
                           nvm::NvmDevice* device, NTadocOptions options)
    : corpus_(corpus),
      device_(device),
      options_(options),
      ses_(std::make_unique<SessionContext>()) {
  NTADOC_CHECK(corpus != nullptr);
  NTADOC_CHECK(device != nullptr);
  ses_->rule_cache = options_.shared_cache;
  if (ses_->rule_cache != nullptr) {
    ses_->cache_dram.emplace(nvm::DramProfile(), device_->clock_ptr());
  }
}

NTadocEngine::~NTadocEngine() {
  // The device outlives this engine (tests and serving reuse it across
  // engines); never leave it routing charges through a dead TieredPool.
  if (ses_ != nullptr && ses_->tiered != nullptr &&
      device_->tier_router() == ses_->tiered.get()) {
    device_->set_tier_router(nullptr);
  }
}

const NTadocRunInfo& NTadocEngine::run_info() const { return ses_->run_info; }

std::pair<uint64_t, uint64_t> NTadocEngine::payload_region() const {
  if (!ses_->state) return {0, 0};
  return {ses_->state->dag.payload_begin, ses_->state->dag.payload_end};
}

std::pair<uint64_t, uint64_t> NTadocEngine::gram_region() const {
  if (!ses_->state) return {0, 0};
  return {ses_->state->gram_begin, ses_->state->gram_end};
}

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

void NTadocEngine::BeginAttempt() {
  // Fault accounting accumulates across repair/salvage attempts;
  // everything else describes the final (successful) attempt only.
  const RunCounters carried = ses_->run_info.AcrossAttempts();
  ses_->run_info = NTadocRunInfo();
  ses_->run_info += carried;
  ses_->state = std::make_unique<State>();
  ses_->media_errors_seen = device_->media_error_count();
  ses_->shared_init_sim_ns = 0;
  ses_->init_shared = false;
}

Result<AnalyticsOutput> NTadocEngine::Run(Task task,
                                          const AnalyticsOptions& opts,
                                          RunMetrics* metrics) {
  if (opts.ngram < 2 || opts.ngram > NgramKey::kMaxNgram) {
    return Status::InvalidArgument("ngram must be in [2, 4]");
  }
  if (opts.top_k == 0) {
    return Status::InvalidArgument("top_k must be > 0");
  }
  if (options_.persistence == PersistenceMode::kOperation &&
      !options_.enable_summation) {
    return Status::InvalidArgument(
        "operation-level persistence requires the summation estimator");
  }
  ses_->run_info = NTadocRunInfo();
  // Arm the session deadline as an absolute lane-clock timestamp; every
  // cancellation point compares against it, including repair/salvage
  // attempts (they run on the same clock).
  ses_->deadline_ns =
      options_.deadline_sim_ns == 0
          ? 0
          : device_->clock().NowNanos() + options_.deadline_sim_ns;

  // Repair/salvage loop. Detected corruption (DataLoss) escalates in
  // order of blast radius:
  //   1. scoped repair — re-derive + remap just the damaged blocks and
  //      resume (attach-path damage is repaired inside TryAttach; this
  //      loop handles damage the traversal trips over);
  //   2. salvage restart — discard the persisted state and rebuild from
  //      the still-valid compressed container;
  //   3. degraded mode (opt-in) — complete the query treating unreadable
  //      media as empty, reporting completeness < 1.
  // Injected crashes (Internal) are never salvaged — they model real
  // power loss and must surface to the caller.
  ses_->degraded = false;
  ses_->degraded_events = 0;
  const uint64_t transient0 = device_->transient_retry_count();
  // The tiered pool may not exist yet at Run() entry (it is created inside
  // InitPhase on the first Run); a null pool contributes zero baselines.
  nvm::TierCounters tier0;
  if (ses_->tiered != nullptr) tier0 = ses_->tiered->counters();
  bool force_fresh = false;
  uint32_t salvage_attempts = 0;
  uint32_t scoped_attempts = 0;
  WallTimer timer;

  auto finish_info = [&] {
    ses_->run_info.transient_retries =
        device_->transient_retry_count() - transient0;
    if (ses_->tiered != nullptr) {
      const nvm::TierCounters tc = ses_->tiered->counters();
      ses_->run_info.promotions = tc.promotions - tier0.promotions;
      ses_->run_info.demotions = tc.demotions - tier0.demotions;
      ses_->run_info.migration_epochs =
          tc.migration_epochs - tier0.migration_epochs;
      ses_->run_info.tier_resident_bytes = tc.resident_bytes;
    }
    if (ses_->degraded && ses_->degraded_events > 0) {
      ses_->run_info.degraded_queries = 1;
      const uint64_t steps = ses_->run_info.traversal_steps;
      ses_->run_info.completeness =
          steps == 0 ? 0.0
                     : 1.0 - static_cast<double>(
                                 std::min(ses_->degraded_events, steps)) /
                                 static_cast<double>(steps);
    }
  };

  for (;;) {
    BeginAttempt();

    // Restarts from the compressed container, the source of truth. The
    // batch's prefix and any decoded-rule cache live in the layout being
    // discarded, so both go; the persisted state is invalidated so
    // nothing re-attaches to it (serving sessions serialize that rewrite
    // on the pool-level repair lock).
    auto restart_fresh = [&] {
      ses_->batch.reset();
      InvalidateRuleCache();
      if (options_.persistence != PersistenceMode::kNone) {
        util::OptionalMutexLock repair_lk(options_.repair_lock.get());
        nvm::PhaseMarker(device_, kMarkerOffset).Format();
      }
      force_fresh = true;
    };
    auto salvage = [&](const Status& s) {
      ++ses_->run_info.corruption_detected;
      ++ses_->run_info.salvage_restarts;
      ++salvage_attempts;
      NTADOC_LOG(Warning) << "salvage restart " << salvage_attempts
                          << " after data loss: " << s.message();
      restart_fresh();
    };
    // Last resort once repair and salvage budgets are spent: rerun with
    // media errors absorbed instead of surfaced. Only ever entered once.
    auto try_degrade = [&] {
      if (!options_.allow_degraded || ses_->degraded) return false;
      NTADOC_LOG(Warning)
          << "repair and salvage exhausted; rerunning degraded";
      ses_->degraded = true;
      restart_fresh();
      return true;
    };
    // The ladder for a failed phase; true means run the attempt again.
    auto recover = [&](const Status& s) {
      if (s.code() != StatusCode::kDataLoss) return false;
      // Scoped repair first: damage in state a fresh rebuild never
      // rewrites (e.g. a poisoned block under allocator padding, found by
      // the integrity hash) can only be cleared by repair — salvage
      // restarts would hit it again forever. Repaired in place, the next
      // attempt re-attaches to the persisted state and resumes (no
      // force_fresh).
      if (options_.persistence != PersistenceMode::kNone &&
          scoped_attempts < options_.max_scoped_repairs &&
          TryScopedRepair()) {
        ses_->batch.reset();  // prefix repaired under the batch's feet
        ++scoped_attempts;
        return true;
      }
      if (salvage_attempts < options_.max_salvage_restarts) {
        salvage(s);
        return true;
      }
      return try_degrade();
    };

    timer.Reset();
    const uint64_t sim0 = device_->clock().NowNanos();
    const Status init_status =
        InitPhase(task, opts, ses_->state.get(), force_fresh);
    const uint64_t init_wall = timer.ElapsedNanos();
    const uint64_t init_sim = device_->clock().NowNanos() - sim0;
    if (!init_status.ok()) {
      if (recover(init_status)) continue;
      finish_info();
      return init_status;
    }
    // Attach-path probes may have tripped media errors that were handled
    // (counted, repaired, salvaged or healed); only errors from here on
    // are fatal.
    ses_->media_errors_seen = device_->media_error_count();

    timer.Reset();
    const uint64_t trav_sim0 = device_->clock().NowNanos();
    auto result = TraversalPhase(ses_->state.get());
    if (!result.ok()) {
      if (recover(result.status())) continue;
      finish_info();
      return result;
    }
    ses_->run_info.pool_used_bytes = ses_->state->pool ? ses_->state->pool->UsedBytes() : 0;
    if (ses_->state->log) {
      ses_->run_info.redo_logged_bytes = ses_->state->log->logged_payload_bytes();
      ses_->run_info.group_checkpoints = ses_->state->log->checkpoints();
    }
    if (metrics != nullptr) {
      metrics->init_wall_ns = init_wall;
      metrics->init_sim_ns = init_sim;
      metrics->traversal_wall_ns = timer.ElapsedNanos();
      metrics->traversal_sim_ns = device_->clock().NowNanos() - trav_sim0;
      metrics->used_traversal = ses_->state->strategy;
      metrics->shared_init_sim_ns = ses_->shared_init_sim_ns;
      metrics->init_shared = ses_->init_shared;
    }
    finish_info();
    return result;
  }
}

Result<std::vector<AnalyticsOutput>> NTadocEngine::RunBatch(
    std::span<const Task> tasks, const AnalyticsOptions& opts,
    std::vector<RunMetrics>* metrics) {
  std::vector<AnalyticsOutput> outputs;
  outputs.reserve(tasks.size());
  if (metrics != nullptr) metrics->assign(tasks.size(), RunMetrics{});
  if (tasks.empty()) return outputs;

  // Arm the batch: the first full init leaves its prefix, every later
  // task's InitPhase consumes it. A salvage or scoped repair along the
  // way disarms it (Run resets it), after which the remaining tasks
  // initialize from scratch.
  ses_->batch.emplace();
  uint64_t reuses = 0;
  Status failure = Status::OK();
  for (size_t i = 0; i < tasks.size(); ++i) {
    auto out = Run(tasks[i], opts, metrics ? &(*metrics)[i] : nullptr);
    reuses += ses_->run_info.batch_init_reuses;
    if (!out.ok()) {
      failure = out.status();
      break;
    }
    outputs.push_back(std::move(*out));
  }
  ses_->batch.reset();
  // run_info() after a batch reports the last task's run, with the reuse
  // counter aggregated over the whole batch.
  ses_->run_info.batch_init_reuses = reuses;
  if (!failure.ok()) return failure;
  return outputs;
}

Result<std::shared_ptr<const InitPrefix>> NTadocEngine::CapturePrefix() {
  BeginAttempt();
  // Arm a one-task batch: the init leaves its prefix there.
  ses_->batch.emplace();
  const Status status = InitPhase(Task::kWordCount, AnalyticsOptions(),
                                  ses_->state.get(), /*force_fresh=*/false);
  std::optional<SessionContext::Batch> captured = std::move(ses_->batch);
  ses_->batch.reset();
  NTADOC_RETURN_IF_ERROR(status);
  if (!captured || captured->prefix == nullptr) {
    // The init re-attached to a persisted run instead of building one;
    // the caller should seal over a fresh device (serve::SealPool always
    // does).
    return Status::Internal("sealed-prefix capture requires a fresh init");
  }
  return std::move(captured->prefix);
}

}  // namespace ntadoc::core
