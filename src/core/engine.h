// N-TADOC: NVM-based text analytics directly on compressed data.
//
// The paper's system (Section IV). A run has two phases:
//   1. Initialization — the compressed grammar is pruned (Algorithm 1)
//      into a contiguous DAG pool on the NVM device, per-structure upper
//      bounds are estimated bottom-up (Algorithm 2), and every
//      variable-length analytics structure (hash tables, word lists,
//      local n-gram lists) is allocated exactly once at its bound.
//   2. Graph traversal — top-down weight propagation over the pruned DAG
//      (Kahn queue resident in the pool) or bottom-up list merging in
//      reverse layout order; counters live in pool-resident hash tables.
//
// Persistence (Section IV-E):
//   * kNone       — volatile run, no flushes (used for ablations);
//   * kPhase      — libpmem-style: bulk flush + durable phase marker at
//                   each phase boundary; recovery restarts the
//                   interrupted phase, reusing completed ones;
//   * kOperation  — libpmemobj-style: every traversal step's mutations
//                   commit through a redo-log transaction with a durable
//                   cursor, so recovery resumes mid-phase at the last
//                   completed step (at the cost of write amplification).

#ifndef NTADOC_CORE_ENGINE_H_
#define NTADOC_CORE_ENGINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "compress/compressor.h"
#include "core/nvm_hash_table.h"
#include "core/nvm_vector.h"
#include "core/pruning.h"
#include "nvm/nvm_device.h"
#include "nvm/nvm_pool.h"
#include "nvm/obj_log.h"
#include "nvm/tiered_pool.h"
#include "nvm/pmem.h"
#include "tadoc/analytics.h"
#include "tadoc/engine.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace ntadoc::core {

using compress::CompressedCorpus;
using tadoc::AnalyticsOptions;
using tadoc::AnalyticsOutput;
using tadoc::NgramKey;
using tadoc::RunMetrics;
using tadoc::Task;
using tadoc::TraversalStrategy;

/// Persistence cost levels (Section IV-E).
enum class PersistenceMode : uint8_t { kNone = 0, kPhase, kOperation };

const char* PersistenceModeToString(PersistenceMode m);

/// Parses a --persistence= flag value ("none", "phase", "operation") or a
/// PersistenceModeToString name; InvalidArgument for anything else.
Result<PersistenceMode> ParsePersistenceMode(std::string_view name);

class SealedPrefix;      // immutable cross-session init prefix (below)
class SharedRuleCache;   // thread-safe decoded-rule cache (below)

/// N-TADOC configuration.
struct NTadocOptions {
  PersistenceMode persistence = PersistenceMode::kPhase;

  TraversalStrategy traversal = TraversalStrategy::kAuto;

  /// Ablation: disable Algorithm 1 (payloads stay raw and unaggregated).
  bool enable_pruning = true;

  /// Ablation: disable Algorithm 2 (structures start small and are
  /// rebuilt/doubled on overflow — the redundant NVM traffic the paper
  /// measures against).
  bool enable_summation = true;

  /// Redo-log region size for operation-level persistence.
  uint64_t redo_log_bytes = 8ull << 20;

  /// Operation-level group commit: traversal steps per durable epoch.
  /// 1 (the default) keeps the strict libpmemobj-style per-step protocol
  /// bit-for-bit; K > 1 accumulates K steps into one epoch whose records
  /// are coalesced (overlapping/adjacent writes merged, repeated counter
  /// updates collapsed to their final value) and whose dirty 64 B lines
  /// are flushed once as contiguous runs with a single drain. Recovery
  /// resumes at the last committed epoch boundary, so a crash loses at
  /// most the K-1 steps of the open epoch.
  uint32_t commit_interval = 1;

  /// Test hook: simulate a power failure (discard unflushed lines) after
  /// this many traversal steps; 0 disables. The run then fails with
  /// Internal("injected crash").
  uint64_t crash_after_traversal_steps = 0;

  /// Test hook: crash during the initialization phase.
  bool crash_in_init = false;

  /// DRAM budget (bytes) for the decoded-rule cache; 0 disables it. When
  /// enabled, decoded rule/segment payloads are kept in a host-side LRU
  /// cache (a SharedRuleCache this engine owns, cleared at every init): a
  /// hit replays the payload's device extents against a DRAM cost profile
  /// (sharing the run's SimClock) instead of re-reading NVM. With the
  /// default 0 the simulated costs are bit-identical to a build without
  /// the cache.
  uint64_t dram_cache_bytes = 0;

  /// Bound on scoped repairs (re-derive + remap of damaged blocks) within
  /// one Run before escalating to a salvage restart.
  uint32_t max_scoped_repairs = 8;

  /// Bound on full salvage restarts (fresh init from the compressed
  /// container) within one Run.
  uint32_t max_salvage_restarts = 2;

  /// When repair and salvage are both exhausted (or disabled), complete
  /// the query in degraded mode instead of failing: unreadable media
  /// contributes nothing and RunInfo::completeness reports the fraction
  /// of traversal steps that saw clean media.
  bool allow_degraded = false;

  // ---- Concurrent serving (src/serve) ----

  /// Per-query simulated-time budget in nanoseconds (0 = unlimited),
  /// measured on the run's SimClock from Run() entry. Repair and salvage
  /// attempts count against the same budget. When it expires, the run
  /// stops at the next cancellation point (every traversal step plus the
  /// init estimator loops) and returns DeadlineExceeded — the session
  /// fails, never the engine or its siblings.
  uint64_t deadline_sim_ns = 0;

  /// Cooperative cancellation flag, polled at the same points as the
  /// deadline; may be flipped from another thread (the scheduler's
  /// load-shedding path). Null = never cancelled. A cancelled run also
  /// returns DeadlineExceeded.
  const std::atomic<bool>* cancel = nullptr;

  /// Decoded-rule cache shared by concurrent sessions over one sealed
  /// pool. Overrides dram_cache_bytes when set: hits replay against a
  /// DRAM model on *this session's* clock, so siblings never pay for each
  /// other's lookups. Entries survive across sessions (the sealed payload
  /// layout is deterministic) and are invalidated on any repair/salvage.
  std::shared_ptr<SharedRuleCache> shared_cache;

  /// Task-independent init prefix of the sealed pool this session's
  /// device image was cloned from (see RunAndCapturePrefix). Lets every
  /// session skip the container load, DAG rebuild and estimator reads,
  /// like RunBatch's cross-task reuse but across engines. Ignored when a
  /// RunBatch-local prefix exists or the prefix does not match this
  /// engine's corpus/options.
  std::shared_ptr<const SealedPrefix> sealed_prefix;

  /// Generation of the durable container this engine's image was sealed
  /// from (ContainerStore::generation(); 0 = not container-backed). Part
  /// of the sealed-prefix reuse key: a prefix captured before an append
  /// mutated the container can never be served against the post-append
  /// generation, even though corpus pointer and options may match.
  uint64_t container_generation = 0;

  /// Pool-level repair lock shared by concurrent sessions. Scoped
  /// repair, salvage formatting and attach-path repair serialize on it,
  /// so at most one session rewrites (its private copy of) pool state at
  /// a time while the others keep reading; null = no serving, no lock.
  /// Lock order: always acquired *before* any SharedRuleCache lock
  /// (repair paths invalidate the cache while holding it; lookups never
  /// take the repair lock), so the pair cannot deadlock.
  std::shared_ptr<util::Mutex> repair_lock;

  // ---- Tiered placement (src/nvm/tiered_pool.h) ----

  /// Multi-tier placement configuration. When set, the engine reserves
  /// a placement region at the pool end, registers every structure
  /// class with a session TieredPool, routes all device charges through
  /// the resident tier's cost model, and (when config->migrate) runs an
  /// online migration tick every config->migrate_interval traversal
  /// steps. Null (the default) leaves the device charging exactly as
  /// before — the hot path pays one null check.
  std::shared_ptr<const nvm::TierConfig> tiering;
};

/// Every per-run event counter, one line each: X(name, scope). It makes
/// RunCounters, and so the --stats keys, serve's sums and the bench JSON.
/// kRun marks the fault counters, which accumulate across a Run's repair
/// and salvage attempts; kAttempt counters describe the final attempt.
#define NTADOC_RUN_COUNTERS(X)                                                 \
  X(traversal_steps, kAttempt)                                                 \
  X(init_phase_reused, kAttempt)     /* 1: recovery skipped a done init */     \
  X(counter_rebuilds, kAttempt)      /* no-summation table rebuilds */         \
  X(redo_logged_bytes, kAttempt)     /* operation-level write amp. */          \
  X(group_checkpoints, kAttempt)     /* full-log flushes + truncations */      \
  /* Media-fault accounting (see DESIGN.md "Fault model"). */                  \
  X(corruption_detected, kRun)       /* corrupt persisted state found */       \
  X(salvage_restarts, kRun)          /* full restarts from container */        \
  X(blocks_lost, kRun)               /* unrepairable blocks (pre-salvage) */   \
  X(transient_retries, kAttempt)     /* device retries absorbed */             \
  X(blocks_remapped, kRun)           /* bad blocks moved to spares */          \
  X(scoped_repairs, kRun)            /* objects re-derived in place */         \
  X(degraded_queries, kAttempt)      /* 1: this run completed degraded */      \
  /* Decoded-rule DRAM cache (dram_cache_bytes > 0 or shared_cache). */        \
  X(rule_cache_hits, kAttempt)                                                 \
  X(rule_cache_misses, kAttempt)                                               \
  /* Epoch group commit (operation-level, commit_interval > 1). */             \
  X(epoch_commits, kAttempt)         /* durable epoch transactions */          \
  X(coalesced_records, kAttempt)     /* log records saved by merging */        \
  X(coalesced_flush_lines, kAttempt) /* line flushes avoided */                \
  X(batch_init_reuses, kAttempt)     /* RunBatch tasks that skipped init */    \
  /* Tiered placement (options.tiering != nullptr). */                         \
  X(promotions, kAttempt)            /* units moved to a faster tier */        \
  X(demotions, kAttempt)             /* units moved to a slower tier */        \
  X(migration_epochs, kAttempt)      /* ticks that committed moves */

/// The event counters of one run (NTADOC_RUN_COUNTERS). They sum across
/// runs: ServingStats::sessions is the field-wise sum of its sessions'.
struct RunCounters {
  enum Scope : uint8_t { kAttempt, kRun };
  using Field = uint64_t RunCounters::*;

#define NTADOC_RC_MEMBER(name, scope) uint64_t name = 0;
  NTADOC_RUN_COUNTERS(NTADOC_RC_MEMBER)
#undef NTADOC_RC_MEMBER

  /// Calls f(name, field, scope) for every counter, in list order.
  template <typename F>
  static void ForEachField(F&& f) {
#define NTADOC_RC_FIELD(name, scope) f(#name, &RunCounters::name, scope);
    NTADOC_RUN_COUNTERS(NTADOC_RC_FIELD)
#undef NTADOC_RC_FIELD
  }

  /// Calls visit(name, value) for every counter, in list order.
  template <typename F>
  void ForEach(F&& visit) const {
    ForEachField([&](const char* n, Field m, Scope) { visit(n, this->*m); });
  }

  RunCounters& operator+=(const RunCounters& o) {
    ForEachField([&](const char*, Field m, Scope) { this->*m += o.*m; });
    return *this;
  }

  /// The kRun counters, every kAttempt counter zero: what a Run carries
  /// from one repair or salvage attempt into the next.
  RunCounters AcrossAttempts() const {
    RunCounters kept;
    ForEachField([&](const char*, Field m, Scope s) {
      if (s == kRun) kept.*m = this->*m;
    });
    return kept;
  }
};

/// Accounting of one run beyond RunMetrics: the event counters, plus
/// levels that describe where the run ended and do not sum across runs.
struct NTadocRunInfo : RunCounters {
  PruneStats prune;
  uint64_t pool_used_bytes = 0;
  uint64_t resumed_at_step = 0;  // operation-level recovery resume point
  double completeness = 1.0;     // fraction of clean traversal steps
  /// Registered bytes resident per medium (MediumKind order:
  /// dram, nvm, ssd, hdd) at the end of the run.
  std::array<uint64_t, 4> tier_resident_bytes{};
};

/// The N-TADOC engine. One engine instance owns the layout of one device
/// (phase marker, optional redo log, DAG pool) and can re-attach to a
/// device that already holds a persisted run (crash recovery).
class NTadocEngine {
 public:
  /// `corpus` and `device` must outlive the engine.
  NTadocEngine(const CompressedCorpus* corpus, nvm::NvmDevice* device,
               NTadocOptions options = NTadocOptions());
  ~NTadocEngine();

  NTadocEngine(const NTadocEngine&) = delete;
  NTadocEngine& operator=(const NTadocEngine&) = delete;

  /// Runs one analytics task end to end, including recovery: if the
  /// device holds a matching persisted run (same task/options signature),
  /// completed phases are reused; with operation-level persistence the
  /// traversal resumes at the last durable step.
  Result<AnalyticsOutput> Run(Task task, const AnalyticsOptions& opts = {},
                              RunMetrics* metrics = nullptr);

  /// Runs several tasks back to back, paying the initialization phase's
  /// dominant costs once: the first task performs a full init; later
  /// tasks reuse the sealed DAG pool prefix (pruned payloads, rule/
  /// segment metadata, local n-gram lists) plus the host-side estimator
  /// scratch, re-running only per-task work (table/list allocation at
  /// the task's bounds, catalog + integrity reseal). Each task still
  /// produces its own output/metrics; `metrics`, when non-null, is
  /// resized to tasks.size(). Salvage or repair invalidates the shared
  /// prefix, so the next task falls back to a full init.
  Result<std::vector<AnalyticsOutput>> RunBatch(
      std::span<const Task> tasks, const AnalyticsOptions& opts = {},
      std::vector<RunMetrics>* metrics = nullptr);

  /// Runs `task` like Run() while capturing the task-independent init
  /// prefix. On success `*prefix` receives an immutable handle that any
  /// number of later engines can consume via NTadocOptions::sealed_prefix
  /// — each paired with a clone of this device's image as its
  /// DeviceOptions::base_image (the sealed pool). serve::SealPool wraps
  /// this.
  Result<AnalyticsOutput> RunAndCapturePrefix(
      Task task, const AnalyticsOptions& opts,
      std::shared_ptr<const SealedPrefix>* prefix,
      RunMetrics* metrics = nullptr);

  /// Accounting for the most recent Run().
  const NTadocRunInfo& run_info() const;

  /// Device extent of the pruned payload region from the engine's current
  /// state ({0, 0} before the first init). Tests use it to aim media
  /// faults at re-derivable data.
  std::pair<uint64_t, uint64_t> payload_region() const;

  /// Device extent of the local n-gram lists (rule lists in layout order,
  /// then one per file segment) from the engine's current state; {0, 0}
  /// before the first init and for tasks without n-grams.
  std::pair<uint64_t, uint64_t> gram_region() const;

 private:
  struct State;        // pool-resident structure handles + host scratch
  struct RuleCache;    // decoded-payload DRAM cache (engine.cc)
  struct BatchShared;  // cross-task init state for RunBatch (engine.cc)
  class StepLoop;      // the traversal step driver (engine.cc)
  // All per-run mutable state — cursors, RunInfo counters, degraded/
  // repair flags, cache handles, deadline — lives here rather than in
  // engine-wide members, so one engine instance is exactly one session
  // and N engines over clones of one sealed image share nothing mutable
  // except the explicitly thread-safe SharedRuleCache / repair lock.
  struct SessionContext;

  friend class SealedPrefix;
  friend class SharedRuleCache;

  // Phase 1: build (or re-attach) all pool structures for `task`. With
  // `force_fresh` the attach path is skipped (salvage restart after
  // detected corruption).
  Status InitPhase(Task task, const AnalyticsOptions& opts, State* st,
                   bool force_fresh);

  // Attempts to re-attach to a persisted, signature-matching run. Returns
  // true on success; false means "no matching state, do a fresh init"
  // (not an error). Detected corruption is counted in run_info_ and also
  // falls back to fresh init, except for damage that only a restart can
  // clear, which is returned as DataLoss.
  Result<bool> TryAttach(State* st, uint64_t pool_base);

  // Phase 2: runs the task's traversal kernel. Each kernel is a frontier
  // plus a per-step reducer; StepLoop drives the steps.
  Result<AnalyticsOutput> TraversalPhase(State* st);
  Result<AnalyticsOutput> TopDownGlobal(State* st);
  Result<AnalyticsOutput> TopDownPerFile(State* st);
  // Bottom-up list merging over word or n-gram list entries.
  template <typename Entry>
  Result<AnalyticsOutput> BottomUp(State* st);

  // Scoped repair: re-derives the contents of each damaged block from the
  // compressed container (payloads, local n-gram lists) or resets it
  // (mutable traversal state), then remaps the media. Returns false when
  // any block cannot be repaired — the caller escalates to salvage.
  bool RepairDamage(State* st,
                    const std::vector<nvm::NvmPool::Damage>& damage);

  // Mid-run repair entry point: scrubs the pool and repairs in place so
  // the interrupted traversal can resume instead of restarting.
  bool TryScopedRepair();

  // Persistence helpers.
  void CommitPhase(uint64_t phase);
  Status MaybeInjectCrash();

  // DataLoss if any read since the last call hit an unreadable block
  // (the data the caller just consumed is poison, not real).
  Status CheckMediaErrors();

  // Cooperative cancellation point: DeadlineExceeded once the session's
  // sim-clock budget expired or its cancel flag was flipped. Polled at
  // every traversal step and inside the init estimator loops.
  Status CheckSessionLimits() const;

  // Drops the session's decoded-rule cache entries (session-owned or
  // shared) after a repair/salvage rewrote pool payloads under the
  // cached offsets.
  void InvalidateRuleCache();

  // Tiered placement (options_.tiering != nullptr; no-ops otherwise).
  // SetupTiering runs at the end of every init (fresh or attach):
  // formats/loads the placement region, registers the run's structure
  // extents with the session TieredPool, and applies initial placement.
  Status SetupTiering(State* st, bool fresh);
  // Per-traversal-step migration hook, called after each step's commit
  // point; invalidates the decoded-rule cache when a payload unit was
  // demoted (its admission costs were measured against the old tier).
  Status MaybeMigrate(State* st);

  // Decoded-payload reads routed through the DRAM cache when enabled
  // (straight device reads otherwise). `segment` selects segment vs rule.
  DecodedPayload ReadPayloadCached(State* st, bool segment, uint32_t id);

  const CompressedCorpus* corpus_;
  nvm::NvmDevice* device_;
  NTadocOptions options_;
  std::unique_ptr<SessionContext> ses_;
};

/// Thread-safe decoded-rule DRAM cache. Concurrent sessions over one
/// sealed pool share one (NTadocOptions::shared_cache); an engine handed
/// none owns its own, sized by NTadocOptions::dram_cache_bytes. The
/// sealed payload layout is deterministic, so an entry decoded by one
/// session is valid for every sibling; the hit replay is charged to the
/// *looking-up* session's clock through its own DRAM model. Repair or
/// salvage in any session invalidates the cache (the only cross-session
/// effect repairs are allowed to have).
class SharedRuleCache {
 public:
  /// `budget_bytes` bounds the decoded payloads held in host memory.
  explicit SharedRuleCache(uint64_t budget_bytes);
  ~SharedRuleCache();

  SharedRuleCache(const SharedRuleCache&) = delete;
  SharedRuleCache& operator=(const SharedRuleCache&) = delete;

  /// Drops every entry and the cross-query reuse history. Engines call
  /// this after any repair/salvage; tests use it to observe invalidation.
  void Invalidate() NTADOC_EXCLUDES(mu_);

  /// Number of cached payloads right now.
  uint64_t entries() const NTADOC_EXCLUDES(mu_);

  /// Invalidations performed so far (repair-triggered plus explicit).
  uint64_t invalidations() const NTADOC_EXCLUDES(mu_);

 private:
  friend class NTadocEngine;
  mutable util::Mutex mu_;
  // The cache_ handle itself is set once in the constructor; the
  // pointed-to LRU state is what every session mutates under mu_.
  std::unique_ptr<NTadocEngine::RuleCache> cache_ NTADOC_PT_GUARDED_BY(mu_);
  uint64_t invalidations_ NTADOC_GUARDED_BY(mu_) = 0;
};

/// Immutable capture of the task-independent init prefix of a sealed
/// pool: the pruned DAG layout, prune stats, estimator scratch and (when
/// sealed by a sequence task) the local n-gram region. Produced by
/// NTadocEngine::RunAndCapturePrefix, consumed read-only by any number of
/// concurrent engines whose devices were cloned from the same sealed
/// image.
class SealedPrefix {
 public:
  ~SealedPrefix();

  SealedPrefix(const SealedPrefix&) = delete;
  SealedPrefix& operator=(const SealedPrefix&) = delete;

  /// Simulated cost of the shared init work this prefix replaces (see
  /// RunMetrics::shared_init_sim_ns).
  uint64_t shared_init_sim_ns() const { return shared_init_sim_ns_; }

 private:
  friend class NTadocEngine;
  SealedPrefix();
  const CompressedCorpus* corpus_ = nullptr;
  bool pruned_ = true;
  // Pool layout depends on the sealing engine's persistence mode (marker
  // region, redo-log reservation, spare blocks); a consuming session must
  // match it exactly or fall back to a full init.
  PersistenceMode persistence_ = PersistenceMode::kPhase;
  uint64_t redo_log_bytes_ = 0;
  // Container generation the sealing engine was bound to; a session over
  // a different generation of the same corpus must not reuse the prefix.
  uint64_t container_generation_ = 0;
  uint64_t shared_init_sim_ns_ = 0;
  std::unique_ptr<NTadocEngine::BatchShared> shared_;
};

}  // namespace ntadoc::core

#endif  // NTADOC_CORE_ENGINE_H_
