// Fault-isolated concurrent query serving over one sealed N-TADOC pool.
//
// The serving model (DESIGN.md "Session model"):
//   * SealPool runs one initialization, and no traversal, on a private
//     device and freezes the persisted image plus the task-independent
//     init prefix (core::InitPrefix) into an immutable SealedPool.
//   * ServingEngine spawns N worker threads. Every admitted query becomes
//     one *session*: a private NvmDevice cloned from the sealed image, a
//     private NTadocEngine (one engine instance = one SessionContext),
//     and the worker's persistent SimClock lane. Sessions share only the
//     immutable image/prefix, their generation's optional thread-safe
//     decoded-rule cache, and the pool-level repair lock — so media
//     faults, repairs, salvage and degraded mode stay scoped to the
//     session that hit them, and a failing session can never corrupt a
//     sibling's answer or counters.
//   * Admission control bounds the pending queue: Submit fast-rejects
//     with ResourceExhausted when the queue is full, and load-sheds
//     sheddable requests above the shed watermark. Expired per-session
//     sim-clock deadlines surface as DeadlineExceeded without stalling
//     the queue.
//
// Timing: each worker accumulates simulated time on its own clock lane;
// a query's latency is the lane delta across its run, and the fleet's
// makespan is the maximum lane time — queries on different workers
// overlap, queries on one worker serialize.
//
// Generations (DESIGN.md "Generations & online refresh"): the engine
// serves from a table of sealed pools. Every admitted query is pinned at
// Submit time to the then-current generation; PublishGeneration installs
// a new pool as current and marks the old one draining. Draining
// sessions finish on their own generation (their answers stay
// bit-identical to a solo run over that pool); once the last one
// finishes, the retired pool's image is released. A drain deadline
// (simulated time since publish) escalates to cooperative cancel: late
// stragglers stop at their next cancellation point with
// DeadlineExceeded instead of holding the old image alive forever.

#ifndef NTADOC_SERVE_SERVING_H_
#define NTADOC_SERVE_SERVING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "nvm/nvm_device.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/worker_pool.h"

namespace ntadoc::serve {

using compress::CompressedCorpus;

/// How to build the sealed pool.
struct SealOptions {
  /// Device geometry for the sealed image and every session clone.
  uint64_t capacity = 64ull << 20;
  nvm::DeviceProfile profile = nvm::OptaneProfile();

  /// Strict persistence for session devices (required for torn-flush /
  /// bit-flip fault effects; slower). The sealing init itself always uses
  /// the same setting so the persisted image is representative.
  bool strict_persistence = false;

  /// Engine configuration shared by the sealing init and every session.
  /// The serving fields (deadline, cancel, shared_cache, sealed_prefix,
  /// repair_lock) are overwritten per session by ServingEngine. The seal
  /// is one committed init for the word-count plan
  /// (core::NTadocEngine::CapturePrefix): the captured prefix is
  /// task-independent, and every session reallocates its own traversal
  /// structures over it.
  core::NTadocOptions engine;
};

/// Immutable product of SealPool: the persisted device image plus the
/// captured init prefix. Safe to share across any number of concurrent
/// ServingEngines/sessions.
struct SealedPool {
  const CompressedCorpus* corpus = nullptr;
  SealOptions options;
  std::shared_ptr<const nvm::SealedImage> image;
  std::shared_ptr<const core::InitPrefix> prefix;
  /// Simulated cost of the sealing init (paid once, off the serving
  /// path): the init_sim_ns of a word count on a fresh device.
  uint64_t seal_sim_ns = 0;
};

/// Runs one committed init, with no traversal, on a fresh private device
/// and captures the sealed image/prefix. The image carries the pruned DAG
/// with zero rule weights; Algorithm 2's estimates live in the prefix.
/// `corpus` must outlive the returned pool.
Result<SealedPool> SealPool(const CompressedCorpus* corpus,
                            const SealOptions& options);

/// One query. Fault fields model media trouble of *this session's*
/// device clone only — the sealed image and sibling sessions never see
/// them.
struct QueryRequest {
  tadoc::Task task = tadoc::Task::kWordCount;
  tadoc::AnalyticsOptions opts;

  /// Per-query sim-clock budget; 0 = ServingOptions default.
  uint64_t deadline_sim_ns = 0;

  /// Sheddable requests are dropped (status DeadlineExceeded, shed=true)
  /// when the pending queue reaches the shed watermark.
  bool sheddable = false;

  /// Overrides the engine default: complete under unreadable media with
  /// completeness < 1 instead of failing the session.
  bool allow_degraded = false;

  /// Declarative media faults for this session's device.
  nvm::FaultPlan fault_plan;
  uint64_t fault_seed = 1;

  /// Powered-off damage applied to the session clone before the run.
  struct Poison {
    uint64_t offset = 0;
    uint64_t len = 0;
    bool sticky = false;
  };
  std::vector<Poison> poison;
};

/// Outcome of one session.
struct QueryResult {
  Status status;  // OK, DeadlineExceeded, DataLoss, ...
  tadoc::AnalyticsOutput output;
  tadoc::RunMetrics metrics;
  core::NTadocRunInfo info;
  uint64_t latency_sim_ns = 0;  // lane delta across the session
  uint32_t worker = 0;
  uint64_t generation = 0;  // generation the session was pinned to
  bool shed = false;  // dropped by admission control, never ran
  bool done = false;  // set when the session finished (or was shed)
};

/// Scheduler configuration.
struct ServingOptions {
  uint32_t workers = 4;

  /// Bound on admitted-but-unfinished queries; Submit fast-rejects with
  /// ResourceExhausted beyond it.
  uint32_t queue_capacity = 64;

  /// Pending depth at which sheddable requests are dropped; 0 disables
  /// shedding.
  uint32_t shed_watermark = 0;

  /// Deadline for requests that do not set their own; 0 = unlimited.
  uint64_t default_deadline_sim_ns = 0;

  /// Idle workers steal from the busiest sibling's queue tail. Turn off
  /// (with round-robin placement) for bit-deterministic per-lane timing.
  bool work_stealing = true;

  /// Budget of the thread-safe decoded-rule cache shared by the sessions
  /// of one generation (each generation gets its own); 0 disables.
  uint64_t shared_cache_bytes = 0;

  /// Construct workers parked; no query runs until Start(). Lets tests
  /// fill the queue deterministically to exercise rejection/shedding.
  bool start_paused = false;
};

/// Aggregate serving counters (see stats()).
struct ServingStats {
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t rejected_queue_full = 0;
  uint64_t shed = 0;
  uint64_t completed = 0;          // sessions that returned OK
  uint64_t failed = 0;             // non-OK, non-deadline sessions
  uint64_t deadline_expired = 0;   // DeadlineExceeded sessions
  uint64_t degraded = 0;           // OK sessions with completeness < 1
  uint64_t stolen = 0;             // queries run off a sibling's queue
  uint64_t max_queue_depth = 0;

  // Generational refresh (see PublishGeneration).
  uint64_t generations_published = 0;  // cutovers served by this engine
  uint64_t drained_sessions = 0;  // sessions finished on a draining gen

  /// Every run counter, summed over the finished sessions' infos.
  core::RunCounters sessions;
};

/// Concurrent fault-isolated query server over one SealedPool (see file
/// comment). Thread-safe: Submit may be called from any thread.
class ServingEngine {
 public:
  /// `pool` must outlive the engine.
  ServingEngine(const SealedPool* pool, ServingOptions options);
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Admits a query and returns its ticket, or ResourceExhausted when
  /// the pending queue is full (fast-reject: no session state is built).
  /// Sheddable requests above the shed watermark are admitted-and-
  /// dropped: they get a ticket whose result has shed=true.
  Result<uint64_t> Submit(QueryRequest request) NTADOC_EXCLUDES(mu_);

  /// Releases workers parked by ServingOptions::start_paused.
  void Start() NTADOC_EXCLUDES(mu_);

  /// Blocks until every admitted query has finished.
  void Drain() NTADOC_EXCLUDES(mu_);

  /// Drains and joins the workers; idempotent (the destructor calls it).
  void Shutdown() NTADOC_EXCLUDES(mu_);

  /// Result of an admitted query; valid after Drain()/Shutdown() (or
  /// whenever result(t).done is observed true after a Drain call).
  const QueryResult& result(uint64_t ticket) const NTADOC_EXCLUDES(mu_);

  ServingStats stats() const NTADOC_EXCLUDES(mu_);

  /// Installs `pool` as the new current generation with identity `id`
  /// (typically ContainerStore::generation()). Queries submitted from
  /// now on pin the new generation; sessions already admitted keep
  /// serving the old one until they finish (graceful drain). Once the
  /// old generation's last session finishes, its image is released.
  /// `keepalive` (optional) owns whatever backs pool->corpus; the engine
  /// holds it until the generation is fully retired and no newer
  /// generation replaced it. `drain_deadline_sim_ns` bounds the drain:
  /// when the fleet makespan advances that far past the publish point,
  /// still-running old-generation sessions are cooperatively cancelled
  /// (DeadlineExceeded) at their next cancellation point; 0 waits
  /// forever. The new generation starts with its own, empty shared rule
  /// cache: entries decoded from the old generation's payload layout stay
  /// with the sessions still draining on it.
  void PublishGeneration(std::shared_ptr<const SealedPool> pool, uint64_t id,
                         std::shared_ptr<const void> keepalive = nullptr,
                         uint64_t drain_deadline_sim_ns = 0)
      NTADOC_EXCLUDES(mu_);

  /// Blocks until every session pinned to a non-current generation has
  /// finished. Workers must be running (do not call under start_paused
  /// before Start()).
  void WaitGenerationDrained() NTADOC_EXCLUDES(mu_);

  /// Identity of the generation new submissions pin.
  uint64_t current_generation() const NTADOC_EXCLUDES(mu_);

  /// The pool backing the current generation (never null while the
  /// engine lives). The degraded-refresh path merges against its corpus
  /// when the durable container is unreadable.
  std::shared_ptr<const SealedPool> current_pool() const
      NTADOC_EXCLUDES(mu_);

  /// Simulated time accumulated on worker `w`'s lane so far.
  uint64_t worker_lane_ns(uint32_t w) const;

  /// Fleet makespan: the maximum worker lane time.
  uint64_t makespan_sim_ns() const;

  uint32_t workers() const { return static_cast<uint32_t>(lanes_.size()); }

 private:
  /// One entry of the generation table. The shared_ptr members are set
  /// before the entry becomes visible and mutated again only at retire
  /// time (when no session can hold the entry); RunSession snapshots them
  /// under mu_ and uses the copies lock-free.
  struct Generation {
    uint64_t id = 0;
    std::shared_ptr<const SealedPool> pool;
    std::shared_ptr<const void> keepalive;  // owns pool->corpus backing
    std::shared_ptr<std::atomic<bool>> cancel;
    // Decoded-rule cache of this generation's sessions (null when
    // ServingOptions::shared_cache_bytes is 0). Per generation because
    // entries are keyed by payload offsets in this generation's pool.
    std::shared_ptr<core::SharedRuleCache> rule_cache;
    uint64_t pinned = 0;      // admitted-but-unfinished sessions
    bool draining = false;    // a newer generation replaced this one
    uint64_t drain_deadline_sim_ns = 0;  // 0 = wait forever
    uint64_t publish_makespan_ns = 0;    // fleet makespan at publish
  };

  /// Runs ticket `ticket` on worker `w`: builds the session over its
  /// pinned generation and runs the query. Execute then records the
  /// outcome.
  QueryResult RunSession(uint32_t w, uint64_t ticket) NTADOC_EXCLUDES(mu_);
  void Execute(uint32_t w, uint64_t ticket) NTADOC_EXCLUDES(mu_);

  /// Escalation: flips the cancel flag of every draining generation
  /// whose drain deadline (makespan since publish) has passed. Called at
  /// session start/finish — the points where lane time advances.
  void EnforceDrainDeadlines() NTADOC_REQUIRES(mu_);

  /// A generation table entry for `pool` with a fresh cancel flag and
  /// rule cache.
  std::unique_ptr<Generation> NewGeneration(
      uint64_t id, std::shared_ptr<const SealedPool> pool,
      std::shared_ptr<const void> keepalive) const;

  // Immutable after construction; shared with sessions only through
  // thread-safe types (the repair lock is itself a mutex, SimClock lanes
  // are atomic accumulators).
  const SealedPool* pool_;
  ServingOptions options_;
  std::shared_ptr<util::Mutex> repair_lock_;
  std::vector<nvm::SimClockPtr> lanes_;  // one persistent clock per worker

  mutable util::Mutex mu_;
  // The vectors are guarded (push_back may reallocate); a *QueryResult
  // handed out by result() stays valid unguarded because each lives
  // behind its own unique_ptr and is written exactly once, under mu_,
  // before done is observed true.
  std::vector<std::unique_ptr<QueryResult>> results_ NTADOC_GUARDED_BY(mu_);
  std::vector<QueryRequest> requests_ NTADOC_GUARDED_BY(mu_);
  // Generation index each ticket pinned at Submit time (parallel to
  // results_). Entries are stable: generations_ only grows, and each
  // Generation lives behind a unique_ptr.
  std::vector<uint32_t> ticket_gen_ NTADOC_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Generation>> generations_
      NTADOC_GUARDED_BY(mu_);
  uint32_t current_gen_ NTADOC_GUARDED_BY(mu_) = 0;
  ServingStats stats_ NTADOC_GUARDED_BY(mu_);
  // Signalled whenever a session finishes (WaitGenerationDrained waits
  // on it with mu_).
  util::CondVar gen_cv_;

  // Scheduling (queues, stealing, pause/drain) lives in the shared pool.
  // Lock order: mu_ before the pool's internal lock — Submit calls
  // TryPost with mu_ held; Execute runs with no pool lock held and takes
  // mu_ itself. Declared last so it is destroyed (and joined) first,
  // though Shutdown() has normally already quiesced it.
  std::unique_ptr<util::WorkerPool> wpool_;
};

}  // namespace ntadoc::serve

#endif  // NTADOC_SERVE_SERVING_H_
