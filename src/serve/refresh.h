// Generational corpus refresh: serve-while-ingest over a durable
// ContainerStore (DESIGN.md "Generations & online refresh").
//
// CorpusRefresher drives one refresh cycle end to end:
//
//   1. Stage  — ContainerStore::StageAppend merges the new documents and
//      shadow-writes the result durably into the inactive slot. The
//      descriptor (and every live reader) still names the old container.
//   2. Seal   — the merged corpus is sealed into a fresh SealedPool on a
//      private device, stamped with the pending container generation.
//      Serving traffic never waits on this: the old generation keeps
//      answering.
//   3. Commit — ContainerStore::CommitAppend flips the descriptor as one
//      redo-log epoch. This is the crash-atomic cutover: a crash at any
//      fence recovers to exactly the old or the new container, never a
//      hybrid (tests/crash_sweep_test.cc GenerationCutoverSweepTest).
//   4. Publish — ServingEngine::PublishGeneration installs the new pool;
//      new sessions attach to it, old sessions drain without a deadline
//      (ServingEngine::WaitGenerationDrained waits for them).
//
// Escalation ladder when media faults hit the writer:
//   retry    — Stage/Commit failures that look transient (DataLoss) are
//              retried up to max_attempts with exponential backoff
//              (4 us, doubling) charged to the store device's sim clock.
//   abort    — anything else (or retry exhaustion) aborts the refresh;
//              the old generation keeps serving untouched
//              (`refresh_aborts`). A poisoned append can never take the
//              fleet down or corrupt the live image.
//   degraded — opt-in (allow_degraded): if the durable path stays dead
//              after retries, the refresher merges in memory against the
//              current generation's corpus and publishes WITHOUT
//              durability (`degraded_refreshes`). Fresh data serves; a
//              crash falls back to the last durable generation.
//
// One refresher instance serializes its own refreshes (Refresh holds an
// internal lock); concurrent Submit traffic on the ServingEngine is
// fine — that is the point.

#ifndef NTADOC_SERVE_REFRESH_H_
#define NTADOC_SERVE_REFRESH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "compress/parallel_compress.h"
#include "core/container_store.h"
#include "serve/serving.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace ntadoc::serve {

/// Tuning for one CorpusRefresher.
struct RefreshOptions {
  /// Merge configuration for the staged append (chunk-parallel Sequitur).
  compress::ParallelCompressOptions compress;

  /// Bounded retry for the durable stage/commit steps: total attempts
  /// per step (>= 1).
  uint32_t max_attempts = 3;

  /// Opt-in degraded refresh: publish from memory when durability is
  /// unavailable (see file comment).
  bool allow_degraded = false;
};

/// Counters across a refresher's lifetime (ntadoc serve --stats).
struct RefreshStats {
  uint64_t generations_published = 0;  // successful cutovers (any kind)
  uint64_t refresh_retries = 0;        // stage/commit attempts retried
  uint64_t refresh_aborts = 0;         // refreshes abandoned, old gen kept
  uint64_t degraded_refreshes = 0;     // published without durability
};

/// Drives generational refreshes from a durable container into a
/// running ServingEngine. `store` and `server` must outlive the
/// refresher; the store must hold the corpus generation the server is
/// currently serving (i.e. the serving pool was sealed from it).
class CorpusRefresher {
 public:
  CorpusRefresher(core::ContainerStore* store, ServingEngine* server,
                  RefreshOptions options);

  CorpusRefresher(const CorpusRefresher&) = delete;
  CorpusRefresher& operator=(const CorpusRefresher&) = delete;

  /// Runs one full refresh cycle over `new_files` (see file comment).
  /// On OK a new generation is serving; on error the old generation is
  /// untouched and still serving. Thread-safe; refreshes serialize.
  Status Refresh(const std::vector<compress::InputFile>& new_files)
      NTADOC_EXCLUDES(mu_);

  RefreshStats stats() const NTADOC_EXCLUDES(mu_);

 private:
  /// Runs `step` (a durable stage or commit) up to max_attempts times
  /// while it fails with DataLoss (transient media), charging the backoff
  /// before each retry to the store device's clock; anything else stops
  /// at once. Returns the last attempt's status.
  Status WithRetry(const std::function<Status()>& step) NTADOC_REQUIRES(mu_);

  /// Seals `corpus` into a pool stamped with generation `gen`, growing
  /// capacity if the merged corpus outgrew the current pool's device.
  Result<SealedPool> SealGeneration(const compress::CompressedCorpus* corpus,
                                    uint64_t gen);

  core::ContainerStore* store_;
  ServingEngine* server_;
  RefreshOptions options_;

  mutable util::Mutex mu_;
  RefreshStats stats_ NTADOC_GUARDED_BY(mu_);
};

}  // namespace ntadoc::serve

#endif  // NTADOC_SERVE_REFRESH_H_
