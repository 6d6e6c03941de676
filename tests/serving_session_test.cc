// Fast serving-layer unit tests (tier1): session isolation over a sealed
// pool, sealed-prefix init reuse and its cost attribution, per-session
// deadlines and cooperative cancellation, admission control (queue-full
// fast-reject, load shedding), shared decoded-rule cache invalidation
// after repair, and degraded-mode completeness accounting across batch
// and concurrent sessions.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "compress/compressor.h"
#include "core/container_store.h"
#include "core/engine.h"
#include "reference_impl.h"
#include "serve/refresh.h"
#include "serve/serving.h"
#include "textgen/generator.h"
#include "util/logging.h"

namespace ntadoc::serve {
namespace {

using core::NTadocEngine;
using core::NTadocOptions;
using core::NTadocRunInfo;
using core::PersistenceMode;
using tests::RandomCorpus;
using tests::ReferenceRun;

constexpr uint64_t kCapacity = 32ull << 20;

SealOptions BaseSealOptions() {
  SealOptions so;
  so.capacity = kCapacity;
  so.engine.persistence = PersistenceMode::kPhase;
  return so;
}

// A solo word count with `so`'s engine options on a fresh device of
// `so`'s geometry. Init is deterministic, so it lays out the sealed pool's
// payload region, and its init costs what one seal should.
struct SoloRun {
  std::pair<uint64_t, uint64_t> payload;
  uint64_t init_sim_ns = 0;
};
SoloRun SoloWordCount(const compress::CompressedCorpus& corpus,
                      const SealOptions& so) {
  nvm::DeviceOptions dopts;
  dopts.capacity = so.capacity;
  dopts.profile = so.profile;
  dopts.strict_persistence = so.strict_persistence;
  auto device = nvm::NvmDevice::Create(dopts);
  NTADOC_CHECK(device.ok());
  NTadocEngine engine(&corpus, device->get(), so.engine);
  tadoc::RunMetrics m;
  NTADOC_CHECK(engine.Run(tadoc::Task::kWordCount, {}, &m).ok());
  return {engine.payload_region(), m.init_sim_ns};
}

// The serving invariant: stats().sessions is the field-wise sum of
// result(t).info over every ticket, for every run counter.
void ExpectSessionSums(const ServingEngine& server,
                       const std::vector<uint64_t>& tickets) {
  core::RunCounters sum;
  for (uint64_t t : tickets) sum += server.result(t).info;
  const core::RunCounters got = server.stats().sessions;
  core::RunCounters::ForEachField([&](const char* name, auto field, auto) {
    EXPECT_EQ(got.*field, sum.*field) << name;
  });
}

// ---- Sealed prefix: cross-engine init reuse -------------------------

TEST(SealedPrefixTest, SessionReusesInitAndMatchesSolo) {
  const auto corpus = RandomCorpus(41, 20, 4, 220);
  const auto so = BaseSealOptions();
  auto sealed = SealPool(&corpus, so);
  ASSERT_TRUE(sealed.ok()) << sealed.status();
  ASSERT_NE(sealed->prefix, nullptr);
  EXPECT_GT(sealed->prefix->shared_init_sim_ns(), 0u);

  for (tadoc::Task task : tadoc::kAllTasks) {
    // Session: private clone of the sealed image + the captured prefix.
    nvm::DeviceOptions dopts;
    dopts.capacity = so.capacity;
    dopts.base_image = sealed->image;
    auto device = nvm::NvmDevice::Create(dopts);
    ASSERT_TRUE(device.ok());
    NTadocOptions opts = so.engine;
    opts.sealed_prefix = sealed->prefix;
    NTadocEngine session(&corpus, device->get(), opts);
    tadoc::RunMetrics m;
    auto got = session.Run(task, {}, &m);
    ASSERT_TRUE(got.ok()) << tadoc::TaskToString(task) << ": "
                          << got.status();
    EXPECT_EQ(*got, ReferenceRun(corpus, task, {}))
        << tadoc::TaskToString(task);
    // Satellite (b): the reused init is visible and cost-attributed.
    EXPECT_TRUE(m.init_shared) << tadoc::TaskToString(task);
    EXPECT_EQ(m.shared_init_sim_ns, sealed->prefix->shared_init_sim_ns())
        << tadoc::TaskToString(task);
    EXPECT_EQ(session.run_info().batch_init_reuses, 1u);

    // Reuse must actually skip work: a full init of the same task on a
    // fresh device pays strictly more simulated time.
    nvm::DeviceOptions fresh_opts;
    fresh_opts.capacity = so.capacity;
    auto fresh = nvm::NvmDevice::Create(fresh_opts);
    ASSERT_TRUE(fresh.ok());
    NTadocEngine full(&corpus, fresh->get(), so.engine);
    tadoc::RunMetrics mf;
    ASSERT_TRUE(full.Run(task, {}, &mf).ok());
    EXPECT_LT(m.init_sim_ns, mf.init_sim_ns) << tadoc::TaskToString(task);
  }
}

// A seal is one committed init and no traversal: it costs exactly a solo
// word count's init, at phase level, at operation level with epoch
// commit, and over migrating DRAM+NVM tiers.
TEST(SealedPrefixTest, SealingPaysOneInit) {
  const auto corpus = RandomCorpus(47, 20, 4, 220);
  auto epoch = BaseSealOptions();
  epoch.engine.persistence = PersistenceMode::kOperation;
  epoch.engine.commit_interval = 8;
  auto tiered = epoch;
  auto tiering = std::make_shared<nvm::TierConfig>();
  tiering->tiers = {{nvm::MediumKind::kDram, 1ull << 20}};
  tiering->unit_bytes = 4096;
  tiering->migrate_interval = 16;
  tiered.engine.tiering = tiering;

  for (const SealOptions& so : {BaseSealOptions(), epoch, tiered}) {
    SCOPED_TRACE(std::string(core::PersistenceModeToString(
                     so.engine.persistence)) +
                 (so.engine.tiering != nullptr ? ", tiered" : ""));
    auto sealed = SealPool(&corpus, so);
    ASSERT_TRUE(sealed.ok()) << sealed.status();
    EXPECT_GT(sealed->seal_sim_ns, 0u);
    EXPECT_EQ(sealed->seal_sim_ns, SoloWordCount(corpus, so).init_sim_ns);
  }
}

TEST(SealedPrefixTest, MismatchedOptionsFallBackToFullInit) {
  const auto corpus = RandomCorpus(42, 20, 4, 200);
  auto sealed = SealPool(&corpus, BaseSealOptions());
  ASSERT_TRUE(sealed.ok()) << sealed.status();

  // Different persistence mode: the pool layout differs, the prefix must
  // be ignored and the run still be exact.
  nvm::DeviceOptions dopts;
  dopts.capacity = kCapacity;
  auto device = nvm::NvmDevice::Create(dopts);
  ASSERT_TRUE(device.ok());
  NTadocOptions opts;
  opts.persistence = PersistenceMode::kNone;
  opts.sealed_prefix = sealed->prefix;
  NTadocEngine session(&corpus, device->get(), opts);
  tadoc::RunMetrics m;
  auto got = session.Run(tadoc::Task::kWordCount, {}, &m);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, ReferenceRun(corpus, tadoc::Task::kWordCount, {}));
  EXPECT_FALSE(m.init_shared);
  EXPECT_EQ(m.shared_init_sim_ns, 0u);
}

// ---- Deadlines and cancellation -------------------------------------

TEST(SessionLimitsTest, DeadlineExpiresWithoutCorruptingEngine) {
  const auto corpus = RandomCorpus(43, 20, 4, 220);
  nvm::DeviceOptions dopts;
  dopts.capacity = kCapacity;
  auto device = nvm::NvmDevice::Create(dopts);
  ASSERT_TRUE(device.ok());

  NTadocOptions opts;
  opts.persistence = PersistenceMode::kPhase;
  opts.deadline_sim_ns = 1;  // expires at the first cancellation point
  NTadocEngine engine(&corpus, device->get(), opts);
  auto got = engine.Run(tadoc::Task::kWordCount);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
  // Deadline is a session outcome, not media damage: no salvage, no
  // repair, no degraded accounting.
  EXPECT_EQ(engine.run_info().salvage_restarts, 0u);
  EXPECT_EQ(engine.run_info().scoped_repairs, 0u);
  EXPECT_EQ(engine.run_info().degraded_queries, 0u);

  // A fresh engine over the same device (no deadline) still answers
  // exactly — the expired session left nothing poisoned behind.
  NTadocOptions clean = opts;
  clean.deadline_sim_ns = 0;
  NTadocEngine retry(&corpus, device->get(), clean);
  auto ok = retry.Run(tadoc::Task::kWordCount);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(*ok, ReferenceRun(corpus, tadoc::Task::kWordCount, {}));
}

TEST(SessionLimitsTest, CancelFlagStopsTheRun) {
  const auto corpus = RandomCorpus(44, 20, 4, 220);
  nvm::DeviceOptions dopts;
  dopts.capacity = kCapacity;
  auto device = nvm::NvmDevice::Create(dopts);
  ASSERT_TRUE(device.ok());

  std::atomic<bool> cancel{true};
  NTadocOptions opts;
  opts.persistence = PersistenceMode::kPhase;
  opts.cancel = &cancel;
  NTadocEngine engine(&corpus, device->get(), opts);
  auto got = engine.Run(tadoc::Task::kWordCount);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
}

// ---- Serving: correctness and isolation -----------------------------

// Runs twice: phase-level, and operation-level epoch commit (8 steps per
// epoch) over migrating DRAM+NVM tiers.
TEST(ServingEngineTest, ConcurrentSessionsMatchReference) {
  const auto corpus = RandomCorpus(45, 20, 4, 220);
  auto durable = BaseSealOptions();
  durable.engine.persistence = PersistenceMode::kOperation;
  durable.engine.commit_interval = 8;
  auto tiering = std::make_shared<nvm::TierConfig>();
  tiering->tiers = {{nvm::MediumKind::kDram, 1ull << 20}};
  tiering->unit_bytes = 4096;
  tiering->migrate_interval = 16;
  durable.engine.tiering = tiering;

  for (const SealOptions& so : {BaseSealOptions(), durable}) {
    SCOPED_TRACE(core::PersistenceModeToString(so.engine.persistence));
    auto sealed = SealPool(&corpus, so);
    ASSERT_TRUE(sealed.ok()) << sealed.status();

    ServingOptions sopts;
    sopts.workers = 4;
    sopts.queue_capacity = 64;
    ServingEngine server(&*sealed, sopts);

    std::vector<uint64_t> tickets;
    for (int round = 0; round < 2; ++round) {
      for (tadoc::Task task : tadoc::kAllTasks) {
        QueryRequest req;
        req.task = task;
        auto t = server.Submit(std::move(req));
        ASSERT_TRUE(t.ok()) << t.status();
        tickets.push_back(*t);
      }
    }
    server.Drain();

    for (uint64_t t : tickets) {
      const QueryResult& r = server.result(t);
      ASSERT_TRUE(r.done);
      ASSERT_TRUE(r.status.ok()) << r.status;
      EXPECT_EQ(r.output, ReferenceRun(corpus, r.output.task, {}));
      EXPECT_TRUE(r.metrics.init_shared);
      EXPECT_GT(r.latency_sim_ns, 0u);
    }
    const ServingStats st = server.stats();
    EXPECT_EQ(st.completed, tickets.size());
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(st.rejected_queue_full, 0u);
    EXPECT_GT(server.makespan_sim_ns(), 0u);
    ExpectSessionSums(server, tickets);
    if (so.engine.persistence == PersistenceMode::kOperation) {
      EXPECT_GT(st.sessions.epoch_commits, 0u);
      EXPECT_GT(st.sessions.coalesced_records, 0u);
      EXPECT_GT(st.sessions.redo_logged_bytes, 0u);
    }
  }
}

// ---- Admission control ----------------------------------------------

TEST(ServingEngineTest, QueueFullFastRejects) {
  const auto corpus = RandomCorpus(46, 16, 2, 120);
  auto sealed = SealPool(&corpus, BaseSealOptions());
  ASSERT_TRUE(sealed.ok()) << sealed.status();

  ServingOptions sopts;
  sopts.workers = 2;
  sopts.queue_capacity = 3;
  sopts.start_paused = true;  // nothing runs: the queue depth is exact
  ServingEngine server(&*sealed, sopts);

  std::vector<uint64_t> admitted;
  for (int i = 0; i < 3; ++i) {
    auto t = server.Submit(QueryRequest{});
    ASSERT_TRUE(t.ok()) << t.status();
    admitted.push_back(*t);
  }
  auto overflow = server.Submit(QueryRequest{});
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);

  server.Start();
  server.Drain();
  for (uint64_t t : admitted) {
    EXPECT_TRUE(server.result(t).status.ok()) << server.result(t).status;
  }
  const ServingStats st = server.stats();
  EXPECT_EQ(st.rejected_queue_full, 1u);
  EXPECT_EQ(st.accepted, 3u);
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.max_queue_depth, 3u);

  // After the drain the queue has room again.
  auto retry = server.Submit(QueryRequest{});
  ASSERT_TRUE(retry.ok()) << retry.status();
  server.Drain();
  EXPECT_TRUE(server.result(*retry).status.ok());
}

TEST(ServingEngineTest, SheddableRequestsDropAboveWatermark) {
  const auto corpus = RandomCorpus(47, 16, 2, 120);
  auto sealed = SealPool(&corpus, BaseSealOptions());
  ASSERT_TRUE(sealed.ok()) << sealed.status();

  ServingOptions sopts;
  sopts.workers = 2;
  sopts.queue_capacity = 16;
  sopts.shed_watermark = 2;
  sopts.start_paused = true;
  ServingEngine server(&*sealed, sopts);

  auto a = server.Submit(QueryRequest{});
  auto b = server.Submit(QueryRequest{});
  ASSERT_TRUE(a.ok() && b.ok());
  QueryRequest sheddable;
  sheddable.sheddable = true;
  auto c = server.Submit(std::move(sheddable));
  ASSERT_TRUE(c.ok());
  // Non-sheddable requests above the watermark still queue.
  auto d = server.Submit(QueryRequest{});
  ASSERT_TRUE(d.ok());

  server.Start();
  server.Drain();
  EXPECT_TRUE(server.result(*c).shed);
  EXPECT_EQ(server.result(*c).status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(server.result(*a).status.ok());
  EXPECT_TRUE(server.result(*b).status.ok());
  EXPECT_TRUE(server.result(*d).status.ok());
  EXPECT_EQ(server.stats().shed, 1u);
}

// ---- Shared rule cache: invalidation after repair (satellite a) ------

TEST(SharedCacheTest, RepairInvalidatesSharedEntries) {
  const auto corpus = RandomCorpus(48, 20, 4, 220);
  auto so = BaseSealOptions();
  // Expensive reads (and a one-block page cache) so the cache's
  // admission heuristic actually admits decoded payloads.
  so.profile = nvm::SsdProfile(/*cache_bytes=*/4096);
  const auto [pbegin, pend] = SoloWordCount(corpus, so).payload;
  ASSERT_LT(pbegin, pend);

  auto sealed = SealPool(&corpus, so);
  ASSERT_TRUE(sealed.ok()) << sealed.status();
  auto cache = std::make_shared<core::SharedRuleCache>(1ull << 20);

  // Session A fills the shared cache (two runs so the second-miss
  // admission policy can admit).
  {
    nvm::DeviceOptions dopts;
    dopts.capacity = so.capacity;
    dopts.profile = so.profile;
    dopts.base_image = sealed->image;
    auto device = nvm::NvmDevice::Create(dopts);
    ASSERT_TRUE(device.ok());
    NTadocOptions opts = so.engine;
    opts.sealed_prefix = sealed->prefix;
    opts.shared_cache = cache;
    NTadocEngine session(&corpus, device->get(), opts);
    // Admission is second-miss: the first run records the payloads, the
    // second run's re-misses admit them.
    ASSERT_TRUE(session.Run(tadoc::Task::kWordCount).ok());
    ASSERT_TRUE(session.Run(tadoc::Task::kWordCount).ok());
  }
  ASSERT_GT(cache->entries(), 0u);

  // Session B hits a bad payload block, repairs it in place — and must
  // drop the shared entries (they were decoded from pre-repair media).
  {
    nvm::DeviceOptions dopts;
    dopts.capacity = so.capacity;
    dopts.profile = so.profile;
    dopts.base_image = sealed->image;
    auto device = nvm::NvmDevice::Create(dopts);
    ASSERT_TRUE(device.ok());
    const uint64_t block = ((pbegin + pend) / 2) & ~uint64_t{255};
    (*device)->PoisonForTesting(block, 1);
    NTadocOptions opts = so.engine;
    opts.sealed_prefix = sealed->prefix;
    opts.shared_cache = cache;
    NTadocEngine session(&corpus, device->get(), opts);
    auto got = session.Run(tadoc::Task::kWordCount);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, ReferenceRun(corpus, tadoc::Task::kWordCount, {}));
    EXPECT_GT(session.run_info().scoped_repairs +
                  session.run_info().salvage_restarts,
              0u);
  }
  EXPECT_EQ(cache->entries(), 0u);
  EXPECT_GT(cache->invalidations(), 0u);
}

// ---- RunBatch shared-init attribution (satellite b) ------------------

TEST(BatchAttributionTest, SharedInitCostReportedPerTask) {
  const auto corpus = RandomCorpus(49, 20, 4, 220);
  nvm::DeviceOptions dopts;
  dopts.capacity = kCapacity;
  auto device = nvm::NvmDevice::Create(dopts);
  ASSERT_TRUE(device.ok());

  NTadocOptions opts;
  opts.persistence = PersistenceMode::kPhase;
  NTadocEngine engine(&corpus, device->get(), opts);
  const std::vector<tadoc::Task> tasks = {tadoc::Task::kWordCount,
                                          tadoc::Task::kSort,
                                          tadoc::Task::kTermVector};
  std::vector<tadoc::RunMetrics> metrics;
  auto outs = engine.RunBatch(tasks, {}, &metrics);
  ASSERT_TRUE(outs.ok()) << outs.status();
  ASSERT_EQ(metrics.size(), tasks.size());

  // First task pays everything itself.
  EXPECT_FALSE(metrics[0].init_shared);
  EXPECT_EQ(metrics[0].shared_init_sim_ns, 0u);
  // Later tasks consume the same shared prefix and report the identical
  // shared cost — making init_sim_ns + shared_init_sim_ns comparable
  // across all tasks of the batch.
  for (size_t i = 1; i < tasks.size(); ++i) {
    EXPECT_TRUE(metrics[i].init_shared) << i;
    EXPECT_GT(metrics[i].shared_init_sim_ns, 0u) << i;
    EXPECT_EQ(metrics[i].shared_init_sim_ns, metrics[1].shared_init_sim_ns)
        << i;
    EXPECT_LT(metrics[i].init_sim_ns, metrics[0].init_sim_ns) << i;
    EXPECT_GT(metrics[i].init_sim_ns + metrics[i].shared_init_sim_ns,
              metrics[i].init_sim_ns)
        << i;
  }
  EXPECT_EQ(engine.run_info().batch_init_reuses, tasks.size() - 1);
}

// ---- Degraded completeness under batch / multi-session (satellite c) -

TEST(DegradedAccountingTest, BatchReportsCompletenessPerTask) {
  const auto corpus = RandomCorpus(50, 20, 4, 220);
  const auto so = BaseSealOptions();
  const auto [pbegin, pend] = SoloWordCount(corpus, so).payload;
  ASSERT_LT(pbegin, pend);

  nvm::DeviceOptions dopts;
  dopts.capacity = so.capacity;
  auto device = nvm::NvmDevice::Create(dopts);
  ASSERT_TRUE(device.ok());
  const uint64_t block = ((pbegin + pend) / 2) & ~uint64_t{255};
  (*device)->PoisonForTesting(block, 1, /*sticky=*/true);

  NTadocOptions opts = so.engine;
  opts.max_scoped_repairs = 0;
  opts.max_salvage_restarts = 0;
  opts.allow_degraded = true;
  NTadocEngine engine(&corpus, device->get(), opts);
  const std::vector<tadoc::Task> tasks = {tadoc::Task::kWordCount,
                                          tadoc::Task::kSort};
  auto outs = engine.RunBatch(tasks, {});
  ASSERT_TRUE(outs.ok()) << outs.status();
  // The last task's accounting is visible; it ran over dead media and
  // must say so rather than claim a complete answer.
  const NTadocRunInfo& info = engine.run_info();
  EXPECT_EQ(info.degraded_queries, 1u);
  EXPECT_LT(info.completeness, 1.0);
  EXPECT_GE(info.completeness, 0.0);
}

TEST(DegradedAccountingTest, DegradedSessionDoesNotBleedIntoSiblings) {
  const auto corpus = RandomCorpus(51, 20, 4, 220);
  const auto so = BaseSealOptions();
  const auto [pbegin, pend] = SoloWordCount(corpus, so).payload;
  ASSERT_LT(pbegin, pend);

  auto sealed = SealPool(&corpus, so);
  ASSERT_TRUE(sealed.ok()) << sealed.status();

  ServingOptions sopts;
  sopts.workers = 3;
  ServingEngine server(&*sealed, sopts);

  // One degraded session among clean siblings.
  QueryRequest faulty;
  faulty.task = tadoc::Task::kWordCount;
  faulty.allow_degraded = true;
  faulty.poison.push_back(
      {((pbegin + pend) / 2) & ~uint64_t{255}, 1, /*sticky=*/true});
  auto ft = server.Submit(std::move(faulty));
  ASSERT_TRUE(ft.ok());
  std::vector<uint64_t> clean;
  for (int i = 0; i < 4; ++i) {
    QueryRequest req;
    req.task = tadoc::Task::kWordCount;
    auto t = server.Submit(std::move(req));
    ASSERT_TRUE(t.ok());
    clean.push_back(*t);
  }
  server.Drain();

  const QueryResult& fr = server.result(*ft);
  ASSERT_TRUE(fr.status.ok()) << fr.status;
  EXPECT_EQ(fr.info.degraded_queries, 1u);
  EXPECT_LT(fr.info.completeness, 1.0);
  const auto expected = ReferenceRun(corpus, tadoc::Task::kWordCount, {});
  for (uint64_t t : clean) {
    const QueryResult& r = server.result(t);
    ASSERT_TRUE(r.status.ok()) << r.status;
    // Zero bleed: exact answers, pristine per-session counters.
    EXPECT_EQ(r.output, expected);
    EXPECT_EQ(r.info.degraded_queries, 0u);
    EXPECT_EQ(r.info.completeness, 1.0);
    EXPECT_EQ(r.info.corruption_detected, 0u);
    EXPECT_EQ(r.info.salvage_restarts, 0u);
  }
  EXPECT_EQ(server.stats().degraded, 1u);
  std::vector<uint64_t> all = clean;
  all.push_back(*ft);
  ExpectSessionSums(server, all);
}

// ---- Generations: prefix keying, pinning, drain, refresh -------------

// Satellite: sealed-prefix reuse is keyed by the container generation. A
// prefix captured before an append mutated the container must never be
// served against the post-append generation, even when corpus pointer
// and every other option match.
TEST(SealedPrefixTest, ContainerGenerationKeysPrefixReuse) {
  const auto corpus = RandomCorpus(52, 20, 4, 220);
  auto so = BaseSealOptions();
  so.engine.container_generation = 1;
  auto sealed = SealPool(&corpus, so);
  ASSERT_TRUE(sealed.ok()) << sealed.status();

  const auto run_session = [&](uint64_t generation, tadoc::RunMetrics* m) {
    nvm::DeviceOptions dopts;
    dopts.capacity = so.capacity;
    dopts.base_image = sealed->image;
    auto device = nvm::NvmDevice::Create(dopts);
    ASSERT_TRUE(device.ok());
    NTadocOptions opts = so.engine;
    opts.container_generation = generation;
    opts.sealed_prefix = sealed->prefix;
    NTadocEngine session(&corpus, device->get(), opts);
    auto got = session.Run(tadoc::Task::kWordCount, {}, m);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, ReferenceRun(corpus, tadoc::Task::kWordCount, {}));
  };

  tadoc::RunMetrics same;
  run_session(1, &same);
  EXPECT_TRUE(same.init_shared);

  // The container moved on (an append bumped the sequence): the stale
  // prefix is ignored and the session pays a full init, still exact.
  tadoc::RunMetrics stale;
  run_session(2, &stale);
  EXPECT_FALSE(stale.init_shared);
  EXPECT_EQ(stale.shared_init_sim_ns, 0u);
}

// Sessions are pinned to the generation current at Submit time: queries
// admitted before a publish finish on the old pool (and count as
// drained), queries submitted after land on the new one. With the shared
// rule cache on, every generation caches into its own: entries decoded
// from the old payload layout by sessions still draining after the
// publish must never reach a new-generation session.
TEST(GenerationTest, PublishPinsSubmittedSessionsToOldGeneration) {
  // Documents large enough for the cache to admit entries. Generation 2
  // adds one document to generation 1's, which moves the payload layout.
  std::vector<compress::InputFile> files =
      textgen::GenerateCorpus(textgen::DatasetC(0.05));
  ASSERT_GT(files.size(), 1u);
  auto corpus_b = compress::Compress(files);
  ASSERT_TRUE(corpus_b.ok()) << corpus_b.status();
  files.pop_back();
  auto corpus_a = compress::Compress(files);
  ASSERT_TRUE(corpus_a.ok()) << corpus_a.status();
  auto so = BaseSealOptions();
  so.engine.container_generation = 1;
  auto sealed_a = SealPool(&*corpus_a, so);
  ASSERT_TRUE(sealed_a.ok()) << sealed_a.status();
  auto so_b = BaseSealOptions();
  so_b.engine.container_generation = 2;
  auto sealed_b = SealPool(&*corpus_b, so_b);
  ASSERT_TRUE(sealed_b.ok()) << sealed_b.status();

  ServingOptions sopts;
  sopts.workers = 1;  // every generation-1 session runs before generation 2's
  sopts.shared_cache_bytes = 8ull << 20;
  sopts.start_paused = true;  // pin deterministically before anything runs
  ServingEngine server(&*sealed_a, sopts);
  EXPECT_EQ(server.current_generation(), 1u);

  auto submit_all_tasks = [&](std::vector<uint64_t>* tickets) {
    for (tadoc::Task task : tadoc::kAllTasks) {
      QueryRequest req;
      req.task = task;
      auto t = server.Submit(std::move(req));
      ASSERT_TRUE(t.ok());
      tickets->push_back(*t);
    }
  };
  std::vector<uint64_t> old_gen;
  submit_all_tasks(&old_gen);
  server.PublishGeneration(
      std::make_shared<const SealedPool>(std::move(*sealed_b)), 2);
  EXPECT_EQ(server.current_generation(), 2u);
  std::vector<uint64_t> new_gen;
  submit_all_tasks(&new_gen);

  server.Start();
  server.Drain();
  server.WaitGenerationDrained();

  auto check = [&](const std::vector<uint64_t>& tickets,
                   const compress::CompressedCorpus& corpus,
                   uint64_t generation) {
    for (size_t i = 0; i < tickets.size(); ++i) {
      const tadoc::Task task = tadoc::kAllTasks[i];
      const QueryResult& r = server.result(tickets[i]);
      ASSERT_TRUE(r.status.ok()) << tadoc::TaskToString(task) << ": "
                                 << r.status;
      EXPECT_EQ(r.generation, generation);
      // Draining sessions answer from the generation they were admitted
      // under — bit-identical to a solo run over the old pool.
      EXPECT_EQ(r.output, ReferenceRun(corpus, task, {}))
          << tadoc::TaskToString(task) << " on generation " << generation;
      EXPECT_EQ(r.info.corruption_detected, 0u) << tadoc::TaskToString(task);
      EXPECT_EQ(r.info.salvage_restarts, 0u) << tadoc::TaskToString(task);
    }
  };
  check(old_gen, *corpus_a, 1);
  check(new_gen, *corpus_b, 2);
  const ServingStats st = server.stats();
  EXPECT_GT(st.sessions.rule_cache_hits, 0u);  // the cache was in play
  std::vector<uint64_t> all = old_gen;
  all.insert(all.end(), new_gen.begin(), new_gen.end());
  ExpectSessionSums(server, all);
  EXPECT_EQ(st.generations_published, 1u);
  EXPECT_EQ(st.drained_sessions, old_gen.size());
  EXPECT_EQ(st.completed, old_gen.size() + new_gen.size());
  EXPECT_EQ(st.failed, 0u);
}

// Drain-deadline escalation: stragglers on a retired generation are
// cooperatively cancelled once the fleet makespan passes the deadline.
TEST(GenerationTest, DrainDeadlineCancelsStragglers) {
  const auto corpus_a = RandomCorpus(55, 20, 4, 220);
  const auto corpus_b = RandomCorpus(56, 20, 4, 200);
  auto so = BaseSealOptions();
  so.engine.container_generation = 1;
  auto sealed_a = SealPool(&corpus_a, so);
  ASSERT_TRUE(sealed_a.ok()) << sealed_a.status();
  auto so_b = BaseSealOptions();
  so_b.engine.container_generation = 2;
  auto sealed_b = SealPool(&corpus_b, so_b);
  ASSERT_TRUE(sealed_b.ok()) << sealed_b.status();

  ServingOptions sopts;
  sopts.workers = 1;  // serialize: the first session finishes, then the
                      // deadline check cancels the queued stragglers
  sopts.start_paused = true;
  ServingEngine server(&*sealed_a, sopts);

  std::vector<uint64_t> old_gen;
  for (int i = 0; i < 3; ++i) {
    QueryRequest req;
    req.task = tadoc::Task::kWordCount;
    auto t = server.Submit(std::move(req));
    ASSERT_TRUE(t.ok());
    old_gen.push_back(*t);
  }
  // Deadline of 1 simulated ns: the moment any lane time accumulates,
  // the old generation is past due.
  server.PublishGeneration(
      std::make_shared<const SealedPool>(std::move(*sealed_b)), 2,
      /*keepalive=*/nullptr, /*drain_deadline_sim_ns=*/1);

  QueryRequest fresh;
  fresh.task = tadoc::Task::kWordCount;
  auto nt = server.Submit(std::move(fresh));
  ASSERT_TRUE(nt.ok());

  server.Start();
  server.Drain();
  server.WaitGenerationDrained();

  // First old-generation session ran before any lane time existed and
  // completed; the queued stragglers were cancelled at their first
  // cancellation point.
  EXPECT_TRUE(server.result(old_gen[0]).status.ok())
      << server.result(old_gen[0]).status;
  for (size_t i = 1; i < old_gen.size(); ++i) {
    EXPECT_EQ(server.result(old_gen[i]).status.code(),
              StatusCode::kDeadlineExceeded)
        << "straggler " << i << ": " << server.result(old_gen[i]).status;
  }
  // The new generation is untouched by the old one's cancellation.
  EXPECT_TRUE(server.result(*nt).status.ok()) << server.result(*nt).status;
  EXPECT_EQ(server.result(*nt).generation, 2u);
  const ServingStats st = server.stats();
  EXPECT_EQ(st.drained_sessions, 3u);
  EXPECT_EQ(st.deadline_expired, 2u);
  EXPECT_EQ(st.generations_published, 1u);
}

// A sealed image is the sealing device's own mapping, so a reference
// leaked past retirement would keep it mapped. Once a newer generation
// is published and the sessions pinned to the old one have drained,
// nothing but the caller holds the old image.
TEST(GenerationTest, RetiredGenerationReleasesItsImage) {
  const auto corpus_a = RandomCorpus(57, 12, 4, 160);
  const auto corpus_b = RandomCorpus(58, 12, 4, 160);
  const auto corpus_c = RandomCorpus(59, 12, 4, 160);
  std::vector<std::shared_ptr<const SealedPool>> pools;
  for (const compress::CompressedCorpus* corpus :
       {&corpus_a, &corpus_b, &corpus_c}) {
    auto so = BaseSealOptions();
    so.engine.container_generation = pools.size() + 1;
    auto sealed = SealPool(corpus, so);
    ASSERT_TRUE(sealed.ok()) << sealed.status();
    pools.push_back(std::make_shared<const SealedPool>(std::move(*sealed)));
  }

  ServingOptions sopts;
  sopts.workers = 2;
  sopts.start_paused = true;  // the sessions are still pinned at publish
  ServingEngine server(pools[0].get(), sopts);
  server.PublishGeneration(pools[1], 2);
  std::vector<uint64_t> tickets;
  for (tadoc::Task task : tadoc::kAllTasks) {
    QueryRequest req;
    req.task = task;
    auto t = server.Submit(std::move(req));
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
  }
  const std::weak_ptr<const nvm::SealedImage> image = pools[1]->image;
  server.PublishGeneration(pools[2], 3);
  server.Start();
  server.WaitGenerationDrained();
  pools[1].reset();
  EXPECT_TRUE(image.expired());

  for (size_t i = 0; i < tickets.size(); ++i) {
    const QueryResult& r = server.result(tickets[i]);
    EXPECT_TRUE(r.status.ok()) << r.status;
    EXPECT_EQ(r.generation, 2u);
    EXPECT_EQ(r.output, ReferenceRun(corpus_b, tadoc::kAllTasks[i], {}));
  }
  EXPECT_EQ(server.stats().drained_sessions, tickets.size());
}

// ---- CorpusRefresher: the full serve-while-ingest cycle --------------

struct RefreshHarness {
  std::vector<compress::InputFile> batch_a;
  std::vector<compress::InputFile> batch_b;
  compress::CompressedCorpus corpus_a;
  compress::CompressedCorpus corpus_all;
  std::unique_ptr<nvm::NvmDevice> device;
  std::unique_ptr<core::ContainerStore> store;
  std::unique_ptr<SealedPool> pool;
  std::unique_ptr<ServingEngine> server;

  static constexpr uint64_t kStoreBase = 4096;
  static constexpr uint64_t kStoreRegion = 4ull << 20;

  // Builds a container-backed serving stack: a durable store holding
  // corpus_a and a fleet serving a pool sealed from it (generation 1).
  void Init(uint64_t seed, nvm::FaultPlan store_faults = {}) {
    batch_a = tests::RandomInputs(seed, 60, 5, 90);
    batch_b = tests::RandomInputs(seed + 1, 60, 3, 80);
    for (size_t i = 0; i < batch_b.size(); ++i) {
      batch_b[i].name = "new" + std::to_string(i);
    }
    auto ca = compress::Compress(batch_a);
    ASSERT_TRUE(ca.ok());
    corpus_a = std::move(*ca);
    std::vector<compress::InputFile> all = batch_a;
    all.insert(all.end(), batch_b.begin(), batch_b.end());
    auto cb = compress::Compress(all);
    ASSERT_TRUE(cb.ok());
    corpus_all = std::move(*cb);

    nvm::DeviceOptions dopts;
    dopts.capacity = 16ull << 20;
    dopts.strict_persistence = true;
    dopts.fault_plan = std::move(store_faults);
    auto dev = nvm::NvmDevice::Create(dopts);
    ASSERT_TRUE(dev.ok());
    device = std::move(*dev);
    auto st = core::ContainerStore::Create(device.get(), kStoreBase,
                                           kStoreRegion, corpus_a);
    ASSERT_TRUE(st.ok()) << st.status();
    store = std::make_unique<core::ContainerStore>(std::move(*st));

    auto so = BaseSealOptions();
    so.engine.container_generation = store->generation();
    auto sealed = SealPool(&corpus_a, so);
    ASSERT_TRUE(sealed.ok()) << sealed.status();
    pool = std::make_unique<SealedPool>(std::move(*sealed));

    ServingOptions sopts;
    sopts.workers = 2;
    server = std::make_unique<ServingEngine>(pool.get(), sopts);
  }

  Status RunQuery(const tadoc::AnalyticsOutput& expected,
                  uint64_t expect_generation) {
    QueryRequest req;
    req.task = tadoc::Task::kWordCount;
    auto t = server->Submit(std::move(req));
    if (!t.ok()) return t.status();
    server->Drain();
    const QueryResult& r = server->result(*t);
    EXPECT_EQ(r.generation, expect_generation);
    if (r.status.ok()) {
      EXPECT_EQ(r.output, expected);
    }
    return r.status;
  }
};

TEST(RefresherTest, RefreshPublishesDurableGeneration) {
  RefreshHarness h;
  h.Init(501);
  const auto expected_a =
      ReferenceRun(h.corpus_a, tadoc::Task::kWordCount, {});
  const auto expected_all =
      ReferenceRun(h.corpus_all, tadoc::Task::kWordCount, {});
  ASSERT_TRUE(h.RunQuery(expected_a, 1).ok());

  RefreshOptions ropts;
  ropts.compress.min_chunk_bytes = 1;
  CorpusRefresher refresher(h.store.get(), h.server.get(), ropts);
  ASSERT_TRUE(refresher.Refresh(h.batch_b).ok());
  h.server->WaitGenerationDrained();

  // Durable: the container cut over...
  EXPECT_EQ(h.store->generation(), 2u);
  auto reloaded = h.store->Load();
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(compress::DecodeToTokens(*reloaded),
            compress::DecodeToTokens(h.corpus_all));
  // ...and the fleet serves the new generation.
  EXPECT_EQ(h.server->current_generation(), 2u);
  ASSERT_TRUE(h.RunQuery(expected_all, 2).ok());

  const RefreshStats rs = refresher.stats();
  EXPECT_EQ(rs.generations_published, 1u);
  EXPECT_EQ(rs.refresh_retries, 0u);
  EXPECT_EQ(rs.refresh_aborts, 0u);
  EXPECT_EQ(rs.degraded_refreshes, 0u);
  EXPECT_EQ(h.server->stats().generations_published, 1u);
}

// The refresher's seal of a new generation is one init too, under the
// published generation's own options and corpus.
TEST(RefresherTest, PublishedGenerationSealPaysOneInit) {
  RefreshHarness h;
  h.Init(505);
  RefreshOptions ropts;
  ropts.compress.min_chunk_bytes = 1;
  CorpusRefresher refresher(h.store.get(), h.server.get(), ropts);
  ASSERT_TRUE(refresher.Refresh(h.batch_b).ok());

  const std::shared_ptr<const SealedPool> pool = h.server->current_pool();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->options.engine.container_generation, 2u);
  EXPECT_EQ(pool->seal_sim_ns,
            SoloWordCount(*pool->corpus, pool->options).init_sim_ns);
  const auto expected_all =
      ReferenceRun(h.corpus_all, tadoc::Task::kWordCount, {});
  ASSERT_TRUE(h.RunQuery(expected_all, 2).ok());
}

TEST(RefresherTest, TransientStageFaultsRetryWithBackoff) {
  // Slot 0 fails its first 7 read attempts, then heals: the first
  // StageAppend exhausts the device's 1+4 attempts and fails, the
  // refresher's second try absorbs the remaining two.
  nvm::FaultSpec spec;
  spec.effect = nvm::FaultEffect::kTransientRead;
  spec.trigger = nvm::FaultTrigger::kAddressRange;
  spec.range_begin = RefreshHarness::kStoreBase + 2 * 64 +
                     core::ContainerStoreOptions{}.log_bytes;
  spec.range_end = spec.range_begin + 64;
  spec.transient_fail_count = 7;
  nvm::FaultPlan plan;
  plan.faults.push_back(spec);

  RefreshHarness h;
  h.Init(502, plan);
  const uint64_t clock_before = h.device->clock().NowNanos();

  RefreshOptions ropts;
  ropts.compress.min_chunk_bytes = 1;
  CorpusRefresher refresher(h.store.get(), h.server.get(), ropts);
  ASSERT_TRUE(refresher.Refresh(h.batch_b).ok());

  const RefreshStats rs = refresher.stats();
  EXPECT_EQ(rs.generations_published, 1u);
  EXPECT_EQ(rs.refresh_retries, 1u);
  EXPECT_EQ(rs.refresh_aborts, 0u);
  // The retry backoff was charged to the store device's clock.
  EXPECT_GT(h.device->clock().NowNanos(), clock_before);
  EXPECT_EQ(h.store->generation(), 2u);
  const auto expected_all =
      ReferenceRun(h.corpus_all, tadoc::Task::kWordCount, {});
  ASSERT_TRUE(h.RunQuery(expected_all, 2).ok());
}

TEST(RefresherTest, ExhaustedRetriesAbortAndKeepOldGeneration) {
  RefreshHarness h;
  h.Init(503);
  // Media dead beyond retry: sticky poison on the active slot.
  h.device->PoisonForTesting(RefreshHarness::kStoreBase + 2 * 64 +
                                 core::ContainerStoreOptions{}.log_bytes,
                             64, /*sticky=*/true);

  RefreshOptions ropts;
  ropts.compress.min_chunk_bytes = 1;
  ropts.max_attempts = 2;
  CorpusRefresher refresher(h.store.get(), h.server.get(), ropts);
  Status s = refresher.Refresh(h.batch_b);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s;

  const RefreshStats rs = refresher.stats();
  EXPECT_EQ(rs.refresh_aborts, 1u);
  EXPECT_EQ(rs.refresh_retries, 1u);
  EXPECT_EQ(rs.generations_published, 0u);
  // The fleet never noticed: old generation, exact answers.
  EXPECT_EQ(h.server->current_generation(), 1u);
  EXPECT_EQ(h.server->stats().generations_published, 0u);
  const auto expected_a =
      ReferenceRun(h.corpus_a, tadoc::Task::kWordCount, {});
  ASSERT_TRUE(h.RunQuery(expected_a, 1).ok());
}

TEST(RefresherTest, DegradedRefreshServesFromMemory) {
  RefreshHarness h;
  h.Init(504);
  h.device->PoisonForTesting(RefreshHarness::kStoreBase + 2 * 64 +
                                 core::ContainerStoreOptions{}.log_bytes,
                             64, /*sticky=*/true);

  RefreshOptions ropts;
  ropts.compress.min_chunk_bytes = 1;
  ropts.max_attempts = 2;
  ropts.allow_degraded = true;
  CorpusRefresher refresher(h.store.get(), h.server.get(), ropts);
  ASSERT_TRUE(refresher.Refresh(h.batch_b).ok());

  const RefreshStats rs = refresher.stats();
  EXPECT_EQ(rs.degraded_refreshes, 1u);
  EXPECT_EQ(rs.generations_published, 1u);
  // Fresh data serves from memory; nothing durable changed, so a crash
  // would fall back to the old generation.
  EXPECT_EQ(h.store->generation(), 1u);
  EXPECT_EQ(h.server->current_generation(), 2u);
  const auto expected_all =
      ReferenceRun(h.corpus_all, tadoc::Task::kWordCount, {});
  ASSERT_TRUE(h.RunQuery(expected_all, 2).ok());
}

}  // namespace
}  // namespace ntadoc::serve
