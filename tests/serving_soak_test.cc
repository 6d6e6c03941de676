// Serving soak: the fault-isolation acceptance suite for concurrent
// query serving. One sealed pool, many simultaneous sessions, faults
// injected into a minority of them:
//
//   A  k of N sessions hit media trouble (transient faults, repairable
//      poison, sticky poison in degraded mode) while their siblings run
//      clean -> every clean session's answer is bit-identical to a solo
//      run and its fault counters are exactly zero (no cross-session
//      bleed); every faulted session resolves inside its own ladder.
//   B  sessions with impossible deadlines expire without stalling the
//      queue or corrupting the siblings that share their worker lanes.
//   C  with deterministic scheduling (round-robin placement, stealing
//      off, no shared cache) two identical serving runs produce
//      bit-identical outputs and identical per-lane sim times.
//   D  refresh under fire: a generation cutover runs while k of N
//      sessions are faulted mid-flight -> old-generation sessions drain
//      with answers bit-identical to the pre-refresh corpus, new
//      sessions serve the merged corpus, faulted sessions resolve
//      inside their own ladders, and no counters bleed across either
//      sessions or generations.
//   E  tiering under fire: every session runs with a DRAM tier over the
//      home medium and online migration ticking aggressively while k of
//      N sessions are faulted -> migrations demonstrably run (promotion
//      counters land in the serving stats), clean siblings stay
//      bit-identical to a solo tiered run, and the faulted minority
//      resolves inside its own ladder.
//
// The whole binary is the TSAN target for the serving layer: work
// stealing and the shared decoded-rule cache are exercised under real
// thread interleavings. NTADOC_CHAOS_SEED varies the corpus for soak
// sweeps without editing the test.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "compress/compressor.h"
#include "core/container_store.h"
#include "nvm/tiered_pool.h"
#include "serve/refresh.h"
#include "serve/serving.h"
#include "reference_impl.h"

namespace ntadoc::serve {
namespace {

using core::NTadocEngine;
using core::NTadocOptions;
using core::PersistenceMode;
using tests::RandomCorpus;
using tests::ReferenceRun;

uint64_t ChaosSeed() {
  const char* env = std::getenv("NTADOC_CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 909;
}

constexpr uint64_t kCapacity = 32ull << 20;

SealOptions BaseSealOptions() {
  SealOptions so;
  so.capacity = kCapacity;
  so.engine.persistence = PersistenceMode::kPhase;
  return so;
}

tadoc::Task TaskFor(size_t i) {
  return tadoc::kAllTasks[i % tadoc::kAllTasks.size()];
}

// Solo baseline: the same session configuration (sealed image clone +
// prefix) run alone on a private clock. Serving answers must be
// bit-identical to this.
tadoc::AnalyticsOutput SoloRun(const SealedPool& pool, tadoc::Task task) {
  nvm::DeviceOptions dopts;
  dopts.capacity = pool.options.capacity;
  dopts.profile = pool.options.profile;
  dopts.strict_persistence = pool.options.strict_persistence;
  dopts.base_image = pool.image;
  auto device = nvm::NvmDevice::Create(dopts);
  EXPECT_TRUE(device.ok()) << device.status();
  NTadocOptions opts = pool.options.engine;
  opts.sealed_prefix = pool.prefix;
  NTadocEngine engine(pool.corpus, device->get(), opts);
  auto out = engine.Run(task);
  EXPECT_TRUE(out.ok()) << out.status();
  return out.ok() ? std::move(*out) : tadoc::AnalyticsOutput{};
}

std::pair<uint64_t, uint64_t> LocatePayload(
    const compress::CompressedCorpus& corpus, const SealOptions& so) {
  nvm::DeviceOptions dopts;
  dopts.capacity = so.capacity;
  dopts.profile = so.profile;
  auto device = nvm::NvmDevice::Create(dopts);
  EXPECT_TRUE(device.ok());
  NTadocEngine engine(&corpus, device->get(), so.engine);
  EXPECT_TRUE(engine.Run(tadoc::Task::kWordCount).ok());
  return engine.payload_region();
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

// ---- Scenario A: faulted minority, clean majority --------------------

TEST(ServingSoakTest, FaultedMinorityLeavesSiblingsBitIdentical) {
  const auto corpus = RandomCorpus(ChaosSeed(), 20, 4, 220);
  const auto so = BaseSealOptions();
  const auto [pbegin, pend] = LocatePayload(corpus, so);
  ASSERT_LT(pbegin, pend);
  const uint64_t bad_block = ((pbegin + pend) / 2) & ~uint64_t{255};

  auto sealed = SealPool(&corpus, so);
  ASSERT_TRUE(sealed.ok()) << sealed.status();

  // Solo baselines for every task, computed before any serving run.
  std::vector<tadoc::AnalyticsOutput> solo;
  for (tadoc::Task task : tadoc::kAllTasks) {
    solo.push_back(SoloRun(*sealed, task));
  }

  ServingOptions sopts;
  sopts.workers = 4;
  sopts.queue_capacity = 64;
  sopts.work_stealing = true;          // real interleavings for TSAN
  sopts.shared_cache_bytes = 1 << 20;  // shared cache under contention
  ServingEngine server(&*sealed, sopts);

  constexpr size_t kN = 16;
  std::vector<uint64_t> clean_tickets;
  std::vector<uint64_t> faulted_tickets;
  for (size_t i = 0; i < kN; ++i) {
    QueryRequest req;
    req.task = TaskFor(i);
    const bool faulted = i % 4 == 3;  // k = 4 of N = 16
    if (faulted) {
      switch (i / 4) {
        case 0: {  // transient read faults: absorbed by device retries
          nvm::FaultSpec s;
          s.effect = nvm::FaultEffect::kTransientRead;
          s.trigger = nvm::FaultTrigger::kNthRead;
          s.n = 5;
          s.transient_fail_count = 2;
          req.fault_plan.faults.push_back(s);
          break;
        }
        case 1:  // repairable poison: scoped repair or salvage
          req.poison.push_back({bad_block, 1, /*sticky=*/false});
          break;
        case 2:  // sticky poison + degraded opt-in: honest completeness
          req.poison.push_back({bad_block, 1, /*sticky=*/true});
          req.allow_degraded = true;
          break;
        default:  // second repairable-poison session, different block
          req.poison.push_back(
              {(bad_block + 256 <= pend) ? bad_block + 256 : bad_block, 1,
               /*sticky=*/false});
          break;
      }
      auto t = server.Submit(std::move(req));
      ASSERT_TRUE(t.ok()) << t.status();
      faulted_tickets.push_back(*t);
    } else {
      auto t = server.Submit(std::move(req));
      ASSERT_TRUE(t.ok()) << t.status();
      clean_tickets.push_back(*t);
    }
  }
  server.Drain();

  // Clean sessions: bit-identical to solo, zero fault counters.
  for (uint64_t t : clean_tickets) {
    const QueryResult& r = server.result(t);
    ASSERT_TRUE(r.done);
    ASSERT_TRUE(r.status.ok()) << "ticket " << t << ": " << r.status;
    const tadoc::AnalyticsOutput& want =
        solo[static_cast<size_t>(r.output.task) % tadoc::kAllTasks.size()];
    EXPECT_EQ(r.output, want) << "ticket " << t;
    EXPECT_EQ(tadoc::FingerprintOutput(r.output),
              tadoc::FingerprintOutput(want))
        << "ticket " << t;
    EXPECT_EQ(r.info.corruption_detected, 0u) << "ticket " << t;
    EXPECT_EQ(r.info.scoped_repairs, 0u) << "ticket " << t;
    EXPECT_EQ(r.info.salvage_restarts, 0u) << "ticket " << t;
    EXPECT_EQ(r.info.blocks_lost, 0u) << "ticket " << t;
    EXPECT_EQ(r.info.transient_retries, 0u) << "ticket " << t;
    EXPECT_EQ(r.info.degraded_queries, 0u) << "ticket " << t;
    EXPECT_EQ(r.info.completeness, 1.0) << "ticket " << t;
  }

  // Faulted sessions: each resolved inside its own escalation ladder.
  {
    const QueryResult& r = server.result(faulted_tickets[0]);  // transient
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_EQ(r.output, solo[static_cast<size_t>(r.output.task) %
                             tadoc::kAllTasks.size()]);
    EXPECT_GT(r.info.transient_retries, 0u);
    EXPECT_EQ(r.info.degraded_queries, 0u);
  }
  for (size_t idx : {size_t{1}, size_t{3}}) {  // repairable poison
    const QueryResult& r = server.result(faulted_tickets[idx]);
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_EQ(r.output, solo[static_cast<size_t>(r.output.task) %
                             tadoc::kAllTasks.size()]);
    EXPECT_GT(r.info.scoped_repairs + r.info.salvage_restarts, 0u);
    EXPECT_EQ(r.info.degraded_queries, 0u);
  }
  {
    const QueryResult& r = server.result(faulted_tickets[2]);  // degraded
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_EQ(r.info.degraded_queries, 1u);
    EXPECT_LT(r.info.completeness, 1.0);
    EXPECT_GE(r.info.completeness, 0.0);
  }

  const ServingStats st = server.stats();
  EXPECT_EQ(st.completed, kN);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.degraded, 1u);
  EXPECT_GT(st.sessions.scoped_repairs + st.sessions.salvage_restarts, 0u);
}

// ---- Scenario B: deadlines never stall the queue ---------------------

TEST(ServingSoakTest, ExpiredDeadlinesDoNotStallSiblings) {
  const auto corpus = RandomCorpus(ChaosSeed() + 1, 20, 4, 220);
  auto sealed = SealPool(&corpus, BaseSealOptions());
  ASSERT_TRUE(sealed.ok()) << sealed.status();

  ServingOptions sopts;
  sopts.workers = 4;
  sopts.queue_capacity = 64;
  ServingEngine server(&*sealed, sopts);

  std::vector<uint64_t> doomed;
  std::vector<uint64_t> healthy;
  for (size_t i = 0; i < 12; ++i) {
    QueryRequest req;
    req.task = TaskFor(i);
    if (i % 3 == 1) {
      req.deadline_sim_ns = 1;  // expires at the first cancellation point
      auto t = server.Submit(std::move(req));
      ASSERT_TRUE(t.ok());
      doomed.push_back(*t);
    } else {
      auto t = server.Submit(std::move(req));
      ASSERT_TRUE(t.ok());
      healthy.push_back(*t);
    }
  }
  server.Drain();  // must return: expired sessions release their workers

  for (uint64_t t : doomed) {
    const QueryResult& r = server.result(t);
    ASSERT_TRUE(r.done);
    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded) << r.status;
    EXPECT_EQ(r.info.salvage_restarts, 0u);  // deadline never escalates
  }
  for (uint64_t t : healthy) {
    const QueryResult& r = server.result(t);
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_EQ(r.output, ReferenceRun(corpus, r.output.task, {}));
  }
  const ServingStats st = server.stats();
  EXPECT_EQ(st.deadline_expired, doomed.size());
  EXPECT_EQ(st.completed, healthy.size());
  EXPECT_EQ(st.failed, 0u);
}

// ---- Scenario C: deterministic scheduling is reproducible ------------

TEST(ServingSoakTest, DeterministicModeReproducesLatenciesExactly) {
  const auto corpus = RandomCorpus(ChaosSeed() + 2, 20, 4, 220);
  auto sealed = SealPool(&corpus, BaseSealOptions());
  ASSERT_TRUE(sealed.ok()) << sealed.status();

  auto run_once = [&](std::vector<uint64_t>* fingerprints,
                      std::vector<uint64_t>* lanes) {
    ServingOptions sopts;
    sopts.workers = 4;
    sopts.work_stealing = false;  // fixed lane assignment
    ServingEngine server(&*sealed, sopts);
    std::vector<uint64_t> tickets;
    for (size_t i = 0; i < 12; ++i) {
      QueryRequest req;
      req.task = TaskFor(i);
      auto t = server.Submit(std::move(req));
      ASSERT_TRUE(t.ok());
      tickets.push_back(*t);
    }
    server.Drain();
    for (uint64_t t : tickets) {
      const QueryResult& r = server.result(t);
      ASSERT_TRUE(r.status.ok()) << r.status;
      fingerprints->push_back(tadoc::FingerprintOutput(r.output));
      lanes->push_back(r.latency_sim_ns);
    }
    for (uint32_t w = 0; w < server.workers(); ++w) {
      lanes->push_back(server.worker_lane_ns(w));
    }
    EXPECT_EQ(server.stats().stolen, 0u);
  };

  std::vector<uint64_t> fp1, fp2;
  std::vector<uint64_t> lanes1, lanes2;
  run_once(&fp1, &lanes1);
  run_once(&fp2, &lanes2);
  EXPECT_EQ(fp1, fp2);
  EXPECT_EQ(lanes1, lanes2);
}

// ---- Scenario D: generation refresh under fire -----------------------

TEST(ServingSoakTest, RefreshUnderFireKeepsSiblingsExact) {
  const uint64_t seed = ChaosSeed() + 3;
  auto batch_a = tests::RandomInputs(seed, 60, 5, 90);
  auto batch_b = tests::RandomInputs(seed + 1, 60, 3, 80);
  for (size_t i = 0; i < batch_b.size(); ++i) {
    batch_b[i].name = "new" + std::to_string(i);
  }
  auto ca = compress::Compress(batch_a);
  ASSERT_TRUE(ca.ok());
  const compress::CompressedCorpus corpus_a = std::move(*ca);
  std::vector<compress::InputFile> all = batch_a;
  all.insert(all.end(), batch_b.begin(), batch_b.end());
  auto cm = compress::Compress(all);
  ASSERT_TRUE(cm.ok());
  const compress::CompressedCorpus corpus_all = std::move(*cm);

  // Durable container holding generation 1.
  nvm::DeviceOptions dopts;
  dopts.capacity = 16ull << 20;
  dopts.strict_persistence = true;
  auto dev = nvm::NvmDevice::Create(dopts);
  ASSERT_TRUE(dev.ok());
  auto made = core::ContainerStore::Create(dev->get(), 4096, 4ull << 20,
                                           corpus_a);
  ASSERT_TRUE(made.ok()) << made.status();
  core::ContainerStore store = std::move(*made);

  auto so = BaseSealOptions();
  so.engine.container_generation = store.generation();
  const auto [pbegin, pend] = LocatePayload(corpus_a, so);
  ASSERT_LT(pbegin, pend);
  const uint64_t bad_block = ((pbegin + pend) / 2) & ~uint64_t{255};

  auto sealed = SealPool(&corpus_a, so);
  ASSERT_TRUE(sealed.ok()) << sealed.status();

  ServingOptions sopts;
  sopts.workers = 4;
  sopts.queue_capacity = 64;
  sopts.work_stealing = true;          // real interleavings for TSAN
  sopts.shared_cache_bytes = 1 << 20;  // cache invalidation under load
  ServingEngine server(&*sealed, sopts);

  // Wave 1: k = 3 of N = 12 sessions faulted, admitted on generation 1
  // while the workers are live.
  constexpr size_t kN = 12;
  std::vector<uint64_t> clean1;
  std::vector<uint64_t> faulted1;
  for (size_t i = 0; i < kN; ++i) {
    QueryRequest req;
    req.task = TaskFor(i);
    const bool faulted = i % 4 == 3;
    if (faulted) {
      switch (i / 4) {
        case 0: {  // transient read faults: absorbed by device retries
          nvm::FaultSpec s;
          s.effect = nvm::FaultEffect::kTransientRead;
          s.trigger = nvm::FaultTrigger::kNthRead;
          s.n = 5;
          s.transient_fail_count = 2;
          req.fault_plan.faults.push_back(s);
          break;
        }
        case 1:  // repairable poison: scoped repair or salvage
          req.poison.push_back({bad_block, 1, /*sticky=*/false});
          break;
        default:  // sticky poison + degraded opt-in
          req.poison.push_back({bad_block, 1, /*sticky=*/true});
          req.allow_degraded = true;
          break;
      }
      auto t = server.Submit(std::move(req));
      ASSERT_TRUE(t.ok()) << t.status();
      faulted1.push_back(*t);
    } else {
      auto t = server.Submit(std::move(req));
      ASSERT_TRUE(t.ok()) << t.status();
      clean1.push_back(*t);
    }
  }

  // The cutover runs from this thread while the fleet is mid-wave: the
  // refresher stages + commits on the store device and publishes the
  // sealed replacement. Wave-1 sessions stay pinned to generation 1.
  RefreshOptions ropts;
  ropts.compress.min_chunk_bytes = 1;
  CorpusRefresher refresher(&store, &server, ropts);
  ASSERT_TRUE(refresher.Refresh(batch_b).ok());
  EXPECT_EQ(store.generation(), 2u);
  EXPECT_EQ(server.current_generation(), 2u);

  // Wave 2: clean sessions admitted on the new generation.
  std::vector<uint64_t> clean2;
  for (size_t i = 0; i < 6; ++i) {
    QueryRequest req;
    req.task = TaskFor(i);
    auto t = server.Submit(std::move(req));
    ASSERT_TRUE(t.ok()) << t.status();
    clean2.push_back(*t);
  }
  server.Drain();
  server.WaitGenerationDrained();

  // Wave-1 clean sessions: pinned to generation 1, bit-identical to the
  // pre-refresh corpus, zero fault counters (no bleed from the faulted
  // minority or from the cutover).
  for (uint64_t t : clean1) {
    const QueryResult& r = server.result(t);
    ASSERT_TRUE(r.done);
    ASSERT_TRUE(r.status.ok()) << "ticket " << t << ": " << r.status;
    EXPECT_EQ(r.generation, 1u) << "ticket " << t;
    EXPECT_EQ(r.output, ReferenceRun(corpus_a, r.output.task, {}))
        << "ticket " << t;
    EXPECT_EQ(r.info.corruption_detected, 0u) << "ticket " << t;
    EXPECT_EQ(r.info.transient_retries, 0u) << "ticket " << t;
    EXPECT_EQ(r.info.degraded_queries, 0u) << "ticket " << t;
    EXPECT_EQ(r.info.completeness, 1.0) << "ticket " << t;
  }

  // Wave-1 faulted sessions resolve inside their own ladders, still on
  // generation 1.
  {
    const QueryResult& r = server.result(faulted1[0]);  // transient
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_EQ(r.generation, 1u);
    EXPECT_EQ(r.output, ReferenceRun(corpus_a, r.output.task, {}));
    EXPECT_GT(r.info.transient_retries, 0u);
  }
  {
    const QueryResult& r = server.result(faulted1[1]);  // repairable
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_EQ(r.generation, 1u);
    EXPECT_EQ(r.output, ReferenceRun(corpus_a, r.output.task, {}));
    EXPECT_GT(r.info.scoped_repairs + r.info.salvage_restarts, 0u);
  }
  {
    const QueryResult& r = server.result(faulted1[2]);  // degraded
    ASSERT_TRUE(r.status.ok()) << r.status;
    EXPECT_EQ(r.generation, 1u);
    EXPECT_EQ(r.info.degraded_queries, 1u);
    EXPECT_LT(r.info.completeness, 1.0);
  }

  // Wave-2 sessions: the merged corpus, exactly.
  for (uint64_t t : clean2) {
    const QueryResult& r = server.result(t);
    ASSERT_TRUE(r.status.ok()) << "ticket " << t << ": " << r.status;
    EXPECT_EQ(r.generation, 2u) << "ticket " << t;
    EXPECT_EQ(r.output, ReferenceRun(corpus_all, r.output.task, {}))
        << "ticket " << t;
    EXPECT_EQ(r.info.degraded_queries, 0u) << "ticket " << t;
  }

  const ServingStats st = server.stats();
  EXPECT_EQ(st.completed, kN + clean2.size());
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.generations_published, 1u);
  // Wave-1 sessions that finished before the publish never count as
  // drained; with live workers that split is scheduling-dependent.
  EXPECT_LE(st.drained_sessions, kN);
  EXPECT_EQ(st.degraded, 1u);
  const RefreshStats rs = refresher.stats();
  EXPECT_EQ(rs.generations_published, 1u);
  EXPECT_EQ(rs.refresh_aborts, 0u);
}

// ---- Scenario E: tiered placement under fire -------------------------

TEST(ServingSoakTest, MigrationsUnderFireKeepSiblingsBitIdentical) {
  const auto corpus = RandomCorpus(ChaosSeed() + 4, 20, 4, 220);
  auto so = BaseSealOptions();
  // DRAM tier over the home medium, ticking every 16 traversal steps so
  // every session migrates while its siblings run. Each session owns its
  // TieredPool and touches it only from its own worker; the serving
  // layer sums tier counters from each session's NTadocRunInfo after
  // Run returns.
  auto tiering = std::make_shared<nvm::TierConfig>();
  tiering->tiers = {{nvm::MediumKind::kDram, 1ull << 20}};
  tiering->unit_bytes = 4096;
  tiering->migrate_interval = 16;
  so.engine.tiering = tiering;
  const auto [pbegin, pend] = LocatePayload(corpus, so);
  ASSERT_LT(pbegin, pend);
  const uint64_t bad_block = ((pbegin + pend) / 2) & ~uint64_t{255};

  auto sealed = SealPool(&corpus, so);
  ASSERT_TRUE(sealed.ok()) << sealed.status();

  // Solo baselines share the tiering options via pool.options.engine,
  // so "bit-identical" covers the migrating configuration itself.
  std::vector<tadoc::AnalyticsOutput> solo;
  for (tadoc::Task task : tadoc::kAllTasks) {
    solo.push_back(SoloRun(*sealed, task));
  }

  ServingOptions sopts;
  sopts.workers = 4;
  sopts.queue_capacity = 64;
  sopts.work_stealing = true;          // real interleavings for TSAN
  sopts.shared_cache_bytes = 1 << 20;  // shared cache under contention
  ServingEngine server(&*sealed, sopts);

  constexpr size_t kN = 16;
  std::vector<uint64_t> clean_tickets;
  std::vector<uint64_t> faulted_tickets;
  for (size_t i = 0; i < kN; ++i) {
    QueryRequest req;
    req.task = TaskFor(i);
    if (i % 4 == 3) {  // k = 4 of N = 16
      if (i / 4 % 2 == 0) {  // transient read faults
        nvm::FaultSpec s;
        s.effect = nvm::FaultEffect::kTransientRead;
        s.trigger = nvm::FaultTrigger::kNthRead;
        s.n = 5;
        s.transient_fail_count = 2;
        req.fault_plan.faults.push_back(s);
      } else {  // repairable poison mid-payload
        req.poison.push_back({bad_block, 1, /*sticky=*/false});
      }
      auto t = server.Submit(std::move(req));
      ASSERT_TRUE(t.ok()) << t.status();
      faulted_tickets.push_back(*t);
    } else {
      auto t = server.Submit(std::move(req));
      ASSERT_TRUE(t.ok()) << t.status();
      clean_tickets.push_back(*t);
    }
  }
  server.Drain();

  // Clean sessions: bit-identical to the solo tiered run, zero fault
  // counters — concurrent migrations in faulted siblings never bleed.
  for (uint64_t t : clean_tickets) {
    const QueryResult& r = server.result(t);
    ASSERT_TRUE(r.done);
    ASSERT_TRUE(r.status.ok()) << "ticket " << t << ": " << r.status;
    const tadoc::AnalyticsOutput& want =
        solo[static_cast<size_t>(r.output.task) % tadoc::kAllTasks.size()];
    EXPECT_EQ(r.output, want) << "ticket " << t;
    EXPECT_EQ(r.info.corruption_detected, 0u) << "ticket " << t;
    EXPECT_EQ(r.info.scoped_repairs, 0u) << "ticket " << t;
    EXPECT_EQ(r.info.salvage_restarts, 0u) << "ticket " << t;
    EXPECT_EQ(r.info.transient_retries, 0u) << "ticket " << t;
    EXPECT_GT(r.info.tier_resident_bytes[static_cast<int>(
                  nvm::MediumKind::kDram)],
              0u)
        << "ticket " << t << ": session ran without its DRAM tier";
  }

  // Faulted sessions resolve inside their own ladders, still tiered.
  for (uint64_t t : faulted_tickets) {
    const QueryResult& r = server.result(t);
    ASSERT_TRUE(r.status.ok()) << "ticket " << t << ": " << r.status;
    EXPECT_EQ(r.output, solo[static_cast<size_t>(r.output.task) %
                             tadoc::kAllTasks.size()])
        << "ticket " << t;
    EXPECT_GT(r.info.transient_retries + r.info.scoped_repairs +
                  r.info.salvage_restarts,
              0u)
        << "ticket " << t;
  }

  const ServingStats st = server.stats();
  EXPECT_EQ(st.completed, kN);
  EXPECT_EQ(st.failed, 0u);
  // The point of the scenario: migrations actually raced the faults.
  EXPECT_GT(st.sessions.promotions, 0u);
  EXPECT_GT(st.sessions.migration_epochs, 0u);
  std::vector<uint64_t> all = clean_tickets;
  all.insert(all.end(), faulted_tickets.begin(), faulted_tickets.end());
  ExpectSessionSums(server, all);
}

}  // namespace
}  // namespace ntadoc::serve
