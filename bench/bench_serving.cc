// Serving-layer benchmark: concurrent sessions over one sealed pool.
//
// Measures query throughput and sim-latency percentiles for worker
// fleets of N = 1, 4, 16, each with and without a media-fault mix (a
// repairable poisoned payload block in 1 of 4 sessions). All timing is
// simulated device time on the per-worker clock lanes, so the numbers
// are deterministic: round-robin placement with work stealing off gives
// every lane a fixed query set.
//
// A refresh-under-load scenario rides along: the corpus is hosted in a
// durable ContainerStore, a 16-worker clean fleet answers two query
// waves, and between the waves a CorpusRefresher appends new files and
// cuts the fleet over to the new generation while it keeps serving.
//
// Result rows (bench_common.h's row format, bench "serving"), gated
// relationally by tools/check_bench.sh:
//   fleet    workers, fault_pct, queries, qps_sim, p50_sim_ns, p99_sim_ns,
//            makespan_sim_ns, wall_ns (host time of the whole fleet),
//            scoped_repairs, salvage_restarts, degraded
//   refresh  workers, queries, p99_sim_ns, baseline_p99_sim_ns (the same
//            run's clean 16-worker fleet), makespan_sim_ns, failed,
//            generations_published, drained_sessions, wall_ns
//
// Extra flags on top of the shared ones (see bench_common.h):
//   --json=PATH   also write the result rows to PATH
//   --queries=N   queries per fleet configuration (default 48)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "compress/format.h"
#include "core/container_store.h"
#include "serve/refresh.h"
#include "serve/serving.h"
#include "util/logging.h"

namespace {

using namespace ntadoc;
using namespace ntadoc::bench;

struct ServeResult {
  uint32_t workers = 0;
  uint32_t fault_pct = 0;
  uint32_t queries = 0;
  double qps = 0;  // simulated queries per simulated second
  uint64_t p50_sim_ns = 0;
  uint64_t p99_sim_ns = 0;
  uint64_t makespan_sim_ns = 0;
  uint64_t wall_ns = 0;
  uint64_t degraded = 0;
  core::RunCounters sessions;  // summed over the fleet's sessions
};

uint64_t WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Device extent of the sealed payload region (deterministic layout: a
// fresh solo run reproduces the sealed pool's geometry).
std::pair<uint64_t, uint64_t> LocatePayload(const DatasetBundle& d,
                                            const serve::SealOptions& so) {
  nvm::DeviceOptions dopts;
  dopts.capacity = so.capacity;
  dopts.profile = so.profile;
  auto device = nvm::NvmDevice::Create(dopts);
  NTADOC_CHECK(device.ok()) << device.status();
  core::NTadocEngine engine(&d.corpus, device->get(), so.engine);
  auto out = engine.Run(Task::kWordCount);
  NTADOC_CHECK(out.ok()) << out.status();
  return engine.payload_region();
}

ServeResult RunFleet(const serve::SealedPool& pool, uint32_t workers,
                     uint32_t queries, uint32_t fault_pct,
                     uint64_t bad_block) {
  serve::ServingOptions sopts;
  sopts.workers = workers;
  sopts.queue_capacity = queries;
  sopts.work_stealing = false;  // fixed lane assignment => deterministic
  serve::ServingEngine server(&pool, sopts);

  const uint64_t wall0 = WallNowNs();
  std::vector<uint64_t> tickets;
  tickets.reserve(queries);
  for (uint32_t i = 0; i < queries; ++i) {
    serve::QueryRequest req;
    req.task = tadoc::kAllTasks[i % tadoc::kAllTasks.size()];
    if (fault_pct > 0 && i % (100 / fault_pct) == 0) {
      // Repairable single-block damage: the session's escalation ladder
      // absorbs it (scoped repair, salvage at worst) without spilling
      // into siblings.
      req.poison.push_back({bad_block, 1, /*sticky=*/false});
    }
    auto t = server.Submit(std::move(req));
    NTADOC_CHECK(t.ok()) << t.status();
    tickets.push_back(*t);
  }
  server.Drain();

  ServeResult r;
  r.workers = workers;
  r.fault_pct = fault_pct;
  r.queries = queries;
  r.wall_ns = WallNowNs() - wall0;
  std::vector<uint64_t> lat;
  lat.reserve(tickets.size());
  for (uint64_t t : tickets) {
    const serve::QueryResult& q = server.result(t);
    NTADOC_CHECK(q.status.ok()) << q.status;
    lat.push_back(q.latency_sim_ns);
  }
  std::sort(lat.begin(), lat.end());
  r.p50_sim_ns = lat[lat.size() / 2];
  r.p99_sim_ns = lat[std::min(lat.size() - 1, lat.size() * 99 / 100)];
  r.makespan_sim_ns = server.makespan_sim_ns();
  r.qps = r.makespan_sim_ns > 0
              ? static_cast<double>(queries) * 1e9 / r.makespan_sim_ns
              : 0;
  const serve::ServingStats st = server.stats();
  r.degraded = st.degraded;
  r.sessions = st.sessions;
  return r;
}

struct RefreshResult {
  uint32_t workers = 0;
  uint32_t queries = 0;
  uint64_t p99_sim_ns = 0;           // clean sessions, refresh mid-run
  uint64_t baseline_p99_sim_ns = 0;  // same run, same fleet, no refresh
  uint64_t makespan_sim_ns = 0;
  uint64_t failed = 0;
  uint64_t generations_published = 0;
  uint64_t drained_sessions = 0;
  uint64_t wall_ns = 0;
};

// Deterministic refresh content: no RNG so repeated runs append the
// same bytes (the merged container, and hence sim times, reproduce).
std::vector<compress::InputFile> MakeRefreshFiles() {
  static const char* kWords[] = {"delta", "epoch", "grain", "ledger",
                                 "motif", "quill", "raster", "sketch"};
  std::vector<compress::InputFile> files;
  for (int f = 0; f < 2; ++f) {
    std::string text;
    for (int i = 0; i < 600; ++i) {
      text += kWords[(i * 7 + f * 3) % 8];
      text += (i % 12 == 11) ? '\n' : ' ';
    }
    files.push_back({"refresh" + std::to_string(f), std::move(text)});
  }
  return files;
}

// Two query waves on a clean 16-worker fleet with a generation cutover
// between them: wave 1 drains on the old generation while wave 2 is
// answered from the freshly published one.
RefreshResult RunRefreshFleet(const DatasetBundle& d,
                              const serve::SealOptions& base_so,
                              uint32_t queries, uint64_t baseline_p99) {
  const auto refresh_files = MakeRefreshFiles();
  uint64_t new_bytes = 0;
  for (const auto& f : refresh_files) new_bytes += f.content.size();
  const uint64_t slot_bytes =
      (compress::SerializeCorpus(d.corpus).size() + new_bytes + 8192) &
      ~63ull;
  core::ContainerStoreOptions csopts;
  const uint64_t region = 2 * 64 + csopts.log_bytes + 2 * slot_bytes;
  nvm::DeviceOptions dopts;
  dopts.capacity = region + 4096;
  auto device = nvm::NvmDevice::Create(dopts);
  NTADOC_CHECK(device.ok()) << device.status();
  auto made =
      core::ContainerStore::Create(device->get(), 0, region, d.corpus, csopts);
  NTADOC_CHECK(made.ok()) << made.status();
  core::ContainerStore store = std::move(*made);

  serve::SealOptions so = base_so;
  so.engine.container_generation = store.generation();
  auto sealed = serve::SealPool(&d.corpus, so);
  NTADOC_CHECK(sealed.ok()) << sealed.status();

  serve::ServingOptions sopts;
  sopts.workers = 16;
  sopts.queue_capacity = queries;
  sopts.work_stealing = false;
  serve::ServingEngine server(&*sealed, sopts);
  serve::RefreshOptions ropts;
  ropts.compress.threads = 1;  // deterministic merged bytes
  serve::CorpusRefresher refresher(&store, &server, ropts);

  const uint64_t wall0 = WallNowNs();
  std::vector<uint64_t> tickets;
  tickets.reserve(queries);
  const auto submit_wave = [&](uint32_t n) {
    for (uint32_t i = 0; i < n; ++i) {
      serve::QueryRequest req;
      req.task = tadoc::kAllTasks[tickets.size() % tadoc::kAllTasks.size()];
      auto t = server.Submit(std::move(req));
      NTADOC_CHECK(t.ok()) << t.status();
      tickets.push_back(*t);
    }
  };
  submit_wave(queries / 2);
  NTADOC_CHECK(refresher.Refresh(refresh_files).ok());
  submit_wave(queries - queries / 2);
  server.Drain();
  server.WaitGenerationDrained();

  RefreshResult r;
  r.workers = sopts.workers;
  r.queries = queries;
  r.baseline_p99_sim_ns = baseline_p99;
  r.wall_ns = WallNowNs() - wall0;
  std::vector<uint64_t> lat;
  lat.reserve(tickets.size());
  for (uint64_t t : tickets) {
    const serve::QueryResult& q = server.result(t);
    NTADOC_CHECK(q.status.ok()) << q.status;
    lat.push_back(q.latency_sim_ns);
  }
  std::sort(lat.begin(), lat.end());
  r.p99_sim_ns = lat[std::min(lat.size() - 1, lat.size() * 99 / 100)];
  r.makespan_sim_ns = server.makespan_sim_ns();
  const serve::ServingStats st = server.stats();
  r.failed = st.failed;
  r.generations_published = st.generations_published;
  r.drained_sessions = st.drained_sessions;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config = ParseArgs(argc, argv, kJsonFlag | kQueriesFlag);
  if (config.datasets.empty()) config.datasets = {"C"};
  const uint32_t queries = config.queries;

  const auto datasets = LoadDatasets(config);
  NTADOC_CHECK(!datasets.empty());
  const DatasetBundle& d = datasets[0];

  serve::SealOptions so;
  so.capacity = d.device_capacity;
  so.engine.persistence = PersistenceMode::kPhase;

  const auto [pbegin, pend] = LocatePayload(d, so);
  NTADOC_CHECK(pbegin < pend);
  const uint64_t bad_block = ((pbegin + pend) / 2) & ~uint64_t{255};

  auto sealed = serve::SealPool(&d.corpus, so);
  NTADOC_CHECK(sealed.ok()) << sealed.status();

  RowSink sink("serving", config);
  PrintTitle("Concurrent serving on dataset " + d.spec.name,
             "sealed pool, per-session clones, per-worker sim lanes");
  PrintRow({"Workers", "Faults", "Queries", "QPS(sim)", "p50", "p99",
            "Makespan", "Repairs"});

  std::vector<ServeResult> results;
  for (uint32_t workers : {1u, 4u, 16u}) {
    for (uint32_t fault_pct : {0u, 25u}) {
      const ServeResult r =
          RunFleet(*sealed, workers, queries, fault_pct, bad_block);
      PrintRow({std::to_string(r.workers),
                std::to_string(r.fault_pct) + "%",
                std::to_string(r.queries),
                std::to_string(r.qps).substr(0, 8), Secs(r.p50_sim_ns),
                Secs(r.p99_sim_ns), Secs(r.makespan_sim_ns),
                std::to_string(r.sessions.scoped_repairs +
                               r.sessions.salvage_restarts)});
      sink.Emit(sink.Start("fleet", d.spec.name)
                    .Num("workers", r.workers)
                    .Num("fault_pct", r.fault_pct)
                    .Num("queries", r.queries)
                    .Real("qps_sim", r.qps, 3)
                    .Num("p50_sim_ns", r.p50_sim_ns)
                    .Num("p99_sim_ns", r.p99_sim_ns)
                    .Num("makespan_sim_ns", r.makespan_sim_ns)
                    .Num("wall_ns", r.wall_ns)
                    .Num("scoped_repairs", r.sessions.scoped_repairs)
                    .Num("salvage_restarts", r.sessions.salvage_restarts)
                    .Num("degraded", r.degraded));
      results.push_back(r);
    }
  }

  // Refresh under load: same fleet size and query count as the clean
  // 16-worker row, which doubles as the gate baseline.
  uint64_t baseline_p99 = 0;
  for (const ServeResult& r : results) {
    if (r.workers == 16 && r.fault_pct == 0) baseline_p99 = r.p99_sim_ns;
  }
  const RefreshResult refresh = RunRefreshFleet(d, so, queries, baseline_p99);
  PrintRow({"16+refresh", "0%", std::to_string(refresh.queries), "-",
            "-", Secs(refresh.p99_sim_ns), Secs(refresh.makespan_sim_ns),
            std::to_string(refresh.generations_published) + " gen"});
  sink.Emit(sink.Start("refresh", d.spec.name)
                .Num("workers", refresh.workers)
                .Num("queries", refresh.queries)
                .Num("p99_sim_ns", refresh.p99_sim_ns)
                .Num("baseline_p99_sim_ns", refresh.baseline_p99_sim_ns)
                .Num("makespan_sim_ns", refresh.makespan_sim_ns)
                .Num("failed", refresh.failed)
                .Num("generations_published", refresh.generations_published)
                .Num("drained_sessions", refresh.drained_sessions)
                .Num("wall_ns", refresh.wall_ns));
  return sink.Finish();
}
