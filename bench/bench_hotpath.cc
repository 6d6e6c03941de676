// Hot-path microbenchmark for the zero-copy extent read + batched cost
// charging work: every task x persistence mode, reporting host wall time
// and simulated device time separately for each phase. The simulated
// times are deterministic and double as the regression baseline checked
// by tools/check_bench.sh; the wall times are the optimization target.
//
// Extra flags on top of the shared ones (see bench_common.h):
//   --json=PATH          also write the result rows to PATH
//   --dram-cache-mb=N    decoded-rule cache budget for the cache runs
//                        (default 8; 0 skips the cache runs)
//   --repeat=N           repetitions per configuration; wall times keep
//                        the minimum (least-noise) run (default 1)
//   --tasks=T,T          per-task rows for these tasks only (result-row
//                        names, e.g. word_count,sort); the RunBatch and
//                        kernel sections run only without it
//
// Operation-level runs also get a "ci8-tiered" variant: epoch group
// commit at commit_interval=8 with the structures placed on DRAM+NVM
// tiers (a DRAM top tier of 4 MiB x scale, 16 KiB units, migration on),
// the tier configuration of perfbench's durable_oplog workload. Its wall
// time against the untiered ci8 row is the cost of tier routing.
//
// Result rows (bench_common.h's row format, bench "hotpath"):
//   run     task, persistence, variant, dram_cache_mb; init and traversal
//           time on both clocks (init_sim_ns, init_wall_ns,
//           traversal_sim_ns, traversal_wall_ns); the run counters
//           (NTADOC_RUN_COUNTERS; zero for RunBatch rows)
//   kernel  kernel, iters, sim_ns, wall_ns

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/nvm_hash_table.h"
#include "core/pruning.h"
#include "nvm/nvm_pool.h"
#include "nvm/tiered_pool.h"
#include "util/logging.h"
#include "util/random.h"

namespace {

using namespace ntadoc;
using namespace ntadoc::bench;

struct HotpathResult {
  std::string task;
  std::string mode;
  std::string variant;  // "std", "nosum" (grow-and-rebuild ablation),
                        // "ci8" or "ci8-tiered"
  uint64_t dram_cache_mb = 0;
  uint64_t init_wall_ns = 0;
  uint64_t init_sim_ns = 0;
  uint64_t traversal_wall_ns = 0;
  uint64_t traversal_sim_ns = 0;
  core::RunCounters counters;  // of the run; zero for RunBatch rows
};

// DRAM top-tier budget of the tiered variant, per unit of dataset scale.
constexpr double kDramTierBytesPerScale = 4.0 * (1ull << 20);

// One run; `tiering` null runs untiered.
HotpathResult RunOne(const DatasetBundle& d, Task task, PersistenceMode mode,
                     uint64_t cache_mb, bool nosum, uint32_t ci,
                     const std::shared_ptr<const nvm::TierConfig>& tiering) {
  NTadocOptions engine_opts;
  engine_opts.persistence = mode;
  engine_opts.enable_summation = !nosum;
  if (cache_mb > 0) {
    engine_opts.shared_cache =
        std::make_shared<core::SharedRuleCache>(cache_mb << 20);
  }
  engine_opts.commit_interval = ci;
  engine_opts.tiering = tiering;
  HotpathResult r;
  r.task = TaskRowName(task);
  r.mode = core::PersistenceModeToString(mode);
  r.variant = nosum ? "nosum"
              : ci > 1 ? "ci" + std::to_string(ci)
                       : "std";
  if (tiering != nullptr) r.variant += "-tiered";
  r.dram_cache_mb = cache_mb;
  core::NTadocRunInfo info;
  const RunResult run = RunNTadoc(d.corpus, task, AnalyticsOptions(),
                                  engine_opts, nvm::OptaneProfile(),
                                  d.device_capacity, &info);
  r.init_wall_ns = run.metrics.init_wall_ns;
  r.traversal_wall_ns = run.metrics.traversal_wall_ns;
  r.init_sim_ns = run.metrics.init_sim_ns;
  r.traversal_sim_ns = run.metrics.traversal_sim_ns;
  r.counters = info;
  return r;
}

// All six tasks through RunBatch on one engine/device: the first task
// pays the full initialization, the rest reuse the sealed DAG prefix and
// the estimator scratch. One HotpathResult per task, variant "batch"
// (plus "-ciK" when group commit is on), so the sim gates track the
// per-task init reduction.
std::vector<HotpathResult> RunBatchRows(const DatasetBundle& d,
                                        PersistenceMode mode, uint32_t ci,
                                        uint32_t repeat) {
  const std::vector<Task> tasks(std::begin(tadoc::kAllTasks),
                                std::end(tadoc::kAllTasks));
  NTadocOptions engine_opts;
  engine_opts.persistence = mode;
  engine_opts.commit_interval = ci;
  std::string variant = "batch";
  if (ci > 1) variant += "-ci" + std::to_string(ci);

  std::vector<HotpathResult> rows(tasks.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    rows[t].task = TaskRowName(tasks[t]);
    rows[t].mode = core::PersistenceModeToString(mode);
    rows[t].variant = variant;
    rows[t].init_wall_ns = ~0ull;
    rows[t].traversal_wall_ns = ~0ull;
  }
  for (uint32_t i = 0; i < repeat; ++i) {
    nvm::DeviceOptions dopts;
    dopts.capacity = d.device_capacity;
    dopts.profile = nvm::OptaneProfile();
    auto device = nvm::NvmDevice::Create(dopts);
    NTADOC_CHECK(device.ok()) << device.status();
    core::NTadocEngine engine(&d.corpus, device->get(), engine_opts);
    std::vector<RunMetrics> metrics;
    auto out = engine.RunBatch(tasks, AnalyticsOptions(), &metrics);
    NTADOC_CHECK(out.ok()) << out.status();
    // The whole point: one full init for the batch, every later task a
    // prefix reuse.
    NTADOC_CHECK_EQ(engine.run_info().batch_init_reuses, tasks.size() - 1);
    for (size_t t = 0; t < tasks.size(); ++t) {
      rows[t].init_wall_ns =
          std::min(rows[t].init_wall_ns, metrics[t].init_wall_ns);
      rows[t].traversal_wall_ns =
          std::min(rows[t].traversal_wall_ns, metrics[t].traversal_wall_ns);
      rows[t].init_sim_ns = metrics[t].init_sim_ns;
      rows[t].traversal_sim_ns = metrics[t].traversal_sim_ns;
    }
  }
  return rows;
}

// ---- traversal kernels ----
//
// The engine's traversal wall time mixes device-access emulation with
// host-side analytics work (hash probing, payload vectors), which dilutes
// the read-path speedup in end-to-end numbers. These kernels time the
// structure-level primitives the traversal phase is built from — bulk
// table scans (Extract/Validate), charged zero-fill (Create), and rule
// payload sweeps — through public APIs, so the same driver source
// measures whichever implementation the tree under test has.

struct BenchKeyHash {
  uint64_t operator()(uint64_t k) const {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    return k;
  }
};

using BenchTable = core::NvmHashTable<uint64_t, uint64_t, BenchKeyHash>;

struct KernelResult {
  std::string name;
  uint64_t iters = 0;
  uint64_t wall_ns = 0;
  uint64_t sim_ns = 0;
};

uint64_t WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<KernelResult> RunKernels(const DatasetBundle& d,
                                     uint32_t repeat) {
  std::vector<KernelResult> out;

  // Table scans: ~131k slots (status + keys + values ≈ 2.1 MB), sized to
  // fit the device buffer so the charge totals are order-independent.
  {
    nvm::DeviceOptions dopts;
    dopts.capacity = 64ull << 20;
    auto device = nvm::NvmDevice::Create(dopts);
    NTADOC_CHECK(device.ok());
    auto pool = nvm::NvmPool::Create(device->get(), 0, dopts.capacity);
    NTADOC_CHECK(pool.ok());
    auto table =
        BenchTable::Create(&*pool, 80000);
    NTADOC_CHECK(table.ok());
    Rng rng(3);
    for (uint64_t i = 0; i < 80000; ++i) {
      NTADOC_CHECK(table->Put(rng.Next(), i).ok());
    }

    KernelResult k{"table_extract", 30ull * repeat};
    std::vector<std::pair<uint64_t, uint64_t>> entries;
    const uint64_t sim0 = (*device)->clock().NowNanos();
    const uint64_t wall0 = WallNowNs();
    uint64_t checksum = 0;
    for (uint64_t i = 0; i < k.iters; ++i) {
      entries.clear();
      table->Extract(&entries);
      NTADOC_CHECK(table->Validate().ok());
      checksum += entries.size();
    }
    k.wall_ns = WallNowNs() - wall0;
    k.sim_ns = (*device)->clock().NowNanos() - sim0;
    NTADOC_CHECK_EQ(checksum, 80000 * k.iters);
    out.push_back(k);

    // Status-byte occupancy scan: the purest per-word-read hot path
    // (one 1-byte device read per slot before this PR, one extent charge
    // with quantum = 1 after it — simulated cost identical by contract).
    KernelResult s{"status_scan", 200ull * repeat};
    const uint64_t ssim0 = (*device)->clock().NowNanos();
    const uint64_t swall0 = WallNowNs();
    uint64_t occupied = 0;
    for (uint64_t i = 0; i < s.iters; ++i) {
      table->RecountSize();
      occupied += table->size();
    }
    s.wall_ns = WallNowNs() - swall0;
    s.sim_ns = (*device)->clock().NowNanos() - ssim0;
    NTADOC_CHECK_EQ(occupied, 80000 * s.iters);
    out.push_back(s);
  }

  // Charged zero-fill of fresh tables (Create's dominant cost). The pool
  // holds 20 tables, so each repetition formats a fresh one off the clock.
  {
    nvm::DeviceOptions dopts;
    dopts.capacity = 128ull << 20;
    auto device = nvm::NvmDevice::Create(dopts);
    NTADOC_CHECK(device.ok());
    KernelResult k{"table_create", 20ull * repeat};
    for (uint32_t rep = 0; rep < repeat; ++rep) {
      auto pool = nvm::NvmPool::Create(device->get(), 0, dopts.capacity);
      NTADOC_CHECK(pool.ok());
      const uint64_t sim0 = (*device)->clock().NowNanos();
      const uint64_t wall0 = WallNowNs();
      for (int i = 0; i < 20; ++i) {
        auto table =
            BenchTable::Create(&*pool, 80000);
        NTADOC_CHECK(table.ok());
      }
      k.wall_ns += WallNowNs() - wall0;
      k.sim_ns += (*device)->clock().NowNanos() - sim0;
    }
    out.push_back(k);
  }

  // Rule payload sweep over the dataset's pruned DAG (the read pattern
  // of every top-down/bottom-up traversal visit).
  {
    nvm::DeviceOptions dopts;
    dopts.capacity = d.device_capacity;
    auto device = nvm::NvmDevice::Create(dopts);
    NTADOC_CHECK(device.ok());
    auto pool =
        nvm::NvmPool::Create(device->get(), 0, dopts.capacity);
    NTADOC_CHECK(pool.ok());
    auto dag = core::BuildPrunedDag(d.corpus.grammar, &*pool,
                                    /*enable_pruning=*/true);
    NTADOC_CHECK(dag.ok());
    KernelResult k{"payload_sweep", 10ull * repeat};
    const uint64_t sim0 = (*device)->clock().NowNanos();
    const uint64_t wall0 = WallNowNs();
    uint64_t checksum = 0;
    for (uint64_t i = 0; i < k.iters; ++i) {
      for (uint32_t r = 1; r < dag->num_rules; ++r) {
        const core::DecodedPayload p = core::ReadRulePayload(*dag, &*pool, r);
        checksum += p.subrules.size() + p.words.size();
      }
    }
    k.wall_ns = WallNowNs() - wall0;
    k.sim_ns = (*device)->clock().NowNanos() - sim0;
    NTADOC_CHECK_GT(checksum, 0u);
    out.push_back(k);
  }

  return out;
}

void EmitRun(RowSink* sink, const std::string& dataset,
             const HotpathResult& r) {
  Row row = sink->Start("run", dataset);
  row.Str("task", r.task)
      .Str("persistence", r.mode)
      .Str("variant", r.variant)
      .Num("dram_cache_mb", r.dram_cache_mb)
      .Num("init_sim_ns", r.init_sim_ns)
      .Num("init_wall_ns", r.init_wall_ns)
      .Num("traversal_sim_ns", r.traversal_sim_ns)
      .Num("traversal_wall_ns", r.traversal_wall_ns);
  r.counters.ForEach(
      [&row](const char* name, uint64_t value) { row.Num(name, value); });
  sink->Emit(row);
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config = ParseArgs(
      argc, argv, kJsonFlag | kRepeatFlag | kDramCacheFlag | kTasksFlag);
  if (config.datasets.empty()) config.datasets = {"C"};
  const bool all_tasks = config.tasks.empty();
  if (all_tasks) {
    config.tasks.assign(tadoc::kAllTasks.begin(), tadoc::kAllTasks.end());
  }
  const uint64_t cache_mb = config.dram_cache_mb;
  const uint32_t repeat = config.repeat;

  const auto datasets = LoadDatasets(config);
  RowSink sink("hotpath", config);

  auto tier_config = std::make_shared<nvm::TierConfig>();
  tier_config->tiers = {
      {nvm::MediumKind::kDram,
       static_cast<uint64_t>(kDramTierBytesPerScale * config.scale)}};
  tier_config->unit_bytes = 16 * 1024;
  tier_config->migrate = true;
  const std::shared_ptr<const nvm::TierConfig> tiering =
      std::move(tier_config);

  for (const auto& d : datasets) {
    constexpr PersistenceMode kModes[] = {
        PersistenceMode::kNone, PersistenceMode::kPhase,
        PersistenceMode::kOperation};
    for (Task task : config.tasks) {
      for (PersistenceMode mode : kModes) {
        struct Variant {
          uint64_t budget = 0;
          bool nosum = false;
          uint32_t ci = 1;
          bool tiered = false;
        };
        std::vector<Variant> variants = {{}};
        if (mode == PersistenceMode::kNone) {
          // Ablations on the cheap mode: decoded-rule cache on, and the
          // grow-and-rebuild (no-summation) traversal whose table
          // rebuilds stress the bulk-scan path hardest.
          if (cache_mb > 0) variants.push_back({cache_mb, false, 1});
          variants.push_back({0, true, 1});
        }
        if (mode == PersistenceMode::kOperation) {
          // Epoch group commit: 8 steps per durable epoch, untiered and
          // on DRAM+NVM tiers.
          variants.push_back({0, false, 8});
          variants.push_back({0, false, 8, true});
        }
        // Repetitions take turns across the variants, so a burst of host
        // noise hits every variant of the task instead of one (the wall
        // gates compare variants of one run). Simulated times are
        // deterministic; wall times keep the minimum.
        std::vector<HotpathResult> rows;
        for (uint32_t rep = 0; rep < repeat; ++rep) {
          for (size_t v = 0; v < variants.size(); ++v) {
            const auto& [budget, nosum, ci, tiered] = variants[v];
            const HotpathResult r = RunOne(d, task, mode, budget, nosum, ci,
                                           tiered ? tiering : nullptr);
            if (rep == 0) {
              rows.push_back(r);
              continue;
            }
            rows[v].init_wall_ns =
                std::min(rows[v].init_wall_ns, r.init_wall_ns);
            rows[v].traversal_wall_ns =
                std::min(rows[v].traversal_wall_ns, r.traversal_wall_ns);
          }
        }
        for (const HotpathResult& r : rows) EmitRun(&sink, d.spec.name, r);
      }
    }

    if (!all_tasks) continue;
    struct BatchConfigRow {
      PersistenceMode mode;
      uint32_t ci;
    };
    const BatchConfigRow batch_modes[] = {
        {PersistenceMode::kNone, 1},
        {PersistenceMode::kPhase, 1},
        {PersistenceMode::kOperation, 8}};
    for (const auto& [mode, ci] : batch_modes) {
      for (const HotpathResult& r : RunBatchRows(d, mode, ci, repeat)) {
        EmitRun(&sink, d.spec.name, r);
      }
    }
  }

  if (all_tasks && !datasets.empty()) {
    for (const KernelResult& k : RunKernels(datasets[0], repeat)) {
      sink.Emit(sink.Start("kernel", datasets[0].spec.name)
                    .Str("kernel", k.name)
                    .Num("iters", k.iters)
                    .Num("sim_ns", k.sim_ns)
                    .Num("wall_ns", k.wall_ns));
    }
  }
  return sink.Finish();
}
