// Hot-path microbenchmark for the zero-copy extent read + batched cost
// charging work: every task x persistence mode, reporting host wall time
// and simulated device time separately for each phase. The simulated
// times are deterministic and double as the regression baseline checked
// by tools/check_bench.sh; the wall times are the optimization target.
//
// Extra flags on top of the shared ones (see bench_common.h):
//   --json=PATH          also emit machine-readable results as JSON
//   --dram-cache-mb=N    decoded-rule cache budget for the cache runs
//                        (default 8; 0 skips the cache runs)
//   --repeat=N           repetitions per configuration; wall times keep
//                        the minimum (least-noise) run (default 1)
//
// Lines starting with "SIM " are a stable plain-text record of the
// simulated times (task, mode, variant, cache MB, init ns, traversal
// ns) for drift checking without a JSON parser.
//
// Compiled with -DNTADOC_HOTPATH_COMPAT the cache runs and rule-cache
// counters are stubbed out so the same source builds against trees that
// predate NTadocOptions::dram_cache_bytes (used to benchmark the pre-PR
// binary with the identical driver).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/nvm_hash_table.h"
#include "core/pruning.h"
#include "nvm/nvm_pool.h"
#include "util/logging.h"
#include "util/random.h"

namespace {

using namespace ntadoc;
using namespace ntadoc::bench;

struct HotpathResult {
  std::string task;
  std::string mode;
  std::string variant;  // "std" or "nosum" (grow-and-rebuild ablation)
  uint64_t dram_cache_mb = 0;
  uint64_t init_wall_ns = 0;
  uint64_t init_sim_ns = 0;
  uint64_t traversal_wall_ns = 0;
  uint64_t traversal_sim_ns = 0;
  uint64_t rule_cache_hits = 0;
  uint64_t rule_cache_misses = 0;
};

std::string SanitizeTask(const char* name) {
  std::string s(name);
  std::replace(s.begin(), s.end(), ' ', '_');
  return s;
}

HotpathResult RunOne(const DatasetBundle& d, Task task, PersistenceMode mode,
                     uint64_t cache_mb, bool nosum, uint32_t ci,
                     int repeat) {
  NTadocOptions engine_opts;
  engine_opts.persistence = mode;
  engine_opts.enable_summation = !nosum;
#ifndef NTADOC_HOTPATH_COMPAT
  engine_opts.dram_cache_bytes = cache_mb << 20;
  engine_opts.commit_interval = ci;
#endif
  HotpathResult r;
  r.task = SanitizeTask(tadoc::TaskToString(task));
  r.mode = core::PersistenceModeToString(mode);
  r.variant = nosum ? "nosum"
              : ci > 1 ? "ci" + std::to_string(ci)
                       : "std";
  r.dram_cache_mb = cache_mb;
  r.init_wall_ns = ~0ull;
  r.traversal_wall_ns = ~0ull;
  for (int i = 0; i < repeat; ++i) {
    core::NTadocRunInfo info;
    const RunResult run = RunNTadoc(d.corpus, task, AnalyticsOptions(),
                                    engine_opts, nvm::OptaneProfile(),
                                    d.device_capacity, &info);
    // Simulated times are deterministic; wall times keep the minimum.
    r.init_wall_ns = std::min(r.init_wall_ns, run.metrics.init_wall_ns);
    r.traversal_wall_ns =
        std::min(r.traversal_wall_ns, run.metrics.traversal_wall_ns);
    r.init_sim_ns = run.metrics.init_sim_ns;
    r.traversal_sim_ns = run.metrics.traversal_sim_ns;
#ifndef NTADOC_HOTPATH_COMPAT
    r.rule_cache_hits = info.rule_cache_hits;
    r.rule_cache_misses = info.rule_cache_misses;
#endif
  }
  return r;
}

#ifndef NTADOC_HOTPATH_COMPAT
// All six tasks through RunBatch on one engine/device: the first task
// pays the full initialization, the rest reuse the sealed DAG prefix and
// the estimator scratch. One HotpathResult per task, variant "batch"
// (plus "-ciK" when group commit is on), so the SIM gate tracks the
// per-task init reduction.
std::vector<HotpathResult> RunBatchRows(const DatasetBundle& d,
                                        PersistenceMode mode, uint32_t ci,
                                        int repeat) {
  const std::vector<Task> tasks(std::begin(tadoc::kAllTasks),
                                std::end(tadoc::kAllTasks));
  NTadocOptions engine_opts;
  engine_opts.persistence = mode;
  engine_opts.commit_interval = ci;
  std::string variant = "batch";
  if (ci > 1) variant += "-ci" + std::to_string(ci);

  std::vector<HotpathResult> rows(tasks.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    rows[t].task = SanitizeTask(tadoc::TaskToString(tasks[t]));
    rows[t].mode = core::PersistenceModeToString(mode);
    rows[t].variant = variant;
    rows[t].init_wall_ns = ~0ull;
    rows[t].traversal_wall_ns = ~0ull;
  }
  for (int i = 0; i < repeat; ++i) {
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
#endif

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

std::vector<KernelResult> RunKernels(const DatasetBundle& d, int repeat) {
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
    for (int rep = 0; rep < repeat; ++rep) {
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

void EmitJson(const std::string& path, const std::string& dataset,
              double scale, const std::vector<HotpathResult>& results,
              const std::vector<KernelResult>& kernels) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"dataset\": \"%s\",\n  \"scale\": %g,\n",
               dataset.c_str(), scale);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const HotpathResult& r = results[i];
    std::fprintf(
        f,
        "    {\"task\": \"%s\", \"persistence\": \"%s\", "
        "\"variant\": \"%s\", \"dram_cache_mb\": %llu, "
        "\"init_wall_ns\": %llu, \"init_sim_ns\": %llu, "
        "\"traversal_wall_ns\": %llu, \"traversal_sim_ns\": %llu, "
        "\"rule_cache_hits\": %llu, \"rule_cache_misses\": %llu}%s\n",
        r.task.c_str(), r.mode.c_str(), r.variant.c_str(),
        static_cast<unsigned long long>(r.dram_cache_mb),
        static_cast<unsigned long long>(r.init_wall_ns),
        static_cast<unsigned long long>(r.init_sim_ns),
        static_cast<unsigned long long>(r.traversal_wall_ns),
        static_cast<unsigned long long>(r.traversal_sim_ns),
        static_cast<unsigned long long>(r.rule_cache_hits),
        static_cast<unsigned long long>(r.rule_cache_misses),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"kernels\": [\n");
  for (size_t i = 0; i < kernels.size(); ++i) {
    const KernelResult& k = kernels[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"iters\": %llu, "
                 "\"wall_ns\": %llu, \"sim_ns\": %llu}%s\n",
                 k.name.c_str(), static_cast<unsigned long long>(k.iters),
                 static_cast<unsigned long long>(k.wall_ns),
                 static_cast<unsigned long long>(k.sim_ns),
                 i + 1 < kernels.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nJSON written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config = ParseArgs(argc, argv);
  if (config.datasets.empty()) config.datasets = {"C"};

  std::string json_path;
  uint64_t cache_mb = 8;
  int repeat = 1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--json=", 7) == 0) json_path = a + 7;
    if (std::strncmp(a, "--dram-cache-mb=", 16) == 0) {
      cache_mb = std::strtoull(a + 16, nullptr, 10);
    }
    if (std::strncmp(a, "--repeat=", 9) == 0) {
      repeat = std::max(1, std::atoi(a + 9));
    }
  }
#ifdef NTADOC_HOTPATH_COMPAT
  cache_mb = 0;  // pre-PR trees have no decoded-rule cache
#endif

  const auto datasets = LoadDatasets(config);
  std::vector<HotpathResult> results;

  for (const auto& d : datasets) {
    PrintTitle("Traversal hot path on dataset " + d.spec.name,
               "zero-copy extent reads + batched charging");
    PrintRow({"Task", "Mode", "Variant", "Cache", "InitWall", "InitSim",
              "TravWall", "TravSim", "Hits"});
    constexpr PersistenceMode kModes[] = {
        PersistenceMode::kNone, PersistenceMode::kPhase,
        PersistenceMode::kOperation};
    for (Task task : tadoc::kAllTasks) {
      for (PersistenceMode mode : kModes) {
        struct Variant {
          uint64_t budget = 0;
          bool nosum = false;
          uint32_t ci = 1;
        };
        std::vector<Variant> variants = {{}};
        if (mode == PersistenceMode::kNone) {
          // Ablations on the cheap mode: decoded-rule cache on, and the
          // grow-and-rebuild (no-summation) traversal whose table
          // rebuilds stress the bulk-scan path hardest.
          if (cache_mb > 0) variants.push_back({cache_mb, false, 1});
          variants.push_back({0, true, 1});
        }
#ifndef NTADOC_HOTPATH_COMPAT
        if (mode == PersistenceMode::kOperation) {
          // Epoch group commit: 8 steps per durable epoch.
          variants.push_back({0, false, 8});
        }
#endif
        for (const auto& [budget, nosum, ci] : variants) {
          const HotpathResult r = RunOne(d, task, mode, budget, nosum, ci,
                                         repeat);
          PrintRow({r.task, r.mode, r.variant,
                    std::to_string(budget) + "MB", Secs(r.init_wall_ns),
                    Secs(r.init_sim_ns), Secs(r.traversal_wall_ns),
                    Secs(r.traversal_sim_ns),
                    std::to_string(r.rule_cache_hits)});
          results.push_back(r);
        }
      }
    }

#ifndef NTADOC_HOTPATH_COMPAT
    PrintTitle("RunBatch on dataset " + d.spec.name,
               "six tasks sharing one initialization");
    PrintRow({"Task", "Mode", "Variant", "InitWall", "InitSim", "TravWall",
              "TravSim"});
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
        PrintRow({r.task, r.mode, r.variant, Secs(r.init_wall_ns),
                  Secs(r.init_sim_ns), Secs(r.traversal_wall_ns),
                  Secs(r.traversal_sim_ns)});
        results.push_back(r);
      }
    }
#endif
  }

  std::vector<KernelResult> kernels;
  if (!datasets.empty()) {
    kernels = RunKernels(datasets[0], repeat);
    std::printf("\nTraversal kernels (structure-level hot path):\n");
    PrintRow({"Kernel", "Iters", "Wall", "Sim"});
    for (const KernelResult& k : kernels) {
      PrintRow({k.name, std::to_string(k.iters), Secs(k.wall_ns),
                Secs(k.sim_ns)});
    }
  }

  std::printf("\n");
  for (const HotpathResult& r : results) {
    std::printf("SIM %s %s %s %llu %llu %llu\n", r.task.c_str(),
                r.mode.c_str(), r.variant.c_str(),
                static_cast<unsigned long long>(r.dram_cache_mb),
                static_cast<unsigned long long>(r.init_sim_ns),
                static_cast<unsigned long long>(r.traversal_sim_ns));
  }

  for (const KernelResult& k : kernels) {
    std::printf("SIMK %s %llu\n", k.name.c_str(),
                static_cast<unsigned long long>(k.sim_ns));
  }

  if (!json_path.empty() && !datasets.empty()) {
    EmitJson(json_path, datasets[0].spec.name, config.scale, results,
             kernels);
  }
  return 0;
}
