// Tiered placement: the capacity/latency curve the placement layer buys.
//
// Three experiments per dataset (grown from bench_medium_migration's
// medium-comparison harness):
//   1. Budget sweep — DRAM tier over the Optane home medium at 10/25/
//      40/100% of the pool-resident bytes, against the untiered all-NVM
//      run. Shows how much top-tier capacity buys how much latency; the
//      40% row is the headline: most of the all-DRAM win at well under
//      half the top-tier capacity, because placement follows heat, not
//      size.
//   2. DRAM+SSD vs all-SSD — an uncapped DRAM tier over an SSD home
//      with a tight page cache (capacity pressure is the scenario
//      tiering exists for).
//   3. Migration on/off — repeated runs of a skewed mix on one engine
//      with an SSD home: online promotion pulls the hot payload into
//      DRAM, the frozen-placement control keeps paying SSD reads.
//
// Result rows (bench_common.h's row format, bench "tiering"), each with
// its own same-run baseline, so tools/check_bench.sh gates the committed
// BENCH_pr10.json without re-running the bench:
//   curve      task, budget_pct, tiered_sim_ns, allnvm_sim_ns,
//              top_resident_bytes, total_resident_bytes, promotions,
//              demotions
//   ssd        task, tiered_sim_ns, allssd_sim_ns
//   migration  runs, on_sim_ns, off_sim_ns, promotions
//
// Extra flag on top of the shared ones (see bench_common.h):
//   --json=PATH   also write the result rows to PATH

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "nvm/nvm_device.h"
#include "nvm/tiered_pool.h"
#include "util/logging.h"

namespace ntadoc::bench {
namespace {

// The two traversal-heavy tasks the curve is about; the full-suite
// shapes are the paper benches' job (bench_fig5_speedup,
// bench_fig6_dram_gap, bench_fig7_ssd_hdd).
constexpr Task kCurveTasks[] = {Task::kWordCount, Task::kSequenceCount};

const char* TaskToken(Task task) {
  return task == Task::kWordCount ? "word_count" : "sequence_count";
}

// Migration-visible granularity at bench scales: 16 KiB units so even
// the 0.05-scale gate run has enough units to place. The sweep paces
// ticks at the default interval (mid budgets thrash when every tick
// may re-rank a decayed hot set); the migration experiment shortens it
// to promote within run 1.
std::shared_ptr<const nvm::TierConfig> MakeTiering(
    std::vector<nvm::TierSpec> tiers, bool migrate = true,
    uint32_t migrate_interval = 256) {
  nvm::TierConfig cfg;
  cfg.tiers = std::move(tiers);
  cfg.unit_bytes = 16 * 1024;
  cfg.migrate_interval = migrate_interval;
  cfg.migrate = migrate;
  return std::make_shared<const nvm::TierConfig>(std::move(cfg));
}

uint64_t TotalResident(const core::NTadocRunInfo& info) {
  uint64_t total = 0;
  for (uint64_t b : info.tier_resident_bytes) total += b;
  return total;
}

// Repeated runs of one task on ONE engine: placement and heat persist
// across runs (the session owns the TieredPool), so run 2+ starts from
// run 1's promoted layout. Counters in NTadocRunInfo are per-run
// deltas; sum them.
struct RepeatResult {
  uint64_t sim_ns = 0;
  uint64_t promotions = 0;
};

RepeatResult RunRepeated(const CompressedCorpus& corpus, Task task,
                         const AnalyticsOptions& opts,
                         const NTadocOptions& engine_opts,
                         const nvm::DeviceProfile& profile,
                         uint64_t device_capacity, int runs) {
  nvm::DeviceOptions dopts;
  dopts.capacity = device_capacity;
  dopts.profile = profile;
  auto device = nvm::NvmDevice::Create(dopts);
  NTADOC_CHECK(device.ok()) << device.status();
  core::NTadocEngine engine(&corpus, device->get(), engine_opts);
  RepeatResult out;
  for (int r = 0; r < runs; ++r) {
    RunMetrics metrics;
    auto got = engine.Run(task, opts, &metrics);
    NTADOC_CHECK(got.ok()) << got.status();
    out.sim_ns += metrics.TotalSimNs();
    out.promotions += engine.run_info().promotions;
  }
  return out;
}

int Main(int argc, char** argv) {
  BenchConfig config = ParseArgs(argc, argv, kJsonFlag);
  if (config.datasets.empty()) config.datasets = {"C"};
  const auto datasets = LoadDatasets(config);
  const AnalyticsOptions opts;
  constexpr int kBudgetPcts[] = {10, 25, 40, 100};
  constexpr int kMigRuns = 3;
  RowSink sink("tiering", config);

  for (const auto& d : datasets) {
    // ---- 1. budget sweep over the Optane home ----
    uint64_t total_resident = 0;  // of the sweep's last run
    for (Task task : kCurveTasks) {
      NTadocOptions base;
      base.persistence = PersistenceMode::kPhase;
      const RunResult allnvm = RunNTadoc(d.corpus, task, opts, base,
                                         nvm::OptaneProfile(),
                                         d.device_capacity);
      // Probe run with an uncapped DRAM tier learns how many bytes the
      // task registers; the sweep budgets are percentages of that.
      NTadocOptions probe_opts = base;
      probe_opts.tiering =
          MakeTiering({{nvm::MediumKind::kDram, 0}});
      core::NTadocRunInfo probe_info;
      RunNTadoc(d.corpus, task, opts, probe_opts, nvm::OptaneProfile(),
                TieredDeviceCapacity(d.device_capacity,
                                     *probe_opts.tiering),
                &probe_info);
      const uint64_t total = TotalResident(probe_info);
      for (int pct : kBudgetPcts) {
        const uint64_t budget = pct == 100 ? 0 : total * pct / 100;
        NTadocOptions nopts = base;
        nopts.tiering =
            MakeTiering({{nvm::MediumKind::kDram, budget}});
        core::NTadocRunInfo info;
        const RunResult tiered =
            RunNTadoc(d.corpus, task, opts, nopts, nvm::OptaneProfile(),
                      TieredDeviceCapacity(d.device_capacity,
                                           *nopts.tiering),
                      &info);
        total_resident = TotalResident(info);
        sink.Emit(sink.Start("curve", d.spec.name)
                      .Str("task", TaskToken(task))
                      .Num("budget_pct", pct)
                      .Num("tiered_sim_ns", tiered.metrics.TotalSimNs())
                      .Num("allnvm_sim_ns", allnvm.metrics.TotalSimNs())
                      .Num("top_resident_bytes", info.tier_resident_bytes[0])
                      .Num("total_resident_bytes", total_resident)
                      .Num("promotions", info.promotions)
                      .Num("demotions", info.demotions));
      }
    }

    // ---- 2. DRAM tier over an SSD home vs all-SSD ----
    // Tight page cache: capacity pressure is the scenario the placement
    // layer exists for (fig7's generous cache would hide it).
    const auto ssd_profile = nvm::SsdProfile(256 * 1024);
    for (Task task : kCurveTasks) {
      NTadocOptions base;
      base.persistence = PersistenceMode::kPhase;
      const RunResult allssd = RunNTadoc(d.corpus, task, opts, base,
                                         ssd_profile, d.device_capacity);
      NTadocOptions nopts = base;
      nopts.tiering = MakeTiering({{nvm::MediumKind::kDram, 0}});
      const RunResult tiered =
          RunNTadoc(d.corpus, task, opts, nopts, ssd_profile,
                    TieredDeviceCapacity(d.device_capacity,
                                         *nopts.tiering));
      sink.Emit(sink.Start("ssd", d.spec.name)
                    .Str("task", TaskToken(task))
                    .Num("tiered_sim_ns", tiered.metrics.TotalSimNs())
                    .Num("allssd_sim_ns", allssd.metrics.TotalSimNs()));
    }

    // ---- 3. online migration vs frozen placement ----
    // Skewed mix: the same task re-run on one engine. With migration
    // on, run 1's heat promotes the hot payload into the DRAM budget
    // and runs 2+ pay DRAM; frozen placement keeps paying SSD.
    {
      NTadocOptions on;
      on.persistence = PersistenceMode::kPhase;
      NTadocOptions off = on;
      // Budget sized from the sweep's probe: enough for the hot set.
      const uint64_t budget =
          total_resident > 0 ? total_resident * 40 / 100 : 1ull << 20;
      on.tiering =
          MakeTiering({{nvm::MediumKind::kDram, budget}}, true, 64);
      off.tiering =
          MakeTiering({{nvm::MediumKind::kDram, budget}}, false, 64);
      const uint64_t cap =
          TieredDeviceCapacity(d.device_capacity, *on.tiering);
      const RepeatResult mig_on =
          RunRepeated(d.corpus, Task::kWordCount, opts, on, ssd_profile,
                      cap, kMigRuns);
      const RepeatResult mig_off =
          RunRepeated(d.corpus, Task::kWordCount, opts, off, ssd_profile,
                      cap, kMigRuns);
      sink.Emit(sink.Start("migration", d.spec.name)
                    .Num("runs", kMigRuns)
                    .Num("on_sim_ns", mig_on.sim_ns)
                    .Num("off_sim_ns", mig_off.sim_ns)
                    .Num("promotions", mig_on.promotions));
    }
  }
  return sink.Finish();
}

}  // namespace
}  // namespace ntadoc::bench

int main(int argc, char** argv) {
  return ntadoc::bench::Main(argc, argv);
}
