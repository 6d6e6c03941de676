// Reproduces Figure 6: N-TADOC's discrepancy to the efficiency upper
// bound (classic TADOC on pure DRAM). Paper headline: N-TADOC is 1.59x
// slower on average; worst for word count (2.26x); gap shrinks as the
// dataset grows.
//
// Result rows (bench_common.h's row format, bench "fig6"):
//   cell     task; dram_sim_ns, ntadoc_sim_ns, dram_wall_ns,
//            ntadoc_wall_ns (whole runs, phase-level N-TADOC)
//   summary  sim_x and wall_x, the geometric mean over the cells of
//            N-TADOC over DRAM TADOC on each clock, and paper_x
// tools/bench_gates.sh's gate_fig6 holds the figure's claim on the sim
// clock alone: DRAM TADOC's sim below N-TADOC's in every cell.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace ntadoc;
  using namespace ntadoc::bench;
  const BenchConfig config = ParseArgs(argc, argv, kJsonFlag);
  RowSink sink("fig6", config);
  const auto datasets = LoadDatasets(config);
  const auto profile = nvm::OptaneProfile();
  const AnalyticsOptions opts;

  ClockRatios slowdowns;
  for (Task task : tadoc::kAllTasks) {
    for (const auto& d : datasets) {
      const RunResult dram = RunTadocDram(d.corpus, task, opts);
      NTadocOptions nopts;
      nopts.persistence = PersistenceMode::kPhase;
      const RunResult nt = RunNTadoc(d.corpus, task, opts, nopts, profile,
                                     d.device_capacity);
      slowdowns.Add(nt.metrics, dram.metrics);
      sink.Emit(sink.Start("cell", d.spec.name)
                    .Str("task", TaskRowName(task))
                    .Num("dram_sim_ns", dram.metrics.TotalSimNs())
                    .Num("ntadoc_sim_ns", nt.metrics.TotalSimNs())
                    .Num("dram_wall_ns", dram.metrics.TotalWallNs())
                    .Num("ntadoc_wall_ns", nt.metrics.TotalWallNs()));
    }
  }
  sink.Emit(sink.Start("summary", DatasetNames(datasets))
                .Ratios(slowdowns)
                .Real("paper_x", 1.59, 2));
  return sink.Finish();
}
