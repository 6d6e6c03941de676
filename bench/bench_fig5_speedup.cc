// Reproduces Figure 5: N-TADOC speedup over uncompressed text analytics
// on NVM, for (a) phase-level and (b) operation-level persistence.
// Paper headline: 2.04x (phase) and 1.40x (operation) on average.
//
// Result rows (bench_common.h's row format, bench "fig5"):
//   cell     persistence, task; baseline_sim_ns, baseline_wall_ns,
//            ntadoc_sim_ns, ntadoc_wall_ns (whole runs)
//   summary  persistence; sim_x and wall_x, the geometric mean over the
//            cells of baseline over N-TADOC on each clock, and paper_x
// tools/bench_gates.sh's gate_fig5 holds the phase-level sim_x above the
// operation-level one. Per cell it does not hold: on A, C and D the
// per-file tasks run top-down, whose steps are not durable, so their
// operation-level speedup is the higher one.

#include <utility>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace ntadoc;
  using namespace ntadoc::bench;
  const BenchConfig config = ParseArgs(argc, argv);
  const auto datasets = LoadDatasets(config);
  const auto profile = nvm::OptaneProfile();
  const AnalyticsOptions opts;
  RowSink sink("fig5", config);

  for (const auto& [mode, paper_x] :
       {std::pair{PersistenceMode::kPhase, 2.04},
        std::pair{PersistenceMode::kOperation, 1.40}}) {
    const char* persistence = core::PersistenceModeToString(mode);
    ClockRatios speedups;
    for (Task task : tadoc::kAllTasks) {
      for (const auto& d : datasets) {
        const RunResult base =
            RunBaseline(d.corpus, task, opts, profile, d.device_capacity);
        NTadocOptions nopts;
        nopts.persistence = mode;
        const RunResult nt = RunNTadoc(d.corpus, task, opts, nopts, profile,
                                       d.device_capacity);
        speedups.Add(base.metrics, nt.metrics);
        sink.Emit(sink.Start("cell", d.spec.name)
                      .Str("persistence", persistence)
                      .Str("task", TaskRowName(task))
                      .Clocks("baseline", base.metrics)
                      .Clocks("ntadoc", nt.metrics));
      }
    }
    sink.Emit(sink.Start("summary", DatasetNames(datasets))
                  .Str("persistence", persistence)
                  .Ratios(speedups)
                  .Real("paper_x", paper_x, 2));
  }
  return sink.Finish();
}
