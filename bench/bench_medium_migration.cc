// Section VI-F vision: migrating N-TADOC to other NVM architectures.
// Runs the full task suite on ReRAM-like and PCM-like profiles and
// compares against the Optane-like baseline medium. PCM's steeper write
// penalty shows as a consistent slowdown; ReRAM's finer granularity
// helps the random-access-heavy tasks (sequence count) most.
//
// Result rows (bench_common.h's row format, bench "medium_migration"):
//   cell     task; optane_sim_ns, optane_wall_ns, reram_sim_ns,
//            reram_wall_ns, pcm_sim_ns, pcm_wall_ns
//   summary  medium (reram or pcm); sim_x and wall_x, the geometric mean
//            over the tasks of Optane over that medium on each clock
//            (above 1: the medium is faster)

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace ntadoc;
  using namespace ntadoc::bench;
  BenchConfig config = ParseArgs(argc, argv);
  if (config.datasets.empty()) config.datasets = {"C"};
  const auto datasets = LoadDatasets(config);
  const AnalyticsOptions opts;
  RowSink sink("medium_migration", config);

  for (const auto& d : datasets) {
    ClockRatios over_reram;
    ClockRatios over_pcm;
    for (Task task : tadoc::kAllTasks) {
      NTadocOptions nopts;
      const RunResult optane = RunNTadoc(d.corpus, task, opts, nopts,
                                         nvm::OptaneProfile(),
                                         d.device_capacity);
      const RunResult reram = RunNTadoc(d.corpus, task, opts, nopts,
                                        nvm::ReRamProfile(),
                                        d.device_capacity);
      const RunResult pcm = RunNTadoc(d.corpus, task, opts, nopts,
                                      nvm::PcmProfile(), d.device_capacity);
      over_reram.Add(optane.metrics, reram.metrics);
      over_pcm.Add(optane.metrics, pcm.metrics);
      sink.Emit(sink.Start("cell", d.spec.name)
                    .Str("task", TaskRowName(task))
                    .Clocks("optane", optane.metrics)
                    .Clocks("reram", reram.metrics)
                    .Clocks("pcm", pcm.metrics));
    }
    sink.Emit(sink.Start("summary", d.spec.name)
                  .Str("medium", "reram")
                  .Ratios(over_reram));
    sink.Emit(sink.Start("summary", d.spec.name)
                  .Str("medium", "pcm")
                  .Ratios(over_pcm));
  }
  return sink.Finish();
}
