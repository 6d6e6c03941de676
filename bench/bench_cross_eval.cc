// Reproduces the cross-evaluation numbers:
//  * Section III-B: naively porting TADOC to NVM (allocator pointed at
//    NVM, algorithms unchanged) costs ~13.37x vs TADOC on DRAM;
//  * Section VI-F: N-TADOC is ~5x faster than that naive TADOC-on-NVM.
//
// Result rows (bench_common.h's row format, bench "cross_eval"):
//   cell     task; dram_sim_ns, dram_wall_ns (TADOC on DRAM),
//            naive_sim_ns, naive_wall_ns (the naive NVM port),
//            ntadoc_sim_ns, ntadoc_wall_ns
//   summary  ratio (naive_over_dram or naive_over_ntadoc); sim_x and
//            wall_x, the geometric mean over the cells on each clock,
//            and paper_x

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace ntadoc;
  using namespace ntadoc::bench;
  const BenchConfig config = ParseArgs(argc, argv);
  const auto datasets = LoadDatasets(config);
  const AnalyticsOptions opts;
  RowSink sink("cross_eval", config);

  ClockRatios overheads;
  ClockRatios speedups;
  for (const auto& d : datasets) {
    for (Task task : tadoc::kAllTasks) {
      const RunResult dram = RunTadocDram(d.corpus, task, opts);
      const RunResult naive = RunNaiveNvmTadoc(d.corpus, task, opts);
      NTadocOptions nopts;
      const RunResult nt = RunNTadoc(d.corpus, task, opts, nopts,
                                     nvm::OptaneProfile(),
                                     d.device_capacity);
      overheads.Add(naive.metrics, dram.metrics);
      speedups.Add(naive.metrics, nt.metrics);
      sink.Emit(sink.Start("cell", d.spec.name)
                    .Str("task", TaskRowName(task))
                    .Clocks("dram", dram.metrics)
                    .Clocks("naive", naive.metrics)
                    .Clocks("ntadoc", nt.metrics));
    }
  }
  const std::string names = DatasetNames(datasets);
  sink.Emit(sink.Start("summary", names)
                .Str("ratio", "naive_over_dram")
                .Ratios(overheads)
                .Real("paper_x", 13.37, 2));
  sink.Emit(sink.Start("summary", names)
                .Str("ratio", "naive_over_ntadoc")
                .Ratios(speedups)
                .Real("paper_x", 5, 2));
  return sink.Finish();
}
