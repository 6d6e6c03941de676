// Reproduces Section VI-C: DRAM space savings of N-TADOC vs TADOC.
// Paper headline: 70.7% average saving (A 65.6%, B 70.7%, C 72.2%,
// D 74.3%; word count highest at 79.8%, sequence count lowest at 60.7%).
//
// TADOC's DRAM footprint = the compressed corpus held resident in host
// memory + its tracked analytics intermediates. N-TADOC keeps the DAG and
// all counters in the NVM pool; its DRAM cost is only the transient
// tracked host scratch.
//
// Result rows (bench_common.h's row format, bench "dram_savings"):
//   cell     task; tadoc_bytes (resident corpus + tracked peak),
//            ntadoc_bytes (resident dictionary + tracked peak),
//            saving_pct
//   summary  saving_pct, the mean over the cells, and paper_pct

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace ntadoc;
  using namespace ntadoc::bench;
  const BenchConfig config = ParseArgs(argc, argv);
  const auto datasets = LoadDatasets(config);
  const AnalyticsOptions opts;
  RowSink sink("dram_savings", config);

  double saving_sum = 0;
  int cells = 0;
  for (Task task : tadoc::kAllTasks) {
    for (const auto& d : datasets) {
      const RunResult dram_run = RunTadocDram(d.corpus, task, opts);
      NTadocOptions nopts;
      const RunResult ntadoc_run =
          RunNTadoc(d.corpus, task, opts, nopts, nvm::OptaneProfile(),
                    d.device_capacity);
      const uint64_t tadoc_bytes =
          CorpusDramBytes(d.corpus) + dram_run.dram_peak_bytes;
      const uint64_t ntadoc_bytes =
          ntadoc_run.dram_peak_bytes + DictDramBytes(d.corpus);
      const double saving =
          100.0 * (1.0 - static_cast<double>(ntadoc_bytes) /
                             static_cast<double>(tadoc_bytes));
      saving_sum += saving;
      ++cells;
      sink.Emit(sink.Start("cell", d.spec.name)
                    .Str("task", TaskRowName(task))
                    .Num("tadoc_bytes", tadoc_bytes)
                    .Num("ntadoc_bytes", ntadoc_bytes)
                    .Real("saving_pct", saving, 1));
    }
  }
  sink.Emit(sink.Start("summary", DatasetNames(datasets))
                .Real("saving_pct", saving_sum / cells, 1)
                .Real("paper_pct", 70.7, 1));
  return sink.Finish();
}
