// Reproduces Section VI-E: top-down vs bottom-up traversal on the
// many-small-files dataset B. Paper: top-down is ~1000x slower than
// bottom-up there on 134,631 files, because it re-traverses the DAG once
// per file; the slowdown scales with the file count.
//
// Result rows (bench_common.h's row format, bench "traversal_opt"):
//   cell     task; bottom_up_sim_ns, bottom_up_wall_ns, top_down_sim_ns,
//            top_down_wall_ns
//   summary  files; sim_x and wall_x, the geometric mean over the tasks
//            of top-down over bottom-up on each clock, and paper_x

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace ntadoc;
  using namespace ntadoc::bench;
  BenchConfig config = ParseArgs(argc, argv);
  if (config.datasets.empty()) config.datasets = {"B"};
  const auto datasets = LoadDatasets(config);
  const auto profile = nvm::OptaneProfile();
  const AnalyticsOptions opts;
  RowSink sink("traversal_opt", config);

  for (const auto& d : datasets) {
    ClockRatios slowdowns;
    for (Task task :
         {Task::kTermVector, Task::kInvertedIndex,
          Task::kRankedInvertedIndex}) {
      NTadocOptions bu;
      bu.traversal = TraversalStrategy::kBottomUp;
      const RunResult bottom = RunNTadoc(d.corpus, task, opts, bu, profile,
                                         d.device_capacity);
      NTadocOptions td;
      td.traversal = TraversalStrategy::kTopDown;
      const RunResult top = RunNTadoc(d.corpus, task, opts, td, profile,
                                      d.device_capacity);
      slowdowns.Add(top.metrics, bottom.metrics);
      sink.Emit(sink.Start("cell", d.spec.name)
                    .Str("task", TaskRowName(task))
                    .Clocks("bottom_up", bottom.metrics)
                    .Clocks("top_down", top.metrics));
    }
    sink.Emit(sink.Start("summary", d.spec.name)
                  .Num("files", d.corpus.num_files())
                  .Ratios(slowdowns)
                  .Real("paper_x", 1000, 0));
  }
  return sink.Finish();
}
