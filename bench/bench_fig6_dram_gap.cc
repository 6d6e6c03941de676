// Reproduces Figure 6: N-TADOC's discrepancy to the efficiency upper
// bound (classic TADOC on pure DRAM). Paper headline: N-TADOC is 1.59x
// slower on average; worst for word count (2.26x); gap shrinks as the
// dataset grows.
//
// The table divides total cost (host wall plus sim). Each (dataset,
// task) cell is also one result row holding both engines' sim and wall
// side by side, which tools/bench_gates.sh's gate_fig6 holds to the
// figure's claim on the sim clock alone.

#include <cstdio>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace ntadoc;
  using namespace ntadoc::bench;
  const BenchConfig config = ParseArgs(argc, argv, kJsonFlag);
  RowSink sink("fig6", config);
  const auto datasets = LoadDatasets(config);
  const auto profile = nvm::OptaneProfile();
  const AnalyticsOptions opts;

  PrintTitle("Figure 6: N-TADOC slowdown vs TADOC on DRAM",
             "paper Fig. 6, avg slowdown 1.59x");
  std::vector<std::string> header = {"Benchmark"};
  for (const auto& d : datasets) header.push_back("Dataset " + d.spec.name);
  header.push_back("geomean");
  PrintRow(header);

  std::vector<double> all;
  std::vector<std::vector<double>> per_dataset(datasets.size());
  for (Task task : tadoc::kAllTasks) {
    std::vector<std::string> row = {tadoc::TaskToString(task)};
    std::vector<double> task_ratios;
    for (size_t i = 0; i < datasets.size(); ++i) {
      const auto& d = datasets[i];
      const RunResult dram = RunTadocDram(d.corpus, task, opts);
      NTadocOptions nopts;
      nopts.persistence = PersistenceMode::kPhase;
      const RunResult ntadoc_run = RunNTadoc(
          d.corpus, task, opts, nopts, profile, d.device_capacity);
      const double slowdown = static_cast<double>(ntadoc_run.cost_ns()) /
                              static_cast<double>(dram.cost_ns());
      task_ratios.push_back(slowdown);
      per_dataset[i].push_back(slowdown);
      all.push_back(slowdown);
      row.push_back(Ratio(slowdown));
      sink.Emit(sink.Start("cell", d.spec.name)
                    .Str("task", TaskRowName(task))
                    .Num("dram_sim_ns", dram.metrics.TotalSimNs())
                    .Num("ntadoc_sim_ns", ntadoc_run.metrics.TotalSimNs())
                    .Num("dram_wall_ns", dram.metrics.TotalWallNs())
                    .Num("ntadoc_wall_ns", ntadoc_run.metrics.TotalWallNs()));
    }
    row.push_back(Ratio(GeoMean(task_ratios)));
    PrintRow(row);
  }
  std::printf("\noverall geomean slowdown: %s   (paper: 1.59x)\n",
              Ratio(GeoMean(all)).c_str());
  std::printf("per-dataset geomean slowdown (paper: shrinks with size):\n");
  for (size_t i = 0; i < datasets.size(); ++i) {
    std::printf("  %s: %s\n", datasets[i].spec.name.c_str(),
                Ratio(GeoMean(per_dataset[i])).c_str());
  }
  return sink.Finish();
}
