// Reproduces Table II + Section VI-D: per-phase time breakdown of
// N-TADOC on datasets C and D, and per-phase speedups vs the
// uncompressed-on-NVM baseline (paper: init 1.96x / 1.23x, traversal
// 2.53x / 2.87x for C / D; the traversal speedup exceeds the overall
// speedup).
//
// Result rows (bench_common.h's row format, bench "table2"):
//   cell     task; ntadoc_init_sim_ns, ntadoc_init_wall_ns,
//            ntadoc_traversal_sim_ns, ntadoc_traversal_wall_ns, and the
//            same four of the baseline (baseline_init_sim_ns, ...)
//   summary  phase (init, traversal or overall); sim_x and wall_x, the
//            geometric mean over the dataset's tasks of baseline over
//            N-TADOC in that phase on each clock, and paper_x where the
//            paper gives one
// tools/bench_gates.sh's gate_table2 holds, on C, the traversal sim_x
// above the overall one.

#include <map>
#include <string>
#include <utility>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace ntadoc;
  using namespace ntadoc::bench;
  BenchConfig config = ParseArgs(argc, argv);
  if (config.datasets.empty()) config.datasets = {"C", "D"};
  const auto datasets = LoadDatasets(config);
  const auto profile = nvm::OptaneProfile();
  const AnalyticsOptions opts;
  RowSink sink("table2", config);
  // Paper Table II's (init, traversal) speedups.
  const std::map<std::string, std::pair<double, double>> paper = {
      {"C", {1.96, 2.53}}, {"D", {1.23, 2.87}}};

  for (const auto& d : datasets) {
    ClockRatios init;
    ClockRatios traversal;
    ClockRatios overall;
    for (Task task : tadoc::kAllTasks) {
      NTadocOptions nopts;
      const RunMetrics nt =
          RunNTadoc(d.corpus, task, opts, nopts, profile, d.device_capacity)
              .metrics;
      const RunMetrics base =
          RunBaseline(d.corpus, task, opts, profile, d.device_capacity)
              .metrics;
      init.Add(base.init_sim_ns, nt.init_sim_ns, base.init_wall_ns,
               nt.init_wall_ns);
      traversal.Add(base.traversal_sim_ns, nt.traversal_sim_ns,
                    base.traversal_wall_ns, nt.traversal_wall_ns);
      overall.Add(base, nt);
      sink.Emit(sink.Start("cell", d.spec.name)
                    .Str("task", TaskRowName(task))
                    .Num("ntadoc_init_sim_ns", nt.init_sim_ns)
                    .Num("ntadoc_init_wall_ns", nt.init_wall_ns)
                    .Num("ntadoc_traversal_sim_ns", nt.traversal_sim_ns)
                    .Num("ntadoc_traversal_wall_ns", nt.traversal_wall_ns)
                    .Num("baseline_init_sim_ns", base.init_sim_ns)
                    .Num("baseline_init_wall_ns", base.init_wall_ns)
                    .Num("baseline_traversal_sim_ns", base.traversal_sim_ns)
                    .Num("baseline_traversal_wall_ns",
                         base.traversal_wall_ns));
    }
    const auto paper_x = paper.find(d.spec.name);
    const bool has_paper = paper_x != paper.end();
    Row init_row = sink.Start("summary", d.spec.name);
    init_row.Str("phase", "init").Ratios(init);
    if (has_paper) init_row.Real("paper_x", paper_x->second.first, 2);
    sink.Emit(init_row);
    Row traversal_row = sink.Start("summary", d.spec.name);
    traversal_row.Str("phase", "traversal").Ratios(traversal);
    if (has_paper) traversal_row.Real("paper_x", paper_x->second.second, 2);
    sink.Emit(traversal_row);
    sink.Emit(sink.Start("summary", d.spec.name)
                  .Str("phase", "overall")
                  .Ratios(overall));
  }
  return sink.Finish();
}
