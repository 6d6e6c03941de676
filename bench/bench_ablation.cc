// Ablation study (ours, motivated by DESIGN.md): contribution of each
// N-TADOC design decision on dataset C:
//  * pruning + pool layout (Algorithm 1) on/off;
//  * bottom-up summation (Algorithm 2) on/off (off = grow-and-rebuild);
//  * device-buffer (XPBuffer) size sweep — locality sensitivity.
//
// Result rows (bench_common.h's row format, bench "ablation"):
//   cell     task; full_sim_ns, full_wall_ns, no_pruning_sim_ns,
//            no_pruning_wall_ns, no_summation_sim_ns, no_summation_wall_ns
//   buffer   buffer_bytes; sim_ns, wall_ns and miss_rate of word count
//   summary  ablation (pruning or summation); sim_x and wall_x, the
//            geometric mean over the tasks of the ablated run over the
//            full one on each clock

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace ntadoc;
  using namespace ntadoc::bench;
  BenchConfig config = ParseArgs(argc, argv);
  if (config.datasets.empty()) config.datasets = {"C"};
  const auto datasets = LoadDatasets(config);
  const AnalyticsOptions opts;
  RowSink sink("ablation", config);

  for (const auto& d : datasets) {
    ClockRatios pruning;
    ClockRatios summation;
    for (Task task : tadoc::kAllTasks) {
      NTadocOptions full;
      const RunResult f = RunNTadoc(d.corpus, task, opts, full,
                                    nvm::OptaneProfile(),
                                    d.device_capacity);
      NTadocOptions noprune;
      noprune.enable_pruning = false;
      const RunResult np = RunNTadoc(d.corpus, task, opts, noprune,
                                     nvm::OptaneProfile(),
                                     d.device_capacity);
      NTadocOptions nosum;
      nosum.enable_summation = false;
      const RunResult ns = RunNTadoc(d.corpus, task, opts, nosum,
                                     nvm::OptaneProfile(),
                                     d.device_capacity);
      pruning.Add(np.metrics, f.metrics);
      summation.Add(ns.metrics, f.metrics);
      sink.Emit(sink.Start("cell", d.spec.name)
                    .Str("task", TaskRowName(task))
                    .Clocks("full", f.metrics)
                    .Clocks("no_pruning", np.metrics)
                    .Clocks("no_summation", ns.metrics));
    }
    sink.Emit(sink.Start("summary", d.spec.name)
                  .Str("ablation", "pruning")
                  .Ratios(pruning));
    sink.Emit(sink.Start("summary", d.spec.name)
                  .Str("ablation", "summation")
                  .Ratios(summation));

    for (uint64_t kib : {64ull, 256ull, 1024ull, 4096ull, 16384ull}) {
      auto profile = nvm::OptaneProfile();
      profile.buffer_blocks = (kib << 10) / profile.block_size;
      nvm::DeviceOptions dopts;
      dopts.capacity = d.device_capacity;
      dopts.profile = profile;
      auto device = nvm::NvmDevice::Create(dopts);
      NTADOC_CHECK(device.ok());
      core::NTadocEngine engine(&d.corpus, device->get(), NTadocOptions());
      tadoc::RunMetrics m;
      auto got = engine.Run(Task::kWordCount, opts, &m);
      NTADOC_CHECK(got.ok()) << got.status();
      sink.Emit(sink.Start("buffer", d.spec.name)
                    .Num("buffer_bytes", kib << 10)
                    .Num("sim_ns", m.TotalSimNs())
                    .Num("wall_ns", m.TotalWallNs())
                    .Real("miss_rate", (*device)->stats().MissRate(), 4));
    }
  }
  return sink.Finish();
}
