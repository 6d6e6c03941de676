// Chunk-parallel ingest benchmark: wall-clock compression throughput
// (MB/s) for threads=1/4/8, the resulting container's init-phase
// simulated time, and the EncodeTokens tokenization micro-benchmark
// (string_view slices vs the old per-token std::string allocation).
//
// Chunking wins twice: worker overlap on multi-core hosts, and — even
// on one core — Sequitur's digram index per chunk is a fraction of the
// whole-corpus index, so it stays hot in cache and the inference itself
// gets cheaper.
//
// Two time columns per row:
//   wall_ns           measured end-to-end wall time on this host. On a
//                     host with fewer cores than --threads the worker
//                     pool is clamped, so this shows only the
//                     cache-locality win, not worker overlap.
//   lane_makespan_ns  deterministic lane model, in the same spirit as
//                     the simulated NVM device: the measured per-chunk
//                     compute times are scheduled LPT (longest
//                     processing time first) onto `threads` lanes, plus
//                     the measured serial remainder (chunk planning,
//                     merge, dedup). This is the ingest wall time an
//                     unconstrained `threads`-core host would see.
//
// Result rows (bench_common.h's row format, bench "ingest"):
//   compress  threads, chunks, container_bytes (the serialized container),
//             merged_rules, deduped_rules, init_sim_ns (the container's
//             serving-side init), wall_ns, lane_makespan_ns, mb_per_s
//   encode    tokens, string_view_wall_ns, alloc_wall_ns
// tools/check_bench.sh gates the compress rows relationally (threads=8
// lane makespan at least 2x threads=1; container within 5% of the
// single-threaded size). Raw wall_ns is machine-dependent and is not
// gated, matching the repo-wide convention.
//
// Extra flags on top of the shared ones (see bench_common.h):
//   --threads-list=1,4,8 thread counts to sweep (chunks follow threads)
//   --repeat=N           repetitions; wall times keep the minimum
//   --json=PATH          also write the result rows to PATH

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "compress/format.h"
#include "compress/parallel_compress.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace ntadoc;
using namespace ntadoc::bench;
using compress::InputFile;
using compress::ParallelCompressOptions;
using compress::ParallelCompressStats;

struct IngestResult {
  std::string dataset;
  uint32_t threads = 0;
  uint32_t chunks = 0;
  uint64_t wall_ns = 0;
  uint64_t lane_makespan_ns = 0;  // lane model (see file comment)
  double mb_per_s = 0.0;
  uint64_t bytes = 0;  // serialized container size
  uint64_t merged_rules = 0;
  uint64_t deduped_rules = 0;
  uint64_t init_sim_ns = 0;
};

/// LPT schedule of the measured per-chunk compute times onto `lanes`
/// lanes plus the serial remainder of the run (total wall minus chunk
/// compute): the makespan a `lanes`-core host would see for this run.
uint64_t LaneMakespan(std::vector<uint64_t> chunk_ns, uint32_t lanes,
                      uint64_t wall_ns) {
  std::sort(chunk_ns.begin(), chunk_ns.end(), std::greater<uint64_t>());
  std::vector<uint64_t> lane(std::max(1u, lanes), 0);
  uint64_t chunk_total = 0;
  for (uint64_t ns : chunk_ns) {
    *std::min_element(lane.begin(), lane.end()) += ns;
    chunk_total += ns;
  }
  const uint64_t serial = wall_ns > chunk_total ? wall_ns - chunk_total : 0;
  return *std::max_element(lane.begin(), lane.end()) + serial;
}

IngestResult RunIngest(const std::string& dataset,
                       const std::vector<InputFile>& files,
                       uint64_t raw_bytes, uint64_t device_capacity,
                       uint32_t threads, uint32_t repeat) {
  ParallelCompressOptions opts;
  opts.threads = threads;
  opts.chunks = threads;  // one chunk per worker, the default pairing
  IngestResult r;
  r.dataset = dataset;
  r.threads = threads;
  r.wall_ns = ~0ull;
  compress::CompressedCorpus corpus;
  for (uint32_t i = 0; i < repeat; ++i) {
    ParallelCompressStats stats;
    WallTimer timer;
    auto got = compress::ParallelCompress(files, opts, &stats);
    const uint64_t wall = timer.ElapsedNanos();
    NTADOC_CHECK(got.ok()) << got.status();
    if (wall < r.wall_ns) {
      r.wall_ns = wall;
      r.lane_makespan_ns =
          LaneMakespan(stats.chunk_compute_ns, threads, wall);
    }
    r.chunks = stats.chunks;
    r.merged_rules = stats.merged_rules;
    r.deduped_rules = stats.deduped_rules;
    corpus = std::move(got).value();
  }
  r.mb_per_s = static_cast<double>(raw_bytes) /
               (static_cast<double>(r.wall_ns) * 1e-9) / (1024.0 * 1024.0);
  r.bytes = compress::SerializeCorpus(corpus).size();
  // Serving-side init cost of the container this build produced.
  NTadocOptions engine_opts;
  RunResult run = RunNTadoc(corpus, Task::kWordCount, {}, engine_opts,
                            nvm::OptaneProfile(), device_capacity);
  r.init_sim_ns = run.metrics.init_sim_ns;
  return r;
}

/// EncodeTokens micro-bench: the shipped string_view path vs a replica
/// of the old behavior that materialized a std::string per token before
/// the dictionary probe.
void EncodeMicrobench(const std::string& dataset,
                      const std::vector<InputFile>& files, uint32_t repeat,
                      RowSink* sink) {
  uint64_t tokens = 0;
  uint64_t sv_ns = ~0ull;
  uint64_t alloc_ns = ~0ull;
  for (uint32_t i = 0; i < repeat; ++i) {
    {
      compress::Dictionary dict;
      uint64_t n = 0;
      WallTimer timer;
      for (const auto& f : files) {
        n += compress::EncodeTokens(f.content, &dict).size();
      }
      sv_ns = std::min(sv_ns, timer.ElapsedNanos());
      tokens = n;
    }
    {
      compress::Dictionary dict;
      WallTimer timer;
      for (const auto& f : files) {
        for (std::string_view tok : SplitTokens(f.content)) {
          // The pre-fix hot path: one heap string per token, repeats
          // included, just to probe the index.
          const std::string owned(tok);
          (void)dict.GetOrAdd(owned);
        }
      }
      alloc_ns = std::min(alloc_ns, timer.ElapsedNanos());
    }
  }
  sink->Emit(sink->Start("encode", dataset)
                 .Num("tokens", tokens)
                 .Num("string_view_wall_ns", sv_ns)
                 .Num("alloc_wall_ns", alloc_ns));
}

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig config =
      ParseArgs(argc, argv, kJsonFlag | kRepeatFlag | kThreadsListFlag);
  RowSink sink("ingest", config);

  PrintTitle("Chunk-parallel ingest",
             "container build throughput (TADOC compression; rapidgzip-style "
             "chunking)");

  for (const auto& spec : textgen::AllDatasets(config.scale)) {
    if (!config.datasets.empty() &&
        std::find(config.datasets.begin(), config.datasets.end(),
                  spec.name) == config.datasets.end()) {
      continue;
    }
    const auto files = textgen::GenerateCorpus(spec);
    uint64_t raw_bytes = 0;
    for (const auto& f : files) raw_bytes += f.content.size();
    // The serving engine mirrors the full decoded working set (pools,
    // per-file tables, dictionary) into the simulated device, so the
    // capacity floor scales with the raw corpus, not the container.
    // Rounded up to 1 MiB: the engine's pool spans to capacity minus a
    // fixed mirror region, and NvmPool requires its spare region (and
    // hence the pool end) to be media-block aligned.
    const uint64_t device_capacity =
        (std::max<uint64_t>(config.device_capacity, raw_bytes * 72) +
         (1ull << 20) - 1) & ~((1ull << 20) - 1);

    PrintRow({"dataset=" + spec.name, "threads", "chunks", "wall_s",
              "lane_s", "MB/s", "bytes", "dedup", "init_sim_s"});
    for (uint32_t t : config.threads_list) {
      IngestResult r = RunIngest(spec.name, files, raw_bytes,
                                 device_capacity, t, config.repeat);
      char mbps[32];
      std::snprintf(mbps, sizeof(mbps), "%.2f", r.mb_per_s);
      PrintRow({"", std::to_string(r.threads), std::to_string(r.chunks),
                Secs(r.wall_ns), Secs(r.lane_makespan_ns), mbps,
                std::to_string(r.bytes), std::to_string(r.deduped_rules),
                Secs(r.init_sim_ns)});
      sink.Emit(sink.Start("compress", r.dataset)
                    .Num("threads", r.threads)
                    .Num("chunks", r.chunks)
                    .Num("container_bytes", r.bytes)
                    .Num("merged_rules", r.merged_rules)
                    .Num("deduped_rules", r.deduped_rules)
                    .Num("init_sim_ns", r.init_sim_ns)
                    .Num("wall_ns", r.wall_ns)
                    .Num("lane_makespan_ns", r.lane_makespan_ns)
                    .Real("mb_per_s", r.mb_per_s, 2));
    }
    EncodeMicrobench(spec.name, files, config.repeat, &sink);
  }
  return sink.Finish();
}
