// Log-analytics scenario: server logs are extremely repetitive, so TADOC
// compresses them heavily; this example generates a synthetic log
// stream, compresses it, persists the compressed container, and runs
// word count + sequence count on NVM, comparing the cost against the
// uncompressed baseline on the same emulated device.
//
//   ./log_analytics

#include <cstdio>

#include "baseline/uncompressed.h"
#include "core/engine.h"
#include "util/random.h"
#include "util/string_util.h"

using namespace ntadoc;

namespace {

/// Generates an nginx-ish access log: few message shapes, many values.
std::vector<compress::InputFile> GenerateLogs(uint32_t days,
                                              uint32_t lines_per_day) {
  static constexpr const char* kMethods[] = {"GET", "GET", "GET", "POST",
                                             "PUT"};
  static constexpr const char* kPaths[] = {
      "/index.html", "/api/v1/users", "/api/v1/orders", "/static/app.js",
      "/healthz",    "/api/v1/users", "/index.html",    "/favicon.ico"};
  static constexpr const char* kStatus[] = {"200", "200", "200", "200",
                                            "404", "500", "301"};
  Rng rng(7);
  std::vector<compress::InputFile> files(days);
  for (uint32_t d = 0; d < days; ++d) {
    files[d].name = "access_2026-07-" + std::to_string(d + 1) + ".log";
    std::string& text = files[d].content;
    for (uint32_t i = 0; i < lines_per_day; ++i) {
      text += "ip_";
      text += std::to_string(rng.Uniform(50));
      text += " - - ";
      text += kMethods[rng.Uniform(5)];
      text += " ";
      text += kPaths[rng.Uniform(8)];
      text += " HTTP/1.1 ";
      text += kStatus[rng.Uniform(7)];
      text += " bytes_";
      text += std::to_string(rng.Uniform(20) * 512);
      text += "\n";
    }
  }
  return files;
}

}  // namespace

int main() {
  const auto files = GenerateLogs(/*days=*/7, /*lines_per_day=*/4000);
  uint64_t raw_bytes = 0;
  for (const auto& f : files) raw_bytes += f.content.size();

  auto corpus = compress::Compress(files);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  const auto stats = compress::ComputeStats(corpus->grammar);
  std::printf("logs: %s raw, %llu tokens -> %llu symbols (%.1f:1)\n",
              HumanBytes(raw_bytes).c_str(),
              (unsigned long long)stats.expanded_tokens,
              (unsigned long long)stats.total_symbols,
              stats.compression_ratio);

  // Persist the compressed container like a real deployment would.
  if (auto s = compress::SaveCorpus(*corpus, "logs.ntdc"); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto reloaded = compress::LoadCorpus("logs.ntdc");
  if (!reloaded.ok()) return 1;
  std::printf("container round-trip: OK (logs.ntdc)\n\n");

  for (tadoc::Task task :
       {tadoc::Task::kWordCount, tadoc::Task::kSequenceCount}) {
    nvm::DeviceOptions dev_opts;
    dev_opts.capacity = 256ull << 20;
    auto nt_dev = nvm::NvmDevice::Create(dev_opts);
    auto base_dev = nvm::NvmDevice::Create(dev_opts);
    if (!nt_dev.ok() || !base_dev.ok()) return 1;

    core::NTadocEngine ntadoc_engine(&*reloaded, nt_dev->get());
    tadoc::RunMetrics nt_metrics;
    auto nt = ntadoc_engine.Run(task, {}, &nt_metrics);

    baseline::UncompressedAnalytics base_engine(&*reloaded, base_dev->get());
    tadoc::RunMetrics base_metrics;
    auto base = base_engine.Run(task, {}, &base_metrics);
    if (!nt.ok() || !base.ok()) return 1;

    std::printf(
        "%-16s simulated device time: N-TADOC %-10s baseline %-10s "
        "speedup %.2fx  (results %s)\n",
        tadoc::TaskToString(task),
        HumanDuration(nt_metrics.TotalSimNs()).c_str(),
        HumanDuration(base_metrics.TotalSimNs()).c_str(),
        static_cast<double>(base_metrics.TotalSimNs()) /
            static_cast<double>(nt_metrics.TotalSimNs()),
        *nt == *base ? "identical" : "DIFFER (bug!)");
  }
  return 0;
}
