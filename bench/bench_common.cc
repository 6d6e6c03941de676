#include "bench/bench_common.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "compress/format.h"
#include "compress/parallel_compress.h"
#include "util/dram_tracker.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ntadoc::bench {

namespace {

// Largest --scale=: far past any corpus a bench can hold, and small enough
// that every size derived from the scale fits in 64 bits.
constexpr double kMaxScale = 100;

bool KnownDataset(std::string_view name) {
  for (const auto& spec : textgen::AllDatasets(1.0)) {
    if (spec.name == name) return true;
  }
  return false;
}

// One flag: its "--name=" prefix, the value shown in the usage line, the
// BenchFlags bit that enables it (0 for the shared flags), and its parser,
// false on a malformed or out-of-range value.
struct FlagSpec {
  std::string_view name;
  std::string_view value;
  unsigned extra;
  bool (*parse)(std::string_view text, BenchConfig* config);
};

const FlagSpec kFlags[] = {
    {"--scale=", "F", 0,
     [](std::string_view t, BenchConfig* c) {
       return ParseFraction(t, &c->scale, 0, kMaxScale);
     }},
    {"--datasets=", "A,C", 0,
     [](std::string_view t, BenchConfig* c) {
       c->datasets.clear();
       for (std::string_view name : SplitTokens(t, ",")) {
         if (!KnownDataset(name)) return false;
         c->datasets.emplace_back(name);
       }
       return !c->datasets.empty();
     }},
    {"--cache-dir=", "DIR", 0,
     [](std::string_view t, BenchConfig* c) {
       c->cache_dir = t;
       return !t.empty();
     }},
    {"--device-mb=", "N", 0,
     [](std::string_view t, BenchConfig* c) {
       return ParseNumber(t, &c->device_capacity, {.unit = 1ull << 20});
     }},
    {"--threads=", "N", 0,
     [](std::string_view t, BenchConfig* c) {
       return ParseNumber(t, &c->threads);
     }},
    {"--json=", "PATH", kJsonFlag,
     [](std::string_view t, BenchConfig* c) {
       c->json_path = t;
       return !t.empty();
     }},
    {"--repeat=", "N", kRepeatFlag,
     [](std::string_view t, BenchConfig* c) {
       return ParseNumber(t, &c->repeat, {.min = 1});
     }},
    {"--dram-cache-mb=", "N", kDramCacheFlag,
     [](std::string_view t, BenchConfig* c) {
       // Kept in MB; the budget in bytes must fit too.
       return ParseNumber(t, &c->dram_cache_mb, {.max = ~0ull >> 20});
     }},
    {"--queries=", "N", kQueriesFlag,
     [](std::string_view t, BenchConfig* c) {
       return ParseNumber(t, &c->queries, {.min = 1});
     }},
    {"--threads-list=", "1,4,8", kThreadsListFlag,
     [](std::string_view t, BenchConfig* c) {
       c->threads_list.clear();
       for (std::string_view n : SplitTokens(t, ",")) {
         uint32_t threads = 0;
         if (!ParseNumber(n, &threads, {.min = 1})) return false;
         c->threads_list.push_back(threads);
       }
       return !c->threads_list.empty();
     }},
    {"--tasks=", "word_count,sort", kTasksFlag,
     [](std::string_view t, BenchConfig* c) {
       c->tasks.clear();
       for (std::string_view name : SplitTokens(t, ",")) {
         const auto task = std::find_if(
             tadoc::kAllTasks.begin(), tadoc::kAllTasks.end(),
             [name](Task k) { return TaskRowName(k) == name; });
         if (task == tadoc::kAllTasks.end()) return false;
         c->tasks.push_back(*task);
       }
       return !c->tasks.empty();
     }},
};

bool Accepts(const FlagSpec& flag, unsigned extra) {
  return flag.extra == 0 || (extra & flag.extra) != 0;
}

void PrintUsage(std::FILE* out, const char* argv0, unsigned extra) {
  std::fprintf(out, "usage: %s", argv0);
  for (const FlagSpec& f : kFlags) {
    if (!Accepts(f, extra)) continue;
    std::fprintf(out, " [%.*s%.*s]", static_cast<int>(f.name.size()),
                 f.name.data(), static_cast<int>(f.value.size()),
                 f.value.data());
  }
  std::fprintf(out, " [--help]\n");
}

}  // namespace

BenchConfig ParseArgs(int argc, char** argv, unsigned extra) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      PrintUsage(stdout, argv[0], extra);
      std::exit(0);
    }
    const FlagSpec* flag = nullptr;
    for (const FlagSpec& f : kFlags) {
      if (Accepts(f, extra) && arg.starts_with(f.name)) {
        flag = &f;
        break;
      }
    }
    if (flag == nullptr ||
        !flag->parse(arg.substr(flag->name.size()), &config)) {
      std::fprintf(stderr, "%s: bad flag %s\n", argv[0], argv[i]);
      PrintUsage(stderr, argv[0], extra);
      std::exit(2);
    }
  }
  return config;
}

std::string TaskRowName(Task task) {
  std::string s = tadoc::TaskToString(task);
  std::replace(s.begin(), s.end(), ' ', '_');
  return s;
}

std::vector<DatasetBundle> LoadDatasets(const BenchConfig& config) {
  ::mkdir(config.cache_dir.c_str(), 0755);
  std::vector<DatasetBundle> out;
  for (const auto& spec : textgen::AllDatasets(config.scale)) {
    if (!config.datasets.empty() &&
        std::find(config.datasets.begin(), config.datasets.end(),
                  spec.name) == config.datasets.end()) {
      continue;
    }
    DatasetBundle bundle;
    bundle.spec = spec;
    char scale_buf[32];
    std::snprintf(scale_buf, sizeof(scale_buf), "%.4f", config.scale);
    // threads<=1 keeps the historical cache name: those containers (and
    // the sim baselines derived from them) must stay byte-identical.
    std::string path =
        config.cache_dir + "/dataset_" + spec.name + "_" + scale_buf;
    if (config.threads > 1) path += "_t" + std::to_string(config.threads);
    path += ".ntdc";
    auto cached = compress::LoadCorpus(path);
    if (cached.ok()) {
      bundle.corpus = std::move(cached).value();
    } else {
      NTADOC_LOG(Info) << "generating + compressing dataset " << spec.name
                       << " (scale " << config.scale << ", threads "
                       << config.threads << ")";
      const auto files = textgen::GenerateCorpus(spec);
      for (const auto& f : files) bundle.raw_text_bytes += f.content.size();
      compress::ParallelCompressOptions popts;
      popts.threads = config.threads;
      Result<CompressedCorpus> compressed =
          config.threads > 1 ? compress::ParallelCompress(files, popts)
                             : compress::Compress(files);
      NTADOC_CHECK(compressed.ok()) << compressed.status();
      bundle.corpus = std::move(compressed).value();
      NTADOC_CHECK_OK(compress::SaveCorpus(bundle.corpus, path));
    }
    if (bundle.raw_text_bytes == 0) {
      // Loaded from cache: reconstruct the raw size estimate.
      for (const auto& text : compress::DecodeToText(bundle.corpus)) {
        bundle.raw_text_bytes += text.size();
      }
    }
    bundle.token_count = bundle.corpus.grammar.ExpandedLength();
    bundle.device_capacity =
        std::max<uint64_t>(config.device_capacity, bundle.token_count * 48);
    out.push_back(std::move(bundle));
  }
  return out;
}

uint64_t CorpusDramBytes(const CompressedCorpus& corpus) {
  return corpus.grammar.TotalSymbols() * sizeof(compress::Symbol) +
         corpus.grammar.NumRules() * sizeof(void*) * 3 +  // vector headers
         DictDramBytes(corpus);
}

uint64_t DictDramBytes(const CompressedCorpus& corpus) {
  uint64_t bytes = 0;
  for (compress::WordId w = 0; w < corpus.dict.size(); ++w) {
    bytes += corpus.dict.Spell(w).size() + 48;  // string + index entry
  }
  return bytes;
}

RunResult RunNTadoc(const CompressedCorpus& corpus, Task task,
                    const AnalyticsOptions& opts,
                    const NTadocOptions& engine_opts,
                    const nvm::DeviceProfile& profile,
                    uint64_t device_capacity, core::NTadocRunInfo* info) {
  nvm::DeviceOptions dopts;
  dopts.capacity = device_capacity;
  dopts.profile = profile;
  auto device = nvm::NvmDevice::Create(dopts);
  NTADOC_CHECK(device.ok()) << device.status();
  core::NTadocEngine engine(&corpus, device->get(), engine_opts);
  RunResult result;
  DramUsageScope dram;
  auto got = engine.Run(task, opts, &result.metrics);
  NTADOC_CHECK(got.ok()) << got.status();
  result.dram_peak_bytes = dram.PeakDelta();
  if (info != nullptr) *info = engine.run_info();
  return result;
}

RunResult RunBaseline(const CompressedCorpus& corpus, Task task,
                      const AnalyticsOptions& opts,
                      const nvm::DeviceProfile& profile,
                      uint64_t device_capacity) {
  nvm::DeviceOptions dopts;
  dopts.capacity = device_capacity;
  dopts.profile = profile;
  auto device = nvm::NvmDevice::Create(dopts);
  NTADOC_CHECK(device.ok()) << device.status();
  baseline::UncompressedAnalytics engine(&corpus, device->get());
  RunResult result;
  DramUsageScope dram;
  auto got = engine.Run(task, opts, &result.metrics);
  NTADOC_CHECK(got.ok()) << got.status();
  result.dram_peak_bytes = dram.PeakDelta();
  return result;
}

namespace {

// DRAM TADOC with every data access charged through `profile` on a fresh
// clock.
RunResult RunTadocCharged(const CompressedCorpus& corpus, Task task,
                          const AnalyticsOptions& opts,
                          const nvm::DeviceProfile& profile) {
  nvm::MemoryModel model(profile, nvm::MakeSimClock());
  tadoc::TadocEngine engine(&corpus, {.model = &model});
  RunResult result;
  DramUsageScope dram;
  auto got = engine.Run(task, opts, &result.metrics);
  NTADOC_CHECK(got.ok()) << got.status();
  result.dram_peak_bytes = dram.PeakDelta();
  return result;
}

}  // namespace

RunResult RunTadocDram(const CompressedCorpus& corpus, Task task,
                       const AnalyticsOptions& opts) {
  return RunTadocCharged(corpus, task, opts, nvm::DramProfile());
}

RunResult RunNaiveNvmTadoc(const CompressedCorpus& corpus, Task task,
                           const AnalyticsOptions& opts) {
  // The naive port scatters TADOC's structures across a PMDK pool with no
  // locality, so cache reuse collapses: only the device's own XPBuffer
  // fronts the media.
  auto profile = nvm::OptaneProfile();
  profile.buffer_blocks = 64;  // 16 KiB XPBuffer only
  return RunTadocCharged(corpus, task, opts, profile);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string DatasetNames(const std::vector<DatasetBundle>& datasets) {
  std::vector<std::string> names;
  for (const DatasetBundle& d : datasets) names.push_back(d.spec.name);
  return Join(names, "+");
}

void ClockRatios::Add(uint64_t num_sim_ns, uint64_t den_sim_ns,
                      uint64_t num_wall_ns, uint64_t den_wall_ns) {
  sim.push_back(static_cast<double>(num_sim_ns) /
                static_cast<double>(den_sim_ns));
  wall.push_back(static_cast<double>(num_wall_ns) /
                 static_cast<double>(den_wall_ns));
}

void ClockRatios::Add(const RunMetrics& num, const RunMetrics& den) {
  Add(num.TotalSimNs(), den.TotalSimNs(), num.TotalWallNs(),
      den.TotalWallNs());
}

uint64_t TieredDeviceCapacity(uint64_t base_capacity,
                              const nvm::TierConfig& config) {
  // Pool-end planning block: capacities are rounded to whole MiB so the
  // placement region and pool tail land on the same boundaries every
  // bench binary (and the CLI's --device-mb=) produces.
  constexpr uint64_t kPoolPlanBlock = 1ull << 20;
  const uint64_t bytes =
      base_capacity + nvm::TieredPool::PlacementReserve(config);
  return (bytes + kPoolPlanBlock - 1) / kPoolPlanBlock * kPoolPlanBlock;
}

void Row::Key(std::string_view key) {
  NTADOC_CHECK(!key.empty() &&
               key.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789_") ==
                   std::string_view::npos)
      << "bad row key '" << key << "'";
  text_ += text_.empty() ? "{\"" : ", \"";
  text_ += key;
  text_ += "\": ";
}

Row& Row::Str(std::string_view key, std::string_view value) {
  for (const char c : value) {
    NTADOC_CHECK(static_cast<unsigned char>(c) > ' ' && c != '"' &&
                 c != ',' && c != '=' && c != '\\')
        << "row field " << key << " holds a reserved character: '" << value
        << "'";
  }
  Key(key);
  text_ += '"';
  text_ += value;
  text_ += '"';
  return *this;
}

Row& Row::Num(std::string_view key, uint64_t value) {
  Key(key);
  text_ += std::to_string(value);
  return *this;
}

Row& Row::Real(std::string_view key, double value, int digits) {
  NTADOC_CHECK(std::isfinite(value)) << "row field " << key << " is " << value;
  Key(key);
  text_ += FormatDouble(value, digits);
  return *this;
}

Row& Row::Clocks(std::string_view engine, const RunMetrics& metrics) {
  return Num(std::string(engine) + "_sim_ns", metrics.TotalSimNs())
      .Num(std::string(engine) + "_wall_ns", metrics.TotalWallNs());
}

Row& Row::Ratios(const ClockRatios& ratios) {
  return Real("sim_x", GeoMean(ratios.sim), 3)
      .Real("wall_x", GeoMean(ratios.wall), 3);
}

RowSink::RowSink(std::string_view bench, const BenchConfig& config)
    : bench_(bench), scale_(config.scale), json_path_(config.json_path) {}

Row RowSink::Start(std::string_view row, std::string_view dataset) const {
  Row r;
  r.Str("bench", bench_).Str("row", row).Str("dataset", dataset);
  char scale[32];
  std::snprintf(scale, sizeof(scale), "%g", scale_);
  r.Key("scale");
  r.text_ += scale;
  return r;
}

void RowSink::Emit(const Row& row) { rows_.push_back(row.text_ + "}"); }

int RowSink::Finish() const {
  for (const std::string& row : rows_) std::printf("%s\n", row.c_str());
  if (json_path_.empty()) return 0;
  std::string text = "[\n";
  for (size_t i = 0; i < rows_.size(); ++i) {
    text += rows_[i];
    text += i + 1 < rows_.size() ? ",\n" : "\n";
  }
  text += "]\n";
  std::FILE* f = std::fopen(json_path_.c_str(), "w");
  bool ok = f != nullptr &&
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f != nullptr && std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::fprintf(stderr, "cannot write %s\n", json_path_.c_str());
    return 1;
  }
  return 0;
}

}  // namespace ntadoc::bench
