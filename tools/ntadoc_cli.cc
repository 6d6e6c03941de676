// ntadoc — command-line front end for the library.
//
//   ntadoc compress  <out.ntdc> <file...>     compress text files
//                    [--threads=N] [--chunks=N] [--append] [--notify]
//                    [--stats]
//   ntadoc stats     <in.ntdc>                container statistics
//   ntadoc extract   <in.ntdc> <file#> [off len]   random access
//   ntadoc run       <in.ntdc> <task> [--medium=nvm|reram|pcm|ssd|hdd]
//                    [--persistence=none|phase|operation]
//                    [--traversal=auto|topdown|bottomup]
//                    [--ngram=N] [--topk=K] [--limit=N]
//                    [--commit-interval=K] [--dram-cache-mb=M]
//                    [--tiers=SPEC] [--tier-budget-mb=M] [--migrate=0|1]
//                    [--stats]
//   ntadoc serve     <in.ntdc> [--workers=N] [--queries=N]
//                    [--medium=...] [--persistence=...]
//                    [--deadline-us=D] [--shared-cache-mb=M]
//                    [--tiers=SPEC] [--tier-budget-mb=M] [--migrate=0|1]
//                    [--refresh-every=K] [--stats] [refresh-file...]
//
// `run` executes one of the six analytics tasks with N-TADOC on an
// emulated device and prints the first --limit result rows plus the
// phase timing. With --stats it also prints the run's accounting
// counters as stable key=value lines on stdout.
//
// `serve` seals the container into an immutable pool once, then answers
// --queries queries (cycling through all six tasks) on --workers
// concurrent fault-isolated sessions and prints per-query latency plus
// aggregate throughput (see DESIGN.md "Session model"). With
// --refresh-every=K and trailing refresh files, the container is hosted
// in a durable ContainerStore and every K submitted queries one refresh
// file is appended and published as a new serving generation while the
// fleet keeps answering (DESIGN.md "Generations & online refresh").
//
// `--tiers=SPEC` places pool structures across a fastest-first list of
// device cost models, e.g. `--tiers=dram:64,nvm` = 64 MB of DRAM over
// an uncapped NVM home tier (DESIGN.md "Tiered placement & migration").
// `--tier-budget-mb=M` overrides the top tier's byte budget and
// `--migrate=0` freezes placement (no online hot/cold movement).
//
// `compress --append --notify` prints `refresh_generation=N` on the
// line a durable append commits — the hook a co-located serving process
// uses to trigger a refresh.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include "compress/compressor.h"
#include "compress/format.h"
#include "compress/parallel_compress.h"
#include "compress/random_access.h"
#include "core/container_store.h"
#include "core/engine.h"
#include "serve/refresh.h"
#include "serve/serving.h"
#include "util/string_util.h"

using namespace ntadoc;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  ntadoc compress <out.ntdc> <file...> [--threads=N] "
               "[--chunks=N] [--append] [--notify] [--stats]\n"
               "  ntadoc stats    <in.ntdc>\n"
               "  ntadoc extract  <in.ntdc> <file#> [offset count]\n"
               "  ntadoc run      <in.ntdc> <wordcount|sort|termvector|"
               "invertedindex|sequencecount|rankedindex>\n"
               "                  [--medium=nvm|reram|pcm|ssd|hdd] "
               "[--persistence=none|phase|operation]\n"
               "                  [--traversal=auto|topdown|bottomup] "
               "[--ngram=N] [--topk=K] [--limit=N]\n"
               "                  [--persist-check] [--commit-interval=K] "
               "[--dram-cache-mb=M]\n"
               "                  [--tiers=SPEC] [--tier-budget-mb=M] "
               "[--migrate=0|1] [--stats]\n"
               "  ntadoc serve    <in.ntdc> [--workers=N] [--queries=N]\n"
               "                  [--medium=nvm|reram|pcm|ssd|hdd] "
               "[--persistence=none|phase|operation]\n"
               "                  [--deadline-us=D] [--shared-cache-mb=M] "
               "[--stats]\n"
               "                  [--tiers=SPEC] [--tier-budget-mb=M] "
               "[--migrate=0|1]\n"
               "                  [--refresh-every=K] [refresh-file...]\n"
               "tier SPEC: fastest-first comma list of medium[:budget_mb],"
               " e.g. dram:64,nvm\n");
  return 2;
}

// --medium=nvm|reram|pcm|ssd|hdd; false for any other name.
bool ParseMedium(std::string_view name, nvm::DeviceProfile* profile) {
  if (name == "nvm") {
    *profile = nvm::OptaneProfile();
  } else if (name == "reram") {
    *profile = nvm::ReRamProfile();
  } else if (name == "pcm") {
    *profile = nvm::PcmProfile();
  } else if (name == "ssd") {
    *profile = nvm::SsdProfile();
  } else if (name == "hdd") {
    *profile = nvm::HddProfile();
  } else {
    return false;
  }
  return true;
}

// One stable `key=value` line of --stats output (stdout, for scripts).
void PrintStat(const char* key, uint64_t value) {
  std::printf("%s=%llu\n", key, static_cast<unsigned long long>(value));
}

Result<compress::CompressedCorpus> LoadOrFail(const std::string& path) {
  auto corpus = compress::LoadCorpus(path);
  if (!corpus.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                 corpus.status().ToString().c_str());
  }
  return corpus;
}

// Builds the engine tiering config from the --tiers/--tier-budget-mb/
// --migrate flag values shared by `run` and `serve`. Returns a null
// shared_ptr (tiering off) when --tiers was not given; --tier-budget-mb
// overrides the top (fastest) tier's budget.
Result<std::shared_ptr<const nvm::TierConfig>> BuildTierConfig(
    const std::string& tiers_spec, int64_t tier_budget_mb, int migrate) {
  if (tiers_spec.empty()) {
    if (tier_budget_mb >= 0 || migrate >= 0) {
      return Status::InvalidArgument(
          "--tier-budget-mb/--migrate require --tiers=");
    }
    return std::shared_ptr<const nvm::TierConfig>();
  }
  NTADOC_ASSIGN_OR_RETURN(nvm::TierConfig cfg,
                          nvm::TierConfig::Parse(tiers_spec));
  if (tier_budget_mb >= 0) {
    cfg.tiers.front().budget_bytes =
        static_cast<uint64_t>(tier_budget_mb) << 20;
  }
  if (migrate >= 0) cfg.migrate = migrate != 0;
  return std::shared_ptr<const nvm::TierConfig>(
      std::make_shared<nvm::TierConfig>(std::move(cfg)));
}

// `--append` exercises the full durable path: the existing container is
// formatted into an emulated-NVM ContainerStore and the new files are
// merged under redo-log durability (so `append_epochs` in --stats counts
// real descriptor commits), then the appended container is saved back.
int CmdCompressAppend(const char* out_path,
                      const std::vector<compress::InputFile>& files,
                      const compress::ParallelCompressOptions& popts,
                      bool notify,
                      compress::ParallelCompressStats* pstats) {
  auto base = LoadOrFail(out_path);
  if (!base.ok()) return 1;

  uint64_t new_bytes = 0;
  for (const auto& f : files) new_bytes += f.content.size();
  // Slot sizing: the merged container cannot exceed the old container
  // plus the raw bytes of the new files (appending never inflates past
  // verbatim); pad one line-aligned page for headers.
  const uint64_t slot_bytes =
      (compress::SerializeCorpus(*base).size() + new_bytes + 8192) & ~63ull;
  core::ContainerStoreOptions sopts;
  const uint64_t region = 2 * 64 + sopts.log_bytes + 2 * slot_bytes;

  nvm::DeviceOptions dopts;
  dopts.capacity = region + 4096;
  auto device = nvm::NvmDevice::Create(dopts);
  if (!device.ok()) {
    std::fprintf(stderr, "%s\n", device.status().ToString().c_str());
    return 1;
  }
  auto store =
      core::ContainerStore::Create(device->get(), 0, region, *base, sopts);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  if (notify) {
    // Stable key=value line emitted at the instant the descriptor flip
    // commits — a serving process tails this to schedule its refresh.
    store->set_refresh_hook([](uint64_t generation) {
      std::printf("refresh_generation=%llu\n",
                  (unsigned long long)generation);
    });
  }
  if (auto s = store->AppendFiles(files, popts, pstats); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto merged = store->Load();
  if (!merged.ok()) {
    std::fprintf(stderr, "%s\n", merged.status().ToString().c_str());
    return 1;
  }
  if (auto s = compress::SaveCorpus(*merged, out_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

int CmdCompress(int argc, char** argv) {
  if (argc < 4) return Usage();
  compress::ParallelCompressOptions popts;
  popts.threads = 1;  // sequential unless asked; bytes match Compress()
  bool append = false;
  bool notify = false;
  bool print_stats = false;
  std::vector<compress::InputFile> files;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    bool ok = true;
    if (arg.rfind("--threads=", 0) == 0) {
      ok = ParseNumber(arg.substr(10), &popts.threads, {.min = 1});
    } else if (arg.rfind("--chunks=", 0) == 0) {
      ok = ParseNumber(arg.substr(9), &popts.chunks, {.min = 1});
    } else if (arg == "--append") {
      append = true;
    } else if (arg == "--notify") {
      notify = true;
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      std::ifstream in(argv[i]);
      if (!in) {
        std::fprintf(stderr, "cannot read %s\n", argv[i]);
        return 1;
      }
      std::ostringstream text;
      text << in.rdbuf();
      files.push_back({argv[i], text.str()});
    }
    if (!ok) return Usage();
  }
  if (files.empty()) return Usage();
  if (notify && !append) return Usage();  // hook fires on durable commit

  compress::ParallelCompressStats pstats;
  if (append) {
    if (int rc = CmdCompressAppend(argv[2], files, popts, notify, &pstats);
        rc != 0) {
      return rc;
    }
  } else {
    auto corpus = compress::ParallelCompress(files, popts, &pstats);
    if (!corpus.ok()) {
      std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
      return 1;
    }
    if (auto s = compress::SaveCorpus(*corpus, argv[2]); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }

  auto saved = compress::LoadCorpus(argv[2]);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.status().ToString().c_str());
    return 1;
  }
  const auto stats = compress::ComputeStats(saved->grammar);
  std::printf("%s: %u files, %llu tokens -> %llu rules (%llu symbols, "
              "%.2f:1)\n",
              argv[2], saved->num_files(),
              (unsigned long long)stats.expanded_tokens,
              (unsigned long long)stats.num_rules,
              (unsigned long long)stats.total_symbols,
              stats.compression_ratio);
  if (print_stats) {
    PrintStat("threads", pstats.threads);
    PrintStat("chunks", pstats.chunks);
    PrintStat("merged_rules", pstats.merged_rules);
    PrintStat("deduped_rules", pstats.deduped_rules);
    PrintStat("append_epochs", pstats.append_epochs);
  }
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc != 3) return Usage();
  auto corpus = LoadOrFail(argv[2]);
  if (!corpus.ok()) return 1;
  const auto stats = compress::ComputeStats(corpus->grammar);
  std::printf("files:        %u\n", corpus->num_files());
  std::printf("rules:        %s\n",
              WithThousandsSeparators(stats.num_rules).c_str());
  std::printf("vocabulary:   %s\n",
              WithThousandsSeparators(corpus->dict.vocabulary_size()).c_str());
  std::printf("tokens:       %s\n",
              WithThousandsSeparators(stats.expanded_tokens).c_str());
  std::printf("symbols:      %s\n",
              WithThousandsSeparators(stats.total_symbols).c_str());
  std::printf("root length:  %s\n",
              WithThousandsSeparators(stats.root_length).c_str());
  std::printf("max rule len: %s\n",
              WithThousandsSeparators(stats.max_rule_length).c_str());
  std::printf("compression:  %.2f:1\n", stats.compression_ratio);
  return 0;
}

int CmdExtract(int argc, char** argv) {
  if (argc != 4 && argc != 6) return Usage();
  uint32_t file = 0;
  uint64_t offset = 0;
  uint64_t count = 0;
  if (!ParseNumber(argv[3], &file) ||
      (argc == 6 &&
       (!ParseNumber(argv[4], &offset) || !ParseNumber(argv[5], &count)))) {
    return Usage();
  }
  auto corpus = LoadOrFail(argv[2]);
  if (!corpus.ok()) return 1;
  compress::RandomAccessReader reader(&*corpus);
  auto len = reader.FileLength(file);
  if (!len.ok()) {
    std::fprintf(stderr, "%s\n", len.status().ToString().c_str());
    return 1;
  }
  if (argc == 4) count = *len;
  auto text = reader.ExtractText(file, offset, count);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", text->c_str());
  return 0;
}

int CmdRun(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto corpus = LoadOrFail(argv[2]);
  if (!corpus.ok()) return 1;

  tadoc::Task task;
  const std::string task_name = argv[3];
  if (task_name == "wordcount") {
    task = tadoc::Task::kWordCount;
  } else if (task_name == "sort") {
    task = tadoc::Task::kSort;
  } else if (task_name == "termvector") {
    task = tadoc::Task::kTermVector;
  } else if (task_name == "invertedindex") {
    task = tadoc::Task::kInvertedIndex;
  } else if (task_name == "sequencecount") {
    task = tadoc::Task::kSequenceCount;
  } else if (task_name == "rankedindex") {
    task = tadoc::Task::kRankedInvertedIndex;
  } else {
    return Usage();
  }

  nvm::DeviceProfile profile = nvm::OptaneProfile();
  core::NTadocOptions engine_opts;
  tadoc::AnalyticsOptions opts;
  uint64_t limit = 10;
  bool persist_check = false;
  bool show_stats = false;
  std::string tiers_spec;
  int64_t tier_budget_mb = -1;
  int migrate = -1;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    bool ok = true;
    if (arg == "--persist-check") {
      persist_check = true;
    } else if (arg == "--stats") {
      show_stats = true;
    } else if (arg.rfind("--medium=", 0) == 0) {
      ok = ParseMedium(arg.substr(9), &profile);
    } else if (arg.rfind("--persistence=", 0) == 0) {
      auto mode = core::ParsePersistenceMode(arg.substr(14));
      if (!mode.ok()) return Usage();
      engine_opts.persistence = *mode;
    } else if (arg.rfind("--traversal=", 0) == 0) {
      auto strategy = tadoc::ParseTraversalStrategy(arg.substr(12));
      if (!strategy.ok()) return Usage();
      engine_opts.traversal = *strategy;
    } else if (arg.rfind("--ngram=", 0) == 0) {
      ok = ParseNumber(arg.substr(8), &opts.ngram);
    } else if (arg.rfind("--topk=", 0) == 0) {
      ok = ParseNumber(arg.substr(7), &opts.top_k);
    } else if (arg.rfind("--limit=", 0) == 0) {
      ok = ParseNumber(arg.substr(8), &limit);
    } else if (arg.rfind("--commit-interval=", 0) == 0) {
      ok = ParseNumber(arg.substr(18), &engine_opts.commit_interval,
                       {.min = 1});
    } else if (arg.rfind("--dram-cache-mb=", 0) == 0) {
      ok = ParseNumber(arg.substr(16), &engine_opts.dram_cache_bytes,
                       {.unit = 1ull << 20});
    } else if (arg.rfind("--tiers=", 0) == 0) {
      tiers_spec = arg.substr(8);
    } else if (arg.rfind("--tier-budget-mb=", 0) == 0) {
      ok = ParseNumber(arg.substr(17), &tier_budget_mb);
    } else if (arg.rfind("--migrate=", 0) == 0) {
      ok = ParseNumber(arg.substr(10), &migrate, {.max = 1});
    } else {
      return Usage();
    }
    if (!ok) return Usage();
  }
  {
    auto tiering = BuildTierConfig(tiers_spec, tier_budget_mb, migrate);
    if (!tiering.ok()) {
      std::fprintf(stderr, "%s\n", tiering.status().ToString().c_str());
      return Usage();
    }
    engine_opts.tiering = std::move(*tiering);
  }

  nvm::DeviceOptions dev_opts;
  dev_opts.capacity = std::max<uint64_t>(
      256ull << 20, corpus->grammar.ExpandedLength() * 48);
  dev_opts.profile = profile;
  if (persist_check) {
    // Strict mode gives the checker a faithful crash model to audit.
    dev_opts.persist_check = true;
    dev_opts.strict_persistence = true;
  }
  auto device = nvm::NvmDevice::Create(dev_opts);
  if (!device.ok()) {
    std::fprintf(stderr, "%s\n", device.status().ToString().c_str());
    return 1;
  }
  core::NTadocEngine engine(&*corpus, device->get(), engine_opts);
  tadoc::RunMetrics metrics;
  auto out = engine.Run(task, opts, &metrics);
  if (!out.ok()) {
    std::fprintf(stderr, "%s\n", out.status().ToString().c_str());
    return 1;
  }

  auto spell_gram = [&](const tadoc::NgramKey& k) {
    std::string s;
    for (uint32_t i = 0; i < opts.ngram; ++i) {
      if (i > 0) s.push_back(' ');
      s += corpus->dict.Spell(k.words[i]);
    }
    return s;
  };
  uint64_t shown = 0;
  switch (task) {
    case tadoc::Task::kWordCount:
      for (const auto& [w, c] : out->word_counts) {
        if (shown++ >= limit) break;
        std::printf("%-24s %llu\n", corpus->dict.Spell(w).c_str(),
                    (unsigned long long)c);
      }
      break;
    case tadoc::Task::kSort:
      for (const auto& [w, c] : out->sorted_words) {
        if (shown++ >= limit) break;
        std::printf("%-24s %llu\n", w.c_str(), (unsigned long long)c);
      }
      break;
    case tadoc::Task::kTermVector:
      for (uint32_t f = 0; f < out->term_vectors.size() && f < limit; ++f) {
        std::printf("%s:", corpus->file_names[f].c_str());
        for (const auto& [w, c] : out->term_vectors[f]) {
          std::printf(" %s(%llu)", corpus->dict.Spell(w).c_str(),
                      (unsigned long long)c);
        }
        std::printf("\n");
      }
      break;
    case tadoc::Task::kInvertedIndex:
      for (const auto& [w, files] : out->inverted_index) {
        if (shown++ >= limit) break;
        std::printf("%-24s %zu files\n", corpus->dict.Spell(w).c_str(),
                    files.size());
      }
      break;
    case tadoc::Task::kSequenceCount:
      for (const auto& [k, c] : out->sequence_counts) {
        if (shown++ >= limit) break;
        std::printf("%-40s %llu\n", spell_gram(k).c_str(),
                    (unsigned long long)c);
      }
      break;
    case tadoc::Task::kRankedInvertedIndex:
      for (const auto& [k, postings] : out->ranked_index) {
        if (shown++ >= limit) break;
        std::printf("%-40s %zu files, top file %u (%llu)\n",
                    spell_gram(k).c_str(), postings.size(),
                    postings.empty() ? 0 : postings.front().first,
                    (unsigned long long)(postings.empty()
                                             ? 0
                                             : postings.front().second));
      }
      break;
  }
  std::fprintf(stderr,
               "[%s on %s, %s persistence] init %s + traversal %s "
               "(simulated device time %s)\n",
               tadoc::TaskToString(task), profile.name.c_str(),
               core::PersistenceModeToString(engine_opts.persistence),
               HumanDuration(metrics.init_wall_ns + metrics.init_sim_ns)
                   .c_str(),
               HumanDuration(metrics.traversal_wall_ns +
                             metrics.traversal_sim_ns)
                   .c_str(),
               HumanDuration(metrics.TotalSimNs()).c_str());
  if (engine_opts.dram_cache_bytes > 0) {
    std::fprintf(
        stderr, "[rule cache] %llu hits, %llu misses\n",
        (unsigned long long)engine.run_info().rule_cache_hits,
        (unsigned long long)engine.run_info().rule_cache_misses);
  }
  if (show_stats) {
    // Every run counter in list order (NTADOC_RUN_COUNTERS), then the
    // run's levels; resident bytes are keyed by medium in MediumKind
    // order (zero without --tiers=).
    const core::NTadocRunInfo& info = engine.run_info();
    info.ForEach(PrintStat);
    PrintStat("pool_used_bytes", info.pool_used_bytes);
    PrintStat("resumed_at_step", info.resumed_at_step);
    std::printf("completeness=%.6f\n", info.completeness);
    PrintStat("tier_resident_dram", info.tier_resident_bytes[0]);
    PrintStat("tier_resident_nvm", info.tier_resident_bytes[1]);
    PrintStat("tier_resident_ssd", info.tier_resident_bytes[2]);
    PrintStat("tier_resident_hdd", info.tier_resident_bytes[3]);
  }
  if (const nvm::PersistCheck* check = (*device)->persist_check()) {
    std::fprintf(stderr, "%s", check->report().ToString().c_str());
    if (!check->report().empty()) return 1;
  }
  return 0;
}

int CmdServe(int argc, char** argv) {
  if (argc < 3) return Usage();
  auto corpus = LoadOrFail(argv[2]);
  if (!corpus.ok()) return 1;

  serve::SealOptions seal_opts;
  serve::ServingOptions serving_opts;
  uint32_t queries = 12;
  uint32_t refresh_every = 0;
  bool show_stats = false;
  std::string tiers_spec;
  int64_t tier_budget_mb = -1;
  int migrate = -1;
  std::vector<compress::InputFile> refresh_files;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    bool ok = true;
    if (arg == "--stats") {
      show_stats = true;
    } else if (arg.rfind("--refresh-every=", 0) == 0) {
      ok = ParseNumber(arg.substr(16), &refresh_every, {.min = 1});
    } else if (arg.rfind("--workers=", 0) == 0) {
      ok = ParseNumber(arg.substr(10), &serving_opts.workers);
    } else if (arg.rfind("--queries=", 0) == 0) {
      ok = ParseNumber(arg.substr(10), &queries);
    } else if (arg.rfind("--deadline-us=", 0) == 0) {
      ok = ParseNumber(arg.substr(14), &serving_opts.default_deadline_sim_ns,
                       {.unit = 1000});
    } else if (arg.rfind("--shared-cache-mb=", 0) == 0) {
      ok = ParseNumber(arg.substr(18), &serving_opts.shared_cache_bytes,
                       {.unit = 1ull << 20});
    } else if (arg.rfind("--medium=", 0) == 0) {
      ok = ParseMedium(arg.substr(9), &seal_opts.profile);
    } else if (arg.rfind("--persistence=", 0) == 0) {
      auto mode = core::ParsePersistenceMode(arg.substr(14));
      if (!mode.ok()) return Usage();
      seal_opts.engine.persistence = *mode;
    } else if (arg.rfind("--tiers=", 0) == 0) {
      tiers_spec = arg.substr(8);
    } else if (arg.rfind("--tier-budget-mb=", 0) == 0) {
      ok = ParseNumber(arg.substr(17), &tier_budget_mb);
    } else if (arg.rfind("--migrate=", 0) == 0) {
      ok = ParseNumber(arg.substr(10), &migrate, {.max = 1});
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      // Positional arguments after the container are refresh files: new
      // corpus content to append during serving.
      std::ifstream in(argv[i]);
      if (!in) {
        std::fprintf(stderr, "cannot read %s\n", argv[i]);
        return 1;
      }
      std::ostringstream text;
      text << in.rdbuf();
      refresh_files.push_back({argv[i], text.str()});
    }
    if (!ok) return Usage();
  }
  if (refresh_every != 0 && refresh_files.empty()) return Usage();
  {
    auto tiering = BuildTierConfig(tiers_spec, tier_budget_mb, migrate);
    if (!tiering.ok()) {
      std::fprintf(stderr, "%s\n", tiering.status().ToString().c_str());
      return Usage();
    }
    seal_opts.engine.tiering = std::move(*tiering);
  }

  // With refresh enabled, the corpus lives in a durable ContainerStore
  // on its own emulated device: the refresher stages and commits there
  // while the fleet serves sealed generations.
  std::unique_ptr<nvm::NvmDevice> store_device;
  std::unique_ptr<core::ContainerStore> store;
  if (refresh_every != 0) {
    uint64_t new_bytes = 0;
    for (const auto& f : refresh_files) new_bytes += f.content.size();
    const uint64_t slot_bytes =
        (compress::SerializeCorpus(*corpus).size() + new_bytes + 8192) &
        ~63ull;
    core::ContainerStoreOptions csopts;
    const uint64_t region = 2 * 64 + csopts.log_bytes + 2 * slot_bytes;
    nvm::DeviceOptions dopts;
    dopts.capacity = region + 4096;
    auto device = nvm::NvmDevice::Create(dopts);
    if (!device.ok()) {
      std::fprintf(stderr, "%s\n", device.status().ToString().c_str());
      return 1;
    }
    store_device = std::move(*device);
    auto made = core::ContainerStore::Create(store_device.get(), 0, region,
                                             *corpus, csopts);
    if (!made.ok()) {
      std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
      return 1;
    }
    store = std::make_unique<core::ContainerStore>(std::move(*made));
    seal_opts.engine.container_generation = store->generation();
  }

  seal_opts.capacity = std::max<uint64_t>(
      256ull << 20, corpus->grammar.ExpandedLength() * 48);
  serving_opts.queue_capacity = std::max(serving_opts.queue_capacity,
                                         queries);
  auto sealed = serve::SealPool(&*corpus, seal_opts);
  if (!sealed.ok()) {
    std::fprintf(stderr, "%s\n", sealed.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[sealed pool on %s: %s sim, image %s]\n",
               seal_opts.profile.name.c_str(),
               HumanDuration(sealed->seal_sim_ns).c_str(),
               WithThousandsSeparators(sealed->image->size()).c_str());

  serve::ServingEngine server(&*sealed, serving_opts);
  std::unique_ptr<serve::CorpusRefresher> refresher;
  if (store != nullptr) {
    serve::RefreshOptions ropts;
    ropts.compress.threads = 1;  // deterministic merged bytes
    refresher = std::make_unique<serve::CorpusRefresher>(store.get(),
                                                         &server, ropts);
  }

  std::vector<uint64_t> tickets;
  size_t next_refresh = 0;
  for (uint32_t i = 0; i < queries; ++i) {
    serve::QueryRequest req;
    req.task = tadoc::kAllTasks[i % tadoc::kAllTasks.size()];
    auto t = server.Submit(std::move(req));
    if (!t.ok()) {
      std::fprintf(stderr, "submit %u: %s\n", i,
                   t.status().ToString().c_str());
      continue;
    }
    tickets.push_back(*t);
    // Every K submitted queries, append the next refresh file and cut
    // the fleet over to the new generation while it keeps answering.
    if (refresher != nullptr && (i + 1) % refresh_every == 0 &&
        next_refresh < refresh_files.size()) {
      std::vector<compress::InputFile> one{refresh_files[next_refresh++]};
      if (auto s = refresher->Refresh(one); s.ok()) {
        std::fprintf(stderr, "[refresh -> generation %llu]\n",
                     (unsigned long long)server.current_generation());
      } else {
        std::fprintf(stderr, "[refresh aborted: %s]\n",
                     s.ToString().c_str());
      }
    }
  }
  server.Drain();
  server.WaitGenerationDrained();

  for (uint64_t t : tickets) {
    const serve::QueryResult& r = server.result(t);
    std::printf("query %llu  %-22s worker %u  %-12s latency %s%s\n",
                (unsigned long long)t, tadoc::TaskToString(r.output.task),
                r.worker,
                r.status.ok() ? "ok"
                              : StatusCodeToString(r.status.code()),
                HumanDuration(r.latency_sim_ns).c_str(),
                r.info.degraded_queries > 0 ? "  (degraded)" : "");
  }
  const serve::ServingStats st = server.stats();
  const uint64_t makespan = server.makespan_sim_ns();
  std::fprintf(stderr,
               "[%u workers, %zu queries] makespan %s sim, %.1f q/s sim\n",
               server.workers(), tickets.size(),
               HumanDuration(makespan).c_str(),
               makespan > 0 ? tickets.size() * 1e9 / makespan : 0.0);
  if (show_stats) {
    PrintStat("submitted", st.submitted);
    PrintStat("accepted", st.accepted);
    PrintStat("rejected_queue_full", st.rejected_queue_full);
    PrintStat("shed", st.shed);
    PrintStat("completed", st.completed);
    PrintStat("failed", st.failed);
    PrintStat("deadline_expired", st.deadline_expired);
    PrintStat("degraded", st.degraded);
    PrintStat("stolen", st.stolen);
    PrintStat("max_queue_depth", st.max_queue_depth);
    // Refresh counters are always emitted (0 when no refresh ran) so
    // scripts can rely on the keys being present.
    PrintStat("generations_published", st.generations_published);
    PrintStat("drained_sessions", st.drained_sessions);
    const serve::RefreshStats rs =
        refresher != nullptr ? refresher->stats() : serve::RefreshStats{};
    PrintStat("refresh_retries", rs.refresh_retries);
    PrintStat("refresh_aborts", rs.refresh_aborts);
    PrintStat("degraded_refreshes", rs.degraded_refreshes);
    // Every run counter, summed over the finished sessions.
    st.sessions.ForEach(PrintStat);
  }
  return st.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "compress") return CmdCompress(argc, argv);
  if (cmd == "stats") return CmdStats(argc, argv);
  if (cmd == "extract") return CmdExtract(argc, argv);
  if (cmd == "run") return CmdRun(argc, argv);
  if (cmd == "serve") return CmdServe(argc, argv);
  return Usage();
}
