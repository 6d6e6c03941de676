// Reproduces Table I: dataset statistics (file #, rule #, vocabulary
// size), extended with compression figures for the synthetic analogues.
// Shape targets: A = 1 file, B = many small files, C = 4 documents, D =
// the largest corpus (paper Table I: 1 / 134,631 / 4 / 109 files).
//
// Result rows (bench_common.h's row format, bench "table1"):
//   cell     files, rules, vocabulary, tokens, raw_bytes (the generated
//            text), compression_x (expanded over compressed symbols)
//   summary  compression_x, the geometric mean over the datasets

#include "bench/bench_common.h"
#include "compress/grammar.h"

int main(int argc, char** argv) {
  using namespace ntadoc;
  using namespace ntadoc::bench;
  const BenchConfig config = ParseArgs(argc, argv);
  const auto datasets = LoadDatasets(config);
  RowSink sink("table1", config);

  std::vector<double> compression;
  for (const auto& d : datasets) {
    const auto stats = compress::ComputeStats(d.corpus.grammar);
    compression.push_back(stats.compression_ratio);
    sink.Emit(sink.Start("cell", d.spec.name)
                  .Num("files", d.corpus.num_files())
                  .Num("rules", stats.num_rules)
                  .Num("vocabulary", d.corpus.dict.vocabulary_size())
                  .Num("tokens", stats.expanded_tokens)
                  .Num("raw_bytes", d.raw_text_bytes)
                  .Real("compression_x", stats.compression_ratio, 2));
  }
  sink.Emit(sink.Start("summary", DatasetNames(datasets))
                .Real("compression_x", GeoMean(compression), 2));
  return sink.Finish();
}
