#!/usr/bin/env bash
# Command-line checks of the bench binaries, none of which runs a bench:
#   * a malformed, out-of-range or unknown flag prints usage on stderr
#     and exits 2;
#   * a flag another bench declares is unknown here;
#   * --help prints usage on stdout and exits 0.
#
# Usage: tests/bench_flags_test.sh <directory of the bench binaries>
set -euo pipefail

BIN=${1:?usage: bench_flags_test.sh <bench binary directory>}
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
fails=0

# expect CODE BENCH FLAG...: BENCH FLAG... exits with CODE and prints a
# usage line (stderr for 2, stdout for 0).
expect() {
  local want=$1 bench=$2 got=0
  shift 2
  "$BIN/$bench" "$@" >"$DIR/out" 2>"$DIR/err" || got=$?
  local stream="$DIR/err"
  [[ "$want" == 0 ]] && stream="$DIR/out"
  if [[ "$got" != "$want" ]] || ! grep -q '^usage: ' "$stream"; then
    echo "FAIL: $bench $*: exit $got (want $want), usage line missing or on the wrong stream" >&2
    fails=1
  fi
}

expect 2 bench_serving --queries=abc
expect 2 bench_ingest --repeat=abc
expect 2 bench_hotpath --scale=abc
expect 2 bench_tiering --datsets=C

expect 2 bench_hotpath --repeat=0
expect 2 bench_serving --queries=0
expect 2 bench_ingest --threads-list=1,0
expect 2 bench_ingest --threads-list=1,x
expect 2 bench_hotpath --scale=0
expect 2 bench_hotpath --scale=-1
expect 2 bench_hotpath --scale=1e2
expect 2 bench_hotpath --dram-cache-mb=17592186044416
expect 2 bench_tiering --datasets=E
expect 2 bench_tiering --device-mb=-5
expect 2 bench_serving --threads=4294967296
expect 2 bench_tiering --json=
expect 2 bench_hotpath --tasks=word_count,bogus
expect 2 bench_hotpath --tasks=
expect 2 bench_hotpath --tasks=,
expect 2 bench_hotpath "--tasks=word count"

expect 2 bench_tiering --queries=8
expect 2 bench_fig5_speedup --json=out.json
expect 2 bench_serving --threads-list=1,8
expect 2 bench_serving --tasks=sort

for bench in bench_hotpath bench_ingest bench_serving bench_tiering \
             bench_table1_datasets bench_fig5_speedup bench_fig6_dram_gap \
             bench_fig7_ssd_hdd bench_dram_savings bench_table2_breakdown \
             bench_traversal_opt bench_cross_eval bench_ablation \
             bench_medium_migration; do
  expect 0 "$bench" --help
done
grep -q -- '--queries=N' <("$BIN/bench_serving" --help) ||
  { echo "FAIL: bench_serving --help does not list --queries=N" >&2; fails=1; }
grep -q -- '--tasks=' <("$BIN/bench_hotpath" --help) ||
  { echo "FAIL: bench_hotpath --help does not list --tasks=" >&2; fails=1; }
if grep -q -- '--queries=' <("$BIN/bench_hotpath" --help); then
  echo "FAIL: bench_hotpath --help lists bench_serving's --queries=" >&2
  fails=1
fi

exit "$fails"
