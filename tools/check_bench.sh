#!/usr/bin/env bash
# Bench smoke + relational perf gates. Runs bench_hotpath, bench_serving,
# bench_ingest, bench_tiering and the ten paper benches at small fixed
# scales and holds their result rows (bench_common.h's row format) to
# the gates in tools/bench_gates.sh, which say what each gate checks and
# why:
#   * bench_hotpath at scale 0.05: epoch group commit, rule cache and
#     RunBatch init reuse on the sim clock (gate_hotpath_sim), and every
#     sim clock within 1% of the committed tools/bench_baseline_sim.txt,
#     where a row appearing or disappearing also fails (gate_drift);
#   * bench_hotpath at scale 0.25, seven runs of 3 repeats of the
#     word_count and sort rows alone (--tasks=): the median of each run's
#     epoch and tier routing traversal wall ratios (gate_hotpath_wall);
#   * bench_serving at scale 0.05: fleet scaling and fault-mix tails
#     (gate_serving), and the refresh-under-load cutover (gate_refresh);
#   * bench_ingest on dataset D at scale 1.0 (container bytes are only
#     deterministic at full scale), 3 repeats of which the lowest-wall
#     run's lane model counts, so one contended run cannot decide it:
#     lane makespan and container size (gate_ingest);
#   * bench_tiering at scale 0.05: the 40% budget and migration
#     (gate_tiering);
#   * every paper bench at scale 0.05 (bench_table1_datasets ...
#     bench_medium_migration): a summary row (gate_stdout); the paper's
#     qualitative claims on the sim
#     clock: DRAM TADOC's sim below N-TADOC's in every cell of Fig. 6
#     (gate_fig6), phase-level above operation-level speedup in Fig. 5
#     (gate_fig5), NVM < SSD < HDD in every cell of Fig. 7 (gate_fig7),
#     and on C the traversal speedup above the overall one in Table II
#     (gate_table2).
# Every bench's stdout must be result rows only (gate_stdout).
# The committed records BENCH_pr8.json, BENCH_pr9.json and
# BENCH_pr10.json are held to the same gates as the live rows, so a stale
# or hand-edited record cannot pass. Absolute wall-clock times are
# machine-dependent and are never compared with a baseline; the wall
# gates are ratios of rows of the same run.
#
# Every live row gated is kept in $BUILD_DIR/bench_rows.jsonl, one row
# per line.
#
# Refresh the baseline after an *intentional* cost-model change with:
#   tools/check_bench.sh --update
# which still runs every gate before it writes the baseline.
set -euo pipefail
cd "$(dirname "$0")/.."
source tools/bench_gates.sh

BUILD_DIR=${BUILD_DIR:-build}
BASELINE=tools/bench_baseline_sim.txt
ROWS="$BUILD_DIR/bench_rows.jsonl"
UPDATE=0
[[ "${1:-}" == "--update" ]] && UPDATE=1

PAPER_BENCHES="bench_table1_datasets bench_fig5_speedup bench_fig6_dram_gap
  bench_fig7_ssd_hdd bench_dram_savings bench_table2_breakdown
  bench_traversal_opt bench_cross_eval bench_ablation bench_medium_migration"
cmake --build "$BUILD_DIR" -j \
    --target bench_hotpath bench_serving bench_ingest bench_tiering \
    $PAPER_BENCHES >/dev/null
: > "$ROWS"

# live BENCH FLAG...: runs BENCH on the smoke cache, stops unless its
# stdout is result rows only (gate_stdout), keeps its rows in $ROWS and
# prints them as key=value lines.
live() {
  local out
  out=$("$BUILD_DIR/bench/$1" --cache-dir="$BUILD_DIR/bench_smoke_cache" "${@:2}")
  gate gate_stdout "$1 stdout" <<<"$out"
  tee -a "$ROWS" <<<"$out" | bench_rows
}

# paper BENCH: live BENCH at scale 0.05, which must also write a summary
# row.
paper() {
  local out
  out=$("$BUILD_DIR/bench/$1" --scale=0.05 --cache-dir="$BUILD_DIR/bench_smoke_cache")
  gate gate_stdout "$1 stdout" summary <<<"$out"
  tee -a "$ROWS" <<<"$out" | bench_rows
}

# gate GATE WHAT [ARG]: runs GATE on the rows on stdin and stops, naming
# WHAT, if it fails.
gate() {
  "$1" "${@:3}" || { echo "FAIL: $2" >&2; exit 1; }
}

# committed FILE GATE...: holds the committed record FILE to each GATE.
committed() {
  [[ -f "$1" ]] || { echo "FAIL: missing $1 (run tools/run_bench.sh)" >&2; exit 1; }
  local g
  for g in "${@:2}"; do
    bench_rows "$1" | gate "$g" "$g (committed $1)"
  done
}

HOT=$(live bench_hotpath --scale=0.05 --datasets=C --repeat=1)
gate gate_hotpath_sim "relational perf gates" <<<"$HOT"
echo "perf gates OK: epoch >=2x, cache non-regressing, batch init reuse"

for _ in 1 2 3 4 5 6 7; do
  live bench_hotpath --scale=0.25 --datasets=C --repeat=3 \
    --tasks=word_count,sort
done | gate gate_hotpath_wall "epoch/tiering wall gates"
echo "wall gates OK: median ci8 traversal <=1.1x per-step wall, ci8-tiered <=1.4x ci8"

SERVE=$(live bench_serving --scale=0.05 --datasets=C)
gate gate_serving "serving gates (live run)" <<<"$SERVE"
gate gate_refresh "refresh gates (live run)" <<<"$SERVE"
committed BENCH_pr9.json gate_serving gate_refresh
echo "serving gates OK: N16 >=3x N1 throughput, fault-mix p99 within 2x"
echo "refresh gates OK: cutover p99 within 1.5x, zero failed queries"

live bench_ingest --scale=1.0 --datasets=D --threads-list=1,8 --repeat=3 |
  gate gate_ingest "ingest gates (live run)"
committed BENCH_pr8.json gate_ingest
echo "ingest gates OK: t8 lane makespan >=2x t1, container within 5%"

live bench_tiering --scale=0.05 --datasets=C |
  gate gate_tiering "tiering gates (live run)"
committed BENCH_pr10.json gate_tiering
echo "tiering gates OK: 40% budget within 1.2x all-NVM, migration >=1.3x frozen"

PAPER=$(for bench in $PAPER_BENCHES; do paper "$bench"; done)
echo "paper bench smoke OK: result rows only, a summary row each"
gate gate_fig5 "Fig. 5 sim gate (live run)" <<<"$PAPER"
gate gate_fig6 "Fig. 6 sim gate (live run)" <<<"$PAPER"
gate gate_fig7 "Fig. 7 sim gate (live run)" <<<"$PAPER"
gate gate_table2 "Table II sim gate (live run)" <<<"$PAPER"
echo "paper claim gates OK: Fig. 5 phase > operation, Fig. 6 DRAM < N-TADOC,"
echo "  Fig. 7 NVM < SSD < HDD, Table II traversal > overall on C"

if [[ "$UPDATE" == 1 ]]; then
  baseline_rows <<<"$HOT" > "$BASELINE"
  echo "baseline updated: $BASELINE"
  exit 0
fi
[[ -f "$BASELINE" ]] ||
  { echo "FAIL: missing $BASELINE (run tools/check_bench.sh --update)" >&2; exit 1; }
baseline_rows <<<"$HOT" | gate gate_drift "sim clock drift" "$BASELINE"
echo "bench smoke OK: sim clocks within 1% of baseline"
