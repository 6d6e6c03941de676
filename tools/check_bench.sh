#!/usr/bin/env bash
# Bench smoke + relational perf gates. Runs bench_hotpath, bench_serving,
# bench_ingest and bench_tiering at small fixed scales and holds their
# result rows (bench_common.h's row format) to the gates in
# tools/bench_gates.sh, which say what each gate checks and why:
#   * bench_hotpath at scale 0.05: epoch group commit, rule cache and
#     RunBatch init reuse on the sim clock (gate_hotpath_sim), and every
#     sim clock within 1% of the committed tools/bench_baseline_sim.txt,
#     where a row appearing or disappearing also fails (gate_drift);
#   * bench_hotpath at scale 0.25, minimum of 5 repeats: the epoch and
#     tier routing traversal wall ratios within that one run
#     (gate_hotpath_wall);
#   * bench_serving at scale 0.05: fleet scaling and fault-mix tails
#     (gate_serving), and the refresh-under-load cutover (gate_refresh);
#   * bench_ingest on dataset D at scale 1.0 (container bytes are only
#     deterministic at full scale): lane makespan and container size
#     (gate_ingest);
#   * bench_tiering at scale 0.05: the 40% budget and migration
#     (gate_tiering).
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

cmake --build "$BUILD_DIR" -j \
    --target bench_hotpath bench_serving bench_ingest bench_tiering >/dev/null
: > "$ROWS"

# live BENCH FLAG...: runs BENCH on the smoke cache, keeps its rows in
# $ROWS and prints them as key=value lines.
live() {
  "$BUILD_DIR/bench/$1" --cache-dir="$BUILD_DIR/bench_smoke_cache" "${@:2}" |
    awk '/^\{"bench"/' | tee -a "$ROWS" | bench_rows
}

# gate GATE WHAT [ARG]: runs GATE on the key=value rows on stdin and
# stops, naming WHAT, if it fails.
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

live bench_hotpath --scale=0.25 --datasets=C --repeat=5 |
  gate gate_hotpath_wall "epoch/tiering wall gates"
echo "wall gates OK: ci8 traversal <=1.1x per-step wall, ci8-tiered <=1.4x ci8"

SERVE=$(live bench_serving --scale=0.05 --datasets=C)
gate gate_serving "serving gates (live run)" <<<"$SERVE"
gate gate_refresh "refresh gates (live run)" <<<"$SERVE"
committed BENCH_pr9.json gate_serving gate_refresh
echo "serving gates OK: N16 >=3x N1 throughput, fault-mix p99 within 2x"
echo "refresh gates OK: cutover p99 within 1.5x, zero failed queries"

live bench_ingest --scale=1.0 --datasets=D --threads-list=1,8 --repeat=1 |
  gate gate_ingest "ingest gates (live run)"
committed BENCH_pr8.json gate_ingest
echo "ingest gates OK: t8 lane makespan >=2x t1, container within 5%"

live bench_tiering --scale=0.05 --datasets=C |
  gate gate_tiering "tiering gates (live run)"
committed BENCH_pr10.json gate_tiering
echo "tiering gates OK: 40% budget within 1.2x all-NVM, migration >=1.3x frozen"

if [[ "$UPDATE" == 1 ]]; then
  baseline_rows <<<"$HOT" > "$BASELINE"
  echo "baseline updated: $BASELINE"
  exit 0
fi
[[ -f "$BASELINE" ]] ||
  { echo "FAIL: missing $BASELINE (run tools/check_bench.sh --update)" >&2; exit 1; }
baseline_rows <<<"$HOT" | gate gate_drift "sim clock drift" "$BASELINE"
echo "bench smoke OK: sim clocks within 1% of baseline"
