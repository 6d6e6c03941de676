#!/usr/bin/env bash
# Holds every gate of tools/bench_gates.sh to a passing and a failing
# input without running a bench:
#   * the committed records (BENCH_pr8/9/10.json) and the sim baseline
#     pass the gates that read them, and the baseline passes the drift
#     gate against itself;
#   * one doctored row set per threshold and per missing-row check fails
#     with that gate's message. Each doctored value lies just past its
#     threshold, so a loosened threshold lets it pass and fails the test.
# The wall gate has no committed record, so it starts from a small
# passing row set of its own.
#
# Usage: tests/bench_gates_test.sh
set -euo pipefail
# pass and fail below run as the last command of a pipeline and must set
# $fails in this shell.
shopt -s lastpipe
cd "$(dirname "$0")/.."
source tools/bench_gates.sh

BASELINE=tools/bench_baseline_sim.txt
SERVE=$(bench_rows BENCH_pr9.json)
INGEST=$(bench_rows BENCH_pr8.json)
TIER=$(bench_rows BENCH_pr10.json)
HOT=$(cat "$BASELINE")
WALL=$(for task in word_count sort; do
  printf 'bench=hotpath row=run task=%s persistence=operation-level variant=%s traversal_wall_ns=%s\n' \
    "$task" std 20000000 "$task" ci8 15000000 "$task" ci8-tiered 18000000
done)
fails=0

# edit SEL FIELD VALUE: in the key=value rows on stdin that hold every
# key=value pair of SEL, sets FIELD to VALUE, or drops the row if VALUE
# is "-".
edit() {
  awk -v sel="$1" -v field="$2" -v value="$3" '
    {
      n = split(sel, s, " "); hit = 1
      for (i = 1; i <= n; ++i) if (index(" " $0 " ", " " s[i] " ") == 0) hit = 0
    }
    hit && value == "-" { next }
    hit { for (i = 1; i <= NF; ++i) if (index($i, field "=") == 1) $i = field "=" value }
    { print }'
}

# pass GATE [ARG]: GATE accepts the rows on stdin.
pass() {
  local out
  if ! out=$("$@" 2>&1); then
    echo "FAIL: $* rejects its passing input:" >&2
    echo "$out" >&2
    fails=1
  fi
}

# fail MESSAGE GATE [ARG]: GATE rejects the rows on stdin and says
# MESSAGE.
fail() {
  local want=$1 out
  shift
  if out=$("$@" 2>&1); then
    echo "FAIL: $* accepts rows that should fail with '$want'" >&2
    fails=1
  elif [[ "$out" != *"$want"* ]]; then
    echo "FAIL: $* fails without '$want':" >&2
    echo "$out" >&2
    fails=1
  fi
}

# Epoch commit, rule cache and RunBatch init reuse, on the baseline.
OP="persistence=operation-level"
pass gate_hotpath_sim <<<"$HOT"
edit "task=word_count $OP variant=ci8" traversal_sim_ns 2096441 <<<"$HOT" |
  fail "epoch commit <2x on word_count" gate_hotpath_sim
edit "task=sequence_count $OP variant=ci8" traversal_sim_ns 6097034 <<<"$HOT" |
  fail "epoch commit <1.8x on sequence_count" gate_hotpath_sim
edit "task=sort $OP variant=ci8" traversal_sim_ns - <<<"$HOT" |
  fail "missing operation-level std/ci8 rows for sort" gate_hotpath_sim
edit "task=sequence_count $OP variant=std" init_sim_ns - <<<"$HOT" |
  fail "missing operation-level std/ci8 rows for sequence_count" gate_hotpath_sim
edit "task=word_count persistence=none variant=std dram_cache_mb=8" \
    traversal_sim_ns 714206 <<<"$HOT" |
  fail "dram cache regresses on word_count" gate_hotpath_sim
edit "task=sort persistence=none variant=std dram_cache_mb=8" \
    init_sim_ns 825472 <<<"$HOT" |
  fail "dram cache regresses on sort" gate_hotpath_sim
edit "task=sequence_count persistence=none variant=batch" init_sim_ns 4769589 \
    <<<"$HOT" |
  fail "batch init reuse too weak in mode none" gate_hotpath_sim
edit "task=sort persistence=phase-level variant=batch" init_sim_ns - <<<"$HOT" |
  fail "missing batch rows for mode phase-level" gate_hotpath_sim

# Epoch and tier routing wall ratios.
pass gate_hotpath_wall <<<"$WALL"
edit "task=word_count variant=ci8" traversal_wall_ns 22000001 <<<"$WALL" |
  fail "epoch commit >1.1x per-step wall on word_count" gate_hotpath_wall
edit "task=sort variant=ci8-tiered" traversal_wall_ns 21000001 <<<"$WALL" |
  fail "tier routing >1.4x untiered ci8 wall on sort" gate_hotpath_wall
edit "task=word_count variant=std" traversal_wall_ns 9999999 <<<"$WALL" |
  fail "word_count per-step traversal 9999999 ns < 10 ms" gate_hotpath_wall
edit "task=sort variant=ci8-tiered" traversal_wall_ns - <<<"$WALL" |
  fail "missing operation-level std/ci8/ci8-tiered wall rows for sort" \
    gate_hotpath_wall

# Serving scaling and fault-mix tails.
pass gate_serving <<<"$SERVE"
edit "row=fleet workers=16 fault_pct=0" qps_sim 976.46 <<<"$SERVE" |
  fail "serving scaling <3x" gate_serving
edit "row=fleet workers=4 fault_pct=25" p99_sim_ns 13987881 <<<"$SERVE" |
  fail "fault p99 unbounded at N=4" gate_serving
edit "row=fleet workers=1 fault_pct=0" qps_sim - <<<"$SERVE" |
  fail "missing serving rows" gate_serving
edit "row=fleet workers=4 fault_pct=0" qps_sim - <<<"$SERVE" |
  fail "missing clean row for N=4" gate_serving

# Refresh under load.
pass gate_refresh <<<"$SERVE"
edit "row=refresh" p99_sim_ns 10490911 <<<"$SERVE" |
  fail "refresh p99 10490911 exceeds 1.5x no-refresh p99" gate_refresh
edit "row=refresh" failed 1 <<<"$SERVE" |
  fail "1 queries failed across cutover" gate_refresh
edit "row=refresh" generations_published 0 <<<"$SERVE" |
  fail "no generation published" gate_refresh
edit "row=refresh" failed - <<<"$SERVE" |
  fail "missing refresh row" gate_refresh

# Chunk-parallel ingest.
pass gate_ingest <<<"$INGEST"
edit "row=compress dataset=D threads=8" container_bytes 1869030 <<<"$INGEST" |
  fail "chunked container >5% larger" gate_ingest
edit "row=compress dataset=D threads=8" lane_makespan_ns 1142482571 \
    <<<"$INGEST" |
  fail "ingest lane makespan <2x: t1 2284965141, t8 1142482571" gate_ingest
edit "row=compress dataset=D threads=1" threads - <<<"$INGEST" |
  fail "missing ingest rows for threads=1/8" gate_ingest

# Tiered placement.
pass gate_tiering <<<"$TIER"
edit "row=curve task=word_count budget_pct=40" tiered_sim_ns 7933949 \
    <<<"$TIER" |
  fail "tiered@40% >1.2x all-NVM on C/word_count" gate_tiering
edit "row=curve task=sequence_count budget_pct=40" top_resident_bytes 1163517 \
    <<<"$TIER" |
  fail "top-tier residency over budget on C/sequence_count" gate_tiering
edit "row=migration" off_sim_ns 19369069 <<<"$TIER" |
  fail "online migration <1.3x frozen placement on C" gate_tiering
edit "row=curve budget_pct=40" task - <<<"$TIER" |
  fail "missing curve rows at budget 40%" gate_tiering
edit "row=migration" runs - <<<"$TIER" |
  fail "missing migration row" gate_tiering

# Sim clock drift against the baseline.
pass gate_drift "$BASELINE" <"$BASELINE"
edit "row=kernel kernel=status_scan" sim_ns 519183442 <"$BASELINE" |
  fail "drift >1% at bench=hotpath row=kernel kernel=status_scan" \
    gate_drift "$BASELINE"
{ cat "$BASELINE"; echo "bench=hotpath row=kernel kernel=new_scan sim_ns=1"; } |
  fail "new entry: bench=hotpath row=kernel kernel=new_scan" \
    gate_drift "$BASELINE"
edit "row=kernel kernel=payload_sweep" sim_ns - <"$BASELINE" |
  fail "missing entry: bench=hotpath row=kernel kernel=payload_sweep" \
    gate_drift "$BASELINE"

# The reader is exact on both row sources: a --json array and stdout.
[[ "$(bench_rows BENCH_pr9.json | wc -l)" == 7 ]] ||
  { echo "FAIL: bench_rows BENCH_pr9.json does not give 7 rows" >&2; fails=1; }
[[ "$(printf 'table\n%s\n' '{"bench": "x", "row": "y", "scale": 0.5}' |
      bench_rows)" == "bench=x row=y scale=0.5" ]] ||
  { echo "FAIL: bench_rows misreads a stdout row" >&2; fails=1; }

exit "$fails"
