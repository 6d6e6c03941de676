#!/usr/bin/env bash
# Bench smoke + sim-clock regression gate: runs bench_hotpath at a small
# fixed scale and compares the deterministic simulated-time records (the
# "SIM"/"SIMK" lines) against the committed baseline. Any entry drifting
# more than 1% — or appearing/disappearing — fails. Absolute wall-clock
# times are machine-dependent and are never compared with a baseline;
# the one wall gate below is a ratio of two rows of the same run.
#
# On top of baseline drift, three relational gates run on the current
# output itself (so they hold regardless of baseline refreshes):
#   * epoch group commit: operation-level traversal at commit_interval=8
#     is >=2x cheaper than the per-step protocol on the table-update
#     bound tasks (word_count/sort), >=1.8x on sequence_count (its
#     traversal is dominated by bulk list writes that both protocols
#     flush exactly once, which caps the achievable ratio);
#   * decoded-rule DRAM cache: the cache-8MB rows must not regress
#     against cache-0 beyond 0.2% (admission cannot observe future
#     device-buffer warmth, so a tiny residual is tolerated);
#   * RunBatch: summed over the non-first tasks of each batch config,
#     init sim time is under 60% of the standalone inits (the remainder
#     is per-task persistence flushing and the sequence gram scan).
#
# Epoch wall gate (host time, a ratio within one run, so it holds on any
# host): operation-level traversal at commit_interval=8 costs at most
# 1.1x the wall time of the per-step protocol on word_count and sort.
# bench_hotpath --json at scale 0.25, raw traversal_wall_ns, minimum of 5
# repeats; the per-step rows must take >= 10 ms, or timer noise decides.
# sequence_count stays ungated: bulk list writes, which both protocols
# flush exactly once, bound its traversal.
#
# Chunk-parallel ingest gates (bench_ingest, dataset D at scale 1.0 —
# container bytes are only deterministic at full scale):
#   * threads=8 lane makespan (deterministic LPT model over measured
#     per-chunk compute; raw wall stays ungated per the convention
#     above) is >=2x better than threads=1;
#   * the chunked container stays within 5% of the single-threaded size;
#   * the committed BENCH_pr8.json must satisfy the same two relations.
#
# Refresh-under-load gates (bench_serving's REFRESH row): a generation
# cutover mid-run keeps clean-session p99 within 1.5x of the same run's
# no-refresh p99 with zero failed queries; the committed BENCH_pr9.json
# must satisfy the same relations.
#
# Tiered-placement gates (bench_tiering's TIER/TIERMIG rows): at a 40%
# top-tier budget the tiered run stays within 1.2x of the same run's
# all-NVM sim time while actually honouring the budget (top-tier
# resident <= 40% of registered bytes), and online migration beats
# frozen placement by >=1.3x on the repeated skewed mix; the committed
# BENCH_pr10.json must satisfy the same relations.
#
# Refresh the baseline after an *intentional* cost-model change with:
#   tools/check_bench.sh --update
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
BASELINE=tools/bench_baseline_sim.txt
UPDATE=0
[[ "${1:-}" == "--update" ]] && UPDATE=1

cmake --build "$BUILD_DIR" --target bench_hotpath -j >/dev/null

OUT=$("$BUILD_DIR/bench/bench_hotpath" --scale=0.05 --datasets=C \
        --cache-dir="$BUILD_DIR/bench_smoke_cache" --repeat=1)
CURRENT=$(grep -E '^SIMK? ' <<<"$OUT")

# Relational perf gates (run in --update mode too: a baseline refresh
# must not paper over a lost speedup).
awk '
  $1 == "SIM" { init[$2 " " $3 " " $4 " " $5] = $6; trav[$2 " " $3 " " $4 " " $5] = $7 }
  END {
    bad = 0
    n = split("word_count sort", heavy, " ")
    for (i = 1; i <= n; ++i) {
      t = heavy[i]
      std = trav[t " operation-level std 0"] + 0
      ci = trav[t " operation-level ci8 0"] + 0
      if (std == 0 || ci == 0) { printf "FAIL: missing operation-level std/ci8 rows for %s\n", t; bad = 1 }
      else if (2 * ci > std) { printf "FAIL: epoch commit <2x on %s traversal: std %d, ci8 %d\n", t, std, ci; bad = 1 }
    }
    std = trav["sequence_count operation-level std 0"] + 0
    ci = trav["sequence_count operation-level ci8 0"] + 0
    if (std == 0 || ci == 0) { printf "FAIL: missing operation-level std/ci8 rows for sequence_count\n"; bad = 1 }
    else if (18 * ci > 10 * std) { printf "FAIL: epoch commit <1.8x on sequence_count traversal: std %d, ci8 %d\n", std, ci; bad = 1 }
    for (k in trav) {
      split(k, f, " ")
      if (f[2] == "none" && f[3] == "std" && f[4] == "8") {
        k0 = f[1] " none std 0"
        if (1000 * trav[k] > 1002 * trav[k0] || 1000 * init[k] > 1002 * init[k0]) {
          printf "FAIL: dram cache regresses on %s: cache0 %d/%d, cache8 %d/%d\n", f[1], init[k0], trav[k0], init[k], trav[k]; bad = 1
        }
      }
    }
    nt = split("sort term_vector inverted_index sequence_count ranked_inverted_index", rest, " ")
    nc = split("none:batch:std phase-level:batch:std operation-level:batch-ci8:std", cfgs, " ")
    for (i = 1; i <= nc; ++i) {
      split(cfgs[i], c, ":")
      bsum = 0; ssum = 0; missing = 0
      for (j = 1; j <= nt; ++j) {
        bk = rest[j] " " c[1] " " c[2] " 0"; sk = rest[j] " " c[1] " " c[3] " 0"
        if (!(bk in init) || !(sk in init)) { missing = 1; break }
        bsum += init[bk]; ssum += init[sk]
      }
      if (missing) { printf "FAIL: missing batch rows for mode %s\n", c[1]; bad = 1 }
      else if (10 * bsum > 6 * ssum) { printf "FAIL: batch init reuse too weak in mode %s: batch %d vs standalone %d\n", c[1], bsum, ssum; bad = 1 }
    }
    exit bad ? 1 : 0
  }
' <(printf '%s\n' "$CURRENT") || { echo "FAIL: relational perf gates" >&2; exit 1; }
echo "perf gates OK: epoch >=2x, cache non-regressing, batch init reuse"

# Epoch wall gate (see header).
WALL_JSON="$BUILD_DIR/bench_hotpath_wall.json"
"$BUILD_DIR/bench/bench_hotpath" --scale=0.25 --datasets=C \
    --cache-dir="$BUILD_DIR/bench_smoke_cache" --repeat=5 \
    --json="$WALL_JSON" >/dev/null
sed -n 's/.*"task": "\([a-z_]*\)", "persistence": "operation-level", "variant": "\([a-z0-9]*\)".*"traversal_wall_ns": \([0-9]*\),.*/\1 \2 \3/p' \
    "$WALL_JSON" | awk '
  { wall[$1 " " $2] = $3 }
  END {
    bad = 0
    n = split("word_count sort", heavy, " ")
    for (i = 1; i <= n; ++i) {
      t = heavy[i]
      std = wall[t " std"] + 0
      ci = wall[t " ci8"] + 0
      if (std == 0 || ci == 0) { printf "FAIL: missing operation-level std/ci8 wall rows for %s\n", t; bad = 1 }
      else if (std < 10000000) { printf "FAIL: %s per-step traversal %d ns < 10 ms: raise the scale\n", t, std; bad = 1 }
      else if (10 * ci > 11 * std) { printf "FAIL: epoch commit >1.1x per-step wall on %s traversal: std %d ns, ci8 %d ns\n", t, std, ci; bad = 1 }
      else printf "  %s traversal wall: std %.1f ms, ci8 %.1f ms (%.2fx)\n", t, std / 1e6, ci / 1e6, ci / std
    }
    exit bad ? 1 : 0
  }
' || { echo "FAIL: epoch wall gate" >&2; exit 1; }
echo "epoch wall gate OK: ci8 traversal <=1.1x per-step wall"

# Serving gates (relational, no baseline): concurrent sessions over one
# sealed pool must actually scale, and the fault-isolated escalation
# ladder must keep tail latency bounded. bench_serving's SERVE lines are
#   SERVE <workers> <fault_pct> <queries> <qps> <p50> <p99> <makespan>
# with deterministic simulated timing (round-robin lanes, stealing off):
#   * N=16 workers deliver >=3x the N=1 sim throughput;
#   * at every fleet size, the 25%-fault mix's p99 stays within 2x of
#     the clean p99 (scoped repair, not salvage, absorbs the damage).
cmake --build "$BUILD_DIR" --target bench_serving -j >/dev/null
SERVE_OUT=$("$BUILD_DIR/bench/bench_serving" --scale=0.05 --datasets=C \
        --cache-dir="$BUILD_DIR/bench_smoke_cache")
grep '^SERVE ' <<<"$SERVE_OUT" | awk '
  { qps[$2 " " $3] = $5; p99[$2 " " $3] = $7 }
  END {
    bad = 0
    if (!("1 0" in qps) || !("16 0" in qps)) { print "FAIL: missing serving rows"; bad = 1 }
    else if (qps["16 0"] + 0 < 3 * qps["1 0"]) {
      printf "FAIL: serving scaling <3x: N1 %s, N16 %s\n", qps["1 0"], qps["16 0"]; bad = 1
    }
    for (k in p99) {
      split(k, f, " ")
      if (f[2] == "25") {
        k0 = f[1] " 0"
        if (!(k0 in p99)) { printf "FAIL: missing clean row for N=%s\n", f[1]; bad = 1 }
        else if (p99[k] + 0 > 2 * p99[k0]) {
          printf "FAIL: fault p99 unbounded at N=%s: clean %s, fault %s\n", f[1], p99[k0], p99[k]; bad = 1
        }
      }
    }
    exit bad ? 1 : 0
  }
' || { echo "FAIL: serving gates" >&2; exit 1; }
echo "serving gates OK: N16 >=3x N1 throughput, fault-mix p99 within 2x"

# Refresh-under-load gates (relational): a generation cutover mid-run
# must not blow up clean-session tail latency or fail queries. The
# REFRESH line is
#   REFRESH <workers> <queries> <p99_ns> <baseline_p99_ns> <failed> <generations>
# where baseline_p99 is the same run's clean no-refresh fleet:
#   * clean-session p99 during refresh <= 1.5x the no-refresh p99;
#   * zero failed queries across the cutover;
#   * at least one generation actually published.
check_refresh_row() {
  awk '
    $1 == "REFRESH" {
      bad = 0
      if (2 * $4 > 3 * $5) {
        printf "FAIL: refresh p99 %d exceeds 1.5x no-refresh p99 %d\n", $4, $5
        bad = 1
      }
      if ($6 + 0 != 0) { printf "FAIL: %d queries failed across cutover\n", $6; bad = 1 }
      if ($7 + 0 < 1) { print "FAIL: no generation published during refresh run"; bad = 1 }
      exit bad ? 1 : 0
    }
    END { if (NR == 0) { print "FAIL: missing REFRESH row"; exit 1 } }
  '
}
grep '^REFRESH ' <<<"$SERVE_OUT" | check_refresh_row ||
  { echo "FAIL: refresh gates (live run)" >&2; exit 1; }
if [[ ! -f BENCH_pr9.json ]]; then
  echo "FAIL: missing BENCH_pr9.json (run tools/run_bench.sh)" >&2
  exit 1
fi
sed -n 's/.*"refresh": {"workers": \([0-9]*\), "queries": \([0-9]*\), "p99_sim_ns": \([0-9]*\), "baseline_p99_sim_ns": \([0-9]*\).*"failed": \([0-9]*\), "generations_published": \([0-9]*\).*/REFRESH \1 \2 \3 \4 \5 \6/p' \
    BENCH_pr9.json | check_refresh_row ||
  { echo "FAIL: refresh gates (committed BENCH_pr9.json)" >&2; exit 1; }
echo "refresh gates OK: cutover p99 within 1.5x, zero failed queries"

# Chunk-parallel ingest gates (see header). Live run first, then the
# committed BENCH_pr8.json is held to the same relations so a stale or
# hand-edited record cannot pass.
cmake --build "$BUILD_DIR" --target bench_ingest -j >/dev/null
INGEST_OUT=$("$BUILD_DIR/bench/bench_ingest" --scale=1.0 --datasets=D \
        --threads-list=1,8 --repeat=1 \
        --cache-dir="$BUILD_DIR/bench_smoke_cache")
check_ingest_rows() {
  awk '
    {
      for (i = 1; i <= NF; ++i) {
        n = split($i, a, "="); if (n == 2) kv[a[1]] = a[2]
      }
      bytes[kv["threads"]] = kv["bytes"]
      lane[kv["threads"]] = kv["lane_makespan_ns"]
    }
    END {
      bad = 0
      if (!("1" in bytes) || !("8" in bytes)) {
        print "FAIL: missing ingest rows for threads=1/8"; bad = 1
      } else {
        if (20 * bytes["8"] > 21 * bytes["1"]) {
          printf "FAIL: chunked container >5%% larger: t1 %d, t8 %d\n",
                 bytes["1"], bytes["8"]; bad = 1
        }
        if (lane["1"] + 0 < 2 * lane["8"]) {
          printf "FAIL: ingest lane makespan <2x: t1 %d, t8 %d\n",
                 lane["1"], lane["8"]; bad = 1
        }
      }
      exit bad ? 1 : 0
    }
  '
}
grep '^INGEST ' <<<"$INGEST_OUT" | grep 'dataset=D' | check_ingest_rows ||
  { echo "FAIL: ingest gates (live run)" >&2; exit 1; }
if [[ ! -f BENCH_pr8.json ]]; then
  echo "FAIL: missing BENCH_pr8.json (run tools/run_bench.sh)" >&2
  exit 1
fi
sed -n 's/.*"dataset": "D", "threads": \([0-9]*\).*"bytes": \([0-9]*\).*"lane_makespan_ns": \([0-9]*\).*/threads=\1 bytes=\2 lane_makespan_ns=\3/p' \
    BENCH_pr8.json | check_ingest_rows ||
  { echo "FAIL: ingest gates (committed BENCH_pr8.json)" >&2; exit 1; }
echo "ingest gates OK: t8 lane makespan >=2x t1, container within 5%"

# Tiered-placement gates (relational, see header). The TIER line is
#   TIER <ds> <task> <pct> <tiered_sim> <allnvm_sim> <top_res> <total_res> ...
# and TIERMIG is
#   TIERMIG <ds> <runs> <on_sim> <off_sim> <promotions>
check_tiering_rows() {
  awk '
    $1 == "TIER" && $4 == 40 {
      seen_tier = 1
      if (10 * $5 > 12 * $6) {
        printf "FAIL: tiered@40%% >1.2x all-NVM on %s/%s: tiered %d, nvm %d\n",
               $2, $3, $5, $6; bad = 1
      }
      if (10 * $7 > 4 * $8) {
        printf "FAIL: top-tier residency over budget on %s/%s: %d of %d\n",
               $2, $3, $7, $8; bad = 1
      }
    }
    $1 == "TIERMIG" {
      seen_mig = 1
      if (10 * $5 < 13 * $4) {
        printf "FAIL: online migration <1.3x frozen placement on %s: on %d, off %d\n",
               $2, $4, $5; bad = 1
      }
    }
    END {
      if (!seen_tier) { print "FAIL: missing TIER rows at budget 40%"; bad = 1 }
      if (!seen_mig) { print "FAIL: missing TIERMIG row"; bad = 1 }
      exit bad ? 1 : 0
    }
  '
}
cmake --build "$BUILD_DIR" --target bench_tiering -j >/dev/null
TIER_OUT=$("$BUILD_DIR/bench/bench_tiering" --scale=0.05 --datasets=C \
        --cache-dir="$BUILD_DIR/bench_smoke_cache")
grep -E '^TIER(MIG)? ' <<<"$TIER_OUT" | check_tiering_rows ||
  { echo "FAIL: tiering gates (live run)" >&2; exit 1; }
if [[ ! -f BENCH_pr10.json ]]; then
  echo "FAIL: missing BENCH_pr10.json (run tools/run_bench.sh)" >&2
  exit 1
fi
{
  sed -n 's/.*"dataset": "\([A-Z]*\)", "task": "\([a-z_]*\)", "budget_pct": \([0-9]*\), "tiered_sim_ns": \([0-9]*\), "allnvm_sim_ns": \([0-9]*\), "top_resident_bytes": \([0-9]*\), "total_resident_bytes": \([0-9]*\).*/TIER \1 \2 \3 \4 \5 \6 \7/p' \
      BENCH_pr10.json
  sed -n 's/.*"dataset": "\([A-Z]*\)", "runs": \([0-9]*\), "on_sim_ns": \([0-9]*\), "off_sim_ns": \([0-9]*\), "promotions": \([0-9]*\).*/TIERMIG \1 \2 \3 \4 \5/p' \
      BENCH_pr10.json
} | check_tiering_rows ||
  { echo "FAIL: tiering gates (committed BENCH_pr10.json)" >&2; exit 1; }
echo "tiering gates OK: 40% budget within 1.2x all-NVM, migration >=1.3x frozen"

if [[ "$UPDATE" == 1 ]]; then
  printf '%s\n' "$CURRENT" > "$BASELINE"
  echo "baseline updated: $BASELINE"
  exit 0
fi

if [[ ! -f "$BASELINE" ]]; then
  echo "FAIL: missing $BASELINE (run tools/check_bench.sh --update)" >&2
  exit 1
fi

# Keys are every field but the trailing numbers; values are the sim-ns
# columns. SIM lines carry two values (init, traversal), SIMK lines one.
awk -v tol=0.01 '
  function key(    i, k) {
    nvals = ($1 == "SIM") ? 2 : 1
    k = ""
    for (i = 1; i <= NF - nvals; ++i) k = k " " $i
    return k
  }
  NR == FNR { base_n[key()] = NF; for (i = 1; i <= NF; ++i) base[key() "#" i] = $i; next }
  {
    k = key()
    if (!(k in base_n)) { printf "FAIL: new entry:%s\n", k; bad = 1; next }
    seen[k] = 1
    for (i = NF - (($1 == "SIM") ? 2 : 1) + 1; i <= NF; ++i) {
      b = base[k "#" i] + 0; c = $i + 0
      denom = (b > c) ? b : c
      if (denom > 0 && (c > b ? c - b : b - c) / denom > tol) {
        printf "FAIL: drift >1%% at%s: baseline %d, current %d\n", k, b, c
        bad = 1
      }
    }
  }
  END {
    for (k in base_n) if (!(k in seen)) { printf "FAIL: missing entry:%s\n", k; bad = 1 }
    exit bad ? 1 : 0
  }
' "$BASELINE" <(printf '%s\n' "$CURRENT") && echo "bench smoke OK: sim clocks within 1% of baseline"
