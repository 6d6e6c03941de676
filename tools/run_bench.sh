#!/usr/bin/env bash
# Regenerates the committed bench records. Each is the bench's --json
# output: a JSON array of result rows (bench_common.h's row format), one
# row per line. The gated rows carry their own same-run baselines, so
# tools/check_bench.sh gates the committed files without re-running:
#   BENCH_pr5.json   bench_hotpath: wall + sim time for every task x
#                    persistence mode (plus rule-cache, no-summation,
#                    epoch group commit and RunBatch variants) and the
#                    traversal-kernel microbenches;
#   BENCH_pr8.json   bench_ingest: chunk-parallel ingest throughput (wall +
#                    deterministic lane-makespan model), container sizes,
#                    init sim time and the EncodeTokens micro-benchmark.
#                    Always at scale 1.0: the gated container bytes are
#                    only deterministic at the full dataset size;
#   BENCH_pr9.json   bench_serving at scale 0.05: concurrent-serving
#                    throughput/latency and the refresh-under-load row;
#   BENCH_pr10.json  bench_tiering: the tiered-placement capacity/latency
#                    curve, DRAM+SSD vs all-SSD, and migration on vs off.
#
# Usage: tools/run_bench.sh [--build-dir=build] [--out=BENCH_pr5.json]
#                           [--scale=0.25] [--repeat=3]
#                           [--ingest-out=BENCH_pr8.json]
#                           [--serving-out=BENCH_pr9.json]
#                           [--tiering-out=BENCH_pr10.json]
#                           [--skip-ingest] [--skip-serving]
#                           [--skip-tiering]
#                           [--prepr-bin=/path/to/old/bench_hotpath]
#
# With --prepr-bin= a bench_hotpath built from an older tree is run with
# the same arguments and the wall-clock speedup of each traversal kernel
# (old wall / current wall) is printed. The old binary must print result
# rows: ones built before the row format print none.
set -euo pipefail
cd "$(dirname "$0")/.."
source tools/bench_gates.sh

BUILD_DIR=build
OUT=BENCH_pr5.json
INGEST_OUT=BENCH_pr8.json
SERVING_OUT=BENCH_pr9.json
TIERING_OUT=BENCH_pr10.json
SCALE=0.25
REPEAT=3
SKIP_INGEST=0
SKIP_SERVING=0
SKIP_TIERING=0
PREPR_BIN=""
for arg in "$@"; do
  case "$arg" in
    --build-dir=*) BUILD_DIR="${arg#*=}" ;;
    --out=*) OUT="${arg#*=}" ;;
    --ingest-out=*) INGEST_OUT="${arg#*=}" ;;
    --serving-out=*) SERVING_OUT="${arg#*=}" ;;
    --tiering-out=*) TIERING_OUT="${arg#*=}" ;;
    --scale=*) SCALE="${arg#*=}" ;;
    --repeat=*) REPEAT="${arg#*=}" ;;
    --skip-ingest) SKIP_INGEST=1 ;;
    --skip-serving) SKIP_SERVING=1 ;;
    --skip-tiering) SKIP_TIERING=1 ;;
    --prepr-bin=*) PREPR_BIN="${arg#*=}" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

CACHE_DIR="$BUILD_DIR/bench_cache"
HOTPATH_FLAGS=(--scale="$SCALE" --datasets=C --repeat="$REPEAT")

for bench in hotpath ingest serving tiering; do
  case "$bench" in
    hotpath) out=$OUT; flags=("${HOTPATH_FLAGS[@]}") ;;
    ingest)
      [[ "$SKIP_INGEST" == 1 ]] && continue
      out=$INGEST_OUT
      flags=(--scale=1.0 --datasets=C,D --threads-list=1,4,8 --repeat="$REPEAT") ;;
    serving)
      [[ "$SKIP_SERVING" == 1 ]] && continue
      out=$SERVING_OUT; flags=(--scale=0.05 --datasets=C) ;;
    tiering)
      [[ "$SKIP_TIERING" == 1 ]] && continue
      out=$TIERING_OUT; flags=(--scale="$SCALE" --datasets=C) ;;
  esac
  bin="$BUILD_DIR/bench/bench_$bench"
  if [[ ! -x "$bin" ]]; then
    echo "building bench_$bench..." >&2
    cmake --build "$BUILD_DIR" --target "bench_$bench" -j
  fi
  echo "== bench_$bench ==" >&2
  "$bin" "${flags[@]}" --cache-dir="$CACHE_DIR" --json="$out"
  echo "wrote $out" >&2
done

if [[ -n "$PREPR_BIN" ]]; then
  echo "== pre-change bench_hotpath ==" >&2
  PREPR_ROWS=$(mktemp)
  trap 'rm -f "$PREPR_ROWS"' EXIT
  "$PREPR_BIN" "${HOTPATH_FLAGS[@]}" --cache-dir="$CACHE_DIR" \
      --json="$PREPR_ROWS" >/dev/null
  # The current record's kernel rows come first, then the old binary's.
  bench_rows "$OUT" "$PREPR_ROWS" | awk "$ROW_AWK"'
    f["row"] != "kernel" { next }
    !(f["kernel"] in wall) { wall[f["kernel"]] = f["wall_ns"]; next }
    { printf "kernel wall speedup %s: %.2fx\n", f["kernel"], f["wall_ns"] / wall[f["kernel"]]; found = 1 }
    END { if (!found) { print "no kernel rows from the pre-change binary" > "/dev/stderr"; exit 1 } }'
fi
