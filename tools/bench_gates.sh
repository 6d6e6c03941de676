# Result-row reader and the relational gates over bench rows. Sourced by
# tools/check_bench.sh (live runs and committed records),
# tools/run_bench.sh (the reader) and tests/bench_gates_test.sh (each
# gate on a passing and a failing input).
#
# A bench prints its rows in bench_common.h's row format: one flat JSON
# object per line, `{"bench": ..., "row": ..., "dataset": ..., ...}`, on
# stdout and, with --json=PATH, as a JSON array with one row per line.
# bench_rows turns each into one line of space-separated key=value pairs.
# Every gate reads those lines on stdin, picks its rows by field name,
# prints a "FAIL: ..." line per broken relation and returns nonzero if
# there was one.

# bench_rows [FILE...]: the rows in FILEs (or stdin) as key=value lines.
# Exact because the writer keeps quotes, commas, spaces and '=' out of
# every value and ':' out of every key.
bench_rows() {
  awk '/^\{"bench"/ {
    sub(/^\{/, ""); sub(/\},?$/, ""); gsub(/[" ]/, "")
    n = split($0, field, ",")
    line = ""
    for (i = 1; i <= n; ++i) {
      sub(/:/, "=", field[i])
      line = line (i > 1 ? " " : "") field[i]
    }
    print line
  }' "$@"
}

# Awk rule that loads the current key=value line into f[key]; a gate's
# own rules follow it.
ROW_AWK='{
  split("", f)
  for (i = 1; i <= NF; ++i) { p = index($i, "="); f[substr($i, 1, p - 1)] = substr($i, p + 1) }
}'

# Fields of the hotpath rows that tools/bench_baseline_sim.txt keeps: the
# identity of each run or kernel row and its deterministic sim clocks.
BASELINE_FIELDS="bench row task persistence variant dram_cache_mb kernel init_sim_ns traversal_sim_ns sim_ns"

# baseline_rows: the hotpath rows on stdin cut to BASELINE_FIELDS.
baseline_rows() {
  awk -v keep="$BASELINE_FIELDS" "$ROW_AWK"'
    f["bench"] == "hotpath" {
      n = split(keep, k, " ")
      line = ""
      for (i = 1; i <= n; ++i) {
        if (k[i] in f) line = line (line == "" ? "" : " ") k[i] "=" f[k[i]]
      }
      print line
    }'
}

# bench_hotpath run rows, sim clocks:
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
gate_hotpath_sim() {
  awk "$ROW_AWK"'
    f["bench"] == "hotpath" && f["row"] == "run" {
      k = f["task"] " " f["persistence"] " " f["variant"] " " f["dram_cache_mb"]
      init[k] = f["init_sim_ns"]; trav[k] = f["traversal_sim_ns"]
    }
    END {
      bad = 0
      n = split("word_count sort", heavy, " ")
      for (i = 1; i <= n; ++i) {
        t = heavy[i]
        std = trav[t " operation-level std 0"] + 0
        ci = trav[t " operation-level ci8 0"] + 0
        if (std == 0 || ci == 0) { printf "FAIL: missing operation-level std/ci8 rows for %s\n", t; bad = 1 }
        else if (2 * ci > std) { printf "FAIL: epoch commit <2x on %s traversal: std %.0f, ci8 %.0f\n", t, std, ci; bad = 1 }
      }
      std = trav["sequence_count operation-level std 0"] + 0
      ci = trav["sequence_count operation-level ci8 0"] + 0
      if (std == 0 || ci == 0) { printf "FAIL: missing operation-level std/ci8 rows for sequence_count\n"; bad = 1 }
      else if (18 * ci > 10 * std) { printf "FAIL: epoch commit <1.8x on sequence_count traversal: std %.0f, ci8 %.0f\n", std, ci; bad = 1 }
      for (k in trav) {
        split(k, g, " ")
        if (g[2] == "none" && g[3] == "std" && g[4] == "8") {
          k0 = g[1] " none std 0"
          if (1000 * trav[k] > 1002 * trav[k0] || 1000 * init[k] > 1002 * init[k0]) {
            printf "FAIL: dram cache regresses on %s: cache0 %.0f/%.0f, cache8 %.0f/%.0f\n", g[1], init[k0], trav[k0], init[k], trav[k]; bad = 1
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
        else if (10 * bsum > 6 * ssum) { printf "FAIL: batch init reuse too weak in mode %s: batch %.0f vs standalone %.0f\n", c[1], bsum, ssum; bad = 1 }
      }
      exit bad
    }'
}

# bench_hotpath run rows, host wall (ratios within one run, so they hold
# on any host): on word_count and sort, operation-level traversal at
# commit_interval=8 costs at most 1.1x the per-step wall, and the
# ci8-tiered traversal (DRAM top tier over the Optane home) at most 1.4x
# the untiered ci8 wall. The per-step rows must take >= 10 ms, or timer
# noise decides. sequence_count stays ungated: bulk list writes, which
# both protocols flush exactly once, bound its traversal.
gate_hotpath_wall() {
  awk "$ROW_AWK"'
    f["bench"] == "hotpath" && f["row"] == "run" && f["persistence"] == "operation-level" {
      wall[f["task"] " " f["variant"]] = f["traversal_wall_ns"]
    }
    END {
      bad = 0
      n = split("word_count sort", heavy, " ")
      for (i = 1; i <= n; ++i) {
        t = heavy[i]
        std = wall[t " std"] + 0
        ci = wall[t " ci8"] + 0
        tier = wall[t " ci8-tiered"] + 0
        if (std == 0 || ci == 0 || tier == 0) { printf "FAIL: missing operation-level std/ci8/ci8-tiered wall rows for %s\n", t; bad = 1 }
        else if (std < 10000000) { printf "FAIL: %s per-step traversal %.0f ns < 10 ms: raise the scale\n", t, std; bad = 1 }
        else {
          if (10 * ci > 11 * std) { printf "FAIL: epoch commit >1.1x per-step wall on %s traversal: std %.0f ns, ci8 %.0f ns\n", t, std, ci; bad = 1 }
          if (10 * tier > 14 * ci) { printf "FAIL: tier routing >1.4x untiered ci8 wall on %s traversal: ci8 %.0f ns, ci8-tiered %.0f ns\n", t, ci, tier; bad = 1 }
          printf "  %s traversal wall: std %.1f ms, ci8 %.1f ms (%.2fx), ci8-tiered %.1f ms (%.2fx ci8)\n", t, std / 1e6, ci / 1e6, ci / std, tier / 1e6, tier / ci
        }
      }
      exit bad
    }'
}

# bench_serving fleet rows (deterministic sim timing: round-robin lanes,
# stealing off):
#   * N=16 workers deliver >=3x the N=1 sim throughput;
#   * at every fleet size, the 25%-fault mix's p99 stays within 2x of
#     the clean p99 (scoped repair, not salvage, absorbs the damage).
gate_serving() {
  awk "$ROW_AWK"'
    f["bench"] == "serving" && f["row"] == "fleet" {
      k = f["workers"] " " f["fault_pct"]
      qps[k] = f["qps_sim"]; p99[k] = f["p99_sim_ns"]
    }
    END {
      bad = 0
      if (!("1 0" in qps) || !("16 0" in qps)) { print "FAIL: missing serving rows"; bad = 1 }
      else if (qps["16 0"] + 0 < 3 * qps["1 0"]) {
        printf "FAIL: serving scaling <3x: N1 %s, N16 %s\n", qps["1 0"], qps["16 0"]; bad = 1
      }
      for (k in p99) {
        split(k, g, " ")
        if (g[2] == "25") {
          k0 = g[1] " 0"
          if (!(k0 in p99)) { printf "FAIL: missing clean row for N=%s\n", g[1]; bad = 1 }
          else if (p99[k] + 0 > 2 * p99[k0]) {
            printf "FAIL: fault p99 unbounded at N=%s: clean %s, fault %s\n", g[1], p99[k0], p99[k]; bad = 1
          }
        }
      }
      exit bad
    }'
}

# bench_serving refresh row: a generation cutover mid-run, against the
# same run's clean no-refresh fleet (baseline_p99_sim_ns):
#   * clean-session p99 during refresh <= 1.5x the no-refresh p99;
#   * zero failed queries across the cutover;
#   * at least one generation actually published.
gate_refresh() {
  awk "$ROW_AWK"'
    f["bench"] == "serving" && f["row"] == "refresh" {
      seen = 1
      if (2 * f["p99_sim_ns"] > 3 * f["baseline_p99_sim_ns"]) {
        printf "FAIL: refresh p99 %.0f exceeds 1.5x no-refresh p99 %.0f\n", f["p99_sim_ns"], f["baseline_p99_sim_ns"]; bad = 1
      }
      if (f["failed"] + 0 != 0) { printf "FAIL: %.0f queries failed across cutover\n", f["failed"]; bad = 1 }
      if (f["generations_published"] + 0 < 1) { print "FAIL: no generation published during refresh run"; bad = 1 }
    }
    END {
      if (!seen) { print "FAIL: missing refresh row"; bad = 1 }
      exit bad
    }'
}

# bench_ingest compress rows on dataset D (container bytes are only
# deterministic at scale 1.0):
#   * threads=8 lane makespan (deterministic LPT model over measured
#     per-chunk compute; raw wall stays ungated) is >=2x better than
#     threads=1;
#   * the chunked container stays within 5% of the single-threaded size.
gate_ingest() {
  awk "$ROW_AWK"'
    f["bench"] == "ingest" && f["row"] == "compress" && f["dataset"] == "D" {
      bytes[f["threads"]] = f["container_bytes"]
      lane[f["threads"]] = f["lane_makespan_ns"]
    }
    END {
      bad = 0
      if (!("1" in bytes) || !("8" in bytes)) {
        print "FAIL: missing ingest rows for threads=1/8"; bad = 1
      } else {
        if (20 * bytes["8"] > 21 * bytes["1"]) {
          printf "FAIL: chunked container >5%% larger: t1 %.0f, t8 %.0f\n", bytes["1"], bytes["8"]; bad = 1
        }
        if (lane["1"] + 0 < 2 * lane["8"]) {
          printf "FAIL: ingest lane makespan <2x: t1 %.0f, t8 %.0f\n", lane["1"], lane["8"]; bad = 1
        }
      }
      exit bad
    }'
}

# bench_tiering rows, each against its same-run baseline:
#   * curve rows at a 40% top-tier budget stay within 1.2x of the all-NVM
#     sim time while honouring the budget (top-tier resident <= 40% of
#     the registered bytes);
#   * online migration beats frozen placement by >=1.3x on the repeated
#     skewed mix.
gate_tiering() {
  awk "$ROW_AWK"'
    f["bench"] == "tiering" && f["row"] == "curve" && f["budget_pct"] + 0 == 40 {
      seen_curve = 1
      if (10 * f["tiered_sim_ns"] > 12 * f["allnvm_sim_ns"]) {
        printf "FAIL: tiered@40%% >1.2x all-NVM on %s/%s: tiered %.0f, nvm %.0f\n",
               f["dataset"], f["task"], f["tiered_sim_ns"], f["allnvm_sim_ns"]; bad = 1
      }
      if (10 * f["top_resident_bytes"] > 4 * f["total_resident_bytes"]) {
        printf "FAIL: top-tier residency over budget on %s/%s: %.0f of %.0f\n",
               f["dataset"], f["task"], f["top_resident_bytes"], f["total_resident_bytes"]; bad = 1
      }
    }
    f["bench"] == "tiering" && f["row"] == "migration" {
      seen_mig = 1
      if (10 * f["off_sim_ns"] < 13 * f["on_sim_ns"]) {
        printf "FAIL: online migration <1.3x frozen placement on %s: on %.0f, off %.0f\n",
               f["dataset"], f["on_sim_ns"], f["off_sim_ns"]; bad = 1
      }
    }
    END {
      if (!seen_curve) { print "FAIL: missing curve rows at budget 40%"; bad = 1 }
      if (!seen_mig) { print "FAIL: missing migration row"; bad = 1 }
      exit bad
    }'
}

# gate_drift BASELINE: the baseline rows on stdin (baseline_rows) against
# the committed BASELINE. A row's identity is every field but its sim
# clocks (*sim_ns); a sim clock drifting more than 1%, or a row appearing
# or disappearing, fails.
gate_drift() {
  awk -v tol=0.01 "$ROW_AWK"'
    {
      k = ""
      for (i = 1; i <= NF; ++i) if ($i !~ /sim_ns=/) k = k " " $i
    }
    NR == FNR { base[k] = $0; next }
    {
      if (!(k in base)) { printf "FAIL: new entry:%s\n", k; bad = 1; next }
      seen[k] = 1
      nb = split(base[k], b, " ")
      for (i = 1; i <= nb; ++i) {
        p = index(b[i], "="); name = substr(b[i], 1, p - 1)
        if (name !~ /sim_ns$/) continue
        bv = substr(b[i], p + 1) + 0; cv = f[name] + 0
        denom = (bv > cv) ? bv : cv
        if (denom > 0 && (cv > bv ? cv - bv : bv - cv) / denom > tol) {
          printf "FAIL: drift >1%% at%s %s: baseline %.0f, current %.0f\n", k, name, bv, cv; bad = 1
        }
      }
    }
    END {
      for (k in base) if (!(k in seen)) { printf "FAIL: missing entry:%s\n", k; bad = 1 }
      exit bad
    }' "$1" -
}
