#!/usr/bin/env python3
"""Self-test of the perfbench benchmark at toy scale.

Run from the repository root (builds the program if needed):

  python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * every end-to-end metric (untraced) and every per-layer metric (traced)
    is emitted with the unit BENCHMARK.json names;
  * no end-to-end metric is 0, and every per-layer metric is non-zero on
    the workloads the "busy in" column of README.md's per-layer table
    names for it;
  * no operation fails and the run exits 0;
  * sim metrics are bit-identical across two runs with the same seed
    (fixed query count), where no shared rule cache is raced by workers:
    durable_oplog and refresh_ingest;
  * a deliberately wrong reference makes the run fail.
It also checks that run.py exits non-zero, without a result line, in a
directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TOY = ["--scale", "0.05", "--max-queries", "48"]
SIM_METRICS = ("qps_sim", "query_sim_p50_us", "query_sim_p95_us",
               "pool_bytes_per_raw_byte", "container_bytes_per_raw_byte")
# serve_phase's three workers race for one shared rule cache, so which
# session hits it, and hence its sim time, varies run to run.
SIM_DETERMINISTIC = ("durable_oplog", "refresh_ingest")

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, seed, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "60",
           "--trace", str(trace), *TOY, *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        result = None
    return proc.returncode, result, proc.stderr


def units_match(result, defs):
    got = result["metrics"]
    return (set(got) == {d["name"] for d in defs} and
            all(got[d["name"]]["unit"] == d["unit"] for d in defs))


def busy_in(workloads):
    """Per-layer metric -> workloads it must be non-zero on, read from the
    "busy in / unchanged in" column of README.md's per-layer table."""
    text = (HERE / "README.md").read_text()
    table = text.split("## Per-layer metrics", 1)[1].split("\n## ", 1)[0]
    busy = {}
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 4 or not cells[0].startswith("`"):
            continue
        where = cells[3].split(" / ")[0]
        names = (list(workloads) if where == "all"
                 else re.findall(r"`([^`]+)`", where))
        for metric in re.findall(r"`([^`]+)`", cells[0]):
            busy[metric] = names
    return busy


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [x["name"] for x in bench["workloads"]]
    busy = busy_in(workloads)
    check(set(busy) == {d["name"] for d in bench["per_layer"]},
          "README.md's per-layer table lists every per-layer metric")
    for w in workloads:
        rc, res, err = run(w, 7, 0)
        check(rc == 0 and res is not None and res["correct"]
              and res["failed"] == 0 and res["attempted"] > 0,
              f"{w}: untraced run passes ({err.strip()[-200:] if rc else ''})")
        if res is None:
            continue
        check(units_match(res, bench["end_to_end"]),
              f"{w}: every end-to-end metric with its unit")
        check(all(res["metrics"][m]["value"] != 0
                  for m in res["metrics"]), f"{w}: no end-to-end metric is 0")

        rc, traced, _ = run(w, 7, 1)
        check(rc == 0 and traced is not None and traced["failed"] == 0,
              f"{w}: traced run passes")
        if traced is not None:
            check(units_match(traced, bench["per_layer"]),
                  f"{w}: every per-layer metric with its unit")
            idle = [m for m, where in busy.items()
                    if w in where and traced["metrics"].get(m, {}).get(
                        "value", 0) == 0]
            check(not idle, f"{w}: per-layer metrics busy here are non-zero"
                  f" {idle if idle else ''}")

        if w in SIM_DETERMINISTIC:
            a = run(w, 11, 0)[1]
            b = run(w, 11, 0)[1]
            check(a is not None and b is not None and
                  all(a["metrics"][m]["value"] == b["metrics"][m]["value"]
                      for m in SIM_METRICS),
                  f"{w}: sim metrics bit-identical for one seed")

        rc, bad, _ = run(w, 7, 0, "--corrupt-reference", "1")
        check(rc != 0 and (bad is None or not bad["correct"]),
              f"{w}: a wrong reference fails the run")

    # Without the program's sources the benchmark must refuse to run.
    bare = ROOT / ".bench_build" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_phase",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "sources missing: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
