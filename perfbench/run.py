#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload serve_phase --seed 1 --seconds 25 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental, so only the first run of a fresh checkout compiles.
Build output goes to stderr; stdout carries the program's report, whose last
line is the result object {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the span file lands in the build directory.

Flags after the four standard ones are passed through to the program
(see perfbench/README.md), e.g. --scale 0.02 --max-queries 48 for a toy run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_phase", "durable_oplog", "refresh_ingest")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configures (once) and builds the program; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no ntadoc sources under {ROOT / 'src'}")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(bdir), "--target", "perfbench",
                    "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return bdir / "perfbench"


def revision():
    """Git revision when the checkout is a repository, plus a digest of
    the sources the program is built from (a plain checkout has no git)."""
    digest = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for path in sorted((ROOT / sub).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    rev = f"src-sha256:{digest.hexdigest()[:16]}"
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            if head.returncode == 0:
                rev = f"git:{head.stdout.strip()[:12]} {rev}"
        except (OSError, subprocess.SubprocessError):
            pass
    return rev


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, passthrough = parser.parse_known_args()

    bdir = build_dir()
    try:
        exe = build(bdir)
    except (OSError, RuntimeError, subprocess.SubprocessError) as err:
        log(f"build failed: {err}")
        return 2

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--revision", revision()]
    if args.trace:
        cmd += ["--trace-out",
                str(bdir / f"trace_{args.workload}_{args.seed}.json")]
    cmd += passthrough
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s and was killed")
        return 3
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        log(f"perfbench exited {proc.returncode} without a result line")
        return proc.returncode or 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
