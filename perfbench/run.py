#!/usr/bin/env python3
"""Builds and runs the fleet benchmark.

    python3 perfbench/run.py --workload live_ct --seed 1 --seconds 20 --trace 0

Builds the repository's libraries and the benchmark from source (CMake,
Release) under .bench_build/perfbench, runs the statistics self-test, then
runs one measurement and prints its result as the last line of standard
output. Exits non-zero, without printing a result, when the build, the
self-test or the run fails.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 170  # the whole command must end within 180 s
BUILD_LIMIT_S = 850


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build per checkout at a time
        if not (BUILD / "Makefile").exists():
            subprocess.run(
                ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, timeout=BUILD_LIMIT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
             "fleetbench", "fleetbench_selftest"],
            check=True, stdout=sys.stderr, timeout=BUILD_LIMIT_S)
    # Write the build's output back now, not during the measurement.
    os.sync()


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def provenance(args):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler, build_type = "unknown", "unknown"
    cache = (BUILD / "CMakeCache.txt").read_text().splitlines()
    for line in cache:
        if line.startswith("CMAKE_CXX_COMPILER:"):
            exe = line.split("=", 1)[1]
            out = subprocess.run([exe, "--version"], capture_output=True,
                                 text=True)
            compiler = out.stdout.splitlines()[0] if out.stdout else exe
        elif line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    # Only a git checkout rooted here names this tree; a copy of it nested
    # in some other repository must not report that repository's HEAD.
    git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                         cwd=ROOT, capture_output=True, text=True)
    lines = git.stdout.split()
    sha = (lines[1] if git.returncode == 0 and len(lines) == 2
           and Path(lines[0]).resolve() == ROOT else None)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "compiler": compiler,
        "build_type": build_type,
        "git_sha": sha,
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def check_result(line, trace):
    """The last output line must be the result object the spec names."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys are {sorted(res)}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        raise ValueError("failed must be a whole number >= 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing "
                         f"{missing}, unexpected {extra}, or units differ")
    for k, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)) or not math.isfinite(
                v["value"]):
            raise ValueError(f"metric {k} is not a finite number")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    start = time.monotonic()

    try:
        build()
        subprocess.run([str(BUILD / "fleetbench_selftest")], check=True,
                       stdout=sys.stderr, timeout=60)
    except (subprocess.SubprocessError, OSError) as e:
        log(f"build or self-test failed: {e}")
        return 1

    work = ROOT / ".bench_build" / f"work-{os.getpid()}"
    cmd = [str(BUILD / "fleetbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(work)]
    # A run that had to build may take up to 900 s in all; any other run
    # must end within 180 s.
    built = time.monotonic() - start
    limit = RUN_LIMIT_S if built < 10 else max(1, min(RUN_LIMIT_S, 890 - built))
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        log(f"fleetbench did not finish within {limit:.0f} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.stdout.rstrip("\n").splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout)
        log(f"fleetbench exited with {out.returncode}")
        return 1
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, OSError) as e:
        sys.stderr.write(out.stdout)
        log(f"malformed result: {e}")
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps({"provenance": provenance(args)}))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
