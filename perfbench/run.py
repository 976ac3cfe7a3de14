#!/usr/bin/env python3
"""Benchmark entry point: build the benchmark from source, run one workload,
check its result, and print the result object as the last stdout line.

    python3 perfbench/run.py --workload amr64_gpfs --seed 1 --seconds 20 --trace 0

Run from the repository root.  perfbench/main.cpp and the library under src/ are
compiled with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench).  Build output goes to stderr.  Exits non-zero
without a result line when the build fails or the sources are missing.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    env = {k: v for k, v in os.environ.items()
           if k not in ("PARAMRIO_SCHED_SEED", "PARAMRIO_SIM_ENGINE")}
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S}s")
    lines = out.rstrip("\n").splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"benchmark's last line is not JSON (exit {proc.returncode})")

    want = expected_metrics(args.trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        fail(f"metric set differs from BENCHMARK.json: got {sorted(got)}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result object has unexpected keys")

    print("\n".join(lines))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
