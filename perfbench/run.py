#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from this checkout's sources,
runs one workload and prints the result as the last line of stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; build output goes to stderr.
--smoke runs every workload on tiny inputs, traced and untraced, and checks
that every metric BENCHMARK.json names is emitted with its unit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["batch-large", "stream-large", "accuracy-3app"]
# One driver run, build excluded; the whole run must end within 180 s.
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def build():
    """Configures once, then brings the driver up to date; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_driver", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_driver")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def run_driver(driver, workload, seed, seconds, trace, smoke=False):
    """One driver run; returns (other stdout lines, parsed result)."""
    cmd = [driver, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", os.path.join(build_dir(), "work")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: driver exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: last driver line is not JSON: {lines[-1]!r}")
    return lines[:-1], result


def check_result(result, expected):
    """Problems with a result line against the metrics BENCHMARK.json names."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    metrics = result.get("metrics", {})
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{m['name']} not emitted")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} in {got.get('unit')!r}, not {m['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']} has no numeric value")
    for name in sorted(set(metrics) - {m["name"] for m in expected}):
        problems.append(f"{name} emitted but not named in BENCHMARK.json")
    return problems


def smoke(spec):
    driver = build()
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for workload in WORKLOADS:
            _, result = run_driver(driver, workload, 1, 1, trace, smoke=True)
            problems = check_result(result, spec[key])
            if not result.get("correct"):
                problems.append("correct is false")
            print(f"{workload:14s} trace={trace}: "
                  f"{len(result.get('metrics', {}))} metrics, "
                  + ("ok" if not problems else "; ".join(problems)))
            ok = ok and not problems
    for key in ("end_to_end", "per_layer"):
        print(f"\n{key}:")
        for m in spec[key]:
            bound = f"  bound {m['bound']}" if "bound" in m else ""
            print(f"  {m['name']:32s} {m['unit']:6s} {m['better']}{bound}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required")
    driver = build()
    lines, result = run_driver(driver, args.workload, args.seed, args.seconds, args.trace)
    problems = check_result(result, spec["per_layer" if args.trace else "end_to_end"])
    if problems:
        fail(f"{args.workload}: " + "; ".join(problems))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
