#!/usr/bin/env python3
"""Stability check: runs each workload N times with distinct seeds and
reports, per metric, the median, the quartiles and the spread
(q3 - q1) / median, flagging every end-to-end metric whose spread exceeds
its bound in BENCHMARK.json (and, as a warning, a third of it).

    python3 perfbench/stability.py --runs 10 [--workload NAME ...]
        [--seed-base 1] [--seconds S] [--out results.json]

Run from the root of a checkout. Exits 1 when a spread exceeds its bound,
a run is not correct, or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    bad = False
    raw = {}
    for workload in args.workload or workloads:
        values = {}
        units = {}
        for i in range(args.runs):
            seed = args.seed_base + i
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
            elapsed = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
                bad = True
                continue
            result = json.loads(lines[-1])
            raw.setdefault(workload, []).append({"seed": seed, **result})
            status = "ok" if result["correct"] else "NOT CORRECT"
            print(f"{workload} seed {seed}: {status}, attempted {result['attempted']}, "
                  f"failed {result['failed']}, {elapsed:.0f} s", flush=True)
            bad = bad or not result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"\n{workload}: {args.runs} runs, seeds {args.seed_base}.."
              f"{args.seed_base + args.runs - 1}")
        print(f"  {'metric':32s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>8s} {'bound':>6s}")
        for name in sorted(values):
            v = values[name]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "  OVER BOUND"
                    bad = True
                elif spread > bound / 3:
                    flag = "  over bound/3"
            shown = f"{bound:6.3f}" if bound is not None else "     -"
            print(f"  {name:32s} {units[name]:6s} {med:12.5g} {q1:12.5g} {q3:12.5g}"
                  f" {spread:8.2%} {shown}{flag}")
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
