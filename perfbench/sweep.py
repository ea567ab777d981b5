#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/sweep.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                               [--seconds S] [--json OUT]

For every workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) / median
and, for end-to-end metrics, the bound from BENCHMARK.json and whether the
spread stays under a third of it. Every run must report correct and no
failures; the exit code is 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2]).get("stamp", {})


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary, ok = {}, True
    for workload in args.workloads.split(","):
        values, stamp = {}, {}
        for seed in seeds:
            result, stamp = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        print(f"\n{workload}  ({len(seeds)} seeds, {args.seconds:g} s, "
              f"trace {args.trace}, {stamp.get('commit')}, "
              f"{stamp.get('cpu_model')}, nproc {stamp.get('nproc')})")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread <= bound / 3 else "WIDE"
                if name != "setup_s" and spread > bound:
                    ok = False
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": vals}
            print(f"  {name:32s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  spread {spread:8.4f}  bound {bound if bound is not None else '-'}"
                  f"  {verdict}")
        summary[workload] = {"stamp": stamp, "seeds": seeds, "metrics": rows}
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
