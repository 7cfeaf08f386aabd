#!/usr/bin/env python3
"""Run the benchmark over several seeds and write a snapshot.

Runs the command in BENCHMARK.json once per (workload, seed), from the
repository root, and writes every run's result line plus, per workload
and metric, the median, the quartiles (Python's statistics.quantiles,
n=4) and the spread: the quartile distance as a share of the median.
For end-to-end metrics the spread is compared against the metric's
bound; a spread above a third of the bound is flagged.

    python3 impbench/snapshot.py --out impbench/baselines/BENCH_e2e.set1.json
    python3 impbench/snapshot.py --trace --seeds 1 --out impbench/baselines/BENCH_layers.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def line_of(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    text = out.stdout.strip().splitlines()
    return text[0] if out.returncode == 0 and text else "unknown"


def provenance():
    return {
        "git_sha": line_of(["git", "rev-parse", "HEAD"]),
        "rustc": line_of(["rustc", "-V"]),
        "host_cores": os.cpu_count(),
    }


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="snapshot file to write")
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload")
    ap.add_argument("--first-seed", type=int, default=42)
    ap.add_argument("--trace", action="store_true", help="per-layer runs")
    ap.add_argument("--workloads", nargs="*", help="default: every workload")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    snapshot = {
        "provenance": provenance(),
        "run_seconds": bench["run_seconds"],
        "trace": args.trace,
        "workloads": {},
    }
    ok = True
    for w in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "1" if args.trace else "0",
            ]
            start = time.monotonic()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            wall = time.monotonic() - start
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            ok &= out.returncode == 0 and result.get("correct") is True
            runs.append({"seed": seed, "exit": out.returncode, "wall_s": round(wall, 2), **result})
            print(f"{w} seed {seed}: exit {out.returncode}, "
                  f"failed {result.get('failed')}, {wall:.1f} s", file=sys.stderr)
        names = list(runs[0].get("metrics", {}))
        summary = {
            n: summarise([r["metrics"][n]["value"] for r in runs if "metrics" in r])
            for n in names
        }
        snapshot["workloads"][w] = {"runs": runs, "summary": summary}
        for n, s in summary.items():
            flag = ""
            if n in bounds and n != "setup_s" and s["spread"] > bounds[n] / 3:
                flag = f"  spread above a third of the bound {bounds[n]}"
            print(f"{w:10} {n:30} median {s['median']:.6g}  spread {100 * s['spread']:.2f}%{flag}")
    with open(args.out, "w") as f:
        json.dump(snapshot, f, indent=1)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
