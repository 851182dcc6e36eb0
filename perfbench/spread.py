#!/usr/bin/env python3
"""Run the benchmark several times with different seeds and report, per
metric, every run's value with the median, the quartiles and the spread
(interquartile distance over the median) against the bound in
BENCHMARK.json. The same summary is written to
perfbench/results/spread-<workload>-trace<T>.json.

    python3 perfbench/spread.py --workload lubm3k-query --runs 10 [--trace 0] [--first-seed 1]

Run from the root of the repository. Exits non-zero when a run fails or
reports incorrect output, and 1 when a spread other than setup_s's is not
below a third of its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    kind = "per_layer" if args.trace == "1" else "end_to_end"
    declared = {m["name"]: m for m in spec[kind]}

    values = {}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    for seed in seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(last)
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {last}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)

    print(f"\n{args.workload}, {args.runs} runs of {seconds} s")
    all_steady = True
    summary = {"workload": args.workload, "trace": args.trace, "seconds": seconds,
               "seeds": seeds, "metrics": {}}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else None
        bound = declared.get(name, {}).get("bound")
        summary["metrics"][name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                                    "spread": spread, "bound": bound}
        spread = float("nan") if spread is None else spread
        verdict = ""
        if bound is not None:
            steady = spread < bound / 3
            verdict = f" bound {bound} -> {'steady' if steady else 'NOT steady'}"
            all_steady &= steady or name == "setup_s"
        print(f"  {name:28s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}{verdict}")
        print(f"  {'':28s} runs {[round(v, 6) for v in vals]}")
    out = Path("perfbench/results") / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    sys.exit(0 if all_steady else 1)


if __name__ == "__main__":
    main()
