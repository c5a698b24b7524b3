#!/usr/bin/env python3
"""Runs every workload on several seeds and writes the steadiness record.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--seeds 1-10] [--seconds 20] [--out perfbench/STEADINESS.md]

For each workload and end-to-end metric it reports the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the quartile
spread as a share of the median, next to the metric's bound from
BENCHMARK.json. It also copies the `#` lines of the first run of each
workload, which record nproc, the thread count per role, the build type,
the compiler and the churn interval. Raw values go to a JSON file beside
the Markdown.
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


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %d (exit %d)\n%s" % (workload, seed, out.returncode,
                                                           out.stderr[-2000:]))
    result = json.loads(lines[-1])
    return result, [l for l in lines if l.startswith("#")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", default=os.path.join(HERE, "STEADINESS.md"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    raw = {}
    md = ["# Steadiness record", "",
          "Ten untraced runs per workload, one per seed, on the commit that "
          "defines the benchmark. Spread is (Q3 - Q1) / median; the bound is "
          "the regression bound from BENCHMARK.json.", "",
          "Seeds %s, %g s per run, recorded %s." % (args.seeds, seconds,
                                                   time.strftime("%Y-%m-%d")), ""]
    for w in bench["workloads"]:
        name = w["name"]
        values, info, attempted, failed = {}, None, 0, 0
        for seed in seeds:
            result, lines = run(name, seed, seconds)
            info = info or lines
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print("%s seed %d: %s" % (name, seed, {k: round(v["value"], 4) for k, v in
                                                    result["metrics"].items()}), flush=True)
        raw[name] = values
        md += ["## %s" % name, "", "```"] + info + ["```", "",
               "Operations attempted %d, failed %d." % (attempted, failed), "",
               "| metric | median | Q1 | Q3 | spread | bound |", "|---|---|---|---|---|---|"]
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            md.append("| `%s` | %.6g | %.6g | %.6g | %.3f | %s |" % (
                metric, med, q1, q3, (q3 - q1) / med if med else float("nan"),
                bounds.get(metric, "")))
        md.append("")
    with open(args.out, "w") as f:
        f.write("\n".join(md))
    with open(os.path.splitext(args.out)[0] + ".json", "w") as f:
        json.dump({"seeds": seeds, "seconds": seconds, "values": raw}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
