#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload profile-paper --seeds 1-10 [--trace 0]

For every metric it prints the median and the distance between the first
and third quartile as a share of the median (statistics.quantiles, n=4),
the figure the benchmark's bounds are checked against. Raw results are
appended, one JSON line per run, to .bench_build/spread-<workload>.jsonl.
Run it from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(".bench_build", exist_ok=True)
    log = os.path.join(".bench_build", "spread-%s.jsonl" % args.workload)
    values, bad = {}, 0
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        t0 = time.time()
        out = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.time() - t0
        if out.returncode != 0:
            sys.exit("seed %d: exit %d\n%s" % (seed, out.returncode, out.stderr))
        res = json.loads(out.stdout.strip().splitlines()[-1])
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, "wall_s": wall, "result": res}) + "\n")
        if not res["correct"] or res["failed"]:
            bad += 1
        print("seed %d: %.1fs attempted %d failed %d" % (seed, wall, res["attempted"], res["failed"]), flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        spread = float("nan")
        if len(v) >= 2 and med:
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / abs(med)
        b = bounds.get(name)
        flag = ""
        if b is not None and name != "setup_s" and spread > b / 3:
            flag = "  > bound/3 (%.3f)" % (b / 3)
        print("%-34s median %-14.6g spread %.4f%s" % (name, med, spread, flag))
    if bad:
        sys.exit("%d runs had failed ops" % bad)


if __name__ == "__main__":
    main()
