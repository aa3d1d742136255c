#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median, next to the metric's
bound from BENCHMARK.json. Workloads are interleaved seed by seed, so host
drift spreads over every workload instead of landing on one.

With --sets N, every seed runs N times in a row, once per set, so the sets
interleave run by run; each set's spread is reported, and the shift of each
set's median from the first set's. Seeds are a list of ranges (1-10,20) and
of repeats (1x10 is seed 1 ten times).

Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads figures,wide] [--trace]
    python3 perfbench/spread.py --seeds 1x10 --sets 2

Every run's result line is appended to .bench_build/perfbench/spread.jsonl.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        if "x" in part:
            seed, _, times = part.partition("x")
            seeds.extend([int(seed)] * int(times))
            continue
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true", help="traced runs (per-layer metrics)")
    ap.add_argument("--sets", type=int, default=1, help="interleaved sets of runs to compare")
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    sets = range(args.sets)
    values = {(k, w): {} for k in sets for w in workloads}
    log_path = os.path.join(".bench_build", "perfbench", "spread.jsonl")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    with open(log_path, "a") as log:
        for seed, k, w in itertools.product(parse_seeds(args.seeds), sets, workloads):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds),
                                      "--trace", "1" if args.trace else "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
            lines = out.strip().splitlines()
            res = json.loads(lines[-1])
            host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), {})
            log.write(json.dumps({"workload": w, "seed": seed, "set": k, "host": host,
                                  "result": res}) + "\n")
            log.flush()
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: {res['failed']} of {res['attempted']} ops failed")
            for name, m in res["metrics"].items():
                values[k, w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed} set {k} host {host.get('host_factor', 0):.2f}: " + " ".join(
                f"{name}={m['value']:.4g}" for name, m in sorted(res["metrics"].items())), flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"\n{'workload':9} {'metric':12} {'set':>3} {'n':>3} {'median':>10} {'spread':>7} "
          f"{'shift':>7} {'bound':>6}  ok(<bound/3)")
    for w in workloads:
        for name in sorted(values[0, w]):
            if name not in bounds:
                continue
            first = statistics.median(values[0, w][name])
            for k in sets:
                xs = values[k, w][name]
                if len(xs) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(xs, n=4)
                spread = (q3 - q1) / med
                shift = (med - first) / first
                bound = bounds[name]
                ok = spread < bound / 3 and abs(shift) < bound / 3
                print(f"{w:9} {name:12} {k:3d} {len(xs):3d} {med:10.4g} {spread:7.3f} "
                      f"{shift:+7.3f} {bound:6.2f}  {'yes' if ok else 'NO'}")


if __name__ == "__main__":
    main()
