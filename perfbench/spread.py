#!/usr/bin/env python3
"""Run one perfbench workload N times, one seed each, and print the spread.

For every metric of the final JSON line it prints the median, the first and
third quartiles (statistics.quantiles with n=4) and the distance between the
quartiles as a share of the median; below them, the same for the workload's
own figures (the "metric" lines a run prints before its result). The bounds
in BENCHMARK.json are set from this output; rerun it whenever a bound is
questioned.

--workload takes one workload, a comma-separated list, or "all" (every
workload of BENCHMARK.json); a set runs the seeds on each listed workload in
turn. With --sets 2 it runs the whole set twice, one after the other, and
then prints for every workload and gated metric how far the second set's
median moved from the first's in the metric's worse direction, against the
metric's bound, with both sets' IQR/median: two sets of runs of the same
code must agree within the bounds.

Run from the repository root:

    python3 perfbench/spread.py --workload sweep --runs 10
    python3 perfbench/spread.py --workload all --runs 10 --sets 2
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = ap.parse_args()

    # The spread sets the bounds of gated runs, so it measures exactly what is
    # gated: untraced runs of BENCHMARK.json's run_seconds.
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]

    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else args.workload.split(",")

    sets = []
    for k in range(args.sets):
        results = {}
        for w in workloads:
            print(f"set {k + 1} of {args.sets}, {w}", flush=True)
            results[w] = run_set(args, w, seconds)
        sets.append(results)

    if len(sets) == 2:
        print("set 2 against set 1, gated metrics")
        print(f"{'workload':12} {'metric':14} {'median 1':>12} {'median 2':>12} {'worse by':>9} "
              f"{'bound':>6} {'iqr/med 1':>10} {'iqr/med 2':>10}  verdict")
        for w in workloads:
            for m in bench["end_to_end"]:
                name = m["name"]
                v1, v2 = sets[0][w][0][name], sets[1][w][0][name]
                m1, m2 = statistics.median(v1), statistics.median(v2)
                worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
                s1, s2 = iqr_share(v1), iqr_share(v2)
                ok = worse <= m["bound"] and (name == "setup_s" or max(s1, s2) <= m["bound"])
                print(f"{w:12} {name:14} {m1:12.6g} {m2:12.6g} {worse:9.4f} {m['bound']:6.2f} "
                      f"{s1:10.4f} {s2:10.4f}  {'within' if ok else 'OVER'}")
            shares = sets[0][w][1] | sets[1][w][1]
            print(f"{w:12} failed shares over both sets: {sorted(shares)}")


def run_set(args, workload, seconds):
    values, units = {}, {}
    named, named_units = {}, {}
    attempted = failed = 0
    shares = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = ["bash", "perfbench/run.sh", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        for ln in lines[:-1]:
            parts = ln.split()
            if len(parts) == 4 and parts[0] == "metric":
                named.setdefault(parts[1], []).append(float(parts[2]))
                named_units[parts[1]] = parts[3]
        if not res["correct"]:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: correct is false")
        attempted += res["attempted"]
        failed += res["failed"]
        shares.add(res["failed"] / res["attempted"])
        line = []
        for name, m in sorted(res["metrics"].items()):
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            line.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: attempted {res['attempted']} failed {res['failed']} " + " ".join(line), flush=True)

    print(f"\n{workload}: {args.runs} runs of {seconds}s, "
          f"{failed} of {attempted} operations failed, failed shares {sorted(shares)}")
    table(values, units)
    print()
    table(named, named_units)
    print(flush=True)
    return values, shares


def iqr_share(vs):
    if len(vs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vs, n=4)
    med = statistics.median(vs)
    return (q3 - q1) / med if med else float("nan")


def table(values, units):
    print(f"{'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/median':>11}  unit")
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
        else:
            q1 = q3 = vs[0]
        print(f"{name:40} {med:14.6g} {q1:14.6g} {q3:14.6g} {iqr_share(vs):11.4f}  {units[name]}")


if __name__ == "__main__":
    main()
