#!/usr/bin/env python3
"""Runs the benchmark many times and records each metric's median and quartiles.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --first-seed 1 --out perfbench/baseline.json
    python3 perfbench/steady.py --runs 10 --first-seed 11 --out set2.json --against perfbench/baseline.json

Untraced runs are interleaved across workloads (w1 seed s, w2 seed s,
w1 seed s+1, ...), each with its own seed. --trace-runs traced runs per
workload follow; their per-layer medians and the tracing overhead
(traced minus untraced wall_s) are recorded too. The spread of a metric
is (q3 - q1) / median with the quartiles of statistics.quantiles(n=4).
Exits 1 when a spread other than setup_s's exceeds the metric's bound,
or when --against is given and a median is worse than that file's by
more than the bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = json.load(open("BENCHMARK.json"))


def run_once(workload, seed, seconds, trace):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {p.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    notes = [l for l in p.stderr.splitlines() if l.startswith("perfbench:")]
    print(f"{workload:12s} seed {seed:4d} trace {trace} {elapsed:6.1f}s", flush=True)
    for l in notes:
        print("    " + l, flush=True)
    return res


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "exact": len(set(values)) == 1,
        "values": values,
    }


def host():
    model = ""
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    return {"cpus": os.cpu_count(), "cpu_model": model, "go": go, "os": platform.platform()}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="untraced runs per workload")
    ap.add_argument("--trace-runs", type=int, default=1, help="traced runs per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    ap.add_argument("--out", required=True)
    ap.add_argument("--against", help="an earlier output of this script to compare medians with")
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    seconds = BENCH["run_seconds"]
    bounds = {m["name"]: m for m in BENCH["end_to_end"]}
    raw = {w: {"untraced": [], "traced": []} for w in workloads}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    for seed in seeds:
        for w in workloads:
            raw[w]["untraced"].append(run_once(w, seed, seconds, 0))
    for i in range(args.trace_runs):
        for w in workloads:
            raw[w]["traced"].append(run_once(w, seeds[i % len(seeds)], seconds, 1))

    out = {"host": host(), "date": time.strftime("%Y-%m-%d"), "run_seconds": seconds,
           "seeds": seeds, "workloads": {}}
    bad = []
    against = json.load(open(args.against))["workloads"] if args.against else {}
    for w in workloads:
        e2e = {name: summarise([r["metrics"][name]["value"] for r in raw[w]["untraced"]])
               for name in bounds}
        entry = {"end_to_end": e2e}
        if raw[w]["traced"]:
            per = {}
            for name in raw[w]["traced"][0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in raw[w]["traced"]]
                per[name] = {"median": statistics.median(vals), "exact": len(set(vals)) == 1,
                             "values": vals}
            entry["per_layer"] = per
            traced = per["trace.wall_s"]["median"]
            base = e2e["wall_s"]["median"]
            entry["trace_overhead_s"] = traced - base
            entry["trace_overhead_frac"] = (traced - base) / base
        out["workloads"][w] = entry

        print(f"\n{w}: {len(seeds)} untraced runs")
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, s in e2e.items():
            b = bounds[name]["bound"]
            flag = ""
            if name != "setup_s" and s["spread"] > b:
                flag = "  SPREAD > BOUND"
                bad.append(f"{w} {name} spread {s['spread']:.3f} > {b}")
            elif name != "setup_s" and s["spread"] > b / 3:
                flag = "  spread > bound/3"
            if w in against:
                prev = against[w]["end_to_end"][name]["median"]
                worse = (s["median"] - prev) / prev if bounds[name]["better"] == "lower" else (prev - s["median"]) / prev
                if worse > b:
                    flag += f"  MEDIAN {worse:+.3f} WORSE"
                    bad.append(f"{w} {name} median {worse:+.3f} worse than {args.against}")
                else:
                    flag += f"  vs earlier {worse:+.3f}"
            print(f"  {name:14s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:8.4f} {b:6.2f}{flag}")
        if "trace_overhead_s" in entry:
            print(f"  tracing overhead: {entry['trace_overhead_s']:+.4f} s ({entry['trace_overhead_frac']:+.2%} of wall_s)")

    with open(args.out, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    if bad:
        print("\n" + "\n".join(bad))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
