#!/usr/bin/env python3
"""Steadiness tool for the repository benchmark.

Run one workload N times, each with another seed, and summarise every metric:

    python3 perfbench/steady.py run --workload dml_alltoall --runs 10 \
        [--seed0 1] [--seconds S] [--trace 0] [--save runs.json]

For each metric it prints the median, the first and third quartiles (as
Python's statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.

Compare two saved sets of runs (same workload) against the bounds:

    python3 perfbench/steady.py compare base.json head.json

A metric regresses when the second median is worse than the first by more
than the bound, in the metric's "better" direction. Exit status 1 when any
run was incorrect, a spread exceeds its bound, or a metric regressed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_specs(bench, trace):
    return {m["name"]: m for m in bench["per_layer" if trace else "end_to_end"]}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines else None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    return {"seed": seed, "exit": proc.returncode, "ok": ok, "result": result}


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def cmd_run(args):
    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.seed0 + i
        r = run_once(args.workload, seed, seconds, args.trace)
        runs.append(r)
        print("seed %d: %s" % (seed, "ok" if r["ok"] else "FAILED (exit %d)"
                               % r["exit"]), file=sys.stderr, flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "seconds": seconds, "runs": runs}, f, indent=1)
    return report(args.workload, runs, metric_specs(bench, args.trace))


def values_of(runs, name):
    return [r["result"]["metrics"][name]["value"] for r in runs
            if r["result"] and name in r["result"]["metrics"]]


def report(workload, runs, specs):
    bad = sum(1 for r in runs if not r["ok"])
    print("%s: %d runs, %d incorrect" % (workload, len(runs), bad))
    print("%-30s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3",
                                             "spread", "bound"))
    status = 1 if bad else 0
    for name, spec in specs.items():
        vals = values_of(runs, name)
        if not vals:
            print("%-30s missing" % name)
            status = 1
            continue
        med, q1, q3, spread = summarise(vals)
        bound = spec.get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            if spread > bound:
                flag = " OVER BOUND"
                status = 1
            elif spread > bound / 3:
                flag = " over bound/3"
        print("%-30s %14.6g %14.6g %14.6g %8.4f %6s%s" % (
            name, med, q1, q3, spread, "-" if bound is None else bound, flag))
    return status


def cmd_compare(args):
    bench = load_benchmark()
    with open(args.base) as f:
        base = json.load(f)
    with open(args.head) as f:
        head = json.load(f)
    if base["workload"] != head["workload"] or base["trace"] != head["trace"]:
        print("the two sets are of different workloads or modes")
        return 1
    specs = metric_specs(bench, base["trace"])
    status = 0
    print("%-30s %14s %14s %9s %6s" % ("metric", "base median", "head median",
                                       "worse by", "bound"))
    for name, spec in specs.items():
        b, h = values_of(base["runs"], name), values_of(head["runs"], name)
        if not b or not h:
            continue
        mb, mh = statistics.median(b), statistics.median(h)
        worse = (mh - mb) if spec["better"] == "lower" else (mb - mh)
        share = worse / mb if mb else 0.0
        bound = spec.get("bound")
        verdict = ""
        if bound is not None and share > bound:
            verdict = " REGRESSION"
            status = 1
        print("%-30s %14.6g %14.6g %+9.4f %6s%s" % (
            name, mb, mh, share, "-" if bound is None else bound, verdict))
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run a workload N times and summarise")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    r.add_argument("--trace", type=int, choices=[0, 1], default=0)
    r.add_argument("--save", help="write the raw runs to this JSON file")
    c = sub.add_parser("compare", help="compare two saved sets of runs")
    c.add_argument("base")
    c.add_argument("head")
    args = ap.parse_args()
    sys.exit(cmd_run(args) if args.cmd == "run" else cmd_compare(args))


if __name__ == "__main__":
    main()
