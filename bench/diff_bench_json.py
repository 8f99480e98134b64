#!/usr/bin/env python3
"""Diff two BENCH_*.json files and flag regressions past a threshold.

    python3 bench/diff_bench_json.py OLD NEW [--threshold 0.10]

Each file's "metrics" object is flattened into path -> number. A list row is
keyed by its "stage", "records", "pod" or "event" field (the first one it
has), not by its index, so reordering rows changes nothing. For every path
whose value moved by more than the threshold (relative to OLD) the script
prints old, new and new/old. Paths found in only one file are listed.

The exit status is 1 when a cost metric (name ending in _ms, _ns or _bytes)
rose past the threshold or a rate metric (_per_sec, _x) fell past it, and 0
otherwise. A time metric (_ms, _ns) must also have risen by more than
TIME_FLOOR_NS: a stage row of a few microseconds from one run can double
without costing anything. Byte and rate metrics are deterministic estimates
and keep the ratio rule alone. Added or missing paths never fail the diff.
"""
import argparse
import json
import math
import sys

ROW_KEYS = ("stage", "records", "pod", "event")
COST_SUFFIXES = ("_ms", "_ns", "_bytes")
RATE_SUFFIXES = ("_per_sec", "_x")
# A time metric regresses only when it also rose by more than 0.1 ms.
TIME_FLOOR_NS = 100_000
NS_PER_UNIT = {"_ms": 1e6, "_ns": 1.0}


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def flatten(node, path, out):
    """Adds every numeric leaf under `node` to `out` as path -> value."""
    if isinstance(node, dict):
        for key, value in node.items():
            flatten(value, f"{path}/{key}" if path else key, out)
    elif isinstance(node, list):
        seen = {}
        for i, row in enumerate(node):
            key = next((k for k in ROW_KEYS
                        if isinstance(row, dict) and k in row), None)
            label = f"{key}={row[key]}" if key else str(i)
            # Two rows with the same key stay apart, in file order.
            n = seen.get(label, 0)
            seen[label] = n + 1
            if n:
                label += f"#{n}"
            flatten(row, f"{path}[{label}]", out)
    elif is_number(node):
        out[path] = float(node)


def load_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or not isinstance(doc.get("metrics"), dict):
        raise SystemExit(f"{path}: no \"metrics\" object")
    flat = {}
    flatten(doc["metrics"], "", flat)
    return flat


def relative_change(old, new):
    if old != 0:
        return (new - old) / abs(old)
    return 0.0 if new == 0 else math.copysign(math.inf, new)


def regressed(path, old, new, change, threshold):
    name = path.rsplit("/", 1)[-1]
    for suffix, ns in NS_PER_UNIT.items():
        if name.endswith(suffix):
            return change > threshold and (new - old) * ns > TIME_FLOOR_NS
    if name.endswith(COST_SUFFIXES):
        return change > threshold
    if name.endswith(RATE_SUFFIXES):
        return change < -threshold
    return False


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="relative change that counts as a move (default 0.10)")
    args = ap.parse_args(argv)
    if not args.threshold >= 0:
        ap.error("--threshold must be >= 0")

    old = load_metrics(args.old)
    new = load_metrics(args.new)
    failed = False
    for path in sorted(old.keys() & new.keys()):
        change = relative_change(old[path], new[path])
        if abs(change) <= args.threshold:
            continue
        ratio = new[path] / old[path] if old[path] != 0 else math.inf
        bad = regressed(path, old[path], new[path], change, args.threshold)
        failed = failed or bad
        print(f"{path}: {old[path]:g} -> {new[path]:g} (x{ratio:.3f})"
              + ("  REGRESSION" if bad else ""))
    for path in sorted(old.keys() - new.keys()):
        print(f"{path}: only in {args.old}")
    for path in sorted(new.keys() - old.keys()):
        print(f"{path}: only in {args.new}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
