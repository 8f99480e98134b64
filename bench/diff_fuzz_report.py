#!/usr/bin/env python3
"""Compare two chaos_fuzz FuzzReports seed by seed.

    python3 bench/diff_fuzz_report.py OLD NEW

For each report the script prints its failing seeds (a seed fails when it
has an oracle violation), its summed problems, true positives and false
positives, and its mean precision and recall over all seeds. Then it prints
one row per seed, present in both reports, whose summary changed: the
summary fields that differ, old -> new, and the oracles each side tripped
when those differ. Seeds found in only one report are listed.

The exit status is 1 when NEW fails a seed that OLD passed, or when NEW's
summed false positives exceed OLD's, and 0 otherwise.
"""
import argparse
import json
import sys

SUMMARY_FIELDS = ("pods", "steps", "periods", "problems", "true_positives",
                  "false_positives", "precision", "recall", "deterministic")
SUMMED_FIELDS = ("problems", "true_positives", "false_positives")


def load_seeds(path):
    """Returns the report's seed rows keyed by seed number."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or not isinstance(doc.get("seeds"), list):
        raise SystemExit(f"{path}: no \"seeds\" list")
    return {row["seed"]: row for row in doc["seeds"]}


def oracles(row):
    return [v["oracle"] for v in row.get("violations", [])]


def failing(seeds):
    return sorted(seed for seed, row in seeds.items() if oracles(row))


def fmt(value):
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def print_totals(label, path, seeds):
    sums = {f: sum(row.get(f, 0) for row in seeds.values())
            for f in SUMMED_FIELDS}
    n = max(len(seeds), 1)
    mean_p = sum(row.get("precision", 0.0) for row in seeds.values()) / n
    mean_r = sum(row.get("recall", 0.0) for row in seeds.values()) / n
    fails = failing(seeds)
    print(f"{label} {path}: {len(seeds)} seeds, failing: "
          + (" ".join(str(s) for s in fails) if fails else "none"))
    print("  " + "  ".join(f"{f} {sums[f]}" for f in SUMMED_FIELDS)
          + f"  mean precision {mean_p:.4f}  mean recall {mean_r:.4f}")
    return sums["false_positives"]


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)

    old = load_seeds(args.old)
    new = load_seeds(args.new)
    old_fp = print_totals("OLD", args.old, old)
    new_fp = print_totals("NEW", args.new, new)

    changed = 0
    for seed in sorted(old.keys() & new.keys()):
        diffs = [f"{f} {fmt(old[seed].get(f))} -> {fmt(new[seed].get(f))}"
                 for f in SUMMARY_FIELDS
                 if old[seed].get(f) != new[seed].get(f)]
        if oracles(old[seed]) != oracles(new[seed]):
            diffs.append(f"oracles {oracles(old[seed]) or '-'} -> "
                         f"{oracles(new[seed]) or '-'}")
        if diffs:
            changed += 1
            print(f"seed {seed}: " + ", ".join(diffs))
    print(f"{changed} seed(s) changed")
    for seed in sorted(old.keys() - new.keys()):
        print(f"seed {seed}: only in {args.old}")
    for seed in sorted(new.keys() - old.keys()):
        print(f"seed {seed}: only in {args.new}")

    newly_failing = [s for s in failing(new) if s in old and not oracles(old[s])]
    if newly_failing:
        print("NEW fails seeds OLD passed: "
              + " ".join(str(s) for s in newly_failing))
    if new_fp > old_fp:
        print(f"NEW has more false positives: {old_fp} -> {new_fp}")
    return 1 if newly_failing or new_fp > old_fp else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
