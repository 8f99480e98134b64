#!/usr/bin/env python3
"""Validate BENCH_*.json perf-trajectory files against the BenchJson schema.

Usage: python3 bench/check_bench_json.py

Checks every BENCH_*.json in the current directory. Each file must be one
{"bench", "params", "metrics"[, "stages"]} document, every stage row must
carry exactly the profiler's fold fields, and BENCH_profile.json must hold a
staged run for each value in its params.records_list. Exits non-zero on the
first violation.
"""
import glob
import json

STAGE_KEYS = {'stage', 'count', 'total_ns', 'min_ns', 'max_ns', 'p50_ns',
              'p99_ns'}


def check(path):
    with open(path) as f:
        doc = json.load(f)
    keys = set(doc)
    assert {'bench', 'params', 'metrics'} <= keys, (path, keys)
    assert keys <= {'bench', 'params', 'metrics', 'stages'}, (path, keys)
    assert isinstance(doc['bench'], str) and doc['bench'], path
    assert isinstance(doc['params'], dict), path
    assert isinstance(doc['metrics'], dict), path
    for stage in doc.get('stages', []):
        assert STAGE_KEYS == set(stage), (path, stage)
    return doc


def main():
    files = sorted(glob.glob('BENCH_*.json'))
    assert files, 'no BENCH_*.json found'
    docs = {}
    for path in files:
        docs[path] = check(path)
        print(f'{path}: ok ({docs[path]["bench"]})')
    prof = docs['BENCH_profile.json']
    requested = {int(r) for r in prof['params']['records_list'].split(',')}
    staged = {r['records'] for r in prof['metrics']['runs'] if r['stages']}
    missing = requested - staged
    assert not missing, ('--records without a staged run', missing)


if __name__ == '__main__':
    main()
