#!/usr/bin/env python3
"""Diff two BENCH_*.json artifacts row by row.

The bench harness (src/bench_util/harness.h) emits
    {"bench": <name>, "config": {...}, "results": [{...}, ...]}
where each result row mixes string keys (section, stage, pdf, ...) and
numeric fields (scalar_us, merge_us, speedup, ...). This tool matches rows
between a baseline and a candidate file by every string-valued field plus
the numeric size fields (candidates, subregions, pieces, batch, capacity,
...) and prints the relative delta of every timing/speedup field — the
quick answer to "did this PR move the needle, and where". Two rows of one
file with the same key are an error: matching them would silently drop
one.

Usage: ci/compare_bench.py BASELINE.json CANDIDATE.json [--threshold PCT]

Exit code is 1 when a file has duplicate row keys, or when --threshold is
given and any *_us field regresses beyond PCT percent (CI gate mode);
otherwise 0.
"""

import argparse
import json
import sys

# Numeric fields that identify a row rather than measure it. Every
# string-valued field is part of the key as well.
SIZE_FIELDS = ("candidates", "subregions", "pieces", "pdf_pieces", "batch",
               "threads", "shards", "size", "k", "queries", "capacity",
               "zipf_exponent")


def is_key_field(field, value):
    return isinstance(value, str) or field in SIZE_FIELDS


def row_key(row):
    return tuple(sorted((k, v) for k, v in row.items() if is_key_field(k, v)))


def fmt_key(key):
    return " ".join(
        f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}" for k, v in key)


def load_results(path):
    with open(path) as fh:
        doc = json.load(fh)
    rows = {}
    duplicates = []
    for row in doc.get("results", []):
        key = row_key(row)
        if key in rows:
            duplicates.append(key)
        rows[key] = row
    return doc.get("bench", path), rows, duplicates


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=None,
                        help="fail if any *_us field regresses by more than "
                             "this percentage")
    args = parser.parse_args()

    base_name, base, base_dups = load_results(args.baseline)
    cand_name, cand, cand_dups = load_results(args.candidate)
    duplicates = [(args.baseline, k) for k in base_dups] + \
                 [(args.candidate, k) for k in cand_dups]
    if duplicates:
        print("FAILED: rows share a key, so they cannot be matched:")
        for path, key in duplicates:
            print(f"    {path}: {fmt_key(key)}")
        return 1
    print(f"baseline:  {args.baseline} ({base_name}, {len(base)} rows)")
    print(f"candidate: {args.candidate} ({cand_name}, {len(cand)} rows)")
    print()

    regressions = []
    matched = 0
    for key, brow in sorted(base.items(), key=lambda kv: fmt_key(kv[0])):
        crow = cand.get(key)
        if crow is None:
            print(f"[only in baseline]  {fmt_key(key)}")
            continue
        matched += 1
        deltas = []
        for field, bval in brow.items():
            if is_key_field(field, bval) or \
                    not isinstance(bval, (int, float)):
                continue
            cval = crow.get(field)
            if not isinstance(cval, (int, float)) or bval == 0:
                continue
            pct = 100.0 * (cval - bval) / bval
            deltas.append(f"{field} {bval:g} -> {cval:g} ({pct:+.1f}%)")
            # For timings lower is better; for speedups higher is better.
            if field.endswith("_us") and args.threshold is not None \
                    and pct > args.threshold:
                regressions.append((key, field, pct))
        if deltas:
            print(f"{fmt_key(key)}")
            for d in deltas:
                print(f"    {d}")
    for key in sorted(set(cand) - set(base), key=fmt_key):
        print(f"[only in candidate] {fmt_key(key)}")

    print(f"\n{matched} rows matched")
    if regressions:
        print(f"FAILED: {len(regressions)} timing regressions beyond "
              f"{args.threshold:.1f}%:")
        for key, field, pct in regressions:
            print(f"    {fmt_key(key)}: {field} {pct:+.1f}%")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
