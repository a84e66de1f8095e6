#!/usr/bin/env python3
"""Compares two sets of pvbench results against the BENCHMARK.json bounds.

  python3 bench/pvbench/compare.py --base A1.json A2.json ... \\
                                   --head B1.json B2.json ...

Each file is a results JSON written by run.py. Every file of both sets must
have the same mode, run length and smoke setting; other sets are refused.
Runs are pooled per (workload, metric); base[i] and head[i] form pair i,
so list the files in the order they ran (alternate which side runs first).
For every end-to-end metric the report shows each side's median and
quartiles, the change of the head median relative to the base median, and
a verdict:

  invalid       a run of the workload (either side) gave a wrong answer or
                had its load phase marked invalid; no metric is compared
  regressed     the head failed a larger share of its requests than the
                base (every metric of the workload), or the head median is
                worse than the base median by more than the bound
  improved      head better in >= 9/10 of the pairs, and the medians differ
                by more than the base runs' interquartile distance
  unresolved    a side's interquartile distance exceeds the bound (as a
                share of its median), unless every head run reads better
                than every base run
  within bound  otherwise

The metrics printed but not gated (the serve.* extras of an untraced run)
follow, with no bound: "improved" by the pair rule above, else "not gated".

The answers_digest of every run of a workload must agree. Exit status 1
when a metric regressed or is invalid, or digests disagree; 2 when the
sets cannot be compared.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Settings that change what a run measures; both sets must share them.
RUN_SETTINGS = ("mode", "seconds", "smoke")


def load(paths):
    """Returns ({setting: value}, {workload: runs}) for one set of files.
    runs holds per-run lists of metric values, digests, outcome flags and
    request counts."""
    settings, out = None, {}
    for path in paths:
        results = json.loads(Path(path).read_text())
        these = {k: results.get(k) for k in RUN_SETTINGS}
        if settings is None:
            settings = these
        elif these != settings:
            print(f"compare: {path} was run with {these}, the first file "
                  f"of its set with {settings}", file=sys.stderr)
            sys.exit(2)
        for workload, r in results["workloads"].items():
            slot = out.setdefault(workload, {
                "metrics": {}, "digests": set(), "runs": 0, "attempted": 0,
                "failed": 0, "bad_runs": 0})
            slot["runs"] += 1
            slot["digests"].add(r["answers_digest"])
            slot["attempted"] += int(r["attempted"])
            slot["failed"] += int(r["failed"])
            if not (r["correct"] and r["valid"]):
                slot["bad_runs"] += 1
            for name, m in {**r["metrics"], **r.get("extras", {})}.items():
                slot["metrics"].setdefault(name, []).append(m["value"])
    return settings, out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, head, bound, better):
    """The verdict for one (workload, metric); better is lower/higher."""
    sign = 1.0 if better == "lower" else -1.0

    def beats(x, y):  # x reads better than y
        return sign * (x - y) < 0

    q1, mb, q3 = quartiles(base)
    mh = statistics.median(head)
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if beats(h, b))
    if pairs and wins >= 0.9 * len(pairs) and abs(mh - mb) > (q3 - q1) \
            and beats(mh, mb):
        return "improved"
    if bound is None:
        return "not gated"
    if all(beats(h, b) for b in base for h in head):
        return "within bound"
    if spread(base) > bound or spread(head) > bound:
        return "unresolved"
    if mb and sign * (mh - mb) / abs(mb) > bound:
        return "regressed"
    return "within bound"


def error_rate(side):
    return side["failed"] / max(1, side["attempted"])


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:12.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--head", nargs="+", required=True)
    p.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = p.parse_args(argv)

    bench = json.loads(Path(args.benchmark).read_text())
    base_settings, base = load(args.base)
    head_settings, head = load(args.head)
    if base_settings != head_settings:
        print(f"compare: base runs used {base_settings}, head runs "
              f"{head_settings}", file=sys.stderr)
        return 2
    bad = False
    for workload in sorted(set(base) | set(head)):
        if workload not in base or workload not in head:
            print(f"== {workload}: missing on one side")
            bad = True
            continue
        b_side, h_side = base[workload], head[workload]
        digests = b_side["digests"] | h_side["digests"]
        agree = len(digests) == 1
        digest = "identical" if agree else \
            "DIFFERS: " + ", ".join(sorted(digests))
        invalid = b_side["bad_runs"] + h_side["bad_runs"] > 0
        more_failures = error_rate(h_side) > error_rate(b_side)
        bad = bad or not agree or invalid or more_failures
        print(f"== {workload}: {b_side['runs']} base / {h_side['runs']} head "
              f"runs; answers_digest {digest}; failed "
              f"{b_side['failed']}/{b_side['attempted']} base, "
              f"{h_side['failed']}/{h_side['attempted']} head; "
              f"invalid or wrong runs {b_side['bad_runs']} base, "
              f"{h_side['bad_runs']} head")
        print(f"  {'metric':<32} {'base median [q1, q3]':>34} "
              f"{'head median [q1, q3]':>34} {'change':>8} {'bound':>6} "
              f" verdict")
        gated = {m["name"] for m in bench["end_to_end"]}
        extras = [m for m in bench["per_layer"]
                  if m["name"] not in gated and m["name"] in b_side["metrics"]
                  and m["name"] in h_side["metrics"]]
        for m in bench["end_to_end"] + extras:
            b = b_side["metrics"].get(m["name"])
            h = h_side["metrics"].get(m["name"])
            if not b or not h:
                print(f"  {m['name']:<32} missing on one side")
                bad = True
                continue
            bound = m.get("bound")
            if invalid:
                v = "invalid"
            elif more_failures and bound is not None:
                v = "regressed"
            else:
                v = verdict(b, h, bound, m["better"])
            bad = bad or v == "regressed"
            mb = statistics.median(b)
            change = (statistics.median(h) - mb) / abs(mb) if mb else 0.0
            shown = f"{100 * bound:5.1f}%" if bound is not None else "    - "
            print(f"  {m['name']:<32} {fmt(b):>34} {fmt(h):>34} "
                  f"{100 * change:+7.2f}% {shown}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
