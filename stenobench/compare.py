#!/usr/bin/env python3
"""Compares two sets of steno_bench runs: a parent commit and a change.

    python3 stenobench/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds the result files of untraced runs (run.py --json or
steno_bench --json), at least 10 per workload, made alternately with the
other side on the same machine. Runs are paired in file-name order within
each workload, so pair i is two runs made minutes apart. Each pair gives
a ratio, change over parent; the host's speed drifts over minutes, and
the ratio cancels what the two runs of a pair shared.

One row per (workload, end-to-end metric) gives both sides' median and
quartiles, the median and quartiles of the paired ratios, the share of
pairs the change won (ties count for neither), and a verdict:

  improved    the change won at least 9 of 10 pairs and the medians differ
              by more than the parent's own quartile spread;
  regressed   the same rule the other way (the parent won at least 9 of
              10 pairs, by more than its quartile spread), or the median
              paired ratio is worse than 1 by more than the metric's bound
              in BENCHMARK.json, or every change run is worse than every
              parent run;
  unresolved  the paired ratios' quartile spread exceeds the bound, so
              "no regression" cannot be shown (unless every change run
              beats every parent run);
  unchanged   otherwise.

Quartiles are the inclusive (type 7) ones the harness uses. A workload
whose share of failed requests rose is flagged. Exit status 1 when
anything regressed or is unresolved, or a failure share rose.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory):
    """workload -> list of result dicts, in file-name order."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        if "workload" in r and not r.get("traced"):
            runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    """(q1, median, q3), type 7."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Returns (verdict, win share, quartiles of the paired ratios)."""
    sign = 1 if better == "lower" else -1  # sign * (a - b) < 0: a better
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    loss_share = losses / len(pairs) if pairs else 0.0
    ratios = [c / p for p, c in pairs if p]
    r1, rm, r3 = quartiles(ratios) if ratios else (1.0, 1.0, 1.0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) > 0 for c in change for p in parent)
    # How much worse the change is, as a share of the parent: the median
    # ratio's distance from 1 in the metric's bad direction.
    worse = sign * (rm - 1.0)
    clear = abs(cm - pm) > p3 - p1
    if sign * (cm - pm) < 0 and win_share >= 0.9 and clear:
        v = "improved"
    elif (sign * (cm - pm) > 0 and loss_share >= 0.9 and clear) or \
            all_worse or worse > bound:
        v = "regressed"
    elif r3 - r1 > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return v, win_share, (r1, rm, r3)


def fail_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--benchmark",
                   default=os.path.join(os.path.dirname(here),
                                        "BENCHMARK.json"))
    args = p.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    parent, change = load(args.parent_dir), load(args.change_dir)

    bad = False
    print("%-12s %-15s %28s %28s %22s %5s  %s" %
          ("workload", "metric", "parent median [q1, q3]",
           "change median [q1, q3]", "ratio [q1, q3]", "wins", "verdict"))
    for w in [w["name"] for w in spec["workloads"]]:
        pr, cr = parent.get(w, []), change.get(w, [])
        if not pr or not cr:
            print("%-12s (no runs on %s)" %
                  (w, "parent" if not pr else "change"))
            continue
        note = "" if min(len(pr), len(cr)) >= 10 else \
            "  (%d/%d runs; 10 per side needed)" % (len(pr), len(cr))
        for m in spec["end_to_end"]:
            pv = [r["metrics"][m["name"]]["value"] for r in pr]
            cv = [r["metrics"][m["name"]]["value"] for r in cr]
            v, wins, rq = verdict(pv, cv, m["better"], m["bound"])
            bad = bad or v in ("regressed", "unresolved")
            pq, cq = quartiles(pv), quartiles(cv)
            print("%-12s %-15s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] "
                  "%6.3f [%5.3f, %5.3f] %4.0f%%  %s%s" %
                  (w, m["name"], pq[1], pq[0], pq[2], cq[1], cq[0], cq[2],
                   rq[1], rq[0], rq[2], 100 * wins, v, note))
        pf, cf = fail_share(pr), fail_share(cr)
        if cf > pf:
            bad = True
            print("%-12s fail_share rose: %.3g -> %.3g" % (w, pf, cf))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
