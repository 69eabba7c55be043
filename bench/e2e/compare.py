#!/usr/bin/env python3
"""Compares two sets of e2e benchmark runs (choosing-metrics §8).

    python3 bench/e2e/compare.py parent.jsonl change.jsonl
    python3 bench/e2e/compare.py set1.jsonl set2.jsonl --same-commit

Each file holds one JSON record per run, as `run.py --record FILE`
appends them. Runs pair up by workload, trace mode and seed; run at
least ten pairs, alternating which side runs first. Per workload and
metric the report gives each side's median and quartiles and the
change's win fraction, then a verdict:

  improved    the change wins at least 9/10 of the pairs (ties count
              for neither) and its median is better by more than the
              parent's interquartile range;
  regressed   otherwise, the change's median is worse than the
              parent's by more than the metric's bound in
              BENCHMARK.json;
  unresolved  otherwise, the parent's spread (IQR / median) exceeds
              the bound and not every change run beats every parent
              run;
  unchanged   otherwise.

Per-layer metrics have no bound and only ever read "improved" or "-".
A side with more failed operations than the parent forfeits any gain.
With --same-commit both files come from one commit; the verdict is
whether their medians lie within the bound of each other, in either
direction, and whether each set's spread stays within it. The exit
status is 1 when anything regressed or disagreed.
"""

import argparse
import collections
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load(path):
    runs = collections.defaultdict(dict)
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                key = (record["workload"], record["trace"])
                runs[key][record["seed"]] = record
    return runs


def summary(values):
    ordered = sorted(values)
    if len(ordered) == 1:
        q1 = q2 = q3 = ordered[0]
    else:
        q1, q2, q3 = statistics.quantiles(ordered, n=4)
    spread = (q3 - q1) / abs(q2) if q2 else 0.0
    return {"n": len(ordered), "q1": q1, "median": q2, "q3": q3,
            "spread": spread}


def worse_by(parent, change, better):
    """Relative amount by which `change` is worse than `parent`."""
    if parent == 0:
        return 0.0
    gap = (change - parent) / abs(parent)
    return gap if better == "lower" else -gap


def judge(p, c, spec, bound):
    """Verdict for one metric of a parent/change comparison; p[i] and
    c[i] are one pair."""
    better = spec["better"]
    wins = sum(1 for pv, cv in zip(p, c)
               if (cv < pv if better == "lower" else cv > pv))
    ties = sum(1 for pv, cv in zip(p, c) if pv == cv)
    sp, sc = summary(p), summary(c)
    improved = (wins >= 0.9 * len(p) and
                worse_by(sp["median"], sc["median"], better) < 0 and
                abs(sc["median"] - sp["median"]) > sp["q3"] - sp["q1"])
    dominated = (max(c) < min(p)) if better == "lower" \
        else (min(c) > max(p))
    if improved:
        verdict = "improved"
    elif bound is None:
        verdict = "-"
    elif worse_by(sp["median"], sc["median"], better) > bound:
        verdict = "regressed"
    elif sp["spread"] > bound and not dominated:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {"parent": sp, "change": sc, "wins": wins, "ties": ties,
            "pairs": len(p), "verdict": verdict}


def agree(a, b, bound):
    """Verdict for one metric of two same-commit sets: their medians
    must lie within the bound of each other, whichever is better."""
    sa, sb = summary(a), summary(b)
    gap = ((sb["median"] - sa["median"]) / abs(sa["median"])
           if sa["median"] else 0.0)
    if bound is None:
        verdict = "-"
    elif abs(gap) > bound:
        verdict = "DISAGREE"
    elif max(sa["spread"], sb["spread"]) > bound:
        verdict = "spread>bound"
    else:
        verdict = "agree"
    return {"first": sa, "second": sb, "verdict": verdict,
            "median_gap": gap}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="runs of the parent (or set 1)")
    parser.add_argument("change", help="runs of the change (or set 2)")
    parser.add_argument("--same-commit", action="store_true",
                        help="both files come from one commit")
    parser.add_argument("--json", help="also write the report here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        definition = json.load(f)
    specs = {m["name"]: m for m in
             definition["end_to_end"] + definition["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in definition["end_to_end"]}
    first, second = load(args.parent), load(args.change)

    report = {}
    bad = False
    for key in sorted(set(first) & set(second)):
        workload, trace = key
        seeds = sorted(set(first[key]) & set(second[key]))
        runs_a = [first[key][s] for s in seeds]
        runs_b = [second[key][s] for s in seeds]
        failed_a = sum(r["result"].get("failed", 0) for r in runs_a)
        failed_b = sum(r["result"].get("failed", 0) for r in runs_b)
        incorrect = sum(1 for r in runs_a + runs_b
                        if not r["result"].get("correct", False))
        label = "%s (trace %d)" % (workload, trace)
        print("%s: %d pairs, failed ops %d vs %d, %d incorrect runs" %
              (label, len(seeds), failed_a, failed_b, incorrect))
        if not args.same_commit:
            first_runs = sum(1 for a, b in zip(runs_a, runs_b)
                             if a.get("started", 0) < b.get("started", 0))
            print("  parent ran first in %d of %d pairs" %
                  (first_runs, len(seeds)))
            if len(seeds) < 10:
                print("  fewer than 10 pairs: no claim can be made")
        rows = {}
        names = [n for n in specs
                 if all(n in r["result"].get("metrics", {})
                        for r in runs_a + runs_b)]
        for name in names:
            a = [r["result"]["metrics"][name]["value"] for r in runs_a]
            b = [r["result"]["metrics"][name]["value"] for r in runs_b]
            if args.same_commit:
                row = agree(a, b, bounds.get(name))
                bad |= row["verdict"] == "DISAGREE"
                print("  %-30s %12.6g %12.6g  gap %+6.1f%%  spread "
                      "%5.1f%% %5.1f%%  %s" % (
                          name, row["first"]["median"],
                          row["second"]["median"],
                          100 * row["median_gap"],
                          100 * row["first"]["spread"],
                          100 * row["second"]["spread"], row["verdict"]))
            else:
                row = judge(a, b, specs[name], bounds.get(name))
                if failed_b > failed_a and row["verdict"] == "improved":
                    row["verdict"] = "forfeit (more failures)"
                bad |= row["verdict"] == "regressed"
                print("  %-30s parent %12.6g [%.6g, %.6g]  change "
                      "%12.6g [%.6g, %.6g]  wins %d/%d  %s" % (
                          name, row["parent"]["median"],
                          row["parent"]["q1"], row["parent"]["q3"],
                          row["change"]["median"], row["change"]["q1"],
                          row["change"]["q3"], row["wins"], row["pairs"],
                          row["verdict"]))
            rows[name] = row
        bad |= incorrect > 0
        report[label] = {"pairs": len(seeds), "failed": [failed_a,
                                                         failed_b],
                         "incorrect_runs": incorrect, "metrics": rows}
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"mode": "same-commit" if args.same_commit
                       else "parent-vs-change", "report": report}, f,
                      indent=1, sort_keys=True)
            f.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
