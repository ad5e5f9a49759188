"""Compare two sets of benchmark result files: a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Both directories hold untraced result files written by run.py (searched
recursively).  For every (end-to-end metric, workload) pair this reports
each side's median and quartiles and the share of run pairs the change wins,
and gives one verdict:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ, in its favour, by more than
              the parent's interquartile range;
  unresolved  otherwise, when either side's spread (IQR over median) is wider
              than the metric's bound, unless every change run reads better
              than every parent run;
  worse       the change's median is worse than the parent's by more than
              the bound;
  no-worse    anything else.

Runs pair by seed when both sides ran the same seeds, else in run order.
Bounds and directions come from BENCHMARK.json.  One row per workload.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(directory: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"), recursive=True)):
        with open(path) as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0 and not rec.get("tiny"):
            runs.setdefault(rec["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: (r["provenance"]["seed"], r["provenance"]["run_index"]))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {}
    for rec in change:
        by_seed.setdefault(rec["provenance"]["seed"], []).append(rec)
    matched = []
    for rec in parent:
        mates = by_seed.get(rec["provenance"]["seed"])
        if mates:
            matched.append((rec, mates.pop(0)))
    if len(matched) == min(len(parent), len(change)):
        return matched
    return list(zip(parent, change))


def verdict(parent: list[float], change: list[float], paired, better: str, bound: float) -> dict:
    def is_better(c: float, p: float) -> bool:
        return c < p if better == "lower" else c > p

    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(1 for p, c in paired if is_better(c, p))
    win_share = wins / len(paired) if paired else 0.0

    def spread(q1, med, q3):
        return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))

    worse_by = (cmed - pmed) if better == "lower" else (pmed - cmed)
    worse_by = worse_by / abs(pmed) if pmed else (0.0 if worse_by <= 0 else float("inf"))
    all_better = all(is_better(c, p) for c in change for p in parent)
    if win_share >= 0.9 and is_better(cmed, pmed) and abs(cmed - pmed) > pq3 - pq1:
        result = "improved"
    elif max(spread(pq1, pmed, pq3), spread(cq1, cmed, cq3)) > bound and not all_better:
        result = "unresolved"
    elif worse_by > bound:
        result = "worse"
    else:
        result = "no-worse"
    return {
        "verdict": result,
        "parent": {"median": pmed, "q1": pq1, "q3": pq3, "runs": len(parent)},
        "change": {"median": cmed, "q1": cq1, "q3": cq3, "runs": len(change)},
        "win_share": win_share,
        "pairs": len(paired),
        "worse_by": worse_by,
        "bound": bound,
    }


def compare(parent_dir: str, change_dir: str, spec: dict) -> dict[str, dict[str, dict]]:
    parent, change = load(parent_dir), load(change_dir)
    report: dict[str, dict[str, dict]] = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent or workload not in change:
            continue
        paired = pairs(parent[workload], change[workload])
        report[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def values(recs):
                return [r["metrics"][name]["value"] for r in recs]

            report[workload][name] = verdict(
                values(parent[workload]),
                values(change[workload]),
                [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in paired],
                metric["better"],
                metric["bound"],
            )
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    report = compare(args.parent, args.change, spec)
    if not report:
        print("compare: no workload has untraced results on both sides", file=sys.stderr)
        return 1
    for workload, metrics in report.items():
        cells = []
        for name, r in metrics.items():
            p, c = r["parent"], r["change"]
            cells.append(
                f"{name} {r['verdict']} {p['median']:.4g} [{p['q1']:.4g},{p['q3']:.4g}]"
                f" -> {c['median']:.4g} [{c['q1']:.4g},{c['q3']:.4g}] win {r['win_share']:.2f}"
            )
        print(f"{workload}: " + " | ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
