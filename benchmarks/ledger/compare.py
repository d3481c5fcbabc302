"""``python -m benchmarks.ledger compare A B``: two result sets, one row
per (workload, end-to-end metric).

A result set is a directory of end-to-end result documents (one per
workload and run).  A metric has *regressed* when B's median is worse
than A's by more than the metric's bound; where either side's
run-to-run spread (quartile distance over median) is wider than the
bound the row is *unresolved*, not ok.
"""

from __future__ import annotations

import glob
import json
import os
import sys
from collections import defaultdict

from benchmarks.ledger import workloads as W
from benchmarks.ledger.stats import median, quartile_spread


def load_set(directory: str) -> dict:
    """``{workload: [result document, ...]}`` for the untraced results."""
    runs = defaultdict(list)
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        provenance = document.get("provenance", {})
        if provenance.get("traced") is False:
            runs[provenance["workload"]].append(document)
    if not runs:
        raise SystemExit(f"no end-to-end results under {directory}")
    return runs


def _values(documents: list, name: str) -> list[float]:
    return [d["metrics"][name]["value"] for d in documents]


def _spread(values: list[float]) -> float | None:
    return quartile_spread(values) if len(values) >= 2 else None


def verdict(metric: W.Metric, a: list[float], b: list[float]) -> dict:
    base, new = median(a), median(b)
    ratio = new / base
    worse = ratio - 1.0 if metric.better == "lower" else 1.0 - ratio
    spreads = [s for s in (_spread(a), _spread(b)) if s is not None]
    spread = max(spreads) if spreads else None
    if spread is not None and spread > metric.bound:
        status = "unresolved"
    elif worse > metric.bound:
        status = "regressed"
    else:
        status = "ok"
    return {"a": base, "b": new, "ratio": ratio, "worse": worse,
            "spread": spread, "status": status}


def failed_share(documents: list) -> float:
    return (sum(d["failed"] for d in documents)
            / max(sum(d["attempted"] for d in documents), 1))


def compare(dir_a: str, dir_b: str, stream=sys.stdout) -> int:
    set_a, set_b = load_set(dir_a), load_set(dir_b)
    tally = defaultdict(int)
    print(f"A = {dir_a}\nB = {dir_b}\nratio = B/A (base A); a metric may "
          f"worsen by its bound", file=stream)
    print(f"{'workload':<14} {'metric':<24} {'A median':>13} {'B median':>13} "
          f"{'B/A':>7} {'bound':>6} {'spread':>7}  status", file=stream)
    for workload in W.WORKLOADS:
        if workload not in set_a or workload not in set_b:
            print(f"{workload:<14} missing from one set", file=stream)
            tally["missing"] += 1
            continue
        for metric in W.END_TO_END:
            row = verdict(metric, _values(set_a[workload], metric.name),
                          _values(set_b[workload], metric.name))
            tally[row["status"]] += 1
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.3f}"
            home = "*" if metric.home == workload else " "
            print(f"{workload:<14} {metric.name + home:<24} {row['a']:>13.5g} "
                  f"{row['b']:>13.5g} {row['ratio']:>7.3f} "
                  f"{metric.bound:>6.2f} {spread:>7}  {row['status']}",
                  file=stream)
        share_a = failed_share(set_a[workload])
        share_b = failed_share(set_b[workload])
        more = share_b > share_a
        tally["more-failures"] += more
        print(f"{workload:<14} {'failed share':<24} {share_a:>13.5g} "
              f"{share_b:>13.5g} {'':>7} {'':>6} {'':>7}  "
              f"{'MORE FAILURES' if more else 'ok'}", file=stream)
        incorrect = [d for d in set_a[workload] + set_b[workload]
                     if not d["correct"]]
        if incorrect:
            tally["incorrect"] += len(incorrect)
            print(f"{workload:<14} {len(incorrect)} run(s) failed their "
                  f"output checks", file=stream)
    print("(* = the metric's home workload)  "
          + ", ".join(f"{count} {status}" for status, count in tally.items()
                      if count), file=stream)
    bad = ("regressed", "more-failures", "incorrect", "missing")
    return 1 if any(tally[status] for status in bad) else 0
