"""Compare two sets of runs, metric by metric and workload by workload.

A set file is what ``run.py --sets`` writes: for every workload, the result
objects of R runs on R seeds.  For each (metric, workload) the comparison
prints both medians with their quartiles, the change of B against A as a
share of A's median (positive = worse), the metric's bound from
``BENCHMARK.json``, and a class:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``improved``   — B's median is better by more than the run-to-run spread
  *and* B wins at least nine tenths of the runs paired by seed (ties count
  for neither): on a machine whose speed drifts, a median alone can move by
  its spread between two passes over the same commit;
* ``unchanged``  — neither;
* ``unresolved`` — the spread (the wider interquartile range, as a share of
  A's median) exceeds the bound, so the runs cannot tell; unless every run
  of one side beats every run of the other, which settles it.

Exit status is non-zero on any regression or a higher failed-op share.
"""

from __future__ import annotations

import json
import statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); degenerate for n < 2."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def metric_values(runs: list[dict], name: str) -> list[float]:
    return [run["metrics"][name]["value"] for run in runs]


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def classify(
    a: list[float], b: list[float], better: str, bound: float
) -> tuple[str, float, float]:
    """Class, change (positive = worse) and spread, as shares of A's median."""
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b_median - a_median) / a_median
    spread = max(a_q3 - a_q1, b_q3 - b_q1) / abs(a_median)
    if spread > bound:
        worse = [sign * value for value in b]
        base = [sign * value for value in a]
        if min(worse) > max(base) and change > bound:
            return "regressed", change, spread
        if max(worse) < min(base):
            return "improved", change, spread
        return "unresolved", change, spread
    if change > bound:
        return "regressed", change, spread
    wins = sum(sign * y < sign * x for x, y in zip(a, b))
    losses = sum(sign * y > sign * x for x, y in zip(a, b))
    if change < 0 and -change > spread and wins >= 0.9 * (wins + losses):
        return "improved", change, spread
    return "unchanged", change, spread


def compare_sets(set_a: dict, set_b: dict, contract: dict) -> tuple[str, bool]:
    """The comparison table (markdown) and whether B is acceptable."""
    lines = [
        "| workload | metric | unit | A median [q1, q3] | B median [q1, q3] "
        "| change | spread | bound | class |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    acceptable = True
    for workload in [w["name"] for w in contract["workloads"]]:
        runs_a = set_a["runs"][workload]
        runs_b = set_b["runs"][workload]
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a = metric_values(runs_a, name)
            b = metric_values(runs_b, name)
            verdict, change, spread = classify(
                a, b, metric["better"], metric["bound"]
            )
            acceptable = acceptable and verdict != "regressed"
            a_q1, a_median, a_q3 = quartiles(a)
            b_q1, b_median, b_q3 = quartiles(b)
            lines.append(
                f"| {workload} | {name} | {metric['unit']} "
                f"| {a_median:.4g} [{a_q1:.4g}, {a_q3:.4g}] "
                f"| {b_median:.4g} [{b_q1:.4g}, {b_q3:.4g}] "
                f"| {change:+.1%} | {spread:.1%} | {metric['bound']:.1%} "
                f"| {verdict} |"
            )
        share_a, share_b = failed_share(runs_a), failed_share(runs_b)
        acceptable = acceptable and share_b <= share_a
        lines.append(
            f"| {workload} | ops_failed / ops_attempted | share "
            f"| {share_a:.4g} (n={len(runs_a)}) | {share_b:.4g} "
            f"(n={len(runs_b)}) | | | | "
            f"{'ok' if share_b <= share_a else 'regressed'} |"
        )
    return "\n".join(lines), acceptable


def compare_files(path_a: str, path_b: str, contract: dict) -> int:
    with open(path_a, encoding="utf-8") as handle:
        set_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        set_b = json.load(handle)
    table, acceptable = compare_sets(set_a, set_b, contract)
    for label, data in (("A", set_a), ("B", set_b)):
        print(f"{label}: {json.dumps(data['environment'])}")
    print()
    print(table)
    return 0 if acceptable else 1
