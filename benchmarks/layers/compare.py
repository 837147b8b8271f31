"""``--compare A.json B.json``: B judged against A, metric by metric."""

from __future__ import annotations

import json
import statistics

from . import spec


class MissingEntry(Exception):
    """A workload or metric absent from one side: nothing may pass silently."""


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(metric: spec.Metric, a: list[float], b: list[float]) -> tuple[float, str]:
    """``(worsening, verdict)`` of runs *b* against runs *a*.

    *worsening* is the share of A's median by which B's is worse.  When
    either side's own spread exceeds the bound the comparison cannot tell
    a change from noise and says ``unresolved`` — unless every run of one
    side beats every run of the other.
    """
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if metric.better == "lower" else -1.0
    worsening = sign * (med_b - med_a) / med_a
    separated = max(a) < min(b) or max(b) < min(a)
    if max(spread(a), spread(b)) > metric.bound and not separated:
        return worsening, "unresolved"
    if worsening > metric.bound:
        return worsening, "regressed"
    if worsening < -metric.bound:
        return worsening, "improved"
    return worsening, "unchanged"


def compare(path_a: str, path_b: str) -> tuple[list[str], bool]:
    """Rows of the comparison table, and whether anything regressed."""
    with open(path_a) as f:
        doc_a = json.load(f)
    with open(path_b) as f:
        doc_b = json.load(f)
    rows = [f"{'workload':<16} {'metric':<20} {'A median':>12} {'B median':>12} "
            f"{'B/A':>7} {'worse by':>9} {'bound':>6} {'n':>5}  verdict"]
    regressed = False
    for name in spec.WORKLOADS:
        for metric in spec.END_TO_END:
            sides = []
            for label, doc in (("A", doc_a), ("B", doc_b)):
                try:
                    sides.append(doc["workloads"][name]["end_to_end"][metric.name]["values"])
                except KeyError:
                    raise MissingEntry(
                        f"{label} has no {metric.name} for workload {name}") from None
            a, b = sides
            worsening, word = verdict(metric, a, b)
            regressed |= word == "regressed"
            med_a, med_b = statistics.median(a), statistics.median(b)
            rows.append(
                f"{name:<16} {metric.name:<20} {med_a:>12.5g} {med_b:>12.5g} "
                f"{med_b / med_a:>7.3f} {worsening:>+9.1%} {metric.bound:>6.0%} "
                f"{len(a):>2}/{len(b):<2}  {word}"
            )
    rows.append("B/A is B's median over A's; 'worse by' is signed by each metric's direction, "
                "as a share of A's median.")
    return rows, regressed
