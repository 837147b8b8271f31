"""Compare a fresh benchmark JSON against the committed baseline.

Usage::

    python benchmarks/check_regression.py BASELINE.json CURRENT.json \
        [--tolerance 0.30] [--match sparse] [--match fast]

Loads two ``pytest-benchmark`` JSON files and compares the median
runtime of every benchmark present in both (optionally filtered to
names containing any ``--match`` substring).  Exits non-zero when any
compared benchmark's median regressed by more than *tolerance*
(default 30%, absorbing CI-runner noise while catching real
slowdowns of the sparse tick).

Speedups never fail the check, and benchmarks outside every
``--match`` are not compared; a baseline recorded on a host with a
different CPU count is reported but still compared — the tolerance is
the noise budget.

A gate with nothing behind it is an error, not a pass: a ``--match``
name that selects no benchmark present in both files, or a comparison
with no rows at all, exits 2 with the missing names listed.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_medians(path: str) -> tuple[dict[str, float], dict]:
    """Return {benchmark name: median seconds} and the machine info."""
    with open(path) as f:
        data = json.load(f)
    medians = {b["name"]: float(b["stats"]["median"]) for b in data["benchmarks"]}
    return medians, data.get("machine_info", {})


def compare(
    baseline: dict[str, float],
    current: dict[str, float],
    tolerance: float,
    match: list[str] | None = None,
) -> list[tuple[str, float, float, float, bool]]:
    """Rows of (name, old, new, ratio, regressed) for shared benchmarks."""
    rows = []
    for name in sorted(set(baseline) & set(current)):
        if match and not any(m in name for m in match):
            continue
        old, new = baseline[name], current[name]
        ratio = new / old if old else float("inf")
        rows.append((name, old, new, ratio, ratio > 1.0 + tolerance))
    return rows


def missing_matches(
    baseline: dict[str, float], current: dict[str, float], match: list[str] | None
) -> list[str]:
    """``--match`` names that select no benchmark present in both files."""
    missing = []
    for m in match or []:
        in_base = {name for name in baseline if m in name}
        in_cur = {name for name in current if m in name}
        if not in_base & in_cur:
            where = [label for label, names in
                     (("baseline", in_base), ("current", in_cur)) if not names]
            missing.append(f"{m} (not in {' or '.join(where) or 'both under one name'})")
    return missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed benchmark JSON")
    parser.add_argument("current", help="freshly produced benchmark JSON")
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional slowdown before failing (default 0.30)",
    )
    parser.add_argument(
        "--match", action="append", default=None,
        help="only compare benchmarks whose name contains this substring "
             "(repeatable); default: all shared benchmarks",
    )
    args = parser.parse_args(argv)

    base_medians, base_machine = load_medians(args.baseline)
    cur_medians, cur_machine = load_medians(args.current)
    if base_machine.get("cpu", {}) != cur_machine.get("cpu", {}):
        print("note: baseline and current machines differ; "
              f"tolerance {args.tolerance:.0%} is the noise budget")

    missing = missing_matches(base_medians, cur_medians, args.match)
    if missing:
        print("ERROR: nothing to compare for --match " + ", ".join(missing))
        return 2
    rows = compare(base_medians, cur_medians, args.tolerance, args.match)
    if not rows:
        print("ERROR: baseline and current share no benchmark to compare")
        return 2

    width = max(len(name) for name, *_ in rows)
    failed = False
    for name, old, new, ratio, regressed in rows:
        verdict = "REGRESSED" if regressed else "ok"
        print(f"  {name:<{width}}  {old * 1e3:9.3f} ms -> {new * 1e3:9.3f} ms "
              f"({ratio:5.2f}x)  {verdict}")
        failed |= regressed
    if failed:
        print(f"FAIL: median slowdown exceeded {args.tolerance:.0%} tolerance")
        return 1
    print(f"OK: all medians within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
