"""Command line: one measured run, every workload, or a comparison.

``--workload W --seed N --seconds S --trace 0|1``
    one run in this process (the form ``BENCHMARK.json``'s driver uses);
    the last line of output is the result object.
no ``--workload``
    every workload, each run in a fresh subprocess, first untraced
    (``--repeat`` times) and then traced; writes one result file.
``--compare A.json B.json``
    judge result file B against A with each metric's own bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from . import HERE, ROOT, spec
from .compare import MissingEntry, compare
from .provenance import provenance

UNITS = {m.name: m.unit for m in spec.END_TO_END + spec.PER_LAYER}
DETAIL = "#detail "


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.layers", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds the generators only (network, inputs, scene, sessions)")
    parser.add_argument("--seconds", type=float,
                        help="measure at least this long; the fixed, verified work always "
                             f"runs (default {spec.RUN_SECONDS}, or 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans and report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the harness self-test")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload when running them all")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for traces and the result file")
    parser.add_argument("--baseline", metavar="NAME",
                        help="write the result to baseline/NAME.json; refused when src/ "
                             "differs from HEAD")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    return parser.parse_args(argv)


def print_metrics(metrics: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<38} {value:>14.6g} {UNITS.get(name, '')}")


def run_one(args) -> int:
    """One workload, one pass, in this process."""
    from .measure import FULL, SMOKE, measure

    doc = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  SMOKE if args.smoke else FULL, args.out)
    print(f"{doc['workload']} seed={doc['seed']} scale={doc['scale']} "
          f"{'traced' if doc['traced'] else 'untraced'}")
    print_metrics({**doc["tick"], **doc["metrics"]})
    for check, outcome in doc["checks"].items():
        print(f"  check {check}: {outcome}")
    print(DETAIL + json.dumps(doc))
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in doc["metrics"].items()},
    }))
    return 0 if doc["correct"] else 1


def child_run(args, workload: str, traced: bool) -> dict | None:
    """One run in a fresh process; its detail document, or None if it died."""
    command = [sys.executable, "-m", "benchmarks.layers", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(traced)), "--out", str(args.out)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    for line in done.stdout.splitlines():
        if line.startswith(DETAIL):
            return json.loads(line[len(DETAIL):])
    print(done.stdout, end="")
    return None


def run_all(args) -> int:
    """Every workload, untraced then traced; print and write the result file."""
    source = provenance()
    if args.baseline and source["program_dirty"] is not False:
        print("refusing --baseline: src/ differs from HEAD (or this is not a git "
              "checkout), so the numbers would describe no commit", file=sys.stderr)
        return 2
    result = {"provenance": source, "seed": args.seed,
              "scale": "smoke" if args.smoke else "full", "workloads": {}}
    ok = True
    for name in spec.WORKLOADS:
        untraced = [child_run(args, name, traced=False) for _ in range(args.repeat)]
        traced = child_run(args, name, traced=True)
        runs = [r for r in untraced + [traced] if r is not None]
        if len(runs) <= args.repeat:  # a run died: nothing to tabulate
            result["workloads"][name] = {"error_rate": 1.0}
            print(f"{name}: error_rate 1 (a run printed no result)")
            ok = False
            continue
        # Simulated results must not depend on the pass or the repetition.
        same = len({(json.dumps(r["counts"], sort_keys=True), r["sha256"]) for r in runs}) == 1
        failed = sum(r["failed"] for r in runs)
        ok &= same and not failed
        entry = {
            "error_rate": failed / sum(r["attempted"] for r in runs) if same else 1.0,
            "counts_identical_across_runs": same,
            "checks": [r["checks"] for r in runs],
            "counts": traced["counts"],
            "sha256": traced["sha256"],
            "tick": untraced[0]["tick"],
            "end_to_end": {
                m.name: {"unit": m.unit, "values": [r["metrics"][m.name] for r in untraced],
                         "median": statistics.median(r["metrics"][m.name] for r in untraced)}
                for m in spec.END_TO_END
            },
            "per_layer": {
                m.name: {"unit": m.unit, "value": traced["metrics"][m.name]}
                for m in spec.PER_LAYER
            },
        }
        result["workloads"][name] = entry
        print(f"{name}: error_rate {entry['error_rate']:g}"
              f"{'' if same else '  COUNTS DIFFER BETWEEN RUNS'}")
        print_metrics({k: v["median"] for k, v in entry["end_to_end"].items()})
        print_metrics(entry["tick"])
        print_metrics({k: v["value"] for k, v in entry["per_layer"].items()})

    directory = HERE / "baseline" if args.baseline else args.out
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{args.baseline or 'result'}.json"
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    print(f"wrote {path}")
    return 0 if ok else 1


def stop_processes() -> None:
    """Stop every process this one started and wait until each has ended.

    The workers of ``ParallelCompassSimulator`` are joined by its
    ``close()``; one that an exception left behind is ended here.  The
    shared-memory segments also start multiprocessing's resource tracker,
    which otherwise ends only once it sees this process gone, that is,
    after it.
    """
    import gc
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    gc.collect()  # a segment unlinked after the stop would start a new tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for its pid


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec.RUN_SECONDS)
    if args.compare:
        try:
            rows, regressed = compare(*args.compare)
        except MissingEntry as err:
            print(f"cannot compare: {err}", file=sys.stderr)
            return 2
        print("\n".join(rows))
        return 1 if regressed else 0
    if args.workload:
        return run_one(args)
    return run_all(args)
