"""Self-test of the benchmark harness at ``--smoke`` scale.

Not collected by tier-1 (``testpaths = ["tests"]``); run it explicitly::

    pytest benchmarks/layers/test_harness.py
"""

import copy
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.layers import cli, spec
from benchmarks.layers.compare import MissingEntry, compare
from benchmarks.layers.trace import self_times

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_harness(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.layers", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """All five workloads, both passes, at smoke scale."""
    out = tmp_path_factory.mktemp("layers")
    start = time.monotonic()
    done = run_harness("--smoke", "--out", str(out))
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out / "result.json") as f:
        return {"out": out, "result": json.load(f), "elapsed": elapsed}


def test_smoke_runs_under_30_seconds(smoke):
    assert smoke["elapsed"] < 30.0


def test_benchmark_json_is_the_spec_written_out():
    with open(ROOT / "BENCHMARK.json") as f:
        assert json.load(f) == spec.benchmark_json()


def test_names_are_well_formed_and_unique():
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER] + list(spec.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert "setup_s" in {m.name for m in spec.END_TO_END}
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)


def test_every_metric_present_with_a_unit(smoke):
    workloads = smoke["result"]["workloads"]
    assert list(workloads) == list(spec.WORKLOADS)
    for name, entry in workloads.items():
        for metric in spec.END_TO_END:
            got = entry["end_to_end"][metric.name]
            assert got["unit"] == metric.unit
            assert got["median"] > 0, (name, metric.name)
        for metric in spec.PER_LAYER:
            assert entry["per_layer"][metric.name]["unit"] == metric.unit
        assert entry["tick"]["tick.n"] > 0


def test_no_errors_and_counts_repeat_across_passes(smoke):
    for name, entry in smoke["result"]["workloads"].items():
        assert entry["error_rate"] == 0, (name, entry["checks"])
        assert entry["counts_identical_across_runs"], name
        assert entry["per_layer"]["fast.replay_mismatch_ticks"]["value"] == 0
        assert entry["per_layer"]["parallel.leaked_shm_segments"]["value"] == 0
        assert entry["per_layer"]["parallel.zombie_children"]["value"] == 0


def test_provenance_is_recorded(smoke):
    source = smoke["result"]["provenance"]
    for key in ("commit", "dirty", "program_dirty", "harness_sha256", "nproc",
                "cpu_model", "python", "numpy", "scipy"):
        assert key in source


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_spans_resolve_and_tile_the_traced_window(smoke, workload):
    with open(smoke["out"] / f"trace-{workload}.json") as f:
        trace = json.load(f)
    assert trace["workload"] == workload
    spans = trace["spans"]
    ids = {s["id"] for s in spans}
    for span in spans:
        assert span["end_ns"] >= span["start_ns"]
        assert span["parent"] == -1 or span["parent"] in ids
        if span["parent"] != -1:
            parent = spans[span["parent"]]
            assert parent["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= parent["end_ns"]
    top = sorted((s for s in spans if s["parent"] == -1), key=lambda s: s["start_ns"])
    assert all(s["name"].startswith("phase.") for s in top)
    for before, after in zip(top, top[1:]):
        assert before["end_ns"] <= after["start_ns"]
    wall = top[-1]["end_ns"] - top[0]["start_ns"]
    covered = sum(s["end_ns"] - s["start_ns"] for s in top)
    assert covered >= 0.95 * wall
    # Self times partition the covered time: nothing is counted twice.
    assert sum(self_times(spans).values()) == covered


def test_driver_form_prints_exactly_the_result_object(tmp_path):
    done = run_harness("--workload", "serve_b16", "--seed", "3", "--seconds", "0",
                       "--trace", "0", "--smoke", "--out", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in spec.END_TO_END}
    for value in result["metrics"].values():
        assert set(value) == {"value", "unit"}


def test_compare_verdicts_and_missing_entries(smoke, tmp_path):
    base = smoke["result"]
    for entry in base["workloads"].values():
        for cell in entry["end_to_end"].values():
            cell["values"] = [cell["median"]] * 4

    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    a = write("a.json", base)
    rows, regressed = compare(a, a)
    assert not regressed
    assert all(row.endswith("unchanged") for row in rows[1:-1])

    worse = copy.deepcopy(base)
    cell = worse["workloads"]["rec200x26"]["end_to_end"]["rtf"]
    cell["values"] = [v * 1.5 for v in cell["values"]]
    noisy = worse["workloads"]["rec20x128"]["end_to_end"]["sops"]
    noisy["values"] = [noisy["median"] * f for f in (0.6, 0.9, 1.1, 1.4)]
    rows, regressed = compare(a, write("worse.json", worse))
    assert regressed
    by_key = {tuple(row.split()[:2]): row.split()[-1] for row in rows[1:-1]}
    assert by_key[("rec200x26", "rtf")] == "regressed"
    assert by_key[("rec20x128", "sops")] == "unresolved"

    hole = copy.deepcopy(base)
    del hole["workloads"]["serve_b16"]["end_to_end"]["latency_p50_ms"]
    with pytest.raises(MissingEntry):
        compare(a, write("hole.json", hole))
    assert cli.main(["--compare", a, str(tmp_path / "hole.json")]) == 2


def test_baseline_is_refused_when_the_program_is_dirty(monkeypatch, capsys):
    monkeypatch.setattr(cli, "provenance", lambda: {"program_dirty": True})
    assert cli.main(["--baseline", "never-written", "--smoke"]) == 2
    assert "refusing" in capsys.readouterr().err
    assert not (cli.HERE / "baseline" / "never-written.json").exists()
