"""benchmarks/check_regression.py: a gate with nothing behind it must fail."""

from __future__ import annotations

import json

import pytest

from benchmarks.check_regression import main


def bench_file(tmp_path, name: str, medians: dict[str, float]) -> str:
    path = tmp_path / name
    path.write_text(json.dumps({
        "machine_info": {"cpu": {"count": 2}},
        "benchmarks": [
            {"name": n, "stats": {"median": m}} for n, m in medians.items()
        ],
    }))
    return str(path)


BASE = {"test_sparse_tick": 0.010, "test_fast_compass_throughput": 0.020}


def test_present_and_within_tolerance_passes(tmp_path, capsys):
    base = bench_file(tmp_path, "base.json", BASE)
    cur = bench_file(tmp_path, "cur.json", {
        "test_sparse_tick": 0.012, "test_fast_compass_throughput": 0.005,
        "test_new_unmatched": 1.0,
    })
    assert main([base, cur, "--match", "sparse", "--match", "fast_compass"]) == 0
    assert "OK" in capsys.readouterr().out


def test_regressed_median_fails(tmp_path, capsys):
    base = bench_file(tmp_path, "base.json", BASE)
    cur = bench_file(tmp_path, "cur.json", {**BASE, "test_sparse_tick": 0.014})
    assert main([base, cur, "--match", "sparse"]) == 1
    assert "REGRESSED" in capsys.readouterr().out


@pytest.mark.parametrize("base_extra, cur_extra, where", [
    ({}, {"test_flight_overhead": 0.1}, "flight (not in baseline)"),
    ({"test_flight_overhead": 0.1}, {}, "flight (not in current)"),
    ({}, {}, "flight (not in baseline or current)"),
    ({"test_flight_a": 0.1}, {"test_flight_b": 0.1}, "flight (not in both"),
])
def test_match_without_entry_exits_2(tmp_path, capsys, base_extra, cur_extra, where):
    base = bench_file(tmp_path, "base.json", {**BASE, **base_extra})
    cur = bench_file(tmp_path, "cur.json", {**BASE, **cur_extra})
    assert main([base, cur, "--match", "sparse", "--match", "flight"]) == 2
    out = capsys.readouterr().out
    assert where in out
    assert "sparse (" not in out  # only the missing names are listed


def test_empty_comparison_exits_2(tmp_path, capsys):
    base = bench_file(tmp_path, "base.json", BASE)
    cur = bench_file(tmp_path, "cur.json", {"test_other": 0.1})
    assert main([base, cur]) == 2
    assert "share no benchmark" in capsys.readouterr().out
