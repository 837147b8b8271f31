"""Tests for the voltage study."""

import pytest

from repro.apps.workloads import ANCHOR_A, ANCHOR_C, characterization_workload
from repro.core import params
from repro.experiments.voltage import (
    evaluate_point,
    minimum_feasible_voltage,
    optimal_operating_point,
    voltage_study,
)


class TestVoltageStudy:
    def test_light_workload_runs_at_floor(self):
        v = minimum_feasible_voltage(ANCHOR_A)
        assert v == pytest.approx(params.MIN_FUNCTIONAL_VOLTAGE, abs=0.02)

    def test_worst_case_needs_higher_voltage(self):
        worst = characterization_workload(1000.0, 256.0)
        v = minimum_feasible_voltage(worst)
        assert v is not None
        assert v > minimum_feasible_voltage(ANCHOR_A)

    def test_infeasible_demand_returns_none(self):
        worst = characterization_workload(1000.0, 256.0)
        assert minimum_feasible_voltage(worst, tick_frequency_hz=10_000.0) is None

    def test_optimal_is_most_efficient_feasible(self):
        optimal = optimal_operating_point(ANCHOR_C)
        nominal = evaluate_point(ANCHOR_C, params.NOMINAL_VOLTAGE)
        assert optimal.feasible
        assert optimal.gsops_per_watt >= nominal.gsops_per_watt

    def test_study_table(self):
        rows = voltage_study([ANCHOR_A, ANCHOR_C])
        assert all(r["feasible"] for r in rows)
        for r in rows:
            assert 0.0 <= r["saving_vs_nominal"] < 1.0
            assert r["saving_vs_max"] > r["saving_vs_nominal"]
