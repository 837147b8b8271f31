"""Tests for live report generation and Compass phase profiling."""

import pytest

from repro.cli import main
from repro.compass.simulator import CompassSimulator
from repro.core.builders import poisson_inputs, random_network
from repro.experiments.report_gen import generate_report
from repro.obs import PHASES, Observer


class TestReportGeneration:
    @pytest.fixture(scope="class")
    def report(self):
        return generate_report()

    def test_all_sections_present(self, report):
        for marker in (
            "Headline (TAB1)",
            "TrueNorth vs Compass (FIG6)",
            "Vision applications (FIG7)",
            "BG/Q strong scaling (FIG8)",
            "One-to-one equivalence (EQ1/EQ2)",
            "Future systems (TAB2)",
            "Ablations",
        ):
            assert marker in report

    def test_headline_claims_hold_in_report(self, report):
        # the generated text carries the live headline numbers
        assert "46" in report and "GSOPS/W" in report
        assert "mismatches" in report

    def test_equivalence_shows_zero_mismatches(self, report):
        # every row of the equivalence table must end in 0 mismatches
        lines = [
            line for line in report.splitlines()
            if line.startswith("| single-core")
            or line.startswith("| multi-core")
            or line.startswith("| recurrent")
        ]
        assert len(lines) == 3
        for line in lines:
            assert line.rstrip("| ").endswith("0")

    def test_cli_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "generated.md"
        assert main(["report", "--output", str(out)]) == 0
        assert "wrote report" in capsys.readouterr().out
        assert "Generated experiment report" in out.read_text()


class TestPhaseProfiling:
    def test_phases_accumulate(self):
        net = random_network(n_cores=4, connectivity=0.5, seed=2)
        ins = poisson_inputs(net, 10, 400.0, seed=1)
        sim = CompassSimulator(net, n_ranks=2, obs=Observer())
        sim.run(10, ins)
        ph = sim.phase_seconds
        compute = ph["integrate"] + ph["update"]
        assert compute > 0
        assert ph["route"] > 0
        # compute dominates communication for an in-process exchange
        assert compute > ph["route"]

    def test_profiling_off_by_default(self):
        net = random_network(n_cores=2, seed=1)
        sim = CompassSimulator(net)
        sim.run(5)
        # Untimed: every canonical phase reads zero.
        assert set(sim.phase_seconds) == set(PHASES)
        assert all(v == 0.0 for v in sim.phase_seconds.values())

    def test_profiling_does_not_change_results(self):
        net = random_network(n_cores=3, stochastic=True, seed=9)
        ins = poisson_inputs(net, 12, 300.0, seed=4)
        a = CompassSimulator(net, obs=Observer()).run(12, ins)
        b = CompassSimulator(net).run(12, ins)
        assert a == b
