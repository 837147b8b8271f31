"""Tests for the generated EXPERIMENTS.md tables and Compass phase profiling."""

import re
from pathlib import Path

import pytest

from repro.analysis.report import render_markdown_table
from repro.cli import main
from repro.compass.compile import compile_network
from repro.compass.simulator import CompassSimulator
from repro.core.builders import poisson_inputs, random_network
from repro.experiments import report_gen
from repro.lint.examples import BUILTIN_NETWORKS
from repro.obs import PHASES, Observer

RECORD = Path(__file__).parents[2] / "EXPERIMENTS.md"
EXECUTED = re.compile(r"\| executed @ [0-9a-f]+(\+dirty)? on .+, \d+ CPUs \| `[^`]+` \|$")


@pytest.fixture(scope="module")
def committed():
    """The table lines between each pair of markers in the record, by key."""
    blocks = report_gen._BLOCK.finditer(RECORD.read_text())
    return {m.group(1): m.group(0).splitlines()[1:-1] for m in blocks}


class TestCommittedRecord:
    def test_every_table_has_one_block(self, committed):
        keys = re.findall(r"<!-- report:(\S+) -->\n", RECORD.read_text())
        assert sorted(keys) == sorted(t.key for t in report_gen.TABLES)

    @pytest.mark.parametrize("table", report_gen.TABLES, ids=lambda t: t.key)
    def test_modelled_rows_equal_the_generator(self, committed, table):
        rows = report_gen.modelled_rows(table)
        want = render_markdown_table([*table.headers, "source", "command"], rows).splitlines()
        lines = committed[table.key]
        assert lines[:2] == want[:2]  # header and rule
        assert [line for line in lines if "| modelled |" in line] == want[2:]

    def test_every_other_row_is_executed_with_commit_and_host(self, committed):
        executed = [
            line for lines in committed.values() for line in lines[2:]
            if "| modelled |" not in line
        ]
        assert len(executed) == 6
        for line in executed:
            assert EXECUTED.search(line), line

    def test_equivalence_rows_show_zero_mismatches(self, committed):
        rows = committed["eq1"][2:]
        assert [row.split("|")[1].strip() for row in rows] == [
            "single-core", "multi-core", "recurrent"]
        assert all(row.split("|")[4].strip() == "0" for row in rows)

    def test_kept_extension_names_its_path(self, committed):
        (row,) = committed["extensions"][2:]
        assert "| threshold draw over every neuron |" in row and "| kept |" in row


class TestTickPath:
    def test_rbm_alone_draws_the_threshold_over_every_neuron(self):
        rbm = report_gen.tick_path(compile_network(BUILTIN_NETWORKS["rbm-sampler"]()))
        assert "threshold draw over every neuron" in rbm
        assert rbm - report_gen._reference_paths() == {"threshold draw over every neuron"}

    def test_subset_draws_are_their_own_branch(self):
        net = random_network(n_cores=4, n_axons=16, n_neurons=16, stochastic=True, seed=1)
        path = report_gen.tick_path(compile_network(net))
        assert {"leak draw over a subset", "threshold draw over a subset",
                "stochastic synapses", "per-neuron reset modes"} <= path


class TestFill:
    STALE = ("prose before\n\n<!-- report:tab1 -->\n| stale |\n<!-- /report -->\n"
             "\nprose after\n")

    def test_fill_replaces_tables_and_keeps_prose(self):
        text = report_gen.fill_record(self.STALE)
        assert text.startswith("prose before\n\n<!-- report:tab1 -->\n| metric |")
        assert text.endswith("<!-- /report -->\n\nprose after\n")
        assert "stale" not in text and "| 46 |" in text

    def test_unknown_table_is_refused(self):
        with pytest.raises(ValueError, match="nope"):
            report_gen.fill_record("<!-- report:nope -->\n<!-- /report -->\n")

    def test_cli_refills_an_existing_file(self, tmp_path, capsys):
        out = tmp_path / "record.md"
        out.write_text(self.STALE)
        assert main(["report", "--output", str(out)]) == 0
        assert "wrote report" in capsys.readouterr().out
        assert out.read_text() == report_gen.fill_record(self.STALE)

    def test_cli_writes_a_missing_file_whole(self, tmp_path, monkeypatch):
        monkeypatch.setattr(report_gen, "TABLES", report_gen.TABLES[:1])
        out = tmp_path / "new.md"
        assert main(["report", "--output", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# Experiment tables")
        assert report_gen.fill_record(text) == text


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
