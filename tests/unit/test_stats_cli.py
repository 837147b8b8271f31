"""Tests for spike statistics, the raster renderer, and the CLI."""

import numpy as np
import pytest

from repro.analysis.stats import (
    interspike_intervals,
    per_tick_counts,
    per_unit_counts,
    raster,
    summarize,
)
from repro.cli import build_parser, main
from repro.core.record import SpikeRecord


class TestStats:
    def test_per_unit_counts(self):
        rec = SpikeRecord.from_events([(0, 0, 1), (1, 0, 1), (2, 1, 0)])
        counts = per_unit_counts(rec, n_cores=2, n_neurons=2)
        assert counts[0, 1] == 2 and counts[1, 0] == 1

    def test_per_tick_counts(self):
        rec = SpikeRecord.from_events([(0, 0, 0), (0, 0, 1), (3, 0, 0)])
        counts = per_tick_counts(rec, 5)
        assert counts.tolist() == [2, 0, 0, 1, 0]

    def test_isis_regular_train(self):
        rec = SpikeRecord.from_events([(t, 0, 0) for t in range(0, 20, 4)])
        isis = interspike_intervals(rec)
        assert np.array_equal(isis, np.full(4, 4))

    def test_isis_pool_across_units(self):
        rec = SpikeRecord.from_events(
            [(0, 0, 0), (2, 0, 0), (0, 1, 3), (5, 1, 3)]
        )
        isis = sorted(interspike_intervals(rec).tolist())
        assert isis == [2, 5]

    def test_summarize_regular_train(self):
        rec = SpikeRecord.from_events([(t, 0, 0) for t in range(0, 100, 10)])
        stats = summarize(rec, n_cores=1, n_neurons_per_core=1, n_ticks=100)
        assert stats.mean_rate_hz == pytest.approx(100.0)
        assert stats.isi_cv == pytest.approx(0.0)
        assert stats.mean_isi_ticks == pytest.approx(10.0)

    def test_summarize_empty(self):
        stats = summarize(SpikeRecord.from_events([]), 1, 4, 10)
        assert stats.n_spikes == 0 and stats.mean_rate_hz == 0.0

    def test_raster_rendering(self):
        rec = SpikeRecord.from_events([(0, 0, 0), (3, 0, 0), (1, 0, 1)])
        out = raster(rec, n_ticks=5)
        lines = out.splitlines()
        assert lines[0].startswith("c00n000")
        assert lines[0].endswith("|  | ")
        assert lines[1].endswith(" |   ")


class TestCLI:
    def test_headline(self, capsys):
        assert main(["headline"]) == 0
        out = capsys.readouterr().out
        assert "GSOPS/W" in out

    def test_fig5_panel(self, capsys):
        assert main(["fig5", "e"]) == 0
        assert "GSOPS/W" in capsys.readouterr().out

    def test_fig8(self, capsys):
        assert main(["fig8"]) == 0
        assert "slower than real time" in capsys.readouterr().out

    def test_future(self, capsys):
        assert main(["future"]) == 0
        out = capsys.readouterr().out
        assert "rat-scale" in out

    def test_characterize(self, capsys):
        code = main([
            "characterize", "--rate", "100", "--synapses", "8",
            "--grid", "2", "--neurons", "32", "--ticks", "60",
        ])
        assert code == 0
        assert "characterization" in capsys.readouterr().out

    def test_simulate_roundtrip(self, tmp_path, capsys):
        from repro.core.builders import random_network
        from repro.io.model_files import save_network

        net = random_network(n_cores=2, connectivity=0.6, seed=1)
        model = tmp_path / "net.npz"
        save_network(model, net)
        aer = tmp_path / "out.aer"
        code = main([
            "simulate", str(model), "--ticks", "20",
            "--expression", "compass", "--ranks", "2",
            "--output", str(aer),
        ])
        assert code == 0
        assert aer.exists()
        out = capsys.readouterr().out
        assert "synaptic events" in out

    @pytest.mark.parametrize("argv", [
        ["run", "recurrent-stochastic", "--ticks", "10", "--expression", "batched"],
        ["run", "recurrent-stochastic", "--ticks", "10", "--expression", "batched",
         "--checkpoint-every", "5"],
        ["characterize", "--engine", "batched"],
    ], ids=["run", "run-checkpointed", "characterize"])
    def test_one_record_commands_refuse_the_batched_expression(self, argv, capsys):
        # A batch returns one record per lane; these commands print one.
        # They used to die in an AttributeError traceback (`'list' object
        # has no attribute 'counters'` / `'save'`); the parser says no.
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'batched'" in err.splitlines()[-1]
        assert "Traceback" not in err

    def test_trace_and_metrics_keep_the_batched_expression(self):
        for command in ("trace", "metrics"):
            args = build_parser().parse_args(
                [command, "recurrent-stochastic", "--expression", "batched"]
            )
            assert args.expression == "batched"

    def test_parser_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])
