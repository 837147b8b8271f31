"""Tests for the CLI."""

import pytest

from repro.cli import build_parser, main


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
