"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "resnet", "C2", "--lhb", "512", "--max-ctas", "2"]
        )
        assert args.network == "resnet"
        assert args.lhb == 512
        assert args.max_ctas == 2

    def test_bad_network_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "vgg", "C1"])


class TestCommands:
    def test_layers(self, capsys):
        assert main(["layers"]) == 0
        out = capsys.readouterr().out
        assert "resnet/C1" in out
        assert "yolo/C6" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "resnet", "C8", "--max-ctas", "1"]) == 0
        out = capsys.readouterr().out
        assert "improvement" in out
        assert "baseline" in out

    def test_simulate_oracle(self, capsys):
        assert main(
            ["simulate", "gan", "C4", "--lhb", "0", "--max-ctas", "1"]
        ) == 0
        assert "duplo" in capsys.readouterr().out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "register reuse" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_network_command(self, capsys):
        assert main(["network", "fcn", "--batch", "1", "--max-ctas", "1"]) == 0
        out = capsys.readouterr().out
        assert "gmean improvement" in out

    def test_network_unknown(self, capsys):
        assert main(["network", "alexnet"]) == 2
        assert "unknown network" in capsys.readouterr().err


class TestRuntimeFlags:
    def test_experiment_accepts_runtime_flags(self):
        args = build_parser().parse_args(
            ["experiment", "figure9", "--jobs", "4", "--no-cache"]
        )
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.cache_dir is None

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure9", "--jobs", "0"])

    def test_calibration_accepts_runtime_flags(self):
        args = build_parser().parse_args(
            ["calibration", "--jobs", "2", "--cache-dir", "/tmp/x"]
        )
        assert args.jobs == 2
        assert args.cache_dir == "/tmp/x"

    def test_experiment_uses_cache_dir(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(
            ["experiment", "table2", "--cache-dir", str(cache_dir)]
        ) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "name",
        ["figure9", "figure10", "figure11", "figure12", "figure13",
         "figure14", "energy_area", "arch_zoo"],
    )
    def test_sweep_experiments_receive_the_executor(self, monkeypatch, name):
        from repro import cli

        seen = {}
        monkeypatch.setattr(
            cli.exp_mod, name, lambda **kwargs: seen.update(kwargs)
        )
        executor = object()
        cli.EXPERIMENTS[name]("options", executor)
        assert seen["executor"] is executor

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        from repro.runtime import DiskCache

        cache_dir = tmp_path / "cache"
        DiskCache(cache_dir).put_result("ab" * 32, {"x": 1})
        assert main(["cache", "stats", "--dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "result files:  1" in out
        assert main(["cache", "clear", "--dir", str(cache_dir)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "stats", "--dir", str(cache_dir)]) == 0
        assert "result files:  0" in capsys.readouterr().out
