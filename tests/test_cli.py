"""Command-line interface smoke and behaviour tests."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        # argparse stores subparser choices on the last action.
        sub = next(
            a for a in parser._actions
            if hasattr(a, "choices") and a.choices
        )
        assert set(sub.choices) >= {
            "table6", "figure2", "figure3", "crossover", "memory", "train",
            "explosion", "simulate", "sweep", "report", "obs", "lint",
        }
        assert "bench" not in sub.choices

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--algorithm", "4d"])


class TestCommands:
    def test_table6(self, capsys):
        assert main(["table6"]) == 0
        out = capsys.readouterr().out
        assert "232,965" in out          # Reddit's published vertex count
        assert "protein" in out

    def test_crossover(self, capsys):
        assert main(["crossover"]) == 0
        out = capsys.readouterr().out
        assert "reddit" in out and "crossover" in out.lower()

    def test_figure2_single_dataset(self, capsys):
        assert main(["figure2", "--dataset", "reddit"]) == 0
        out = capsys.readouterr().out
        assert "reddit" in out
        assert "amazon" not in out

    def test_figure3(self, capsys):
        assert main(["figure3", "--dataset", "amazon"]) == 0
        out = capsys.readouterr().out
        assert "dcomm" in out

    def test_memory(self, capsys):
        """Section V-C's OOM pattern: Amazon does not fit at 4 GPUs."""
        assert main(["memory"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"amazon\s+4\s+\S+\s+OOM", out)
        assert re.search(r"protein\s+36\s+\S+\s+fits", out)

    def test_train_synthetic(self, capsys):
        rc = main([
            "train", "--algorithm", "2d", "--gpus", "4",
            "--vertices", "96", "--features", "8", "--hidden", "8",
            "--epochs", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "loss" in out
        # both ledger lines name every communication category: a
        # symmetric operand's 2D grid transpose moves nothing
        for line in ("one-time aggregation (A^T H^0): ",
                     "per-epoch communication: "):
            assert re.search(re.escape(line) + r"dcomm \d+ B, scomm \d+ B, "
                             r"trpose 0 B, max/rank \d+ B", out), line
        # the SUMMA stages' sparse pieces move at set-up, and only there
        assert re.search(r"one-time aggregation \(A\^T H\^0\): "
                         r"dcomm \d+ B, scomm [1-9]\d* B", out)
        assert re.search(r"per-epoch communication: dcomm \d+ B, scomm 0 B",
                         out)

    @pytest.mark.parametrize("epochs,shown", [
        (2, [0, 1]),
        (21, [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20]),
        (26, [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 25]),
    ])
    def test_train_prints_each_epoch_once(self, capsys, epochs, shown):
        """Every ``epochs // 10``-th epoch's row, then the last epoch's
        unless it was one of them."""
        rc = main([
            "train", "--algorithm", "1d", "--gpus", "2",
            "--vertices", "32", "--features", "4", "--hidden", "4",
            "--epochs", str(epochs),
        ])
        assert rc == 0
        table = capsys.readouterr().out.split("epoch      loss    acc\n")[1]
        rows = re.findall(r"^\s*(\d+) +-?\d+\.\d+ +\d\.\d+$",
                          table.split("\n\n")[0], flags=re.M)
        assert [int(r) for r in rows] == shown

    def test_train_prints_the_transpose_bytes(self, capsys):
        """1D's transposing variant exchanges A's row blocks every
        epoch, and the per-epoch line says how many bytes."""
        rc = main([
            "train", "--algorithm", "1d", "--variant", "transpose",
            "--gpus", "4", "--vertices", "64", "--features", "8",
            "--hidden", "8", "--epochs", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "one-time aggregation (A^T H^0): " in out
        assert re.search(r"trpose 0 B, max/rank \d+ B\nper-epoch", out)
        moved = re.search(r"per-epoch communication: .* trpose (\d+) B", out)
        assert int(moved.group(1)) > 0

    def test_train_15d_replication(self, capsys):
        rc = main([
            "train", "--algorithm", "1.5d", "--gpus", "4",
            "--replication", "2", "--vertices", "80", "--features", "8",
            "--hidden", "8", "--epochs", "2",
        ])
        assert rc == 0

    def test_train_standin(self, capsys):
        rc = main([
            "train", "--algorithm", "1d", "--gpus", "2",
            "--dataset", "reddit", "--scale", "4096", "--epochs", "2",
            "--hidden", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reddit-standin" in out

    def test_explosion(self, capsys):
        rc = main(["explosion", "--scale", "2048", "--hops", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hop2" in out


class TestSimulateCommands:
    def test_simulate_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if hasattr(a, "choices") and a.choices
        )
        assert {"simulate", "sweep"} <= set(sub.choices)

    def test_simulate_synthetic(self, capsys):
        rc = main([
            "simulate", "--algorithm", "1d", "--gpus", "64",
            "--vertices", "4096", "--degree", "8", "--features", "32",
            "--machine", "ethernet",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted epoch" in out
        assert "bandwidth" in out and "dcomm" in out

    def test_simulate_published_dataset(self, capsys):
        rc = main([
            "simulate", "--algorithm", "2d", "--gpus", "1024",
            "--dataset", "reddit",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reddit" in out and "uniform" in out

    def test_simulate_standin_is_exact_mode(self, capsys):
        rc = main([
            "simulate", "--algorithm", "1d", "--gpus", "8",
            "--dataset", "reddit", "--scale", "2048",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "exact" in out
        # the A^T H^0 aggregation: its own line, before the epoch's
        once, epoch = out.index("one-time aggregation"), \
            out.index("predicted epoch")
        assert once < epoch
        assert "dcomm" in out[once:epoch] and " s," in out[once:epoch]
        # an epoch's messages over all 8 ranks: 4 sweeps' all-gathers at
        # lg 8 = 3 each, and the one gradient-bucket all-reduce at 2 x 3
        assert f"messages  {8 * (4 * 3 + 2 * 3)} (all ranks)" in out

    def test_simulate_json_output(self, tmp_path, capsys):
        out_file = tmp_path / "point.json"
        rc = main([
            "simulate", "--algorithm", "3d", "--gpus", "512",
            "--vertices", "8192", "--json", str(out_file),
        ])
        assert rc == 0
        import json

        doc = json.loads(out_file.read_text())
        assert doc["algorithm"] == "3d" and doc["p"] == 512
        assert doc["seconds"] > 0 and doc["messages"] > 0
        once = doc["setup"]
        assert 0 < once["seconds"] < doc["seconds"]
        assert once["comm_bytes"] == sum(
            once["bytes_by_category"][c]
            for c in ("dcomm", "scomm", "trpose")) > 0

    def test_sweep_smoke_with_json(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.json"
        rc = main([
            "sweep", "--dataset", "reddit", "--max-p", "64",
            "--machines", "summit,ethernet", "--json", str(out_file),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "winner" in out and "strong scaling" in out
        # one line per table: the aggregation's range over the swept P
        assert out.count("one-time aggregation") == out.count(
            "strong scaling") == 2
        import json

        doc = json.loads(out_file.read_text())
        assert doc["schema"] == "repro-sweep/1"
        assert doc["winners"]
        assert all(pt["setup"]["seconds"] > 0 for pt in doc["points"])

    def test_sweep_explicit_p_grid(self, capsys):
        rc = main([
            "sweep", "--vertices", "2048", "--degree", "6",
            "--features", "16", "--classes", "4",
            "--p-grid", "4,16", "--machines", "summit",
        ])
        assert rc == 0
        assert "P up to 16" in capsys.readouterr().out

    def test_sweep_rejects_unreachable_max_p(self, capsys):
        rc = main(["sweep", "--vertices", "1024", "--max-p", "2"])
        assert rc == 2
        assert "--p-grid" in capsys.readouterr().err

    def test_sweep_rejects_malformed_p_grid(self, capsys):
        rc = main(["sweep", "--vertices", "1024", "--p-grid", "4,,16"])
        assert rc == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_sweep_rejects_unknown_machine(self, capsys):
        rc = main(["sweep", "--vertices", "1024", "--machines", "bogus"])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_simulate_rejects_unknown_machine(self, capsys):
        rc = main(["simulate", "--vertices", "1024", "--machine", "bogus"])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_simulate_rejects_infeasible_mesh(self, capsys):
        rc = main(["simulate", "--algorithm", "3d", "--gpus", "1024",
                   "--vertices", "4096"])
        assert rc == 2
        assert "mesh" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("shape", [
        ["--vertices", "0"],
        ["--vertices", "1024", "--degree", "-5"],
    ])
    def test_simulate_and_sweep_reject_impossible_graph_shape(
            self, command, shape, capsys):
        rc = main([command] + shape)
        assert rc == 2
        assert "invalid graph shape" in capsys.readouterr().err
