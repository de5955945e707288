"""Subcommand behavior through main(argv), no subprocesses."""

import csv
from types import SimpleNamespace

import numpy as np
import pytest

from mpsclassify import Tape, init_model, load_checkpoint, save_checkpoint
from mpsclassify.cli import main
from test_dataset import idx_image_bytes, idx_label_bytes


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def drop_seconds(rows):
    return [row[:-1] for row in rows]


class TestTrain:
    def test_synthetic_run_writes_metrics_and_checkpoint(self, tmp_path):
        csv_path = tmp_path / "metrics.csv"
        ckpt_path = tmp_path / "model.mps"
        code = main(
            [
                "train",
                "--synthetic", "200",
                "--epochs", "2",
                "--bond-dim", "4",
                "--learning-rate", "1e-3",
                "--metrics-csv", str(csv_path),
                "--checkpoint", str(ckpt_path),
            ]
        )
        assert code == 0
        rows = read_rows(csv_path)
        assert rows[0] == ["epoch", "train_loss", "train_acc", "test_loss", "test_acc", "seconds"]
        assert len(rows) == 3
        model = load_checkpoint(ckpt_path)
        assert model.n_sites == 196
        assert model.bond_dim == 4

    def test_seeded_rerun_reproduces_csv_except_timing(self, tmp_path):
        args = [
            "train",
            "--synthetic", "150",
            "--epochs", "2",
            "--bond-dim", "3",
            "--learning-rate", "1e-3",
            "--seed", "11",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--metrics-csv", str(a)]) == 0
        assert main(args + ["--metrics-csv", str(b)]) == 0
        assert drop_seconds(read_rows(a)) == drop_seconds(read_rows(b))

    def test_interrupted_run_keeps_finished_epoch_rows(self, tmp_path, monkeypatch):
        import mpsclassify.cli as cli

        real_train = cli.train

        def stop_after_first_epoch(model, train_set, test_set, config, on_epoch):
            def hook(metrics):
                on_epoch(metrics)
                raise KeyboardInterrupt

            return real_train(model, train_set, test_set, config, on_epoch=hook)

        monkeypatch.setattr(cli, "train", stop_after_first_epoch)
        csv_path = tmp_path / "metrics.csv"
        with pytest.raises(KeyboardInterrupt):
            main(["train", "--synthetic", "40", "--epochs", "3", "--bond-dim", "2",
                  "--metrics-csv", str(csv_path)])
        rows = read_rows(csv_path)
        assert rows[0][0] == "epoch"
        assert [row[0] for row in rows[1:]] == ["1"]

    def test_downsample_flag_changes_sites(self, tmp_path):
        ckpt = tmp_path / "small.mps"
        code = main(
            [
                "train",
                "--synthetic", "60",
                "--epochs", "1",
                "--bond-dim", "2",
                "--downsample", "2",
                "--checkpoint", str(ckpt),
            ]
        )
        assert code == 0
        assert load_checkpoint(ckpt).n_sites == 49

    @pytest.mark.parametrize("factor", ["0", "-2"])
    def test_downsample_below_one_rejected_before_training(self, tmp_path, capsys, factor):
        ckpt = tmp_path / "model.mps"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--synthetic", "60", "--epochs", "1", "--bond-dim", "2",
                  "--downsample", factor, "--checkpoint", str(ckpt)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--downsample" in err and repr(factor) in err
        assert not ckpt.exists()

    def test_negative_synthetic_rejected_before_training(self, tmp_path, capsys):
        ckpt = tmp_path / "model.mps"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--synthetic", "-5", "--epochs", "1", "--checkpoint", str(ckpt)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--synthetic" in err and "'-5'" in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("rate", ["nan", "inf", "0"])
    def test_learning_rate_not_positive_and_finite_rejected_before_training(
        self, tmp_path, capsys, rate
    ):
        ckpt = tmp_path / "model.mps"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--synthetic", "20", "--epochs", "1", "--learning-rate", rate,
                  "--checkpoint", str(ckpt)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--learning-rate" in err and repr(rate) in err
        assert not ckpt.exists()

    def test_missing_data_dir_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("MPSCLASSIFY_DATA_DIR", raising=False)
        code = main(["train", "--epochs", "1"])
        assert code == 1
        assert "no data directory" in capsys.readouterr().err


class TestEval:
    def test_eval_trained_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "model.mps"
        assert main(
            [
                "train",
                "--synthetic", "200",
                "--epochs", "3",
                "--bond-dim", "4",
                "--learning-rate", "1e-3",
                "--checkpoint", str(ckpt),
            ]
        ) == 0
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(ckpt), "--synthetic", "80"])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out

    def test_negative_synthetic_rejected_before_loading(self, tmp_path, capsys):
        ckpt = tmp_path / "model.mps"
        save_checkpoint(init_model(16, 2, 2, seed=0), ckpt)
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--checkpoint", str(ckpt), "--synthetic", "-5"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--synthetic" in err and "'-5'" in err

    def test_eval_confusion_matrix(self, tmp_path, capsys):
        ckpt = tmp_path / "model.mps"
        save_checkpoint(init_model(196, 10, 2, seed=0), ckpt)
        code = main(
            ["eval", "--checkpoint", str(ckpt), "--synthetic", "50", "--confusion"]
        )
        assert code == 0
        assert "confusion" in capsys.readouterr().out

    def test_eval_confusion_contracts_each_image_once(self, tmp_path, capsys, monkeypatch):
        import mpsclassify.cli
        import mpsclassify.training

        calls = []
        for module in (mpsclassify.cli, mpsclassify.training):
            original = module.forward_batch

            def counted(*args, _original=original, **kwargs):
                calls.append(args[1].shape[0])
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "forward_batch", counted)
        ckpt = tmp_path / "model.mps"
        save_checkpoint(init_model(196, 10, 2, seed=0), ckpt)
        code = main(
            ["eval", "--checkpoint", str(ckpt), "--synthetic", "300", "--confusion"]
        )
        assert code == 0
        assert "confusion" in capsys.readouterr().out
        assert calls == [256, 44]

    def test_eval_runs_the_sequential_sweep(self, tmp_path, capsys, monkeypatch):
        import mpsclassify.training
        from mpsclassify import Strategy

        strategies = []
        original = mpsclassify.training.forward_batch

        def watched(model, feats, strategy=Strategy.PAIRWISE, tape=None):
            strategies.append(strategy)
            return original(model, feats, strategy, tape)

        monkeypatch.setattr(mpsclassify.training, "forward_batch", watched)
        ckpt = tmp_path / "model.mps"
        save_checkpoint(init_model(196, 10, 2, seed=0), ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--synthetic", "300"]) == 0
        assert "accuracy" in capsys.readouterr().out
        assert strategies == [Strategy.SEQUENTIAL] * 2

    def test_degenerate_model_predicts_class_zero_share(self, tmp_path, capsys):
        """sigma=0 checkpoint: equal logits, tie-break to 0, accuracy = share of 0s."""
        from mpsclassify.dataset import synthetic_digits

        ckpt = tmp_path / "flat.mps"
        save_checkpoint(init_model(196, 10, 3, seed=0, sigma=0.0), ckpt)
        code = main(["eval", "--checkpoint", str(ckpt), "--synthetic", "100", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        shown = float(out.split("accuracy")[1].strip().split()[0])
        labels = synthetic_digits(100, seed=1000).labels
        assert shown == pytest.approx((labels == 0).mean(), abs=1e-9)

    def test_site_count_mismatch_is_explicit(self, tmp_path, capsys):
        ckpt = tmp_path / "model.mps"
        save_checkpoint(init_model(196, 10, 2, seed=0), ckpt)
        code = main(
            ["eval", "--checkpoint", str(ckpt), "--synthetic", "20", "--downsample", "2"]
        )
        assert code == 1
        assert "N=196" in capsys.readouterr().err

    def test_impossible_label_site_is_a_named_error(self, tmp_path, capsys):
        ckpt = tmp_path / "model.mps"
        save_checkpoint(init_model(49, 10, 2, seed=0), ckpt)
        blob = bytearray(ckpt.read_bytes())
        blob[28:32] = (60).to_bytes(4, "little")  # label_site, past the chain's end
        ckpt.write_bytes(bytes(blob))
        code = main(
            ["eval", "--checkpoint", str(ckpt), "--synthetic", "20", "--downsample", "2"]
        )
        assert code == 1
        assert "label_site" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--synthetic", "20", "--checkpoint", "{dir}"],
        ["train", "--synthetic", "20", "--epochs", "1", "--bond-dim", "2",
         "--metrics-csv", "{dir}"],
    ],
    ids=["eval-checkpoint", "train-metrics-csv"],
)
def test_a_directory_for_a_file_is_a_named_error(tmp_path, capsys, argv):
    """The file-system error is printed, not raised as a traceback."""
    code = main([arg.format(dir=tmp_path) for arg in argv])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err


def write_idx_set(directory, seed=0):
    """A tiny 4x4 set of three classes under the standard MNIST file names:
    30 train images and 12 test images."""
    directory.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    for stem, count in (("train", 30), ("t10k", 12)):
        pixels = rng.integers(0, 256, (count, 4, 4), dtype=np.uint8)
        labels = (np.arange(count) % 3).astype(np.uint8)
        (directory / f"{stem}-images-idx3-ubyte").write_bytes(idx_image_bytes(pixels))
        (directory / f"{stem}-labels-idx1-ubyte").write_bytes(idx_label_bytes(labels))


class TestRealData:
    """``train`` and ``eval`` on IDX files, found by ``--data-dir`` or under
    ``MPSCLASSIFY_DATA_DIR``, with seeded subsets."""

    subset = ["--train-count", "21", "--test-count", "9"]
    model = ["--bond-dim", "2", "--epochs", "1", "--batch-size", "7"]

    def test_train_then_eval_from_a_data_dir(self, tmp_path, capsys):
        data, ckpt = tmp_path / "digits", tmp_path / "model.mps"
        write_idx_set(data)
        argv = ["train", "--data-dir", str(data), *self.subset, *self.model,
                "--checkpoint", str(ckpt)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "digits/train[21@seed0]: 21 images of 4x4 (N=16)" in out
        assert "digits/test[9@seed1]: 9 images of 4x4 (N=16)" in out
        assert load_checkpoint(ckpt).n_sites == 16
        argv = ["eval", "--data-dir", str(data), "--split", "test", "--checkpoint", str(ckpt)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "digits/test: 12 images of 4x4 (N=16), labels [4, 4, 4]" in out
        assert "accuracy" in out

    def test_train_from_the_environment_names_the_dataset(self, tmp_path, capsys, monkeypatch):
        write_idx_set(tmp_path / "fashion-mnist")
        monkeypatch.setenv("MPSCLASSIFY_DATA_DIR", str(tmp_path))
        argv = ["train", "--dataset", "fashion-mnist", *self.subset, *self.model]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fashion-mnist/train[21@seed0]: 21 images of 4x4 (N=16)" in out
        assert "fashion-mnist/test[9@seed1]: 9 images of 4x4 (N=16)" in out


class TestGradCheckCommand:
    def test_default_toy_passes(self, capsys):
        code = main(["grad-check"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_large_step_fails_with_nonzero_exit(self, capsys):
        code = main(["grad-check", "--step", "0.1", "--tolerance", "1e-9"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("batch", ["0", "-1"])
    def test_empty_batch_rejected_before_checking(self, capsys, batch):
        with pytest.raises(SystemExit) as exc:
            main(["grad-check", "--batch", batch])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--batch" in err and repr(batch) in err

    @pytest.mark.parametrize("step", ["0", "-0.5", "nan", "inf"])
    def test_step_not_positive_rejected_before_checking(self, capsys, step):
        with pytest.raises(SystemExit) as exc:
            main(["grad-check", "--step", step])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--step" in err and repr(step) in err

    @pytest.mark.parametrize("tolerance", ["0", "-1", "nan"])
    def test_tolerance_not_positive_rejected_before_checking(self, capsys, tolerance):
        with pytest.raises(SystemExit) as exc:
            main(["grad-check", "--tolerance", tolerance])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--tolerance" in err and repr(tolerance) in err

    def test_deterministic_output(self, capsys):
        main(["grad-check", "--seed", "5"])
        first = capsys.readouterr().out
        main(["grad-check", "--seed", "5"])
        assert capsys.readouterr().out == first


class TestBenchCommand:
    def test_writes_csv_with_expected_grid(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            [
                "bench-contraction",
                "--sites", "12",
                "--batch", "4",
                "--bond-dims", "2,4",
                "--strategies", "sequential,pairwise",
                "--repeats", "1",
                "--csv", str(out),
            ]
        )
        assert code == 0
        rows = read_rows(out)
        assert rows[0][:3] == ["strategy", "bond_dim", "batch"]
        assert len(rows) == 1 + 2 * 2

    def test_backward_flag_adds_columns(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            [
                "bench-contraction",
                "--sites", "10",
                "--batch", "2",
                "--bond-dims", "2",
                "--strategies", "pairwise",
                "--repeats", "1",
                "--backward",
                "--csv", str(out),
            ]
        )
        assert code == 0
        rows = read_rows(out)
        assert "backward_flops" in rows[0]
        assert int(rows[1][rows[0].index("backward_flops")]) > 0
        assert float(rows[1][rows[0].index("untaped_seconds")]) > 0
        for column in ("forward_minor_faults", "untaped_minor_faults",
                       "forward_backward_minor_faults"):
            assert int(rows[1][rows[0].index(column)]) >= 0
        assert float(rows[1][rows[0].index("forward_backward_peak_mib")]) > 0
        assert float(rows[1][rows[0].index("workspace_mib")]) > 0

    def test_faults_count_warm_calls_only(self, monkeypatch):
        """A call that faults only on its first run reads as a fault-free warm call."""
        import mpsclassify.cli as cli

        faults, runs = [0], []

        def call():
            if not runs:
                faults[0] += 3000
            runs.append(None)

        monkeypatch.setattr(
            cli.resource, "getrusage", lambda who: SimpleNamespace(ru_minflt=faults[0])
        )
        assert cli._timed(3, call)[1] == 0
        assert len(runs) == 4

    def test_brute_force_backward_is_a_named_error(self, tmp_path, capsys):
        """Brute force is no strategy: refused at parse time, before any row
        is timed or the CSV is written."""
        out_csv = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bench-contraction", "--sites", "8", "--batch", "2", "--bond-dims", "2",
                  "--strategies", "sequential,brute-force", "--repeats", "1", "--backward",
                  "--csv", str(out_csv)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--strategies" in err and "sequential,brute-force" in err
        assert not out_csv.exists()

    def test_train_refuses_brute_force_strategy(self, tmp_path, capsys):
        out_csv = tmp_path / "metrics.csv"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--synthetic", "20", "--epochs", "1", "--strategy", "brute-force",
                  "--metrics-csv", str(out_csv)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--strategy" in err and "brute-force" in err
        assert not out_csv.exists()

    def test_unknown_strategy_rejected_before_timing(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench-contraction", "--sites", "10", "--bond-dims", "2",
                  "--strategies", "pairwise,bogus", "--repeats", "1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--strategies" in err and "'pairwise,bogus'" in err

    def test_empty_bond_dims_rejected_before_timing(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bench-contraction", "--bond-dims", ",", "--csv", str(out_csv)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--bond-dims" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("bond_dims", ["8,0", "-3"])
    def test_bond_dim_below_one_rejected_before_timing(self, tmp_path, capsys, bond_dims):
        out_csv = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bench-contraction", "--bond-dims", bond_dims, "--csv", str(out_csv)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--bond-dims" in err and repr(bond_dims) in err
        assert not out_csv.exists()

    def test_zero_repeats_rejected_before_timing(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bench-contraction", "--sites", "10", "--bond-dims", "2",
                  "--repeats", "0", "--csv", str(out_csv)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--repeats" in err and "'0'" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("batch", ["0", "-1"])
    def test_empty_batch_rejected_before_timing(self, tmp_path, capsys, batch):
        out_csv = tmp_path / "bench.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bench-contraction", "--sites", "10", "--bond-dims", "2",
                  "--batch", batch, "--repeats", "1", "--csv", str(out_csv)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--batch" in err and repr(batch) in err
        assert not out_csv.exists()

    def test_forward_times_each_schedules_own_contraction(self, monkeypatch):
        """Timed on a tape, the form ``forward_flops`` counts; the untaped columns time
        the evaluation path, in two calls with no tape before them."""
        import mpsclassify.cli as cli

        tapes, real = [], cli.forward_batch

        def watched(model, feats, strategy, tape=None):
            tapes.append(tape)
            return real(model, feats, strategy, tape=tape)

        monkeypatch.setattr(cli, "forward_batch", watched)
        assert main(["bench-contraction", "--sites", "10", "--bond-dims", "2", "--repeats", "1"]) == 0
        assert len(tapes) == 2 * 5
        for row in (tapes[:5], tapes[5:]):
            assert row[:2] == [None, None] and all(isinstance(tape, Tape) for tape in row[2:])


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--synthetic", "20", "--epochs", "1"],
            ["eval", "--synthetic", "20", "--checkpoint", "model.mps"],
            ["grad-check"],
            ["bench-contraction", "--sites", "10", "--bond-dims", "2", "--repeats", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_rejected_before_running(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--seed" in err and "'-1'" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["train", "--synthetic", "20", "--epochs", "1"], "--train-count"),
            (["train", "--synthetic", "20", "--epochs", "1"], "--test-count"),
            (["eval", "--synthetic", "20", "--checkpoint", "model.mps"], "--test-count"),
        ],
        ids=["train-train-count", "train-test-count", "eval-test-count"],
    )
    def test_negative_subset_count_rejected_before_running(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "-3"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert flag in err and "'-3'" in err

    @pytest.mark.parametrize("command", ["bench-contraction", "grad-check"])
    @pytest.mark.parametrize("flag, value", [("--sites", "-5"), ("--sites", "2"), ("--labels", "1")])
    def test_too_few_sites_or_labels_rejected_before_running(self, capsys, command, flag, value):
        """Not a NumPy traceback from the first contraction: argparse names the flag."""
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert flag in err and repr(value) in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["train", "--synthetic", "20", "--epochs", "1"], "--bond-dim"),
            (["train", "--synthetic", "20", "--epochs", "1"], "--epochs"),
            (["train", "--synthetic", "20", "--epochs", "1"], "--batch-size"),
            (["grad-check"], "--bond-dim"),
        ],
        ids=["train-bond-dim", "train-epochs", "train-batch-size", "grad-check-bond-dim"],
    )
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_size_below_one_rejected_before_running(self, tmp_path, capsys, argv, flag, value):
        """Exit 2 from argparse, before any data is generated, not 1 from the model's check."""
        ckpt = tmp_path / "model.mps"
        checkpoint = ["--checkpoint", str(ckpt)] if argv[0] == "train" else []
        with pytest.raises(SystemExit) as exc:
            main(argv + checkpoint + [flag, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert flag in err and repr(value) in err
        assert not ckpt.exists()

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve"])
