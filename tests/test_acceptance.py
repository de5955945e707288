"""End-to-end checks of the package's headline guarantees.

Each test prints one PASS or FAIL line so a log skim shows the whole
scorecard. The real-data tests (MNIST, Fashion-MNIST) skip with fetch
instructions when the IDX files are absent; everything else is
self-contained and seeded.
"""

import time

import numpy as np
import pytest

from mpsclassify import (
    FeatureMap,
    LossKind,
    Strategy,
    Tape,
    TrainConfig,
    brute_force_logits,
    downsample,
    encode_batch,
    forward_batch,
    grad_check,
    init_model,
    load_split,
    take,
    train,
)
from mpsclassify.cli import main as cli_main

from conftest import require_dataset


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")


# Shared recipe for the real-data runs: 14x14 inputs, 5000 train / 2000 test,
# Adam at 1e-3 (constant across runs so accuracy comparisons are like for
# like), batch 50, 15 epochs.
TRAIN_COUNT = 5000
TEST_COUNT = 2000
EPOCHS = 15
LEARNING_RATE = 1e-3
_run_cache: dict = {}


def trained_accuracy(dataset: str, bond_dim: int, loss_kind: LossKind) -> float:
    key = (dataset, bond_dim, loss_kind)
    if key not in _run_cache:
        base = require_dataset(dataset)
        train_set = downsample(take(load_split(base, "train"), TRAIN_COUNT, seed=0), 2)
        test_set = downsample(take(load_split(base, "test"), TEST_COUNT, seed=1), 2)
        model = init_model(train_set.n_sites, 10, bond_dim, seed=0)
        config = TrainConfig(
            learning_rate=LEARNING_RATE,
            batch_size=50,
            epochs=EPOCHS,
            loss_kind=loss_kind,
            seed=0,
        )
        history = train(model, train_set, test_set, config)
        _run_cache[key] = history[-1].test_acc
    return _run_cache[key]


class TestStrategyAgreement:
    def test_hundred_random_instances_agree_with_brute_force(self, rng):
        started = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(4, 13))
            chi = int(rng.integers(1, 5))
            n_labels = int(rng.integers(2, 4))
            fmap = FeatureMap.TRIG if rng.integers(2) else FeatureMap.LINEAR
            model = init_model(
                n, n_labels, chi, seed=int(rng.integers(1 << 30)), feature_map=fmap
            )
            feats = encode_batch(fmap, rng.random((1, n)))
            oracle = brute_force_logits(model, feats[0])
            scale = max(np.abs(oracle).max(), 1e-300)
            # Untaped, every schedule sweeps; the pairwise rounds run on a tape.
            for strategy, tape in ((Strategy.SEQUENTIAL, None), (Strategy.PAIRWISE, Tape())):
                got = forward_batch(model, feats, strategy, tape=tape)[0]
                worst = max(worst, np.abs(got - oracle).max() / scale)
        elapsed = time.perf_counter() - started
        ok = worst <= 1e-9 and elapsed < 10.0
        report(
            "strategy-agreement",
            ok,
            f"100 instances, worst relative deviation {worst:.3e} "
            f"(limit 1e-9), {elapsed:.2f}s (limit 10s)",
        )
        assert worst <= 1e-9
        assert elapsed < 10.0


class TestGradientCheck:
    def test_every_parameter_matches_central_differences(self, rng):
        started = time.perf_counter()
        model = init_model(8, 3, 4, seed=3)
        images = rng.random((2, 8))
        labels = np.array([0, 2])
        result = grad_check(model, images, labels, h=1e-5, tolerance=1e-6)
        elapsed = time.perf_counter() - started
        ok = result.passed and elapsed < 30.0
        n_params = sum(e.n_params for e in result.entries)
        report(
            "gradient-check",
            ok,
            f"max relative error {result.max_rel_err:.3e} over "
            f"{n_params} parameters (limit 1e-6), "
            f"{elapsed:.2f}s (limit 30s)",
        )
        assert result.passed, result.format_table()
        assert elapsed < 30.0


class TestMnistAccuracy:
    def test_reaches_93_percent_on_held_out_subset(self):
        acc = trained_accuracy("mnist", 10, LossKind.CROSS_ENTROPY)
        ok = acc >= 0.93
        report(
            "mnist-accuracy",
            ok,
            f"test accuracy {acc:.4f} (floor 0.93) after {EPOCHS} epochs, "
            f"bond dim 10, lr {LEARNING_RATE}",
        )
        assert acc >= 0.93

    def test_accuracy_stable_across_bond_dimensions(self):
        accs = {
            chi: trained_accuracy("mnist", chi, LossKind.CROSS_ENTROPY)
            for chi in (6, 10, 16)
        }
        spread = max(accs.values()) - min(accs.values())
        ok = spread <= 0.02
        report(
            "bond-dim-stability",
            ok,
            f"accuracies {[f'{chi}:{a:.4f}' for chi, a in accs.items()]}, "
            f"spread {spread:.4f} (limit 0.02)",
        )
        assert spread <= 0.02

    def test_both_losses_reach_similar_accuracy(self):
        ce = trained_accuracy("mnist", 10, LossKind.CROSS_ENTROPY)
        mse = trained_accuracy("mnist", 10, LossKind.MEAN_SQUARE)
        gap = abs(ce - mse)
        ok = gap <= 0.02
        report(
            "loss-equivalence",
            ok,
            f"cross-entropy {ce:.4f} vs mean-square {mse:.4f}, "
            f"gap {gap:.4f} (limit 0.02)",
        )
        assert gap <= 0.02


class TestFashionMnistAccuracy:
    def test_reaches_80_percent_on_held_out_subset(self):
        acc = trained_accuracy("fashion-mnist", 10, LossKind.CROSS_ENTROPY)
        ok = acc >= 0.80
        report(
            "fashion-accuracy",
            ok,
            f"test accuracy {acc:.4f} (floor 0.80) after {EPOCHS} epochs",
        )
        assert acc >= 0.80


class TestCostModel:
    """Recorded FLOP totals must scale like the analysis says they do."""

    def test_flop_totals_follow_predicted_powers(self, rng):
        n_sites, n_labels, batch = 196, 10, 50
        chis = np.array([8, 16, 32, 64], dtype=float)
        images = rng.random((batch, n_sites))
        totals = {Strategy.SEQUENTIAL: [], Strategy.PAIRWISE: []}
        for chi in chis.astype(int):
            model = init_model(n_sites, n_labels, int(chi), seed=0)
            feats = encode_batch(model.feature_map, images)
            for strategy in totals:
                tape = Tape()
                tape.watch_model(model)
                forward_batch(model, feats, strategy, tape=tape)
                totals[strategy].append(tape.forward_flops())

        def worst_residual(design: np.ndarray, observed: np.ndarray) -> float:
            coef, *_ = np.linalg.lstsq(design, observed, rcond=None)
            fitted = design @ coef
            return float(np.abs(fitted - observed).max() / observed.min())

        seq = np.array(totals[Strategy.SEQUENTIAL], dtype=float)
        pair = np.array(totals[Strategy.PAIRWISE], dtype=float)
        seq_resid = worst_residual(chis[:, None] ** 2, seq)
        pair_resid = worst_residual(np.stack([chis**2, chis**3], axis=1), pair)
        ok = seq_resid <= 0.10 and pair_resid <= 0.10
        report(
            "cost-model",
            ok,
            f"sequential fits a*chi^2 with residual {seq_resid:.3%}, "
            f"pairwise fits a*chi^2+b*chi^3 with residual {pair_resid:.3%} "
            f"(limit 10%)",
        )
        assert seq_resid <= 0.10
        assert pair_resid <= 0.10


class TestRerunDeterminism:
    @pytest.mark.parametrize("strategy", ["pairwise", "sequential"])
    def test_seeded_training_reproduces_metrics_bytes(self, tmp_path, strategy):
        args = [
            "train",
            "--synthetic", "150",
            "--epochs", "2",
            "--bond-dim", "3",
            "--learning-rate", "1e-3",
            "--seed", "9",
            "--strategy", strategy,
        ]
        paths = (tmp_path / "first.csv", tmp_path / "second.csv")
        for path in paths:
            assert cli_main(args + ["--metrics-csv", str(path)]) == 0

        def stable_lines(path):
            lines = path.read_text().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]

        first, second = (stable_lines(p) for p in paths)
        ok = first == second
        report(
            f"rerun-determinism ({strategy})",
            ok,
            f"{len(first) - 1} epoch rows byte-identical across reruns "
            f"(timing column excluded)",
        )
        assert first == second
