"""Losses, Adam behavior, and the full training loop on synthetic data."""

import warnings

import numpy as np
import pytest

import mpmath

from mpsclassify import (
    LossKind,
    Strategy,
    TrainConfig,
    adam_step,
    batch_loss,
    evaluate,
    forward_batch,
    init_adam,
    init_model,
    loss_and_gradients,
    synthetic_blobs,
    synthetic_digits,
    take,
    train,
    write_metrics_csv,
)
from mpsclassify import losses, training
from mpsclassify.autodiff import Gradients
from mpsclassify.encoding import encode_batch
from mpsclassify.errors import (
    ConfigError,
    ConsistencyError,
    DimensionError,
    DomainError,
    NumericError,
)
from mpsclassify.losses import (
    compute_loss,
    cross_entropy_loss,
    cross_entropy_with_grad,
    mean_square_loss,
    mean_square_with_grad,
)
from mpsclassify.training import ADAM_EPS, METRICS_COLUMNS, evaluate_predictions


def cross_entropy_mpmath(logits, labels, dps=50):
    """Direct unshifted softmax cross-entropy in 50-digit arithmetic."""
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for row, y in zip(logits, labels):
            denom = mpmath.fsum(mpmath.e ** mpmath.mpf(v) for v in row)
            p = mpmath.e ** mpmath.mpf(row[y]) / denom
            total -= mpmath.log(p)
        return float(total / len(labels))


class TestCrossEntropy:
    def test_uniform_logits_give_log_l(self):
        logits = np.zeros((4, 10))
        labels = np.array([0, 3, 7, 9])
        np.testing.assert_allclose(
            cross_entropy_loss(logits, labels), np.log(10.0), rtol=1e-15
        )

    def test_dominant_true_logit_saturates_to_zero(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 50.0
        assert cross_entropy_loss(logits, np.array([2])) < 1e-20

    def test_matches_high_precision_oracle(self, rng):
        logits = rng.standard_normal((3, 4)) * 5
        labels = rng.integers(0, 4, size=3)
        np.testing.assert_allclose(
            cross_entropy_loss(logits, labels),
            cross_entropy_mpmath(logits, labels),
            rtol=1e-14,
        )

    def test_shift_invariance(self, rng):
        logits = rng.standard_normal((5, 7))
        labels = rng.integers(0, 7, size=5)
        shifted = logits + rng.standard_normal((5, 1)) * 100
        assert abs(
            cross_entropy_loss(logits, labels) - cross_entropy_loss(shifted, labels)
        ) <= 1e-12

    def test_huge_logits_stay_finite(self):
        logits = np.array([[1000.0, -1000.0, 500.0]])
        value = cross_entropy_loss(logits, np.array([1]))
        assert np.isfinite(value)
        assert value > 1000

    def test_gradient_is_softmax_minus_onehot(self, rng):
        logits = rng.standard_normal((4, 6))
        labels = rng.integers(0, 6, size=4)
        _, grad, probs = cross_entropy_with_grad(logits, labels)
        onehot = np.zeros((4, 6))
        onehot[np.arange(4), labels] = 1.0
        np.testing.assert_allclose(grad, (probs - onehot) / 4, rtol=1e-14)

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.standard_normal((2, 5))
        labels = np.array([3, 0])
        _, grad, _ = cross_entropy_with_grad(logits, labels)
        h = 1e-6
        for i in range(2):
            for j in range(5):
                bumped = logits.copy()
                bumped[i, j] += h
                up = cross_entropy_loss(bumped, labels)
                bumped[i, j] -= 2 * h
                down = cross_entropy_loss(bumped, labels)
                np.testing.assert_allclose(grad[i, j], (up - down) / (2 * h), atol=1e-8)

    @pytest.mark.parametrize("kind", ["random", "large", "tied"])
    def test_the_value_alone_has_the_bytes_of_the_value_with_its_gradient(self, kind, rng):
        logits = {
            "random": rng.standard_normal((256, 10)),
            "large": rng.standard_normal((256, 10)) * 1e27,
            "tied": np.full((256, 10), 3.5),
        }[kind]
        labels = rng.integers(0, 10, size=256)
        value = cross_entropy_loss(logits, labels)
        want = cross_entropy_with_grad(logits, labels)[0]
        assert np.float64(value).tobytes() == np.float64(want).tobytes()

    def test_a_value_only_call_builds_no_one_hot(self, rng, monkeypatch):
        def refused(*args):
            raise AssertionError("a value-only loss built a one-hot target")

        monkeypatch.setattr(losses, "_one_hot", refused)
        logits = rng.standard_normal((8, 5))
        labels = rng.integers(0, 5, size=8)
        assert cross_entropy_loss(logits, labels) > 0
        assert compute_loss(LossKind.CROSS_ENTROPY, logits, labels) > 0

    def test_non_finite_logits_rejected(self):
        with pytest.raises(NumericError):
            cross_entropy_loss(np.array([[np.inf, 0.0]]), np.array([0]))

    def test_label_out_of_range(self):
        with pytest.raises(DimensionError):
            cross_entropy_loss(np.zeros((2, 3)), np.array([0, 3]))


class TestMeanSquare:
    def test_one_hot_logits_give_zero(self):
        logits = np.zeros((2, 4))
        logits[0, 1] = 1.0
        logits[1, 3] = 1.0
        assert mean_square_loss(logits, np.array([1, 3])) == 0.0

    def test_zero_logits_give_half(self):
        logits = np.zeros((6, 10))
        labels = np.arange(6)
        assert mean_square_loss(logits, labels) == 0.5

    def test_matches_direct_summation(self, rng):
        logits = rng.standard_normal((3, 5))
        labels = rng.integers(0, 5, size=3)
        want = 0.0
        for b in range(3):
            for l in range(5):
                target = 1.0 if l == labels[b] else 0.0
                want += 0.5 * (logits[b, l] - target) ** 2
        np.testing.assert_allclose(mean_square_loss(logits, labels), want / 3, rtol=1e-14)

    def test_gradient_closed_form(self, rng):
        logits = rng.standard_normal((4, 3))
        labels = rng.integers(0, 3, size=4)
        _, grad, onehot = mean_square_with_grad(logits, labels)
        np.testing.assert_allclose(grad, (logits - onehot) / 4, rtol=1e-14)


class TestAdam:
    def test_first_step_closed_form(self):
        """From zero moments the first update is -lr * g / (|g| + eps)."""
        model = init_model(6, 2, 2, seed=0)
        state = init_adam(model)
        before = {name: arr.copy() for name, arr in model.parameters()}
        grads = Gradients(
            left_boundary=np.full_like(model.left_boundary, 0.7),
            cores=np.full_like(model.cores, -1.3),
            label_core=np.full_like(model.label_core, 0.1),
            right_boundary=np.full_like(model.right_boundary, 2.0),
        )
        lr = 1e-2
        adam_step(model, grads, state, learning_rate=lr)
        for (name, after), (_, g) in zip(model.parameters(), grads.arrays()):
            want = before[name] - lr * g / (np.abs(g) + ADAM_EPS)
            np.testing.assert_allclose(after, want, rtol=1e-12)
        assert state.step_count == 1

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        """Adam's bounded-step property on a scalar simulation."""
        model = init_model(3, 2, 1, seed=0)
        state = init_adam(model)
        g = Gradients(
            left_boundary=np.full_like(model.left_boundary, 3.7),
            cores=np.zeros_like(model.cores),
            label_core=np.zeros_like(model.label_core),
            right_boundary=np.zeros_like(model.right_boundary),
        )
        lr = 1e-3
        prev = model.left_boundary.copy()
        for _ in range(1000):
            prev = model.left_boundary.copy()
            adam_step(model, g, state, learning_rate=lr)
        step = np.abs(model.left_boundary - prev)
        np.testing.assert_allclose(step, lr, rtol=0.01)

    def test_zero_gradient_leaves_weights_unchanged(self):
        model = init_model(6, 2, 2, seed=1)
        state = init_adam(model)
        before = {name: arr.copy() for name, arr in model.parameters()}
        zero = Gradients(
            left_boundary=np.zeros_like(model.left_boundary),
            cores=np.zeros_like(model.cores),
            label_core=np.zeros_like(model.label_core),
            right_boundary=np.zeros_like(model.right_boundary),
        )
        adam_step(model, zero, state, learning_rate=0.1)
        adam_step(model, zero, state, learning_rate=0.1)
        for name, arr in model.parameters():
            np.testing.assert_array_equal(arr, before[name])

    def test_shape_mismatch_rejected(self):
        model = init_model(6, 2, 2, seed=0)
        state = init_adam(model)
        bad = Gradients(
            left_boundary=np.zeros((2, 3)),
            cores=np.zeros_like(model.cores),
            label_core=np.zeros_like(model.label_core),
            right_boundary=np.zeros_like(model.right_boundary),
        )
        with pytest.raises(ConsistencyError):
            adam_step(model, bad, state, learning_rate=0.1)

    def test_updates_happen_in_place(self):
        """The optimizer must mutate the same arrays the tape watches."""
        model = init_model(6, 2, 2, seed=0)
        state = init_adam(model)
        ref = model.cores
        g = Gradients(
            left_boundary=np.ones_like(model.left_boundary),
            cores=np.ones_like(model.cores),
            label_core=np.ones_like(model.label_core),
            right_boundary=np.ones_like(model.right_boundary),
        )
        adam_step(model, g, state, learning_rate=1e-2)
        assert model.cores is ref

    def test_second_moment_overflow_names_the_array(self):
        """A finite gradient whose square overflows raises before any update."""
        model = init_model(6, 2, 2, seed=0)
        state = init_adam(model)
        before = {name: arr.copy() for name, arr in model.parameters()}
        huge = Gradients(
            left_boundary=np.zeros_like(model.left_boundary),
            cores=np.full_like(model.cores, 1e200),
            label_core=np.zeros_like(model.label_core),
            right_boundary=np.zeros_like(model.right_boundary),
        )
        with pytest.raises(NumericError, match="second moment of 'cores' overflows"):
            adam_step(model, huge, state, learning_rate=1e-3)
        assert state.step_count == 0
        for name, arr in model.parameters():
            np.testing.assert_array_equal(arr, before[name])
            np.testing.assert_array_equal(state.v[name], 0.0)

    @pytest.mark.parametrize(
        "other, named",
        [(dict(n_sites=16, bond_dim=4), "left_boundary"),
         (dict(n_sites=17, bond_dim=3), "cores")],
        ids=["other-chi", "other-n"],
    )
    def test_another_models_state_is_named_before_any_update(self, other, named):
        """A state built for another shape raises ``ConsistencyError`` naming the
        first weight array it does not fit, not NumPy's broadcast error, and
        neither the model nor the state changes."""
        model = init_model(16, 2, 3, seed=0)
        state = init_adam(init_model(n_labels=2, seed=0, **other))
        state.m["cores"][...] = 0.5
        before = [arr.tobytes() for _, arr in model.parameters()]
        moments = [arr.tobytes() for arr in (*state.m.values(), *state.v.values())]
        grads = Gradients(*(np.ones_like(arr) for _, arr in model.parameters()))
        with pytest.raises(ConsistencyError, match=f"Adam m shape .* parameter '{named}'"):
            adam_step(model, grads, state, learning_rate=1e-3)
        with pytest.raises(ConsistencyError, match=f"parameter '{named}'"):
            config = TrainConfig(learning_rate=1e-3, batch_size=5, epochs=1, seed=0)
            train(model, synthetic_blobs(10, seed=1), synthetic_blobs(5, seed=2), config,
                  adam=state)
        assert [arr.tobytes() for _, arr in model.parameters()] == before
        assert [arr.tobytes() for arr in (*state.m.values(), *state.v.values())] == moments
        assert state.step_count == 0


class TestTrainLoop:
    def test_blob_fixture_reaches_full_train_accuracy(self):
        """Two separable blob classes, chi=4: 100% train accuracy in 30 epochs."""
        train_set = synthetic_blobs(120, seed=0)
        test_set = synthetic_blobs(40, seed=1)
        model = init_model(16, 2, 4, seed=0)
        config = TrainConfig(learning_rate=1e-3, batch_size=20, epochs=30, seed=0)
        history = train(model, train_set, test_set, config)
        assert history[-1].train_acc == 1.0
        assert history[-1].test_acc == 1.0

    def test_mean_square_also_solves_the_fixture(self):
        train_set = synthetic_blobs(120, seed=0)
        test_set = synthetic_blobs(40, seed=1)
        model = init_model(16, 2, 4, seed=0)
        config = TrainConfig(
            learning_rate=1e-3,
            batch_size=20,
            epochs=30,
            seed=0,
            loss_kind=LossKind.MEAN_SQUARE,
        )
        history = train(model, train_set, test_set, config)
        assert history[-1].train_acc == 1.0

    def test_loss_decreases_over_first_five_epochs(self):
        train_set = synthetic_blobs(200, seed=2)
        test_set = synthetic_blobs(50, seed=3)
        model = init_model(16, 2, 4, seed=0)
        config = TrainConfig(learning_rate=1e-3, batch_size=20, epochs=5, seed=0)
        history = train(model, train_set, test_set, config)
        losses = [m.train_loss for m in history]
        assert losses == sorted(losses, reverse=True)

    def test_train_continues_a_given_adam_state(self):
        """Two 1-epoch calls sharing a state take the same steps as one loop over both."""
        train_set = synthetic_blobs(60, seed=0)
        test_set = synthetic_blobs(20, seed=1)
        config = TrainConfig(learning_rate=1e-3, batch_size=20, epochs=1, seed=3)
        model = init_model(16, 2, 3, seed=5)
        state = init_adam(model)
        for _ in range(2):
            train(model, train_set, test_set, config, adam=state)
        assert state.step_count == 2 * 3

        # The same arithmetic by hand: each call reshuffles from config.seed.
        manual = init_model(16, 2, 3, seed=5)
        manual_state = init_adam(manual)
        feats = encode_batch(manual.feature_map, train_set.images)
        labels = np.asarray(train_set.labels)
        for _ in range(2):
            order = np.random.default_rng(config.seed).permutation(len(labels))
            for start in range(0, len(labels), config.batch_size):
                pick = order[start : start + config.batch_size]
                _, grads = loss_and_gradients(manual, feats[pick], labels[pick])
                adam_step(manual, grads, manual_state, config.learning_rate)
        for (name, got), (_, want) in zip(model.parameters(), manual.parameters()):
            np.testing.assert_array_equal(got, want, err_msg=name)
            np.testing.assert_array_equal(state.m[name], manual_state.m[name])
            np.testing.assert_array_equal(state.v[name], manual_state.v[name])

    def test_seeded_rerun_is_identical(self):
        config = TrainConfig(learning_rate=1e-3, batch_size=10, epochs=3, seed=7)

        def run():
            train_set = synthetic_blobs(60, seed=0)
            test_set = synthetic_blobs(20, seed=1)
            model = init_model(16, 2, 3, seed=5)
            return train(model, train_set, test_set, config)

        a, b = run(), run()
        for ma, mb in zip(a, b):
            assert (ma.epoch, ma.train_loss, ma.train_acc, ma.test_loss, ma.test_acc) == (
                mb.epoch,
                mb.train_loss,
                mb.train_acc,
                mb.test_loss,
                mb.test_acc,
            )

    def test_sequential_strategy_knob(self):
        from mpsclassify import Strategy

        train_set = synthetic_blobs(40, seed=0)
        test_set = synthetic_blobs(20, seed=1)
        model = init_model(16, 2, 3, seed=5)
        config = TrainConfig(
            learning_rate=1e-3, batch_size=10, epochs=2, seed=0,
            strategy=Strategy.SEQUENTIAL,
        )
        history = train(model, train_set, test_set, config)
        assert len(history) == 2

    def test_test_pass_sweeps_whatever_strategy_trains(self, monkeypatch):
        import mpsclassify.training
        from mpsclassify import Strategy

        untaped = []
        original = mpsclassify.training.forward_batch

        def watched(model, feats, strategy=Strategy.PAIRWISE, tape=None):
            if tape is None:
                untaped.append(strategy)
            return original(model, feats, strategy, tape)

        monkeypatch.setattr(mpsclassify.training, "forward_batch", watched)
        config = TrainConfig(learning_rate=1e-3, batch_size=10, epochs=2, seed=0,
                             strategy=Strategy.PAIRWISE)
        train(init_model(16, 2, 3, seed=5), synthetic_blobs(40, seed=0),
              synthetic_blobs(20, seed=1), config)
        assert untaped == [Strategy.SEQUENTIAL] * 2

    def test_non_finite_loss_names_epoch_and_batch(self):
        train_set = synthetic_blobs(40, seed=0)
        test_set = synthetic_blobs(20, seed=1)
        model = init_model(16, 2, 3, seed=5)
        model.cores[0, 0, 0, 0] = np.nan
        config = TrainConfig(learning_rate=1e-3, batch_size=10, epochs=1, seed=0)
        with pytest.raises(NumericError, match="epoch 1, batch 0: non-finite logits"):
            train(model, train_set, test_set, config)

        # Thirteen middle cores at 1e-30 put the chain below the smallest
        # float64, so every logit is exactly zero; at 1e-10 every logit is
        # near 1e-130. Both are named errors, not a loss of log 2.
        for scale in (1e-30, 1e-10):
            model = init_model(16, 2, 3, seed=5)
            model.cores *= scale
            with pytest.raises(
                NumericError,
                match=r"epoch 1, batch 0: every logit is below 1e-100 .*underflowed",
            ):
                train(model, train_set, test_set, config)

    def test_adam_overflow_names_epoch_and_batch(self):
        """Cores near 2.5e15 give finite logits near 1e200 and gradients
        whose squares overflow in Adam's second moment."""
        train_set = synthetic_blobs(40, seed=0)
        test_set = synthetic_blobs(20, seed=1)
        config = TrainConfig(learning_rate=1e-3, batch_size=10, epochs=1, seed=0)
        model = init_model(16, 2, 3, seed=5)
        model.cores *= 10**15.4
        with pytest.raises(NumericError, match="epoch 1, batch 0: Adam second moment"):
            train(model, train_set, test_set, config)

    def test_loss_and_gradients_rejects_tiny_logits(self):
        """Logits near 1e-130 raise, instead of a loss of log 2 and ~0 gradients."""
        train_set = synthetic_blobs(10, seed=0)
        model = init_model(16, 2, 3, seed=5)
        model.cores *= 1e-10
        feats = encode_batch(model.feature_map, train_set.images)
        assert 0 < np.abs(forward_batch(model, feats)).max() < 1e-100
        with pytest.raises(NumericError, match="below 1e-100 in magnitude"):
            loss_and_gradients(model, feats, train_set.labels)

    def test_evaluate_on_degenerate_model_predicts_class_zero(self):
        """sigma=0 makes all logits equal; tie-break sends everything to 0."""
        test_set = synthetic_blobs(50, seed=4)
        model = init_model(16, 2, 3, seed=0, sigma=0.0)
        feats = encode_batch(model.feature_map, test_set.images)
        _, acc = evaluate(model, feats, test_set.labels)
        class_zero_share = float((test_set.labels == 0).mean())
        assert acc == class_zero_share

    def test_evaluate_rejects_unknown_loss_kind(self):
        """A loss kind that is not a LossKind member is refused, not taken as MSE."""
        test_set = synthetic_blobs(10, seed=4)
        model = init_model(16, 2, 3, seed=0)
        feats = encode_batch(model.feature_map, test_set.images)
        with pytest.raises(ConfigError, match="unknown loss kind"):
            evaluate(model, feats, test_set.labels, loss_kind="cross-entropy")
        with pytest.raises(ConfigError, match="unknown loss kind"):
            batch_loss(model, feats, test_set.labels, loss_kind="cross-entropy")

    def test_evaluate_on_empty_set_names_it(self):
        """An empty encoded set raises a named error, not ZeroDivisionError."""
        model = init_model(16, 2, 3, seed=0)
        feats = encode_batch(model.feature_map, np.zeros((0, 16)))
        with pytest.raises(ConfigError, match="empty set"):
            evaluate(model, feats, np.zeros(0, dtype=np.int64))

    def test_evaluate_rejects_a_batch_size_below_one(self):
        """Not a range() error, and not an accuracy read from unset predictions."""
        test_set = synthetic_blobs(10, seed=4)
        model = init_model(16, 2, 3, seed=0)
        feats = encode_batch(model.feature_map, test_set.images)
        for batch_size in (0, -5):
            with pytest.raises(ConfigError, match="batch_size must be >= 1"):
                evaluate(model, feats, test_set.labels, batch_size=batch_size)
            with pytest.raises(ConfigError, match="batch_size must be >= 1"):
                evaluate_predictions(model, feats, test_set.labels, batch_size=batch_size)

    def test_evaluate_checks_the_batch_size_as_train_config_does(self):
        """A float is refused by name, not by range(), and a bool is no batch size of 1."""
        test_set = synthetic_blobs(10, seed=4)
        model = init_model(16, 2, 3, seed=0)
        feats = encode_batch(model.feature_map, test_set.images)
        for batch_size in (2.5, True, np.float64(4.0)):
            for call in (evaluate, evaluate_predictions):
                with pytest.raises(ConfigError, match="batch_size must be an integer"):
                    call(model, feats, test_set.labels, batch_size=batch_size)
            with pytest.raises(ConfigError, match="batch_size must be an integer"):
                TrainConfig(batch_size=batch_size)
        _, acc = evaluate(model, feats, test_set.labels, batch_size=np.int64(4))
        assert 0.0 <= acc <= 1.0

    def test_evaluate_checks_the_label_count_before_any_contraction(self, monkeypatch):
        """12 labels for 10 images fail before the first batch, naming both counts."""
        test_set = synthetic_blobs(10, seed=4)
        model = init_model(16, 2, 3, seed=0)
        feats = encode_batch(model.feature_map, test_set.images)
        batches = []
        real = training.forward_batch

        def counted(model, feats, *args):
            batches.append(len(feats))
            return real(model, feats, *args)

        monkeypatch.setattr(training, "forward_batch", counted)
        with pytest.raises(DimensionError, match="12 labels for 10 images"):
            evaluate(model, feats, np.arange(12) % 2, batch_size=4)
        assert batches == []

    @pytest.mark.parametrize("entry", ["evaluate", "loss_and_gradients", "compute_loss"])
    def test_float_labels_are_named(self, entry):
        """Not NumPy's IndexError from indexing with floats: a named error with the dtype."""
        test_set = synthetic_blobs(10, seed=4)
        model = init_model(16, 3, 3, seed=0)
        feats = encode_batch(model.feature_map, test_set.images)
        labels = np.arange(10.0) % 3
        calls = {
            "evaluate": lambda: evaluate(model, feats, labels),
            "loss_and_gradients": lambda: loss_and_gradients(model, feats, labels),
            "compute_loss": lambda: compute_loss(LossKind.MEAN_SQUARE, np.zeros((10, 3)), labels),
        }
        with pytest.raises(DimensionError, match="labels must be integers, got dtype float64"):
            calls[entry]()

    @pytest.mark.parametrize("strategy", [Strategy.PAIRWISE, Strategy.SEQUENTIAL])
    def test_step_on_empty_batch_names_it(self, strategy):
        """A named error before any contraction, not NumPy warnings and a nan loss."""
        model = init_model(16, 2, 3, seed=0)
        feats = encode_batch(model.feature_map, np.zeros((0, 16)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="empty batch"):
                loss_and_gradients(model, feats, np.zeros(0, dtype=np.int64), strategy=strategy)

    def test_train_on_empty_train_set_names_it(self):
        class Empty:
            images = np.zeros((0, 16))
            labels = np.zeros(0, dtype=np.int64)

        model = init_model(16, 2, 3, seed=0)
        config = TrainConfig(learning_rate=1e-3, batch_size=10, epochs=1, seed=0)
        with pytest.raises(ConfigError, match="empty train set"):
            train(model, Empty, synthetic_blobs(10, seed=1), config)

    def test_train_with_empty_test_set_fails_before_any_step(self):
        """Named before the first step, so the model and Adam's moments keep their bytes."""
        class Empty:
            images = np.zeros((0, 16))
            labels = np.zeros(0, dtype=np.int64)

        model = init_model(16, 2, 3, seed=0)
        adam = init_adam(model)
        before = [arr.tobytes() for _, arr in model.parameters()]
        moments = [arr.tobytes() for arr in (*adam.m.values(), *adam.v.values())]
        config = TrainConfig(learning_rate=1e-3, batch_size=10, epochs=1, seed=0)
        with pytest.raises(ConfigError, match="empty test set"):
            train(model, synthetic_blobs(10, seed=1), Empty, config, adam=adam)
        assert [arr.tobytes() for _, arr in model.parameters()] == before
        assert [arr.tobytes() for arr in (*adam.m.values(), *adam.v.values())] == moments
        assert adam.step_count == 0

    @pytest.mark.parametrize(
        "split, labels, named",
        [("train", 9, "9 labels for 10 images"), ("train", 11, "11 labels for 10 images"),
         ("test", 4, "4 labels for 5 images")],
        ids=["fewer-train", "more-train", "fewer-test"],
    )
    def test_a_label_count_off_its_image_count_is_named_before_any_step(
        self, split, labels, named
    ):
        """Either split's labels must be one per image, checked before the first
        step as ``evaluate_predictions`` checks them, so the model keeps its bytes."""
        sets = {"train": synthetic_blobs(10, seed=1), "test": synthetic_blobs(5, seed=2)}
        images = sets[split].images

        class Short:
            pass

        Short.images, Short.labels = images, np.zeros(labels, dtype=np.int64)
        sets[split] = Short
        model = init_model(16, 2, 3, seed=0)
        before = [arr.tobytes() for _, arr in model.parameters()]
        config = TrainConfig(learning_rate=1e-3, batch_size=5, epochs=1, seed=0)
        with pytest.raises(DimensionError, match=named):
            train(model, sets["train"], sets["test"], config)
        assert [arr.tobytes() for _, arr in model.parameters()] == before

    def test_train_encodes_each_batch_as_it_draws_it(self, monkeypatch):
        """No encoded copy of the training set: only the test set is encoded whole."""
        train_set, test_set = synthetic_blobs(30, seed=1), synthetic_blobs(12, seed=2)
        model = init_model(16, 2, 3, seed=0)
        config = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=2, seed=0)
        want = train(model.copy(), train_set, test_set, config)
        encoded = []
        real = training.encode_batch

        def counting(fmap, images):
            encoded.append(len(images))
            return real(fmap, images)

        monkeypatch.setattr(training, "encode_batch", counting)
        got = train(model, train_set, test_set, config)
        assert sorted(encoded) == sorted([12] + [8, 8, 8, 6] * 2)
        assert [m.train_loss for m in got] == [m.train_loss for m in want]
        assert [m.test_acc for m in got] == [m.test_acc for m in want]

    def test_a_bad_training_pixel_is_named_before_any_step(self):
        train_set = synthetic_blobs(30, seed=1)
        bad_images = train_set.images.copy()
        bad_images[-1, 3] = 1.5

        class Bad:
            images, labels = bad_images, train_set.labels

        model = init_model(16, 2, 3, seed=0)
        before = [arr.tobytes() for _, arr in model.parameters()]
        config = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=1, seed=0)
        with pytest.raises(DomainError, match="outside"):
            train(model, Bad, synthetic_blobs(12, seed=2), config)
        assert [arr.tobytes() for _, arr in model.parameters()] == before

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_rejected(self, rate):
        with pytest.raises(ConfigError, match="learning_rate must be positive and finite"):
            TrainConfig(learning_rate=rate)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize(
        "call, error, match",
        [
            (lambda: TrainConfig(strategy="pairwise"), ConfigError, "strategy must be"),
            (lambda: TrainConfig(loss_kind="cross-entropy"), ConfigError, "loss_kind must be"),
            (lambda: TrainConfig(batch_size=2.5), ConfigError, "batch_size must be an integer"),
            (lambda: TrainConfig(epochs=2.0), ConfigError, "epochs must be an integer"),
            (lambda: TrainConfig(eval_batch_size=2.5), ConfigError,
             "eval_batch_size must be an integer"),
            (lambda: TrainConfig(learning_rate=None), ConfigError,
             "learning_rate must be positive and finite, got None"),
            (lambda: evaluate_predictions(init_model(12, 2, 2, seed=0), np.ones((12, 2)), [0]),
             DimensionError, r"expected \[B, N, d\] features"),
        ],
        ids=["string-strategy", "string-loss", "float-batch", "float-epochs",
             "float-eval-batch", "none-learning-rate", "unbatched-features"],
    )
    def test_bad_inputs_are_named_up_front(self, call, error, match):
        """Named where they are given, not at the first step or as a misleading count."""
        with pytest.raises(error, match=match):
            call()

    @pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "fractional", "bool"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda seed: init_model(8, 2, 2, seed=seed),
            lambda seed: TrainConfig(seed=seed),
            lambda seed: synthetic_digits(3, seed=seed),
            lambda seed: synthetic_blobs(3, seed=seed),
            lambda seed: take(synthetic_blobs(5), 3, seed=seed),
        ],
        ids=["init_model", "TrainConfig", "synthetic_digits", "synthetic_blobs", "take"],
    )
    def test_every_seed_is_a_non_negative_integer(self, call, seed):
        """Named where it is given, not NumPy's bare error at the first draw."""
        with pytest.raises(ConfigError, match=f"^seed must be .*, got {seed!r}$"):
            call(seed)

    def test_numpy_integers_configure_a_run(self):
        config = TrainConfig(batch_size=np.int64(8), epochs=np.int32(2), eval_batch_size=np.int64(4))
        assert (config.batch_size, config.epochs, config.eval_batch_size) == (8, 2, 4)

    def test_metrics_csv_layout(self, tmp_path):
        train_set = synthetic_blobs(30, seed=0)
        test_set = synthetic_blobs(10, seed=1)
        model = init_model(16, 2, 2, seed=0)
        config = TrainConfig(learning_rate=1e-3, batch_size=10, epochs=4, seed=0)
        history = train(model, train_set, test_set, config)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, history)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(METRICS_COLUMNS)
        assert len(lines) == 5
        assert lines[1].startswith("1,")


@pytest.mark.parametrize(
    "logits, labels, named",
    [
        (np.zeros(3), np.zeros(3, dtype=np.int64), r"shape \(3,\)"),
        (np.zeros((3, 2)), np.zeros(2, dtype=np.int64), r"labels shape \(2,\)"),
    ],
    ids=["one-dimensional-logits", "label-count"],
)
def test_a_bad_loss_batch_is_refused_by_value(logits, labels, named):
    with pytest.raises(DimensionError, match=named):
        compute_loss(LossKind.CROSS_ENTROPY, logits, labels)
