"""Batched gradient-descent training of every weight array at once.

One optimization step records a forward contraction plus loss on a tape,
runs the adjoint sweep, and feeds the resulting gradients to Adam. All
weight arrays (both boundaries, every bond core, the label core) are
updated simultaneously from the same pass; nothing is frozen or swept
one site at a time.

``loss_and_gradients`` and ``train`` run the one taped step, which raises
``NumericError`` when the float64 range is left (see ``_taped_step`` and
``adam_step``); ``train`` prefixes the epoch and batch.
"""

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Gradients, Tape, backward, lend_workspace
from .contraction import Strategy, check_batch_features, forward_batch, predict_batch
from .encoding import check_pixels, encode_batch
from .errors import (ConfigError, ConsistencyError, DimensionError, NumericError, check_integer,
                     check_real)
from .losses import LossKind, compute_loss, cross_entropy_loss, mean_square_loss
from .model import MpsClassifier
from .tensor import DTYPE

__all__ = [
    "LossKind",
    "TrainConfig",
    "EpochMetrics",
    "AdamState",
    "init_adam",
    "adam_step",
    "batch_loss",
    "loss_and_gradients",
    "train",
    "evaluate",
    "evaluate_predictions",
    "write_metrics_csv",
    "METRICS_COLUMNS",
    "cross_entropy_loss",
    "mean_square_loss",
]

METRICS_COLUMNS = ("epoch", "train_loss", "train_acc", "test_loss", "test_acc", "seconds")

# Below this magnitude a logit carries no usable scale: every such batch
# scores log L to about 15 digits and its gradients cannot move a weight.
TINY_LOGIT = 1e-100

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _check_positive_int(name: str, value) -> None:
    """Raise ``ConfigError`` unless ``value`` is an integer >= 1 (``check_integer``)."""
    check_integer(name, value)
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")


@dataclass
class TrainConfig:
    """Knobs for one training run. Defaults follow common Adam practice."""

    learning_rate: float = 1e-4
    batch_size: int = 50
    epochs: int = 10
    loss_kind: LossKind = LossKind.CROSS_ENTROPY
    seed: int = 0
    strategy: Strategy = Strategy.PAIRWISE
    eval_batch_size: int = 256

    def __post_init__(self):
        check_real("learning_rate", self.learning_rate)
        for name in ("batch_size", "epochs", "eval_batch_size"):
            _check_positive_int(name, getattr(self, name))
        if not isinstance(self.loss_kind, LossKind):
            raise ConfigError(f"loss_kind must be a LossKind, got {self.loss_kind!r}")
        if not isinstance(self.strategy, Strategy):
            raise ConfigError(f"strategy must be a Strategy, got {self.strategy!r}")


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    test_loss: float
    test_acc: float
    seconds: float

    def row(self) -> list:
        return [
            self.epoch,
            repr(self.train_loss),
            repr(self.train_acc),
            repr(self.test_loss),
            repr(self.test_acc),
            f"{self.seconds:.3f}",
        ]


# -- losses over a forward pass ---------------------------------------------


def batch_loss(
    model: MpsClassifier,
    feats: np.ndarray,
    labels: np.ndarray,
    loss_kind: LossKind = LossKind.CROSS_ENTROPY,
) -> float:
    """Loss of one encoded batch, no gradients, from the untaped sweep, which
    serves both schedules (``forward_batch``)."""
    return compute_loss(loss_kind, forward_batch(model, feats), labels)


def _taped_step(model, feats, labels, loss_kind, strategy) -> tuple[float, np.ndarray, Gradients]:
    """Taped forward, loss and reverse sweep: (loss, logits, gradients).

    Raises ``NumericError`` when the loss is not finite, when every logit
    is below ``TINY_LOGIT`` in magnitude, or when a gradient is not finite.
    An empty batch has no loss, so it raises ``ConfigError``.
    The tape borrows the module's workspace (``autodiff.lend_workspace``),
    which grows to the largest step so far; the loss, logits and gradients
    returned are new arrays, not views of it, the logits a copy of the
    tape's.
    """
    feats = check_batch_features(model, feats)
    if feats.shape[0] == 0:
        raise ConfigError("cannot take a step on an empty batch: it holds no images")
    with lend_workspace(Tape()) as tape:
        tape.watch_model(model)
        logits = forward_batch(model, feats, strategy, tape=tape)
        loss = float(tape.loss(loss_kind, logits, labels))
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss {loss}")
        if not (np.abs(logits) >= TINY_LOGIT).any():
            raise NumericError(
                f"every logit is below {TINY_LOGIT:g} in magnitude "
                f"(largest {np.abs(logits).max():.3g}): the chain product underflowed float64"
            )
        params = [arr for _, arr in model.parameters()]
        return loss, logits.copy(), Gradients(*backward(tape, params)).check_finite()


def loss_and_gradients(
    model: MpsClassifier,
    feats: np.ndarray,
    labels: np.ndarray,
    loss_kind: LossKind = LossKind.CROSS_ENTROPY,
    strategy: Strategy = Strategy.PAIRWISE,
) -> tuple[float, Gradients]:
    """Taped forward + loss, then the reverse sweep. Returns (loss, gradients)."""
    loss, _, grads = _taped_step(model, feats, labels, loss_kind, strategy)
    return loss, grads


# -- Adam ---------------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment accumulators per weight array, plus the step count."""

    step_count: int
    m: dict = field(repr=False, default_factory=dict)
    v: dict = field(repr=False, default_factory=dict)


def init_adam(model: MpsClassifier) -> AdamState:
    state = AdamState(step_count=0)
    for name, arr in model.parameters():
        state.m[name] = np.zeros_like(arr)
        state.v[name] = np.zeros_like(arr)
    return state


def adam_step(
    model: MpsClassifier, grads: Gradients, state: AdamState, learning_rate: float
) -> None:
    """One in-place Adam update of every weight array.

    Bias-corrected moments; the eps sits outside the square root, so the
    magnitude of any single update is bounded by roughly the learning rate.
    A second moment that would leave the float64 range raises
    ``NumericError``, and a gradient or moment of another shape than its
    weight array ``ConsistencyError``, each naming the weight array, before
    any array changes.
    """
    grad_by_name = dict(grads.arrays())
    v_next = {}
    for name, param in model.parameters():
        g = grad_by_name[name]
        for what, arr in (("gradient", g), ("Adam m", state.m[name]), ("Adam v", state.v[name])):
            if arr.shape != param.shape:
                raise ConsistencyError(
                    f"{what} shape {arr.shape} does not match parameter {name!r} {param.shape}"
                )
        with np.errstate(over="ignore"):
            v_next[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * (g * g)
        if not np.isfinite(v_next[name]).all():
            raise NumericError(
                f"Adam second moment of {name!r} overflows float64 "
                f"(largest gradient entry {np.abs(g).max():.3g})"
            )
    state.step_count += 1
    t = state.step_count
    for name, param in model.parameters():
        m = state.m[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad_by_name[name]
        v = state.v[name] = v_next[name]
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        param -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# -- training loop -------------------------------------------------------------


def evaluate(
    model: MpsClassifier,
    feats: np.ndarray,
    labels: np.ndarray,
    loss_kind: LossKind = LossKind.CROSS_ENTROPY,
    batch_size: int = 256,
    strategy: Strategy = Strategy.SEQUENTIAL,
) -> tuple[float, float]:
    """(mean loss, accuracy) over an encoded set, evaluated in batches.

    Both schedules evaluate with the untaped sequential sweep
    (``contraction.forward_batch``), so pairwise and sequential give the
    same bytes; the brute-force oracle, ``brute_force_logits``, is no
    strategy."""
    return evaluate_predictions(model, feats, labels, loss_kind, batch_size, strategy)[:2]


def _check_labels(labels, count: int) -> np.ndarray:
    """``labels`` as an array; ``DimensionError`` naming both counts unless it has
    one label per image."""
    if np.shape(labels) != (count,):
        raise DimensionError(f"{np.size(labels)} labels for {count} images")
    return np.asarray(labels)


def evaluate_predictions(
    model: MpsClassifier,
    feats: np.ndarray,
    labels: np.ndarray,
    loss_kind: LossKind = LossKind.CROSS_ENTROPY,
    batch_size: int = 256,
    strategy: Strategy = Strategy.SEQUENTIAL,
) -> tuple[float, float, np.ndarray]:
    """``evaluate`` plus the predicted label of every image, from the same pass."""
    feats = check_batch_features(model, feats)
    count = feats.shape[0]
    if count == 0:
        raise ConfigError("cannot evaluate an empty set: it holds no images")
    _check_positive_int("batch_size", batch_size)
    labels = _check_labels(labels, count)
    loss_sum = 0.0
    preds = np.empty(count, dtype=np.int64)
    for start in range(0, count, batch_size):
        fb = feats[start : start + batch_size]
        lb = labels[start : start + batch_size]
        logits = forward_batch(model, fb, strategy)
        loss_sum += compute_loss(loss_kind, logits, lb) * fb.shape[0]
        preds[start : start + fb.shape[0]] = predict_batch(logits)
    correct = int((preds == labels).sum())
    return loss_sum / count, correct / count, preds


def train(
    model: MpsClassifier,
    train_set,
    test_set,
    config: TrainConfig,
    on_epoch=None,
    adam: AdamState | None = None,
) -> list[EpochMetrics]:
    """Run Adam for ``config.epochs`` epochs, mutating ``model`` in place.

    ``adam`` is continued, its moments and step count updated in place, so a
    second call given the first call's state resumes where it stopped;
    without one, Adam starts from a fresh ``init_adam(model)``.

    ``train_set``/``test_set`` carry raw normalized pixels ([count, N]) and
    integer labels. The test features are encoded once up front; each
    training batch is encoded as it is drawn, so no encoded copy of the
    training set (twice its pixels) is held. Every pixel is range-checked
    before the first step. Batch order is
    reshuffled each epoch from a generator seeded by ``config.seed``, so a
    rerun with the same seed retraces the identical arithmetic. Per-batch
    training logits double as the running train-accuracy count, so the
    train columns reflect the model as it moved, while test columns
    evaluate the post-epoch model with the sequential sweep, whatever
    ``config.strategy`` takes the steps.
    """
    rng = np.random.default_rng(config.seed)
    train_images = check_pixels(train_set.images)
    test_feats = encode_batch(model.feature_map, test_set.images)
    count = train_images.shape[0]
    if count == 0:
        raise ConfigError("cannot train on an empty train set: it holds no images")
    if test_feats.shape[0] == 0:
        raise ConfigError("cannot evaluate an empty test set: it holds no images")
    train_labels = _check_labels(train_set.labels, count)
    test_labels = _check_labels(test_set.labels, test_feats.shape[0])

    if adam is None:
        adam = init_adam(model)
    history: list[EpochMetrics] = []
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(count)
        loss_sum = 0.0
        correct = 0
        for batch_index, start in enumerate(range(0, count, config.batch_size)):
            pick = order[start : start + config.batch_size]
            fb = encode_batch(model.feature_map, train_images[pick])
            lb = train_labels[pick]
            try:
                loss, logits, grads = _taped_step(model, fb, lb, config.loss_kind, config.strategy)
                adam_step(model, grads, adam, config.learning_rate)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, batch {batch_index}: {exc}") from exc
            loss_sum += loss * fb.shape[0]
            correct += int((predict_batch(logits) == lb).sum())
        test_loss, test_acc = evaluate(
            model,
            test_feats,
            test_labels,
            loss_kind=config.loss_kind,
            batch_size=config.eval_batch_size,
        )
        metrics = EpochMetrics(
            epoch=epoch,
            train_loss=loss_sum / count,
            train_acc=correct / count,
            test_loss=test_loss,
            test_acc=test_acc,
            seconds=time.perf_counter() - started,
        )
        history.append(metrics)
        if on_epoch is not None:
            on_epoch(metrics)
    return history


def write_metrics_csv(path, history: list[EpochMetrics]) -> None:
    """Write one header row plus one row per epoch.

    Numeric cells use ``repr`` (shortest round-trip form), so two runs that
    performed identical arithmetic produce identical bytes everywhere except
    the seconds column.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for metrics in history:
            writer.writerow(metrics.row())
