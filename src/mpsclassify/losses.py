"""Classification losses over per-label scores.

Both losses are batch means, so the learning rate keeps its meaning when
the batch size changes. Gradient helpers return the closed-form derivative
with respect to the logits alongside the value. ``compute_loss`` is the one
place that maps a ``LossKind`` to its functions.
"""

import enum

import numpy as np

from .errors import ConfigError, DimensionError, NumericError
from .tensor import DTYPE


class LossKind(enum.Enum):
    CROSS_ENTROPY = "cross-entropy"
    MEAN_SQUARE = "mean-square"


def _check_batch(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    logits = np.asarray(logits, dtype=DTYPE)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise DimensionError(f"logits must be [B, L], got shape {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise DimensionError(
            f"labels shape {labels.shape} does not match batch of {logits.shape[0]}"
        )
    if not np.issubdtype(labels.dtype, np.integer):
        raise DimensionError(f"labels must be integers, got dtype {labels.dtype}")
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logits passed to loss")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= logits.shape[1]:
        raise DimensionError(
            f"labels must lie in [0, {logits.shape[1]}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return logits, labels


def _one_hot(labels: np.ndarray, n_labels: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], n_labels), dtype=DTYPE)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _log_softmax(logits, labels):
    """Mean -log softmax of the true labels, the logits shifted by their row max
    (so large logits cannot overflow the exponential), and each row's log-sum-exp."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return float(-(shifted[np.arange(logits.shape[0]), labels] - lse).mean()), shifted, lse


def cross_entropy_with_grad(logits, labels):
    """Value, d(loss)/d(logits), and softmax probabilities."""
    logits, labels = _check_batch(logits, labels)
    value, shifted, lse = _log_softmax(logits, labels)
    probs = np.exp(shifted - lse[:, None])
    grad = (probs - _one_hot(labels, logits.shape[1])) / logits.shape[0]
    return value, grad, probs


def cross_entropy_loss(logits, labels) -> float:
    """Mean over the batch of -log softmax of the true-label logit, without the gradient."""
    return _log_softmax(*_check_batch(logits, labels))[0]


def mean_square_with_grad(logits, labels):
    """Value, d(loss)/d(logits), and the one-hot targets."""
    logits, labels = _check_batch(logits, labels)
    batch = logits.shape[0]
    onehot = _one_hot(labels, logits.shape[1])
    diff = logits - onehot
    value = float(0.5 * (diff * diff).sum(axis=1).mean())
    grad = diff / batch
    return value, grad, onehot


def mean_square_loss(logits, labels) -> float:
    """Mean over the batch of half the squared distance to the one-hot target."""
    return mean_square_with_grad(logits, labels)[0]


def compute_loss(kind: LossKind, logits, labels, with_grad: bool = False):
    """Loss of ``kind``; with ``with_grad``, (value, d(loss)/d(logits)).

    The loss functions are looked up by name on each call, so a wrapper put
    on this module's ``cross_entropy_loss`` sees every value-only call.
    """
    if kind is LossKind.CROSS_ENTROPY:
        if with_grad:
            return cross_entropy_with_grad(logits, labels)[:2]
        return cross_entropy_loss(logits, labels)
    if kind is LossKind.MEAN_SQUARE:
        if with_grad:
            return mean_square_with_grad(logits, labels)[:2]
        return mean_square_loss(logits, labels)
    raise ConfigError(f"unknown loss kind {kind!r}")
