"""Plain NumPy references the benchmark checks the package against.

Written apart from the package: the contraction here walks the chain
strictly left to right with transfer matrices, so it shares no schedule,
split point or tape code with the package's pairwise or sequential paths.
It reads only the model's public weight arrays and the chain layout that
``model.py`` documents (bond cores stacked in ascending site order with the
label site left out).
"""

import numpy as np


def _transfer(feats_at_site: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Contract the physical index: [B, d] x [d, ...] -> [B, ...]."""
    return np.tensordot(feats_at_site, core, axes=([1], [0]))


def logits(model, feats: np.ndarray) -> np.ndarray:
    """Logits [B, L] of encoded images [B, N, d], contracted left to right.

    The running row vector is [B, 1, chi] until the label site and
    [B, L, chi] after it, so each label is carried as its own row.
    """
    n, m = model.n_sites, model.label_site
    row = (feats[:, 0, :] @ model.left_boundary)[:, None, :]
    for site in range(1, n - 1):
        if site == m:
            block = _transfer(feats[:, site, :], model.label_core)  # [B, L, chi, chi]
            row = (row[:, :, None, :] @ block)[:, :, 0, :]
        else:
            core = model.cores[site - 1 if site < m else site - 2]
            row = row @ _transfer(feats[:, site, :], core)  # [B, k, chi]
    right = feats[:, n - 1, :] @ model.right_boundary  # [B, chi]
    return (row @ right[:, :, None])[:, :, 0]


def cross_entropy(logits_: np.ndarray, labels: np.ndarray) -> float:
    """Batch mean of log-sum-exp minus the true-label logit."""
    top = logits_.max(axis=1)
    lse = np.log(np.exp(logits_ - top[:, None]).sum(axis=1)) + top
    return float(np.mean(lse - logits_[np.arange(labels.shape[0]), labels]))


def directional_derivative(model, feats, labels, grads: dict, rng, step: float):
    """(<grad, v>, central difference of the reference loss along v).

    ``v`` is a Gaussian direction over every weight array, scaled to unit
    norm, drawn from ``rng``; ``grads`` maps weight-array names to the
    gradients under test.
    """
    direction = {name: rng.standard_normal(arr.shape) for name, arr in model.parameters()}
    norm = np.sqrt(sum(float((v * v).sum()) for v in direction.values()))
    analytic = sum(float(np.vdot(grads[name], v)) for name, v in direction.items()) / norm

    def loss_at(t: float) -> float:
        moved = model.copy()
        for name, arr in moved.parameters():
            arr += (t / norm) * direction[name]
        return cross_entropy(logits(moved, feats), labels)

    numeric = (loss_at(step) - loss_at(-step)) / (2.0 * step)
    return analytic, numeric
