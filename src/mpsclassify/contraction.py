"""Per-label score evaluation by tensor-network contraction.

Two schedules, the ones ``Strategy`` names, plus the brute-force oracle
``brute_force_logits``. Taped, both absorb every bond site in one node,
straight from ``cores`` (``STACKED_ABSORB``), then carry each boundary
vector through its half's rows of that stack with the schedule's step
(``_forward_taped``):

* ``sequential``: sweep a vector from each end of the chain toward the
  label site, combining there so the label count L enters only the final
  step. Taped, it multiplies the vector by each site's matrix of the
  stack in one ``Tape.sweep`` per half, one node each (``v @ A`` over the
  left half's ascending rows, ``A @ v`` over the right half's descending
  ones), the vectors written into one prefix buffer. Its backward
  reverses each half's sweep in one loop into one environment buffer,
  then builds the ``cores`` gradient from the whole prefix and
  environment arrays, one batched matmul per feature component and half,
  with no dense [N-3, B, chi, chi] adjoint (``autodiff.backward``).
  Untaped, the vector is held image-last, [chi, B], and takes one step
  per site, weights first (``_sweep_half``): the site's features weight
  the vector along the batch, ``u = f ⊗ v`` [d, chi, B], then one
  ``[chi, d chi] @ [d chi, B]`` product with the site's d matrices side by
  side serves the whole batch. The label core is one more such step on
  the right vector (``_sweep_untaped``), so no [B, L, chi, chi] label
  block is built.
* ``pairwise``: slice each half's rows of the absorbed stack, one site per
  matrix, then repeatedly multiply adjacent effective matrices in rounds
  and meet the vector with the one matrix left (``_pair_reduce``). All
  products of a round are independent, so a round is one stacked matrix
  product, at the price of matrix-matrix (chi^3) products. An odd matrix
  at the end of a round is carried to the next round unpaired. The
  rounds exist for the taped step; untaped, pairwise runs the sequential
  sweep (``forward_batch``).

``brute_force_logits`` is no schedule: it is the literal sum over every
pixel-index assignment of one image, guarded to small chains, and exists
to anchor the two. It records nothing on a tape and has no gradients.

The chain is split at the label core; each half reduces independently and
the halves meet at the label block, so L never multiplies the inner work.
``forward_batch`` runs a schedule's taped form iff it is given a tape,
and the untaped sequential sweep otherwise. FLOPs are counted from the
nodes a tape keeps (``Tape.forward_flops``), so they follow the taped
forms.

Each schedule has one path, in plain float64 with no rescaling: a badly
scaled long chain overflows to non-finite logits or underflows to logits
too small to carry a scale, and the taped training step names either
failure (``train`` adds the epoch and batch).

Layout: every absorb names the weights as its first operand (for example
``STACKED_ABSORB``), so the compiled plan's final ``matmul`` writes the
stack batch-major and C-contiguous, ``[..., B, chi, chi]``, with no
transposed view. Each matrix a pairwise round multiplies is then
contiguous for BLAS.

Workspace: a taped call takes its absorbed label block and its stack of
every bond site from its tape's workspace (``autodiff.Workspace``), and
then a pairwise call its round outputs, a sequential one each half's
prefix and environment buffers. A pairwise step's round adjoints are
[T, B, chi] factor pairs, new arrays. Only the taped training step
(``training._taped_step``) is lent the module's workspace
(``autodiff.lend_workspace``); a tape passed in by the caller never is,
and the untaped sweep takes only new arrays, so an evaluation leaves the
workspace as it found it. No logits returned are a view of the
workspace.
"""

import enum
import itertools

import numpy as np

from .autodiff import STACKED_ABSORB, Tape
from .errors import ConfigError, DimensionError, NumericError
from .model import MpsClassifier
from .tensor import DTYPE

BRUTE_FORCE_MAX_SITES = 12


class Strategy(enum.Enum):
    """The two contraction schedules; the brute-force oracle is ``brute_force_logits``."""

    SEQUENTIAL = "sequential"
    PAIRWISE = "pairwise"


def check_batch_features(model: MpsClassifier, feats: np.ndarray) -> np.ndarray:
    feats = np.ascontiguousarray(feats, dtype=DTYPE)
    if feats.ndim != 3:
        raise DimensionError(f"expected [B, N, d] features, got shape {feats.shape}")
    if feats.shape[1] != model.n_sites:
        raise DimensionError(
            f"image has {feats.shape[1]} sites but model expects {model.n_sites}"
        )
    if feats.shape[2] != model.local_dim:
        raise DimensionError(
            f"feature dimension {feats.shape[2]} does not match model d={model.local_dim}"
        )
    return feats


def _absorb_ends(model, feats, tape):
    """Absorb both boundary sites and the label site: (lv, lab, rv)."""
    lv = tape.contract("dx,bd->bx", model.left_boundary, feats[:, 0, :], kind="absorb")
    lab = tape.contract(
        "dlxy,bd->blxy",
        model.label_core,
        feats[:, model.label_site, :],
        kind="absorb",
        out=tape.workspace.empty((feats.shape[0],) + model.label_core.shape[1:]),
    )
    rv = tape.contract(
        "dx,bd->bx", model.right_boundary, feats[:, model.n_sites - 1, :], kind="absorb"
    )
    return lv, lab, rv


def _sweep_half(mats, feats, vec):
    """Untaped sweep of an image-last vector [chi, B] through ``mats`` in order: [rows, B].

    ``mats`` [n, rows, d chi] holds each site's d matrices side by side and
    ``feats`` [n, d, B] its image-last features. Each step weights first,
    ``u = f ⊗ v`` [d, chi, B] along the batch, then makes one
    ``[rows, d chi] @ [d chi, B]`` product for the whole batch.
    """
    u = np.empty(feats.shape[1:2] + vec.shape)
    flat = u.reshape(mats.shape[-1], -1)
    for mat, f in zip(mats, feats[:, :, None]):
        np.multiply(f, vec, out=u)
        vec = np.matmul(mat, flat)
    return vec


def _pair_reduce(tape, vec, stack, rows):
    """``Tape.sweep``'s result by pairwise rounds: the rows sliced on the tape,
    reduced to one matrix P, met with ``vec`` in one combine, ``v @ P`` where
    ``rows`` ascends and ``P @ v`` where it descends."""
    if not rows:
        return vec
    start = min(rows)
    half = tape.slice_rows(stack, start, start + len(rows))
    while half.shape[0] > 1:
        half = tape.pair_round(half)
    mat = tape.gather(half, 0)
    if rows.step > 0:
        return tape.contract("bx,bxy->by", vec, mat, kind="combine")
    return tape.contract("bxy,by->bx", mat, vec, kind="combine")


def _forward_taped(model, feats, tape, step):
    """Taped logits [B, L]: every bond site absorbed in one node, each half's
    boundary vector carried through its rows by ``step`` (``Tape.sweep`` or
    ``_pair_reduce``), then the halves met at the label block."""
    m, n = model.label_site, model.n_sites
    lv, lab, rv = _absorb_ends(model, feats, tape)
    # Every bond site at once, in the order of ``cores``' rows; each half's
    # step reads its rows of the stack in place, outward in.
    bond_feats = np.concatenate((feats[:, 1:m], feats[:, m + 1 : n - 1]), axis=1)
    out = tape.workspace.empty((n - 3, len(feats)) + model.cores.shape[2:])
    stack = tape.contract(STACKED_ABSORB, model.cores, bond_feats, kind="absorb", out=out)
    lv = step(tape, lv, stack, range(m - 1))
    rv = step(tape, rv, stack, range(n - 4, m - 2, -1))
    # y, the label block's last index, is contracted first, so the plan
    # multiplies the block as it lies instead of copying it transposed.
    return tape.contract("by,blxy,bx->bl", rv, lab, lv, kind="combine")


def _sweep_untaped(model, feats):
    """Untaped sequential logits [B, L]: both halves swept image-last, one
    weight-first step per site (``_sweep_half``), then the label core met
    with the right vector first.

    The image-last features [N, d, B] are made once per call, and so is
    each half's [n, chi_out, d chi_in] arrangement of its rows of
    ``cores``, the d matrices of a site side by side. The label core takes
    the right vector as one more step, ``[L chi, d chi] @ [d chi, B]``; the
    [L, chi, B] result is weighted by the left vector along the batch and
    summed over chi, so no [B, L, chi, chi] block is built.
    """
    m, n = model.label_site, model.n_sites
    d, chi = model.local_dim, model.bond_dim
    feats = np.ascontiguousarray(feats.transpose(1, 2, 0))
    lv = np.matmul(model.left_boundary.T, feats[0])
    rv = np.matmul(model.right_boundary.T, feats[n - 1])
    left = model.cores[: m - 1].transpose(0, 3, 1, 2).reshape(-1, chi, d * chi)
    right = model.cores[m - 1 :].transpose(0, 2, 1, 3).reshape(-1, chi, d * chi)
    lv = _sweep_half(left, feats[1:m], lv)
    rv = _sweep_half(right[::-1], feats[n - 2 : m : -1], rv)
    label = model.label_core.transpose(1, 2, 0, 3).reshape(1, -1, d * chi)
    block = _sweep_half(label, feats[m : m + 1], rv).reshape(model.n_labels, chi, -1)
    np.multiply(block, lv, out=block)
    return np.ascontiguousarray(np.add.reduce(block, axis=1).T)


def forward_batch(
    model: MpsClassifier,
    feats: np.ndarray,
    strategy: Strategy = Strategy.PAIRWISE,
    tape: Tape | None = None,
) -> np.ndarray:
    """Logits [B, L] for a batch of encoded images [B, N, d], as a new array.

    ``strategy`` is one of the two schedules; the brute-force oracle is
    ``brute_force_logits``, one image per call. This is the one place that
    picks a schedule's form. Given a ``tape``, whatever it watches, the
    schedule's taped form runs the whole batch at once with its step
    (``_forward_taped``): ``Tape.sweep``, looked up at call time so a
    wrapper put on the class is called, or ``_pair_reduce``; the tape is
    never lent the workspace.

    Without one, both schedules run the untaped sequential sweep
    (``_sweep_untaped``), so their untaped logits are the same bytes: per
    site, the features weight the image-last vector first, then one
    ``[chi, d chi] @ [d chi, B]`` product serves the whole batch. A call
    that records no graph gains nothing from the pairwise rounds. Taped and
    untaped logits agree to rounding only.
    """
    feats = check_batch_features(model, feats)
    if strategy is Strategy.PAIRWISE:
        step = _pair_reduce
    elif strategy is Strategy.SEQUENTIAL:
        step = Tape.sweep
    else:
        raise ConfigError(f"unknown strategy {strategy!r}")
    if tape is None:
        return _sweep_untaped(model, feats)
    return _forward_taped(model, feats, tape, step)


def brute_force_logits(model: MpsClassifier, image: np.ndarray) -> np.ndarray:
    """Literal sum over all 2^N pixel-index assignments; oracle for small N.

    For each assignment the chain entry is evaluated as an explicit product
    of the selected matrix slices, then weighted by the product of feature
    components. Costs 2^N work and is refused beyond N=12.
    """
    n = model.n_sites
    if n > BRUTE_FORCE_MAX_SITES:
        raise ConfigError(
            f"brute force refused for N={n} > {BRUTE_FORCE_MAX_SITES} "
            f"(2^N-term sum)"
        )
    image = np.ascontiguousarray(image, dtype=DTYPE)
    check_batch_features(model, image[None])
    m = model.label_site
    logits = np.zeros(model.n_labels, dtype=DTYPE)
    for assignment in itertools.product(range(model.local_dim), repeat=n):
        weight = 1.0
        for k in range(n):
            weight *= image[k, assignment[k]]
        v = model.left_boundary[assignment[0]]
        for site in range(1, m):
            v = v @ model.cores[model.core_stack_index(site)][assignment[site]]
        u = model.right_boundary[assignment[n - 1]]
        for site in range(n - 2, m, -1):
            u = model.cores[model.core_stack_index(site)][assignment[site]] @ u
        per_label = model.label_core[assignment[m]] @ u
        logits += weight * (per_label @ v)
    return logits


def predict_batch(logits: np.ndarray) -> np.ndarray:
    """Row-wise argmax with lowest-index tie-breaking."""
    logits = np.asarray(logits, dtype=DTYPE)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise DimensionError(f"predict_batch expects [B, L>=2] logits, got {logits.shape}")
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logits in predict_batch")
    return np.argmax(logits, axis=1)
