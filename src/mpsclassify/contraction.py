"""Per-label score evaluation by tensor-network contraction.

Two production schedules plus a brute-force oracle:

* ``sequential``: sweep a vector from each end of the chain toward the
  label site, combining there so the label count L enters only the final
  step. Taped, it absorbs every bond site in one node, straight
  from ``cores`` (``STACKED_ABSORB``), then multiplies the vector by
  each site's matrix of that stack in one ``Tape.sweep`` per half, one
  node each (``v @ A`` over the left half's ascending rows, ``A @ v``
  over the right half's descending ones), the vectors written into one
  prefix buffer. Its backward reverses each half's sweep in one loop into
  one environment buffer, then builds the ``cores`` gradient from the
  whole prefix and environment arrays, one batched matmul per feature
  component and half, with no dense [N-3, B, chi, chi] adjoint
  (``autodiff.backward``).
  Untaped, the vector is held image-last, [chi, B], and takes one step
  per two-site bond (``_sweep_pairs``): one matrix product with all d^2 of the bond's
  matrices for the whole batch, then a weighting along the batch. Only
  the batch-independent bonds cost chi^3. The label core then takes the
  right vector first (``_sweep_untaped``), so no [B, L, chi, chi] label
  block is built.
* ``pairwise``: absorb every pixel of each half at once, one site per
  matrix, from the half's own rows of ``cores``, then repeatedly multiply
  adjacent effective matrices in rounds. All products of a round are
  independent, so a round is one stacked matrix product, at the price of
  matrix-matrix (chi^3) products. An odd matrix at the end of a round is
  carried to the next round unpaired. The rounds exist for the taped
  step; untaped, pairwise runs the sequential sweep (``forward_batch``).
* ``brute force``: the literal sum over every pixel-index assignment,
  guarded to small chains. Exists to anchor the fast schedules.

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
contiguous for BLAS. Brute force records nothing on a tape and has no
gradients.

Workspace: a taped pairwise call takes its absorbed label block and halves
and its round outputs from its tape's workspace (``autodiff.Workspace``),
and a taped sequential call its label block, its stack of every bond site
and each half's prefix and environment buffers; a step's round adjoints
are [T, B, chi] factor pairs, new arrays freed round by round. Only the
taped training step (``training._taped_step``) is lent the module's
workspace (``autodiff.lend_workspace``); a tape passed in by the caller
never is, and the untaped sweep takes only new arrays, so an evaluation
leaves the workspace as it found it. No logits returned are a view of the
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
    SEQUENTIAL = "sequential"
    PAIRWISE = "pairwise"
    BRUTE_FORCE = "brute-force"


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


def _half(model, feats, tape, right):
    """A half's n bond sites: its own rows of ``cores`` sliced on the tape, so
    their adjoint adds straight into the ``cores`` gradient, and its [B, n, d] features."""
    m, n = model.label_site, model.n_sites
    start, stop = (m - 1, n - 3) if right else (0, m - 1)
    sites = slice(m + 1, n - 1) if right else slice(1, m)
    return tape.slice_rows(model.cores, start, stop), feats[:, sites]


def _absorb_half(tape, cores, feats):
    """Taped absorb of a half's n sites (``_half``), one site per matrix: [n, B, chi, chi]."""
    out = tape.workspace.empty((len(cores), len(feats)) + cores.shape[2:])
    return tape.contract(STACKED_ABSORB, cores, feats, kind="absorb", out=out)


def _pair(tape, subscripts, x):
    """``subscripts`` over rows (2k, 2k+1) of ``x``, an odd last row left out: the bonds
    ``A_2k^s A_2k+1^t`` of cores, or the feature outer products that mix them per image."""
    even, odd = slice(0, len(x) // 2 * 2, 2), slice(1, len(x) // 2 * 2, 2)
    return tape.contract(subscripts, x[even], x[odd], kind="absorb")


def _pair_weights(tape, feats):
    """Image-last features [n, d, B] of [B, n, d] ``feats``, and the outer products of
    sites (2k, 2k+1), [n//2, d, d, B]: each product runs along the batch."""
    feats = np.ascontiguousarray(feats.transpose(1, 2, 0))
    return feats, _pair(tape, "ksb,ktb->kstb", feats)


def _sweep_pairs(tape, cores, feats, vec, right):
    """Untaped sweep of a boundary vector [B, chi] through a half's n sites: [chi, B].

    The vector is held image-last, [chi, B]. Each of its ceil(n/2) steps is
    one ``[d^2 chi, chi] @ [chi, B]`` product with all d^2 matrices of a
    two-site bond, then one broadcast multiply by the pair's image-last
    weights [d^2, 1, B] and a sum over the d^2 matrices, both along the
    batch. The weighting is not an einsum: compiled, it would be one
    matrix-vector product per image. An odd last site is stepped alone the
    same way, on d matrices; on the right it is the outermost, so it goes
    first.
    """
    feats, weights = _pair_weights(tape, feats)
    # Each half's bonds are laid out with the index its step sums over last,
    # [d^2, x, z] on the right and [d^2, z, x] on the left, so no pair step copies its bond.
    layout = "xz" if right else "zx"
    bonds = _pair(tape, f"ksxy,ktyz->kst{layout}", cores)
    d2 = cores.shape[1] ** 2
    steps = list(zip(bonds.reshape((len(bonds), d2) + cores.shape[2:]),
                     weights.reshape(len(weights), d2, 1, feats.shape[2])))
    if len(cores) % 2:
        last = cores[-1] if right else cores[-1].swapaxes(1, 2)
        steps.append((last, feats[-1, :, None]))
    # The vector is named first: the plan pops operands in reverse, so its
    # one matmul produces [d^2, chi, B] directly, not a transposed view.
    form = f"zb,j{layout}->jxb" if right else f"xb,j{layout}->jzb"
    vec = vec.T
    for bond, w in reversed(steps) if right else steps:
        step = tape.contract(form, vec, bond)  # a new array, weighted in place
        vec = np.add.reduce(np.multiply(step, w, out=step))
    return vec


def _reduce_half(tape, stack):
    """Pairwise rounds until one [B, chi, chi] matrix remains; None if empty."""
    if stack.shape[0] == 0:
        return None
    while stack.shape[0] > 1:
        stack = tape.pair_round(stack)
    return tape.gather(stack, 0)


def _combine(tape, lv, left_mat, lab, right_mat, rv):
    if left_mat is not None:
        lv = tape.contract("bx,bxy->by", lv, left_mat, kind="combine")
    if right_mat is not None:
        rv = tape.contract("bxy,by->bx", right_mat, rv, kind="combine")
    # y, the label block's last index, is contracted first, so the plan
    # multiplies the block as it lies instead of copying it transposed.
    return tape.contract("by,blxy,bx->bl", rv, lab, lv, kind="combine")


def _forward_pairwise_batch(model, feats, tape):
    """Taped pairwise logits [B, L]: each half (``_half``) absorbed, then reduced in rounds."""
    lv, lab, rv = _absorb_ends(model, feats, tape)
    left_mat, right_mat = (
        _reduce_half(tape, _absorb_half(tape, *_half(model, feats, tape, right)))
        for right in (False, True)
    )
    return _combine(tape, lv, left_mat, lab, right_mat, rv)


def _forward_sequential_batch(model, feats, tape):
    m, n = model.label_site, model.n_sites
    lv, lab, rv = _absorb_ends(model, feats, tape)
    # Every bond site at once, in the order of ``cores``' rows; each half's
    # sweep reads its rows of the stack in place, outward in.
    bond_feats = np.concatenate((feats[:, 1:m], feats[:, m + 1 : n - 1]), axis=1)
    out = tape.workspace.empty((n - 3, len(feats)) + model.cores.shape[2:])
    stack = tape.contract(STACKED_ABSORB, model.cores, bond_feats, kind="absorb", out=out)
    lv = tape.sweep(lv, stack, range(m - 1))
    rv = tape.sweep(rv, stack, range(n - 4, m - 2, -1))
    return _combine(tape, lv, None, lab, None, rv)


def _sweep_untaped(model, feats, tape):
    """Untaped sequential logits [B, L]: both halves swept image-last (``_sweep_pairs``),
    then the label core met with the right vector first.

    The label core [d, L, chi, chi] takes the right vector in one
    ``[d L chi, chi] @ [chi, B]`` product, then is weighted by the label
    site's features and the left vector along the batch, so no
    [B, L, chi, chi] block is built."""
    m, n = model.label_site, model.n_sites
    lv = tape.contract("dx,bd->bx", model.left_boundary, feats[:, 0], kind="absorb")
    rv = tape.contract("dx,bd->bx", model.right_boundary, feats[:, n - 1], kind="absorb")
    lv, rv = (_sweep_pairs(tape, *_half(model, feats, tape, right), v, right)
              for right, v in ((False, lv), (True, rv)))
    block = tape.contract("dlxy,yb->dlxb", model.label_core, rv, kind="combine")
    block *= feats[:, m].T[:, None, None]
    block = np.add.reduce(block)
    block *= lv
    return np.ascontiguousarray(np.add.reduce(block, axis=1).T)


def forward_batch(
    model: MpsClassifier,
    feats: np.ndarray,
    strategy: Strategy = Strategy.PAIRWISE,
    tape: Tape | None = None,
) -> np.ndarray:
    """Logits [B, L] for a batch of encoded images [B, N, d], as a new array.

    The one place that picks a schedule's form. Given a ``tape``, whatever
    it watches, the schedule's taped form runs the whole batch at once, one
    site per matrix, each half (pairwise) or every bond site (sequential)
    absorbed in one node; the tape is never lent the workspace.

    Without one, both schedules run the untaped sequential sweep
    (``_sweep_untaped``), one ``[d^2 chi, chi] @ [chi, B]`` product per site
    pair, so their untaped logits are the same bytes. A call that records
    no graph gains nothing from the pairwise rounds, and on one thread of
    a shared 2-core host the sweep evaluated 50 or 256 images 1.3-5.6x
    faster than untaped pairwise did with four sites per matrix, at
    (N, chi) = (196, 10), (784, 10) and (196, 32). What this gives up is a
    single image at chi=10, which that pairwise path evaluated 1.2x faster
    at N=196 (1.01 against 1.20 ms) and 2.3x faster at N=784 (2.08 against
    4.80 ms). Taped and untaped logits agree to rounding only.
    """
    feats = check_batch_features(model, feats)
    if strategy is Strategy.PAIRWISE:
        forward = _forward_pairwise_batch
    elif strategy is Strategy.SEQUENTIAL:
        forward = _forward_sequential_batch
    elif strategy is Strategy.BRUTE_FORCE:
        logits = [brute_force_logits(model, image) for image in feats]
        return np.array(logits, dtype=DTYPE).reshape(len(feats), model.n_labels)
    else:
        raise ConfigError(f"unknown strategy {strategy!r}")
    if tape is None:
        return _sweep_untaped(model, feats, Tape())
    return forward(model, feats, tape)


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
