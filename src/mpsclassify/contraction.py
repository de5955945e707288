"""Per-label score evaluation by tensor-network contraction.

Two production schedules plus a brute-force oracle:

* ``sequential``: sweep a vector from each end of the chain toward the
  label site, combining there so the label count L enters only the final
  step. Taped, it absorbs every bond site in one node, straight
  from ``cores`` (``STACKED_ABSORB``), then multiplies the vector by
  each site's matrix of that stack in one ``Tape.sweep`` per half, one
  node each, the vectors written into one prefix buffer. Its backward
  reverses each half's sweep in one loop into one environment buffer,
  then builds the ``cores`` gradient from the whole prefix and
  environment arrays, one batched matmul per feature component and half,
  with no dense [N-3, B, chi, chi] adjoint (``autodiff.backward``).
  Untaped, the vector is held image-last, [chi, B], and takes one step
  per two-site bond (``_sweep_pairs``): one matrix product with all d^2 of the bond's
  matrices for the whole batch, then a weighting along the batch. Only
  the batch-independent bonds cost chi^3. The label core then takes the
  right vector first (``_sweep_untaped``), so no [B, L, chi, chi] label
  block is built.
* ``pairwise``: absorb every pixel of each half at once, from the half's
  own rows of ``cores``, then repeatedly multiply adjacent effective
  matrices in rounds. All products of a round are independent, so a round
  is one stacked matrix product, at the price of matrix-matrix (chi^3)
  products. An odd matrix at the end of a round is carried to the next
  round unpaired. Untaped, a half absorbs its sites four at a time: the
  batch-independent products ``A_k^s A_{k+1}^t A_{k+2}^u A_{k+3}^v`` are
  formed once per call and mixed per image by its feature outer products,
  so the rounds start from a quarter as many matrices. Taped, a half
  absorbs one site per matrix.
* ``brute force``: the literal sum over every pixel-index assignment,
  guarded to small chains. Exists to anchor the fast schedules.

The chain is split at the label core; each half reduces independently and
the halves meet at the label block, so L never multiplies the inner work.
``forward_batch`` runs a schedule's taped form iff it is given a tape,
and its untaped form otherwise. FLOPs are counted from the nodes a tape
keeps (``Tape.forward_flops``), so they follow the taped forms.

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

Workspace: a pairwise call takes its absorbed label block and halves (one
matrix per site taped, per four sites untaped) and its round outputs from
its tape's workspace (``autodiff.Workspace``), and a taped sequential call
its label block, its stack of every bond site and each half's prefix and
environment buffers; a taped step's round adjoints are [T, B, chi] factor
pairs, new arrays freed round by round.
The taped training step (``training._taped_step``) and each block of the
untaped ``forward_batch`` are lent the module's workspace, but only a tape
that recorded a node grows it (``autodiff.lend_workspace``). A block's
tape watches nothing, so an evaluation takes its arrays from the buffer
that training steps left, and new arrays beyond it, and a process that
never trained keeps no buffer at all. A tape passed in by the caller is
never lent the workspace. The untaped
``forward_batch`` runs a pairwise batch in even blocks of images whose
stacks and round outputs take at most ``BLOCK_BYTES`` (8 MiB), each on its
own tape, so what a block holds does not grow with the batch, and each
block's stack is read back while it is still near the caches. A
taped step records its whole batch at once. No logits returned are a view
of the workspace.
"""

import enum
import itertools

import numpy as np

from .autodiff import STACKED_ABSORB, Tape, lend_workspace
from .errors import ConfigError, DimensionError, NumericError
from .model import MpsClassifier
from .tensor import DTYPE

BRUTE_FORCE_MAX_SITES = 12

# An untaped pairwise block's stacks and round outputs take at most this many
# bytes, so they stay near the CPU caches and what an evaluation allocates is
# bounded by one block, not by the batch.
BLOCK_BYTES = 8 * 2**20


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


def _quad_bond(tape, cores):
    """Bonds of bonds, [n//4, d^2, d^2, chi, chi], C-contiguous for the mix to read in place."""
    bond = _pair(tape, "ksxy,ktyz->kstxz", cores[: len(cores) // 4 * 4])
    bond = bond.reshape((len(bond), cores.shape[1] ** 2) + cores.shape[2:])
    return np.ascontiguousarray(_pair(tape, "ksxy,ktyz->kstxz", bond))


def _quad_rows(n):
    """How many matrices ``_absorb_quads`` stacks for n sites: n//4 + (n%4+1)//2."""
    return n - n // 2 - n // 4


def _absorb_quads(tape, cores, feats, quad):
    """Untaped absorb of a half's n sites four at a time: [``_quad_rows(n)``, B, chi, chi].

    Row k, sites 4k to 4k+3, is its bond of bonds (``quad``, from ``_quad_bond``)
    mixed by each image's weights of weights in one ``[n//4, B, d^4] @ [n//4,
    d^4, chi^2]`` product. The last 1-3 sites follow as a two-site matrix
    and/or a single site."""
    n, pairs, quads = len(cores), len(cores) // 2, len(cores) // 4
    stack = tape.workspace.empty((_quad_rows(n), len(feats)) + cores.shape[2:])
    if pairs:
        weights = _pair_weights(tape, feats)[1]
        # The bonds are named first: the plan pops operands in reverse, so
        # each mix's one matmul produces the stack's order directly.
        if quads:
            mix = _pair(tape, "ksb,ktb->kstb", weights.reshape(pairs, -1, len(feats)))
            tape.contract("kstxz,kstb->kbxz", quad, mix, kind="absorb", out=stack[:quads])
        if pairs % 2:
            bond = _pair(tape, "ksxy,ktyz->kstxz", cores[2 * pairs - 2 : 2 * pairs])
            tape.contract("kstxz,kstb->kbxz", bond, weights[-1:], kind="absorb",
                          out=stack[quads : quads + 1])
    if n % 2:
        tape.contract("dxy,bd->bxy", cores[-1], feats[:, -1], kind="absorb", out=stack[-1])
    return stack


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


def _forward_pairwise_batch(model, feats, tape, absorbs=(_absorb_half, _absorb_half)):
    """Pairwise logits [B, L]; ``absorbs`` stack the left and right half (``_half``)."""
    lv, lab, rv = _absorb_ends(model, feats, tape)
    left_mat, right_mat = (
        _reduce_half(tape, absorb(tape, *_half(model, feats, tape, right)))
        for right, absorb in zip((False, True), absorbs)
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
    lv = tape.sweep("bx,bxy->by", lv, stack, range(m - 1))
    rv = tape.sweep("bxy,by->bx", rv, stack, range(n - 4, m - 2, -1))
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


def _block_images(model):
    """Images per block of an untaped pairwise ``forward_batch``: as many as
    fit ``BLOCK_BYTES`` with both halves' stacks (``_absorb_quads``) and
    every round's output, about twice the stacks."""
    matrices = 0
    for rows in (model.label_site - 1, model.n_sites - 2 - model.label_site):
        rows = _quad_rows(rows)
        while rows > 1:
            matrices, rows = matrices + rows, rows - rows // 2
        matrices += rows
    # N=3 has no bond matrices; its block is then sized as if it had one.
    return max(1, BLOCK_BYTES // (max(1, matrices) * model.bond_dim**2 * DTYPE().itemsize))


def forward_batch(
    model: MpsClassifier,
    feats: np.ndarray,
    strategy: Strategy = Strategy.PAIRWISE,
    tape: Tape | None = None,
) -> np.ndarray:
    """Logits [B, L] for a batch of encoded images [B, N, d], as a new array.

    The one place that picks a schedule's form. Given a ``tape``, whatever
    it watches, the taped form runs the whole batch at once, one site per
    matrix, each half (pairwise) or every bond site (sequential) absorbed
    in one node; the tape is never lent the workspace.

    Without one, the untaped form runs. Pairwise forms each half's
    four-site bonds once, then runs the batch in blocks of
    ``_block_images`` images, four sites per matrix (``_absorb_quads``),
    each on its own tape that watches nothing and is lent the workspace
    without growing it, and writes each block's logits into one new array.
    Sequential sweeps the whole batch at once (``_sweep_untaped``), one
    ``[d^2 chi, chi] @ [chi, B]`` product per site pair. So taped and
    untaped logits agree to rounding only.

    When the budget holds fewer than three images (at N=196, chi >= 60),
    a block can hold one image, and a one-image block rounds differently
    from the whole batch: its logits then match per-image calls bit for bit
    but may differ from a taped forward of the same batch in the last bits.
    """
    feats = check_batch_features(model, feats)
    if strategy is Strategy.PAIRWISE:
        forward = _forward_pairwise_batch
    elif strategy is Strategy.SEQUENTIAL:
        forward = _forward_sequential_batch
    elif strategy is Strategy.BRUTE_FORCE:
        return np.stack([brute_force_logits(model, feats[b]) for b in range(feats.shape[0])])
    else:
        raise ConfigError(f"unknown strategy {strategy!r}")
    if tape is not None:
        return forward(model, feats, tape)
    if strategy is Strategy.SEQUENTIAL:
        return _sweep_untaped(model, feats, Tape())
    # The four-site bonds do not depend on the batch, so every block shares them.
    untaped = Tape()
    quads = [_quad_bond(untaped, _half(model, feats, untaped, right)[0])
             for right in (False, True)]
    absorbs = [lambda tape, cores, feats, quad=quad: _absorb_quads(tape, cores, feats, quad)
               for quad in quads]
    block = _block_images(model)
    count = feats.shape[0]
    blocks = -(-count // block)
    logits = np.empty((count, model.n_labels), dtype=DTYPE)
    # Blocks are even, so none holds one image unless the budget allows
    # fewer than three: a one-image batch rounds differently from a larger
    # one, because its einsum plans drop the batch axis.
    for k in range(blocks):
        rows = slice(count * k // blocks, count * (k + 1) // blocks)
        with lend_workspace(Tape()) as untaped:
            logits[rows] = forward(model, feats[rows], untaped, absorbs)
    return logits


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
