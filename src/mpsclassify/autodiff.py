"""Reverse-mode gradients over a recorded contraction graph.

The tape records a small set of primitives (fixed products, rounds of
stacked matrix products, structural slicing and the losses) as they
execute. ``backward(tape, wrt)`` walks the records in reverse, applies the
matching adjoint rule for each, accumulating across batch entries by
summation, and returns the adjoints of the watched arrays in ``wrt`` only.
Arrays are treated as immutable while a tape referencing them is alive.
The per-node FLOP counters (``forward_flops``, ``backward_flops``) are the
package's only FLOP accounting.

An adjoint lives from its first contribution until the node that produced
its array runs; only the adjoints of ``wrt`` and the row accumulators of
watched leaves last to the end (see ``backward``). At the desk recipe
(N=196, chi=10, batch 50) a whole sequential step on a lent tape traces
about 1.4 MiB, since its sweeps' prefix and environment buffers, the
factors of all 193 bond sites, are views of the workspace. On a tape with
its own workspace the environment buffers are new arrays, held until the
absorb, and ``backward`` alone traces about 1.9 MiB.

Every taped product, forward or adjoint, is an entry of one fixed table,
``_FORMS``, keyed by the six subscripts ``contraction`` records: three
absorbs, the label combine and a pairwise half's two vector-matrix
combines. Each forward runs the matmuls NumPy's optimized einsum runs for
it, on operands arranged the same way, so the bits agree; subscripts are
read only to check operand extents and count FLOPs, and no path is
searched. The label combine's vector adjoints keep one summation order
each, the one NumPy picks at the desk recipe (L = chi), so at other label
counts they agree with einsum to rounding, as does the combine at chi = 1,
where NumPy takes another order.
``Tape.sweep(vec, stack, rows)`` steps a [B, chi] vector through one chain
half, rows of a [S, B, chi, chi] stack: one direct ``np.matmul`` per row
on views arranged once per call, the vectors of one prefix buffer as
[..., 1, chi] rows (``_SweepNode.run``). It records one ``contract`` node
(``_SweepNode``), ``"sbx,sbxy->sby"`` or ``"sby,sbxy->sbx"``: the row
product with a run index prepended, so the FLOP counters read it as one
``contract`` per row. Its rule reverses the run in one loop of the same
calls into one environment buffer. Dense adjoints of ``gather`` and
``slice_rows`` add into the rows they came from, in one buffer per source
array.

Where a product's adjoint is a bare outer product over an operand's last
two indices, as where a chain half's matrix meets its boundary vector, it
is kept as factors ``(u, v)`` of ``[..., chi]`` arrays that stand for
``u ⊗ v`` (the environment form of arXiv:1605.05775). A ``gather`` fed them
files them as its row's factors of the source, a sweep node files all of
its rows at once, its prefix and environment buffers being their factors,
and a ``slice_rows`` files them as rows of its source (``_Rows``, one run
of consecutive rows per filing). A ``pair_round`` stacks those and turns
them into its input's factors with two batched matrix-vector products per
pair, so a round's adjoint costs chi^2, not chi^3, per product. The
stacked absorb (``STACKED_ABSORB``) turns factors or row factors into the
weights' gradient, one batched matmul per feature component and run
(``_absorb_weights``), with no copy of the factors; any other use, or a
row filed twice, expands them first (see ``_input_adjoints``).

Both taped schedules take their large per-call arrays from a tape's
``Workspace``: views of one flat float64 buffer while they fit, new arrays
beyond it. The module's workspace is kept across calls and grows to the
largest borrow, so a repeated step touches no fresh pages; no caller
states a size. ``lend_workspace`` lends it to one tape at a time and takes
it back when its block exits. Its one borrower is the package's taped
training step, ``training._taped_step``, whose results never alias it; a
process that never trained keeps no buffer. The untaped sweep that
evaluates both schedules takes no workspace, and a tape the user builds
keeps its own empty one, so all its arrays are new.
On a lent tape the absorbed label block, the stack of every bond site and
every ``pair_round`` output may be views of the workspace: 15.3 MiB at the
desk recipe (9.2 MiB for a sequential step: its label block, the stack,
and each sweep's prefix and environment buffers). Nothing returned, the
gradients included, is one: the next borrower overwrites them. Adjoints
other than a sweep's environment buffer are new arrays: a round's factors
are [T, B, chi], small enough to be freed round by round but for each
half's first, which the absorb's adjoint reads.
"""

import math
import mmap
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .errors import (ConfigError, ConsistencyError, DimensionError, MpsError, NumericError,
                     check_integer)
from .losses import LossKind, compute_loss
from .model import MpsClassifier
from .tensor import DTYPE

_CONTRACT_KINDS = ("contract", "absorb", "combine")
_ROW_KINDS = ("gather", "slice_rows")
_LOSS_KINDS = ("cross_entropy", "mean_square")

# ``grad_check`` compares entries below this magnitude absolutely.
GRAD_CHECK_ATOL = 1e-3


def _pair_round_value(stack: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Products of rows (0,1), (2,3), ... of ``stack``; an odd last row is carried.

    The products and the carried row are written into one C-order output,
    ``out`` when given.
    """
    pairs = stack.shape[0] // 2
    if out is None:
        out = np.empty(_round_shape(stack), dtype=DTYPE)
    np.matmul(stack[0 : 2 * pairs : 2], stack[1 : 2 * pairs : 2], out=out[:pairs])
    out[pairs:] = stack[2 * pairs :]
    return out


def _round_shape(stack: np.ndarray) -> tuple:
    """Shape of a ``pair_round`` output: ceil(T/2) rows of ``stack``'s [T, ...]."""
    return (stack.shape[0] - stack.shape[0] // 2,) + stack.shape[1:]


class Workspace:
    """One flat float64 buffer, handed out as bump-allocated views in call order.

    ``empty`` always advances the bump: it returns a view of the buffer while
    the request fits, and a new array beyond that. ``restart`` frees every
    view taken before; when the borrow since the last restart took more than
    the buffer holds, it first replaces the buffer by one of exactly that
    size. So the buffer stays at the largest borrow so far, and a call
    repeated on the same shapes is served from it alone.
    """

    def __init__(self):
        self._flat = np.empty(0, dtype=DTYPE)
        self._used = 0

    def restart(self) -> None:
        if self._used > self._flat.size:
            self._flat = None  # release the old buffer before the larger one is made
            self._flat = np.empty(self._used, dtype=DTYPE)
        self._used = 0

    def empty(self, shape: tuple) -> np.ndarray:
        start = self._used
        self._used = start + math.prod(shape)
        if self._used > self._flat.size:
            return self._beyond(shape)
        return self._flat[start : self._used].reshape(shape)

    def _beyond(self, shape: tuple) -> np.ndarray:
        return np.empty(shape, dtype=DTYPE)


class _ModuleWorkspace(Workspace):
    """The workspace ``lend_workspace`` lends, which overflows only while it grows.

    Those arrays are mapped on their own, so they go back to the system
    once freed. From the heap, a first desk step's 15 MiB of them could
    stay resident behind a small live block while the next step faulted in
    the grown buffer, some 12 MB over the usual peak. A tape's own
    workspace overflows on every call, and takes its arrays from the heap.
    """

    def _beyond(self, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        mapping = mmap.mmap(-1, max(size, 1) * np.dtype(DTYPE).itemsize)
        return np.frombuffer(mapping, DTYPE, size).reshape(shape)


_WORKSPACE = _ModuleWorkspace()
_LENDING = threading.Lock()


class Node:
    """One recorded primitive application."""

    __slots__ = ("kind", "inputs", "needs", "output", "extra")

    def __init__(self, kind, inputs, needs, output, extra=None):
        self.kind = kind
        self.inputs = inputs
        self.needs = needs
        self.output = output
        self.extra = extra

    @property
    def result(self) -> np.ndarray:
        """The array the primitive returned, which later nodes read."""
        return self.output

    def recompute(self) -> np.ndarray:
        if self.kind in _CONTRACT_KINDS:
            return _FORMS[self.extra].forward(*self.inputs)
        if self.kind == "pair_round":
            return _pair_round_value(self.inputs[0])
        if self.kind in _ROW_KINDS:
            return self.inputs[0][self.extra]
        if self.kind in _LOSS_KINDS:
            loss_kind, labels, _ = self.extra
            return np.asarray(compute_loss(loss_kind, self.inputs[0], labels))
        raise MpsError(f"unknown node kind {self.kind!r}")


class Tape:
    """Records each primitive that reads a watched array; watching nothing, it only computes.

    ``workspace`` allocates the arrays the pairwise schedule asks for. It is
    the tape's own empty ``Workspace``, so every array is new, unless
    ``lend_workspace`` has lent the tape the module's workspace.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self._live: set[int] = set()
        self.workspace = Workspace()

    def watch(self, arr: np.ndarray) -> None:
        """Mark ``arr`` as a differentiation leaf."""
        self._live.add(id(arr))

    def watch_model(self, model: MpsClassifier) -> None:
        for _, arr in model.parameters():
            self.watch(arr)

    def _record(self, kind, inputs, output, extra=None) -> np.ndarray:
        if not self._live:
            return output
        needs = tuple(id(op) in self._live for op in inputs)
        if any(needs):
            self.nodes.append(Node(kind, tuple(inputs), needs, output, extra))
            self._live.add(id(output))
        return output

    # -- primitives -------------------------------------------------------

    def contract(
        self, subscripts: str, *ops, kind: str = "contract", out: np.ndarray | None = None
    ) -> np.ndarray:
        """The recorded product ``subscripts`` of ``ops``, into ``out`` if given.

        ``subscripts`` names one of the forms in ``_FORMS``, the six products
        ``contraction`` records; any other raises ``DimensionError`` naming
        it, and so do operands that do not fit it and an ``out`` that is not
        C-contiguous. ``out`` is written and returned.
        """
        if subscripts not in _FORMS:
            raise DimensionError(f"{subscripts!r} is not a recorded product: {', '.join(_FORMS)}")
        if out is not None and not out.flags.c_contiguous:
            raise DimensionError(f"out of {subscripts!r} must be C-contiguous")
        _extents(subscripts, ops)
        result = _FORMS[subscripts].forward(*ops, out=out)
        return self._record(kind, ops, result if out is None else out, subscripts)

    def pair_round(self, stack: np.ndarray) -> np.ndarray:
        """One reduction round: products of adjacent rows of [T, ..., k, k].

        Rows (0,1), (2,3), ... are multiplied; when T is odd the final row is
        carried through unchanged, so the output has ceil(T/2) rows and the
        overall ordered chain product is preserved. The output is an array
        from ``workspace``.
        """
        if stack.ndim < 3 or stack.shape[-1] != stack.shape[-2]:
            raise DimensionError(
                f"pair_round expects a stack of square matrices, got {stack.shape}"
            )
        if stack.shape[0] < 2:
            raise DimensionError(f"pair_round needs at least two matrices, got {stack.shape}")
        out = self.workspace.empty(_round_shape(stack))
        return self._record("pair_round", (stack,), _pair_round_value(stack, out))

    def gather(self, x: np.ndarray, index: int) -> np.ndarray:
        """Select row ``index`` along the leading axis, differentiably."""
        check_integer("gather index", index, DimensionError)
        if not 0 <= index < x.shape[0]:
            raise DimensionError(f"gather index {index} out of range for {x.shape}")
        return self._record("gather", (x,), x[index], index)

    def sweep(self, vec: np.ndarray, stack: np.ndarray, rows: range) -> np.ndarray:
        """Step ``vec`` [B, chi] through rows ``rows`` of ``stack`` [S, B, chi, chi]
        in turn: the final vector.

        ``rows``, a range of step 1 or -1 within ``stack``, sets the product:
        ascending rows give ``v @ A`` (a left chain half), descending rows
        ``A @ v`` (a right half). Rows and shapes are checked up front.

        The vectors are written into one ``[len(rows) + 1, B, chi]`` prefix
        buffer from ``workspace``, the input vector first, by one direct
        ``np.matmul`` per row on views arranged once per call
        (``_SweepNode.run``). If an operand is watched, the call records one
        node (``_SweepNode``), whose rule reverses the run in one loop.
        """
        if not isinstance(rows, range) or abs(rows.step) != 1:
            raise DimensionError(f"sweep rows must be a range of step 1 or -1, got {rows!r}")
        if not (vec.ndim == 2 and stack.shape[1:] == vec.shape + vec.shape[-1:]):
            raise DimensionError(f"sweep expects a [B, chi] vector and [S, B, chi, chi] "
                                 f"rows, got {vec.shape} and {stack.shape}")
        if not rows:
            return vec
        if not (0 <= min(rows) and max(rows) < len(stack)):
            raise DimensionError(
                f"sweep rows {rows[0]}..{rows[-1]} out of range for {stack.shape}"
            )
        prefix = self.workspace.empty((len(rows) + 1,) + vec.shape)
        prefix[0] = vec
        mats = stack[min(rows) : max(rows) + 1][:: rows.step]
        _SweepNode.run(mats if rows.step > 0 else mats.swapaxes(-1, -2), prefix)
        needs = (id(vec) in self._live, id(stack) in self._live)
        if not any(needs):
            return prefix[-1]
        node = _SweepNode(prefix, mats, needs, vec, stack, rows)
        self.nodes.append(node)
        self._live.add(id(node.result))
        return node.result

    def slice_rows(self, x: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Rows ``start:stop`` along the leading axis, differentiably."""
        check_integer("slice_rows start", start, DimensionError)
        check_integer("slice_rows stop", stop, DimensionError)
        if not 0 <= start <= stop <= x.shape[0]:
            raise DimensionError(
                f"slice_rows [{start}:{stop}] out of range for {x.shape}"
            )
        rows = slice(start, stop)
        return self._record("slice_rows", (x,), x[rows], rows)

    def loss(self, kind: LossKind, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Batch-mean loss of ``kind`` as one scalar node.

        The node's kind is ``cross_entropy`` or ``mean_square``. It keeps
        d(loss)/d(logits), so its adjoint is that array times the seed.
        """
        value, grad = compute_loss(kind, logits, labels, with_grad=True)
        return self._record(
            kind.name.lower(), (logits,), np.asarray(value), (kind, labels, grad)
        )

    def cross_entropy(self, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """``loss`` with ``LossKind.CROSS_ENTROPY`` (perfbench/selftest.py calls it)."""
        return self.loss(LossKind.CROSS_ENTROPY, logits, labels)

    # -- bookkeeping -------------------------------------------------------

    def replay(self) -> None:
        """Re-execute every node and verify outputs bit-exactly."""
        for i, node in enumerate(self.nodes):
            again = node.recompute()
            if not np.array_equal(again, node.output):
                raise ConsistencyError(
                    f"tape replay diverged at node {i} ({node.kind})"
                )

    def forward_flops(self) -> int:
        return sum(_node_forward_flops(n) for n in self.nodes)

    def backward_flops(self) -> int:
        """FLOPs of the dense adjoint rules, an upper bound: a round fed factors
        does about 1/chi of its count, and each sweep row's matrix adjoint,
        2·B·chi², is filed as factors, never computed (1.93 of the 8.23 MFLOP
        counted for a desk-recipe sequential step)."""
        return sum(_node_backward_flops(n) for n in self.nodes)


@contextmanager
def lend_workspace(tape: Tape):
    """Lend ``tape`` the module's workspace for the block, restarted at its front.

    The workspace is handed back when the block exits, however it exits,
    and grows to the largest borrow at the next one (see
    ``Workspace.restart``). While it is out, another borrow (nested, or
    from another thread) leaves its tape on its own workspace, so it gets
    new arrays. The next borrower overwrites every view taken, so nothing
    that outlives the block may be one.
    """
    if not _LENDING.acquire(blocking=False):
        yield tape
        return
    own = tape.workspace
    try:
        _WORKSPACE.restart()
        tape.workspace = _WORKSPACE
        yield tape
    finally:
        tape.workspace = own
        _LENDING.release()


def _extents(subscripts: str, ops) -> dict[str, int]:
    """Each index's extent; ``DimensionError`` unless ``ops`` fit ``subscripts``."""
    terms = subscripts.split("->")[0].split(",")
    extents: dict[str, int] = {}
    if len(terms) != len(ops) or any(len(t) != np.ndim(op) for t, op in zip(terms, ops)):
        raise DimensionError(f"{subscripts!r} does not fit operand shapes "
                             f"{[np.shape(op) for op in ops]}")
    for term, op in zip(terms, ops):
        for ix, n in zip(term, op.shape):
            if extents.setdefault(ix, n) != n:
                raise DimensionError(f"index {ix!r} of {subscripts!r} has extents "
                                     f"{extents[ix]} and {n}")
    return extents


def _node_forward_flops(node: Node) -> int:
    if node.kind in _CONTRACT_KINDS:
        return 2 * math.prod(_extents(node.extra, node.inputs).values())
    if node.kind == "pair_round":  # a k x k product per pair and slice: 2 k^3
        stack = node.inputs[0]
        return 2 * (stack.shape[0] // 2) * math.prod(stack.shape[1:]) * stack.shape[-1]
    if node.kind in _LOSS_KINDS:
        return 3 * node.inputs[0].size
    return 0  # gather, slice_rows


def _node_backward_flops(node: Node) -> int:
    """One dense product per graded operand; a round's dense rule, dA and dB
    per pair, makes two for each forward product."""
    return _node_forward_flops(node) * (2 if node.kind == "pair_round" else sum(node.needs))


class _Rows:
    """Factors of rows of an array of ``count`` rows, filed in runs of
    consecutive rows: ``(rows, U, V)`` stands for ``U[j] ⊗ V[j]`` in row
    ``rows.start + j``, ``rows`` an ascending slice. A row no run covers is zero."""

    def __init__(self, count: int):
        self.count = count
        self.runs: list[tuple] = []
        self.filed: set[int] = set()

    def file(self, rows: range, u: np.ndarray, v: np.ndarray) -> bool:
        """File the factors of ascending ``rows``, unless one of them is filed already."""
        if not self.filed.isdisjoint(rows):
            return False
        self.filed.update(rows)
        self.runs.append((slice(rows.start, rows.stop), u, v))
        return True

    def stacked(self) -> tuple:
        """Factors ``(U, V)`` of every row, one new [count, ..., chi] array each."""
        out = tuple(np.zeros((self.count,) + f.shape[1:], dtype=DTYPE) for f in self.runs[0][1:])
        for rows, *factors in self.runs:
            for buf, f in zip(out, factors):
                buf[rows] = f
        return out


def _runs(g, count: int) -> list:
    """The runs ``(rows, U, V)`` of factors ``g``: its own, or one of all ``count`` rows."""
    return g.runs if isinstance(g, _Rows) else [(slice(0, count),) + g]


def _outer(factors: tuple) -> np.ndarray:
    """The dense array that factors ``(u, v)`` stand for: ``u ⊗ v`` over the last two axes."""
    u, v = factors
    return u[..., :, None] * v[..., None, :]


def _dense(adj) -> np.ndarray:
    if isinstance(adj, _Rows):
        adj = adj.stacked()
    return _outer(adj) if isinstance(adj, tuple) else adj


def _accumulate(acc: dict, key: int, adj) -> None:
    """Add ``adj`` into ``acc[key]``: kept as it is when first, dense once two meet."""
    if key in acc:
        acc[key] = _dense(acc[key])
        acc[key] += _dense(adj)
    else:
        acc[key] = adj


def _file(acc: dict, source: np.ndarray, rows: range, u: np.ndarray, v: np.ndarray) -> None:
    """Add factors ``(u, v)`` of ``rows`` (consecutive, either way) of ``source`` into
    its accumulator: filed as ``_Rows`` while no row is filed twice, added dense after."""
    if rows.step < 0:
        rows, u, v = rows[::-1], u[::-1], v[::-1]
    key = id(source)
    filed = acc.get(key)
    if filed is None:
        filed = acc[key] = _Rows(len(source))
    if isinstance(filed, _Rows) and filed.file(rows, u, v):
        return
    dense = acc[key] = _dense(filed)
    dense[rows.start : rows.stop] += _outer((u, v))


class _Form(NamedTuple):
    """A recorded product: ``forward(*ops, out=None)``, writing into a C-contiguous
    ``out`` if given, and per operand a rule ``adjoints[i](g, *ops)`` of its adjoint."""

    forward: Callable
    adjoints: tuple


def _flat(a: np.ndarray, lead: int) -> np.ndarray:
    """``a`` with every axis after the first ``lead`` merged into one."""
    return a.reshape(a.shape[:lead] + (math.prod(a.shape[lead:]),))


def _over_batch(f, g):
    """``f @ g`` [..., d, B] by [..., B, n]: a weights' adjoint, summed over the batch.
    A batch of one is the outer product as it stands, whose -0.0 a matmul would add to +0.0."""
    return np.matmul(f, g) if f.shape[-1] != 1 else f * g


def _absorb(w, f, out=None):
    """An absorb, weights first: ``[B, d] @ [d, ...]``, the weights' trailing axes
    flattened, or per row s of a stacked one (``f`` [B, S, d], ``w`` [S, d, ...])."""
    lead = f.ndim - 1
    flat = None if out is None else _flat(out, lead)
    rows = np.matmul(np.moveaxis(f, 0, -2), _flat(w, lead), out=flat)
    return rows.reshape(w.shape[: lead - 1] + f.shape[:1] + w.shape[lead:])


def _absorb_weights(g, w, f):
    """The weights' adjoint of ``_absorb``, the one rule fed factors as they are.

    For a stacked absorb fed factors, row s, component d, is
    ``sum_b f[b, s, d] u[s, b] ⊗ v[s, b]``: u weighted by each feature
    component in turn, then one batched matmul with v per component. ``g``
    is then factors ``(u, v)`` of every row, or ``_Rows``, taken run by run
    as the arrays it was filed with. Any other ``g`` is expanded first.
    """
    if isinstance(g, np.ndarray) or f.ndim == 2:
        return _over_batch(np.moveaxis(f, 0, -1), _flat(_dense(g), f.ndim - 1)).reshape(w.shape)
    grad = np.zeros(w.shape, dtype=DTYPE)
    for rows, u, v in _runs(g, len(w)):
        weights = f[:, rows].transpose(1, 2, 0)  # [rows, d, B]
        for d in range(w.shape[1]):
            np.matmul((u * weights[:, d, :, None]).swapaxes(-1, -2), v, out=grad[rows, d])
    return grad


def _absorb_features(g, w, f):
    """The features' adjoint of ``_absorb``: ``g`` times the weights, summed over their
    trailing axes, arranged before the feature axis as einsum arranges them."""
    lead = f.ndim - 1
    shape = w.shape[: lead - 1] + (math.prod(w.shape[lead:]), w.shape[lead - 1])
    arranged = np.moveaxis(w, lead - 1, -1).reshape(shape)
    return np.moveaxis(np.matmul(_flat(_dense(g), lead), arranged), -2, 0)


def _mv(m, v, out=None):
    """``m @ v`` per image, [..., n, k] by [..., k], one matmul with ``v`` a column. (Where
    an operand is Fortran-ordered, ``np.matvec`` differs from NumPy's einsum in rounding.)"""
    return np.matmul(m, v[..., None], out=None if out is None else out[..., None])[..., 0]


def _vm(v, m, out=None):
    """``v @ m`` per image, [..., k] by [..., k, n], one matmul with ``v`` a row."""
    return np.matmul(v[..., None, :], m, out=None if out is None else out[..., None, :])[..., 0, :]


def _y_first(lab, rv):
    """The label block [B, L, x, y] met with ``rv`` [B, y] as it lies: [B, L, x]."""
    b, l, x, y = lab.shape
    return _mv(lab.reshape(b, l * x, y), rv).reshape(b, l, x)


def _combine_right(g, rv, lab, lv):
    """``rv``'s adjoint of the label combine: the labels summed first, then x."""
    b, l, x, y = lab.shape
    by_labels = _mv(lab.transpose(0, 2, 3, 1).reshape(b, x * y, l), g)
    return _mv(by_labels.reshape(b, x, y).mT, lv)


# The absorb of stacked sites, weights first: ``contraction`` absorbs every bond site
# with it, on both schedules.
STACKED_ABSORB = "sdxy,bsd->sbxy"

# Every product a tape records, keyed by the subscripts its nodes keep in ``extra``:
# the matmuls NumPy 2.4's ``einsum(..., optimize=True)`` runs, on operands arranged the
# same way (the label combine's adjoints: as it runs them at L = chi). A rule that
# returns a pair returns factors ``(u, v)`` (``_outer``). Factors stand for arrays of
# [..., chi, chi] matrices, which only the absorbs output, so only their rules expand
# them (``_dense``), and the stacked absorb's weights' adjoint reads them as they are.
_ABSORB = _Form(_absorb, (_absorb_weights, _absorb_features))
_FORMS = {
    "dx,bd->bx": _ABSORB,
    "dlxy,bd->blxy": _ABSORB,
    STACKED_ABSORB: _ABSORB,
    "by,blxy,bx->bl": _Form(lambda rv, lab, lv, out=None: _mv(_y_first(lab, rv), lv, out=out), (
        _combine_right,
        lambda g, rv, lab, lv: lv[:, None, :, None] * g[:, :, None, None] * rv[:, None, None, :],
        lambda g, rv, lab, lv: _mv(_y_first(lab, rv).mT, g),  # y summed first, as forward
    )),
    "bx,bxy->by": _Form(
        lambda v, m, out=None: _mv(m.mT, v, out=out),
        (lambda g, v, m: _mv(m, g), lambda g, v, m: (v, g)),
    ),
    "bxy,by->bx": _Form(
        lambda m, v, out=None: _vm(v, m.mT, out=out),
        (lambda g, m, v: (g, v), lambda g, m, v: _vm(g, m)),
    ),
}


def _input_adjoints(node: Node, g):
    """Yield (input index, adjoint) for graded inputs; each adjoint is new or factored.

    ``g`` is a dense array, factors ``(u, v)`` (``_outer``) or row factors
    (``_Rows``); an adjoint is a dense array or factors. A recorded product
    takes each adjoint from its rule in ``_FORMS``: factors where it is a
    bare outer product, the weights' adjoint of the stacked absorb
    (``STACKED_ABSORB``) made from factors or row factors as they are
    (``_absorb_weights``), and one direct product otherwise. A
    ``pair_round`` stacks row factors and turns factors into factors with
    two batched matrix-vector products per pair. Every other use expands
    g first and gets the plain dense rule. ``gather`` and ``slice_rows``
    have no rule here: ``backward`` adds their adjoint into the source's
    rows in place.
    """
    kind = node.kind
    if kind in _CONTRACT_KINDS:
        for i, rule in enumerate(_FORMS[node.extra].adjoints):
            if node.needs[i]:
                yield i, rule(g, *node.inputs)
        return
    if kind == "pair_round":
        if isinstance(g, _Rows):
            g = g.stacked()
        stack = node.inputs[0]
        pairs = stack.shape[0] // 2
        a, b = stack[0 : 2 * pairs : 2], stack[1 : 2 * pairs : 2]
        evens, odds = slice(0, 2 * pairs, 2), slice(1, 2 * pairs, 2)
        if not isinstance(g, tuple):
            dx = np.empty_like(stack)
            np.matmul(g[:pairs], np.swapaxes(b, -1, -2), out=dx[evens])
            np.matmul(np.swapaxes(a, -1, -2), g[:pairs], out=dx[odds])
            dx[2 * pairs :] = g[pairs:]
            yield 0, dx
            return
        # d(ab) = u ⊗ v gives da = u ⊗ (b v) and db = (a^T u) ⊗ v.
        u, v = g
        du, dv = (np.empty(stack.shape[:-1], dtype=DTYPE) for _ in range(2))
        du[evens], dv[odds] = u[:pairs], v[:pairs]
        np.matmul(b, v[:pairs, ..., None], out=dv[evens, ..., None])
        np.matmul(u[:pairs, ..., None, :], a, out=du[odds, ..., None, :])
        du[2 * pairs :], dv[2 * pairs :] = u[pairs:], v[pairs:]
        yield 0, (du, dv)
        return
    if kind in _LOSS_KINDS:
        yield 0, float(g) * node.extra[2]
        return
    raise MpsError(f"unknown node kind {kind!r}")


class _SweepNode(Node):
    """One ``Tape.sweep`` call, recorded as a ``contract`` of its row product over the run.

    Its subscripts are the row product's with a run index prepended,
    ``"sbx,sbxy->sby"`` for ascending rows (``v @ A``) and
    ``"sby,sbxy->sbx"`` for descending ones (``A @ v``); its inputs are the
    vectors the rows read, ``prefix[:-1]``, and the rows in run order, and
    its output is the vectors they give, ``prefix[1:]``. So the FLOP
    counters read it as they would read one ``contract`` per row.
    ``result`` is the final vector that later nodes read, ``vec`` the input
    vector the call was given, and ``rows`` the range of ``stack`` it read.
    Forward, in ``recompute`` and in reverse, the rows are stepped by
    ``run``, one direct ``np.matmul`` per row on views arranged once per
    call, the rows transposed where ``rows`` descends.
    """

    __slots__ = ("result", "vec", "stack", "rows")

    def __init__(self, prefix, mats, needs, vec, stack, rows):
        """``needs`` says whether ``vec`` and ``stack``, in that order, are watched."""
        extra = "sbx,sbxy->sby" if rows.step > 0 else "sby,sbxy->sbx"
        super().__init__("contract", (prefix[:-1], mats), needs, prefix[1:], extra)
        self.result, self.vec, self.stack, self.rows = prefix[-1], vec, stack, rows

    @staticmethod
    def run(mats: np.ndarray, vecs: np.ndarray) -> None:
        """Step ``vecs[0]`` through ``mats`` in turn, one ``np.matmul`` per row
        into ``vecs``: ``vecs[j + 1] = vecs[j] @ mats[j]``, the vectors viewed
        once as [..., 1, chi] rows and ``mats`` arranged by the caller, as
        they are or as a ``swapaxes(-1, -2)`` view."""
        vecs = vecs[..., None, :]
        for vec, mat, into in zip(vecs, mats, vecs[1:]):
            np.matmul(vec, mat, out=into)

    def recompute(self) -> np.ndarray:
        """The run again, from its input vector, into a new array."""
        vecs, mats = self.inputs
        out = np.empty((len(mats) + 1,) + vecs.shape[1:], dtype=DTYPE)
        out[0] = vecs[0]
        self.run(mats if self.rows.step > 0 else mats.swapaxes(-1, -2), out)
        return out[1:]

    def reverse(self, g, acc: dict, workspace: Workspace) -> None:
        """Give the call's inputs their adjoints from ``g``, its final vector's.

        Row j's vector adjoint is written into row j - 1 of one environment
        buffer from ``workspace`` by ``run`` over the rows in reverse, each
        arranged the other way from the forward run; the input vector's
        adjoint is a new array. ``stack`` gets the rows' matrix factors as
        the whole prefix and environment arrays (``_file``).
        """
        vecs, mats = self.inputs
        ascending = self.rows.step > 0
        back = mats.swapaxes(-1, -2) if ascending else mats
        env = workspace.empty(vecs.shape)
        env[-1] = _dense(g)
        self.run(back[:0:-1], env[::-1])
        if self.needs[0]:
            _accumulate(acc, id(self.vec), _vm(env[0], back[0]))
        if self.needs[1]:
            _file(acc, self.stack, self.rows, *((vecs, env) if ascending else (env, vecs)))


def backward(tape: Tape, wrt, loss_adjoint: float = 1.0) -> list[np.ndarray]:
    """The adjoints of the watched arrays ``wrt``, in order, from one reverse sweep.

    The seed fills the last recorded result (broadcast for non-scalar
    results), so a tape ending in a loss node receives the scalar loss
    adjoint directly. An array of ``wrt`` that the output does not reach
    gets zeros; one the tape does not watch raises ``ConsistencyError``. A
    dense ``gather`` or ``slice_rows`` adjoint is added into the rows of its
    source's accumulator, which starts as ``np.zeros_like(source)`` when the
    source has none yet.

    An adjoint lives from its first contribution until the node that
    produced its array runs: every consumer was recorded later, so it has
    added its share by then, and the adjoint is dropped once that node has
    passed it on. So the sweep holds the adjoints of the arrays between the
    nodes done and the nodes to come, not one per recorded output. The
    adjoints of ``wrt`` are kept to the end, and so is the row accumulator
    of each watched leaf, such as ``cores``, since no node produces it.

    A ``Tape.sweep`` node (``_SweepNode``) takes its adjoint from its final
    vector, the only one of its vectors that later nodes read, and reverses
    its run in one loop. An adjoint may be factors ``(u, v)``
    (``_input_adjoints``). A sweep node, or a ``gather`` or ``slice_rows``
    fed factors, files them as its rows' factors of the source (``_Rows``),
    the rows none reached being zero, so neither schedule builds a dense
    [N-3, B, chi, chi] adjoint or a ``cores``-shaped accumulator; the
    source's producer decides how to take them (``_input_adjoints``).
    Factors are expanded when a second contribution meets them (a row
    filed twice included) and before they are returned.
    """
    for arr in wrt:
        if id(arr) not in tape._live:
            raise ConsistencyError(f"array of shape {arr.shape} was not watched by this tape")
    kept = {id(arr) for arr in wrt}
    acc: dict[int, np.ndarray | tuple] = {}
    if tape.nodes:
        final = tape.nodes[-1].result
        acc[id(final)] = np.full(final.shape, loss_adjoint, dtype=DTYPE)
    for node in reversed(tape.nodes):
        out_id = id(node.result)
        g = acc.get(out_id) if out_id in kept else acc.pop(out_id, None)
        if g is None:
            continue
        if isinstance(node, _SweepNode):
            node.reverse(g, acc, tape.workspace)
        elif node.kind in _ROW_KINDS:
            source = node.inputs[0]
            if isinstance(g, tuple) and node.kind == "gather":
                row = range(node.extra, node.extra + 1)
                _file(acc, source, row, g[0][None], g[1][None])
                continue
            if node.kind == "slice_rows" and not isinstance(g, np.ndarray):
                start = node.extra.start
                for rows, u, v in _runs(g, node.extra.stop - start):
                    _file(acc, source, range(start + rows.start, start + rows.stop), u, v)
                continue
            key = id(source)
            acc[key] = _dense(acc[key]) if key in acc else np.zeros_like(source)
            acc[key][node.extra] += _dense(g)
        else:
            for k, adj in _input_adjoints(node, g):
                _accumulate(acc, id(node.inputs[k]), adj)
    return [_dense(acc[id(arr)]) if id(arr) in acc else np.zeros_like(arr) for arr in wrt]


@dataclass
class Gradients:
    """Loss gradients shaped exactly like the model's weight arrays."""

    left_boundary: np.ndarray
    cores: np.ndarray
    label_core: np.ndarray
    right_boundary: np.ndarray

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def check_finite(self) -> "Gradients":
        for name, arr in self.arrays():
            if not np.isfinite(arr).all():
                raise NumericError(f"non-finite gradient in {name}")
        return self


@dataclass
class GradCheckEntry:
    name: str
    n_params: int
    max_rel_err: float
    worst_index: tuple
    analytic: float
    numeric: float


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    max_rel_err: float
    tolerance: float
    step: float
    passed: bool

    def format_table(self) -> str:
        lines = [
            f"{'core':<16}{'params':>8}{'max rel err':>14}  worst (analytic vs numeric)"
        ]
        for e in self.entries:
            lines.append(
                f"{e.name:<16}{e.n_params:>8}{e.max_rel_err:>14.3e}  "
                f"{e.analytic: .6e} vs {e.numeric: .6e} @ {e.worst_index}"
            )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"{verdict}: max relative error {self.max_rel_err:.3e} "
            f"(tolerance {self.tolerance:.1e}, h={self.step:.1e})"
        )
        return "\n".join(lines)


def grad_check(
    model: MpsClassifier,
    images: np.ndarray,
    labels: np.ndarray,
    h: float = 1e-5,
    tolerance: float = 1e-6,
    loss_kind: LossKind = LossKind.CROSS_ENTROPY,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``images`` is a [B, N] batch of normalized pixels. For every scalar
    parameter theta the analytic entry is compared with
    (loss(theta + h) - loss(theta - h)) / 2h. The relative error uses
    denominator max(|analytic|, |numeric|, GRAD_CHECK_ATOL): entries below it
    are compared absolutely against it, which keeps finite-difference
    roundoff (of order 1e-10 for unit-scale losses) from dominating
    near-zero gradient entries. Cost is two forward passes per parameter.
    ``h`` and ``tolerance`` must be positive and finite (``ConfigError``).
    """
    for name, value in (("h", h), ("tolerance", tolerance)):
        if not 0 < value < math.inf:
            raise ConfigError(f"{name} must be positive and finite, got {value}")
    from .encoding import encode_batch
    from .training import batch_loss, loss_and_gradients

    feats = encode_batch(model.feature_map, images)
    labels = np.asarray(labels)

    _, grads = loss_and_gradients(model, feats, labels, loss_kind=loss_kind)

    entries = []
    overall = 0.0
    for name, arr in model.parameters():
        analytic = dict(grads.arrays())[name]
        worst = (0.0, (0,) * arr.ndim, 0.0, 0.0)
        flat = arr.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = batch_loss(model, feats, labels, loss_kind=loss_kind)
            flat[k] = orig - h
            down = batch_loss(model, feats, labels, loss_kind=loss_kind)
            flat[k] = orig
            numeric = (up - down) / (2.0 * h)
            a = analytic.reshape(-1)[k]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), GRAD_CHECK_ATOL)
            if rel >= worst[0]:
                index = tuple(int(i) for i in np.unravel_index(k, arr.shape))
                worst = (rel, index, float(a), numeric)
        entries.append(GradCheckEntry(name, arr.size, *worst))
        overall = max(overall, worst[0])
    return GradCheckReport(
        entries=entries,
        max_rel_err=overall,
        tolerance=tolerance,
        step=h,
        passed=bool(overall <= tolerance),
    )
