"""Reverse-mode gradients over a recorded contraction graph.

The tape records a small set of primitives (multilinear contractions,
rounds of stacked matrix products, structural slicing and the losses) as
they execute. ``backward(tape, wrt)`` walks the records in reverse,
applies the matching adjoint rule for each, accumulating across batch
entries by summation, and returns the adjoints of the watched arrays in
``wrt`` only. Arrays are treated as immutable while a tape referencing
them is alive. The per-node FLOP counters (``forward_flops``,
``backward_flops``) are the package's only FLOP accounting.

An adjoint lives from its first contribution until the node that produced
its array runs; only the adjoints of ``wrt`` and the row accumulators of
watched leaves last to the end (see ``backward``). At the desk recipe
(N=196, chi=10, batch 50) a whole sequential step on a lent tape traces
about 1.4 MiB, since its sweeps' prefix and environment buffers, the
factors of all 193 bond sites, are views of the workspace. On a tape with
its own workspace the environment buffers are new arrays, held until the
absorb, and ``backward`` alone traces about 1.9 MiB.

Every taped contraction, forward or adjoint, runs a plan of ``einsum``'s.
The untaped sequential sweep (``contraction._sweep_half``) records nothing
and uses no plan: per site, a broadcast multiply weights the vector along
the batch, then one direct ``np.matmul`` serves the whole batch. As an
einsum the weighting would compile to one matrix-vector product per image,
the per-image BLAS calls that sweep exists to avoid. ``einsum`` compiles
each (subscripts, operand shapes) pair once into a plan of transposes,
reshapes and one ``np.matmul`` (or a broadcast multiply) per pairwise step,
so repeated calls do no path search and no subscript parsing.
``Tape.sweep(vec, stack, rows)`` steps a [B, chi] vector through one chain
half, rows of a [S, B, chi, chi] stack, without a plan: ascending rows as
``v @ A``, descending ones as ``A @ v``. On views arranged once per call,
the vectors of one prefix buffer as [..., 1, chi] rows and the rows as they
are or transposed, it makes one direct ``np.matmul`` per row
(``_SweepNode.run``). It records one ``contract`` node (``_SweepNode``),
``"sbx,sbxy->sby"`` or ``"sby,sbxy->sbx"``, the row product with a run
index prepended, so the FLOP counters read it as one ``contract`` per row. Its
rule reverses the run in one loop of the same calls, the rows arranged the
other way, written into one environment buffer. Every other einsum node
takes its adjoints from a plan cached per (subscripts, operand shapes,
graded operands): factors, or a compiled product (``_adjoint_plan``).
Dense adjoints of ``gather`` and ``slice_rows`` add into the rows they
came from, in one buffer per source array, instead of scattering into a
fresh zero copy of the source for every node.

A ``pair_round`` writes into one C-order output through
``np.matmul(..., out=)``, with the carried odd row copied in place. Where an
einsum's adjoint is a bare outer product over an operand's last two
indices, as where a chain half's matrix meets its boundary vector, it is
kept as factors ``(u, v)`` of ``[..., chi]`` arrays that stand for ``u ⊗ v``
(the environment form of arXiv:1605.05775). A ``gather`` fed them files
them as its row's factors of the source, and a sweep node files all of
its rows at once, its prefix and environment buffers being their factors
(``_Rows``, one run of consecutive rows per filing). A round stacks those
and turns them into the factors of its input with two batched
matrix-vector products per pair, so a round's adjoint costs chi^2, not
chi^3, per product. The stacked absorb ``"sdxy,bsd->sbxy"`` turns factors
or row factors into the weights' gradient, one batched matmul per feature
component and run (``_absorb_adjoint``), with no copy of the factors; any
other use, or a row filed twice, expands them first (see
``_input_adjoints`` and ``backward``).

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
On a lent tape the absorbed label block and chain halves and every
``pair_round`` output may be views of the workspace: 15.3 MiB at the desk
recipe (9.2 MiB for a sequential step: its label block, the stack of every
bond site, and each sweep's prefix and environment buffers). Nothing
returned, the gradients included, is one: the next borrower overwrites
them. Adjoints other than a sweep's environment buffer are new arrays: a
round's factors are [T, B, chi], small enough to be freed round by round.
"""

import functools
import math
import mmap
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ConsistencyError, DimensionError, MpsError, NumericError
from .losses import LossKind, compute_loss
from .model import MpsClassifier
from .tensor import DTYPE

_EINSUM_KINDS = ("contract", "absorb", "combine")
_ROW_KINDS = ("gather", "slice_rows")
_LOSS_KINDS = ("cross_entropy", "mean_square")


def einsum(subscripts: str, *ops: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.einsum(subscripts, *ops, optimize=True)`` run from a cached plan.

    ``subscripts`` must be explicit (``->``), with no index repeated inside
    one operand, no index summed within a single operand and no
    broadcasting. The first call for a given set of operand shapes compiles
    the plan; later calls only run it. The result equals NumPy 2.4's bit for
    bit, since its optimized einsum also runs each pairwise step as one
    ``matmul``; NumPy releases that run those steps another way agree with
    it to rounding.

    With ``out``, an array of the result's shape, the result is written into
    it and ``out`` is returned. A final ``matmul`` that produces the output
    order writes into a C-contiguous ``out`` directly; any other final step
    is copied in.
    """
    return _compile(subscripts, tuple([op.shape for op in ops]))(*ops, out=out)


@functools.lru_cache(maxsize=512)
def _compile(subscripts: str, shapes: tuple):
    """``einsum``'s plan for ``subscripts`` over operands of ``shapes``, as one
    function ``plan(*ops, out=None)``.

    Each pairwise step ``(positions, run)`` pops ``positions`` and pushes
    ``run(*popped)``; a plan of one step runs it on the operands directly.

    The pairwise order is the one ``np.einsum_path(optimize=True)`` picks.
    Operands are popped, and intermediates are indexed, in the order
    ``np.einsum`` uses, and each step mirrors the ``matmul`` or multiply
    that NumPy's optimized einsum performs for it, so the values and the
    memory layouts agree exactly.
    """
    inputs, output = subscripts.split("->")
    terms = inputs.split(",")
    if len(terms) != len(shapes):
        raise DimensionError(f"{subscripts!r} names {len(terms)} operands, got {len(shapes)}")
    sizes: dict[str, int] = {}
    for term, shape in zip(terms, shapes):
        if len(term) != len(shape) or len(set(term)) != len(term):
            raise DimensionError(f"{subscripts!r} does not fit operand shapes {shapes}")
        for ix, n in zip(term, shape):
            if sizes.setdefault(ix, n) != n:
                raise DimensionError(f"index {ix!r} of {subscripts!r} has extents {sizes[ix]} and {n}")
    for ix in sizes:
        if ix not in output and inputs.count(ix) < 2 and sizes[ix] != 1:
            raise DimensionError(f"index {ix!r} of {subscripts!r} is summed within one operand")
    dummies = [np.broadcast_to(np.zeros((), DTYPE), shape) for shape in shapes]
    path = np.einsum_path(subscripts, *dummies, optimize=True)[0][1:]
    steps = []
    for k, positions in enumerate(path):
        positions = tuple(sorted(positions, reverse=True))
        picked = [terms.pop(p) for p in positions]
        if k == len(path) - 1:
            result = output
        else:
            needed = set(output).union(*terms)
            kept = set("".join(picked)) & needed
            result = "".join(sorted(kept, key=lambda ix: (sizes[ix], ix)))
        terms.append(result)
        summed = any(ix not in result and sizes[ix] != 1 for ix in picked[0])
        if len(picked) == 2 and summed:
            steps.append((positions, _matmul_step(*picked, result, sizes)))
        elif not summed:
            steps.append((positions, _product_step(picked, result, sizes)))
        else:
            raise DimensionError(f"{subscripts!r} has no pairwise contraction order")
    return _plan(steps)


def _plan(steps: list):
    """Run ``steps`` (``_compile``), the last one into ``out`` when given."""
    *inner, (positions, last) = steps

    def plan(*ops, out=None):
        operands = list(ops)
        for at, run in inner:
            operands.append(run(*[operands.pop(p) for p in at]))
        return _into(last(*[operands.pop(p) for p in positions], out=out), out)

    if inner or positions != (1, 0):
        return plan

    def pair(a, b, out=None):
        return last(b, a) if out is None else _into(last(b, a, out=out), out)

    return pair


def _into(result: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    if out is None or result is out:
        return result
    out[...] = result
    return out


def _arrange(term: str, order: str, sizes: dict, shape=None):
    """Bring an operand indexed by ``term`` to the index order ``order``, then to ``shape``.

    Size-1 indices of ``term`` that ``order`` leaves out are dropped.
    """
    if order == term:
        return (lambda x: x) if shape is None else (lambda x: x.reshape(shape))
    dropped = tuple(i for i, ix in enumerate(term) if ix not in order)
    perm = tuple(term.index(ix) for ix in order) + dropped
    shape = shape or tuple(sizes[ix] for ix in order)
    return lambda x: x.transpose(perm).reshape(shape)


def _matmul_step(a: str, b: str, out: str, sizes: dict):
    """One batched ``matmul`` over the shared indices of ``a`` and ``b``."""
    big = {ix for ix in a + b if sizes[ix] != 1}
    bat = [ix for ix in a if ix in big and ix in b and ix in out]
    con = [ix for ix in a if ix in big and ix in b and ix not in out]
    a_keep = [ix for ix in a if ix in big and ix not in b]
    b_keep = [ix for ix in b if ix in big and ix not in a]
    groups_a, groups_b, groups_ab = (bat, a_keep, con), (bat, con, b_keep), (bat, a_keep, b_keep)
    if not bat:
        groups_a, groups_b, groups_ab = groups_a[1:], groups_b[1:], groups_ab[1:]

    def fused(groups):
        if all(len(group) == 1 for group in groups):
            return None
        return tuple(int(np.prod([sizes[ix] for ix in group])) for group in groups)

    arrange_a = _arrange(a, "".join(bat + a_keep + con), sizes, fused(groups_a))
    arrange_b = _arrange(b, "".join(bat + con + b_keep), sizes, fused(groups_b))
    ones = [ix for ix in out if sizes[ix] == 1]
    ab_shape = None
    if ones or fused(groups_ab) is not None:
        ab_shape = (1,) * len(ones) + tuple(sizes[ix] for group in groups_ab for ix in group)
    produced = "".join(ones + bat + a_keep + b_keep)
    ab_perm = None if produced == out else tuple(produced.index(ix) for ix in out)
    mm_shape = tuple(math.prod(sizes[ix] for ix in group) for group in groups_ab)

    def run(x, y, out=None):
        if out is not None and ab_perm is None and out.flags.c_contiguous:
            np.matmul(arrange_a(x), arrange_b(y), out=out.reshape(mm_shape))
            return out
        ab = np.matmul(arrange_a(x), arrange_b(y))
        if ab_shape is not None:
            ab = ab.reshape(ab_shape)
        return ab if ab_perm is None else ab.transpose(ab_perm)

    return run


def _product_step(terms: list, out: str, sizes: dict):
    """A broadcast product of operands that share no summed index."""
    arranges = [
        _arrange(
            term,
            "".join(ix for ix in out if ix in term),
            sizes,
            tuple(sizes[ix] if ix in term else 1 for ix in out),
        )
        for term in terms
    ]

    def run(*xs, out=None):
        return functools.reduce(np.multiply, [f(x) for f, x in zip(arranges, xs)])

    return run


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
        if self.kind in _EINSUM_KINDS:
            return einsum(self.extra, *self.inputs)
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
        """Multilinear einsum with no repeated index inside one operand, into ``out`` if given."""
        return self._record(kind, ops, einsum(subscripts, *ops, out=out), subscripts)

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
            raise DimensionError("pair_round needs at least two matrices")
        out = self.workspace.empty(_round_shape(stack))
        return self._record("pair_round", (stack,), _pair_round_value(stack, out))

    def gather(self, x: np.ndarray, index: int) -> np.ndarray:
        """Select row ``index`` along the leading axis, differentiably."""
        index = int(index)
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


def _subscript_extents(subscripts: str, ops) -> dict[str, int]:
    ins = subscripts.split("->")[0].split(",")
    extents: dict[str, int] = {}
    for sub, op in zip(ins, ops):
        for ch, n in zip(sub, op.shape):
            extents[ch] = n
    return extents


def _node_forward_flops(node: Node) -> int:
    if node.kind in _EINSUM_KINDS:
        ext = _subscript_extents(node.extra, node.inputs)
        return 2 * int(np.prod(list(ext.values())))
    if node.kind == "pair_round":
        stack = node.inputs[0]
        pairs = stack.shape[0] // 2
        slices = int(np.prod(stack.shape[1:-2])) if stack.ndim > 3 else 1
        k = stack.shape[-1]
        return 2 * pairs * slices * k * k * k
    if node.kind in _LOSS_KINDS:
        return 3 * node.inputs[0].size
    return 0  # gather, slice_rows


def _node_backward_flops(node: Node) -> int:
    if node.kind in _EINSUM_KINDS:
        ext = _subscript_extents(node.extra, node.inputs)
        per = 2 * int(np.prod(list(ext.values())))
        return per * sum(node.needs)
    if node.kind == "pair_round":
        # The dense rule, dA and dB per pair: two products for each forward product.
        return 2 * _node_forward_flops(node)
    return _node_forward_flops(node)


# The absorb of stacked sites, weights first: ``contraction`` absorbs a pairwise half
# and all of the sequential sweep's bond sites with it.
STACKED_ABSORB = "sdxy,bsd->sbxy"


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


def _absorb_adjoint(shape: tuple, feats: np.ndarray, g) -> np.ndarray:
    """The weights' adjoint [S, d, chi, chi] of ``STACKED_ABSORB`` fed factors.

    Row s, component d, is ``sum_b f[b, s, d] u[s, b] ⊗ v[s, b]``: u
    weighted by each feature component in turn, then one batched matmul
    with v per component. ``g`` is factors ``(u, v)`` of every row, or
    ``_Rows``, taken run by run as the arrays it was filed with.
    """
    grad = np.zeros(shape, dtype=DTYPE)
    runs = g.runs if isinstance(g, _Rows) else [(slice(0, shape[0]),) + g]
    for rows, u, v in runs:
        weights = feats[:, rows].transpose(1, 2, 0)  # [rows, d, B]
        for d in range(shape[1]):
            np.matmul((u * weights[:, d, :, None]).swapaxes(-1, -2), v, out=grad[rows, d])
    return grad


@functools.lru_cache(maxsize=512)
def _adjoint_plan(subscripts: str, shapes: tuple, needs: tuple) -> tuple:
    """``(i, outer, product, rows)`` per graded operand ``i`` of the einsum
    ``subscripts`` over operands of ``shapes``.

    The dense adjoint replaces operand i by g, indexed like the output. When
    it is a bare outer product over the operand's last two indices,
    ``outer`` holds the positions of its factors (u, v) among the operands;
    otherwise ``product`` runs it: the compiled plan of a two-operand form
    (``_compile``), ``einsum`` for more operands, such as a combine's.
    ``rows`` marks the weights of the stacked absorb, whose adjoint from
    factors is ``_absorb_adjoint``'s.
    """
    ins, out = subscripts.split("->")
    ins = ins.split(",")
    sizes = {ix: n for term, shape in zip(ins, shapes) for ix, n in zip(term, shape)}
    g_shape = tuple(sizes[ix] for ix in out)
    plan = []
    for i, own in enumerate(ins):
        if not needs[i]:
            continue
        if len(ins) == 2 and len(own) >= 2:
            pair = (own[:-1], own[:-2] + own[-1])
            if (out, ins[1 - i]) in (pair, pair[::-1]):
                plan.append((i, (i, 1 - i) if out == pair[0] else (1 - i, i), None, False))
                continue
        form = ",".join(out if j == i else term for j, term in enumerate(ins)) + "->" + own
        if len(ins) == 2:
            product = _compile(form, tuple(g_shape if j == i else x for j, x in enumerate(shapes)))
        else:
            product = lambda *ops, form=form: einsum(form, *ops)  # noqa: E731
        plan.append((i, None, product, i == 0 and subscripts == STACKED_ABSORB))
    return tuple(plan)


def _input_adjoints(node: Node, g):
    """Yield (input index, adjoint) for graded inputs; each adjoint is new or factored.

    ``g`` is a dense array, factors ``(u, v)`` (``_outer``) or row factors
    (``_Rows``); an adjoint is a dense array or factors. An einsum takes
    each adjoint from its cached plan (``_adjoint_plan``): factors where it
    is a bare outer product, the weights' adjoint of the stacked absorb
    (``STACKED_ABSORB``) made from factors or row factors as they are
    (``_absorb_adjoint``), and the compiled dense rule otherwise. A
    ``pair_round`` stacks row factors and turns factors into factors with
    two batched matrix-vector products per pair. Every other use expands
    g first and gets the plain dense rule. ``gather`` and ``slice_rows``
    have no rule here: ``backward`` adds their adjoint into the source's
    rows in place.
    """
    kind = node.kind
    if kind in _EINSUM_KINDS:
        inputs = node.inputs
        for i, outer, product, rows in _adjoint_plan(
            node.extra, tuple([x.shape for x in inputs]), node.needs
        ):
            if rows and not isinstance(g, np.ndarray):
                yield i, _absorb_adjoint(inputs[0].shape, inputs[1], g)
                continue
            if not isinstance(g, np.ndarray):
                g = _dense(g)
            operands = inputs[:i] + (g,) + inputs[i + 1 :]
            if outer is None:
                yield i, product(*operands)
            else:
                yield i, (operands[outer[0]], operands[outer[1]])
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
            _accumulate(acc, id(self.vec), np.matmul(env[0, ..., None, :], back[0])[..., 0, :])
        if self.needs[1]:
            _file(acc, self.stack, self.rows, *((vecs, env) if ascending else (env, vecs)))


def backward(tape: Tape, wrt, loss_adjoint: float = 1.0) -> list[np.ndarray]:
    """The adjoints of the watched arrays ``wrt``, in order, from one reverse sweep.

    The seed fills the last recorded result (broadcast for non-scalar
    results), so a tape ending in a loss node receives the scalar loss
    adjoint directly. An array of ``wrt`` that the output does not reach
    gets zeros; one the tape does not watch raises ``ConsistencyError``. A
    ``gather`` or ``slice_rows`` adjoint is added into the rows of its
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
    (``_input_adjoints``). A sweep node, or a ``gather`` fed factors, files
    them as its rows' factors of the source (``_Rows``), the rows none
    reached being zero, so the sequential sweep never builds a dense
    [N-3, B, chi, chi] adjoint; the source's producer decides how to take
    them (``_input_adjoints``). Factors are expanded when a second
    contribution meets them (a row filed twice included), when a
    ``slice_rows`` adds them into its source, and before they are returned.
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
    atol: float = 1e-3,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``images`` is a [B, N] batch of normalized pixels. For every scalar
    parameter theta the analytic entry is compared with
    (loss(theta + h) - loss(theta - h)) / 2h. The relative error uses
    denominator max(|analytic|, |numeric|, atol): entries below ``atol``
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
            rel = abs(a - numeric) / max(abs(a), abs(numeric), atol)
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
