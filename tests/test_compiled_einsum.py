"""The compiled ``autodiff.einsum``: same bits as NumPy, no path search once warm."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsclassify import Strategy, autodiff, encode_batch, init_model, loss_and_gradients
from mpsclassify.errors import DimensionError

SRC = Path(__file__).resolve().parent.parent / "src" / "mpsclassify"

# The label combine of both schedules and the adjoint of each of its operands.
COMBINE_FORMS = {"by,blxy,bx->bl", "bl,blxy,bx->by", "by,bl,bx->blxy", "by,blxy,bl->bx"}

# Every subscript form a taped step records, forward and adjoint, plus two
# single-image absorb forms, the dense adjoints that factored ones replace,
# and two pairs that no step runs but that cover a broadcast product feeding
# a batched matmul.
FORMS = sorted(COMBINE_FORMS | {
    "dx,bd->bx", "bx,bd->dx",
    "sdxy,bsd->sbxy", "sbxy,bsd->sdxy",
    "sbx,bsd->sbdx", "sbdx,sby->sdxy",
    "dlxy,bd->blxy", "blxy,bd->dlxy",
    "dxy,bd->bxy", "bxy,bd->dxy",
    "bx,bd->bdx", "bdx,by->dxy",
    "bx,bxy->by", "bx,by->bxy", "by,bxy->bx",
    "bxy,by->bx", "bxy,bx->by",
    "sd,sdxy->sxy", "d,dlxy->lxy",
})


def desk_step(strategy, batch=50, seed=0):
    """One taped step of the desk recipe (N=196, chi=10, ten labels)."""
    model = init_model(196, 10, 10, seed=seed)
    rng = np.random.default_rng(seed)
    feats = encode_batch(model.feature_map, rng.random((batch, 196)))
    return lambda: loss_and_gradients(model, feats, rng.integers(0, 10, batch), strategy=strategy)


@pytest.mark.parametrize("strategy", [Strategy.PAIRWISE, Strategy.SEQUENTIAL])
@pytest.mark.parametrize("batch", [1, 50])
def test_every_recorded_contraction_matches_numpy(monkeypatch, strategy, batch):
    real = autodiff.einsum
    calls = []

    def recording(subscripts, *ops, out=None):
        calls.append((subscripts, ops))
        return real(subscripts, *ops, out=out)

    monkeypatch.setattr(autodiff, "einsum", recording)
    desk_step(strategy, batch)()
    assert COMBINE_FORMS <= {subscripts for subscripts, _ in calls}
    assert {subscripts for subscripts, _ in calls} <= set(FORMS)
    for subscripts, ops in calls:
        got = real(subscripts, *ops)
        want = np.einsum(subscripts, *ops, optimize=True)
        assert got.shape == want.shape and np.array_equal(got, want), subscripts


@pytest.fixture
def cold_plans():
    """Empty the plan caches before and after, so no plan outlives a patched compiler."""
    caches = (autodiff._compile, autodiff._adjoint_plan)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("strategy", [Strategy.PAIRWISE, Strategy.SEQUENTIAL])
@pytest.mark.parametrize("batch", [1, 50])
def test_every_planned_contraction_matches_numpy(monkeypatch, cold_plans, strategy, batch):
    """Plans run without ``einsum`` too: the cached adjoint products. Every plan
    call of a taped step is NumPy's result bit for bit. ``Tape.sweep(vec,
    stack, rows)`` steps its rows without a plan, ``v @ A`` over ascending rows
    and ``A @ v`` over descending ones; test_autodiff.py's
    ``TestSweep::test_every_row_of_every_form_is_numpys_product`` checks both."""
    real = autodiff._compile
    calls = []

    def compiling(subscripts, shapes):
        plan = real(subscripts, shapes)

        def recording(*ops, out=None):
            calls.append((subscripts, ops))
            return plan(*ops, out=out)

        return recording

    monkeypatch.setattr(autodiff, "_compile", compiling)
    desk_step(strategy, batch)()
    forms = {subscripts for subscripts, _ in calls}
    assert forms <= set(FORMS)
    for subscripts, ops in calls:
        got = real(subscripts, tuple(op.shape for op in ops))(*ops)
        want = np.einsum(subscripts, *ops, optimize=True)
        assert got.shape == want.shape and np.array_equal(got, want), subscripts


@settings(max_examples=300, deadline=None)
@given(
    form=st.sampled_from(FORMS),
    extents=st.lists(st.integers(0, 7), min_size=6, max_size=6),
    layouts=st.lists(st.booleans(), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_plan_equals_einsum_over_random_extents(form, extents, layouts, seed):
    inputs = form.split("->")[0].split(",")
    extent = dict(zip(sorted(set("".join(inputs))), extents))
    rng = np.random.default_rng(seed)
    ops = []
    for term, fortran in zip(inputs, layouts):
        op = rng.standard_normal([extent[ix] for ix in term])
        ops.append(np.asfortranarray(op) if fortran else op)
    got = autodiff.einsum(form, *ops)
    want = np.einsum(form, *ops, optimize=True)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("form", FORMS)
def test_plan_writes_into_out(form):
    """``einsum(..., out=)`` returns the buffer given, holding NumPy's bits."""
    inputs = form.split("->")[0].split(",")
    extent = dict(zip(sorted(set("".join(inputs))), (3, 4, 5, 2, 6, 7)))
    rng = np.random.default_rng(0)
    ops = [rng.standard_normal([extent[ix] for ix in term]) for term in inputs]
    want = np.einsum(form, *ops, optimize=True)
    out = np.full(want.shape, np.nan)
    got = autodiff.einsum(form, *ops, out=out)
    assert got is out
    assert np.array_equal(out, want)


@pytest.mark.parametrize("strategy", [Strategy.PAIRWISE, Strategy.SEQUENTIAL])
def test_no_path_search_after_warm_up(monkeypatch, strategy):
    step = desk_step(strategy)
    step()
    counts = {"einsum": 0, "einsum_path": 0}
    for name in counts:
        real = getattr(np, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    step()
    assert counts == {"einsum": 0, "einsum_path": 0}
    # The counters do see a compile: a cold cache searches a path once.
    autodiff._compile.cache_clear()
    a = np.ones((3, 4))
    autodiff.einsum("ij,jk->ik", a, a.T)
    autodiff.einsum("ij,jk->ik", a, a.T)
    assert counts == {"einsum": 0, "einsum_path": 1}


def test_unsupported_subscripts_are_named():
    a = np.ones((2, 3))
    with pytest.raises(DimensionError, match="summed within one operand"):
        autodiff.einsum("ij,jk->k", a, np.ones((3, 4)))
    with pytest.raises(DimensionError, match="extents"):
        autodiff.einsum("ij,jk->ik", a, np.ones((2, 4)))
    with pytest.raises(DimensionError, match="does not fit"):
        autodiff.einsum("ii,ij->j", np.ones((2, 2)), a)


def numpy_einsum_references(path: Path):
    """(line, enclosing function) of every ``np.einsum``/``np.einsum_path`` use."""
    tree = ast.parse(path.read_text())
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        is_attr = (
            isinstance(node, ast.Attribute)
            and node.attr in ("einsum", "einsum_path")
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        )
        is_import = isinstance(node, ast.ImportFrom) and node.module == "numpy" and any(
            alias.name in ("einsum", "einsum_path") for alias in node.names
        )
        if is_attr or is_import:
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_numpy_einsum_is_called_only_by_the_compiler():
    """New code goes through ``autodiff.einsum``, so no call path searches per call."""
    references = {
        path.name: numpy_einsum_references(path) for path in sorted(SRC.glob("*.py"))
    }
    outside = [
        (name, line, function)
        for name, found in references.items()
        for line, function in found
        if (name, function) != ("autodiff.py", "_compile")
    ]
    assert outside == []
    assert references["autodiff.py"], "the compiler no longer asks np.einsum_path"
