"""The fixed products a tape records (``autodiff._FORMS``): NumPy's einsum bits, and no others."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsclassify import Strategy, Tape, autodiff, encode_batch, init_model, loss_and_gradients
from mpsclassify.errors import DimensionError

SRC = Path(__file__).resolve().parent.parent / "src" / "mpsclassify"

# The forward subscripts of every node ``contraction`` records, bar the sweep's.
RECORDED = {
    "dx,bd->bx", "dlxy,bd->blxy", "sdxy,bsd->sbxy", "by,blxy,bx->bl", "bx,bxy->by", "bxy,by->bx",
}
FORMS = sorted(RECORDED)
COMBINE = "by,blxy,bx->bl"


def adjoint_form(subscripts: str, i: int) -> str:
    """The einsum of operand ``i``'s dense adjoint: the output's adjoint in its place."""
    ins, out = subscripts.split("->")
    ins = ins.split(",")
    return ",".join(out if j == i else term for j, term in enumerate(ins)) + "->" + ins[i]


def operands(subscripts: str, extent: dict, rng, fortran=(False,) * 3):
    ops = []
    for term, f in zip(subscripts.split("->")[0].split(","), fortran):
        op = rng.standard_normal([extent[ix] for ix in term])
        ops.append(np.asfortranarray(op) if f else op)
    return ops


def dense(adjoint):
    return autodiff._outer(adjoint) if isinstance(adjoint, tuple) else adjoint


def rounded(subscripts: str, i, ops: list) -> bool:
    """Whether the forward (``i`` None) or operand ``i``'s adjoint may differ
    from NumPy's in rounding. Only the label combine's may: at chi = 1, where
    NumPy's path takes another order, and its vector adjoints at L != chi,
    which keep the order NumPy picks at L = chi."""
    if subscripts != COMBINE:
        return False
    _, labels, chi, _ = ops[1].shape
    return chi == 1 or (i in (0, 2) and labels != chi)


def assert_same(got, want, rounded: bool, what) -> None:
    """Bit for bit, or within 1e-12 of the largest entry where ``rounded``."""
    assert got.shape == want.shape, what
    if rounded:
        atol = 1e-12 * np.abs(want).max(initial=0.0)
        np.testing.assert_allclose(got, want, rtol=0, atol=atol, err_msg=str(what))
    else:
        assert np.array_equal(got, want), what


def assert_is_numpys(subscripts: str, ops: list) -> None:
    """The forward and every operand's adjoint, fed a dense output adjoint,
    equal ``np.einsum(..., optimize=True)``: bit for bit, or to rounding
    where ``rounded``."""
    form = autodiff._FORMS[subscripts]
    want = np.einsum(subscripts, *ops, optimize=True)
    assert_same(form.forward(*ops), want, rounded(subscripts, None, ops), subscripts)
    g = np.random.default_rng(1).standard_normal(want.shape)
    for i, rule in enumerate(form.adjoints):
        adjoint = ops[:i] + [g] + ops[i + 1 :]
        want = np.einsum(adjoint_form(subscripts, i), *adjoint, optimize=True)
        assert_same(dense(rule(g, *ops)), want, rounded(subscripts, i, ops), (subscripts, i))


def test_the_table_holds_the_recorded_products_only():
    assert set(autodiff._FORMS) == RECORDED
    assert autodiff.STACKED_ABSORB in RECORDED


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("batch", [0, 1, 5, 7, 50])
@pytest.mark.parametrize(
    "chi, labels", [(1, 3), (3, 2), (3, 3), (3, 10), (10, 10), (32, 10), (10, 3)]
)
def test_each_product_and_its_adjoints_are_numpys(form, batch, chi, labels):
    """Labels fewer than, as many as and more than chi: at L = chi every
    adjoint is NumPy's bits, elsewhere the label combine's vector adjoints
    are within rounding (``rounded``)."""
    extent = dict(b=batch, d=2, s=4, l=labels, x=chi, y=chi)
    assert_is_numpys(form, operands(form, extent, np.random.default_rng(batch * chi + labels)))


@settings(max_examples=300, deadline=None)
@given(
    form=st.sampled_from(FORMS),
    sizes=st.lists(st.integers(0, 7), min_size=4, max_size=4),
    chi=st.integers(1, 7),
    layouts=st.lists(st.booleans(), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_products_equal_einsum_over_random_extents(form, sizes, chi, layouts, seed):
    """Any batch, feature, row and label count, the empty batch included;
    every matrix chi x chi with chi >= 1; C- or Fortran-ordered operands."""
    b, d, s, l = sizes
    extent = dict(b=b, d=d, s=s, l=l, x=chi, y=chi)
    assert_is_numpys(form, operands(form, extent, np.random.default_rng(seed), layouts))


@pytest.mark.parametrize("form", FORMS)
def test_a_product_writes_into_out(form):
    """``Tape.contract(..., out=)`` returns the buffer given, holding NumPy's bits."""
    extent = dict(b=5, d=2, s=4, l=3, x=6, y=6)
    ops = operands(form, extent, np.random.default_rng(0))
    want = np.einsum(form, *ops, optimize=True)
    out = np.full(want.shape, np.nan)
    got = Tape().contract(form, *ops, out=out)
    assert got is out
    assert np.array_equal(out, want)


def test_a_form_outside_the_table_or_operands_that_do_not_fit_are_named():
    a = np.ones((2, 3))
    with pytest.raises(DimensionError, match=r"'ij,jk->ik' is not a recorded product"):
        Tape().contract("ij,jk->ik", a, np.ones((3, 4)))
    with pytest.raises(DimensionError, match="extents 3 and 4"):
        Tape().contract("bx,bxy->by", a, np.ones((2, 4, 3)))
    with pytest.raises(DimensionError, match="does not fit"):
        Tape().contract("bx,bxy->by", a, np.ones((2, 3)))
    with pytest.raises(DimensionError, match="does not fit"):
        Tape().contract("bx,bxy->by", a)
    with pytest.raises(DimensionError, match="C-contiguous"):
        Tape().contract("dx,bd->bx", np.ones((3, 4)), np.ones((2, 3)), out=np.empty((4, 2)).T)


def desk_step(strategy, batch):
    """One taped step of the desk recipe (N=196, chi=10, ten labels)."""
    model = init_model(196, 10, 10, seed=0)
    rng = np.random.default_rng(0)
    feats = encode_batch(model.feature_map, rng.random((batch, 196)))
    return lambda: loss_and_gradients(model, feats, rng.integers(0, 10, batch), strategy=strategy)


@pytest.mark.parametrize("strategy", [Strategy.PAIRWISE, Strategy.SEQUENTIAL])
@pytest.mark.parametrize("batch", [1, 50])
def test_every_product_of_a_desk_step_is_numpys(monkeypatch, strategy, batch):
    """Each product a taped step runs, forward or adjoint, on the arrays it
    ran on, against ``np.einsum``; the weights' adjoint of the stacked absorb
    is fed factors, so it is checked against the dense rule to rounding."""
    calls = []

    def recording(subscripts, form):
        def forward(*ops, out=None):
            got = form.forward(*ops, out=out)
            calls.append((subscripts, ops, got.copy()))
            return got

        def adjoint(i, rule):
            def run(g, *ops):
                got = rule(g, *ops)
                calls.append((adjoint_form(subscripts, i), ops[:i] + (dense(g),) + ops[i + 1 :],
                              dense(got)))
                return got

            return run

        return autodiff._Form(forward, tuple(adjoint(i, r) for i, r in enumerate(form.adjoints)))

    for subscripts, form in list(autodiff._FORMS.items()):
        monkeypatch.setitem(autodiff._FORMS, subscripts, recording(subscripts, form))

    def weights(g, w, f):
        got = autodiff._absorb_weights(g, w, f)
        want = np.einsum("sbxy,bsd->sdxy", autodiff._dense(g), f, optimize=True)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
        return got

    stacked = autodiff._FORMS[autodiff.STACKED_ABSORB]
    monkeypatch.setitem(autodiff._FORMS, autodiff.STACKED_ABSORB,
                        stacked._replace(adjoints=(weights,) + stacked.adjoints[1:]))
    desk_step(strategy, batch)()
    assert {call[0] for call in calls} >= {"by,blxy,bx->bl", "bl,blxy,bx->by",
                                          "by,bl,bx->blxy", "by,blxy,bl->bx"}
    for subscripts, ops, got in calls:
        want = np.einsum(subscripts, *ops, optimize=True)
        assert got.shape == want.shape and np.array_equal(got, want), subscripts


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


def test_the_package_calls_no_numpy_einsum():
    """Every product is a direct matmul, so nothing searches a path per call."""
    found = {
        path.relative_to(SRC).as_posix(): numpy_einsum_references(path)
        for path in sorted(SRC.rglob("*.py"))
    }
    assert found and all(references == [] for references in found.values()), found
