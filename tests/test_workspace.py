"""The reusable workspace: nothing returned aliases it, and a warm step or
evaluation batch touches no fresh pages."""

import mmap
import resource

import numpy as np
import pytest

from mpsclassify import (
    LossKind,
    Strategy,
    Tape,
    encode_batch,
    evaluate,
    forward_batch,
    init_model,
    loss_and_gradients,
)
from mpsclassify import autodiff
from mpsclassify.training import _taped_step, evaluate_predictions

SCHEDULES = (Strategy.PAIRWISE, Strategy.SEQUENTIAL)


def encoded(model, rng, count):
    return encode_batch(model.feature_map, rng.random((count, model.n_sites)))


def test_nothing_returned_aliases_the_workspace():
    """Arrays kept from earlier calls survive later calls on other data unchanged."""
    model = init_model(21, 4, 3, seed=0)
    rng = np.random.default_rng(0)
    feats, labels = encoded(model, rng, 6), rng.integers(0, 4, 6)
    kept = []

    def keep(*arrays):
        kept.extend((arr, np.array(arr, copy=True)) for arr in arrays)

    for strategy in SCHEDULES:
        for loss_kind in LossKind:
            loss, logits, grads = _taped_step(model, feats, labels, loss_kind, strategy)
            keep(np.asarray(loss), logits, *(arr for _, arr in grads.arrays()))
        keep(forward_batch(model, feats, strategy))
        keep(evaluate_predictions(model, feats, labels, batch_size=4, strategy=strategy)[2])
    user = Tape()
    user.watch_model(model)
    forward_batch(model, feats, Strategy.PAIRWISE, tape=user)

    for strategy in SCHEDULES * 2:
        other, other_labels = encoded(model, rng, 6), rng.integers(0, 4, 6)
        loss_and_gradients(model, other, other_labels, strategy=strategy)
        evaluate(model, other, other_labels, batch_size=6, strategy=strategy)
    for arr, copy in kept:
        assert np.array_equal(arr, copy)
    user.replay()


SIZES = pytest.mark.parametrize(
    "n_sites, label_site", [(5, None), (6, 1), (6, 4), (21, None), (21, 2), (40, 7)]
)


def assert_a_repeated_step_fills_the_buffer(monkeypatch, n_sites, label_site, strategy):
    workspace = autodiff.Workspace()
    monkeypatch.setattr(autodiff, "_WORKSPACE", workspace)
    model = init_model(n_sites, 3, 2, seed=0, label_site=label_site)
    feats = encoded(model, np.random.default_rng(1), 5)
    call = lambda: loss_and_gradients(model, feats, np.arange(5) % 3, strategy=strategy)  # noqa: E731
    call()
    real = autodiff.Workspace.empty
    overflowed = []

    def checked(self, shape):
        arr = real(self, shape)
        if self is workspace and arr.size and not np.shares_memory(arr, self._flat):
            overflowed.append(shape)
        return arr

    monkeypatch.setattr(autodiff.Workspace, "empty", checked)
    call()
    assert overflowed == []
    assert 0 < workspace._used == workspace._flat.size


@SIZES
@pytest.mark.parametrize("taped", [True])  # only a taped step grows the workspace
def test_workspace_is_sized_exactly(monkeypatch, n_sites, label_site, taped):
    """After one taped pairwise step, the same step again takes every array from the buffer, and fills it."""
    assert_a_repeated_step_fills_the_buffer(monkeypatch, n_sites, label_site, Strategy.PAIRWISE)


@SIZES
def test_sequential_workspace_is_sized_exactly(monkeypatch, n_sites, label_site):
    """The same for a taped sequential step: its label block, the stack of every bond
    site, and each half's prefix buffer and, in ``backward``, environment buffer."""
    assert_a_repeated_step_fills_the_buffer(monkeypatch, n_sites, label_site, Strategy.SEQUENTIAL)


@pytest.mark.parametrize("taped", [True])  # only a taped step grows the workspace
def test_a_call_that_overflows_matches_one_from_the_buffer(monkeypatch, taped):
    """On an empty workspace every array overflows into a new one; the numbers do not change.

    The next step grows the buffer to exactly what the first took, and a
    user tape, which is never lent the workspace, gives the same bytes.
    """
    workspace = autodiff.Workspace()
    monkeypatch.setattr(autodiff, "_WORKSPACE", workspace)
    model = init_model(21, 4, 3, seed=0, label_site=7)
    rng = np.random.default_rng(3)
    feats, labels = encoded(model, rng, 6), rng.integers(0, 4, 6)

    def call():
        loss, grads = loss_and_gradients(model, feats, labels)
        return [np.asarray(loss)] + [arr for _, arr in grads.arrays()]

    def call_on_user_tape():
        user = Tape()
        user.watch_model(model)
        logits = forward_batch(model, feats, Strategy.PAIRWISE, tape=user)
        loss = user.loss(LossKind.CROSS_ENTROPY, logits, labels)
        return [loss] + autodiff.backward(user, [arr for _, arr in model.parameters()])

    first = call()
    took = workspace._used
    assert workspace._flat.size == 0 < took
    second = call()
    assert workspace._flat.size == took
    for got in (second, call_on_user_tape()):
        assert [arr.tobytes() for arr in got] == [arr.tobytes() for arr in first]


def test_the_module_workspace_maps_each_array_beyond_its_buffer():
    """Freed, such an array goes back to the system at once, not to a heap
    where a live block above it could keep it resident while the grown
    buffer faults in. A tape's own workspace takes its arrays from the heap."""
    assert isinstance(autodiff._WORKSPACE, autodiff._ModuleWorkspace)
    workspace = autodiff._ModuleWorkspace()
    arr, empty = workspace.empty((3, 4)), workspace.empty((0, 2))
    base = arr
    while isinstance(base, np.ndarray):
        base = base.base
    assert isinstance(base.obj, mmap.mmap)
    arr[...] = 1.0
    assert arr.dtype == np.float64 and arr.sum() == 12
    assert empty.shape == (0, 2) and workspace._used == 12
    assert Tape().workspace.empty((3, 4)).base is None


def test_desk_step_workspace_holds_at_most_20_mib(monkeypatch):
    """The label block, the absorbed halves and the round outputs: 15.3 MiB.

    Dense [T, B, chi, chi] round adjoints in the buffer took it to 30.1 MiB.
    """
    workspace = autodiff.Workspace()
    monkeypatch.setattr(autodiff, "_WORKSPACE", workspace)
    model = init_model(196, 10, 10, seed=0)
    rng = np.random.default_rng(0)
    feats, labels = encoded(model, rng, 50), rng.integers(0, 10, 50)
    for _ in range(2):  # the buffer grows to the first step's need at the next borrow
        loss_and_gradients(model, feats, labels)
    assert 0 < workspace._flat.nbytes <= 20 * 2**20


def test_a_borrow_while_the_workspace_is_out_gets_fresh_arrays():
    """A taped step inside another borrow runs on its own workspace and gives the same bytes."""
    model = init_model(21, 4, 3, seed=0)
    rng = np.random.default_rng(2)
    feats, labels = encoded(model, rng, 6), rng.integers(0, 4, 6)

    def step():
        loss, grads = loss_and_gradients(model, feats, labels)
        return [np.asarray(loss).tobytes()] + [arr.tobytes() for _, arr in grads.arrays()]

    want = step()
    with autodiff.lend_workspace(Tape()) as holder:
        assert holder.workspace is autodiff._WORKSPACE
        got = step()
        assert autodiff._WORKSPACE._used == 0
    assert got == want
    assert holder.workspace is not autodiff._WORKSPACE


def test_untaped_calls_never_grow_the_workspace(monkeypatch):
    """Untaped forwards and evaluation leave the workspace untouched: empty before
    any step, and the buffer and bump that taped steps left after them."""
    workspace = autodiff.Workspace()
    monkeypatch.setattr(autodiff, "_WORKSPACE", workspace)
    model = init_model(21, 4, 3, seed=0)
    rng = np.random.default_rng(5)
    feats, labels = encoded(model, rng, 6), rng.integers(0, 4, 6)

    def assert_untaped_calls_leave_it():
        flat, size, used = workspace._flat, workspace._flat.size, workspace._used
        for strategy in SCHEDULES * 2:
            forward_batch(model, feats, strategy)
            evaluate(model, feats, labels, batch_size=4, strategy=strategy)
        assert workspace._flat is flat and workspace._flat.size == size
        assert workspace._used == used
        return used

    assert assert_untaped_calls_leave_it() == 0
    assert workspace._flat.size == 0
    # The buffer grows to a step's need at the next borrow, so each size takes two steps.
    for count in (2, 6):
        for _ in range(2):
            loss_and_gradients(model, feats[:count], labels[:count])
        assert assert_untaped_calls_leave_it() > 0


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.parametrize(
    "what, strategy",
    [("desk step", strategy) for strategy in SCHEDULES]
    + [("eval batch", strategy) for strategy in SCHEDULES],
    ids=lambda arg: getattr(arg, "value", arg),
)
def test_warm_calls_touch_no_fresh_pages(what, strategy):
    """After three warm-up calls, each call takes under 500 minor page faults.

    Without a reused workspace the pairwise desk step faults in about 28 MB
    of fresh pages, some 6,600-7,100 faults, whenever the allocator has
    trimmed the heap between steps. The sequential step, which absorbed its
    sites one [B, chi, chi] matrix at a time from the heap, took 150-2,200;
    it now absorbs them all into one workspace stack.
    """
    model = init_model(196, 10, 10, seed=0)
    rng = np.random.default_rng(0)
    if what == "desk step":
        feats, labels = encoded(model, rng, 50), rng.integers(0, 10, 50)
        call = lambda: loss_and_gradients(model, feats, labels, strategy=strategy)  # noqa: E731
    else:
        feats = encoded(model, rng, 256)
        call = lambda: forward_batch(model, feats, strategy)  # noqa: E731
    for _ in range(3):
        call()
    for _ in range(5):
        before = minor_faults()
        call()
        assert minor_faults() - before < 500
