"""The pairwise schedule's reusable workspace: nothing returned aliases it, and
a warm step or evaluation batch touches no fresh pages."""

import resource

import numpy as np
import pytest

from mpsclassify import (
    LossKind,
    Strategy,
    Tape,
    absorb_inputs,
    encode_batch,
    evaluate,
    forward_batch,
    init_model,
    loss_and_gradients,
)
from mpsclassify import autodiff
from mpsclassify.contraction import _pairwise_workspace_floats
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
    chain = absorb_inputs(model, feats[0])
    keep(chain.left, chain.matrices, chain.label_block, chain.right)
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


@pytest.mark.parametrize(
    "n_sites, label_site", [(5, None), (6, 1), (6, 4), (21, None), (21, 2), (40, 7)]
)
@pytest.mark.parametrize("taped", [True, False])
def test_workspace_is_sized_exactly(monkeypatch, n_sites, label_site, taped):
    """A pairwise call takes exactly the floats it reserved, so it never runs out."""
    model = init_model(n_sites, 3, 2, seed=0, label_site=label_site)
    feats = encoded(model, np.random.default_rng(1), 5)
    reserved = []
    real = autodiff.Workspace.reserve

    def recording(self, floats):
        reserved.append(floats)
        real(self, floats)

    monkeypatch.setattr(autodiff.Workspace, "reserve", recording)
    if taped:
        loss_and_gradients(model, feats, np.arange(5) % 3)
    else:
        forward_batch(model, feats)
    assert reserved == [_pairwise_workspace_floats(model, 5, taped)]
    assert autodiff._WORKSPACE._used == reserved[0]


def test_a_borrow_while_the_workspace_is_out_gets_fresh_arrays():
    model = init_model(21, 4, 3, seed=0)
    feats = encoded(model, np.random.default_rng(2), 6)
    want = forward_batch(model, feats)
    with autodiff.lend_workspace(Tape(), 0) as holder:
        assert holder.workspace is autodiff._WORKSPACE
        got = forward_batch(model, feats)
        assert autodiff._WORKSPACE._used == 0
    assert np.array_equal(got, want)
    assert holder.workspace is not autodiff._WORKSPACE


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.parametrize("what", ["desk step", "eval batch"])
def test_warm_pairwise_calls_touch_no_fresh_pages(what):
    """After three warm-up calls, each call takes under 500 minor page faults.

    Without a reused workspace the desk step faults in about 28 MB of fresh
    pages, some 6,600-7,100 faults, whenever the allocator has trimmed the
    heap between steps.
    """
    model = init_model(196, 10, 10, seed=0)
    rng = np.random.default_rng(0)
    if what == "desk step":
        feats, labels = encoded(model, rng, 50), rng.integers(0, 10, 50)
        call = lambda: loss_and_gradients(model, feats, labels)  # noqa: E731
    else:
        feats = encoded(model, rng, 256)
        call = lambda: forward_batch(model, feats)  # noqa: E731
    for _ in range(3):
        call()
    for _ in range(5):
        before = minor_faults()
        call()
        assert minor_faults() - before < 500
