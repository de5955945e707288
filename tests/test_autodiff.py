"""Tape recording, adjoint rules, and the finite-difference harness."""

import tracemalloc

import numpy as np
import pytest

from mpsclassify import (
    LossKind,
    Strategy,
    Tape,
    backward,
    grad_check,
    init_model,
    loss_and_gradients,
)
from mpsclassify import autodiff, contraction
from mpsclassify.autodiff import Gradients
from mpsclassify.contraction import forward_batch
from mpsclassify.encoding import encode_batch
from mpsclassify.errors import ConfigError, ConsistencyError, DimensionError, NumericError
from mpsclassify.losses import cross_entropy_loss, cross_entropy_with_grad, mean_square_with_grad
from mpsclassify.training import batch_loss


def weighted_sum(tape, y, w):
    """Record the scalar sum(y * w) so that the adjoint reaching ``y`` is ``w``."""
    letters = "ijkl"[: y.ndim]
    return tape.contract(f"{letters},{letters}->", y, w)


class KeepingWorkspace(autodiff.Workspace):
    """A tape's own workspace that keeps every array it hands out, in order."""

    def __init__(self):
        super().__init__()
        self.arrays = []

    def empty(self, shape):
        self.arrays.append(super().empty(shape))
        return self.arrays[-1]


def per_site_sweep(tape, vec, stack, rows):
    """``Tape.sweep`` as a loop of ``gather`` and ``contract`` calls, so that
    ``backward`` sends each row through the per-node rules: ``v @ A`` over
    ascending rows, ``A @ v`` over descending ones."""
    for row in rows:
        mat = tape.gather(stack, row)
        if rows.step > 0:
            vec = tape.contract("bx,bxy->by", vec, mat)
        else:
            vec = tape.contract("bxy,by->bx", mat, vec)
    return vec



class TestMatmulAdjoint:
    def test_closed_form_for_sum_of_product(self, rng):
        """loss = sum(W * (A B)): dA = W @ B^T, dB = A^T @ W."""
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        w = rng.standard_normal((3, 5))
        tape = Tape()
        tape.watch(a)
        tape.watch(b)
        c = tape.contract("ij,jk->ik", a, b)
        weighted_sum(tape, c, w)
        da, db = backward(tape, [a, b])
        np.testing.assert_allclose(da, w @ b.T, rtol=1e-14)
        np.testing.assert_allclose(db, a.T @ w, rtol=1e-14)

    def test_batched_variant(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 4, 3))
        w = rng.standard_normal((2, 3, 3))
        tape = Tape()
        tape.watch(a)
        c = tape.contract("bij,bjk->bik", a, b)
        weighted_sum(tape, c, w)
        (da,) = backward(tape, [a])
        want = w @ np.swapaxes(b, -1, -2)
        np.testing.assert_allclose(da, want, rtol=1e-14)
        with pytest.raises(ConsistencyError, match="not watched"):
            backward(tape, [a, b])


class TestTapeMechanics:
    def test_unwatched_graph_records_nothing(self, rng):
        tape = Tape()
        tape.contract("ij,jk->ik", rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
        assert tape.nodes == []

    def test_replay_reproduces_outputs(self, rng):
        model = init_model(10, 3, 4, seed=0)
        feats = encode_batch(model.feature_map, rng.uniform(0, 1, size=(3, 10)))
        labels = np.array([0, 1, 2])
        tape = Tape()
        tape.watch_model(model)
        from mpsclassify.contraction import forward_batch

        logits = forward_batch(model, feats, tape=tape)
        tape.loss(LossKind.CROSS_ENTROPY, logits, labels)
        tape.replay()  # must not raise

    def test_replay_detects_tampering(self, rng):
        a = rng.standard_normal((2, 2))
        tape = Tape()
        tape.watch(a)
        c = tape.contract("ij,jk->ik", a, a)
        weighted_sum(tape, c, np.ones((2, 2)))
        tape.nodes[0].output[0, 0] += 1.0
        with pytest.raises(ConsistencyError, match="replay"):
            tape.replay()

    def test_non_recording_tape_still_computes(self, rng):
        """A tape that watches nothing records nothing and computes the same values."""
        a = rng.standard_normal((2, 2))
        recording = Tape()
        recording.watch(a)
        silent = Tape()
        np.testing.assert_array_equal(
            silent.contract("ij,jk->ik", a, a), recording.contract("ij,jk->ik", a, a)
        )
        assert silent.nodes == [] and len(recording.nodes) == 1

    def test_zero_loss_adjoint_gives_zero_gradients(self, rng):
        a = rng.standard_normal((3, 3))
        tape = Tape()
        tape.watch(a)
        weighted_sum(tape, tape.contract("ij,jk->ik", a, a), rng.standard_normal((3, 3)))
        (da,) = backward(tape, [a], loss_adjoint=0.0)
        np.testing.assert_array_equal(da, np.zeros_like(a))

    def test_watched_array_the_output_does_not_reach_gets_zeros(self, rng):
        a = rng.standard_normal((3, 3))
        unused = rng.standard_normal((2, 4))
        tape = Tape()
        tape.watch(a)
        tape.watch(unused)
        weighted_sum(tape, tape.contract("ij,jk->ik", a, a), rng.standard_normal((3, 3)))
        da, d_unused = backward(tape, [a, unused])
        assert np.abs(da).max() > 0
        np.testing.assert_array_equal(d_unused, np.zeros((2, 4)))

    def test_adjoint_linearity_in_seed(self, rng):
        """Scaling the seed by 2 scales every adjoint exactly (binary float)."""
        model = init_model(8, 3, 3, seed=1)
        feats = encode_batch(model.feature_map, rng.uniform(0, 1, size=(2, 8)))
        from mpsclassify.contraction import forward_batch

        def run(seed_value):
            tape = Tape()
            tape.watch_model(model)
            logits = forward_batch(model, feats, tape=tape)
            tape.loss(LossKind.CROSS_ENTROPY, logits, np.array([0, 1]))
            params = [arr for _, arr in model.parameters()]
            return Gradients(*backward(tape, params, loss_adjoint=seed_value))

        one = run(1.0)
        two = run(2.0)
        for (_, g1), (_, g2) in zip(one.arrays(), two.arrays()):
            np.testing.assert_array_equal(2.0 * g1, g2)

    def test_sum_rule(self, rng):
        """Adjoints reaching x along two paths add up to the gradient.

        loss = sum((x a) * (x b)); each path's share is the gradient with the
        other path's product held constant.
        """
        x = rng.standard_normal((3, 3))
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))

        def grad_of(watch_a, watch_b):
            tape = Tape()
            tape.watch(x)
            xa = tape.contract("ij,jk->ik", x, a) if watch_a else x @ a
            xb = tape.contract("ij,jk->ik", x, b) if watch_b else x @ b
            weighted_sum(tape, xa, xb)
            return backward(tape, [x])[0]

        combined = grad_of(True, True)
        separate = grad_of(True, False) + grad_of(False, True)
        np.testing.assert_allclose(combined, separate, rtol=1e-12, atol=1e-15)

    def test_gather_and_slice_scatter_back(self, rng):
        stack = rng.standard_normal((4, 2, 2))
        tape = Tape()
        tape.watch(stack)
        row = tape.gather(stack, 2)
        w_row = rng.standard_normal((2, 2))
        weighted_sum(tape, row, w_row)
        (adj,) = backward(tape, [stack])
        want = np.zeros_like(stack)
        want[2] = w_row
        np.testing.assert_array_equal(adj, want)

        tape = Tape()
        tape.watch(stack)
        part = tape.slice_rows(stack, 1, 3)
        w_part = rng.standard_normal((2, 2, 2))
        weighted_sum(tape, part, w_part)
        (adj,) = backward(tape, [stack])
        want = np.zeros_like(stack)
        want[1:3] = w_part
        np.testing.assert_array_equal(adj, want)

    def test_pair_round_adjoint_matches_finite_differences(self, rng):
        stack = rng.standard_normal((5, 1, 3, 3))
        w = rng.standard_normal((3, 1, 3, 3))
        tape = Tape()
        tape.watch(stack)
        out = tape.pair_round(stack)
        weighted_sum(tape, out, w)
        (analytic,) = backward(tape, [stack])

        h = 1e-6
        numeric = np.zeros_like(stack)
        flat = stack.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h

            def value():
                t = Tape()
                return float((t.pair_round(stack) * w).sum())

            up = value()
            flat[k] = orig - h
            down = value()
            flat[k] = orig
            numeric.reshape(-1)[k] = (up - down) / (2 * h)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-7, atol=1e-9)

    def test_loss_node_kind_value_and_adjoint(self, rng):
        logits = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 2])
        cases = (
            (LossKind.CROSS_ENTROPY, "cross_entropy", cross_entropy_with_grad),
            (LossKind.MEAN_SQUARE, "mean_square", mean_square_with_grad),
        )
        for kind, node_kind, with_grad in cases:
            tape = Tape()
            tape.watch(logits)
            value = tape.loss(kind, logits, labels)
            want_value, want_grad, _ = with_grad(logits, labels)
            assert tape.nodes[-1].kind == node_kind
            assert float(value) == want_value
            (adj,) = backward(tape, [logits], loss_adjoint=2.0)
            np.testing.assert_array_equal(adj, 2.0 * want_grad)
        with pytest.raises(ConfigError, match="unknown loss kind"):
            Tape().loss("cross-entropy", logits, labels)

    def test_flop_counters_are_positive_and_ordered(self, rng):
        model = init_model(12, 3, 4, seed=0)
        feats = encode_batch(model.feature_map, rng.uniform(0, 1, size=(4, 12)))
        from mpsclassify.contraction import forward_batch

        tape = Tape()
        tape.watch_model(model)
        logits = forward_batch(model, feats, tape=tape)
        tape.loss(LossKind.CROSS_ENTROPY, logits, np.zeros(4, dtype=np.int64))
        assert tape.forward_flops() > 0
        assert tape.backward_flops() > 0


class TestRowAdjointsInPlace:
    """``gather``/``slice_rows`` adjoints add into one buffer per source array."""

    @staticmethod
    def zeros_shapes_in_backward(monkeypatch, model, strategy):
        """Shapes of the ``np.zeros`` and ``np.zeros_like`` arrays one ``backward`` makes."""
        feats = encode_batch(model.feature_map, np.random.default_rng(0).random((4, model.n_sites)))
        tape = Tape()
        tape.watch_model(model)
        logits = forward_batch(model, feats, strategy, tape=tape)
        tape.loss(LossKind.CROSS_ENTROPY, logits, np.array([0, 1, 2, 0]))
        shapes = []
        real_like, real = np.zeros_like, np.zeros

        def counting_like(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_like(a, *args, **kwargs)

        def counting(shape, *args, **kwargs):
            shapes.append(tuple(shape))
            return real(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros_like", counting_like)
        monkeypatch.setattr(np, "zeros", counting)
        backward(tape, [arr for _, arr in model.parameters()])
        monkeypatch.undo()
        return shapes

    def test_sequential_allocates_one_cores_buffer(self, monkeypatch):
        """The sweeps' prefix and environment arrays, the rows' factors, make the
        ``cores`` gradient directly: no dense [N-3, B, chi, chi] accumulator, and
        one ``cores``-shaped one at most."""
        model = init_model(20, 3, 3, seed=0)
        shapes = self.zeros_shapes_in_backward(monkeypatch, model, Strategy.SEQUENTIAL)
        assert (model.n_sites - 3, 4) + model.cores.shape[2:] not in shapes
        assert shapes.count(model.cores.shape) <= 1  # not one per site (N-3 = 17)

    def test_pairwise_allocates_no_row_accumulator(self, monkeypatch):
        """A pairwise training step's ``backward`` makes no ``zeros_like`` row accumulator.

        Each half's ``gather`` reads the one row of its last round, so its
        accumulator is the gathered adjoint's factors, not a [1, B, chi, chi]
        array. Each half's ``slice_rows`` of the one absorbed stack files its
        first round's factors as rows of that stack, so neither the stack
        nor ``cores`` gets a dense accumulator.
        """
        model = init_model(20, 3, 3, seed=0)
        feats = encode_batch(model.feature_map, np.random.default_rng(0).random((4, model.n_sites)))
        shapes = []
        real = np.zeros_like

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np, "zeros_like", counting)
        loss_and_gradients(model, feats, np.array([0, 1, 2, 0]))
        assert shapes == []

    @pytest.mark.parametrize("rows_first", [True, False])
    def test_gathered_and_dense_array_matches_finite_differences(self, rng, rows_first):
        """x reaches the loss through gather, slice_rows and a dense contract.

        ``rows_first`` records the row nodes before the dense use, so backward
        adds the rows into the dense adjoint; otherwise the dense adjoint is
        added into the row buffer.
        """
        x = rng.standard_normal((4, 3))
        u = rng.standard_normal(3)
        v = rng.standard_normal(4)
        w = rng.standard_normal((2, 3))

        def loss(tape):
            if rows_first:
                row, part = tape.gather(x, 1), tape.slice_rows(x, 2, 4)
                dense = tape.contract("ij,j->i", x, u)
            else:
                dense = tape.contract("ij,j->i", x, u)
                row, part = tape.gather(x, 1), tape.slice_rows(x, 2, 4)
            return tape.contract("i,i,j,kj,kj->", dense, v, row, part, w)

        tape = Tape()
        tape.watch(x)
        loss(tape)
        (analytic,) = backward(tape, [x])

        h = 1e-6
        numeric = np.zeros_like(x)
        for k in range(x.size):
            orig = x.flat[k]
            x.flat[k] = orig + h
            up = float(loss(Tape()))
            x.flat[k] = orig - h
            down = float(loss(Tape()))
            x.flat[k] = orig
            numeric.flat[k] = (up - down) / (2 * h)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-7, atol=1e-9)


class TestAdjointLifetimes:
    """``backward`` drops each adjoint once its producer has passed it on."""

    def test_backward_peak_on_a_desk_sequential_tape(self):
        """Desk recipe, batch 50: no adjoint outlives the node that produced its array.

        Keeping all 584 nodes' adjoints of the per-site sweep to the end
        traced about 9.3 MiB here. Now about 1.9 MiB: this tape has its own
        workspace, so each half's environment buffer is a new array, held
        with the prefix buffer as the rows' factors until the absorb reads
        them in place (the row factors filed one per ``gather`` and copied
        into blocks of 8 rows traced 1.6 MiB). The tape holds 8 nodes: the
        three end absorbs, the stack's absorb, one node per sweep half, the
        label combine and the loss.
        """
        model = init_model(196, 10, 10, seed=0)
        rng = np.random.default_rng(0)
        feats = encode_batch(model.feature_map, rng.random((50, 196)))
        tape = Tape()
        tape.watch_model(model)
        logits = forward_batch(model, feats, Strategy.SEQUENTIAL, tape=tape)
        tape.loss(LossKind.CROSS_ENTROPY, logits, rng.integers(0, 10, 50))
        params = [arr for _, arr in model.parameters()]
        tracemalloc.start()
        try:
            grads = backward(tape, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tape.nodes) == 8
        assert all(np.abs(g).max() > 0 for g in grads)
        assert peak < 2 * 2**20, f"backward traced {peak / 2**20:.2f} MiB"

    def test_intermediate_arrays_in_wrt_keep_their_adjoints(self, rng):
        """loss = sum(W * (A B)[1]): d(row) = W, d(AB) = W in row 1, dA = d(AB) B^T."""
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        w = rng.standard_normal(5)
        tape = Tape()
        tape.watch(a)
        c = tape.contract("ij,jk->ik", a, b)
        row = tape.gather(c, 1)
        weighted_sum(tape, row, w)
        da, dc, drow = backward(tape, [a, c, row])
        np.testing.assert_array_equal(drow, w)
        want_dc = np.zeros_like(c)
        want_dc[1] = w
        np.testing.assert_array_equal(dc, want_dc)
        np.testing.assert_allclose(da, want_dc @ b.T, rtol=1e-14)


class TestFactoredAdjoints:
    """Rank-one adjoints ``(u, v)`` carried through the pairwise rounds stand for ``u ⊗ v``."""

    @pytest.mark.parametrize("rows", range(2, 8))
    @pytest.mark.parametrize("batch", [1, 3])
    def test_round_rule_matches_the_dense_rule(self, rng, rows, batch):
        """Odd row counts carry their last row through both rules."""
        stack = rng.standard_normal((rows, batch, 4, 4))
        out = rows - rows // 2
        factors = rng.standard_normal((out, batch, 4)), rng.standard_normal((out, batch, 4))
        node = autodiff.Node("pair_round", (stack,), (True,), None)
        ((_, factored),) = autodiff._input_adjoints(node, factors)
        ((_, dense),) = autodiff._input_adjoints(node, autodiff._outer(factors))
        assert isinstance(factored, tuple) and not isinstance(dense, tuple)
        got = autodiff._outer(factored)
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-13 * np.abs(dense).max())

    def test_every_desk_round_gets_factors(self, monkeypatch):
        """Seven rounds per half; the last one's output is gathered, so it gets row factors."""
        model = init_model(196, 10, 10, seed=0)
        rng = np.random.default_rng(0)
        feats = encode_batch(model.feature_map, rng.random((50, 196)))
        seeds = []
        real = autodiff._input_adjoints

        def recording(node, g):
            if node.kind == "pair_round":
                seeds.append(type(g))
            return real(node, g)

        monkeypatch.setattr(autodiff, "_input_adjoints", recording)
        loss_and_gradients(model, feats, rng.integers(0, 10, 50))
        assert seeds == ([autodiff._Rows] + [tuple] * 6) * 2

    @staticmethod
    def gradients(monkeypatch, model, strategy, expand):
        """Expanded, every adjoint is dense: each row of a sweep then goes
        through ``_input_adjoints`` as its own ``contract`` node, not the sweep
        node's rule, which files factors."""
        if expand:
            real = autodiff._input_adjoints

            def expanding(node, g):
                for i, adj in real(node, g):
                    yield i, autodiff._dense(adj)

            monkeypatch.setattr(autodiff, "_input_adjoints", expanding)
            monkeypatch.setattr(Tape, "sweep", per_site_sweep)
        rng = np.random.default_rng(1)
        feats = encode_batch(model.feature_map, rng.random((6, model.n_sites)))
        _, grads = loss_and_gradients(
            model, feats, rng.integers(0, model.n_labels, 6), strategy=strategy
        )
        monkeypatch.undo()
        return [arr for _, arr in grads.arrays()]

    def assert_factors_change_nothing(self, monkeypatch, model, strategy):
        factored = self.gradients(monkeypatch, model, strategy, expand=False)
        dense = self.gradients(monkeypatch, model, strategy, expand=True)
        for got, want in zip(factored, dense):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("strategy", [Strategy.PAIRWISE, Strategy.SEQUENTIAL])
    @pytest.mark.parametrize("sites, chi", [(196, 10), (784, 10), (196, 32)])
    def test_desk_gradients_match_dense_adjoints(self, monkeypatch, strategy, sites, chi):
        model = init_model(sites, 10, chi, seed=0)
        self.assert_factors_change_nothing(monkeypatch, model, strategy)

    @pytest.mark.parametrize("strategy", [Strategy.PAIRWISE, Strategy.SEQUENTIAL])
    @pytest.mark.parametrize("sites", [11, 12])
    def test_every_label_site_matches_dense_adjoints(self, monkeypatch, strategy, sites):
        """Halves of 0-9 sites, one-matrix halves with no rounds among them."""
        for label_site in range(1, sites - 1):
            model = init_model(sites, 3, 3, seed=label_site, label_site=label_site)
            self.assert_factors_change_nothing(monkeypatch, model, strategy)


class TestRowFactors:
    """A ``gather`` or ``slice_rows`` fed factors files them as rows' factors of
    the source (``_Rows``)."""

    @staticmethod
    def sweep(tape, cores, feats, rows, w):
        """sum(w * (1 M_r1 M_r2 ...)) over the absorbed stack's ``rows``, as the sequential sweep reads them."""
        stack = tape.contract("sdxy,bsd->sbxy", cores, feats, kind="absorb")
        vec = np.ones(feats.shape[:1] + cores.shape[2:3])
        for row in rows:
            vec = tape.contract("bx,bxy->by", vec, tape.gather(stack, row))
        return stack, tape.contract("by,by->", vec, w)

    def gradients(self, monkeypatch, cores, feats, rows, w, expand, wrt=("cores",)):
        if expand:
            real = autodiff._input_adjoints

            def expanding(node, g):
                for i, adj in real(node, g):
                    yield i, autodiff._dense(adj)

            monkeypatch.setattr(autodiff, "_input_adjoints", expanding)
        tape = Tape()
        tape.watch(cores)
        tape.watch(feats)
        stack, _ = self.sweep(tape, cores, feats, rows, w)
        arrays = {"cores": cores, "feats": feats, "stack": stack}
        grads = backward(tape, [arrays[name] for name in wrt])
        monkeypatch.undo()
        return grads

    def numeric(self, cores, feats, rows, w, h=1e-6):
        out = np.zeros_like(cores)
        for k in range(cores.size):
            orig = cores.flat[k]
            cores.flat[k] = orig + h
            up = float(self.sweep(Tape(), cores, feats, rows, w)[1])
            cores.flat[k] = orig - h
            down = float(self.sweep(Tape(), cores, feats, rows, w)[1])
            cores.flat[k] = orig
            out.flat[k] = (up - down) / (2 * h)
        return out

    @pytest.mark.parametrize(
        "rows",
        [(0, 1, 2, 3, 4), (3, 1, 3), (4,), (2, 0)],
        ids=["every-row", "a-row-twice", "one-row", "rows-never-gathered"],
    )
    def test_matches_dense_adjoints_and_finite_differences(self, monkeypatch, rng, rows):
        cores = rng.standard_normal((5, 2, 3, 3)) * 0.5
        feats = rng.random((4, 5, 2))
        w = rng.standard_normal((4, 3))
        (got,) = self.gradients(monkeypatch, cores, feats, rows, w, expand=False)
        (dense,) = self.gradients(monkeypatch, cores, feats, rows, w, expand=True)
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-13 * np.abs(dense).max())
        np.testing.assert_allclose(got, self.numeric(cores, feats, rows, w), rtol=1e-7, atol=1e-9)
        never = sorted(set(range(5)) - set(rows))
        assert not got[never].any()

    def test_a_source_in_wrt_gets_its_dense_adjoint(self, monkeypatch, rng):
        """The stack's row factors make the ``cores`` and feature gradients, and are returned expanded."""
        cores = rng.standard_normal((5, 2, 3, 3)) * 0.5
        feats = rng.random((4, 5, 2))
        w = rng.standard_normal((4, 3))
        rows, wrt = (1, 3), ("cores", "stack", "feats")
        got = self.gradients(monkeypatch, cores, feats, rows, w, expand=False, wrt=wrt)
        dense = self.gradients(monkeypatch, cores, feats, rows, w, expand=True, wrt=wrt)
        assert not any(isinstance(g, (tuple, dict)) for g in got)
        assert got[1].shape == (5, 4, 3, 3) and not got[1][[0, 2, 4]].any()
        for g, want in zip(got, dense):
            np.testing.assert_allclose(g, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("reduce", ["sweep", "rounds"])
    def test_a_slice_files_its_factors_as_rows_of_its_source(self, monkeypatch, rng, reduce):
        """Rows 1..3 of the stack, sliced, then swept (row factors reach the
        slice) or reduced in rounds (factors reach it): the absorb gets one
        run of rows 1..3, and the gradients match the dense rules."""
        cores = rng.standard_normal((5, 2, 3, 3)) * 0.5
        feats = rng.random((4, 5, 2))
        w = rng.standard_normal((4, 3))

        def loss(tape):
            stack = tape.contract("sdxy,bsd->sbxy", cores, feats, kind="absorb")
            half = tape.slice_rows(stack, 1, 4)
            vec = np.ones((4, 3))
            if reduce == "sweep":
                vec = tape.sweep(vec, half, range(3))
            else:
                while half.shape[0] > 1:
                    half = tape.pair_round(half)
                vec = tape.contract("bx,bxy->by", vec, tape.gather(half, 0))
            return tape.contract("by,by->", vec, w)

        seeds = []
        real = autodiff._input_adjoints

        def recording(node, g):
            if node.kind == "absorb":
                seeds.append([(r.start, r.stop) for r, _, _ in g.runs])
            return real(node, g)

        grads = []
        for rule in (recording, lambda node, g: real(node, autodiff._dense(g))):
            monkeypatch.setattr(autodiff, "_input_adjoints", rule)
            tape = Tape()
            tape.watch(cores)
            tape.watch(feats)
            loss(tape)
            grads.append(backward(tape, [cores, feats]))
        monkeypatch.undo()
        assert seeds == [[(1, 4)]]
        for got, want in zip(*grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
        assert not grads[0][0][[0, 4]].any()

    def test_a_watched_leaf_read_by_rows_gets_its_dense_adjoint(self, rng):
        stack = rng.standard_normal((4, 2, 3, 3))
        v = rng.standard_normal((2, 3))
        tape = Tape()
        tape.watch(stack)
        tape.contract("by,by->", tape.contract("bx,bxy->by", v, tape.gather(stack, 2)), v)
        (got,) = backward(tape, [stack])
        want = np.zeros_like(stack)
        want[2] = v[:, :, None] * v[:, None, :]
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("run_rows", [1, 2, 5])
    def test_absorb_rule_matches_the_dense_rule(self, rng, run_rows):
        """Runs of one row, two rows (the last one short) and all rows, the second run
        left unfiled where there is one, and the same runs filed descending, as a
        right half's sweep files them."""
        cores, feats = rng.standard_normal((5, 2, 3, 3)), rng.random((4, 5, 2))
        node = autodiff.Node("absorb", (cores, feats), (True, False), None, "sdxy,bsd->sbxy")
        u, v = rng.standard_normal((5, 4, 3)), rng.standard_normal((5, 4, 3))
        spans = [range(lo, min(lo + run_rows, 5)) for lo in range(0, 5, run_rows)]
        spans = spans[:1] + spans[2:]
        ascending, descending = {}, {}
        for rows in spans:
            run = u[rows.start : rows.stop], v[rows.start : rows.stop]
            autodiff._file(ascending, cores, rows, *run)
            autodiff._file(descending, cores, rows[::-1], run[0][::-1], run[1][::-1])
        filed = [acc[id(cores)] for acc in (ascending, descending)]
        assert all(isinstance(g, autodiff._Rows) and len(g.runs) == len(spans) for g in filed)
        for g in [(u, v)] + filed:
            ((_, got),) = autodiff._input_adjoints(node, g)
            ((_, want),) = autodiff._input_adjoints(node, autodiff._dense(g))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("strategy", [Strategy.SEQUENTIAL, Strategy.PAIRWISE])
    @pytest.mark.parametrize("sites, chi", [(196, 10), (784, 10), (196, 32)])
    def test_every_row_reaches_the_absorb_as_factors(self, monkeypatch, sites, chi, strategy):
        """Each half files its rows as one run: a sweep its prefix and
        environment arrays, the pairwise rounds their first round's factors
        through the half's ``slice_rows``."""
        model = init_model(sites, 10, chi, seed=0)
        rng = np.random.default_rng(0)
        feats = encode_batch(model.feature_map, rng.random((6, sites)))
        seeds = []
        real = autodiff._input_adjoints

        def recording(node, g):
            if node.kind == "absorb":
                seeds.append(sorted((r.start, r.stop) for r, _, _ in g.runs)
                             if isinstance(g, autodiff._Rows) else None)
            return real(node, g)

        monkeypatch.setattr(autodiff, "_input_adjoints", recording)
        loss_and_gradients(model, feats, rng.integers(0, 10, 6), strategy=strategy)
        m = model.label_site
        assert [(0, m - 1), (m - 1, sites - 3)] in seeds


class TestSweep:
    """``Tape.sweep`` records one node per call, whose logits, FLOP counts and
    gradients are those of a loop of ``gather`` and ``contract``."""

    @staticmethod
    def per_site(model, feats, tape):
        """The taped sequential forward with one ``gather`` and one ``contract`` call per site."""
        m, n = model.label_site, model.n_sites
        lv, lab, rv = contraction._absorb_ends(model, feats, tape)
        bond_feats = np.concatenate((feats[:, 1:m], feats[:, m + 1 : n - 1]), axis=1)
        stack = tape.contract("sdxy,bsd->sbxy", model.cores, bond_feats, kind="absorb")
        lv = per_site_sweep(tape, lv, stack, range(m - 1))
        rv = per_site_sweep(tape, rv, stack, range(n - 4, m - 2, -1))
        return tape.contract("by,blxy,bx->bl", rv, lab, lv, kind="combine")

    def assert_matches_the_loop(self, model, feats, labels, read_again=False):
        """The sequential forward and ``per_site`` give the same logits, FLOP
        counts and gradient bytes, and both replay.

        With ``read_again``, a further contraction scales the logits by the
        two halves' final vectors, the label combine's outer operands, which
        ``backward`` is also asked for.
        """
        tapes, logits, grads = [], [], []
        for forward in (lambda t: forward_batch(model, feats, Strategy.SEQUENTIAL, tape=t),
                        lambda t: self.per_site(model, feats, t)):
            tape = Tape()
            tape.watch_model(model)
            logits.append(forward(tape))
            out, combine = logits[-1], tape.nodes[-1]
            vectors = [combine.inputs[0], combine.inputs[2]] if read_again else []
            for vec in vectors:
                w = np.linspace(0.5, 1.5, vec.shape[1])
                out = tape.contract("bl,bx,x->bl", out, vec, w)
            tape.loss(LossKind.CROSS_ENTROPY, out, labels)
            tape.replay()
            tapes.append(tape)
            grads.append(backward(tape, [arr for _, arr in model.parameters()] + vectors))
        assert logits[0].tobytes() == logits[1].tobytes()
        assert tapes[0].forward_flops() == tapes[1].forward_flops()
        assert tapes[0].backward_flops() == tapes[1].backward_flops()
        for got, want in zip(*grads):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_sites", [5, 6, 7, 8])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_matches_the_per_site_loop(self, rng, n_sites, batch):
        """Halves of 0 to 5 sites, odd and even; label site 1 and N-2 leave a half empty."""
        for label_site in range(1, n_sites - 1):
            model = init_model(n_sites, 3, 3, seed=label_site, label_site=label_site)
            feats = encode_batch(model.feature_map, rng.random((batch, n_sites)))
            self.assert_matches_the_loop(model, feats, rng.integers(0, 3, batch))

    def test_matches_the_per_site_loop_at_the_desk_shape(self, rng):
        model = init_model(196, 10, 10, seed=0)
        feats = encode_batch(model.feature_map, rng.random((50, 196)))
        self.assert_matches_the_loop(model, feats, rng.integers(0, 10, 50))

    def test_vectors_read_again_and_in_wrt_match_the_per_site_loop(self, rng):
        """Halves of 4 and 3 sites: both final vectors are read by a further
        contraction and asked for."""
        model = init_model(10, 3, 3, seed=0, label_site=5)
        feats = encode_batch(model.feature_map, rng.random((3, 10)))
        self.assert_matches_the_loop(model, feats, rng.integers(0, 3, 3), read_again=True)

    def test_a_desk_backward_sends_no_sweep_row_through_the_node_rules(self, monkeypatch, rng):
        """A desk step records 8 nodes, one per sweep half; each sweep node
        reverses its run itself, so only the 6 others reach ``_input_adjoints``."""
        model = init_model(196, 10, 10, seed=0)
        feats = encode_batch(model.feature_map, rng.random((50, 196)))
        tape = Tape()
        tape.watch_model(model)
        logits = forward_batch(model, feats, Strategy.SEQUENTIAL, tape=tape)
        tape.loss(LossKind.CROSS_ENTROPY, logits, rng.integers(0, 10, 50))
        sweeps = [node for node in tape.nodes if isinstance(node, autodiff._SweepNode)]
        dispatched = []
        real = autodiff._input_adjoints

        def recording(node, g):
            dispatched.append(node)
            return real(node, g)

        monkeypatch.setattr(autodiff, "_input_adjoints", recording)
        backward(tape, [arr for _, arr in model.parameters()])
        assert len(sweeps) == 2 and len(tape.nodes) == 8
        assert not any(isinstance(node, autodiff._SweepNode) for node in dispatched)
        assert len(dispatched) <= 6

    @pytest.mark.parametrize(
        "rows", [range(1, 4), range(3, 0, -1), range(5), range(4, -1, -1), range(2, 3)]
    )
    @pytest.mark.parametrize("form", ["bx,bxy->by", "bxy,by->bx"])
    @pytest.mark.parametrize("watched", ["both", "vec", "stack"])
    def test_gradients_match_the_loop_for_any_rows(self, rng, rows, form, watched):
        """Some rows or all, either way, and one row, each row of the stack met
        as ``form``: ``v @ A`` or ``A @ v``. Where that is not the product the
        rows' direction makes, both sweeps are given the stack as a transposed
        view, whose rows they step the other way."""
        stack = rng.standard_normal((5, 2, 3, 3))
        if (form == "bx,bxy->by") != (rows.step > 0):
            stack = stack.swapaxes(-1, -2)
        vec, w = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        wrt = [x for name, x in (("stack", stack), ("vec", vec)) if watched in ("both", name)]
        grads = []
        for sweep in (Tape.sweep, per_site_sweep):
            tape = Tape()
            for x in wrt:
                tape.watch(x)
            weighted_sum(tape, sweep(tape, vec, stack, rows), w)
            grads.append(backward(tape, wrt))
        for got, want in zip(*grads):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("batch", [1, 3, 50])
    @pytest.mark.parametrize("form", ["bx,bxy->by", "bxy,by->bx"])
    def test_every_row_of_every_form_is_numpys_product(self, rng, batch, form):
        """Each prefix row is ``np.einsum`` of the row product ``form``, ``v @ A``
        over ascending rows and ``A @ v`` over descending ones, and each
        environment row, the input vector's adjoint included, ``np.einsum`` of
        the vector's adjoint form, bit for bit; and the node replays."""
        ascending = form == "bx,bxy->by"
        adjoint = "by,bxy->bx" if ascending else "bxy,bx->by"

        def operands(vec, mat):
            return (vec, mat) if ascending else (mat, vec)

        stack, vec = rng.standard_normal((5, batch, 4, 4)), rng.standard_normal((batch, 4))
        rows = range(1, 5) if ascending else range(4, 0, -1)
        tape = Tape()
        tape.workspace = KeepingWorkspace()
        tape.watch(stack)
        tape.watch(vec)
        w = rng.standard_normal((batch, 4))
        weighted_sum(tape, tape.sweep(vec, stack, rows), w)
        tape.replay()
        (vec_adjoint,) = backward(tape, [vec])
        prefix, env = tape.workspace.arrays
        for j, mat in enumerate(stack[list(rows)]):
            want = np.einsum(form, *operands(prefix[j], mat), optimize=True)
            assert prefix[j + 1].shape == want.shape and prefix[j + 1].tobytes() == want.tobytes()
            got = env[j - 1] if j else vec_adjoint
            want = np.einsum(adjoint, *operands(env[j], mat), optimize=True)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("watched", ["both", "vec", "stack", "none"])
    def test_unwatched_operands_record_what_the_loop_records(self, rng, watched):
        """Same outputs and forward FLOPs; the backward count differs only where
        the stack alone is watched: the loop also counts the vector adjoints of
        its later rows, the sweep node only the matrices'."""
        stack, vec = rng.standard_normal((5, 2, 3, 3)), rng.standard_normal((2, 3))
        tapes = [Tape(), Tape()]
        for tape in tapes:
            if watched in ("both", "vec"):
                tape.watch(vec)
            if watched in ("both", "stack"):
                tape.watch(stack)
        rows = range(4, 0, -1)
        got = tapes[0].sweep(vec, stack, rows)
        want = per_site_sweep(tapes[1], vec, stack, rows)
        assert got.tobytes() == want.tobytes()
        assert len(tapes[0].nodes) == (watched != "none")
        for tape in tapes:
            tape.replay()
        assert tapes[0].forward_flops() == tapes[1].forward_flops()
        vector_adjoints = (len(rows) - 1) * 2 * 2 * 3 * 3 if watched == "stack" else 0
        assert tapes[0].backward_flops() + vector_adjoints == tapes[1].backward_flops()

    def test_a_tape_that_does_not_record_only_computes(self, rng):
        """A tape that watches nothing sweeps without recording a node."""
        stack, vec = rng.standard_normal((4, 2, 3, 3)), rng.standard_normal((2, 3))
        tape = Tape()
        got = tape.sweep(vec, stack, range(4))
        want = vec
        for row in range(4):
            want = np.einsum("bx,bxy->by", want, stack[row])
        np.testing.assert_allclose(got, want, rtol=1e-14)
        assert tape.nodes == []
        assert tape.sweep(vec, stack, range(0)) is vec

    @pytest.mark.parametrize("rows", [range(0, 5), range(-1, 1), range(7, 1, -1)])
    def test_a_row_out_of_range_is_named_before_any_record(self, rng, rows):
        stack, vec = rng.standard_normal((4, 2, 3, 3)), rng.standard_normal((2, 3))
        tape = Tape()
        tape.watch(stack)
        with pytest.raises(DimensionError, match="out of range"):
            tape.sweep(vec, stack, rows)
        assert tape.nodes == []

    @pytest.mark.parametrize(
        "rows", [(0, 1, 2), range(0, 4, 2), (2, 2, 3)], ids=["tuple", "step-2", "a-row-twice"]
    )
    def test_rows_that_are_no_unit_step_range_are_refused_before_any_record(self, rng, rows):
        stack, vec = rng.standard_normal((4, 2, 3, 3)), rng.standard_normal((2, 3))
        tape = Tape()
        tape.watch(stack)
        with pytest.raises(DimensionError, match="range of step 1 or -1"):
            tape.sweep(vec, stack, rows)
        assert tape.nodes == []

    def test_rows_that_are_no_square_matrix_per_image_are_refused_before_any_record(self, rng):
        """A non-square stack would change the vector's shape; a batch-less one
        would have a row adjoint summed over the batch, no outer product."""
        vec = rng.standard_normal((2, 3))
        for shape in [(2, 2, 3, 4), (2, 3, 3)]:
            stack = rng.standard_normal(shape)
            tape = Tape()
            tape.watch(stack)
            tape.watch(vec)
            with pytest.raises(DimensionError, match=r"\[B, chi\] vector"):
                tape.sweep(vec, stack, range(2))
            assert tape.nodes == []

    def test_replay_names_a_sweep_whose_output_row_was_overwritten(self, rng):
        stack, vec = rng.standard_normal((4, 2, 3, 3)), rng.standard_normal((2, 3))
        tape = Tape()
        tape.watch(stack)
        weighted_sum(tape, tape.sweep(vec, stack, range(4)), np.ones((2, 3)))
        tape.replay()
        tape.nodes[0].output[1] += 1.0
        with pytest.raises(ConsistencyError, match=r"node 0 \(contract\)"):
            tape.replay()

    def test_backward_seeds_the_final_vector_of_a_tape_ending_in_a_sweep(self, rng):
        stack, vec = rng.standard_normal((5, 2, 3, 3)), rng.standard_normal((2, 3))
        tapes, grads = [], []
        for sweep in (Tape.sweep, per_site_sweep):
            tapes.append(Tape())
            tapes[-1].watch(stack)
            tapes[-1].watch(vec)
            final = sweep(tapes[-1], vec, stack, range(4, 0, -1))
            grads.append(backward(tapes[-1], [stack, vec, final], loss_adjoint=0.5))
        assert [type(node) for node in tapes[0].nodes] == [autodiff._SweepNode]
        np.testing.assert_array_equal(grads[0][2], np.full((2, 3), 0.5))
        for got, want in zip(*grads):
            assert got.tobytes() == want.tobytes()


class TestModelGradients:
    def test_requires_watched_model(self, rng):
        model = init_model(8, 2, 2, seed=0)
        other = init_model(8, 2, 2, seed=1)
        feats = encode_batch(model.feature_map, rng.uniform(0, 1, size=(1, 8)))
        tape = Tape()
        tape.watch_model(model)
        from mpsclassify.contraction import forward_batch

        logits = forward_batch(model, feats, tape=tape)
        tape.loss(LossKind.CROSS_ENTROPY, logits, np.array([0]))
        with pytest.raises(ConsistencyError, match="watched"):
            backward(tape, [arr for _, arr in other.parameters()])

    def test_shapes_match_model(self, rng):
        model = init_model(9, 4, 3, seed=2)
        feats = encode_batch(model.feature_map, rng.uniform(0, 1, size=(2, 9)))
        _, grads = loss_and_gradients(model, feats, np.array([1, 3]))
        for (name, g), (_, p) in zip(grads.arrays(), model.parameters()):
            assert g.shape == p.shape, name

    def test_label_core_softmax_coupling(self, rng):
        """CE gradients are nonzero even for label slices absent from the batch."""
        model = init_model(8, 4, 3, seed=5)
        feats = encode_batch(model.feature_map, rng.uniform(0, 1, size=(2, 8)))
        labels = np.array([0, 0])  # labels 1..3 never appear
        _, grads = loss_and_gradients(model, feats, labels)
        for absent in (1, 2, 3):
            assert np.abs(grads.label_core[:, absent]).max() > 0

    def test_strategy_choice_does_not_change_gradients(self, rng):
        model = init_model(11, 3, 4, seed=7)
        feats = encode_batch(model.feature_map, rng.uniform(0, 1, size=(3, 11)))
        labels = np.array([0, 1, 2])
        _, via_pair = loss_and_gradients(model, feats, labels, strategy=Strategy.PAIRWISE)
        _, via_seq = loss_and_gradients(model, feats, labels, strategy=Strategy.SEQUENTIAL)
        for (_, gp), (_, gs) in zip(via_pair.arrays(), via_seq.arrays()):
            np.testing.assert_allclose(gp, gs, rtol=1e-11, atol=1e-14)


class TestGradCheck:
    def test_passes_on_toy_model(self, rng):
        model = init_model(8, 3, 3, seed=0)
        images = rng.uniform(0, 1, size=(2, 8))
        labels = rng.integers(0, 3, size=2)
        report = grad_check(model, images, labels)
        assert report.passed
        assert report.max_rel_err < 1e-6
        assert "PASS" in report.format_table()

    def test_large_step_is_flagged_not_crashed(self, rng):
        """h = 0.1 inflates truncation error; the harness reports, not raises."""
        model = init_model(8, 3, 3, seed=0)
        images = rng.uniform(0, 1, size=(2, 8))
        labels = rng.integers(0, 3, size=2)
        report = grad_check(model, images, labels, h=0.1, tolerance=1e-9)
        assert not report.passed
        assert "FAIL" in report.format_table()

    @pytest.mark.parametrize("option", ["h", "tolerance"])
    @pytest.mark.parametrize("value", [0.0, -1e-5, float("nan"), float("inf")])
    def test_a_step_or_tolerance_that_is_not_positive_and_finite_is_refused(
        self, rng, option, value
    ):
        """Named before any difference is taken, not a ZeroDivisionError."""
        model = init_model(6, 2, 2, seed=3)
        images = rng.uniform(0, 1, size=(1, 6))
        with pytest.raises(ConfigError, match=f"{option} must be positive and finite"):
            grad_check(model, images, np.array([1]), **{option: value})

    def test_deterministic(self, rng):
        model = init_model(6, 2, 2, seed=3)
        images = rng.uniform(0, 1, size=(1, 6))
        labels = np.array([1])
        a = grad_check(model, images, labels)
        b = grad_check(model, images, labels)
        assert a.max_rel_err == b.max_rel_err

    def test_mean_square_loss_kind(self, rng):
        model = init_model(7, 3, 2, seed=4)
        images = rng.uniform(0, 1, size=(2, 7))
        labels = np.array([0, 2])
        report = grad_check(model, images, labels, loss_kind=LossKind.MEAN_SQUARE)
        assert report.passed

    def test_batch_loss_agrees_with_taped_value(self, rng):
        model = init_model(9, 3, 3, seed=6)
        feats = encode_batch(model.feature_map, rng.uniform(0, 1, size=(4, 9)))
        labels = np.array([0, 1, 2, 1])
        taped, _ = loss_and_gradients(model, feats, labels)
        assert abs(batch_loss(model, feats, labels) - taped) <= 1e-12 * abs(taped)


class TestSoftmaxHelper:
    """The softmax probabilities that ``cross_entropy_with_grad`` returns."""

    @staticmethod
    def softmax(logits):
        labels = np.zeros(logits.shape[0], dtype=np.int64)
        return cross_entropy_with_grad(logits, labels)[2]

    def test_rows_sum_to_one(self, rng):
        p = self.softmax(rng.standard_normal((4, 6)))
        np.testing.assert_allclose(p.sum(axis=1), np.ones(4), rtol=1e-14)

    def test_large_logits_do_not_overflow(self):
        p = self.softmax(np.array([[1000.0, 0.0]]))
        np.testing.assert_allclose(p, [[1.0, 0.0]], atol=1e-300)

    def test_matches_cross_entropy_probabilities(self, rng):
        logits = rng.standard_normal((3, 4))
        labels = np.array([0, 1, 2])
        value = cross_entropy_loss(logits, labels)
        shifted = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(self.softmax(logits), p, rtol=1e-14)
        direct = -np.log(p[np.arange(3), labels]).mean()
        np.testing.assert_allclose(value, direct, rtol=1e-12)


def _non_finite_gradients():
    model = init_model(4, 2, 2, seed=0)
    arrays = {name: np.zeros_like(arr) for name, arr in model.parameters()}
    arrays["label_core"][0, 0, 0, 0] = np.inf
    return Gradients(**arrays)


@pytest.mark.parametrize(
    "call, error, named",
    [
        (lambda: _non_finite_gradients().check_finite(), NumericError, "label_core"),
        (lambda: Tape().pair_round(np.zeros((4, 2, 3, 2))), DimensionError, r"\(4, 2, 3, 2\)"),
        (lambda: Tape().pair_round(np.zeros((1, 2, 3, 3))), DimensionError, r"\(1, 2, 3, 3\)"),
        (lambda: Tape().gather(np.zeros((3, 2)), 3), DimensionError, "index 3"),
        (lambda: Tape().slice_rows(np.zeros((3, 2)), 1, 4), DimensionError, r"\[1:4\]"),
        (lambda: Tape().gather(np.zeros((3, 2)), 1.5), DimensionError, "index must be an integer"),
        (lambda: Tape().gather(np.zeros((3, 2)), "1"), DimensionError, "index must be an integer"),
        (lambda: Tape().slice_rows(np.zeros((3, 2)), 0.5, 2), DimensionError,
         "start must be an integer"),
        (lambda: Tape().slice_rows(np.zeros((3, 2)), 0, 2.0), DimensionError,
         "stop must be an integer"),
    ],
    ids=["non-finite-gradient", "non-square-round", "one-row-round", "gather-index",
         "slice-range", "float-gather-index", "string-gather-index", "float-slice-start",
         "float-slice-stop"],
)
def test_a_bad_argument_is_refused_by_value(call, error, named):
    with pytest.raises(error, match=named):
        call()
