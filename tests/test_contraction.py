"""Contraction schedules against oracles and each other."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mpsclassify import (
    Strategy,
    Tape,
    brute_force_logits,
    forward_batch,
    init_model,
    loss_and_gradients,
    predict_batch,
)
from mpsclassify import autodiff, contraction
from mpsclassify.autodiff import _node_forward_flops
from mpsclassify.encoding import FeatureMap, encode_batch
from mpsclassify.errors import ConfigError, DimensionError, NumericError


def taped_forward(model, feats, strategy):
    """Nodes recorded by a model-watching tape over one forward pass of [B, N, d]."""
    tape = Tape()
    tape.watch_model(model)
    forward_batch(model, feats, strategy, tape=tape)
    return tape


def rounds(model, feats):
    """Pairwise logits from the rounds: untaped, ``forward_batch`` sweeps for every schedule."""
    return forward_batch(model, feats, Strategy.PAIRWISE, tape=Tape())


def watch(monkeypatch, name):
    """The operand and result shapes of every later ``np.<name>`` call, as a list it fills."""
    calls, real = [], getattr(np, name)

    def watched(*ops, **kwargs):
        result = real(*ops, **kwargs)
        calls.append(tuple(np.shape(op) for op in ops) + (result.shape,))
        return result

    monkeypatch.setattr(np, name, watched)
    return calls


def absorbed(model, feats):
    """The ``absorb`` outputs of a taped pairwise forward: left, matrices, label block, right.

    ``matrices`` is [N-3, B, chi, chi] in ascending site order.
    """
    tape = taped_forward(model, feats, Strategy.PAIRWISE)
    left, label_block, right, *halves = (n.output for n in tape.nodes if n.kind == "absorb")
    return left, np.concatenate(halves), label_block, right


def flops_of(tape, match):
    return sum(_node_forward_flops(n) for n in tape.nodes if match(n))


def random_instance(rng, n_sites, n_labels, bond_dim, fmap=FeatureMap.LINEAR):
    model = init_model(
        n_sites=n_sites,
        n_labels=n_labels,
        bond_dim=bond_dim,
        seed=int(rng.integers(2**31)),
        sigma=0.3,
        feature_map=fmap,
    )
    image = rng.uniform(0.0, 1.0, size=(1, n_sites))
    return model, encode_batch(fmap, image)


class TestAbsorb:
    def test_against_nested_loop_oracle(self, rng):
        """Every effective tensor equals an explicit index summation, N=6 chi=3."""
        model, feats = random_instance(rng, 6, 2, 3)
        chain_left, matrices, label_block, _ = absorbed(model, feats)
        feats = feats[0]
        d, chi = model.local_dim, model.bond_dim

        left = np.zeros(chi)
        for x in range(chi):
            for i in range(d):
                left[x] += feats[0, i] * model.left_boundary[i, x]
        np.testing.assert_allclose(chain_left[0], left, rtol=1e-14)

        sites = [k for k in range(1, 5) if k != model.label_site]
        for pos, site in enumerate(sites):
            core = model.cores[model.core_stack_index(site)]
            want = np.zeros((chi, chi))
            for x in range(chi):
                for y in range(chi):
                    for i in range(d):
                        want[x, y] += feats[site, i] * core[i, x, y]
            np.testing.assert_allclose(matrices[pos, 0], want, rtol=1e-14)

        lab = np.zeros((model.n_labels, chi, chi))
        for l in range(model.n_labels):
            for x in range(chi):
                for y in range(chi):
                    for i in range(d):
                        lab[l, x, y] += feats[model.label_site, i] * model.label_core[i, l, x, y]
        np.testing.assert_allclose(label_block[0], lab, rtol=1e-14)

    def test_shapes(self, rng):
        model = init_model(9, 4, 2, seed=0)
        feats = encode_batch(model.feature_map, rng.uniform(0, 1, size=(3, 9)))
        left, matrices, label_block, right = absorbed(model, feats)
        assert left.shape == (3, 2)
        assert matrices.shape == (6, 3, 2, 2)
        assert label_block.shape == (3, 4, 2, 2)
        assert right.shape == (3, 2)

    def test_black_pixel_selects_first_core_slice(self, rng):
        """p=0 under the linear map pulls out the i=0 slice exactly."""
        model, _ = random_instance(rng, 6, 2, 3)
        feats = encode_batch(FeatureMap.LINEAR, np.zeros((1, 6)))
        _, matrices, label_block, _ = absorbed(model, feats)
        site = 1 if model.label_site != 1 else 2
        np.testing.assert_array_equal(
            matrices[0, 0], model.cores[model.core_stack_index(site)][0]
        )
        np.testing.assert_array_equal(label_block[0], model.label_core[0])

    def test_size_mismatch(self, rng):
        model, _ = random_instance(rng, 6, 2, 3)
        with pytest.raises(DimensionError):
            forward_batch(model, encode_batch(FeatureMap.LINEAR, np.zeros((1, 7))))


class TestStrategyAgreement:
    def test_three_way_on_random_instances(self, rng):
        for _ in range(15):
            n = int(rng.integers(4, 13))
            chi = int(rng.integers(1, 5))
            l = int(rng.integers(2, 4))
            fmap = FeatureMap.LINEAR if rng.integers(2) else FeatureMap.TRIG
            model, feats = random_instance(rng, n, l, chi, fmap)
            seq = forward_batch(model, feats, Strategy.SEQUENTIAL)[0]
            pair = rounds(model, feats)[0]
            brute = brute_force_logits(model, feats[0])
            scale = np.abs(brute).max()
            assert np.abs(seq - brute).max() <= 1e-9 * scale
            assert np.abs(pair - brute).max() <= 1e-9 * scale

    def test_chi_one_is_product_of_scalars(self, rng):
        """chi=1 collapses every effective matrix to a scalar factor."""
        model, feats = random_instance(rng, 7, 3, 1)
        left, matrices, label_block, right = absorbed(model, feats)
        direct = left[0, 0] * matrices[:, 0, 0, 0].prod() * right[0, 0]
        want = direct * label_block[0, :, 0, 0]
        for got in (forward_batch(model, feats, Strategy.SEQUENTIAL), rounds(model, feats)):
            np.testing.assert_allclose(got[0], want, rtol=1e-12)

    def test_minimal_chain_n3(self, rng):
        model, feats = random_instance(rng, 3, 2, 2)
        brute = brute_force_logits(model, feats[0])
        for got in (forward_batch(model, feats, Strategy.SEQUENTIAL), rounds(model, feats)):
            np.testing.assert_allclose(got[0], brute, rtol=1e-12)

    def test_n2_hand_checkable_sum(self, rng):
        """Tiny N=4 instance against a fully written-out assignment sum."""
        model, feats = random_instance(rng, 4, 2, 2)
        feats = feats[0]
        want = np.zeros(2)
        for i0 in range(2):
            for i1 in range(2):
                for im in range(2):
                    for i3 in range(2):
                        w = feats[0, i0] * feats[1, i1] * feats[2, im] * feats[3, i3]
                        core = model.cores[0][i1]
                        for l in range(2):
                            v = model.left_boundary[i0] @ core
                            v = v @ model.label_core[im, l]
                            want[l] += w * (v @ model.right_boundary[i3])
        np.testing.assert_allclose(brute_force_logits(model, feats), want, rtol=1e-12)
        np.testing.assert_allclose(forward_batch(model, feats[None])[0], want, rtol=1e-11)

    def test_batch_rows_match_single_calls(self, rng):
        model = init_model(10, 3, 4, seed=8)
        images = rng.uniform(0, 1, size=(6, 10))
        feats = encode_batch(model.feature_map, images)
        batch_seq = forward_batch(model, feats, Strategy.SEQUENTIAL)
        batch_pair = rounds(model, feats)
        for b in range(6):
            one = feats[b : b + 1]
            np.testing.assert_allclose(
                batch_seq[b], forward_batch(model, one, Strategy.SEQUENTIAL)[0], rtol=1e-12
            )
            np.testing.assert_allclose(
                batch_pair[b], rounds(model, one)[0], rtol=1e-12
            )

    def test_brute_force_per_image_matches_forward_batch(self, rng):
        model = init_model(6, 2, 2, seed=4)
        feats = encode_batch(model.feature_map, rng.uniform(0, 1, size=(3, 6)))
        out = np.stack([brute_force_logits(model, image) for image in feats])
        np.testing.assert_allclose(out, forward_batch(model, feats), rtol=1e-10)

    def test_strategy_names_the_two_schedules(self):
        """Brute force is the oracle function, not a third schedule."""
        assert [s.value for s in Strategy] == ["sequential", "pairwise"]

    @pytest.mark.parametrize("strategy", [Strategy.PAIRWISE, Strategy.SEQUENTIAL])
    def test_an_empty_batch_gives_an_empty_logit_array(self, rng, strategy):
        """No images give a (0, L) array of logits."""
        model = init_model(12, 3, 3, seed=4)
        feats = encode_batch(model.feature_map, rng.uniform(0, 1, size=(2, 12)))
        out = forward_batch(model, feats[:0], strategy)
        assert out.shape == (0, 3) and out.dtype == np.float64


class TestMultilinearity:
    """Logits are linear in each core with all others held fixed (untaped forward)."""

    def test_scaling_one_core_scales_logits(self, rng):
        model, feats = random_instance(rng, 9, 3, 3)
        base = forward_batch(model, feats)
        scaled = model.copy()
        scaled.cores[2] *= 2.0
        np.testing.assert_allclose(forward_batch(scaled, feats), 2.0 * base, rtol=1e-12)

    def test_two_point_probe_on_label_core(self, rng):
        model, feats = random_instance(rng, 8, 3, 3)
        a = model.copy()
        b = model.copy()
        direction = rng.standard_normal(model.label_core.shape)
        a.label_core = model.label_core + direction
        b.label_core = model.label_core - direction
        mid = 0.5 * (forward_batch(a, feats) + forward_batch(b, feats))
        np.testing.assert_allclose(mid, forward_batch(model, feats), rtol=1e-11)

    def test_boundary_additivity(self, rng):
        model, feats = random_instance(rng, 7, 2, 2)
        a = model.copy()
        b = model.copy()
        u = rng.standard_normal(model.left_boundary.shape)
        a.left_boundary = u
        b.left_boundary = model.left_boundary + u
        np.testing.assert_allclose(
            forward_batch(b, feats),
            forward_batch(model, feats) + forward_batch(a, feats),
            rtol=1e-11,
        )


class TestPairwiseRounds:
    def test_round_count_examples(self, rng):
        """A half of n matrices, the other half empty, takes ceil(log2 n) rounds."""
        for n_left, rounds in ((8, 3), (5, 3), (2, 1), (1, 0), (0, 0)):
            model = init_model(n_left + 3, 2, 2, seed=0, label_site=n_left + 1)
            feats = encode_batch(model.feature_map, rng.uniform(0, 1, size=(1, n_left + 3)))
            tape = taped_forward(model, feats, Strategy.PAIRWISE)
            assert sum(n.kind == "pair_round" for n in tape.nodes) == rounds

    @pytest.mark.parametrize("n_sites", [11, 12])
    def test_every_label_site_matches_brute_force(self, rng, n_sites):
        """Halves of 0 to 9 sites, odd and even, on both sides of the label."""
        for label_site in range(1, n_sites - 1):
            model = init_model(n_sites, 2, 3, seed=n_sites, sigma=0.3, label_site=label_site)
            feats = encode_batch(model.feature_map, rng.uniform(0, 1, size=(2, n_sites)))
            got = rounds(model, feats)
            want = np.stack([brute_force_logits(model, image) for image in feats])
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), label_site

    def test_plan_round_labels_match_formula(self, rng):
        """A chain with an 8-matrix left half reduces it in exactly 3 rounds."""
        model = init_model(18, 2, 2, seed=0)
        assert model.label_site == 9
        feats = encode_batch(model.feature_map, rng.uniform(0, 1, size=(1, 18)))
        tape = taped_forward(model, feats, Strategy.PAIRWISE)
        rows = [n.inputs[0].shape[0] for n in tape.nodes if n.kind == "pair_round"]
        assert 18 - 2 - model.label_site == 7
        assert rows == [8, 4, 2, 7, 4, 2]

    def test_odd_carry(self, rng):
        """Five matrices per half still reduce correctly (odd rounds)."""
        model, feats = random_instance(rng, 12, 2, 3)
        np.testing.assert_allclose(
            rounds(model, feats)[0], brute_force_logits(model, feats[0]), rtol=1e-10
        )


def assert_matches_a_recording_tape(model, images):
    """Untaped sequential logits against the taped form, run 16 images at a time,
    within 1e-12 of the batch's largest |logit|."""
    feats = encode_batch(model.feature_map, images)
    got = forward_batch(model, feats, Strategy.SEQUENTIAL)
    want = []
    for k in range(0, len(feats), 16):
        tape = Tape()
        tape.watch_model(model)
        want.append(forward_batch(model, feats[k : k + 16], Strategy.SEQUENTIAL, tape=tape))
        assert len(tape.nodes) > 0
    want = np.concatenate(want)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# Warm untaped 256-image desk calls in a process that never trained: the
# minor page faults per call.
FAULT_PROBE = """
import resource
import numpy as np
from mpsclassify import Strategy, forward_batch, init_model
from mpsclassify.encoding import encode_batch

model = init_model(196, 10, 10, seed=0)
feats = encode_batch(model.feature_map, np.random.default_rng(0).random((256, 196)))
for _ in range(5):
    forward_batch(model, feats, Strategy.SEQUENTIAL)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    forward_batch(model, feats, Strategy.SEQUENTIAL)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


class TestSequentialSweep:
    """Untaped, the sequential sweep steps each vector through one site at a time."""

    @pytest.mark.parametrize("n_sites", range(3, 12))
    def test_every_label_site_matches_brute_force(self, rng, n_sites):
        """Halves of 0 to 9 sites, odd and even, on both sides of the label."""
        for label_site in range(1, n_sites - 1):
            model = init_model(n_sites, 2, 3, seed=n_sites, sigma=0.3, label_site=label_site)
            feats = encode_batch(model.feature_map, rng.uniform(0, 1, size=(2, n_sites)))
            got = forward_batch(model, feats, Strategy.SEQUENTIAL)
            want = np.stack([brute_force_logits(model, image) for image in feats])
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), label_site

    @pytest.mark.parametrize("right", [False, True], ids=["left", "right"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_half_takes_one_vector_step_per_site(self, monkeypatch, rng, n, right):
        """A half of n sites, the other half empty, takes n vector steps.

        A step is the untaped call's only ``[chi, d chi] @ [d chi, B]``
        product: the ends are ``[chi, d] @ [d, B]``, the label ``[L chi, d chi] @ [d chi, B]``."""
        model = init_model(n + 3, 3, 2, seed=0, label_site=1 if right else n + 1)
        feats = encode_batch(model.feature_map, rng.uniform(0, 1, size=(4, n + 3)))
        products = watch(monkeypatch, "matmul")
        forward_batch(model, feats, Strategy.SEQUENTIAL)
        monkeypatch.undo()
        assert sum(ops == ((2, 4), (4, 4), (2, 4)) for ops in products) == n
        assert len(products) == n + 3

    @pytest.mark.parametrize("n_sites", [5, 6, 7, 8])
    def test_every_step_keeps_the_images_on_its_last_axis(self, monkeypatch, rng, n_sites):
        """Each step reads the vector as [chi, B], weights it into a [d, chi, B]
        ``u`` and returns [chi, B]; the label's step returns [L chi, B]."""
        chi, batch = 3, 7
        for label_site in range(1, n_sites - 1):
            model = init_model(n_sites, 2, chi, seed=n_sites, label_site=label_site)
            feats = encode_batch(model.feature_map, rng.random((batch, n_sites)))
            weightings = watch(monkeypatch, "multiply")
            products = watch(monkeypatch, "matmul")
            forward_batch(model, feats, Strategy.SEQUENTIAL)
            monkeypatch.undo()
            steps = n_sites - 3 + 1
            assert weightings[:steps] == [((2, 1, batch), (chi, batch), (2, chi, batch))] * steps
            assert [result for *_, result in products[2:]] == [(chi, batch)] * (steps - 1) + [
                (2 * chi, batch)
            ], label_site

    @pytest.mark.parametrize("batch", [1, 2, 7, 256])
    @pytest.mark.parametrize("n_sites, bond_dim", [(196, 10), (784, 10), (196, 32)],
                             ids=["196-10", "784-10", "196-32"])
    def test_logits_match_a_recording_tape(self, rng, n_sites, bond_dim, batch):
        """The tape runs at most 16 images at a time, so its stack of every bond site stays small."""
        model = init_model(n_sites, 10, bond_dim, seed=0)
        assert_matches_a_recording_tape(model, rng.random((batch, n_sites)))

    @pytest.mark.parametrize("batch", [1, 256])
    @pytest.mark.parametrize("n_sites, bond_dim", [(784, 10), (196, 32)],
                             ids=["784-10", "196-32"])
    def test_trig_logits_match_a_recording_tape(self, rng, n_sites, bond_dim, batch):
        model = init_model(n_sites, 10, bond_dim, seed=0, feature_map=FeatureMap.TRIG)
        assert_matches_a_recording_tape(model, rng.random((batch, n_sites)))

    @pytest.mark.parametrize("n_sites", range(5, 13))
    def test_every_label_site_matches_a_recording_tape(self, rng, n_sites):
        """Odd halves, even halves and an empty half, each on both sides of the label."""
        for label_site in range(1, n_sites - 1):
            model = init_model(n_sites, 3, 4, seed=n_sites, label_site=label_site)
            feats = encode_batch(model.feature_map, rng.random((5, n_sites)))
            got = forward_batch(model, feats, Strategy.SEQUENTIAL)
            tape = Tape()
            tape.watch_model(model)
            want = forward_batch(model, feats, Strategy.SEQUENTIAL, tape=tape)
            assert len(tape.nodes) > 0
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), label_site

    @pytest.mark.parametrize("batch", [1, 7])
    def test_no_label_block_is_built(self, monkeypatch, rng, batch):
        """The label core takes the right vector first: no product returns
        a [B, L, chi, chi] block, the left vector weights an [L, chi, B] one,
        and the logits are a C-order [B, L] array."""
        model = init_model(9, 3, 4, seed=0)
        feats = encode_batch(model.feature_map, rng.random((batch, 9)))
        products, weightings = watch(monkeypatch, "matmul"), watch(monkeypatch, "multiply")
        got = forward_batch(model, feats, Strategy.SEQUENTIAL)
        monkeypatch.undo()
        shapes = [result for *_, result in products + weightings]
        assert (batch, 3, 4, 4) not in shapes and (3, 4, batch) in shapes
        assert got.shape == (batch, 3) and got.flags.c_contiguous

    def test_warm_desk_calls_fault_in_no_fresh_pages(self):
        """Every array a call makes is small enough to be reused from the heap."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        done = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        assert float(done.stdout) <= 10

    def test_desk_logits_match_a_recording_tape(self, rng):
        model = init_model(196, 10, 10, seed=0)
        feats = encode_batch(model.feature_map, rng.random((50, 196)))
        got = forward_batch(model, feats, Strategy.SEQUENTIAL)
        tape = Tape()
        tape.watch_model(model)
        want = forward_batch(model, feats, Strategy.SEQUENTIAL, tape=tape)
        assert len(tape.nodes) > 0
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestTapeChoosesTheForm:
    """``forward_batch`` runs the taped form iff it is given a tape, whatever it watches."""

    @pytest.mark.parametrize("strategy", [Strategy.PAIRWISE, Strategy.SEQUENTIAL])
    @pytest.mark.parametrize("n_sites, bond_dim, batch", [(12, 3, 5), (196, 10, 7)],
                             ids=["12-3-5", "196-10-7"])
    def test_a_tape_that_watches_nothing_runs_the_taped_form(
        self, monkeypatch, rng, strategy, n_sites, bond_dim, batch
    ):
        model = init_model(n_sites, 3, bond_dim, seed=4)
        feats = encode_batch(model.feature_map, rng.random((batch, n_sites)))
        watching = Tape()
        watching.watch_model(model)
        want = forward_batch(model, feats, strategy, tape=watching)
        assert watching.nodes
        monkeypatch.setattr(contraction, "_sweep_untaped", None)
        tape = Tape()
        got = forward_batch(model, feats, strategy, tape=tape)
        assert tape.nodes == []
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "n_sites, bond_dim, batch, label_sites",
        [(196, 10, 256, [None]), (12, 3, 5, range(1, 11))],
        ids=["196-10-256", "12-3-5"],
    )
    def test_untaped_schedules_run_the_one_sweep(
        self, monkeypatch, rng, n_sites, bond_dim, batch, label_sites
    ):
        """Without a tape, pairwise logits are the sequential sweep's bytes, and
        neither call touches the module workspace that taped steps left."""
        workspace = autodiff.Workspace()
        monkeypatch.setattr(autodiff, "_WORKSPACE", workspace)
        for label_site in label_sites:
            model = init_model(n_sites, 3, bond_dim, seed=6, label_site=label_site)
            feats = encode_batch(model.feature_map, rng.random((batch, n_sites)))
            for _ in range(2):  # the buffer grows to the first step's need at the second
                loss_and_gradients(model, feats[:2], np.arange(2))
            flat, used = workspace._flat, workspace._used
            pair = forward_batch(model, feats, Strategy.PAIRWISE)
            seq = forward_batch(model, feats, Strategy.SEQUENTIAL)
            assert workspace._flat is flat and workspace._used == used > 0
            assert pair.tobytes() == seq.tobytes(), label_site


class TestStackLayout:
    """Absorbed stacks, round outputs, round adjoints and gradients are C-contiguous.

    Each stack is batch-major, [..., B, chi, chi], so every matrix that a
    round hands to ``np.matmul`` is contiguous. A round adjoint is a pair of
    C-contiguous [T, B, chi] factors, so each matrix-vector product of the
    round below reads contiguous vectors.
    """

    @pytest.mark.parametrize("strategy", [Strategy.PAIRWISE, Strategy.SEQUENTIAL])
    def test_desk_step_stacks_are_c_contiguous(self, monkeypatch, rng, strategy):
        model = init_model(196, 10, 10, seed=0)
        feats = encode_batch(model.feature_map, rng.random((50, 196)))
        outputs = {"absorb": [], "pair_round": []}
        round_adjoints = []
        real = autodiff._input_adjoints

        def recording(node, g):
            if node.kind in outputs:
                outputs[node.kind].append(node.output.flags.c_contiguous)
            for i, adj in real(node, g):
                if node.kind == "pair_round":
                    shape = node.inputs[0].shape[:-1]
                    round_adjoints.append(
                        isinstance(adj, tuple)
                        and all(f.shape == shape and f.flags.c_contiguous for f in adj)
                    )
                yield i, adj

        monkeypatch.setattr(autodiff, "_input_adjoints", recording)
        _, grads = loss_and_gradients(model, feats, rng.integers(0, 10, 50), strategy=strategy)
        assert all(arr.flags.c_contiguous for _, arr in grads.arrays())
        absorbed, rounds = outputs["absorb"], outputs["pair_round"]
        assert absorbed and all(absorbed)
        assert all(rounds) and all(round_adjoints)
        assert len(round_adjoints) == len(rounds)
        assert bool(rounds) == (strategy is Strategy.PAIRWISE)


class TestPlanFlops:
    """FLOPs of the contraction plan, read from the nodes a tape records."""

    def test_step_flops_formula(self, rng):
        """A product counts two FLOPs per term: the label combine, 2·B·L·x·y."""
        tape = Tape()
        block = rng.standard_normal((7, 3, 4, 5))
        tape.watch(block)
        tape.contract("by,blxy,bx->bl", rng.standard_normal((7, 5)), block,
                      rng.standard_normal((7, 4)))
        assert tape.forward_flops() == 2 * 3 * 4 * 5 * 7

    def test_sequential_has_no_cubic_steps(self, rng):
        """Doubling chi at most quadruples the cost of every sequential node."""
        feats = encode_batch(FeatureMap.LINEAR, rng.uniform(0, 1, size=(1, 16)))
        per_node = {}
        for chi in (2, 4, 8):
            tape = taped_forward(init_model(16, 3, chi, seed=0), feats, Strategy.SEQUENTIAL)
            assert not any(n.kind == "pair_round" for n in tape.nodes)
            per_node[chi] = np.array([_node_forward_flops(n) for n in tape.nodes])
        for lo, hi in ((2, 4), (4, 8)):
            assert (per_node[hi] <= 4 * per_node[lo]).all()

    def test_pairwise_round_flops_scale_cubically(self, rng):
        feats = encode_batch(FeatureMap.LINEAR, rng.uniform(0, 1, size=(1, 16)))
        totals = {}
        for chi in (2, 4, 8):
            tape = taped_forward(init_model(16, 3, chi, seed=0), feats, Strategy.PAIRWISE)
            totals[chi] = flops_of(tape, lambda n: n.kind == "pair_round")
        assert totals[4] == 8 * totals[2]
        assert totals[8] == 8 * totals[4]

    def test_sequential_sweep_flops_scale_quadratically(self, rng):
        """The sweep's vector-matrix steps plus the absorb of every bond site."""
        feats = encode_batch(FeatureMap.LINEAR, rng.uniform(0, 1, size=(1, 16)))

        def sweep_or_site(node):
            return node.kind == "contract" or node.extra == "sdxy,bsd->sbxy"

        totals = {}
        for chi in (2, 4, 8):
            tape = taped_forward(init_model(16, 3, chi, seed=0), feats, Strategy.SEQUENTIAL)
            totals[chi] = flops_of(tape, sweep_or_site)
        assert totals[4] == 4 * totals[2]
        assert totals[8] == 4 * totals[4]


class TestBruteForceGuard:
    def test_refuses_large_n(self, rng):
        model = init_model(13, 2, 2, seed=0)
        feats = encode_batch(model.feature_map, rng.uniform(0, 1, size=(1, 13)))[0]
        with pytest.raises(ConfigError, match="N=13"):
            brute_force_logits(model, feats)


class TestPredict:
    """``predict_batch`` on one-row batches, row by row."""

    def test_argmax(self):
        assert predict_batch(np.array([[0.1, 0.9, 0.3]]))[0] == 1

    def test_tie_breaks_to_lowest_index(self):
        np.testing.assert_array_equal(
            predict_batch(np.array([[0.5, 0.5, 0.5], [0.1, 0.7, 0.7]])), [0, 1]
        )

    def test_shift_invariance(self, rng):
        logits = rng.standard_normal((1, 6))
        assert predict_batch(logits)[0] == predict_batch(logits + 123.0)[0]

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            predict_batch(np.array([[0.1, np.nan]]))

    def test_single_logit_rejected(self):
        with pytest.raises(DimensionError):
            predict_batch(np.array([[1.0]]))

    def test_batch_variant(self, rng):
        logits = rng.standard_normal((5, 4))
        np.testing.assert_array_equal(
            predict_batch(logits), [predict_batch(row[None])[0] for row in logits]
        )


@pytest.mark.parametrize(
    "call, error, named",
    [
        (lambda m, f: contraction.check_batch_features(m, f[:, :, :1]), DimensionError,
         "feature dimension 1"),
        (lambda m, f: forward_batch(m, f, "pairwise"), ConfigError, "'pairwise'"),
    ],
    ids=["wrong-d", "strategy-not-a-member"],
)
def test_a_bad_argument_is_refused_by_value(call, error, named):
    model = init_model(6, 2, 2, seed=0)
    feats = encode_batch(model.feature_map, np.full((2, 6), 0.5))
    with pytest.raises(error, match=named):
        call(model, feats)
