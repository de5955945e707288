"""Fast self-test of the benchmark's own pieces (a few seconds).

    python3 perfbench/selftest.py

Checks that the reference contraction agrees with the package's brute-force
oracle on chains of at most 12 sites, that the shape-based FLOP counts
agree with counts worked out by hand, that the tracer's self times
partition a span tree and leave the package as they found it, and that the
epoch laps end after each step and test evaluation of ``train()``.
"""

import sys
import time

import numpy as np

import flops
import reference
import tracer as tracing
from run import LAP_ENDS, laps_after, load_package


class SelfTestError(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SelfTestError(message)


def check_reference_matches_brute_force(mps) -> None:
    rng = np.random.default_rng(5)
    cases = [(3, 2, 1), (4, 3, 2), (6, 2, 3), (9, 3, 2), (12, 2, 2)]
    for n, chi, labels in cases:
        for fmap in (mps.FeatureMap.LINEAR, mps.FeatureMap.TRIG):
            label_site = int(rng.integers(1, n - 1))
            model = mps.init_model(n, labels + 1, chi, seed=n, sigma=0.5,
                                   label_site=label_site, feature_map=fmap)
            feats = mps.encode_batch(fmap, rng.random((2, n)))
            want = np.stack([mps.brute_force_logits(model, f) for f in feats])
            got = reference.logits(model, feats)
            err = np.abs(got - want).max() / np.abs(want).max()
            expect(err < 1e-12, f"reference vs brute force at N={n}, m={label_site}: {err:.2e}")


def check_einsum_counts() -> None:
    expect(flops.einsum_flops("ij,jk->ik", [(2, 3), (3, 4)]) == 2 * 2 * 3 * 4, "matmul count")
    # bx,blxy -> bly costs 2*b*l*x*y, then bly,by -> bl costs 2*b*l*y.
    b, l, x = 2, 3, 4
    got = flops.einsum_flops("bx,blxy,by->bl", [(b, x), (b, l, x, x), (b, x)])
    expect(got == 2 * b * l * x * x + 2 * b * l * x, f"three-operand count {got}")


def _counts_by_kind(mps, model, feats, labels, strategy):
    tape = mps.Tape()
    tape.watch_model(model)
    logits = mps.forward_batch(model, feats, strategy, tape=tape)
    tape.cross_entropy(logits, labels)
    fwd, bwd = {}, {}
    for node in tape.nodes:
        fwd[node.kind] = fwd.get(node.kind, 0) + flops.forward(node)
        bwd[node.kind] = bwd.get(node.kind, 0) + flops.backward(node)
    return fwd, bwd


def check_tape_counts(mps) -> None:
    """Per-kind counts of a taped forward + loss against closed forms."""
    n, big_l, c, b, d = 11, 4, 3, 5, 2
    m = 4
    model = mps.init_model(n, big_l, c, seed=0, label_site=m)
    feats = mps.encode_batch(model.feature_map, np.random.default_rng(0).random((b, n)))
    labels = np.arange(b) % big_l
    s = n - 3                   # bond cores
    n_left, n_right = m - 1, n - 2 - m
    label_fwd = 2 * b * big_l * c * c + 2 * b * big_l * c
    # Label combine adjoints: for lv, lab and rv in turn.
    label_bwd = (2 * b * big_l * c * c + 2 * b * c * c) + (2 * b * c * big_l + 2 * b * big_l * c * c) \
        + (2 * b * big_l * c * c + 2 * b * big_l * c)
    absorb = 2 * 2 * b * d * c + 2 * b * s * d * c * c + 2 * b * d * big_l * c * c

    fwd, bwd = _counts_by_kind(mps, model, feats, labels, mps.Strategy.PAIRWISE)
    products = (n_left - 1) + (n_right - 1)
    want_fwd = {"absorb": absorb, "pair_round": products * 2 * b * c**3,
                "combine": 2 * 2 * b * c * c + label_fwd}
    want_bwd = {"absorb": absorb, "pair_round": 2 * products * 2 * b * c**3,
                "combine": 2 * 2 * 2 * b * c * c + label_bwd}
    for kind in ("absorb", "pair_round", "combine"):
        expect(fwd[kind] == want_fwd[kind], f"pairwise forward {kind}: {fwd[kind]} != {want_fwd[kind]}")
        expect(bwd[kind] == want_bwd[kind], f"pairwise backward {kind}: {bwd[kind]} != {want_bwd[kind]}")
    expect(fwd["slice_rows"] == fwd["gather"] == fwd["cross_entropy"] == 0, "pairwise zero kinds")

    fwd, bwd = _counts_by_kind(mps, model, feats, labels, mps.Strategy.SEQUENTIAL)
    want_fwd = {"absorb": absorb, "contract": s * 2 * b * c * c, "combine": label_fwd}
    want_bwd = {"absorb": absorb, "contract": s * 2 * 2 * b * c * c, "combine": label_bwd}
    for kind in ("absorb", "contract", "combine"):
        expect(fwd[kind] == want_fwd[kind], f"sequential forward {kind}: {fwd[kind]} != {want_fwd[kind]}")
        expect(bwd[kind] == want_bwd[kind], f"sequential backward {kind}: {bwd[kind]} != {want_bwd[kind]}")
    expect("pair_round" not in fwd and "slice_rows" not in fwd, "sequential records no pairwise kinds")


def check_tracer(mps) -> None:
    tr = tracing.Tracer()
    tr.phase = "step"
    with tr.span("root"):
        with tr.span("a"):
            time.sleep(0.002)
            with tr.span("b"):
                time.sleep(0.002)
        time.sleep(0.001)
    total = tr.per_call("step", "root")[0]
    selves = sum(tr.per_call("step", name)[1] for name in ("root", "a", "b"))
    expect(abs(total - selves) < 1e-9, f"self times {selves} do not partition root {total}")

    originals = (mps.forward_batch, mps.training.backward, mps.Tape.pair_round)
    with tracing.installed(tr, mps):
        expect(mps.training.forward_batch is not originals[0], "forward_batch not wrapped")
        model = mps.init_model(7, 3, 2, seed=0)
        feats = mps.encode_batch(model.feature_map, np.random.default_rng(1).random((2, 7)))
        tr.phase = "step"
        mps.loss_and_gradients(model, feats, np.array([0, 1]))
    expect((mps.forward_batch, mps.training.backward, mps.Tape.pair_round) == originals,
           "originals not restored")
    expect(tr.per_call("step", "tape:pair_round")[2] > 0, "pair_round spans missing")
    expect(tr.work_of("step", "backward", "nodes") > 0, "backward work missing")


def check_laps(mps) -> None:
    """Epoch laps end after every step and the test evaluation of train()."""
    rng = np.random.default_rng(3)

    class Split:
        images = rng.random((6, 7))
        labels = np.array([0, 1, 2, 0, 1, 2])

    laps = []
    model = mps.init_model(7, 3, 2, seed=0)
    config = mps.TrainConfig(batch_size=2, epochs=2, seed=0)
    originals = (mps.training.adam_step, mps.training.evaluate)
    with laps_after(mps, LAP_ENDS, lambda: laps.append(1)):
        mps.train(model, Split, Split, config)
        mps.evaluate(model, mps.encode_batch(model.feature_map, Split.images), Split.labels)
    expect(len(laps) == 2 * (3 + 1), f"{len(laps)} laps for 2 epochs of 3 steps and 1 evaluation")
    expect((mps.training.adam_step, mps.training.evaluate) == originals, "originals not restored")


def main() -> int:
    mps = load_package()
    checks = [
        lambda: check_reference_matches_brute_force(mps),
        check_einsum_counts,
        lambda: check_tape_counts(mps),
        lambda: check_tracer(mps),
        lambda: check_laps(mps),
    ]
    for run_check in checks:
        run_check()
    print(f"selftest: {len(checks)} groups passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
