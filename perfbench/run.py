"""Benchmark of the NumPy MPS classifier: training and evaluation.

    python3 perfbench/run.py --workload desk-pairwise --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else. One run is one process and one
workload: set-up (several times), then one ``train()`` call, with a pass of
timed ``loss_and_gradients`` + ``adam_step`` steps and a round of timed
held-out ``evaluate()`` calls after each epoch, then more such passes and
rounds until ``--seconds`` are used up. Afterwards the outputs are checked
against the plain NumPy reference in ``reference.py``. README.md describes
the workloads and metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from ``tracer.py`` spans with
``--trace 1``. Samples and spans go to ``perfbench/out/``.
"""

import os

# One BLAS thread, whatever the environment says: set before NumPy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import probe  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Shared by every workload.
SIDE = 14                # 14x14 synthetic digits, N = 196 sites
CLASSES = 10
BOND_DIM = 10
TRAIN_COUNT, TEST_COUNT, HELDOUT_COUNT = 2000, 500, 1024
BATCH = 50
LEARNING_RATE = 1e-3
EVAL_BATCH = 256
EVAL_PASSES = 4          # passes over the held-out split per evaluation round
SETUPS = 9               # timed set-ups per run; setup_s is their median
CHECK_SAMPLE = 64        # held-out images compared with the reference
FD_STEP = 1e-4           # central-difference step along a unit direction

# Tolerances of the correctness checks. Logits and losses differ from the
# reference only by summation order; the directional derivative carries the
# O(h^2) truncation of a central difference.
LOGIT_RTOL = 1e-9
LOSS_RTOL = 1e-9
FD_RTOL = 1e-5
MIN_ACCURACY = 0.3       # chance is 1 / CLASSES


@dataclass(frozen=True)
class Workload:
    strategy: str
    epochs: int  # of the one train() call


# The train() call, with a step pass and an evaluation round after each
# epoch, takes about 33 s of a 50 s run on a 2-core x86 box.
WORKLOADS = {
    "desk-pairwise": Workload("pairwise", 7),
    "desk-sequential": Workload("sequential", 5),
}


class NoTrace:
    """Stands in for a Tracer when tracing is off."""

    phase = "setup"

    def span(self, name):
        return contextlib.nullcontext()


# An epoch lasts a second or more, long enough for the host to change speed
# within it, so it is timed in laps that end after each of these calls inside
# train(): one lap per step, one for the test evaluation. Each lap is scaled by
# its own probes (probe.py) and an epoch is the sum of its scaled laps.
LAP_ENDS = ("adam_step", "evaluate")


@contextlib.contextmanager
def laps_after(mps, names, lap):
    """Call ``lap()`` after each call that ``train()`` makes to the package
    functions ``names``; the benchmark's own calls to them are left alone."""
    namespace = mps.train.__globals__
    originals = {name: namespace[name] for name in names if name in namespace}

    def lapped(fn):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            lap()
            return result

        return call

    namespace.update({name: lapped(fn) for name, fn in originals.items()})
    try:
        yield
    finally:
        namespace.update(originals)


def load_package():
    """Import ``mpsclassify`` from this checkout's ``src/``; exit if it is absent."""
    src = ROOT / "src"
    if not (src / "mpsclassify" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {src / 'mpsclassify'}")
    sys.path.insert(0, str(src))
    import mpsclassify

    if Path(mpsclassify.__file__).resolve().parent != src / "mpsclassify":
        sys.exit(f"perfbench: imported mpsclassify from {mpsclassify.__file__}, not {src}")
    return mpsclassify


def draw_seeds(seed: int) -> dict:
    names = ("train", "test", "heldout", "init", "order", "check")
    values = np.random.SeedSequence(seed).generate_state(len(names))
    return {name: int(v) for name, v in zip(names, values)}


def set_up(mps, seeds: dict) -> dict:
    """Generate the three splits, encode the ones the benchmark feeds directly, build the model."""
    fmap = mps.FeatureMap.LINEAR
    train_set = mps.synthetic_digits(TRAIN_COUNT, seed=seeds["train"], side=SIDE, n_classes=CLASSES)
    test_set = mps.synthetic_digits(TEST_COUNT, seed=seeds["test"], side=SIDE, n_classes=CLASSES)
    heldout = mps.synthetic_digits(HELDOUT_COUNT, seed=seeds["heldout"], side=SIDE, n_classes=CLASSES)
    return {
        "train_set": train_set,
        "test_set": test_set,
        "train_feats": mps.encode_batch(fmap, train_set.images),
        "heldout_feats": mps.encode_batch(fmap, heldout.images),
        "heldout_labels": heldout.labels,
        "model": mps.init_model(
            SIDE * SIDE, CLASSES, BOND_DIM, seed=seeds["init"], feature_map=fmap
        ),
    }


def measure(mps, wl: Workload, seed: int, seconds: float, trace) -> dict:
    """Run one workload; timed samples are (interval, probe) pairs of seconds."""
    seeds = draw_seeds(seed)
    strategy = mps.Strategy(wl.strategy)
    clock = probe.Stopwatch(probe.Probe())

    trace.phase = "setup"
    setup_s = []
    for _ in range(SETUPS):
        clock.restart()
        state = set_up(mps, seeds)
        setup_s.append(clock.stop())

    model = state["model"]
    initial = model.copy()
    step_model = model.copy()
    adam = mps.init_adam(step_model)
    train_feats, train_labels = state["train_feats"], state["train_set"].labels
    heldout_feats, heldout_labels = state["heldout_feats"], state["heldout_labels"]
    order_rng = np.random.default_rng(seeds["order"])

    def step(pick) -> None:
        _, grads = mps.loss_and_gradients(
            step_model, train_feats[pick], train_labels[pick], strategy=strategy
        )
        mps.adam_step(step_model, grads, adam, LEARNING_RATE)

    def evaluate(chunk=slice(None)):
        return mps.evaluate(model, heldout_feats[chunk], heldout_labels[chunk],
                            batch_size=EVAL_BATCH, strategy=strategy)

    trace.phase = "warmup"
    step(np.arange(BATCH))
    evaluate(slice(0, EVAL_BATCH))

    # Epochs, steps and evaluations take turns, so that each metric samples
    # the host over the whole run rather than over a third of it.
    chunks = [slice(i, i + EVAL_BATCH) for i in range(0, HELDOUT_COUNT, EVAL_BATCH)]
    step_s, eval_s = [], []

    def step_pass() -> None:
        trace.phase = "step"
        order = order_rng.permutation(TRAIN_COUNT)
        for first in range(0, TRAIN_COUNT, BATCH):
            clock.restart()
            with trace.span("step"):
                step(order[first : first + BATCH])
            step_s.append(clock.stop())

    # One eval batch per call keeps each sample short next to the host's
    # speed changes, so the probe around it describes it well.
    def eval_round() -> None:
        trace.phase = "heldout"
        for chunk in chunks * EVAL_PASSES:
            clock.restart()
            evaluate(chunk)
            eval_s.append(clock.stop())

    # A traced run keeps its phases apart: spans opened inside train() take
    # its phase, and a probe there would land in its self time. It reports
    # no epoch_s, so it also times each epoch as a single lap.
    traced = isinstance(trace, tracing.Tracer)
    epoch_s, laps = [], []

    def end_epoch(_):
        laps.append(clock.stop())
        epoch_s.append(laps[:])
        laps.clear()
        if not traced:
            step_pass()
            eval_round()
            clock.restart()

    started = time.perf_counter()
    trace.phase = "train"
    config = mps.TrainConfig(
        learning_rate=LEARNING_RATE, batch_size=BATCH, epochs=wl.epochs,
        seed=seeds["order"], strategy=strategy, eval_batch_size=EVAL_BATCH,
    )
    timing = (contextlib.nullcontext() if traced
              else laps_after(mps, LAP_ENDS, lambda: laps.append(clock.stop())))
    clock.restart()
    with timing:
        history = mps.train(model, state["train_set"], state["test_set"], config,
                            on_epoch=end_epoch)

    deadline = started + seconds
    while True:
        cycle_started = time.perf_counter()
        step_pass()
        eval_round()
        now = time.perf_counter()
        if now + (now - cycle_started) > deadline:
            break

    # Read before the checks, whose reference contractions are the benchmark's own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    trace.phase = "check"
    _, heldout_acc = evaluate()
    failures = check(mps, model, initial, strategy, state, np.random.default_rng(seeds["check"]))
    if not heldout_acc >= MIN_ACCURACY:
        failures.append(f"held-out accuracy {heldout_acc:.3f} below {MIN_ACCURACY}")
    if not history[-1].train_loss < history[0].train_loss:
        failures.append(
            f"train loss did not fall: first epoch {history[0].train_loss:.4f}, "
            f"last {history[-1].train_loss:.4f}"
        )
    return {
        "setup_s": setup_s,
        "step_s": step_s,
        "epoch_s": epoch_s,
        "eval_s": eval_s,
        "train_steps": wl.epochs * -(-TRAIN_COUNT // BATCH),
        "heldout_acc": heldout_acc,
        "epoch_train_loss": [h.train_loss for h in history],
        "epoch_test_acc": [h.test_acc for h in history],
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
    }


def check(mps, model, initial, strategy, state, rng) -> list:
    """Compare the package's outputs with the reference; return what disagreed.

    Logits, accuracy and loss are checked on the trained ``model``; the
    gradient on the ``initial`` one, where the loss is not saturated and a
    central difference resolves it well.
    """
    failures = []
    feats_all, labels_all = state["heldout_feats"], state["heldout_labels"]
    pick = np.sort(rng.choice(labels_all.shape[0], size=CHECK_SAMPLE, replace=False))
    feats, labels = feats_all[pick], labels_all[pick]

    want = reference.logits(model, feats)
    got = mps.forward_batch(model, feats, strategy)
    err = float(np.abs(got - want).max() / np.abs(want).max())
    if not err <= LOGIT_RTOL:
        failures.append(f"forward_batch logits off the reference by {err:.3e} (relative)")

    loss, acc = mps.evaluate(model, feats, labels, batch_size=EVAL_BATCH, strategy=strategy)
    want_correct = int((np.argmax(want, axis=1) == labels).sum())
    if acc != want_correct / CHECK_SAMPLE:
        failures.append(f"evaluate() accuracy {acc} != reference {want_correct}/{CHECK_SAMPLE}")
    want_loss = reference.cross_entropy(want, labels)
    if not _loss_close(loss, want_loss, want):
        failures.append(f"evaluate() loss {loss!r} != reference {want_loss!r}")

    train_feats, train_labels = state["train_feats"][:BATCH], state["train_set"].labels[:BATCH]
    loss, grads = mps.loss_and_gradients(initial, train_feats, train_labels, strategy=strategy)
    want = reference.logits(initial, train_feats)
    want_loss = reference.cross_entropy(want, train_labels)
    if not _loss_close(loss, want_loss, want):
        failures.append(f"loss_and_gradients loss {loss!r} != reference {want_loss!r}")
    grads = dict(grads.arrays())
    analytic, numeric = reference.directional_derivative(
        initial, train_feats, train_labels, grads, rng, FD_STEP
    )
    # A random direction can be nearly orthogonal to the gradient; below a
    # thousandth of the gradient norm the check compares absolutely.
    grad_norm = float(np.sqrt(sum((g * g).sum() for g in grads.values())))
    scale = max(abs(analytic), abs(numeric), 1e-3 * grad_norm)
    if not abs(analytic - numeric) <= FD_RTOL * scale:
        failures.append(f"<grad, v> {analytic!r} vs central difference {numeric!r}")
    return failures


def _loss_close(loss, want_loss, want_logits) -> bool:
    """Cross-entropy is a difference of terms as large as the logits, so its
    rounding error scales with them, not with the (possibly tiny) loss."""
    scale = max(abs(want_loss), float(np.abs(want_logits).max()))
    return abs(loss - want_loss) <= LOSS_RTOL * scale


def end_to_end(run: dict) -> dict:
    """Medians at the reference host speed (see probe.py)."""
    return {
        "setup_s": (probe.at_reference(run["setup_s"]), "s"),
        "epoch_s": (statistics.median(
            sum(probe.scaled(t, p) for t, p in laps) for laps in run["epoch_s"]
        ), "s"),
        "step_ms_p50": (1e3 * probe.at_reference(run["step_s"]), "ms"),
        "eval_images_per_s": (EVAL_BATCH / probe.at_reference(run["eval_s"]), "img/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def per_layer(tr: tracing.Tracer, run: dict) -> dict:
    """Per-layer metrics from the spans; per step of the step passes unless noted."""
    steps = len(run["step_s"])
    setups = len(run["setup_s"])

    def step_ms(*names, inclusive=False):
        return 1e3 * sum(tr.per_call("step", n)[0 if inclusive else 1] for n in names) / steps

    def step_work(names, counter):
        return sum(tr.work_of("step", n, counter) for n in names) / steps

    def step_calls(names):
        return sum(tr.per_call("step", n)[2] for n in names) / steps

    def per_setup(name):
        return tr.per_call("setup", name)[0] / setups

    def per_eval_batch_ms(name):
        phases = ("train/eval", "heldout/eval")
        batches = sum(tr.per_call(p, "forward_batch")[2] for p in phases)
        return 1e3 * sum(tr.per_call(p, name)[0] for p in phases) / max(batches, 1)

    absorb, combine = ["tape:absorb"], ["tape:combine"]
    pair_round, slice_rows, gather = ["tape:pair_round"], ["tape:slice_rows"], ["tape:gather"]
    sweep = ["tape:contract", "tape:sweep"]
    loss = ["tape:cross_entropy", "tape:mean_square"]
    known = set(absorb + combine + pair_round + slice_rows + gather + sweep + loss)
    other = [n for n in tr.names("step") if n.startswith("tape:") and n not in known]

    forward_ms = step_ms("forward_batch", inclusive=True)
    backward_ms = step_ms("backward", "model_gradients", inclusive=True)
    pair_ms = step_ms(*pair_round)
    pair_mflop = step_work(pair_round, "flop") / 1e6
    train_steps = tr.per_call("train", "adam_step")[2]
    train_total, train_self, _ = tr.per_call("train", "train")
    in_train_eval, _, in_train_evals = tr.per_call("train", "evaluate")
    return {
        "dataset.generate_s": (per_setup("synthetic_digits"), "s"),
        "encoding.encode_s": (per_setup("encode_batch"), "s"),
        "model.init_s": (per_setup("init_model"), "s"),
        "contraction.forward_ms": (forward_ms, "ms"),
        "contraction.dispatch_ms": (step_ms("forward_batch"), "ms"),
        "contraction.absorb_ms": (step_ms(*absorb), "ms"),
        "contraction.absorb_mflop": (step_work(absorb, "flop") / 1e6, "MFLOP"),
        "contraction.combine_ms": (step_ms(*combine), "ms"),
        "contraction.pair_round_ms": (pair_ms, "ms"),
        "contraction.pair_round_mflop": (pair_mflop, "MFLOP"),
        "contraction.pair_round_gflops": (pair_mflop / pair_ms if pair_ms else 0.0, "GFLOP/s"),
        "contraction.slice_rows_ms": (step_ms(*slice_rows), "ms"),
        "contraction.sweep_ms": (step_ms(*sweep), "ms"),
        "contraction.sweep_mflop": (step_work(sweep, "flop") / 1e6, "MFLOP"),
        "contraction.sweep_calls": (step_calls(sweep), "count"),
        "contraction.gather_ms": (step_ms(*gather), "ms"),
        "contraction.gather_calls": (step_calls(gather), "count"),
        "contraction.other_ms": (step_ms(*other), "ms"),
        "contraction.eval_forward_ms": (per_eval_batch_ms("forward_batch"), "ms"),
        "losses.eval_loss_ms": (per_eval_batch_ms("cross_entropy_loss"), "ms"),
        "losses.train_loss_ms": (step_ms(*loss), "ms"),
        "autodiff.backward_ms": (backward_ms, "ms"),
        "autodiff.backward_mflop": (step_work(["backward"], "flop") / 1e6, "MFLOP"),
        "autodiff.bwd_fwd_ratio": (backward_ms / forward_ms, "ratio"),
        "autodiff.tape_nodes": (step_work(["backward"], "nodes"), "count"),
        "autodiff.tape_mb": (step_work(["backward"], "bytes") / 2**20, "MB"),
        "training.adam_ms": (step_ms("adam_step", inclusive=True), "ms"),
        "training.loop_ms": (1e3 * train_self / max(train_steps, 1), "ms"),
        "training.evaluate_s": (in_train_eval / max(in_train_evals, 1), "s"),
        "training.step_span_ms": (step_ms("step", inclusive=True), "ms"),
        "training.unattributed_ms": (step_ms("step"), "ms"),
        "training.traced_step_ms": (1e3 * statistics.median(t for t, _ in run["step_s"]), "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    mps = load_package()
    wl = WORKLOADS[args.workload]
    if args.trace:
        tr = tracing.Tracer()
        with tracing.installed(tr, mps):
            run = measure(mps, wl, args.seed, args.seconds, tr)
        metrics = per_layer(tr, run)
    else:
        tr = None
        run = measure(mps, wl, args.seed, args.seconds, NoTrace())
        metrics = end_to_end(run)

    attempted = run["train_steps"] + len(run["step_s"]) + len(run["eval_s"])
    for failure in run["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    correct = not run["failures"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "samples": {k: run[k] for k in ("setup_s", "step_s", "epoch_s", "eval_s")},
        "heldout_acc": run["heldout_acc"],
        "epoch_train_loss": run["epoch_train_loss"],
        "epoch_test_acc": run["epoch_test_acc"],
        "failures": run["failures"],
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tr is not None:
        tr.write(OUT / f"{stem}.trace.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
