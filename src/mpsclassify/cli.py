"""Command-line front end: train, eval, grad-check, bench-contraction.

The data directory is taken from --data-dir or the MPSCLASSIFY_DATA_DIR
environment variable and must contain the standard IDX files (optionally
gzipped). ``--synthetic`` sidesteps files entirely with a generated set.
"""

import argparse
import csv
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from . import __version__
from .contraction import Strategy, forward_batch
from .dataset import downsample, load_split, synthetic_digits, take
from .encoding import FeatureMap, encode_batch
from .errors import MpsError
from .model import init_model, load_checkpoint, save_checkpoint
from . import autodiff
from .autodiff import Tape, grad_check
from .training import (LossKind, TrainConfig, evaluate_predictions, loss_and_gradients, train,
                       write_metrics_csv)

_STRATEGIES = {s.value: s for s in Strategy}
_LOSSES = {k.value: k for k in LossKind}
_FEATURE_MAPS = {"linear": FeatureMap.LINEAR, "trig": FeatureMap.TRIG}


def _data_dir(args) -> Path:
    if args.data_dir:
        return Path(args.data_dir)
    env = os.environ.get("MPSCLASSIFY_DATA_DIR")
    if env:
        # env var names a root holding one subdirectory per dataset
        return Path(env) / args.dataset
    raise MpsError(
        "no data directory: pass --data-dir or set MPSCLASSIFY_DATA_DIR "
        "(or use --synthetic)"
    )


def _load_sets(args):
    if getattr(args, "synthetic", 0):
        train_set = synthetic_digits(args.synthetic, seed=args.seed)
        test_set = synthetic_digits(
            max(args.synthetic // 4, 1), seed=args.seed + 1000
        )
    else:
        base = _data_dir(args)
        train_set = load_split(base, "train")
        test_set = load_split(base, "test")
        if args.train_count:
            train_set = take(train_set, args.train_count, seed=args.seed)
        if args.test_count:
            test_set = take(test_set, args.test_count, seed=args.seed + 1)
    if args.downsample > 1:
        train_set = downsample(train_set, args.downsample)
        test_set = downsample(test_set, args.downsample)
    return train_set, test_set


def _cmd_train(args) -> int:
    train_set, test_set = _load_sets(args)
    n_labels = int(max(train_set.labels.max(), test_set.labels.max())) + 1
    print(train_set.summary())
    print(test_set.summary())
    model = init_model(
        n_sites=train_set.n_sites,
        n_labels=max(n_labels, 2),
        bond_dim=args.bond_dim,
        seed=args.seed,
        feature_map=_FEATURE_MAPS[args.feature_map],
    )
    print(model.summary())
    config = TrainConfig(
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        epochs=args.epochs,
        loss_kind=_LOSSES[args.loss],
        seed=args.seed,
        strategy=_STRATEGIES[args.strategy],
    )
    done = []

    def on_epoch(m):
        print(
            f"epoch {m.epoch:3d}  train loss {m.train_loss:.4f} acc {m.train_acc:.4f}"
            f"  test loss {m.test_loss:.4f} acc {m.test_acc:.4f}  {m.seconds:.1f}s",
            flush=True,
        )
        done.append(m)
        if args.metrics_csv:
            # Rewritten whole each epoch, so an interrupted run keeps its rows.
            write_metrics_csv(args.metrics_csv, done)

    history = train(model, train_set, test_set, config, on_epoch=on_epoch)
    if args.checkpoint:
        save_checkpoint(model, args.checkpoint)
        print(f"checkpoint written to {args.checkpoint}")
    final = history[-1]
    print(f"final test accuracy {final.test_acc:.4f}")
    return 0


def _cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    if getattr(args, "synthetic", 0):
        test_set = synthetic_digits(args.synthetic, seed=args.seed + 1000)
    else:
        test_set = load_split(_data_dir(args), args.split)
        if args.test_count:
            test_set = take(test_set, args.test_count, seed=args.seed + 1)
    if args.downsample > 1:
        test_set = downsample(test_set, args.downsample)
    if test_set.n_sites != model.n_sites:
        raise MpsError(
            f"checkpoint expects N={model.n_sites} sites but data has "
            f"N={test_set.n_sites}; check --downsample"
        )
    feats = encode_batch(model.feature_map, test_set.images)
    loss, acc, preds = evaluate_predictions(
        model, feats, test_set.labels, loss_kind=_LOSSES[args.loss]
    )
    print(f"{test_set.summary()}")
    print(f"loss {loss:.6f}  accuracy {acc:.4f}")
    if args.confusion:
        n = model.n_labels
        table = np.zeros((n, n), dtype=np.int64)
        np.add.at(table, (test_set.labels, preds), 1)
        print("confusion (rows true, cols predicted):")
        for row in table:
            print("  " + " ".join(f"{c:6d}" for c in row))
    return 0


def _cmd_grad_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    model = init_model(
        n_sites=args.sites,
        n_labels=args.labels,
        bond_dim=args.bond_dim,
        seed=args.seed,
    )
    images = rng.uniform(0.0, 1.0, size=(args.batch, args.sites))
    labels = rng.integers(0, args.labels, size=args.batch)
    report = grad_check(
        model,
        images,
        labels,
        h=args.step,
        tolerance=args.tolerance,
        loss_kind=_LOSSES[args.loss],
    )
    print(report.format_table())
    return 0 if report.passed else 1


def _timed(repeats: int, call) -> tuple[float, int]:
    """Best wall time of ``repeats`` warm calls, and their mean count of minor page faults.

    One untimed call runs first, so neither figure counts a first call's work.
    """
    call()
    best = float("inf")
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return best, round(faults / repeats)


def _traced_peak_mib(call) -> float:
    """Peak of the memory NumPy and Python allocate during one ``call``, in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _cmd_bench(args) -> int:
    rng = np.random.default_rng(args.seed)
    images = rng.uniform(0.0, 1.0, size=(args.batch, args.sites))
    rows = []
    for chi in args.bond_dims:
        model = init_model(
            n_sites=args.sites, n_labels=args.labels, bond_dim=chi, seed=args.seed
        )
        feats = encode_batch(model.feature_map, images)
        for strategy_name in args.strategies:
            strategy = _STRATEGIES[strategy_name]
            # Each schedule's own contraction, on a tape that watches nothing:
            # what ``forward_flops`` counts. Untaped, both would run the sweep.
            best_fwd, fwd_faults = _timed(
                args.repeats, lambda: forward_batch(model, feats, strategy, tape=Tape())
            )
            counted = Tape()
            counted.watch_model(model)
            logits = forward_batch(model, feats, strategy, tape=counted)
            row = {
                "strategy": strategy_name,
                "bond_dim": chi,
                "batch": args.batch,
                "sites": args.sites,
                "forward_seconds": best_fwd,
                "forward_flops": counted.forward_flops(),
                "forward_minor_faults": fwd_faults,
            }
            if args.backward:
                labels = np.zeros(args.batch, dtype=np.int64)

                def step():
                    loss_and_gradients(model, feats, labels, strategy=strategy)

                best_bwd, bwd_faults = _timed(args.repeats, step)
                counted.loss(LossKind.CROSS_ENTROPY, logits, labels)
                row["forward_backward_seconds"] = best_bwd
                row["backward_flops"] = counted.backward_flops()
                row["forward_backward_minor_faults"] = bwd_faults
                # Allocated before any traced step, so the traced peak cannot show it.
                row["workspace_mib"] = autodiff._WORKSPACE._flat.nbytes / 2**20
                # One more step, untimed, since tracing slows every allocation.
                row["forward_backward_peak_mib"] = _traced_peak_mib(step)
            rows.append(row)
            print(
                "  ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in row.items()),
                flush=True,
            )
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


def _add_data_arguments(p, with_train=True):
    p.add_argument("--data-dir", help="directory with the IDX files")
    p.add_argument("--dataset", choices=["mnist", "fashion-mnist"], default="mnist",
                   help="subdirectory under MPSCLASSIFY_DATA_DIR when --data-dir is unset")
    p.add_argument("--downsample", type=_positive_int, default=1, metavar="F",
                   help="block-mean pool by FxF before encoding")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    if with_train:
        p.add_argument("--train-count", type=_non_negative_int, default=0,
                       help="seeded train subset size (0 = all)")
    p.add_argument("--test-count", type=_non_negative_int, default=0,
                   help="seeded test subset size (0 = all)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpsclassify",
        description="Train and evaluate a matrix-product-state image classifier.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write metrics/checkpoint")
    _add_data_arguments(p)
    p.add_argument("--synthetic", type=_non_negative_int, default=0, metavar="N",
                   help="train on N generated ten-class images instead of files")
    p.add_argument("--bond-dim", type=_positive_int, default=10)
    p.add_argument("--epochs", type=_positive_int, default=10)
    p.add_argument("--batch-size", type=_positive_int, default=50)
    p.add_argument("--learning-rate", type=_positive_float, default=1e-4)
    p.add_argument("--loss", choices=sorted(_LOSSES), default="cross-entropy")
    p.add_argument("--strategy", choices=["sequential", "pairwise"], default="pairwise")
    p.add_argument("--feature-map", choices=sorted(_FEATURE_MAPS), default="linear")
    p.add_argument("--metrics-csv", help="write per-epoch metrics here")
    p.add_argument("--checkpoint", help="write the trained model here")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a test split (sequential sweep)")
    _add_data_arguments(p, with_train=False)
    p.add_argument("--synthetic", type=_non_negative_int, default=0, metavar="N")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.add_argument("--loss", choices=sorted(_LOSSES), default="cross-entropy")
    p.add_argument("--confusion", action="store_true", help="print the confusion matrix")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("grad-check", help="compare gradients to finite differences")
    p.add_argument("--sites", type=_at_least(3), default=8)
    p.add_argument("--labels", type=_at_least(2), default=3)
    p.add_argument("--bond-dim", type=_positive_int, default=4)
    p.add_argument("--batch", type=_positive_int, default=2)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--step", type=_positive_float, default=1e-5)
    p.add_argument("--tolerance", type=_positive_float, default=1e-6)
    p.add_argument("--loss", choices=sorted(_LOSSES), default="cross-entropy")
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("bench-contraction", help="time the contraction schedules")
    p.add_argument("--sites", type=_at_least(3), default=196)
    p.add_argument("--labels", type=_at_least(2), default=10)
    p.add_argument("--batch", type=_positive_int, default=50)
    p.add_argument("--bond-dims", type=_int_list, default=[8, 16, 32, 64],
                   metavar="A,B,...")
    p.add_argument("--strategies", type=_strategy_list, default=["sequential", "pairwise"],
                   metavar="A,B,...")
    p.add_argument("--repeats", type=_positive_int, default=3)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--backward", action="store_true",
                   help="also time forward+backward, count adjoint flops, trace its peak memory "
                        "and report the workspace size")
    p.add_argument("--csv", help="write the benchmark rows here")
    p.set_defaults(func=_cmd_bench)
    return parser


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


_positive_int, _non_negative_int = _at_least(1), _at_least(0)


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    values = [int(part) for part in text.split(",") if part.strip()]
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(f"expected positive integers, got {text!r}")
    return values


def _strategy_list(text: str) -> list[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    unknown = [name for name in names if name not in _STRATEGIES]
    if unknown or not names:
        raise argparse.ArgumentTypeError(
            f"expected strategies from {', '.join(_STRATEGIES)}, got {text!r}"
        )
    return names


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "backward", False) and "brute-force" in args.strategies:
        parser.error("--backward cannot time --strategies brute-force: brute force has no gradients")
    try:
        return args.func(args)
    except (MpsError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
