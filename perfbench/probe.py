"""A gauge of how fast the host runs right now, made of the benchmark's own code.

On a shared host the same instruction stream runs at different speeds from
one second to the next: on the 2-core x86 box this benchmark was written
on, a fixed NumPy loop switches between two speeds about 1.8x apart every
few seconds, and the share of time spent in each differs from run to run.
Medians of plain wall times then spread by 20-30% between runs of the same
code (README.md has the figures), far more than a change worth measuring.

The probe times a small fixed computation: the reference left-to-right
contraction of ``reference.py`` over a fixed 48-site chain, Python dispatch
and small NumPy products like a training step. It uses no code from the
package, so no change to the program can speed it up or slow it down. Each
timed interval is stored with the mean of the probe times taken right
before and right after it.

The program does not slow down one for one with the probe. Within a run,
the slope of log(interval) against log(probe) was 0.5-0.6 for desk-pairwise
steps, 0.6-0.9 for desk-sequential steps and 0.35-0.85 for held-out
evaluation batches, at correlations of 0.6-0.9: when the probe doubles, a
pairwise step takes about 1.45x as long, not 2x. Scaling every sample by the
full probe ratio then overcorrects, so a run spent mostly on the slow host
read fast. A metric is therefore taken near the reference probe time and
scaled to it with a partial exponent:

    t_ref = t * (REFERENCE_S / p) ** SPEED_EXPONENT

over the NEAREST_SHARE of samples whose probes lie closest to REFERENCE_S,
so that the exponent, a compromise between the workloads and their steps,
epochs and evaluations, mostly corrects small distances. README.md gives
the spreads between runs that this scoring leaves.
"""

import math
import statistics
import time
from types import SimpleNamespace

import numpy as np

import reference

# Probe time the metrics are reported at: the host's slower, more common
# speed on the box the benchmark was written on (probes of about 0.45 and
# 0.9 ms), so most samples lie near it.
REFERENCE_S = 0.9e-3
SPEED_EXPONENT = 0.8
NEAREST_SHARE = 0.4
MIN_NEAREST = 30

_SITES, _LABELS, _BOND, _BATCH = 48, 4, 8, 8
_REPEATS = 3


def _fixed_chain():
    rng = np.random.default_rng(0)
    eye = np.eye(_BOND)
    model = SimpleNamespace(
        n_sites=_SITES,
        label_site=_SITES // 2,
        left_boundary=rng.standard_normal((2, _BOND)),
        cores=eye + 0.1 * rng.standard_normal((_SITES - 3, 2, _BOND, _BOND)),
        label_core=eye + 0.1 * rng.standard_normal((2, _LABELS, _BOND, _BOND)),
        right_boundary=rng.standard_normal((2, _BOND)),
    )
    pixels = rng.random((_BATCH, _SITES))
    return model, np.stack([1.0 - pixels, pixels], axis=-1)


class Probe:
    def __init__(self):
        self._model, self._feats = _fixed_chain()
        for _ in range(10):
            self.seconds()

    def seconds(self) -> float:
        """Fastest of a few back-to-back probe runs, in seconds."""
        best = math.inf
        for _ in range(_REPEATS):
            started = time.perf_counter()
            reference.logits(self._model, self._feats)
            best = min(best, time.perf_counter() - started)
        return best


class Stopwatch:
    """Times intervals, each paired with the mean of the probes taken before and after it."""

    def __init__(self, probe: Probe):
        self._probe = probe
        self._before = probe.seconds()
        self._started = time.perf_counter()

    def restart(self) -> None:
        """Start the next interval now; the probe taken at the last stop counts as its 'before'."""
        self._started = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """(interval, probe) in seconds; then probes and restarts."""
        interval = time.perf_counter() - self._started
        after = self._probe.seconds()
        sample = (interval, 0.5 * (self._before + after))
        self._before = after
        self._started = time.perf_counter()
        return sample


def scaled(interval: float, probe: float) -> float:
    """``interval`` at the reference probe time."""
    return interval * (REFERENCE_S / probe) ** SPEED_EXPONENT


def at_reference(samples) -> float:
    """Median of the (interval, probe) ``samples`` taken nearest the reference
    probe time, each scaled to it: the nearest NEAREST_SHARE of them, but at
    least MIN_NEAREST, or all of them when there are fewer."""
    count = max(math.ceil(NEAREST_SHARE * len(samples)), min(len(samples), MIN_NEAREST))
    nearest = sorted(samples, key=lambda s: abs(math.log(s[1] / REFERENCE_S)))[:count]
    return statistics.median(scaled(t, p) for t, p in nearest)
