"""Spans around calls into the package, installed from the benchmark's side.

A traced run replaces the package's public functions (in every package
module that imported them) and the public primitive methods of ``Tape``
with wrappers that open a span. Nothing inside the package changes, and the
originals are put back when the run ends.

A span's self time is its duration minus the time its child spans cover.
Spans aggregate under ``(phase, name)``: the phase is the part of the run
the call happened in ("setup", "warmup", "train", "step", "heldout",
"check"), with "/eval" appended below an ``evaluate`` call. A primitive span is named
``tape:<kind>`` after the kind of the node it recorded, so a kind that no
longer appears simply has no span.
"""

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import flops

# Public functions that get a span. Names missing from the package are skipped.
FUNCTIONS = (
    "synthetic_digits",
    "encode_batch",
    "init_model",
    "forward_batch",
    "backward",
    "model_gradients",
    "adam_step",
    "evaluate",
    "cross_entropy_loss",
    "train",
)

# Tape methods that record nothing and so are not primitives.
BOOKKEEPING = frozenset({"watch", "watch_model", "replay", "forward_flops", "backward_flops"})

# Spans kept for the trace file; later spans still count in the aggregates.
SPAN_LIMIT = 20000


class _Frame:
    __slots__ = ("name", "phase", "start", "opened", "child", "index", "parent")

    def __init__(self, name, phase, index, parent):
        self.name = name
        self.phase = phase
        self.start = self.opened = time.perf_counter()
        self.child = 0.0
        self.index = index
        self.parent = parent


class Tracer:
    """Aggregates spans by (phase, name) and keeps the first SPAN_LIMIT of them."""

    def __init__(self):
        self.phase = "setup"
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(float)
        self.spans = []
        self.dropped = 0
        self._stack = []
        self._next = 0

    def begin(self, name: str) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            phase = self.phase
        elif parent.name == "evaluate":
            phase = parent.phase + "/eval"
        else:
            phase = parent.phase
        self._stack.append(_Frame(name, phase, self._next, parent.index if parent else -1))
        self._next += 1
        return self._stack[-1]

    def end(self, frame: _Frame, stop: float | None = None, name: str | None = None, **work) -> None:
        """Close ``frame`` at ``stop`` (default: now).

        The bookkeeping done after ``stop`` is taken out of every enclosing
        span, so the aggregates hold the package's time, not the tracer's.
        """
        if stop is None:
            stop = time.perf_counter()
        self._stack.pop()
        if name is not None:
            frame.name = name
        duration = stop - frame.start
        key = (frame.phase, frame.name)
        self.total[key] += duration
        self.self_time[key] += duration - frame.child
        self.calls[key] += 1
        for counter, amount in work.items():
            self.work[key + (counter,)] += amount
        if self._stack:
            self._stack[-1].child += duration
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append(
                (frame.index, frame.parent, frame.phase, frame.name, frame.opened, stop)
            )
        else:
            self.dropped += 1
        self.exclude_since(stop)

    def exclude_since(self, since: float) -> None:
        """Shift open spans so the time from ``since`` to now counts in none of them.

        ``start`` moves; ``opened`` keeps the wall-clock start for the trace file.
        """
        spent = time.perf_counter() - since
        for open_frame in self._stack:
            open_frame.start += spent

    @contextmanager
    def span(self, name: str):
        frame = self.begin(name)
        try:
            yield
        finally:
            self.end(frame)

    # -- wrappers ----------------------------------------------------------

    def wrap_function(self, name, fn):
        count_work = _backward_work if name == "backward" else None

        def traced(*args, **kwargs):
            work = {}
            if count_work is not None:
                counted_from = time.perf_counter()
                work = count_work(args[0])
                self.exclude_since(counted_from)
            frame = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(frame, **work)

        traced.__wrapped__ = fn
        return traced

    def wrap_primitive(self, name, fn):
        def traced(tape, *args, **kwargs):
            first = len(tape.nodes)
            frame = self.begin(name)
            try:
                return fn(tape, *args, **kwargs)
            finally:
                stop = time.perf_counter()
                recorded = tape.nodes[first:]
                kind = recorded[-1].kind if recorded else kwargs.get("kind", name)
                self.end(
                    frame,
                    stop,
                    name="tape:" + kind,
                    flop=sum(flops.forward(node) for node in recorded),
                )

        traced.__wrapped__ = fn
        return traced

    def per_call(self, phase, name):
        """(total seconds, self seconds, calls) of one aggregate."""
        key = (phase, name)
        return self.total.get(key, 0.0), self.self_time.get(key, 0.0), self.calls.get(key, 0)

    def work_of(self, phase, name, counter) -> float:
        return self.work.get((phase, name, counter), 0.0)

    def names(self, phase):
        return [name for (p, name) in self.calls if p == phase]

    def write(self, path) -> None:
        """One JSON object per line: a header, then the kept spans in end order."""
        with open(path, "w") as fh:
            header = {"spans": len(self.spans), "dropped": self.dropped}
            fh.write(json.dumps(header) + "\n")
            for index, parent, phase, name, start, stop in self.spans:
                record = {"id": index, "parent": parent, "phase": phase, "name": name,
                          "start": start, "end": stop}
                fh.write(json.dumps(record) + "\n")


def _backward_work(tape):
    nodes = tape.nodes
    return {
        "flop": sum(flops.backward(node) for node in nodes),
        "nodes": len(nodes),
        "bytes": sum(node.output.nbytes for node in nodes),
    }


@contextmanager
def installed(tracer: Tracer, package):
    """Route the package's public functions and Tape primitives through ``tracer``."""
    prefix = package.__name__ + "."
    modules = [
        mod
        for mod_name, mod in list(sys.modules.items())
        if mod is not None and (mod_name == package.__name__ or mod_name.startswith(prefix))
    ]
    undo = []
    for name in FUNCTIONS:
        original = getattr(package, name, None)
        if original is None:
            continue
        traced = tracer.wrap_function(name, original)
        for mod in modules:
            if vars(mod).get(name) is original:
                setattr(mod, name, traced)
                undo.append((mod, name, original))
    tape_cls = package.Tape
    for name, member in list(vars(tape_cls).items()):
        if name.startswith("_") or name in BOOKKEEPING or not callable(member):
            continue
        setattr(tape_cls, name, tracer.wrap_primitive(name, member))
        undo.append((tape_cls, name, member))
    try:
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
