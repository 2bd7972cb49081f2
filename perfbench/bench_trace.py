"""Span tracing of the library from outside its source.

The traced run records a span around every call into a layer's public
functions.  It does so by substituting the module or class attributes
that the program calls through (``Patch.wrap``) and putting the
originals back afterwards, so the library's source never changes.

Spans live in memory as ``[name, start, end, parent, run, pid, ok,
tag]`` lists and are written out once, when the benchmark ends.  A
span's self time is its duration minus the durations of its child
spans *in the same process*: a span opened in a sweep worker is a
child of the parent's ``parallel`` span but ran concurrently with it,
so it is not subtracted.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

NAME, START, END, PARENT, RUN, PID, OK, TAG = range(8)

_MISSING = object()


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self.stack: List[int] = []
        self.run = 0
        self.tag = ""
        self.pid = os.getpid()
        #: Span names for point functions fanned out through run_sweep,
        #: keyed by function identity.
        self.point_names: Dict[Any, str] = {}
        #: The kernel's obs registry (set while a traced run is live).
        self.obs = None

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.run,
                  os.getpid(), True, self.tag]
        index = len(self.spans)
        self.spans.append(record)
        self.stack.append(index)
        try:
            yield record
        except BaseException:
            record[OK] = False
            raise
        finally:
            record[END] = time.perf_counter()
            self.stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def sim_events(self) -> float:
        """Kernel events counted since the last call (then reset)."""
        if self.obs is None:
            return 0.0
        counter = self.obs.counter("sim.events_total")
        value, counter.value = counter.value, 0
        return value

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "run", "pid", "ok",
                     "tag"), record))) + "\n")


TRACER = Tracer()


def self_times(spans: List[list], first: int = 0) -> Dict[tuple, float]:
    """Self time summed per ``(name, tag)`` over ``spans``, a slice of
    ``TRACER.spans`` that starts at index ``first``."""
    child = [0.0] * len(spans)
    for record in spans:
        parent = record[PARENT] - first
        if parent >= 0 and spans[parent][PID] == record[PID]:
            child[parent] += record[END] - record[START]
    totals: Dict[tuple, float] = {}
    for record, inner in zip(spans, child):
        key = (record[NAME], record[TAG])
        totals[key] = totals.get(key, 0.0) + record[END] - record[START] - inner
    return totals


def durations(spans: List[list], name: str) -> List[float]:
    return [r[END] - r[START] for r in spans if r[NAME] == name]


class Patch:
    """Attribute substitutions that ``undo`` reverts in reverse order."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Optional[Callable[[Any], None]] = None,
        materialize: bool = False,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``materialize`` drains a returned iterator inside the span, for
        generator functions whose work happens as they are consumed.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with TRACER.span(name):
                result = original(*args, **kwargs)
                if materialize:
                    result = list(result)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = original
        self.set(owner, attr, traced)

    def wrap_stream(self, owner: Any, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a generator function whose stream is
        consumed elsewhere: its pulls are timed by :func:`chunked_stream`."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            return chunked_stream(name, original(*args, **kwargs))

        traced.__wrapped__ = original
        self.set(owner, attr, traced)

    def undo(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def chunked_stream(name: str, stream, chunk: int = 4096):
    """Re-yield ``stream``, timing each ``chunk``-record pull as a span.

    A lazily consumed generator does its work inside the consumer's
    span; pulling it in chunks gives the producer spans of its own
    without a timer call per record.
    """
    iterator = iter(stream)
    while True:
        with TRACER.span(name):
            block = [item for _, item in zip(range(chunk), iterator)]
        if not block:
            return
        yield from block


def _traced_point(packed, seed):
    """Sweep point trampoline: times the point and, in a forked worker,
    ships the worker's spans and counters back with the value."""
    name, fn, point = packed
    local = os.getpid() == TRACER.pid
    base = len(TRACER.spans)
    counts = dict(TRACER.counts)
    if not local:
        TRACER.sim_events()  # drop the count inherited from the parent
    start = time.perf_counter()
    with TRACER.span(name):
        value = fn(point, seed)
    end = time.perf_counter()
    if local:
        return value, start, end, None
    spans = TRACER.spans[base:]
    del TRACER.spans[base:]
    delta = {k: v - counts.get(k, 0.0) for k, v in TRACER.counts.items()}
    delta["sim.events"] = delta.get("sim.events", 0.0) + TRACER.sim_events()
    TRACER.counts = counts
    return value, start, end, (base, spans, delta)


def traced_run_sweep(original: Callable) -> Callable:
    """A ``run_sweep`` that records the fan-out: a ``parallel`` span,
    one span per point (named by ``TRACER.point_names``), busy and idle
    worker time, and the pickled payload and result sizes."""
    from repro.parallel import resolve_workers

    def run_sweep(fn, points, root_seed=0, workers=None, cache=None):
        points = list(points)
        name = TRACER.point_names.get(fn, "sweep.point")
        payload = [(name, fn, point) for point in points]
        fanned = resolve_workers(workers) > 1 and len(points) > 1
        with TRACER.span("parallel") as span:
            out = original(_traced_point, payload, root_seed=root_seed,
                           workers=workers, cache=cache)
        values = []
        busy = 0.0
        for value, start, end, shipped in out:
            values.append(value)
            busy += end - start
            if shipped is None:
                continue
            base, spans, delta = shipped
            offset = len(TRACER.spans) - base
            for record in spans:
                if record[PARENT] >= base:
                    record[PARENT] += offset
                record[RUN] = TRACER.run
                TRACER.spans.append(record)
            for key, amount in delta.items():
                TRACER.count(key, amount)
        wall = span[END] - span[START]
        lanes = min(resolve_workers(workers), len(points)) if fanned else 1
        TRACER.count("parallel.busy_s", busy)
        TRACER.count("parallel.idle_s", max(0.0, lanes * wall - busy))
        if fanned:
            TRACER.count("parallel.payload_bytes",
                         sum(len(pickle.dumps(p)) for p in points))
            TRACER.count("parallel.result_bytes",
                         sum(len(pickle.dumps(v)) for v in values))
        return values

    run_sweep.__wrapped__ = original
    return run_sweep
