"""In-memory spans recorded around the calls the benchmark makes into
each layer of the ``repro`` package.

A span is ``[name, start, end, parent, request_id]``: ``start``/``end``
are ``time.perf_counter()`` seconds, ``parent`` is the index of the
enclosing span (``-1`` at top level) and ``request_id`` is the simulated
request the call served, when the arguments name one.  Spans live in a
plain list while the benchmark runs and are written as JSONL once it
ends, so recording costs one list append and two clock reads per call.

:class:`NullTracer` is the untraced twin: ``wrap`` hands the callable
back unchanged and ``span`` is a no-op, so an untraced repetition runs
exactly the code a traced one does, minus the recording.

:func:`calibrate` times a fixed loop, the probe the benchmark scales its
times by to report them at one reference host speed.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class Tracer:
    """Records nested spans; one instance per traced repetition."""

    enabled = True

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.origin = _clock()

    @contextmanager
    def span(self, name: str, request_id=None):
        stack = self._stack
        record = [name, _clock(), 0.0, stack[-1] if stack else -1, request_id]
        stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            stack.pop()
            record[2] = _clock()

    def wrap(
        self,
        fn: Callable,
        name,
        request_of: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``name`` is a string or a function of the positional arguments
        (e.g. naming an event handler span after the event's kind);
        ``request_of(args, kwargs)`` extracts the request id.
        """
        spans, stack = self.spans, self._stack
        name_of = name if callable(name) else None

        def traced(*args, **kwargs):
            record = [
                name_of(args) if name_of else name,
                _clock(),
                0.0,
                stack[-1] if stack else -1,
                request_of(args, kwargs) if request_of else None,
            ]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = _clock()

        return traced

    def to_jsonl(self) -> str:
        """One JSON object per span, times relative to the tracer's origin."""
        origin = self.origin
        lines = []
        for index, (name, start, end, parent, request_id) in enumerate(self.spans):
            lines.append(json.dumps({
                "id": index,
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": None if parent < 0 else parent,
                "request_id": request_id,
            }, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")


class NullTracer:
    """Tracing off: wrappers are identity, spans cost nothing."""

    enabled = False

    def wrap(self, fn, name, request_of=None):
        return fn

    @contextmanager
    def span(self, name, request_id=None):
        yield


def _covered(intervals: List[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    A span's self time is its duration minus the part of its interval
    that its child spans cover (overlapping children count once).
    """
    children: Dict[int, List[tuple]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    table: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = end - start
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - _covered(children.get(index, []), start, end)
    return table


def uncovered(spans: List[list], lo: float, hi: float) -> float:
    """Seconds of ``[lo, hi]`` that no top-level span covers."""
    top = [(start, end) for _, start, end, parent, _ in spans if parent < 0]
    return (hi - lo) - _covered(top, lo, hi)


def calibrate(repeats: int = 1) -> float:
    """Seconds a fixed pure-Python loop takes right now (the median of
    ``repeats`` timings).

    The host's speed drifts by tens of percent within seconds (shared
    cores, frequency changes).  Timing this loop between repetitions and
    scaling each repetition's times by ``CALIBRATION_S / calibrate()``
    reports them at one reference speed, so the figures track the
    program rather than the neighbours.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        x = 0
        for i in range(100_000):
            x += i * i % 7
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


#: Nominal duration of :func:`calibrate`'s loop: reported times are host
#: seconds rescaled to a host running that loop in this long.
CALIBRATION_S = 0.0115

