"""Request-context tracking and per-request timeline serialization.

A request does not execute continuously on one CPU: it is context-switched,
and it propagates across server tiers through socket operations.  The
tracker attributes every execution period (the counter deltas between two
samples) to the owning request and serializes the periods into a
continuous request timeline (the paper's Section 2.1 mechanism, detailed
in their prior work [27]).

Serialization is split in two.  At a request's completion its period rows
move into one float64 column store for the run, and the tracker reports
what mid-run consumers need (the period count, and the CPU time when asked,
for which that one request is built at once).  When the run ends,
:meth:`RequestTracker.build_traces` sorts, compensates and slices the whole
store at once: one lexsort on (request, start), one compensation pass, one
slice per request.  Those traces' arrays are views of the run's columns,
so a retained trace keeps the columns alive.

Traces carry both raw measured counters (including sampling observer-effect
perturbation) and compensated counters where the known minimum per-sample
cost has been subtracted ("do no harm", Section 3.1).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.timeseries import MetricSeries
from repro.hardware.counters import CounterSnapshot, SamplingContext, SamplingCostModel
from repro.workloads.base import RequestSpec

#: Metric names resolvable by :meth:`RequestTrace.series` and friends.
METRICS = ("cpi", "l2_refs_per_ins", "l2_miss_per_ins", "l2_miss_ratio")

#: Field order of a period *row*: the values an open request stores per
#: kept execution period, and what :class:`RequestTrace` builds its arrays
#: from.  :meth:`PeriodRecord.row` and the simulator's per-sample flush
#: both write this order.
PERIOD_FIELDS = (
    "start",
    "end",
    "core",
    "cycles",
    "instructions",
    "l2_refs",
    "l2_misses",
    "injected_in_kernel",
    "injected_interrupt",
)


class PeriodRecord:
    """One execution period: counter deltas between consecutive samples.

    The reference event loop hands these to
    :meth:`RequestTracker.close_period`, which stores each kept period as
    a flat row (:meth:`row`); the fast path appends rows without building
    a record at all.
    """

    __slots__ = (
        "start_cycle",
        "end_cycle",
        "core",
        "counters",
        "injected_in_kernel",
        "injected_interrupt",
        "closing_context",
    )

    def __init__(
        self,
        start_cycle: float,
        end_cycle: float,
        core: int,
        counters: CounterSnapshot,
        injected_in_kernel: int = 0,
        injected_interrupt: int = 0,
        closing_context: Optional[SamplingContext] = None,
    ):
        self.start_cycle = start_cycle
        self.end_cycle = end_cycle
        self.core = core
        self.counters = counters
        #: Number of compensatable samples whose cost was injected into
        #: this period, by sampling context.
        self.injected_in_kernel = injected_in_kernel
        self.injected_interrupt = injected_interrupt
        #: What closed the period (None for the final flush at completion).
        self.closing_context = closing_context

    def row(self) -> tuple:
        """The period as a flat row in :data:`PERIOD_FIELDS` order."""
        counters = self.counters
        return (
            self.start_cycle,
            self.end_cycle,
            self.core,
            counters.cycles,
            counters.instructions,
            counters.l2_refs,
            counters.l2_misses,
            self.injected_in_kernel,
            self.injected_interrupt,
        )

    def __repr__(self) -> str:
        return (
            f"PeriodRecord(start_cycle={self.start_cycle!r}, "
            f"end_cycle={self.end_cycle!r}, core={self.core!r}, "
            f"counters={self.counters!r}, "
            f"injected_in_kernel={self.injected_in_kernel!r}, "
            f"injected_interrupt={self.injected_interrupt!r}, "
            f"closing_context={self.closing_context!r})"
        )


class RequestTrace:
    """Serialized per-request counter timeline.

    ``periods`` holds one row per execution period, fields in
    :data:`PERIOD_FIELDS` order, in any order of start cycle: the arrays
    are sorted on ``start`` with a stable sort, so equal starts keep their
    append order.  The constructor and :meth:`RequestTracker.build_traces`
    share one column builder; traces built for a whole run hold slices
    (views) of that run's columns.
    """

    def __init__(
        self,
        spec: RequestSpec,
        arrival_cycle: float,
        completion_cycle: float,
        periods: List[tuple],
        syscall_events: List[Tuple[float, str]],
        cost_model: Optional[SamplingCostModel],
        frequency_ghz: float,
    ):
        if not periods:
            raise ValueError(f"request {spec.request_id} produced no periods")
        arrays = _assemble(
            _typed_columns(zip(*periods)), [len(periods)], cost_model
        )
        self._bind(
            spec, arrival_cycle, completion_cycle, list(syscall_events),
            frequency_ghz, arrays, 0, len(periods),
        )

    def _bind(self, spec, arrival_cycle, completion_cycle, syscall_events,
              frequency_ghz, arrays, lo, hi) -> None:
        self.spec = spec
        self.arrival_cycle = arrival_cycle
        self.completion_cycle = completion_cycle
        self.syscall_events = syscall_events
        self.frequency_ghz = frequency_ghz
        for name, column in arrays.items():
            setattr(self, name, column[lo:hi])

    # -- whole-request aggregates ------------------------------------------

    @property
    def num_periods(self) -> int:
        return int(self.instructions.size)

    @property
    def total_instructions(self) -> float:
        return float(self.instructions.sum())

    @property
    def total_cycles(self) -> float:
        return float(self.cycles.sum())

    def cpu_time_us(self) -> float:
        """Total CPU execution time consumed by the request."""
        return self.total_cycles / (self.frequency_ghz * 1000.0)

    def overall(self, metric: str) -> float:
        """Whole-execution value of a metric (total numerator / denominator)."""
        num, den = self._metric_sums(metric)
        return num / den

    def overall_cpi(self) -> float:
        return self.overall("cpi")

    # -- per-period views ---------------------------------------------------

    def _metric_arrays(self, metric: str):
        if metric == "cpi":
            return self.cycles, self.instructions
        if metric == "l2_refs_per_ins":
            return self.l2_refs, self.instructions
        if metric == "l2_miss_per_ins":
            return self.l2_misses, self.instructions
        if metric == "l2_miss_ratio":
            return self.l2_misses, self.l2_refs
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")

    def _metric_sums(self, metric: str):
        num, den = self._metric_arrays(metric)
        total_den = float(den.sum())
        if total_den <= 0:
            raise ValueError(f"metric {metric!r} denominator is zero for request")
        return float(num.sum()), total_den

    def period_values(self, metric: str):
        """Per-period metric values and instruction weights.

        Periods whose denominator is zero are dropped (e.g. miss ratio in a
        period without L2 references).
        """
        num, den = self._metric_arrays(metric)
        keep = den > 0
        return num[keep] / den[keep], self.instructions[keep]

    def series(self, metric: str, window_instructions: float) -> MetricSeries:
        """Metric series resampled on fixed instruction-count windows."""
        win = self.window_counters(window_instructions)
        num, den = self._window_metric(win, metric)
        safe_den = np.where(den > 0, den, 1.0)
        values = np.where(den > 0, num / safe_den, 0.0)
        return MetricSeries(values=values, lengths=np.full(values.shape, float(window_instructions)))

    def window_counters(self, window_instructions: float) -> Dict[str, np.ndarray]:
        """Counters aggregated over fixed instruction-count windows."""
        if window_instructions <= 0:
            raise ValueError("window_instructions must be positive")
        boundaries = np.concatenate([[0.0], np.cumsum(self.instructions)])
        total = boundaries[-1]
        n_windows = max(1, int(total // window_instructions))
        edges = window_instructions * np.arange(n_windows + 1)
        edges[-1] = min(edges[-1], total)
        out = {}
        for name, arr in (
            ("instructions", self.instructions),
            ("cycles", self.cycles),
            ("l2_refs", self.l2_refs),
            ("l2_misses", self.l2_misses),
        ):
            cum = np.concatenate([[0.0], np.cumsum(arr)])
            at_edges = np.interp(edges, boundaries, cum)
            out[name] = np.diff(at_edges)
        return out

    @staticmethod
    def _window_metric(win: Dict[str, np.ndarray], metric: str):
        if metric == "cpi":
            return win["cycles"], win["instructions"]
        if metric == "l2_refs_per_ins":
            return win["l2_refs"], win["instructions"]
        if metric == "l2_miss_per_ins":
            return win["l2_misses"], win["instructions"]
        if metric == "l2_miss_ratio":
            return win["l2_misses"], win["l2_refs"]
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")

    # -- execution-time views (for transition-signal training) --------------

    def exec_offset_of_cycle(self, cycle: float) -> float:
        """Map a wall-clock cycle to the request's busy-cycle offset.

        The request's execution timeline is the concatenation of its
        periods with scheduling gaps removed.
        """
        busy_before = 0.0
        for start, end, cyc in zip(self.start, self.end, self.cycles):
            if cycle < start:
                return busy_before
            if cycle <= end:
                wall = max(end - start, 1e-9)
                return busy_before + (cycle - start) / wall * cyc
            busy_before += cyc
        return busy_before

    def counters_in_exec_window(self, b0: float, b1: float) -> CounterSnapshot:
        """Counters accumulated between two busy-cycle offsets."""
        if b1 < b0:
            raise ValueError("window end before start")
        boundaries = np.concatenate([[0.0], np.cumsum(self.cycles)])
        b0 = min(max(b0, 0.0), boundaries[-1])
        b1 = min(max(b1, 0.0), boundaries[-1])
        values = {}
        for name, arr in (
            ("cycles", self.cycles),
            ("instructions", self.instructions),
            ("l2_refs", self.l2_refs),
            ("l2_misses", self.l2_misses),
        ):
            cum = np.concatenate([[0.0], np.cumsum(arr)])
            values[name] = float(
                np.interp(b1, boundaries, cum) - np.interp(b0, boundaries, cum)
            )
        return CounterSnapshot(**values)


#: Trace array attribute and :data:`PERIOD_FIELDS` position of each raw
#: column, in attribute order; the compensated counters follow.
_RAW_ARRAYS = (
    ("start", 0),
    ("end", 1),
    ("core", 2),
    ("raw_instructions", 4),
    ("raw_cycles", 3),
    ("raw_l2_refs", 5),
    ("raw_l2_misses", 6),
)
#: Compensated counters (``CounterSnapshot`` field names) and their floors.
_COMPENSATED = (
    ("instructions", 1.0),
    ("cycles", 1.0),
    ("l2_refs", 0.0),
    ("l2_misses", 0.0),
)
_NUM_FIELDS = len(PERIOD_FIELDS)
#: dtype of each period column: values keep numpy's inference (all-int
#: start cycles give an int ``start``), the core is an int, injected-sample
#: counts are floats.
_COLUMN_DTYPES = (None, None, int, None, None, None, None, float, float)
#: Row positions whose values the float64 store holds exactly as numpy
#: infers them once the request's first row has a float there.
_VALUE_FIELDS = (0, 1, 3, 4, 5, 6)


def _typed_columns(columns) -> list:
    """The nine period columns as arrays of their trace dtypes."""
    return [
        np.array(column, dtype=dtype)
        for column, dtype in zip(columns, _COLUMN_DTYPES)
    ]


def _assemble(columns: list, counts, cost_model) -> Dict[str, np.ndarray]:
    """Sort and compensate the period columns of consecutive requests.

    ``columns`` are the nine period columns in :data:`PERIOD_FIELDS`
    order (arrays, or float64 buffers); request ``i`` owns the next
    ``counts[i]`` rows.  One stable lexsort on (request, start) orders
    each request's rows by start cycle, ties in append order, and one
    compensation pass covers every row.  Returns the run-wide trace
    arrays by attribute name; request ``i``'s are the slice from
    ``sum(counts[:i])``.  Each entry of ``columns`` is released as soon as
    it is sorted, so a store is freed column by column.
    """
    order = np.lexsort(
        (np.asarray(columns[0]), np.repeat(np.arange(len(counts)), counts))
    )
    arrays = {}
    for name, field in _RAW_ARRAYS:
        arrays[name] = np.asarray(columns[field])[order]
        columns[field] = None
    arrays["core"] = arrays["core"].astype(int, copy=False)
    if cost_model is None:
        for name, _ in _COMPENSATED:
            arrays[name] = arrays["raw_" + name].copy()
        return arrays
    n_ik = np.asarray(columns[7])[order]
    n_int = np.asarray(columns[8])[order]
    columns[7] = columns[8] = order = None
    ik = cost_model.minimum_cost(SamplingContext.IN_KERNEL)
    it = cost_model.minimum_cost(SamplingContext.INTERRUPT)
    for name, floor in _COMPENSATED:
        arrays[name] = np.maximum(
            floor,
            arrays["raw_" + name]
            - n_ik * getattr(ik, name)
            - n_int * getattr(it, name),
        )
    return arrays


class _OpenRequest:
    __slots__ = ("spec", "arrival_cycle", "periods", "syscalls")

    def __init__(self, spec: RequestSpec, arrival_cycle: float):
        self.spec = spec
        self.arrival_cycle = arrival_cycle
        #: Kept period rows, flattened: each row's fields in
        #: :data:`PERIOD_FIELDS` order, one row after the other.
        self.periods: list = []
        self.syscalls: List[Tuple[float, str]] = []


def _new_store() -> list:
    return [array("d") for _ in PERIOD_FIELDS]


class RequestTracker:
    """Attributes execution periods and syscalls to request contexts.

    A finished request's period rows move into one float64 column store
    for the run; :meth:`build_traces` turns the store into every trace at
    once when the run ends.
    """

    def __init__(
        self,
        cost_model: Optional[SamplingCostModel],
        frequency_ghz: float,
        compensate: bool = True,
        collector=None,
    ):
        from repro.obs.trace import NULL_COLLECTOR

        self._cost_model = cost_model if compensate else None
        self._frequency_ghz = frequency_ghz
        self._open: Dict[int, _OpenRequest] = {}
        #: Period columns of the finished requests, in completion order.
        self._store = _new_store()
        #: Finished requests in completion order: ``(spec, arrival,
        #: completion, syscalls, num_periods)`` for rows in the store, or a
        #: trace built at completion (see :meth:`finish_request`).
        self._finished: list = []
        self._obs = collector if collector is not None else NULL_COLLECTOR
        # Precomputed per-kind guards: a kind-filtered collector skips
        # even the keyword packing on the dense emission sites.
        self._emit_syscall = self._obs.enabled and self._obs.wants("syscall")
        self._emit_period = self._obs.enabled and self._obs.wants("period_sample")

    def start_request(self, spec: RequestSpec, arrival_cycle: float) -> None:
        if spec.request_id in self._open:
            raise ValueError(f"request {spec.request_id} already tracked")
        self._open[spec.request_id] = _OpenRequest(spec, arrival_cycle)

    def record_syscall(self, request_id: int, cycle: float, name: str) -> None:
        self._open[request_id].syscalls.append((cycle, name))
        if self._emit_syscall:
            self._obs.emit("syscall", cycle, request_id=request_id, name=name)

    @property
    def emits_period_samples(self) -> bool:
        """Whether kept periods are emitted as ``period_sample`` events."""
        return self._emit_period

    def period_sink(self, request_id: int) -> list:
        """The open request's flattened period rows, for direct appends.

        The simulator fast path extends it by one pre-filtered row per
        kept period, fields in :data:`PERIOD_FIELDS` order, to skip the
        per-sample dict lookup and record allocation of
        :meth:`close_period`; it then hands the same row to
        :meth:`emit_period_sample` when :attr:`emits_period_samples`.
        """
        return self._open[request_id].periods

    def close_period(self, request_id: int, period: PeriodRecord) -> None:
        """Attribute a finished execution period to its request.

        Periods with no measurable activity are dropped.  Kept periods are
        also emitted as ``period_sample`` events (:meth:`emit_period_sample`).
        """
        if period.counters.cycles <= 0 and period.counters.instructions <= 0:
            return
        row = period.row()
        self._open[request_id].periods.extend(row)
        if self._emit_period:
            self.emit_period_sample(request_id, row)

    def emit_period_sample(self, request_id: int, row: tuple) -> None:
        """Emit a kept period row as a ``period_sample`` event.

        The event carries the raw counter deltas plus injected-sample
        counts — the per-request sample stream the online pipeline
        (:mod:`repro.online`) consumes.
        """
        (start, end, core, cycles, instructions, l2_refs, l2_misses,
         injected_in_kernel, injected_interrupt) = row
        self._obs.emit(
            "period_sample",
            end,
            request_id=request_id,
            core=core,
            start_cycle=start,
            instructions=instructions,
            cycles=cycles,
            l2_refs=l2_refs,
            l2_misses=l2_misses,
            injected_in_kernel=injected_in_kernel,
            injected_interrupt=injected_interrupt,
        )

    def finish_request(
        self, request_id: int, completion_cycle: float, cpu_time: bool = False
    ) -> Tuple[int, Optional[float]]:
        """Close a request; its trace is built by :meth:`build_traces`.

        Returns ``(num_periods, cpu_time_us)``.  The CPU time is the
        trace's :meth:`RequestTrace.cpu_time_us`, computed only when
        ``cpu_time`` is set (else None); such a request's trace is built
        now rather than from the store.  A request without kept periods
        raises here, at its completion.
        """
        open_req = self._open.pop(request_id)
        flat = open_req.periods
        count = len(flat) // _NUM_FIELDS
        if not count:
            raise ValueError(f"request {request_id} produced no periods")
        # A float in each value field of the first row fixes those columns'
        # inferred dtype to float64, which the store holds exactly.
        exact = all(isinstance(flat[i], float) for i in _VALUE_FIELDS)
        if exact and not cpu_time:
            for i, store in enumerate(self._store):
                store.fromlist(flat[i::_NUM_FIELDS])
            self._finished.append((
                open_req.spec, open_req.arrival_cycle, completion_cycle,
                open_req.syscalls, count,
            ))
            return count, None
        # Built now, through the same builder on this request alone: its
        # CPU time is wanted mid-run, or its dtypes need numpy's inference.
        trace = RequestTrace.__new__(RequestTrace)
        trace._bind(
            open_req.spec, open_req.arrival_cycle, completion_cycle,
            open_req.syscalls, self._frequency_ghz,
            _assemble(
                _typed_columns(flat[i::_NUM_FIELDS] for i in range(_NUM_FIELDS)),
                [count],
                self._cost_model,
            ),
            0,
            count,
        )
        self._finished.append(trace)
        return count, trace.cpu_time_us() if cpu_time else None

    def build_traces(self) -> List[RequestTrace]:
        """Every finished request's trace, in completion order.

        One lexsort, one compensation pass and one slice per request over
        the whole store; each trace's arrays are views of the run-wide
        columns.  The store and the finished list are emptied.
        """
        finished, self._finished = self._finished, []
        store, self._store = self._store, _new_store()
        counts = [entry[4] for entry in finished if type(entry) is tuple]
        arrays = _assemble(store, counts, self._cost_model) if counts else None
        del store
        traces = []
        lo = 0
        for entry in finished:
            if type(entry) is tuple:
                spec, arrival_cycle, completion_cycle, syscalls, count = entry
                trace = RequestTrace.__new__(RequestTrace)
                trace._bind(
                    spec, arrival_cycle, completion_cycle, syscalls,
                    self._frequency_ghz, arrays, lo, lo + count,
                )
                lo += count
            else:
                trace = entry
            traces.append(trace)
        return traces

    @property
    def open_requests(self) -> int:
        return len(self._open)
