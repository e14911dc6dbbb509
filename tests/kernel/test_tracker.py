"""Tests for request-context tracking and trace serialization."""

import numpy as np
import pytest

from repro.hardware.counters import CounterSnapshot, SamplingContext, SamplingCostModel
from repro.hardware.cpu import PhaseBehavior
from repro.kernel.tracker import (
    PERIOD_FIELDS,
    PeriodRecord,
    RequestTrace,
    RequestTracker,
)
from repro.workloads.base import Phase, RequestSpec, single_stage

B = PhaseBehavior(1.0, 0.01, 0.2, 0.3)


def make_spec(request_id=0):
    return RequestSpec(
        request_id=request_id,
        app="t",
        kind="k",
        stages=single_stage("t", [Phase(name="p", instructions=1000, behavior=B)]),
    )


def period(start, end, core=0, cycles=None, ins=None, refs=0.0, misses=0.0,
           inj_ik=0, inj_int=0):
    cycles = cycles if cycles is not None else end - start
    ins = ins if ins is not None else cycles / 2.0
    return PeriodRecord(
        start_cycle=start,
        end_cycle=end,
        core=core,
        counters=CounterSnapshot(cycles, ins, refs, misses),
        injected_in_kernel=inj_ik,
        injected_interrupt=inj_int,
    )


def make_trace(periods, cost_model=None, syscalls=()):
    return RequestTrace(
        spec=make_spec(),
        arrival_cycle=0.0,
        completion_cycle=max(p.end_cycle for p in periods),
        periods=[p.row() for p in periods],
        syscall_events=list(syscalls),
        cost_model=cost_model,
        frequency_ghz=3.0,
    )


class TestTracker:
    def test_lifecycle(self):
        tracker = RequestTracker(cost_model=None, frequency_ghz=3.0)
        spec = make_spec()
        tracker.start_request(spec, 0.0)
        assert tracker.open_requests == 1
        tracker.record_syscall(0, 5.0, "read")
        tracker.close_period(0, period(0, 10))
        assert tracker.finish_request(0, 10.0) == (1, None)
        assert tracker.open_requests == 0
        (trace,) = tracker.build_traces()
        assert trace.num_periods == 1
        assert trace.syscall_events == [(5.0, "read")]
        assert tracker.build_traces() == []

    def test_duplicate_request_rejected(self):
        tracker = RequestTracker(cost_model=None, frequency_ghz=3.0)
        tracker.start_request(make_spec(), 0.0)
        with pytest.raises(ValueError):
            tracker.start_request(make_spec(), 1.0)

    def test_empty_periods_dropped(self):
        tracker = RequestTracker(cost_model=None, frequency_ghz=3.0)
        tracker.start_request(make_spec(), 0.0)
        tracker.close_period(
            0, PeriodRecord(0, 0, 0, CounterSnapshot())
        )
        tracker.close_period(0, period(0, 10))
        assert tracker.finish_request(0, 10.0) == (1, None)
        (trace,) = tracker.build_traces()
        assert trace.num_periods == 1

    def test_no_periods_raises(self):
        tracker = RequestTracker(cost_model=None, frequency_ghz=3.0)
        tracker.start_request(make_spec(), 0.0)
        with pytest.raises(ValueError, match="request 0 produced no periods"):
            tracker.finish_request(0, 10.0)


def sorted_records_arrays(records, cost_model):
    """The arrays of the record-sorting constructor rows replaced."""
    order = np.argsort([p.start_cycle for p in records], kind="stable")
    records = [records[i] for i in order]
    arrays = {
        "start": np.array([p.start_cycle for p in records]),
        "end": np.array([p.end_cycle for p in records]),
        "core": np.array([p.core for p in records], dtype=int),
        "raw_instructions": np.array([p.counters.instructions for p in records]),
        "raw_cycles": np.array([p.counters.cycles for p in records]),
        "raw_l2_refs": np.array([p.counters.l2_refs for p in records]),
        "raw_l2_misses": np.array([p.counters.l2_misses for p in records]),
    }
    n_ik = np.array([p.injected_in_kernel for p in records], dtype=float)
    n_int = np.array([p.injected_interrupt for p in records], dtype=float)
    ik = cost_model.minimum_cost(SamplingContext.IN_KERNEL)
    it = cost_model.minimum_cost(SamplingContext.INTERRUPT)
    for name, field in (
        ("instructions", "instructions"),
        ("cycles", "cycles"),
        ("l2_refs", "l2_refs"),
        ("l2_misses", "l2_misses"),
    ):
        floor = 1.0 if name in ("instructions", "cycles") else 0.0
        arrays[name] = np.maximum(
            floor,
            arrays["raw_" + name]
            - n_ik * getattr(ik, field)
            - n_int * getattr(it, field),
        )
    return arrays


class TestPeriodRows:
    # Out of start order, with a three-way and a two-way start tie whose
    # members differ in every other field.
    RECORDS = [
        period(500.5, 900.25, core=2, cycles=400.0, ins=123.5, refs=7.25,
               misses=1.5, inj_ik=1),
        period(100.0, 300.0, core=1, cycles=200.0, ins=80.0, refs=3.0,
               misses=0.5, inj_int=1),
        period(100.0, 250.0, core=3, cycles=150.0, ins=60.25, refs=2.0,
               misses=0.25, inj_ik=2),
        period(0.0, 100.0, core=0, cycles=100.0, ins=40.0, refs=1.0,
               misses=0.0, inj_int=3),
        period(100.0, 400.0, core=0, cycles=300.0, ins=90.0, refs=4.5,
               misses=1.0),
        period(500.5, 600.0, core=1, cycles=99.5, ins=33.0, refs=0.5,
               misses=0.125, inj_ik=1, inj_int=1),
    ]

    def test_row_field_order_is_pinned(self):
        record = self.RECORDS[0]
        row = dict(zip(PERIOD_FIELDS, record.row()))
        assert row == {
            "start": 500.5,
            "end": 900.25,
            "core": 2,
            "cycles": 400.0,
            "instructions": 123.5,
            "l2_refs": 7.25,
            "l2_misses": 1.5,
            "injected_in_kernel": 1,
            "injected_interrupt": 0,
        }

    def test_rows_build_the_record_sort_arrays(self):
        model = SamplingCostModel()
        trace = make_trace(list(self.RECORDS), cost_model=model)
        expected = sorted_records_arrays(list(self.RECORDS), model)
        for name, array in expected.items():
            got = getattr(trace, name)
            assert got.dtype == array.dtype, name
            assert got.tobytes() == array.tobytes(), name

    def test_equal_starts_keep_append_order(self):
        trace = make_trace(list(self.RECORDS))
        assert trace.start.tolist() == [0.0, 100.0, 100.0, 100.0, 500.5, 500.5]
        # Ties stay in the order the rows were appended.
        assert trace.core.tolist() == [0, 1, 3, 0, 2, 1]
        assert trace.end.tolist() == [100.0, 300.0, 250.0, 400.0, 900.25, 600.0]

    def test_sink_rows_and_closed_records_mix(self):
        """Direct sink appends and close_period build one row list."""
        tracker = RequestTracker(cost_model=SamplingCostModel(), frequency_ghz=3.0)
        tracker.start_request(make_spec(), 0.0)
        sink = tracker.period_sink(0)
        for i, record in enumerate(self.RECORDS):
            if i % 2:
                sink.extend(record.row())
            else:
                tracker.close_period(0, record)
        tracker.finish_request(0, 900.25)
        (trace,) = tracker.build_traces()
        expected = make_trace(list(self.RECORDS), cost_model=SamplingCostModel())
        for name in ("start", "end", "core", "raw_cycles", "cycles",
                     "instructions", "l2_refs", "l2_misses"):
            assert getattr(trace, name).tobytes() == (
                getattr(expected, name).tobytes()
            ), name


class TestTraceBasics:
    def test_periods_sorted_by_start(self):
        trace = make_trace([period(100, 200), period(0, 50)])
        assert trace.start[0] == 0

    def test_totals_and_cpu_time(self):
        trace = make_trace([period(0, 300), period(400, 700)])
        assert trace.total_cycles == pytest.approx(600)
        assert trace.total_instructions == pytest.approx(300)
        assert trace.cpu_time_us() == pytest.approx(600 / 3000)

    def test_overall_cpi(self):
        trace = make_trace([period(0, 100)])
        assert trace.overall_cpi() == pytest.approx(2.0)

    def test_metric_selection(self):
        trace = make_trace([period(0, 100, refs=10.0, misses=4.0)])
        assert trace.overall("l2_refs_per_ins") == pytest.approx(10.0 / 50.0)
        assert trace.overall("l2_miss_per_ins") == pytest.approx(4.0 / 50.0)
        assert trace.overall("l2_miss_ratio") == pytest.approx(0.4)

    def test_unknown_metric_raises(self):
        trace = make_trace([period(0, 100)])
        with pytest.raises(ValueError):
            trace.overall("ipc")

    def test_period_values_drops_zero_denominator(self):
        trace = make_trace(
            [period(0, 100, refs=0.0, misses=0.0), period(100, 200, refs=5.0, misses=1.0)]
        )
        values, weights = trace.period_values("l2_miss_ratio")
        assert values.size == 1
        assert values[0] == pytest.approx(0.2)


class TestCompensation:
    def test_minimum_cost_subtracted(self):
        model = SamplingCostModel()
        ik = model.minimum_cost(SamplingContext.IN_KERNEL)
        raw = period(0, 10_000, cycles=10_000, ins=5000, inj_ik=2)
        trace = make_trace([raw], cost_model=model)
        assert trace.instructions[0] == pytest.approx(5000 - 2 * ik.instructions)
        assert trace.cycles[0] == pytest.approx(10_000 - 2 * ik.cycles)
        # Raw values are preserved alongside.
        assert trace.raw_instructions[0] == pytest.approx(5000)

    def test_never_negative(self):
        model = SamplingCostModel()
        tiny = period(0, 100, cycles=100, ins=10, inj_ik=5)
        trace = make_trace([tiny], cost_model=model)
        assert trace.instructions[0] >= 1.0
        assert trace.cycles[0] >= 1.0

    def test_no_model_keeps_raw(self):
        raw = period(0, 10_000, cycles=10_000, ins=5000, inj_ik=2)
        trace = make_trace([raw], cost_model=None)
        assert trace.instructions[0] == pytest.approx(5000)


class TestWindows:
    def test_window_counters_conserve_mass(self):
        trace = make_trace([period(0, 600), period(600, 1000)])
        win = trace.window_counters(100)
        assert win["instructions"].sum() == pytest.approx(trace.total_instructions)
        assert win["cycles"].sum() == pytest.approx(trace.total_cycles)

    def test_series_values_reasonable(self):
        trace = make_trace([period(0, 100, refs=25.0, misses=5.0)])
        series = trace.series("cpi", 10)
        assert np.allclose(series.values, 2.0)

    def test_series_handles_zero_denominator_windows(self):
        trace = make_trace([period(0, 100, refs=0.0, misses=0.0)])
        series = trace.series("l2_miss_ratio", 10)
        assert np.all(series.values == 0.0)

    def test_invalid_window_raises(self):
        trace = make_trace([period(0, 100)])
        with pytest.raises(ValueError):
            trace.window_counters(0)


class TestExecTimeline:
    def test_exec_offset_skips_gaps(self):
        # Two periods with a scheduling gap between them.
        trace = make_trace([period(0, 100), period(500, 600)])
        assert trace.exec_offset_of_cycle(50) == pytest.approx(50)
        assert trace.exec_offset_of_cycle(300) == pytest.approx(100)  # in gap
        assert trace.exec_offset_of_cycle(550) == pytest.approx(150)
        assert trace.exec_offset_of_cycle(10_000) == pytest.approx(200)

    def test_counters_in_exec_window(self):
        trace = make_trace([period(0, 100), period(500, 600)])
        counters = trace.counters_in_exec_window(50, 150)
        assert counters.cycles == pytest.approx(100)
        assert counters.instructions == pytest.approx(50)

    def test_window_clamped_to_execution(self):
        trace = make_trace([period(0, 100)])
        counters = trace.counters_in_exec_window(-50, 1000)
        assert counters.cycles == pytest.approx(100)

    def test_inverted_window_raises(self):
        trace = make_trace([period(0, 100)])
        with pytest.raises(ValueError):
            trace.counters_in_exec_window(50, 10)
