"""The run-wide trace builder against the per-request oracle.

:meth:`RequestTracker.build_traces` sorts, compensates and slices the
period rows of every finished request at once; ``RequestTrace(...)``
runs the same builder on one request.  Both must produce, array for
array, the bytes and dtypes of :func:`tests.oracles.reference_trace_arrays`,
which builds each request on its own the way every completion used to.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.counters import CounterSnapshot, SamplingCostModel
from repro.hardware.cpu import PhaseBehavior
from repro.kernel.tracker import PeriodRecord, RequestTrace, RequestTracker
from repro.workloads.base import Phase, RequestSpec, single_stage
from tests.oracles import reference_trace_arrays

FREQUENCY_GHZ = 3.0
B = PhaseBehavior(1.0, 0.01, 0.2, 0.3)
ARRAY_NAMES = (
    "start", "end", "core",
    "raw_instructions", "raw_cycles", "raw_l2_refs", "raw_l2_misses",
    "instructions", "cycles", "l2_refs", "l2_misses",
)

# Few distinct start cycles, so rows of one request tie two and three
# ways; ints and floats of equal value mix within a request.
starts = st.sampled_from([0, 0.0, 100, 100.0, 250.5, 1_000, 1_000.0])
counts = st.one_of(
    st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False),
    st.integers(min_value=0, max_value=5_000),
)
rows = st.tuples(
    starts,
    st.floats(min_value=0.5, max_value=900.0, allow_nan=False),  # width
    st.integers(min_value=0, max_value=3),  # core
    st.one_of(
        st.floats(min_value=0.5, max_value=5_000.0, allow_nan=False),
        st.integers(min_value=1, max_value=5_000),
    ),  # cycles: positive, so close_period keeps every row
    counts,  # instructions
    counts,  # l2_refs
    counts,  # l2_misses
    st.integers(min_value=0, max_value=3),  # injected in kernel
    st.integers(min_value=0, max_value=3),  # injected interrupt
).map(lambda r: (r[0], r[0] + r[1]) + r[2:])
requests = st.lists(
    st.lists(rows, min_size=1, max_size=8), min_size=1, max_size=6
)


def make_spec(request_id):
    return RequestSpec(
        request_id=request_id,
        app="t",
        kind="k",
        stages=single_stage("t", [Phase(name="p", instructions=1000, behavior=B)]),
    )


def record(row):
    start, end, core, cycles, ins, refs, misses, inj_ik, inj_int = row
    return PeriodRecord(
        start, end, core, CounterSnapshot(cycles, ins, refs, misses),
        inj_ik, inj_int,
    )


def assert_matches_oracle(trace, periods, cost_model):
    expected = reference_trace_arrays(periods, cost_model)
    assert set(expected) == set(ARRAY_NAMES)
    for name in ARRAY_NAMES:
        got = getattr(trace, name)
        assert got.dtype == expected[name].dtype, name
        assert got.tobytes() == expected[name].tobytes(), name


class TestBuilderMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        requests=requests,
        compensate=st.booleans(),
        data=st.data(),
    )
    def test_tracker_build(self, requests, compensate, data):
        model = SamplingCostModel()
        cost_model = model if compensate else None
        tracker = RequestTracker(model, FREQUENCY_GHZ, compensate=compensate)
        for request_id in range(len(requests)):
            tracker.start_request(make_spec(request_id), float(request_id))
        # Rows arrive interleaved across requests, some through
        # close_period and some appended to the sink directly.
        pending = [list(periods) for periods in requests]
        while any(pending):
            live = [i for i, left in enumerate(pending) if left]
            request_id = data.draw(st.sampled_from(live))
            row = pending[request_id].pop(0)
            if data.draw(st.booleans()):
                tracker.close_period(request_id, record(row))
            else:
                tracker.period_sink(request_id).extend(row)
        completion_order = data.draw(st.permutations(range(len(requests))))
        for request_id in completion_order:
            want_cpu = data.draw(st.booleans())
            count, cpu_time_us = tracker.finish_request(
                request_id, 10_000.0 + request_id, cpu_time=want_cpu
            )
            assert count == len(requests[request_id])
            if want_cpu:
                expected = reference_trace_arrays(
                    requests[request_id], cost_model
                )["cycles"]
                assert cpu_time_us == float(expected.sum()) / (
                    FREQUENCY_GHZ * 1000.0
                )
            else:
                assert cpu_time_us is None

        traces = tracker.build_traces()
        assert [t.spec.request_id for t in traces] == list(completion_order)
        for trace in traces:
            request_id = trace.spec.request_id
            assert trace.arrival_cycle == float(request_id)
            assert trace.completion_cycle == 10_000.0 + request_id
            assert_matches_oracle(trace, requests[request_id], cost_model)
        assert tracker.build_traces() == []

    @settings(max_examples=200, deadline=None)
    @given(
        periods=st.lists(rows, min_size=1, max_size=10),
        compensate=st.booleans(),
    )
    def test_constructor(self, periods, compensate):
        cost_model = SamplingCostModel() if compensate else None
        trace = RequestTrace(
            spec=make_spec(0),
            arrival_cycle=0.0,
            completion_cycle=1.0,
            periods=periods,
            syscall_events=[],
            cost_model=cost_model,
            frequency_ghz=FREQUENCY_GHZ,
        )
        assert_matches_oracle(trace, periods, cost_model)


class TestEmptyRequest:
    def test_raises_at_completion(self):
        tracker = RequestTracker(SamplingCostModel(), FREQUENCY_GHZ)
        for request_id in range(3):
            tracker.start_request(make_spec(request_id), 0.0)
        tracker.period_sink(0).extend((0.0, 10.0, 0, 10.0, 5.0, 1.0, 0.0, 1, 0))
        tracker.period_sink(2).extend((5.0, 20.0, 1, 15.0, 6.0, 1.0, 0.5, 0, 1))
        # Only no-activity periods: close_period drops them.
        tracker.close_period(1, PeriodRecord(0.0, 0.0, 0, CounterSnapshot()))
        tracker.finish_request(0, 10.0)
        with pytest.raises(ValueError, match="^request 1 produced no periods$"):
            tracker.finish_request(1, 12.0)
        tracker.finish_request(2, 20.0)
        traces = tracker.build_traces()
        assert [t.spec.request_id for t in traces] == [0, 2]
        assert [t.num_periods for t in traces] == [1, 1]

    def test_constructor_raises(self):
        with pytest.raises(ValueError, match="^request 4 produced no periods$"):
            RequestTrace(make_spec(4), 0.0, 1.0, [], [], None, FREQUENCY_GHZ)


class TestRunWideViews:
    def test_traces_slice_shared_columns(self):
        """Traces of one build are views of the same run-wide columns."""
        tracker = RequestTracker(SamplingCostModel(), FREQUENCY_GHZ)
        for request_id in range(2):
            tracker.start_request(make_spec(request_id), 0.0)
            tracker.period_sink(request_id).extend(
                (float(request_id), 10.0, 0, 10.0, 5.0, 1.0, 0.0, 1, 0)
            )
            tracker.finish_request(request_id, 10.0)
        first, second = tracker.build_traces()
        assert first.cycles.base is not None
        assert first.cycles.base is second.cycles.base
        assert first.cycles.flags.c_contiguous
