"""Differential spine: fastpath vs. reference must be byte-identical.

Every test here runs the same configuration through
:class:`~repro.kernel.fastpath.FastpathSimulator` and
:class:`~repro.kernel.fastpath.ReferenceSimulator` and demands that
*everything observable* matches to the byte: the serialized JSONL event
stream, every per-request counter array (compensated and raw), wall
cycles, shed counts, sampler tallies, and the open-system latency
records.  The fast path is an optimization, not a model change — any
single-bit divergence is a bug, so no tolerances appear anywhere in
this file.

The grid deliberately crosses the axes that exercise different parts of
the hot path: all registry workloads (single- and multi-tier), all four
sampling techniques (interrupt rows, ratecall rows, the trigger
predicate), open- vs. closed-loop arrivals, non-trivial dispatch, the
contention-easing scheduler (resched events), bounded-admission
overload (shedding), and distributed tier placement (network hand-off
events).  The workload grid additionally crosses the two generation
engines, so every cell is checked with both the shipped batched
generators and the reference generators built explicitly from
:mod:`tests.oracles`.
"""

import itertools
import json

import pytest

from repro.hardware.platform import cluster_machine
from repro.kernel.contention import ContentionEasingScheduler
from repro.kernel.fastpath import FastpathSimulator, ReferenceSimulator
from repro.kernel.sampling import SamplingMode, SamplingPolicy
from repro.kernel.simulator import ServerSimulator, SimConfig
from repro.obs.trace import TraceCollector, events_to_jsonl
from repro.traffic import (
    ClassAwareDispatch,
    JoinShortestQueue,
    LeastOutstandingWork,
    OnOffArrivals,
    PoissonArrivals,
    RandomDispatch,
    TrafficConfig,
)
from repro.workloads.genfast import FastTpccWorkload
from repro.workloads.registry import (
    available_workloads,
    make_faulted_workload,
    make_workload,
)
from tests.oracles import make_reference_faulted_workload, make_reference_workload

TRACE_FIELDS = (
    "start",
    "end",
    "core",
    "cycles",
    "instructions",
    "l2_refs",
    "l2_misses",
    "raw_cycles",
    "raw_instructions",
    "raw_l2_refs",
    "raw_l2_misses",
)

SAMPLING_POLICIES = {
    "cs_only": SamplingPolicy(mode=SamplingMode.CONTEXT_SWITCH_ONLY),
    "interrupt": SamplingPolicy.interrupt(50.0),
    "syscall": SamplingPolicy.syscall_triggered(80.0, 400.0),
    "transition": SamplingPolicy.transition_signal(
        80.0, 400.0, {"read", "stat", "write"}
    ),
}


#: Generation engine -> (plain constructor, faulted constructor).
GEN_ENGINES = {
    "gen_fast": (make_workload, make_faulted_workload),
    "gen_ref": (make_reference_workload, make_reference_faulted_workload),
}


def _run(sim_cls, workload_name, config_factory, faults=None, gen="gen_fast",
         **config_kwargs):
    collector = TraceCollector(capacity=500_000)
    config_kwargs.setdefault("num_requests", 20)
    config_kwargs.setdefault("seed", 7)
    if config_factory is not None:
        # Fresh stateful objects (schedulers learn across runs) so the
        # reference run never sees state the fastpath run accumulated.
        config_kwargs.update(config_factory())
    config = SimConfig(collector=collector, **config_kwargs)
    plain, faulted = GEN_ENGINES[gen]
    workload = faulted(workload_name, faults) if faults else plain(workload_name)
    result = sim_cls(workload, config).run()
    return result, collector


def _latency_fingerprint(store):
    """Exact (not summarized) view of the latency store."""
    if store is None:
        return None
    records = [
        (r.request_id, r.kind, r.tenant, r.arrival_cycle, r.start_cycle,
         r.completion_cycle)
        for r in store.records
    ]
    return records, store.shed, json.dumps(store.summary(), sort_keys=True)


def assert_identical(workload_name, config_factory=None, faults=None,
                     gen="gen_fast", **config_kwargs):
    fast, fast_col = _run(
        FastpathSimulator, workload_name, config_factory, faults=faults,
        gen=gen, **config_kwargs
    )
    ref, ref_col = _run(
        ReferenceSimulator, workload_name, config_factory, faults=faults,
        gen=gen, **config_kwargs
    )

    fast_jsonl = events_to_jsonl(fast_col.events, dropped=fast_col.dropped)
    ref_jsonl = events_to_jsonl(ref_col.events, dropped=ref_col.dropped)
    if fast_jsonl != ref_jsonl:
        # Don't hand pytest two multi-megabyte strings to diff; report
        # the first diverging line instead.
        for lineno, (fast_line, ref_line) in enumerate(
            zip(fast_jsonl.splitlines(), ref_jsonl.splitlines()), start=1
        ):
            if fast_line != ref_line:
                pytest.fail(
                    f"{workload_name}: event JSONL diverged at line {lineno}:\n"
                    f"  fastpath:  {fast_line}\n  reference: {ref_line}"
                )
        pytest.fail(
            f"{workload_name}: event JSONL diverged in length "
            f"({len(fast_jsonl)} vs {len(ref_jsonl)} bytes)"
        )
    assert fast.wall_cycles == ref.wall_cycles
    assert fast.requests_shed == ref.requests_shed
    assert fast.sampler_stats.as_dict() == ref.sampler_stats.as_dict()
    assert fast.timeline_cycles.tobytes() == ref.timeline_cycles.tobytes()
    assert fast.busy_cycles_per_core.tobytes() == ref.busy_cycles_per_core.tobytes()
    assert _latency_fingerprint(fast.latency) == _latency_fingerprint(ref.latency)
    assert len(fast.traces) == len(ref.traces)
    for fast_trace, ref_trace in zip(fast.traces, ref.traces):
        assert fast_trace.spec.request_id == ref_trace.spec.request_id
        assert fast_trace.arrival_cycle == ref_trace.arrival_cycle
        assert fast_trace.completion_cycle == ref_trace.completion_cycle
        assert fast_trace.syscall_events == ref_trace.syscall_events
        for field in TRACE_FIELDS:
            assert getattr(fast_trace, field).tobytes() == (
                getattr(ref_trace, field).tobytes()
            ), f"{workload_name}: trace field {field!r} diverged"
    return fast, ref


@pytest.fixture(params=tuple(GEN_ENGINES))
def gen_mode(request):
    """Run the decorated test under both generation engines."""
    return request.param


class TestWorkloadSamplingGrid:
    """All registry workloads x all four sampling techniques x both
    generation engines."""

    @pytest.mark.parametrize(
        "workload,policy",
        list(itertools.product(available_workloads(), SAMPLING_POLICIES)),
        ids=lambda value: str(value),
    )
    def test_byte_identical(self, workload, policy, gen_mode):
        assert_identical(
            workload, sampling=SAMPLING_POLICIES[policy], gen=gen_mode
        )


#: One spec per taxonomy kind plus a composed schedule (concurrent
#: clauses, an activation window, a correlated burst) — the fault layer
#: rewrites request specs before simulation, so every kind must survive
#: both simulator implementations and both generation engines.
FAULT_SPECS = (
    "lock_stall:0.4",
    "lock_convoy:0.4",
    "cache_thrash:0.35",
    "membw_saturation:0.35",
    "gc_pause:0.3",
    "slowdown:0.4",
    "slow_replica:0.4",
    "gray_degradation:0.5",
    "cache_thrash:0.3+gc_pause:0.2@0-10*2",
)


class TestFaultedWorkloadGrid:
    """Every fault kind (and a composed schedule) x both simulator
    implementations x both generation engines: byte-identical."""

    @pytest.mark.parametrize("faults", FAULT_SPECS, ids=lambda s: s)
    def test_byte_identical(self, faults, gen_mode):
        fast, ref = assert_identical(
            "tpcc", faults=faults, sampling=SAMPLING_POLICIES["interrupt"],
            gen=gen_mode,
        )
        # The schedule must actually have injected something.
        assert any(
            trace.spec.metadata.get("injected_fault") is not None
            for trace in fast.traces
        )


class _RecordingClassAware(ClassAwareDispatch):
    """Class-aware dispatch that records each completion it is told of."""

    def reset(self, seed: int) -> None:
        super().reset(seed)
        self.observed = []

    def observe_completion(self, kind: str, cpu_time_us: float) -> None:
        self.observed.append((kind, cpu_time_us))
        super().observe_completion(kind, cpu_time_us)


class TestTrafficLayer:
    """Open-loop arrivals, non-trivial dispatch, overload shedding."""

    def test_class_aware_dispatch(self, gen_mode):
        """The one policy that learns from completions: it reads each
        request's CPU time mid-run, as the request completes."""
        fast, ref = assert_identical(
            "tpcc",
            config_factory=lambda: {
                "traffic": TrafficConfig(
                    arrivals=PoissonArrivals(rate_per_s=8_000.0),
                    dispatch=_RecordingClassAware(),
                )
            },
            sampling=SAMPLING_POLICIES["interrupt"],
            num_requests=40,
            gen=gen_mode,
        )
        fast_seen = fast.config.traffic.dispatch.observed
        ref_seen = ref.config.traffic.dispatch.observed
        assert fast_seen == ref_seen
        # Each value is the CPU time of that request's final trace.
        assert fast_seen == [
            (trace.spec.kind, trace.cpu_time_us()) for trace in fast.traces
        ]
        # The learned split must actually have placed requests by class.
        assert len({kind for kind, _ in fast_seen}) >= 2

    def test_poisson_jsq_overload_sheds_identically(self, gen_mode):
        traffic = TrafficConfig(
            arrivals=PoissonArrivals(rate_per_s=20_000.0),
            dispatch=JoinShortestQueue(),
            admission_limit=6,
        )
        fast, ref = assert_identical(
            "webserver", traffic=traffic, num_requests=40, concurrency=6,
            gen=gen_mode,
        )
        # The scenario must actually exercise the shedding path.
        assert fast.requests_shed > 0
        assert fast.requests_shed == ref.requests_shed

    def test_onoff_random_dispatch(self):
        traffic = TrafficConfig(
            arrivals=OnOffArrivals(
                rate_on_per_s=8_000.0,
                rate_off_per_s=200.0,
                on_ms=2.0,
                off_ms=2.0,
            ),
            dispatch=RandomDispatch(),
        )
        assert_identical(
            "tpcc",
            traffic=traffic,
            sampling=SAMPLING_POLICIES["syscall"],
            num_requests=24,
        )

    def test_least_outstanding_work_dispatch(self):
        traffic = TrafficConfig(
            arrivals=PoissonArrivals(rate_per_s=4_000.0),
            dispatch=LeastOutstandingWork(),
        )
        assert_identical("webwork", traffic=traffic, num_requests=24)

    def test_legacy_arrival_rate_shorthand(self):
        assert_identical("mbench_data", arrival_rate_per_s=5_000.0)


class TestSchedulerAndPlacement:
    """Resched events and cross-machine stage hand-offs."""

    def test_contention_easing_scheduler(self):
        assert_identical(
            "webserver",
            config_factory=lambda: {
                "scheduler": ContentionEasingScheduler(resched_interval_us=500.0)
            },
            sampling=SAMPLING_POLICIES["interrupt"],
        )

    def test_adaptive_contention_scheduler(self):
        assert_identical(
            "webwork",
            config_factory=lambda: {
                "scheduler": ContentionEasingScheduler(
                    adaptive_threshold=True, adaptive_warmup=20
                )
            },
            num_requests=12,
        )

    def test_distributed_tier_placement(self):
        assert_identical(
            "rubis",
            machine=cluster_machine(2, 4),
            tier_placement={"mysql": 1, "jboss": 1},
            network_delay_us=80.0,
            num_requests=12,
        )

    def test_high_usage_timeline(self):
        assert_identical("tpcc", high_usage_mpi_threshold=0.004)


class TestRouting:
    """Plain construction always builds the fast path."""

    def _construct(self):
        return ServerSimulator(make_workload("mbench_spin"), SimConfig(num_requests=2))

    def test_default_routes_to_fastpath(self):
        assert type(self._construct()) is FastpathSimulator

    def test_reference_subclass_always_bypasses(self):
        sim = ReferenceSimulator(make_workload("mbench_spin"), SimConfig(num_requests=2))
        assert type(sim) is ReferenceSimulator

    def test_env_positions_agree_end_to_end(self):
        """Plain construction and the reference simulator, identical output."""
        outputs = {}
        for build in (ServerSimulator, ReferenceSimulator):
            collector = TraceCollector(capacity=100_000)
            config = SimConfig(num_requests=10, seed=3, collector=collector)
            result = build(make_workload("tpcc"), config).run()
            outputs[build.__name__] = (
                events_to_jsonl(collector.events, dropped=collector.dropped),
                result.wall_cycles,
                tuple(t.cycles.tobytes() for t in result.traces),
            )
        assert outputs["ServerSimulator"] == outputs["ReferenceSimulator"]


class TestGenerationRouting:
    def test_default_routes_to_fast_generator(self):
        assert type(make_workload("tpcc")) is FastTpccWorkload

    def test_all_four_env_corners_agree_end_to_end(self):
        """Both simulators x both generators, identical bytes.

        The two fast engines compose: either may be swapped for its
        reference independently and the observable output must not move.
        """
        outputs = {}
        for sim_cls, gen in itertools.product(
            (FastpathSimulator, ReferenceSimulator), GEN_ENGINES
        ):
            collector = TraceCollector(capacity=100_000)
            config = SimConfig(num_requests=10, seed=3, collector=collector)
            plain, _ = GEN_ENGINES[gen]
            result = sim_cls(plain("tpcc"), config).run()
            outputs[(sim_cls.__name__, gen)] = (
                events_to_jsonl(collector.events, dropped=collector.dropped),
                result.wall_cycles,
                tuple(t.cycles.tobytes() for t in result.traces),
            )
        baseline = outputs[("FastpathSimulator", "gen_fast")]
        for corner, value in outputs.items():
            assert value == baseline, f"engine corner {corner} diverged"
