"""Integration tests for the server-system simulator."""

import gc
import weakref

import numpy as np
import pytest

from repro.hardware.platform import serial_machine
from repro.kernel.contention import ContentionEasingScheduler
from repro.kernel.fastpath import FastpathSimulator, ReferenceSimulator
from repro.kernel.sampling import SamplingMode, SamplingPolicy
from repro.kernel.scheduler import RoundRobinScheduler
from repro.kernel.simulator import ServerSimulator, SimConfig, run_workload
from repro.traffic import JoinShortestQueue, PoissonArrivals, TrafficConfig
from repro.workloads.registry import make_workload

from tests.conftest import run_small


class TestClosedLoop:
    def test_completes_requested_count(self, web_run):
        assert len(web_run.traces) == 40

    def test_unique_request_ids(self, web_run):
        ids = [t.spec.request_id for t in web_run.traces]
        assert sorted(ids) == list(range(40))

    def test_wall_clock_positive_and_monotone(self, web_run):
        assert web_run.wall_cycles > 0
        for trace in web_run.traces:
            assert trace.completion_cycle <= web_run.wall_cycles
            assert np.all(trace.end >= trace.start)

    def test_busy_cycles_bounded_by_wall(self, web_run):
        assert np.all(web_run.busy_cycles_per_core <= web_run.wall_cycles + 1)

    def test_concurrency_respected(self):
        run = run_small("webserver", num_requests=10, concurrency=2)
        # With 2 clients, no more than 2 requests are in flight at any
        # instant (probe midpoints of every request's lifetime).
        intervals = [(t.arrival_cycle, t.completion_cycle) for t in run.traces]
        for s, e in intervals:
            midpoint = (s + e) / 2.0
            in_flight = sum(1 for s2, e2 in intervals if s2 <= midpoint < e2)
            assert in_flight <= 2


class TestInstructionConservation:
    def test_trace_instructions_close_to_spec(self, web_run):
        for trace in web_run.traces:
            spec_ins = trace.spec.total_instructions
            # Compensated counters exclude sampling costs but keep the
            # refill-transient instructions (real re-execution effects).
            assert trace.total_instructions >= spec_ins * 0.99
            assert trace.total_instructions <= spec_ins * 1.35

    def test_serial_uncontended_cpi_matches_solo(self, web_serial_run):
        for trace in web_serial_run.traces:
            solo = trace.spec.solo_cpi(220.0)
            assert trace.overall_cpi() == pytest.approx(solo, rel=0.08)


class TestContentionIntegration:
    def test_multicore_raises_cpi_for_cache_heavy_app(self):
        serial = run_small("tpch", num_requests=4, seed=3, cores=1)
        multi = run_small("tpch", num_requests=8, seed=3)
        assert multi.request_cpis().mean() > 1.2 * serial.request_cpis().mean()

    def test_webwork_insensitive(self):
        serial = run_small("webwork", num_requests=3, seed=3, cores=1)
        multi = run_small("webwork", num_requests=6, seed=3)
        ratio = multi.request_cpis().mean() / serial.request_cpis().mean()
        assert 0.9 < ratio < 1.15


class TestSampling:
    def test_interrupt_sample_rate(self):
        run = run_small(
            "tpcc",
            num_requests=20,
            sampling=SamplingPolicy.interrupt(100.0),
        )
        busy_us = run.busy_cycles_per_core.sum() / 3000.0
        expected = busy_us / 100.0
        produced = run.sampler_stats.interrupt_samples
        assert produced == pytest.approx(expected, rel=0.35)

    def test_context_switch_samples_at_least_per_request(self, web_run):
        assert web_run.sampler_stats.context_switch_samples >= len(web_run.traces)

    def test_syscall_mode_prefers_in_kernel(self):
        run = run_small(
            "webserver",
            num_requests=20,
            sampling=SamplingPolicy.syscall_triggered(
                t_syscall_min_us=8.0, t_backup_int_us=60.0
            ),
        )
        stats = run.sampler_stats
        assert stats.in_kernel_samples > 2 * stats.interrupt_samples

    def test_backup_interrupt_covers_syscall_free_runs(self):
        run = run_small(
            "webwork",
            num_requests=2,
            sampling=SamplingPolicy.syscall_triggered(
                t_syscall_min_us=100.0, t_backup_int_us=300.0
            ),
        )
        # WeBWorK's ~0.5ms syscall gaps exceed 300us: backups must fire.
        assert run.sampler_stats.interrupt_samples > 0

    def test_context_switch_only_mode(self):
        run = run_small(
            "webserver",
            num_requests=10,
            sampling=SamplingPolicy(mode=SamplingMode.CONTEXT_SWITCH_ONLY),
        )
        assert run.sampler_stats.interrupt_samples == 0
        assert run.sampler_stats.in_kernel_samples == 0
        assert all(t.num_periods >= 1 for t in run.traces)

    def test_transition_mode_samples_only_triggers(self):
        run = run_small(
            "webserver",
            num_requests=20,
            sampling=SamplingPolicy.transition_signal(
                t_syscall_min_us=2.0,
                t_backup_int_us=1_000_000.0,
                triggers=("writev",),
            ),
        )
        # Roughly one writev per request -> about one in-kernel sample each.
        assert 0 < run.sampler_stats.in_kernel_samples <= 4 * 20

    def test_observer_effect_raw_exceeds_compensated(self):
        run = run_small(
            "webserver",
            num_requests=10,
            sampling=SamplingPolicy.interrupt(10.0),
        )
        for trace in run.traces:
            assert trace.raw_instructions.sum() > trace.instructions.sum()
            assert trace.raw_cycles.sum() > trace.cycles.sum()


class TestRequestPropagation:
    def test_rubis_spans_tiers(self):
        run = run_small("rubis", num_requests=6, seed=9)
        for trace in run.traces:
            names = [name for _, name in trace.syscall_events]
            assert "write" in names  # socket op at a tier hand-off
            assert trace.num_periods >= len(trace.spec.stages)

    def test_rubis_instruction_conservation_across_tiers(self):
        run = run_small("rubis", num_requests=6, seed=9)
        for trace in run.traces:
            assert trace.total_instructions >= trace.spec.total_instructions * 0.99


class TestDeterminism:
    def test_same_seed_same_results(self):
        a = run_small("tpcc", num_requests=12, seed=42)
        b = run_small("tpcc", num_requests=12, seed=42)
        assert np.allclose(a.request_cpis(), b.request_cpis())
        assert a.wall_cycles == b.wall_cycles

    def test_different_seed_differs(self):
        a = run_small("tpcc", num_requests=12, seed=42)
        b = run_small("tpcc", num_requests=12, seed=43)
        assert not np.allclose(a.request_cpis(), b.request_cpis())


class TestSchedulers:
    def test_short_quantum_increases_switches(self):
        long_q = run_small(
            "tpch", num_requests=4, seed=2,
            scheduler=RoundRobinScheduler(),
        )
        sched = RoundRobinScheduler()
        sched.quantum_us = 5_000.0
        short_q = run_small("tpch", num_requests=4, seed=2, scheduler=sched)
        assert (
            short_q.sampler_stats.context_switch_samples
            > long_q.sampler_stats.context_switch_samples
        )

    def test_contention_easing_runs_and_reduces_co_high(self):
        threshold = 0.008
        base = run_small(
            "tpch", num_requests=12, seed=3,
            scheduler=RoundRobinScheduler(),
            high_usage_mpi_threshold=threshold,
        )
        eased = run_small(
            "tpch", num_requests=12, seed=3,
            scheduler=ContentionEasingScheduler(high_usage_threshold=threshold),
            high_usage_mpi_threshold=threshold,
        )
        assert len(eased.traces) == 12
        assert (
            eased.high_usage_fractions()[">=3"]
            <= base.high_usage_fractions()[">=3"] + 0.05
        )

    def test_timeline_accounts_all_time(self):
        run = run_small(
            "tpch", num_requests=6, seed=4, high_usage_mpi_threshold=0.01
        )
        assert run.timeline_cycles.sum() == pytest.approx(run.wall_cycles, rel=0.01)

    def test_timeline_empty_without_threshold(self, web_run):
        assert web_run.timeline_cycles.sum() == 0.0


class TestRunWorkload:
    def test_by_name(self):
        result = run_workload("webserver", num_requests=5, seed=1)
        assert result.workload_name == "webserver"
        assert len(result.traces) == 5

    def test_by_instance(self):
        result = run_workload(make_workload("tpcc"), num_requests=5, seed=1)
        assert result.workload_name == "tpcc"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServerSimulator(make_workload("tpcc"), SimConfig(concurrency=0))
        with pytest.raises(ValueError):
            ServerSimulator(
                make_workload("tpcc"), SimConfig(num_requests=0)
            )

    def test_serial_machine_runs(self):
        config = SimConfig(machine=serial_machine(), concurrency=1, num_requests=3)
        result = ServerSimulator(make_workload("webserver"), config).run()
        assert len(result.traces) == 3
        assert np.all(np.array([t.core for t in result.traces[0:1]][0]) == 0)


class TestNoReferenceCycles:
    """A finished run is freed by reference counting alone.

    A simulator caught in a reference cycle stays alive, with its result,
    every trace and every stamped phase, until the cyclic collector happens
    to run, so peak memory would depend on collector timing.
    """

    @pytest.mark.parametrize("sim_cls", [FastpathSimulator, ReferenceSimulator])
    def test_simulator_and_traces_die_on_del(self, sim_cls):
        # Join-shortest-queue reads the dispatch view, so the view is live.
        config = SimConfig(
            num_requests=20,
            seed=1,
            traffic=TrafficConfig(
                arrivals=PoissonArrivals(5000.0), dispatch=JoinShortestQueue()
            ),
        )
        gc.collect()
        gc.disable()
        try:
            sim = sim_cls(make_workload("webserver"), config)
            result = sim.run()
            sim_ref = weakref.ref(sim)
            trace_ref = weakref.ref(result.traces[0])
            del sim, result
            assert sim_ref() is None
            assert trace_ref() is None
        finally:
            gc.enable()
