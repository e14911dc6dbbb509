"""Rate-level differential: the fast path's incremental solve is exact.

:class:`~repro.kernel.fastpath.FastpathSimulator` re-solves contention
only for the cores a phase change touches and keeps each core's rates as
plain floats.  The checked subclass below re-derives every busy core's
rates from scratch with the reference
:func:`~repro.hardware.cpu.compute_effective_rates` after *every* solve and
compares them with ``==``: a stale contention triple, a missed peer, or a
reordered float accumulation shows up as an inequality at the first solve
it affects, not as a drifted figure many events later.  The same check
runs the end-of-run ``CoreState`` sync after every solve, and after the
run each core's ``CoreState.rates`` must equal the reference loop's.
"""

import pytest

from repro.hardware.cpu import compute_effective_rates
from repro.hardware.platform import cluster_machine
from repro.kernel.contention import ContentionEasingScheduler
from repro.kernel.fastpath import FastpathSimulator, ReferenceSimulator
from repro.kernel.sampling import SamplingPolicy
from repro.kernel.simulator import SimConfig
from repro.traffic import PoissonArrivals, TrafficConfig
from repro.workloads.registry import make_faulted_workload, make_workload


class RateCheckedSimulator(FastpathSimulator):
    """Checks every core's rate slots against a full reference solve."""

    def __init__(self, workload, config):
        super().__init__(workload, config)
        self.solves = 0
        self.checked = 0
        self.busy_domains = set()

    def _recompute_rates(self) -> None:
        super()._recompute_rates()
        self.solves += 1
        behaviors = {
            core.cid: core.phases[core.task.phase_index].behavior
            for core in self.cores
            if core.task is not None
        }
        expected = compute_effective_rates(
            self.machine, self.config.cache, self.config.bus, behaviors
        )
        for core in self.cores:
            if core.task is None:
                # An idle core drops its phase at the solve.
                assert core.beh is None, f"solve {self.solves}: core {core.cid}"
                continue
            rates = expected[core.cid]
            assert core.beh is behaviors[core.cid]
            assert (core.cpi, core.l2_refs_per_ins, core.l2_miss_ratio) == (
                rates.cpi,
                rates.l2_refs_per_ins,
                rates.l2_miss_ratio,
            ), f"solve {self.solves}: core {core.cid} rates diverged"
            self.checked += 1
            self.busy_domains.add(core.dom)
        # The end-of-run sync, exercised mid-run on busy cores.
        self._sync_core_states()
        assert [core.state.rates for core in self.cores] == [
            expected.get(core.cid) for core in self.cores
        ]


def _webserver_closed_10us():
    return make_workload("webserver"), {
        "sampling": SamplingPolicy.interrupt(10.0),
        "num_requests": 40,
        "concurrency": 8,
        "seed": 1,
    }


def _tpcc_faulted_open_loop():
    return make_faulted_workload("tpcc", "lock_stall:0.1+gc_pause:0.05"), {
        "sampling": SamplingPolicy.interrupt(100.0),
        "traffic": TrafficConfig(arrivals=PoissonArrivals(1000.0)),
        "num_requests": 40,
        "seed": 2,
    }


def _rubis_two_machines():
    return make_workload("rubis"), {
        "machine": cluster_machine(2, 4),
        "tier_placement": {"mysql": 1, "jboss": 1},
        "network_delay_us": 80.0,
        "num_requests": 16,
        "seed": 3,
    }


def _contention_easing_timeline():
    return make_workload("tpcc"), {
        "scheduler": ContentionEasingScheduler(
            high_usage_threshold=0.004, resched_interval_us=500.0
        ),
        "high_usage_mpi_threshold": 0.004,
        "num_requests": 30,
        "seed": 4,
    }


#: Scenario builders: each call returns a fresh workload and config
#: fields, so schedulers and fault schedules never carry state between
#: the checked run and the reference run.
SCENARIOS = {
    "webserver_closed_10us": _webserver_closed_10us,
    "tpcc_faulted_open_loop": _tpcc_faulted_open_loop,
    "rubis_two_machines": _rubis_two_machines,
    "contention_easing_timeline": _contention_easing_timeline,
}


def _run(sim_cls, scenario):
    workload, fields = SCENARIOS[scenario]()
    sim = sim_cls(workload, SimConfig(**fields))
    return sim, sim.run()


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_rate_slots_match_reference_solve(scenario):
    fast, fast_result = _run(RateCheckedSimulator, scenario)
    ref, ref_result = _run(ReferenceSimulator, scenario)
    # The check must have covered real multi-core solves on every bus
    # domain (two machines in the tier-placement scenario).
    assert fast.solves > 100
    assert fast.checked > fast.solves
    assert fast.busy_domains == set(range(fast.machine.num_machines))
    assert [core.state.rates for core in fast.cores] == [
        core.state.rates for core in ref.cores
    ]
    assert fast_result.wall_cycles == ref_result.wall_cycles
    assert fast_result.timeline_cycles.tobytes() == (
        ref_result.timeline_cycles.tobytes()
    )
