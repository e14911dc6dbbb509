"""The server-system simulator: closed-loop requests on a multicore OS.

This is the substitution for the paper's instrumented Linux kernel running
real server applications.  A closed loop of clients keeps ``concurrency``
requests in flight; request tasks are scheduled over the simulated cores
with per-core runqueues and quanta; between OS-visible events every core
executes its current phase at contention-adjusted rates.  Counter samplers
run at context switches, periodic interrupts, and (optionally) system-call
entrances, paying the observer-effect costs of Table 1.  Completed requests
yield serialized :class:`~repro.kernel.tracker.RequestTrace` timelines.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.hardware.cache import SharedL2Model
from repro.hardware.counters import CounterSnapshot, SamplingContext, SamplingCostModel
from repro.hardware.cpu import CoreState, compute_effective_rates
from repro.hardware.memory import MemoryBusModel
from repro.hardware.platform import WOODCREST, MachineConfig
from repro.kernel.sampling import SamplerStats, SamplingMode, SamplingPolicy
from repro.kernel.scheduler import RoundRobinScheduler, SchedulerPolicy
from repro.kernel.syscalls import next_rate_syscall_cycles
from repro.kernel.task import Task, TaskState
from repro.kernel.tracker import PeriodRecord, RequestTracker
from repro.obs.profiling import active_profiler, profiled_stage
from repro.obs.trace import NULL_COLLECTOR, TraceCollector
from repro.traffic import (
    DispatchPolicy,
    LatencyStore,
    PoissonArrivals,
    RoundRobinDispatch as RoundRobinDispatchPolicy,
    TrafficConfig,
)
from repro.workloads.base import WorkloadGenerator

_INF = float("inf")

#: Deterministic same-timestamp event ordering.  Events settle by the
#: explicit key ``(time, _EVENT_PRIORITY[kind], core_id)`` — arrivals
#: first (they may make idle cores dispatchable), then phase boundaries,
#: quantum expiries, resched opportunities, interrupts, and rate-based
#: syscalls, with the lowest core id winning inside a kind.  The order is
#: part of the byte-identity surface the golden corpus pins; traffic-layer
#: or event-loop refactors must not change it silently.
_EVENT_PRIORITY = {
    "arrival": 0,
    "phase_end": 1,
    "quantum_end": 2,
    "resched": 3,
    "interrupt": 4,
    "ratecall": 5,
}


@dataclass
class SimConfig:
    """Configuration for one simulation run."""

    machine: MachineConfig = WOODCREST
    cache: SharedL2Model = field(default_factory=SharedL2Model)
    bus: MemoryBusModel = field(default_factory=MemoryBusModel)
    cost_model: SamplingCostModel = field(default_factory=SamplingCostModel)
    sampling: SamplingPolicy = field(default_factory=SamplingPolicy)
    scheduler: Optional[SchedulerPolicy] = None
    #: Closed-loop client count (requests kept in flight).
    concurrency: int = 8
    #: Total requests to complete before the run ends.
    num_requests: int = 100
    seed: int = 0
    #: Subtract the minimum per-sample observer cost from trace counters.
    compensate: bool = True
    #: Cycles to refill the entire shared L2 after a context switch to a
    #: different task (scaled by the incoming phase's footprint).  The paper
    #: measured an extreme worst case above 12 ms; typical footprints make
    #: this far smaller.
    ctx_switch_refill_cycles: float = 4_000_000.0
    #: When set, the run accounts the wall-clock time during which 0..N
    #: cores simultaneously execute above this L2 misses-per-instruction
    #: level (Figure 12's measurement).
    high_usage_mpi_threshold: Optional[float] = None
    #: Distributed deployment (the paper's future work): maps a stage tier
    #: name to the machine (bus domain) hosting it.  Tiers not listed run
    #: on machine 0.  None keeps the single-machine behavior.
    tier_placement: Optional[Dict[str, int]] = None
    #: One-way network latency for a cross-machine stage hand-off.
    network_delay_us: float = 50.0
    #: Legacy open-loop shorthand: when set, requests arrive as a Poisson
    #: process at this rate (``concurrency`` no longer throttles
    #: admissions).  Equivalent to ``traffic`` with
    #: :class:`repro.traffic.PoissonArrivals`; mutually exclusive with it.
    arrival_rate_per_s: Optional[float] = None
    #: Open-system traffic layer: arrival process, dispatch policy, and
    #: bounded-admission backpressure (:class:`repro.traffic.TrafficConfig`).
    #: None — or closed-loop arrivals with round-robin dispatch — is
    #: byte-identical to the paper's closed generative loop.
    traffic: Optional[TrafficConfig] = None
    #: Request-scoped trace collector (None disables tracing; the disabled
    #: fast path is a single attribute check per instrumentation point).
    #: Emission never touches the simulation RNG or any simulated state,
    #: so enabling tracing cannot perturb results.
    collector: Optional[TraceCollector] = None


@dataclass
class SimResult:
    """Everything a simulation run produced."""

    workload_name: str
    config: SimConfig
    traces: list
    sampler_stats: SamplerStats
    scheduler: SchedulerPolicy
    #: Wall cycles during which exactly k cores ran at high usage.
    timeline_cycles: np.ndarray
    wall_cycles: float
    busy_cycles_per_core: np.ndarray
    #: Per-request queueing/sojourn latencies (only for runs with a
    #: configured traffic layer; None for plain closed-loop runs).
    latency: Optional[LatencyStore] = None
    #: Open-loop arrivals refused by the bounded admission queue.
    requests_shed: int = 0

    def high_usage_fractions(self) -> Dict[str, float]:
        """Fraction of wall time with >=2, >=3, and all 4 cores at high usage."""
        total = self.timeline_cycles.sum()
        if total == 0:
            return {">=2": 0.0, ">=3": 0.0, "all": 0.0}
        n = len(self.timeline_cycles) - 1
        return {
            ">=2": float(self.timeline_cycles[2:].sum() / total),
            ">=3": float(self.timeline_cycles[3:].sum() / total) if n >= 3 else 0.0,
            "all": float(self.timeline_cycles[n] / total),
        }

    def request_cpis(self) -> np.ndarray:
        return np.array([t.overall_cpi() for t in self.traces])

    def register_metrics(self, registry) -> None:
        """Fill a :class:`repro.obs.metrics.MetricsRegistry` from this run.

        Counters cover requests and sampling/scheduling activity, gauges
        the run extent, and period-weighted histograms the per-request and
        per-period CPI distributions (the numbers the reports print).
        """
        registry.counter("requests_completed").inc(len(self.traces))
        self.sampler_stats.register_metrics(registry)
        for key, value in sorted(getattr(self.scheduler, "stats", {}).items()):
            registry.counter(f"sched_{key}").inc(int(value))
        registry.gauge("wall_cycles").set(self.wall_cycles)
        registry.gauge("busy_cycles").set(float(self.busy_cycles_per_core.sum()))
        request_cpi = registry.histogram("request_cpi")
        request_cpu = registry.histogram("request_cpu_us")
        period_cpi = registry.histogram("period_cpi")
        for trace in self.traces:
            request_cpi.observe(
                trace.overall_cpi(), weight=trace.total_instructions
            )
            request_cpu.observe(trace.cpu_time_us())
            values, weights = trace.period_values("cpi")
            for value, weight in zip(values, weights):
                period_cpi.observe(float(value), weight=float(weight))
        if self.latency is not None:
            self.latency.register_metrics(registry)


class _CoreRun:
    """Per-core mutable runtime state."""

    __slots__ = (
        "state",
        "task",
        "last_task_id",
        "quantum_end",
        "next_resched",
        "next_interrupt",
        "next_ratecall",
        "last_sample",
        "phase_end",
        "period_start",
        "period_counters",
        "period_inj_ik",
        "period_inj_int",
    )

    def __init__(self, core_id: int):
        self.state = CoreState(core_id=core_id)
        self.task: Optional[Task] = None
        self.last_task_id: Optional[int] = None
        self.quantum_end = _INF
        self.next_resched = _INF
        self.next_interrupt = _INF
        self.next_ratecall = _INF
        self.last_sample = 0.0
        self.phase_end = _INF
        self.period_start = 0.0
        self.period_counters = CounterSnapshot()
        self.period_inj_ik = 0
        self.period_inj_int = 0


class _DispatchView:
    """Read-only queue-state window for dispatch policies.

    Holds the simulator's core and runqueue lists, not the simulator: a
    back-reference would make every simulator a reference cycle, freed
    (with its traces) only when the cyclic collector happens to run.
    """

    __slots__ = ("_cores", "_runqueues")

    def __init__(self, cores: list, runqueues: list):
        self._cores = cores
        self._runqueues = runqueues

    def queue_depth(self, core_id: int) -> int:
        running = 1 if self._cores[core_id].task is not None else 0
        return len(self._runqueues[core_id]) + running

    def outstanding_work(self, core_id: int) -> float:
        total = 0.0
        task = self._cores[core_id].task
        if task is not None:
            total += task.remaining_in_stage
        for queued in self._runqueues[core_id]:
            total += queued.remaining_in_stage
        return total


class ServerSimulator:
    """Discrete-event simulation of one workload on the machine.

    Plain constructions return the structure-of-arrays fast path
    (:class:`repro.kernel.fastpath.FastpathSimulator`).  This class holds
    the reference loop, which
    :class:`~repro.kernel.fastpath.ReferenceSimulator` runs unmodified;
    the fastpath differential suite asserts the two are byte-identical.
    """

    def __new__(cls, workload=None, config=None):
        if cls is ServerSimulator:
            from repro.kernel.fastpath import FastpathSimulator

            return object.__new__(FastpathSimulator)
        return object.__new__(cls)

    def __init__(self, workload: WorkloadGenerator, config: SimConfig):
        if config.concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        if config.num_requests < 1:
            raise ValueError("num_requests must be at least 1")
        self.workload = workload
        self.config = config
        self.machine = config.machine
        self.policy = config.sampling
        self.scheduler = config.scheduler or RoundRobinScheduler()
        self.rng = np.random.default_rng(config.seed)
        self.obs = config.collector if config.collector is not None else NULL_COLLECTOR
        # Per-kind emission guards, precomputed so a kind-filtered
        # collector skips even the keyword packing on its dense callsites.
        obs = self.obs
        self._trace_phase = obs.enabled and obs.wants("phase_transition")
        self._trace_sample = obs.enabled and obs.wants("sample")
        self._trace_enqueue = obs.enabled and obs.wants("task_enqueued")
        self._trace_dispatch = obs.enabled and obs.wants("task_dispatched")
        self._trace_switch_out = obs.enabled and obs.wants("task_switched_out")
        self._trace_handoff = obs.enabled and obs.wants("stage_handoff")
        self._trace_sched = obs.enabled and (
            obs.wants("sched_avoidance") or obs.wants("sched_preempt")
        )
        self.tracker = RequestTracker(
            cost_model=config.cost_model,
            frequency_ghz=self.machine.frequency_ghz,
            compensate=config.compensate,
            collector=self.obs,
        )
        self.stats = SamplerStats()
        self.now = 0.0
        self.cores = [_CoreRun(i) for i in range(self.machine.num_cores)]
        self.runqueues: List[List[Task]] = [[] for _ in self.cores]
        #: Finished requests' traces, built from the tracker when the run ends.
        self.traces: list = []
        self._admitted = 0
        self._completed = 0
        self._shed = 0
        self._next_task_id = 0
        # Traffic layer: arrival process + dispatch policy + latency store.
        # The legacy arrival_rate_per_s shorthand becomes a Poisson process;
        # no traffic config at all keeps the closed loop with the historical
        # round-robin placement (byte-identical, no latency accounting).
        traffic = config.traffic
        if traffic is not None and config.arrival_rate_per_s:
            raise ValueError(
                "set either traffic or arrival_rate_per_s, not both"
            )
        if traffic is None and config.arrival_rate_per_s:
            traffic = TrafficConfig(
                arrivals=PoissonArrivals(config.arrival_rate_per_s)
            )
        self.traffic = traffic
        self._open_loop = traffic is not None and not traffic.arrivals.is_closed_loop
        self._admission_limit = traffic.admission_limit if traffic else None
        self.dispatch_policy = (
            traffic.dispatch if traffic else RoundRobinDispatchPolicy()
        )
        self.dispatch_policy.reset(config.seed)
        # Only a policy that learns from completions needs each request's
        # CPU time mid-run; the traces themselves are built at run end.
        self._observes_completion = (
            type(self.dispatch_policy).observe_completion
            is not DispatchPolicy.observe_completion
        )
        self._dispatch_view = _DispatchView(self.cores, self.runqueues)
        self.latency = (
            LatencyStore(self.machine.frequency_ghz) if traffic else None
        )
        #: In-flight arrivals: (ready_cycle, seq, spec, stage, tenant) —
        #: cross-machine stage hand-offs (spec set) and open-loop
        #: admissions (spec None).
        self._pending_arrivals: list = []
        self._arrival_seq = 0
        self._network_delay_cycles = self.machine.us_to_cycles(
            config.network_delay_us
        )
        if config.tier_placement:
            for tier, machine_id in config.tier_placement.items():
                if not 0 <= machine_id < self.machine.num_machines:
                    raise ValueError(
                        f"tier {tier!r} placed on machine {machine_id}, but "
                        f"the platform has {self.machine.num_machines}"
                    )
        self._timeline = np.zeros(self.machine.num_cores + 1)
        # Cached cycle conversions.
        self._quantum_cycles = self.machine.us_to_cycles(self.scheduler.quantum_us)
        self._resched_cycles = (
            self.machine.us_to_cycles(self.scheduler.resched_interval_us)
            if self.scheduler.resched_interval_us
            else None
        )
        self._t_syscall_min_cycles = self.machine.us_to_cycles(
            self.policy.t_syscall_min_us
        )
        self._interrupt_cycles = self.machine.us_to_cycles(
            self.policy.interrupt_period_us
        )
        self._backup_cycles = self.machine.us_to_cycles(self.policy.t_backup_int_us)
        #: Ambient stage profiler, captured at run() so per-request
        #: generation time can be attributed out of the simulate stage.
        self._profiler = None
        #: Fault-schedule hooks (duck-typed so plain workloads cost one
        #: getattr at construction, nothing per admission): scheduled
        #: fault wrappers queue activation-window transitions to drain
        #: into the obs stream, and accept the arrival's tenant tag so
        #: tenant-targeted clauses can see it before sampling.
        self._fault_drain = getattr(workload, "drain_fault_events", None)
        self._fault_note_tenant = getattr(workload, "note_tenant", None)

    # ------------------------------------------------------------------ API

    def run(self) -> SimResult:
        self._profiler = active_profiler()
        with profiled_stage("simulate"):
            return self._run()

    def _prepare_generation(self) -> None:
        """Block-ahead synthesis: pre-generate specs when draw-order safe.

        The generation fast path's workloads expose ``prepare_block``,
        which synthesizes the whole run's request specs in one pass ahead
        of simulation.  That reorders no RNG draw as long as nothing else
        draws from ``self.rng`` between admissions: arrival schedules are
        pre-drawn in full (``exposes_schedule``), dispatch policies use
        their own seeded streams, and only syscall-sampling policies draw
        mid-run (rate-based syscall gaps/names) — so those disable it.
        Wrapped workloads (fault injection, fixed-kind) don't expose the
        hook and keep per-request synthesis.
        """
        prepare = getattr(self.workload, "prepare_block", None)
        if prepare is None:
            return
        if self.policy.wants_syscall_events():
            return
        if self.traffic is not None and not getattr(
            self.traffic.arrivals, "exposes_schedule", False
        ):
            return
        with profiled_stage("generate"):
            prepare(self.rng, 0, self.config.num_requests)

    def _run(self) -> SimResult:
        if self.obs.enabled:
            self.obs.emit(
                "run_start",
                self.now,
                workload=self.workload.name,
                scheduler=self.scheduler.describe(),
                sampling=self.policy.mode.value,
                seed=self.config.seed,
                num_requests=self.config.num_requests,
                concurrency=self.config.concurrency,
            )
            if self.traffic is not None:
                self.obs.emit("traffic", self.now, **self.traffic.describe())
        if self._open_loop:
            # Open system: pre-draw the whole arrival schedule, so the
            # run is a pure function of (process, seed).
            for arrival in self.traffic.arrivals.schedule(
                self.rng, self.config.num_requests, self.machine.frequency_ghz
            ):
                self._defer_admission(arrival.cycle, arrival.tenant)
            self._prepare_generation()
        else:
            self._prepare_generation()
            while self._admitted < min(
                self.config.concurrency, self.config.num_requests
            ):
                self._admit()
        for core in range(len(self.cores)):
            self._dispatch(core)
        self._recompute_rates()

        # Shed arrivals count toward run completion: they were offered
        # load that the bounded admission queue refused.
        while self._completed + self._shed < self.config.num_requests:
            t, core_id, kind = self._next_event()
            if t == _INF:
                raise RuntimeError(
                    f"simulation deadlock at cycle {self.now}: "
                    f"{self._completed}/{self.config.num_requests} completed"
                )
            self._account_timeline(t)
            self._advance_all(t)
            self.now = t
            handler = getattr(self, f"_on_{kind}")
            handler(core_id)

        self.traces = self.tracker.build_traces()
        if self.obs.enabled:
            self.obs.emit(
                "run_end",
                self.now,
                completed=self._completed,
                total_samples=self.stats.total_samples,
            )
        return SimResult(
            workload_name=self.workload.name,
            config=self.config,
            traces=self.traces,
            sampler_stats=self.stats,
            scheduler=self.scheduler,
            timeline_cycles=self._timeline,
            wall_cycles=self.now,
            busy_cycles_per_core=np.array([c.state.busy_cycles for c in self.cores]),
            latency=self.latency,
            requests_shed=self._shed,
        )

    # ----------------------------------------------------------- event loop

    def _next_event(self):
        """The earliest pending event as ``(time, core_id, kind)``.

        Same-timestamp events settle by the explicit, documented key
        ``(time, _EVENT_PRIORITY[kind], core_id)`` — never by core scan
        order or float-comparison asymmetries — so the event sequence is
        stable under event-loop and traffic-layer refactors.
        """
        best = (_INF, 6, -1, "none")
        if self._pending_arrivals:
            best = (self._pending_arrivals[0][0], _EVENT_PRIORITY["arrival"],
                    -1, "arrival")
        for core in self.cores:
            if core.task is None:
                continue
            cid = core.state.core_id
            for t, kind in (
                (core.phase_end, "phase_end"),
                (core.quantum_end, "quantum_end"),
                (core.next_resched, "resched"),
                (core.next_interrupt, "interrupt"),
                (core.next_ratecall, "ratecall"),
            ):
                if t < _INF:
                    key = (t, _EVENT_PRIORITY[kind], cid)
                    if key < best[:3]:
                        best = (t, key[1], cid, kind)
        return best[0], best[2], best[3]

    def _account_timeline(self, t: float) -> None:
        if self.config.high_usage_mpi_threshold is None:
            return
        threshold = self.config.high_usage_mpi_threshold
        count = 0
        for core in self.cores:
            rates = core.state.rates
            if rates is None:
                continue
            if rates.l2_refs_per_ins * rates.l2_miss_ratio > threshold:
                count += 1
        self._timeline[count] += t - self.now

    def _advance_all(self, t: float) -> None:
        for core in self.cores:
            delta = core.state.advance(t)
            if core.task is not None and delta.instructions > 0:
                core.period_counters = core.period_counters + delta
                core.task.advance_instructions(delta.instructions)

    # ------------------------------------------------------- event handlers

    def _on_phase_end(self, core_id: int) -> None:
        core = self.cores[core_id]
        task = core.task
        # Snap to the exact phase boundary (float drift from rate changes).
        task.instructions_done_in_phase = float(task.current_phase.instructions)

        if not task.on_last_phase:
            next_phase = task.stage.phases[task.phase_index + 1]
            name = next_phase.entry_syscall
            if name is not None:
                self.tracker.record_syscall(task.request_id, self.now, name)
                if self.policy.accepts_trigger(name) and (
                    self.now - core.last_sample >= self._t_syscall_min_cycles
                ):
                    self._sample(core, SamplingContext.IN_KERNEL)
            task.enter_next_phase()
            if self._trace_phase:
                self.obs.emit(
                    "phase_transition",
                    self.now,
                    request_id=task.request_id,
                    task_id=task.task_id,
                    core=core_id,
                    stage=task.stage_index,
                    phase=task.phase_index,
                    entry_syscall=name,
                )
            self._recompute_rates()
            return

        if not task.on_last_stage:
            self._hand_off_stage(core, task)
        else:
            self._complete_request(core, task)
        self._dispatch(core_id)
        self._recompute_rates()

    def _on_quantum_end(self, core_id: int) -> None:
        core = self.cores[core_id]
        task = core.task
        self._switch_out(core, SamplingContext.IN_KERNEL)
        self.runqueues[core_id].append(task)  # round-robin: requeue at tail
        self._dispatch(core_id)
        self._recompute_rates()

    def _on_resched(self, core_id: int) -> None:
        core = self.cores[core_id]
        current = core.task
        running = {c.state.core_id: c.task for c in self.cores}
        idx = self.scheduler.should_preempt(
            core_id, current, self.runqueues[core_id], running
        )
        if idx is None:
            core.next_resched = self.now + self._resched_cycles
            return
        incoming = self.runqueues[core_id].pop(idx)
        if self._trace_sched:
            self.obs.emit(
                "sched_preempt",
                self.now,
                request_id=incoming.request_id,
                task_id=incoming.task_id,
                core=core_id,
                preempted_request_id=current.request_id,
                preempted_task_id=current.task_id,
            )
        self._switch_out(core, SamplingContext.IN_KERNEL)
        # Keep the preempted request at the head so it resumes first.
        self.runqueues[core_id].insert(0, current)
        self._switch_in(core, incoming)
        self._recompute_rates()

    def _on_interrupt(self, core_id: int) -> None:
        self._sample(self.cores[core_id], SamplingContext.INTERRUPT)

    def _on_ratecall(self, core_id: int) -> None:
        core = self.cores[core_id]
        phase = core.task.current_phase
        name = phase.syscall_pool[int(self.rng.integers(len(phase.syscall_pool)))]
        if self.policy.accepts_trigger(name):
            self._sample(core, SamplingContext.IN_KERNEL)
        else:
            self._reset_ratecall(core)

    # ------------------------------------------------------- request admin

    def _admit(self, tenant: Optional[int] = None) -> None:
        profiler = self._profiler
        if self._fault_note_tenant is not None:
            self._fault_note_tenant(tenant)
        if profiler is None:
            spec = self.workload.sample_request(self.rng, self._admitted)
        else:
            start = time.perf_counter()
            spec = self.workload.sample_request(self.rng, self._admitted)
            profiler.add("generate", time.perf_counter() - start)
        self._admitted += 1
        if self._fault_drain is not None:
            for transition in self._fault_drain():
                if self.obs.enabled:
                    self.obs.emit(
                        transition["kind"],
                        self.now,
                        request_id=transition["request_id"],
                        clause=transition["clause"],
                        fault=transition["fault"],
                        window_lo=transition["window_lo"],
                        window_hi=transition["window_hi"],
                    )
        if tenant is not None:
            spec.metadata["tenant"] = tenant
        self.tracker.start_request(spec, self.now)
        if self.latency is not None:
            self.latency.on_arrival(
                spec.request_id, spec.kind, self.now, tenant=tenant
            )
        if self.obs.enabled:
            self.obs.emit(
                "request_admitted",
                self.now,
                request_id=spec.request_id,
                app=spec.app,
                request_kind=spec.kind,
                total_instructions=int(spec.total_instructions),
                injected_fault=spec.metadata.get("injected_fault"),
            )
        self._enqueue_stage(spec, stage_index=0)

    def _shed_arrival(self, tenant: Optional[int]) -> None:
        """Refuse one open-loop arrival at the bounded admission queue."""
        self._shed += 1
        if self.latency is not None:
            self.latency.on_shed(self.now)
        if self.obs.enabled:
            self.obs.emit(
                "request_shed",
                self.now,
                in_flight=self._admitted - self._completed,
                admission_limit=self._admission_limit,
                tenant=tenant,
            )

    def _on_arrival(self, core_id: int) -> None:
        # Heap timestamps compare exactly: an event's batch is everything
        # scheduled at the very same float cycle.  (The old absolute 1e-9
        # epsilon fell below float spacing at large cycle counts, making
        # batch membership — and hence _recompute_rates timing — depend on
        # the run's time magnitude.)
        while self._pending_arrivals and (
            self._pending_arrivals[0][0] <= self.now
        ):
            _, _, spec, stage_index, tenant = heapq.heappop(
                self._pending_arrivals
            )
            if spec is None:
                if (
                    self._admission_limit is not None
                    and self._admitted - self._completed >= self._admission_limit
                ):
                    self._shed_arrival(tenant)
                else:
                    self._admit(tenant)
            else:
                self._enqueue_stage(spec, stage_index)
        self._recompute_rates()

    def _machine_of_tier(self, tier: str) -> int:
        if not self.config.tier_placement:
            return 0
        return self.config.tier_placement.get(tier, 0)

    def _enqueue_stage(self, spec, stage_index: int) -> None:
        tier = spec.stages[stage_index].tier
        machine_id = self._machine_of_tier(tier)
        machine_cores = self.machine.machine_cores(machine_id)
        core_id = self.dispatch_policy.choose(
            machine_id, machine_cores, spec, stage_index, self._dispatch_view
        )
        if core_id not in machine_cores:
            raise ValueError(
                f"dispatch policy {self.dispatch_policy.name!r} placed "
                f"stage {stage_index} on core {core_id}, not one of "
                f"machine {machine_id}'s cores {tuple(machine_cores)}"
            )
        task = Task(
            task_id=self._next_task_id,
            request=spec,
            stage_index=stage_index,
            home_core=core_id,
            enqueue_cycle=self.now,
        )
        self._next_task_id += 1
        if self._trace_enqueue:
            self.obs.emit(
                "task_enqueued",
                self.now,
                request_id=spec.request_id,
                task_id=task.task_id,
                core=core_id,
                stage=stage_index,
                tier=tier,
            )
        self.runqueues[core_id].append(task)
        if self.cores[core_id].task is None:
            self._dispatch(core_id)

    def _defer_stage(self, spec, stage_index: int, ready_cycle: float) -> None:
        """Queue a stage arrival after a network hand-off delay."""
        heapq.heappush(
            self._pending_arrivals,
            (ready_cycle, self._arrival_seq, spec, stage_index, None),
        )
        self._arrival_seq += 1

    def _defer_admission(
        self, ready_cycle: float, tenant: Optional[int] = None
    ) -> None:
        """Schedule an open-loop request admission."""
        heapq.heappush(
            self._pending_arrivals,
            (ready_cycle, self._arrival_seq, None, 0, tenant),
        )
        self._arrival_seq += 1

    def _hand_off_stage(self, core: _CoreRun, task: Task) -> None:
        """Request propagates to the next tier through socket operations."""
        self._switch_out(core, SamplingContext.IN_KERNEL)
        task.state = TaskState.DONE
        self.tracker.record_syscall(task.request_id, self.now, "write")
        self.tracker.record_syscall(task.request_id, self.now, "read")
        next_stage = task.stage_index + 1
        source = self.machine.bus_domain_of(core.state.core_id)
        target = self._machine_of_tier(task.request.stages[next_stage].tier)
        if self._trace_handoff:
            self.obs.emit(
                "stage_handoff",
                self.now,
                request_id=task.request_id,
                task_id=task.task_id,
                core=core.state.core_id,
                next_stage=next_stage,
                target_machine=target,
                cross_machine=target != source,
            )
        if target != source:
            self._defer_stage(
                task.request, next_stage, self.now + self._network_delay_cycles
            )
        else:
            self._enqueue_stage(task.request, next_stage)

    def _complete_request(self, core: _CoreRun, task: Task) -> None:
        self._switch_out(core, SamplingContext.IN_KERNEL)
        task.state = TaskState.DONE
        periods, cpu_time_us = self.tracker.finish_request(
            task.request_id, self.now, cpu_time=self._observes_completion
        )
        self._completed += 1
        if self.latency is not None:
            self.latency.on_complete(task.request_id, self.now)
        if cpu_time_us is not None:
            self.dispatch_policy.observe_completion(task.request.kind, cpu_time_us)
        if self.obs.enabled:
            self.obs.emit(
                "request_completed",
                self.now,
                request_id=task.request_id,
                task_id=task.task_id,
                core=core.state.core_id,
                periods=periods,
            )
        if not self._open_loop and self._admitted < self.config.num_requests:
            self._admit()

    # --------------------------------------------------------- dispatching

    def _dispatch(self, core_id: int) -> None:
        core = self.cores[core_id]
        if core.task is not None:
            return
        running = {c.state.core_id: c.task for c in self.cores}
        idx = self.scheduler.pick(core_id, self.runqueues[core_id], running)
        if idx is None:
            self._clear_core(core)
            return
        task = self.runqueues[core_id].pop(idx)
        if idx != 0 and self._trace_sched:
            # A non-head pick is a contention-easing avoidance decision.
            self.obs.emit(
                "sched_avoidance",
                self.now,
                request_id=task.request_id,
                task_id=task.task_id,
                core=core_id,
                queue_index=idx,
            )
        self._switch_in(core, task)

    def _clear_core(self, core: _CoreRun) -> None:
        core.state.set_rates(None)
        core.phase_end = _INF
        core.quantum_end = _INF
        core.next_resched = _INF
        core.next_interrupt = _INF
        core.next_ratecall = _INF

    def _switch_in(self, core: _CoreRun, task: Task) -> None:
        if self._trace_dispatch:
            self.obs.emit(
                "task_dispatched",
                self.now,
                request_id=task.request_id,
                task_id=task.task_id,
                core=core.state.core_id,
                stage=task.stage_index,
                phase=task.phase_index,
            )
        if (
            self.latency is not None
            and task.stage_index == 0
            and not task.has_started
        ):
            self.latency.on_start(task.request_id, self.now)
        task.state = TaskState.RUNNING
        core.task = task
        core.period_start = self.now
        core.period_counters = CounterSnapshot()
        core.period_inj_ik = 0
        core.period_inj_int = 0
        core.last_sample = self.now
        core.quantum_end = self.now + self._quantum_cycles
        core.next_resched = (
            self.now + self._resched_cycles if self._resched_cycles else _INF
        )

        phase = task.current_phase
        # First dispatch of a stage records its opening syscall.
        if task.phase_index == 0 and task.instructions_done_in_phase == 0:
            if phase.entry_syscall is not None:
                self.tracker.record_syscall(
                    task.request_id, self.now, phase.entry_syscall
                )

        # The switch itself samples the counters in-kernel (mandatory for
        # attribution) and the incoming task pays cache-refill pollution if
        # the core last ran someone else.
        cost = self.config.cost_model.cost(
            SamplingContext.IN_KERNEL, phase.behavior.cache_footprint
        )
        self.stats.record(SamplingContext.IN_KERNEL, mandatory=True)
        # A resuming task whose core ran someone else in between finds its
        # cached state evicted and pays a footprint-scaled refill transient
        # (the context-switch cache pollution of Section 5.2).  The refill
        # is not an instantaneous lump: the task keeps retiring phase
        # instructions at roughly doubled CPI while its lines stream back,
        # so the injected counters carry matching instruction progress.
        if task.has_started and core.last_task_id != task.task_id:
            behavior = phase.behavior
            footprint = behavior.cache_footprint
            refill_cycles = footprint * self.config.ctx_switch_refill_cycles
            transient_cpi = 2.0 * behavior.solo_cpi(
                self.machine.l2_miss_penalty_cycles
            )
            instructions = min(
                refill_cycles / transient_cpi, 0.9 * task.remaining_in_phase
            )
            refill_cycles = instructions * transient_cpi
            lines = footprint * (
                self.machine.l2_size_kb * 1024 / self.machine.l2_line_bytes
            )
            cost = cost + CounterSnapshot(
                cycles=refill_cycles,
                instructions=instructions,
                l2_refs=lines,
                l2_misses=lines,
            )
            task.advance_instructions(instructions)
        task.has_started = True
        core.state.inject(cost)
        core.period_counters = core.period_counters + cost
        core.period_inj_ik += 1
        core.last_task_id = task.task_id

        self._reset_sampler_timers(core)

    def _switch_out(self, core: _CoreRun, context: SamplingContext) -> None:
        """Flush the running task's period and free the core."""
        task = core.task
        if task is None:
            raise RuntimeError("switch_out on idle core")
        if self._trace_switch_out:
            self.obs.emit(
                "task_switched_out",
                self.now,
                request_id=task.request_id,
                task_id=task.task_id,
                core=core.state.core_id,
                context=context.value if context is not None else None,
            )
        self._flush_period(core)
        task.state = TaskState.READY
        core.task = None
        core.state.set_rates(None)
        self._clear_core(core)

    # ------------------------------------------------------------ sampling

    def _flush_period(self, core: _CoreRun) -> None:
        counters = core.period_counters
        self.scheduler.on_sample(
            core.task, counters.instructions, counters.l2_misses, counters.cycles
        )
        self.tracker.close_period(
            core.task.request_id,
            PeriodRecord(
                start_cycle=core.period_start,
                end_cycle=self.now,
                core=core.state.core_id,
                counters=counters,
                injected_in_kernel=core.period_inj_ik,
                injected_interrupt=core.period_inj_int,
            ),
        )
        core.period_start = self.now
        core.period_counters = CounterSnapshot()
        core.period_inj_ik = 0
        core.period_inj_int = 0

    def _sample(self, core: _CoreRun, context: SamplingContext) -> None:
        """Take one counter sample on a busy core (non-mandatory)."""
        task = core.task
        if self._trace_sample:
            self.obs.emit(
                "sample",
                self.now,
                request_id=task.request_id,
                task_id=task.task_id,
                core=core.state.core_id,
                context=context.value,
            )
        self._flush_period(core)
        self.stats.record(context, mandatory=False)
        cost = self.config.cost_model.cost(
            context, task.current_phase.behavior.cache_footprint
        )
        core.state.inject(cost)
        core.period_counters = core.period_counters + cost
        if context is SamplingContext.IN_KERNEL:
            core.period_inj_ik += 1
        else:
            core.period_inj_int += 1
        core.last_sample = self.now
        self._reset_sampler_timers(core)
        self._update_core_timers(core)

    def _reset_sampler_timers(self, core: _CoreRun) -> None:
        mode = self.policy.mode
        if mode is SamplingMode.INTERRUPT:
            core.next_interrupt = self.now + self._interrupt_cycles
        elif self.policy.wants_syscall_events():
            core.next_interrupt = self.now + self._backup_cycles
        else:
            core.next_interrupt = _INF

    # ------------------------------------------------------------- rates

    def _recompute_rates(self) -> None:
        behaviors = {
            c.state.core_id: c.task.current_phase.behavior
            for c in self.cores
            if c.task is not None
        }
        rates = compute_effective_rates(
            self.machine, self.config.cache, self.config.bus, behaviors
        )
        for core in self.cores:
            cid = core.state.core_id
            if cid in rates:
                core.state.set_rates(rates[cid])
                self._update_core_timers(core)
            elif core.task is None:
                core.state.set_rates(None)

    def _update_core_timers(self, core: _CoreRun) -> None:
        """Recompute phase-end and lazy-syscall timers from current rates."""
        task = core.task
        rates = core.state.rates
        if task is None or rates is None:
            return
        remaining = task.remaining_in_phase
        core.phase_end = core.state.last_advance_cycle + remaining * rates.cpi
        self._reset_ratecall(core)

    def _reset_ratecall(self, core: _CoreRun) -> None:
        if not self.policy.wants_syscall_events():
            core.next_ratecall = _INF
            return
        phase = core.task.current_phase
        if phase.syscall_rate_per_ins <= 0:
            core.next_ratecall = _INF
            return
        # The earliest instant a rate-based syscall could trigger a sample;
        # by exponential memorylessness the next call after that instant is
        # one fresh draw away.
        earliest = max(
            core.state.last_advance_cycle,
            core.last_sample + self._t_syscall_min_cycles,
        )
        delay = next_rate_syscall_cycles(
            self.rng, phase.syscall_rate_per_ins, core.state.rates.cpi
        )
        core.next_ratecall = earliest + delay


def run_workload(workload, config: Optional[SimConfig] = None, **overrides) -> SimResult:
    """Convenience wrapper: simulate a workload and return the result.

    ``workload`` may be a generator instance or a registered name.
    Keyword overrides are applied on top of ``config`` (or a default one).
    """
    from repro.workloads.registry import make_workload

    if isinstance(workload, str):
        workload = make_workload(workload)
    if config is None:
        config = SimConfig()
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    return ServerSimulator(workload, config).run()
