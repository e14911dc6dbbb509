"""Core execution state and the effective-rate computation.

The simulator is a piecewise-constant-rate model: between OS-visible events,
each core executes with fixed effective rates (cycles per instruction, L2
references per instruction, L2 miss ratio) derived from the running phase's
base behavior plus the contention exerted by co-runners.  At every event the
affected cores lazily accumulate counters for the elapsed interval and the
rates are recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hardware.cache import SharedL2Model, phase_pressure
from repro.hardware.counters import CounterSnapshot
from repro.hardware.memory import MemoryBusModel
from repro.hardware.platform import MachineConfig


@dataclass(frozen=True)
class PhaseBehavior:
    """Solo (uncontended) hardware behavior of one execution phase."""

    #: Cycles per instruction with all L2 misses excluded (hits included).
    base_cpi: float
    #: L2 cache references per retired instruction.
    l2_refs_per_ins: float
    #: Solo L2 miss ratio (misses per reference).
    l2_miss_ratio: float
    #: Fraction of the shared L2 this phase wants to occupy, in [0, 1].
    cache_footprint: float

    def __post_init__(self):
        if self.base_cpi <= 0:
            raise ValueError("base_cpi must be positive")
        if self.l2_refs_per_ins < 0:
            raise ValueError("l2_refs_per_ins must be non-negative")
        if not 0.0 <= self.l2_miss_ratio <= 1.0:
            raise ValueError("l2_miss_ratio must be in [0, 1]")
        if not 0.0 <= self.cache_footprint <= 1.0:
            raise ValueError("cache_footprint must be in [0, 1]")

    def solo_cpi(self, miss_penalty_cycles: float) -> float:
        """Overall CPI when running alone on the machine."""
        return self.base_cpi + (
            miss_penalty_cycles * self.l2_refs_per_ins * self.l2_miss_ratio
        )


@dataclass(frozen=True)
class EffectiveRates:
    """Contention-adjusted execution rates for one core's current phase."""

    cpi: float
    l2_refs_per_ins: float
    l2_miss_ratio: float

    def counters_for_instructions(self, instructions: float) -> CounterSnapshot:
        refs = instructions * self.l2_refs_per_ins
        return CounterSnapshot(
            cycles=instructions * self.cpi,
            instructions=instructions,
            l2_refs=refs,
            l2_misses=refs * self.l2_miss_ratio,
        )

    def instructions_for_cycles(self, cycles: float) -> float:
        return cycles / self.cpi


def compute_effective_rates(
    machine: MachineConfig,
    cache: SharedL2Model,
    bus: MemoryBusModel,
    behaviors: Dict[int, PhaseBehavior],
) -> Dict[int, EffectiveRates]:
    """Compute every running core's effective rates under contention.

    ``behaviors`` maps core id -> the phase currently running there (idle
    cores are simply absent).  The computation is a single pass:

    1. each running phase exerts cache pressure on its L2-domain peers,
       inflating their miss ratio and reference rate;
    2. each core's approximate miss traffic then contributes bus occupancy,
       inflating the *other* cores' effective miss penalty;
    3. the final CPI combines the base CPI with the inflated miss costs.
    """
    pressures = {
        core: phase_pressure(b.l2_refs_per_ins, b.base_cpi, b.cache_footprint)
        for core, b in behaviors.items()
    }

    miss_ratios: Dict[int, float] = {}
    ref_rates: Dict[int, float] = {}
    for core, behavior in behaviors.items():
        co_pressure = sum(
            pressures[peer]
            for peer in machine.l2_peers_of(core)
            if peer in behaviors
        )
        miss_ratios[core], ref_rates[core] = cache.contend(
            behavior.l2_miss_ratio,
            behavior.cache_footprint,
            behavior.l2_refs_per_ins,
            co_pressure,
        )

    traffic = {
        core: bus.miss_traffic(
            ref_rates[core],
            miss_ratios[core],
            behaviors[core].solo_cpi(machine.l2_miss_penalty_cycles),
        )
        for core in behaviors
    }
    # Bus occupancy accumulates per machine: cores on different machines
    # (bus domains) do not contend for each other's memory bandwidth.
    bus_totals: Dict[int, float] = {}
    for core, value in traffic.items():
        domain = machine.bus_domain_of(core)
        bus_totals[domain] = bus_totals.get(domain, 0.0) + value

    rates: Dict[int, EffectiveRates] = {}
    for core, behavior in behaviors.items():
        others = bus_totals[machine.bus_domain_of(core)] - traffic[core]
        penalty = bus.effective_miss_penalty(
            machine.l2_miss_penalty_cycles, others
        )
        cpi = behavior.base_cpi + penalty * ref_rates[core] * miss_ratios[core]
        rates[core] = EffectiveRates(
            cpi=cpi,
            l2_refs_per_ins=ref_rates[core],
            l2_miss_ratio=miss_ratios[core],
        )
    return rates


#: Shared zero delta for no-progress advances (frozen, so safe to reuse).
_EMPTY_SNAPSHOT = CounterSnapshot()


@dataclass
class CoreState:
    """Mutable per-core execution state with lazy counter accumulation."""

    core_id: int
    rates: Optional[EffectiveRates] = None
    last_advance_cycle: float = 0.0
    #: Cumulative counters for everything this core ever executed
    #: (used by microbenchmark measurement in Table 1).
    total: CounterSnapshot = field(default_factory=CounterSnapshot)
    busy_cycles: float = 0.0

    @property
    def is_busy(self) -> bool:
        return self.rates is not None

    def advance(self, now_cycle: float) -> CounterSnapshot:
        """Accumulate counters for [last_advance, now] and return the delta.

        Idle cores accumulate nothing but still move their clock forward.
        """
        # ``inject`` pushes last_advance_cycle past "now" to model a stall:
        # events on other cores may fall inside that window, in which case
        # this core simply makes no progress (do not rewind the clock).
        elapsed = now_cycle - self.last_advance_cycle
        if elapsed <= 0.0:
            return _EMPTY_SNAPSHOT
        self.last_advance_cycle = now_cycle
        rates = self.rates
        if rates is None:
            return _EMPTY_SNAPSHOT
        # One direct snapshot: cycles re-anchored on wall time to avoid
        # float drift, refs/misses with the exact operation order of
        # EffectiveRates.counters_for_instructions.
        instructions = elapsed / rates.cpi
        refs = instructions * rates.l2_refs_per_ins
        delta = CounterSnapshot(
            cycles=elapsed,
            instructions=instructions,
            l2_refs=refs,
            l2_misses=refs * rates.l2_miss_ratio,
        )
        self.total = self.total + delta
        self.busy_cycles += elapsed
        return delta

    def inject(self, cost: CounterSnapshot) -> None:
        """Inject sampling-cost events and stall the core for their cycles.

        The injected cycles consume wall-clock time without phase progress:
        moving ``last_advance_cycle`` forward means the stalled interval
        produces no instructions from :meth:`advance`.
        """
        self.total = self.total + cost
        self.busy_cycles += cost.cycles
        self.last_advance_cycle += cost.cycles

    def set_rates(self, rates: Optional[EffectiveRates]) -> None:
        self.rates = rates
