"""Shared-L2 contention model.

Two cores per die share one L2 cache on the paper's platform.  When a
co-runner exerts cache *pressure* (it touches the L2 often and wants a large
footprint), the victim's effective miss ratio rises above its solo value —
this is the "multicore performance obfuscation" the paper characterizes in
Figure 1.  The model is intentionally simple and monotone:

  pressure_of(phase)   = (l2 refs per cycle) x footprint
  m_eff = m_base + (m_cap - m_base) * (1 - exp(-k * co_pressure)) * sensitivity

where ``sensitivity`` is the victim's own footprint (a phase that barely
uses the cache cannot be hurt much — this is why WeBWorK sees almost no
multicore impact while TPCH's 90-percentile CPI roughly doubles), and
``m_cap`` bounds the inflated miss ratio.

The paper's anomaly analysis (Section 4.3) also observed that co-running can
raise the L2 *reference* rate slightly (L1 coherence misses, extra
software-contention instructions); :meth:`SharedL2Model.contend` models
the hardware part of that as a small multiplicative inflation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def phase_pressure(l2_refs_per_ins: float, base_cpi: float, footprint: float) -> float:
    """Cache pressure a running phase exerts on its L2 peers.

    References per *cycle* (refs/ins divided by CPI) capture how often the
    phase touches the shared cache per unit time; the footprint factor
    captures how much of the cache it wants to occupy.
    """
    if base_cpi <= 0:
        raise ValueError("base_cpi must be positive")
    return (l2_refs_per_ins / base_cpi) * footprint


@dataclass(frozen=True)
class SharedL2Model:
    """Miss-ratio and reference-rate inflation under co-run pressure."""

    #: Saturation constant: how quickly co-runner pressure inflates misses.
    #: Pressure is refs/cycle-scaled, typically in [0, ~0.03].
    pressure_scale: float = 45.0
    #: Upper bound on any inflated miss ratio.
    miss_ratio_cap: float = 0.85
    #: Maximum fractional increase in L2 reference rate from coherence
    #: effects under full pressure.
    ref_inflation: float = 0.08

    def contend(
        self,
        base_miss_ratio: float,
        footprint: float,
        refs_per_ins: float,
        co_pressure: float,
    ) -> tuple:
        """Effective ``(miss_ratio, refs_per_ins)`` given peers' pressure.

        Both inflations share one saturation term, computed once.
        """
        if not 0.0 <= base_miss_ratio <= 1.0:
            raise ValueError(f"base_miss_ratio out of range: {base_miss_ratio}")
        if co_pressure < 0:
            raise ValueError("co_pressure must be non-negative")
        sensitivity = min(1.0, max(0.0, footprint))
        saturation = 1.0 - math.exp(-self.pressure_scale * co_pressure)
        inflated = base_miss_ratio + (
            (self.miss_ratio_cap - base_miss_ratio) * saturation * sensitivity
        )
        # A base ratio already above the cap is left alone (never reduced).
        miss_ratio = max(base_miss_ratio, inflated)
        ref_rate = refs_per_ins * (1.0 + self.ref_inflation * saturation)
        return miss_ratio, ref_rate
