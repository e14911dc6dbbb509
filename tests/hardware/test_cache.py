"""Tests for the shared-L2 contention model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cache import SharedL2Model, phase_pressure

probabilities = st.floats(0.0, 1.0, allow_nan=False)
pressures = st.floats(0.0, 0.1, allow_nan=False)


class TestPhasePressure:
    def test_zero_refs_zero_pressure(self):
        assert phase_pressure(0.0, 1.0, 1.0) == 0.0

    def test_zero_footprint_zero_pressure(self):
        assert phase_pressure(0.05, 1.0, 0.0) == 0.0

    def test_refs_per_cycle_scaling(self):
        # Doubling CPI halves the per-cycle reference pressure.
        fast = phase_pressure(0.02, 1.0, 1.0)
        slow = phase_pressure(0.02, 2.0, 1.0)
        assert fast == pytest.approx(2 * slow)

    def test_invalid_cpi_raises(self):
        with pytest.raises(ValueError):
            phase_pressure(0.02, 0.0, 1.0)


class TestSharedL2Model:
    def setup_method(self):
        self.model = SharedL2Model()

    def miss_ratio(self, base, footprint, pressure):
        return self.model.contend(base, footprint, 0.02, pressure)[0]

    def ref_rate(self, base, pressure):
        return self.model.contend(0.3, 1.0, base, pressure)[1]

    def test_no_pressure_keeps_base(self):
        assert self.miss_ratio(0.3, 1.0, 0.0) == pytest.approx(0.3)

    def test_zero_footprint_immune(self):
        """A phase that barely uses the cache cannot be hurt (WeBWorK)."""
        assert self.miss_ratio(0.2, 0.0, 0.05) == pytest.approx(0.2)

    def test_pressure_inflates(self):
        base = 0.3
        inflated = self.miss_ratio(base, 1.0, 0.02)
        assert inflated > base

    def test_capped(self):
        inflated = self.miss_ratio(0.8, 1.0, 10.0)
        assert inflated <= self.model.miss_ratio_cap

    def test_invalid_base_raises(self):
        with pytest.raises(ValueError, match="base_miss_ratio"):
            self.miss_ratio(1.5, 1.0, 0.0)

    def test_negative_pressure_raises(self):
        with pytest.raises(ValueError, match="co_pressure"):
            self.miss_ratio(0.5, 1.0, -0.1)

    @given(probabilities, probabilities, pressures)
    @settings(max_examples=80, deadline=None)
    def test_bounds(self, base, footprint, pressure):
        m = self.miss_ratio(base, footprint, pressure)
        assert base - 1e-12 <= m <= max(self.model.miss_ratio_cap, base) + 1e-12

    @given(probabilities, st.floats(0.1, 1.0), pressures, pressures)
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_pressure(self, base, footprint, p1, p2):
        lo, hi = sorted((p1, p2))
        m_lo = self.miss_ratio(base, footprint, lo)
        m_hi = self.miss_ratio(base, footprint, hi)
        assert m_hi >= m_lo - 1e-12

    def test_ref_rate_inflation_bounded(self):
        base = 0.02
        inflated = self.ref_rate(base, 100.0)
        assert base < inflated <= base * (1 + self.model.ref_inflation) + 1e-12

    def test_ref_rate_no_pressure(self):
        assert self.ref_rate(0.02, 0.0) == pytest.approx(0.02)

    def test_ref_rate_independent_of_miss_inputs(self):
        """The reference rate depends only on refs/ins and pressure."""
        a = self.model.contend(0.1, 0.2, 0.03, 0.01)[1]
        b = self.model.contend(0.7, 1.0, 0.03, 0.01)[1]
        assert a == b


class TestSensitivityStory:
    """The application-dependent obfuscation of Figure 1 in miniature."""

    def test_tpch_like_suffers_more_than_webwork_like(self):
        model = SharedL2Model()
        co_pressure = phase_pressure(0.024, 1.0, 1.0)  # a TPCH scan peer
        tpch, _ = model.contend(0.35, 1.0, 0.024, co_pressure)
        webwork, _ = model.contend(0.15, 0.05, 0.02, co_pressure)
        assert (tpch - 0.35) / 0.35 > 5 * (webwork - 0.15) / 0.15
