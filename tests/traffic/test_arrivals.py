"""Property tests for the pluggable arrival processes."""

import json
import math

import numpy as np
import pytest

from repro.documents import DocumentError
from repro.traffic import (
    Arrival,
    ClosedLoop,
    DiurnalArrivals,
    OnOffArrivals,
    PoissonArrivals,
    TraceReplay,
    ZipfArrivals,
    load_schedule,
    parse_arrivals,
    save_schedule,
)

GHZ = 3.0
CYCLES_PER_S = GHZ * 1e9


def empirical_rate(arrivals):
    times = [a.cycle for a in arrivals]
    span_s = (times[-1] - times[0]) / CYCLES_PER_S
    return (len(times) - 1) / span_s


class TestScheduleShape:
    @pytest.mark.parametrize(
        "process",
        [
            PoissonArrivals(2000.0),
            OnOffArrivals(4000.0, 200.0, 5.0, 5.0),
            DiurnalArrivals(2000.0, 10.0, 0.8),
            ZipfArrivals(2000.0, 1.1, 8),
        ],
        ids=lambda p: p.kind,
    )
    def test_sorted_positive_and_sized(self, process):
        arrivals = process.schedule(np.random.default_rng(7), 200, GHZ)
        times = [a.cycle for a in arrivals]
        assert len(arrivals) == 200
        assert all(t > 0 for t in times)
        assert times == sorted(times)

    @pytest.mark.parametrize(
        "process",
        [
            PoissonArrivals(2000.0),
            OnOffArrivals(4000.0, 200.0, 5.0, 5.0),
            DiurnalArrivals(2000.0, 10.0, 0.8),
            ZipfArrivals(2000.0, 1.1, 8),
        ],
        ids=lambda p: p.kind,
    )
    def test_same_seed_same_schedule(self, process):
        a = process.schedule(np.random.default_rng(11), 100, GHZ)
        b = process.schedule(np.random.default_rng(11), 100, GHZ)
        assert a == b

    def test_closed_loop_has_no_schedule(self):
        with pytest.raises(RuntimeError, match="no schedule"):
            ClosedLoop().schedule(np.random.default_rng(0), 10, GHZ)


class TestEmpiricalRates:
    """Long-run rates land inside a generous confidence interval.

    For n exponential gaps the measured rate is within ~4/sqrt(n)
    relative error at far beyond 99.99% confidence; n=4000 makes that
    ~6%, and we allow 10%.
    """

    N = 4000

    def test_poisson_rate(self):
        arrivals = PoissonArrivals(1500.0).schedule(
            np.random.default_rng(1), self.N, GHZ
        )
        assert empirical_rate(arrivals) == pytest.approx(1500.0, rel=0.10)

    def test_onoff_mean_rate(self):
        process = OnOffArrivals(6000.0, 500.0, 4.0, 4.0)
        arrivals = process.schedule(np.random.default_rng(2), self.N, GHZ)
        assert empirical_rate(arrivals) == pytest.approx(
            process.mean_rate_per_s(), rel=0.20
        )

    def test_diurnal_mean_rate(self):
        process = DiurnalArrivals(2000.0, 5.0, 0.9)
        arrivals = process.schedule(np.random.default_rng(3), self.N, GHZ)
        assert empirical_rate(arrivals) == pytest.approx(2000.0, rel=0.15)

    def test_onoff_is_burstier_than_poisson(self):
        """Interarrival CoV: ON-OFF > 1 (bursty), Poisson ~= 1."""

        def gap_cov(process, seed):
            arrivals = process.schedule(
                np.random.default_rng(seed), self.N, GHZ
            )
            gaps = np.diff([a.cycle for a in arrivals])
            return gaps.std() / gaps.mean()

        poisson_cov = gap_cov(PoissonArrivals(1000.0), 4)
        bursty_cov = gap_cov(OnOffArrivals(5000.0, 50.0, 3.0, 12.0), 4)
        assert poisson_cov == pytest.approx(1.0, abs=0.15)
        assert bursty_cov > poisson_cov + 0.3


class TestPoissonInvariances:
    """The superposition/thinning properties that define a Poisson process."""

    N = 3000

    def test_merge_invariance(self):
        """Two merged independent Poisson streams look like one at the
        summed rate: gap mean matches and gap CoV stays ~1."""
        a = PoissonArrivals(800.0).schedule(np.random.default_rng(10), self.N, GHZ)
        b = PoissonArrivals(1200.0).schedule(np.random.default_rng(11), self.N, GHZ)
        merged = sorted([x.cycle for x in a] + [x.cycle for x in b])
        # Restrict to the overlap where both streams are still active.
        horizon = min(a[-1].cycle, b[-1].cycle)
        merged = [t for t in merged if t <= horizon]
        gaps = np.diff(merged)
        measured = CYCLES_PER_S / gaps.mean()
        assert measured == pytest.approx(2000.0, rel=0.10)
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.15)

    def test_thinning_invariance(self):
        """Keeping each arrival with p=0.4 yields Poisson at 0.4*rate."""
        arrivals = PoissonArrivals(2500.0).schedule(
            np.random.default_rng(12), self.N, GHZ
        )
        keep_rng = np.random.default_rng(13)
        thinned = [a.cycle for a in arrivals if keep_rng.random() < 0.4]
        gaps = np.diff(thinned)
        measured = CYCLES_PER_S / gaps.mean()
        assert measured == pytest.approx(1000.0, rel=0.12)
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.15)


class TestZipfTenants:
    def test_tenant_popularity_is_skewed_and_ranked(self):
        process = ZipfArrivals(1000.0, 1.2, 6)
        arrivals = process.schedule(np.random.default_rng(5), 6000, GHZ)
        counts = np.bincount([a.tenant for a in arrivals], minlength=6)
        assert counts.argmax() == 0
        # Rank ordering holds for the well-populated head.
        assert counts[0] > counts[1] > counts[2]
        # And matches the analytic Zipf share within sampling noise.
        weights = 1.0 / np.arange(1, 7, dtype=float) ** 1.2
        expected = weights / weights.sum()
        assert counts[0] / counts.sum() == pytest.approx(expected[0], rel=0.10)

    def test_single_tenant_processes_tag_none(self):
        arrivals = PoissonArrivals(1000.0).schedule(
            np.random.default_rng(6), 10, GHZ
        )
        assert all(a.tenant is None for a in arrivals)


class TestTraceReplay:
    def test_round_trip_is_byte_exact(self, tmp_path):
        path = str(tmp_path / "schedule.jsonl")
        entries = [
            (0.1 + 0.37 * i, (i % 3) if i % 2 else None) for i in range(50)
        ]
        save_schedule(entries, path)
        loaded = load_schedule(path)
        assert loaded == entries
        # save(load(x)) reproduces the file bytes exactly.
        path2 = str(tmp_path / "schedule2.jsonl")
        save_schedule(loaded, path2)
        with open(path, "rb") as f1, open(path2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_replay_consumes_no_rng(self, tmp_path):
        path = str(tmp_path / "schedule.jsonl")
        save_schedule([(float(i), None) for i in range(10)], path)
        rng = np.random.default_rng(0)
        TraceReplay(path).schedule(rng, 10, GHZ)
        assert float(rng.random()) == float(np.random.default_rng(0).random())

    def test_replay_cycles_match_timestamps(self, tmp_path):
        path = str(tmp_path / "schedule.jsonl")
        save_schedule([(2.5, 1), (7.0, None)], path)
        arrivals = TraceReplay(path).schedule(np.random.default_rng(0), 2, GHZ)
        assert arrivals == [
            Arrival(2.5 * GHZ * 1e3, tenant=1),
            Arrival(7.0 * GHZ * 1e3, tenant=None),
        ]

    def test_replay_needs_enough_entries(self, tmp_path):
        path = str(tmp_path / "schedule.jsonl")
        save_schedule([(1.0, None)], path)
        with pytest.raises(ValueError, match="has 1 arrivals"):
            TraceReplay(path).schedule(np.random.default_rng(0), 5, GHZ)

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "nope"}) + "\n")
        with pytest.raises(ValueError, match="not a repro-arrival-schedule"):
            load_schedule(str(path))

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["[]"], "not a repro-arrival-schedule document"),
            (['{"t_us": 1.0}', "{oops"], "line 3: malformed"),
            (['{"t_us": 1.0}', '{"tenant": 2}'], "line 3: .*'t_us'"),
        ],
        ids=["non-object-header", "malformed-record", "record-without-t_us"],
    )
    def test_load_rejects_shapeless_input(self, tmp_path, lines, message):
        path = tmp_path / "bad.jsonl"
        header = json.dumps({"format": "repro-arrival-schedule", "version": 1})
        if lines[0] != "[]":
            lines = [header] + lines
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DocumentError, match=message):
            load_schedule(str(path))

    def test_load_rejects_decreasing_times(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"format": "repro-arrival-schedule", "version": 1})
            + "\n"
            + json.dumps({"t_us": 5.0})
            + "\n"
            + json.dumps({"t_us": 4.0})
            + "\n"
        )
        with pytest.raises(ValueError, match="non-decreasing"):
            load_schedule(str(path))

    def test_load_rejects_non_finite_times(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"format": "repro-arrival-schedule", "version": 1})
            + "\n"
            + json.dumps({"t_us": math.inf})
            + "\n"
        )
        with pytest.raises(ValueError, match="finite"):
            load_schedule(str(path))


class TestParseArrivals:
    def test_each_form(self):
        assert isinstance(parse_arrivals("closed"), ClosedLoop)
        assert parse_arrivals("poisson:1500") == PoissonArrivals(1500.0)
        assert parse_arrivals("onoff:4000,200,5,5") == OnOffArrivals(
            4000.0, 200.0, 5.0, 5.0
        )
        assert parse_arrivals("diurnal:2000,10,0.8") == DiurnalArrivals(
            2000.0, 10.0, 0.8
        )
        assert parse_arrivals("zipf:2000,1.1,8") == ZipfArrivals(2000.0, 1.1, 8)
        assert parse_arrivals("replay:/tmp/x.jsonl") == TraceReplay("/tmp/x.jsonl")

    @pytest.mark.parametrize(
        "text",
        [
            "bogus",
            "closed:1",
            "poisson:",
            "poisson:fast",
            "poisson:-5",
            "onoff:1,2,3",
            "zipf:100,1.1,2.5",
            "zipf:100,1.1,1",
            "diurnal:100,10,1.5",
            "replay:",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_arrivals(text)
