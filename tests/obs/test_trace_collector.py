"""TraceCollector ring buffer, span building, and JSONL round trips."""

from __future__ import annotations

import pytest

from repro.obs.trace import (
    EVENT_KINDS,
    NULL_COLLECTOR,
    NullCollector,
    ObsEvent,
    TraceCollector,
    events_to_jsonl,
    load_events,
    parse_events_jsonl,
    save_events,
)


def _fill(collector, n, kind="sample"):
    for i in range(n):
        collector.emit(kind, cycle=float(i * 10), request_id=i % 3, core=0)


class TestRingBuffer:
    def test_capacity_bounds_storage(self):
        collector = TraceCollector(capacity=10)
        _fill(collector, 25)
        assert len(collector) == 10
        assert collector.emitted == 25
        assert collector.dropped == 15

    def test_oldest_events_drop_first(self):
        collector = TraceCollector(capacity=10)
        _fill(collector, 25)
        seqs = [e.seq for e in collector.events]
        assert seqs == list(range(15, 25))

    def test_sequence_numbers_survive_drops(self):
        collector = TraceCollector(capacity=4)
        _fill(collector, 9)
        # seq keeps counting even though earlier events fell out.
        assert [e.seq for e in collector.events] == [5, 6, 7, 8]

    def test_clear_resets_everything(self):
        collector = TraceCollector(capacity=4)
        _fill(collector, 9)
        collector.clear()
        assert len(collector) == 0
        assert collector.emitted == 0
        assert collector.dropped == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceCollector(capacity=-1)

    def test_dispatch_only_retains_nothing(self):
        collector = TraceCollector(capacity=0)
        seen = []
        collector.subscribe(seen.append)
        _fill(collector, 5)
        assert len(collector) == 0
        assert collector.events == []
        assert collector.emitted == 5
        # Not retaining by design is not data loss.
        assert collector.dropped == 0
        assert [e.seq for e in seen] == [0, 1, 2, 3, 4]

    def test_unknown_kind_rejected(self):
        collector = TraceCollector()
        with pytest.raises(ValueError):
            collector.emit("not_a_kind", cycle=0.0)

    def test_unknown_kind_rejected_even_when_filtered_out(self):
        collector = TraceCollector(kinds={"sample"})
        with pytest.raises(ValueError):
            collector.emit("not_a_kind", cycle=0.0)


class TestKindFilter:
    def test_only_selected_kinds_collected(self):
        collector = TraceCollector(kinds={"sample", "request_admitted"})
        collector.emit("request_admitted", cycle=0.0, request_id=1)
        collector.emit("phase_transition", cycle=1.0, request_id=1)
        collector.emit("sample", cycle=2.0, request_id=1)
        collector.emit("syscall", cycle=3.0, request_id=1)
        assert [e.kind for e in collector.events] == ["request_admitted", "sample"]
        # seq numbers only advance for collected events.
        assert [e.seq for e in collector.events] == [0, 1]

    def test_filtered_kinds_skip_subscribers(self):
        collector = TraceCollector(kinds={"sample"})
        seen = []
        collector.subscribe(seen.append)
        collector.emit("syscall", cycle=0.0)
        collector.emit("sample", cycle=1.0)
        assert [e.kind for e in seen] == ["sample"]

    def test_unknown_kind_in_filter_rejected(self):
        with pytest.raises(ValueError, match="unknown event kinds"):
            TraceCollector(kinds={"sample", "bogus"})

    def test_wants(self):
        unfiltered = TraceCollector()
        assert unfiltered.wants("sample")
        filtered = TraceCollector(kinds={"sample"})
        assert filtered.wants("sample")
        assert not filtered.wants("syscall")
        assert not NULL_COLLECTOR.wants("sample")


class TestNullCollector:
    def test_disabled_and_inert(self):
        null = NullCollector()
        assert not null.enabled
        null.emit("sample", cycle=0.0)
        assert len(null) == 0
        assert null.emitted == 0

    def test_singleton_is_disabled(self):
        assert not NULL_COLLECTOR.enabled


class TestSpans:
    def test_spans_built_from_lifecycle_events(self):
        collector = TraceCollector()
        collector.emit("request_admitted", cycle=0.0, request_id=7, app="tpcc")
        collector.emit("task_dispatched", cycle=5.0, request_id=7, core=1)
        collector.emit("phase_transition", cycle=9.0, request_id=7, stage=0)
        collector.emit("syscall", cycle=10.0, request_id=7, name="read")
        collector.emit("sample", cycle=12.0, request_id=7, core=1)
        collector.emit("request_completed", cycle=20.0, request_id=7)
        spans = collector.request_spans()
        assert set(spans) == {7}
        span = spans[7]
        assert span.complete
        assert span.admitted_cycle == 0.0
        assert span.completed_cycle == 20.0
        assert span.latency_cycles == 20.0
        assert span.dispatches == 1
        assert span.phase_transitions == 1
        assert span.syscalls == 1
        assert span.samples == 1
        assert span.cores == [1]

    def test_incomplete_span(self):
        collector = TraceCollector()
        collector.emit("request_admitted", cycle=3.0, request_id=0)
        span = collector.request_spans()[0]
        assert not span.complete
        assert span.latency_cycles is None


class TestJsonlRoundTrip:
    def test_export_import_reexport_lossless(self):
        collector = TraceCollector()
        collector.emit("run_start", cycle=0.0, workload="tpcc", seed=1)
        _fill(collector, 7)
        collector.emit("run_end", cycle=99.0, completed=3)
        text = events_to_jsonl(collector.events, dropped=collector.dropped)
        events, dropped = parse_events_jsonl(text)
        assert dropped == 0
        assert events_to_jsonl(events, dropped=dropped) == text
        assert [e.seq for e in events] == [e.seq for e in collector.events]

    def test_save_load_files(self, tmp_path):
        collector = TraceCollector()
        _fill(collector, 5)
        path = tmp_path / "events.jsonl"
        save_events(collector, str(path))
        events, dropped = load_events(str(path))
        assert len(events) == 5
        assert dropped == 0
        assert events[0].kind == "sample"

    def test_dropped_count_round_trips(self):
        collector = TraceCollector(capacity=3)
        _fill(collector, 8)
        text = events_to_jsonl(collector.events, dropped=collector.dropped)
        _, dropped = parse_events_jsonl(text)
        assert dropped == 5

    def test_event_dict_round_trip(self):
        event = ObsEvent(
            seq=4, cycle=8.0, kind="syscall", request_id=2, task_id=9,
            core=3, data={"name": "poll"},
        )
        assert ObsEvent.from_dict(event.to_dict()) == event


class TestMalformedInput:
    def test_empty_text(self):
        with pytest.raises(ValueError, match="empty"):
            parse_events_jsonl("")

    def test_malformed_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_events_jsonl("not json\n")

    def test_foreign_format(self):
        with pytest.raises(ValueError, match="not a repro-obs-events document"):
            parse_events_jsonl('{"format":"something-else","version":1}\n')

    def test_unsupported_version(self):
        with pytest.raises(ValueError, match="version"):
            parse_events_jsonl(
                '{"format":"repro-obs-events","version":99,"events":0,"dropped":0}\n'
            )

    def test_malformed_event_line_reports_line_number(self):
        collector = TraceCollector()
        _fill(collector, 2)
        lines = events_to_jsonl(collector.events).splitlines()
        lines[2] = "{broken"
        with pytest.raises(ValueError, match="line 3"):
            parse_events_jsonl("\n".join(lines) + "\n")

    def test_event_count_mismatch(self):
        collector = TraceCollector()
        _fill(collector, 3)
        lines = events_to_jsonl(collector.events).splitlines()
        del lines[-1]
        with pytest.raises(ValueError, match="declares"):
            parse_events_jsonl("\n".join(lines) + "\n")

    def test_missing_required_event_keys(self):
        with pytest.raises(ValueError):
            ObsEvent.from_dict({"seq": 0, "cycle": 1.0})

    def test_blank_lines_do_not_shift_reported_line_numbers(self):
        """Line numbers must index the *file*, not the non-blank subset
        (the serve tier replays tails from these files; a debugging session
        that opens the file at the reported line must land on the bad one)."""
        collector = TraceCollector()
        _fill(collector, 2)
        lines = events_to_jsonl(collector.events).splitlines()
        lines.insert(1, "")  # blank separator after the header
        lines[3] = "{broken"  # file line 4 (1-based), not non-blank line 3
        with pytest.raises(ValueError, match="line 4"):
            parse_events_jsonl("\n".join(lines) + "\n")

    def test_wrong_typed_field_reports_line_number(self):
        """A TypeError inside record decoding (seq: null) must surface as a
        numbered ValueError, not a raw TypeError."""
        collector = TraceCollector()
        _fill(collector, 2)
        lines = events_to_jsonl(collector.events).splitlines()
        lines[2] = lines[2].replace('"seq":1', '"seq":null')
        with pytest.raises(ValueError, match="line 3"):
            parse_events_jsonl("\n".join(lines) + "\n")


class TestSubscribers:
    def test_subscriber_sees_every_event_in_order(self):
        collector = TraceCollector(capacity=5)
        seen = []
        collector.subscribe(seen.append)
        _fill(collector, 12)
        # The ring dropped events, but the live subscriber saw all of them.
        assert len(seen) == 12
        assert [e.seq for e in seen] == list(range(12))

    def test_unsubscribe_stops_delivery(self):
        collector = TraceCollector()
        seen = []
        collector.subscribe(seen.append)
        _fill(collector, 3)
        collector.unsubscribe(seen.append)
        _fill(collector, 3)
        assert len(seen) == 3

    def test_multiple_subscribers(self):
        collector = TraceCollector()
        a, b = [], []
        collector.subscribe(a.append)
        collector.subscribe(b.append)
        _fill(collector, 4)
        assert [e.seq for e in a] == [e.seq for e in b] == [0, 1, 2, 3]

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            TraceCollector().subscribe("not-a-function")

    def test_null_collector_rejects_subscription(self):
        with pytest.raises(ValueError, match="disabled collector"):
            NULL_COLLECTOR.subscribe(lambda e: None)


class TestPeriodSampleEvents:
    def test_simulator_emits_period_samples(self):
        from tests.conftest import run_small

        collector = TraceCollector()
        run = run_small("tpcc", num_requests=5, seed=12, collector=collector)
        periods = collector.events_of_kind("period_sample")
        assert periods, "no period_sample events emitted"
        # Every kept period of every trace appears in the stream.
        assert len(periods) == sum(t.num_periods for t in run.traces)
        sample = periods[0]
        for key in ("instructions", "cycles", "l2_refs", "l2_misses",
                    "injected_in_kernel", "injected_interrupt", "start_cycle"):
            assert key in sample.data
        # The final period of a request precedes its completion event.
        completed = {e.request_id: e.seq
                     for e in collector.events_of_kind("request_completed")}
        for event in periods:
            assert event.seq < completed[event.request_id]


def test_event_kind_registry_is_closed():
    """Every kind used by the simulator is declared exactly once."""
    assert len(EVENT_KINDS) == len(set(EVENT_KINDS))
    assert "request_admitted" in EVENT_KINDS
    assert "request_completed" in EVENT_KINDS
    assert "period_sample" in EVENT_KINDS
