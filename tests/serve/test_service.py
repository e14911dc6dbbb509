"""End-to-end serve-tier tests: in-process workers, subprocess pool, CLI.

Kept deliberately small (mbench_spin, single-digit request counts) so the
full service stack — simulator → instance client → sharded workers →
aggregation — stays inside the tier-1 time budget.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.documents import DocumentError
from repro.obs.metrics import MetricsRegistry
from repro.serve.aggregator import merge_worker_reports
from repro.serve.instance import (
    InstanceClient,
    InstanceSpec,
    StreamStats,
    generate_instance_events,
)
from repro.serve.protocol import FrameStream, ProtocolError, hello
from repro.serve.router import HashRing
from repro.serve.service import (
    LoadTestOptions,
    run_load_test,
    save_worker_reports,
    shard_name,
)
from repro.serve.worker import ShardWorker, WorkerConfig, load_bank, save_bank


def make_worker(tmp_path, shard="w0", **overrides) -> ShardWorker:
    overrides.setdefault("checkpoint_every", 8)
    return ShardWorker(
        WorkerConfig(
            shard=shard,
            socket_path=str(tmp_path / f"{shard}.sock"),
            checkpoint_dir=str(tmp_path / "ckpt" / shard),
            **overrides,
        )
    )


async def stream_instance_to(worker: ShardWorker, spec, events, **kwargs):
    """Run one in-process worker and stream one instance's events at it."""
    server = asyncio.create_task(worker.serve_until_stopped())
    try:
        while not os.path.exists(worker.config.socket_path):
            await asyncio.sleep(0.005)
        ring = HashRing([worker.config.shard])
        client = InstanceClient(
            spec,
            events,
            ring,
            {worker.config.shard: worker.config.socket_path},
            **kwargs,
        )
        return await client.run()
    finally:
        worker.request_stop()
        await server


class TestInstanceEvents:
    def test_generation_is_deterministic(self):
        spec = InstanceSpec(instance=0, workload="mbench_spin", requests=4)
        first = [e.to_dict() for e in generate_instance_events(spec)]
        second = [e.to_dict() for e in generate_instance_events(spec)]
        assert first == second
        assert any(e["kind"] == "request_completed" for e in first)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="requests"):
            InstanceSpec(instance=0, workload="tpcc", requests=0)
        with pytest.raises(ValueError, match="concurrency"):
            InstanceSpec(instance=0, workload="tpcc", concurrency=0)

    def test_stream_stats_merge(self):
        a = StreamStats(events_sent=2, reconnects=1, ack_latencies=[0.1])
        a.merge(StreamStats(events_sent=3, events_shed=4, ack_latencies=[0.2]))
        assert a.events_sent == 5
        assert a.events_shed == 4
        assert a.reconnects == 1
        assert a.ack_latencies == [0.1, 0.2]


class TestBank:
    @pytest.fixture(scope="class")
    def identifier(self):
        from repro.online.pipeline import train_identifier
        from repro.workloads.registry import make_workload

        return train_identifier(make_workload("mbench_spin"), num_requests=6, seed=2)

    def test_round_trip_is_byte_identical(self, identifier, tmp_path):
        path = tmp_path / "bank.json"
        save_bank(identifier, str(path))
        written = path.read_bytes()
        assert written.endswith(b"\n")
        save_bank(load_bank(str(path)), str(path))
        assert path.read_bytes() == written

    def test_envelope_without_identifier_rejected(self, tmp_path):
        path = tmp_path / "bank.json"
        path.write_text(json.dumps({"format": "repro-serve-bank", "version": 1}))
        with pytest.raises(DocumentError, match="bank.json.*'identifier'"):
            load_bank(str(path))

    def test_failed_save_keeps_previous_file(self, identifier, tmp_path, torn_writes):
        path = tmp_path / "bank.json"
        path.write_text("previous bank\n")
        with pytest.raises(OSError):
            save_bank(identifier, str(path))
        assert path.read_text() == "previous bank\n"
        # the torn temp file is removed, not left behind
        assert os.listdir(tmp_path) == ["bank.json"]


class TestShardWorker:
    def test_streams_and_reports(self, tmp_path):
        spec = InstanceSpec(instance=0, workload="mbench_spin", requests=4)
        events = generate_instance_events(spec)
        worker = make_worker(tmp_path)
        stats = asyncio.run(stream_instance_to(worker, spec, events))
        assert stats.events_sent == len(events)
        report = worker.build_report()
        view = report["instances"]["0"]
        assert view["events_seen"] == len(events)
        assert view["workload"] == "mbench_spin"
        assert len(view["records"]) == 4
        # Periodic + final checkpoints were written and acked.
        assert worker.checkpoints_written >= 2
        assert stats.checkpoint_acks >= 2
        assert os.path.exists(
            os.path.join(worker.config.checkpoint_dir, "instance-0.json")
        )

    def test_restored_worker_reports_identically(self, tmp_path):
        spec = InstanceSpec(instance=0, workload="mbench_spin", requests=4)
        events = generate_instance_events(spec)
        worker = make_worker(tmp_path)
        asyncio.run(stream_instance_to(worker, spec, events))
        original = json.dumps(worker.build_report(), sort_keys=True)

        reborn = make_worker(tmp_path)  # same dirs: restores checkpoints
        assert reborn.instances_restored == 1
        assert json.dumps(reborn.build_report(), sort_keys=True) == original

    def test_replay_is_idempotent(self, tmp_path):
        """Streaming the same events twice (tail replay after failover)
        changes nothing: the pipeline's seq cursor skips duplicates."""
        spec = InstanceSpec(instance=0, workload="mbench_spin", requests=4)
        events = generate_instance_events(spec)
        once = make_worker(tmp_path / "once")
        asyncio.run(stream_instance_to(once, spec, events))

        twice = make_worker(tmp_path / "twice")

        async def stream_twice():
            server = asyncio.create_task(twice.serve_until_stopped())
            try:
                while not os.path.exists(twice.config.socket_path):
                    await asyncio.sleep(0.005)
                ring = HashRing(["w0"])
                paths = {"w0": twice.config.socket_path}
                await InstanceClient(spec, events, ring, paths).run()
                await InstanceClient(spec, events, ring, paths).run()
            finally:
                twice.request_stop()
                await server

        asyncio.run(stream_twice())
        assert json.dumps(twice.build_report(), sort_keys=True) == json.dumps(
            once.build_report(), sort_keys=True
        )

    def test_version_skew_rejected_with_error_frame(self, tmp_path):
        worker = make_worker(tmp_path)

        async def scenario():
            server = asyncio.create_task(worker.serve_until_stopped())
            try:
                while not os.path.exists(worker.config.socket_path):
                    await asyncio.sleep(0.005)
                reader, writer = await asyncio.open_unix_connection(
                    worker.config.socket_path
                )
                stream = FrameStream(reader, writer)
                bad = hello("instance", instance=0)
                bad["version"] = 99
                await stream.write(bad)
                try:
                    await stream.expect("hello_ack")
                finally:
                    await stream.close()
            finally:
                worker.request_stop()
                await server

        with pytest.raises(ProtocolError, match="version 99"):
            asyncio.run(scenario())

    def test_unknown_role_rejected(self, tmp_path):
        worker = make_worker(tmp_path)

        async def scenario():
            server = asyncio.create_task(worker.serve_until_stopped())
            try:
                while not os.path.exists(worker.config.socket_path):
                    await asyncio.sleep(0.005)
                reader, writer = await asyncio.open_unix_connection(
                    worker.config.socket_path
                )
                stream = FrameStream(reader, writer)
                await stream.write(hello("janitor"))
                try:
                    await stream.expect("hello_ack")
                finally:
                    await stream.close()
            finally:
                worker.request_stop()
                await server

        with pytest.raises(ProtocolError, match="unknown connection role"):
            asyncio.run(scenario())

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            make_worker(tmp_path, checkpoint_every=0)


class TestLoadTest:
    def options(self, **overrides):
        defaults = dict(
            workload="mbench_spin",
            instances=2,
            workers=2,
            requests=4,
            seed=7,
            checkpoint_every=16,
        )
        defaults.update(overrides)
        return LoadTestOptions(**defaults)

    def test_end_to_end(self, tmp_path):
        result = asyncio.run(run_load_test(self.options(), str(tmp_path)))
        summary = result.fleet.summary
        assert summary["workers"] == 2
        assert summary["instances"] == 2
        assert summary["population"] == 8  # 2 instances x 4 requests
        assert result.stats["events_sent"] >= result.stats["events_generated"]
        assert result.stats["events_per_second"] > 0
        assert result.stats["ack_latency_ms"] is not None
        assert result.registry.counter("serve_events_sent").value > 0

    def test_fleet_report_deterministic_across_runs(self, tmp_path):
        first = asyncio.run(
            run_load_test(self.options(), str(tmp_path / "a"))
        )
        second = asyncio.run(
            run_load_test(self.options(), str(tmp_path / "b"))
        )
        assert first.fleet.to_json() == second.fleet.to_json()

    def test_worker_reports_merge_to_the_fleet_report(self, tmp_path):
        result = asyncio.run(run_load_test(self.options(), str(tmp_path)))
        remerged = merge_worker_reports(result.worker_reports)
        assert remerged.to_json() == result.fleet.to_json()

    def test_saved_worker_reports_round_trip(self, tmp_path):
        result = asyncio.run(run_load_test(self.options(), str(tmp_path)))
        paths = save_worker_reports(result.worker_reports, str(tmp_path))
        assert [os.path.basename(p) for p in paths] == [
            "report-w0.json",
            "report-w1.json",
        ]
        from repro.serve.aggregator import load_worker_report

        documents = [load_worker_report(path) for path in paths]
        assert merge_worker_reports(documents).to_json() == (
            result.fleet.to_json()
        )

    def test_shed_mode_counts_drops(self, tmp_path):
        options = self.options(
            backpressure="shed", queue_limit=1, batch=1, credit=1
        )
        result = asyncio.run(run_load_test(options, str(tmp_path)))
        stats = result.stats
        # Conservation: everything offered was either sent or shed
        # (run_start broadcasts make sent+shed exceed generated).
        assert stats["events_sent"] + stats["events_shed"] >= (
            stats["events_generated"]
        )

    def test_shard_name(self):
        assert [shard_name(i) for i in range(3)] == ["w0", "w1", "w2"]


class TestCli:
    def test_load_test_writes_report(self, tmp_path, capsys):
        from repro.serve.cli import main

        report_path = tmp_path / "fleet.json"
        code = main([
            "load-test", "--workload", "mbench_spin", "--instances", "2",
            "--workers", "2", "--requests", "4", "--quiet",
            "--report", str(report_path),
        ])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["format"] == "repro-serve-fleet-report"
        assert payload["summary"]["population"] == 8

    def test_report_mode_merges(self, tmp_path, capsys):
        from repro.serve.cli import main

        options = LoadTestOptions(
            workload="mbench_spin", instances=2, workers=2, requests=4
        )
        result = asyncio.run(run_load_test(options, str(tmp_path)))
        paths = save_worker_reports(result.worker_reports, str(tmp_path))
        out = tmp_path / "fleet.json"
        assert main(["report", *paths, "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == json.loads(
            result.fleet.to_json()
        )
        assert "fleet report" in capsys.readouterr().out

    def test_kill_worker_index_validated(self):
        from repro.serve.cli import main

        with pytest.raises(SystemExit):
            main(["load-test", "--workers", "2", "--kill-worker", "5"])

    def test_unknown_workload_rejected(self):
        from repro.serve.cli import main

        with pytest.raises(SystemExit):
            main(["load-test", "--workload", "not-a-workload"])
