"""The benchmark's four workloads.

Each workload builds its inputs from the seed in :meth:`setup`, then
:meth:`rep` runs one timed repetition through the public entry points of
the layers it exercises and returns a :class:`Rep`: the figures the
end-to-end metrics are made of, failure accounting, digests of every
output (repetitions must agree byte for byte) and the layer counts the
traced run reports.  Calls into each layer go through ``tracer.wrap`` /
``tracer.span``, so a traced repetition records spans from outside the
program while an untraced one runs the same code unobserved.

``scale`` shrinks every size (the benchmark's own smoke tests use it);
the benchmark proper runs at scale 1.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from spans import CALIBRATION_S, calibrate

_clock = time.perf_counter

#: Where serve run directories go (sockets, bank, checkpoints).  Kept
#: under the benchmark's own directory; removed after each pass.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class Mismatch(Exception):
    """An output check failed: the program computed a wrong answer."""


@dataclass
class Rep:
    """What one timed repetition produced."""

    #: Work done: simulated requests, events streamed unpaced, or
    #: distance-matrix pairs ...
    work: float
    #: ... and the host seconds it took.
    work_s: float
    #: Per-operation host latencies, milliseconds: the simulated run,
    #: each paced frame's ack, or each argmin query.
    latencies_ms: List[float]
    attempted: int
    failed: int
    #: Output name -> sha256 of its canonical bytes.
    digests: Dict[str, str]
    #: Layer counts and scores; keys from :data:`COUNT_KEYS`.
    counts: Dict[str, float] = field(default_factory=dict)
    #: ``(start, end)`` clock readings bounding the repetition's work.
    region: tuple = (0.0, 0.0)
    #: Host-speed correction (see :func:`spans.calibrate`); the runner
    #: sets it from calibrations around the repetition unless the
    #: workload corrected its times itself.
    speed: Optional[float] = None


#: Every per-layer count a repetition may report; a workload that
#: bypasses a layer reports its counts as zero.
COUNT_KEYS = (
    "kernel.samples",
    "kernel.phase_transitions",
    "kernel.context_switches",
    "traffic.shed",
    "traffic.queue_p99_us",
    "obs.events",
    "online.periods",
    "online.windows",
    "online.commits",
    "online.flags",
    "online.detect_recall",
    "online.detect_precision",
    "online.identify_accuracy",
    "online.attrib_accuracy",
    "serve.frames",
    "serve.events_per_frame",
    "serve.checkpoints_written",
    "serve.worker_cpu_us_per_event",  # over the whole run, from close()
    "serve.gen_lag_ms",
    "serve.paced_ack_p50_ms",
    "serve.paced_ack_p90_ms",
    "serve.paced_ack_samples",
    "serve.events_shed",
    "serve.reconnects",
    "serve.worker_restarts",
    "core.pairs",
    "core.argmin_queries",
    "core.mean_series_len",
)


def sha(text) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


def sub_seed(seed: int, k: int) -> int:
    """Simulation seed of input ``k`` of a run seeded ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _arg_request(args, kwargs):
    return args[1] if len(args) > 1 else None


def _emit_request(args, kwargs):
    return kwargs.get("request_id", args[2] if len(args) > 2 else None)


def _event_span(args) -> str:
    return "online." + args[0].kind


def _event_request(args, kwargs):
    return args[0].request_id


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Scenario:
    name = ""
    #: Whether every repetition of an input must give the same digests.
    repeats_match = True
    #: Distinct inputs the repetitions cycle through (``rep(tracer, k)``
    #: for ``k < inputs``); a run measures whole cycles.
    inputs = 1

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale

    def sized(self, value: int, minimum: int = 2) -> int:
        return max(minimum, int(round(value * self.scale)))

    def setup(self, tracer) -> str:
        """Build the inputs; return a digest of them (repeatable)."""
        raise NotImplementedError

    def rep(self, tracer, k: int) -> Rep:
        raise NotImplementedError

    def close(self) -> None:
        pass


class SimScenario(Scenario):
    """One simulated server run per repetition, optionally with the
    online pipeline attached to a kind-filtered dispatch-only collector."""

    #: Each repetition simulates one of 16 request streams drawn from
    #: the seed, so a run's figures average over 16 x ``requests``
    #: requests rather than hinge on one draw of a heavy-tailed mix.
    inputs = 16

    app = "tpcc"
    requests = 100
    concurrency = 8
    sampling_period_us: Optional[float] = None
    faults: Optional[str] = None
    arrivals: Optional[str] = None
    admission_limit: Optional[int] = None
    online = False
    train = 24

    def setup(self, tracer) -> str:
        from repro.online.pipeline import train_identifier
        from repro.workloads.registry import make_workload

        self.identifier = None
        if self.online:
            with tracer.span("online.train"):
                self.identifier = train_identifier(
                    make_workload(self.app),
                    num_requests=self.sized(self.train),
                    seed=self.seed + 10_000,
                )
        # One untimed run fills the template and interning caches the
        # repetitions then share (every process pays this once).
        with tracer.span("bench.warmup"):
            warm = self.rep(tracer, 0)
        self.expected = {0: warm.digests}
        return sha(json.dumps(warm.digests, sort_keys=True))

    def _traffic(self):
        if self.arrivals is None:
            return None
        from repro.traffic import TrafficConfig, parse_arrivals

        return TrafficConfig(
            arrivals=parse_arrivals(self.arrivals),
            admission_limit=self.admission_limit,
        )

    def rep(self, tracer, k: int) -> Rep:
        from repro.kernel.sampling import SamplingPolicy
        from repro.kernel.simulator import ServerSimulator, SimConfig
        from repro.kernel.trace_io import traces_to_jsonl
        from repro.obs.trace import TraceCollector
        from repro.online.pipeline import (
            SUBSCRIBED_KINDS,
            OnlineConfig,
            OnlinePipeline,
        )
        from repro.online.report import build_report
        from repro.workloads.registry import make_faulted_workload, make_workload

        requests = self.sized(self.requests)
        start = _clock()
        if self.faults:
            workload = tracer.wrap(make_faulted_workload, "workloads.make_workload")(
                self.app, self.faults
            )
        else:
            workload = tracer.wrap(make_workload, "workloads.make_workload")(self.app)
        if tracer.enabled:
            workload.sample_request = tracer.wrap(
                workload.sample_request, "workloads.sample_request", _arg_request
            )
            if getattr(workload, "prepare_block", None) is not None:
                workload.prepare_block = tracer.wrap(
                    workload.prepare_block, "workloads.prepare_block"
                )
        collector = pipeline = None
        if self.online:
            collector = TraceCollector(capacity=0, kinds=SUBSCRIBED_KINDS)
            collector.emit = tracer.wrap(collector.emit, "obs.emit", _emit_request)
            pipeline = OnlinePipeline(
                config=OnlineConfig(attribute=True), identifier=self.identifier
            )
            attributor = pipeline.attributor
            attributor.classify = tracer.wrap(
                attributor.classify, "online.attribute.classify"
            )
            attributor.observe_window = tracer.wrap(
                attributor.observe_window, "online.attribute.observe_window"
            )
            collector.subscribe(
                tracer.wrap(pipeline.process_event, _event_span, _event_request)
            )
        config = SimConfig(
            sampling=SamplingPolicy.interrupt(
                self.sampling_period_us or workload.sampling_period_us
            ),
            num_requests=requests,
            concurrency=min(self.concurrency, requests),
            seed=sub_seed(self.seed, k),
            collector=collector,
            traffic=self._traffic(),
        )
        with tracer.span("kernel.run"):
            result = ServerSimulator(workload, config).run()
        report = None
        if pipeline is not None:
            report = tracer.wrap(build_report, "online.report")(pipeline)
        elapsed = _clock() - start

        completed, shed = len(result.traces), result.requests_shed
        if completed + shed != requests:
            raise Mismatch(
                f"{self.name}: {requests} requests offered but {completed} "
                f"completed + {shed} shed"
            )
        latency = result.latency.summary() if result.latency is not None else None
        digests = {
            "sim": sha(traces_to_jsonl(result.traces)
                       + json.dumps([shed, latency], sort_keys=True)),
        }
        stats = result.sampler_stats
        phases = sum(
            len(stage.phases) for t in result.traces for stage in t.spec.stages
        )
        counts = {
            "kernel.samples": stats.total_samples,
            "kernel.phase_transitions": phases,
            "kernel.context_switches": stats.context_switch_samples,
            "traffic.shed": shed,
            "traffic.queue_p99_us": (
                latency["queue_us"]["p99"] or 0.0 if latency else 0.0
            ),
        }
        if report is not None:
            digests["online_report"] = sha(report.to_json())
            summary = report.summary
            counts.update({
                "obs.events": collector.emitted,
                "online.periods": pipeline.periods_seen,
                "online.windows": pipeline.windows_seen,
                "online.commits": summary["committed"],
                "online.flags": summary["flagged"],
            })
            counts.update(quality_scores(summary, report.attribution))
        return Rep(
            work=completed,
            work_s=elapsed,
            latencies_ms=[elapsed * 1e3],
            attempted=requests,
            failed=shed,
            digests=digests,
            counts=counts,
            region=(start, start + elapsed),
        )


def quality_scores(summary: dict, attribution: Optional[dict]) -> dict:
    """Online decision quality (deterministic per seed; None reads 0)."""
    return {
        "online.detect_recall": summary["recall"] or 0.0,
        "online.detect_precision": summary["precision"] or 0.0,
        "online.identify_accuracy": summary["label_accuracy"] or 0.0,
        "online.attrib_accuracy": (attribution or {}).get("accuracy") or 0.0,
    }


class StreamTpcc(SimScenario):
    """tpcc under open-loop Poisson arrivals below saturation, composed
    faults, and the online pipeline with attribution on."""

    name = "stream_tpcc"
    app = "tpcc"
    requests = 100
    faults = "lock_stall:0.1+gc_pause:0.05"
    arrivals = "poisson:1000"
    online = True


class ClosedWebserver(SimScenario):
    """webserver closed-loop at concurrency 8, 10 us sampling, no
    collector, no online pipeline, no faults."""

    name = "closed_webserver"
    app = "webserver"
    requests = 200
    sampling_period_us = 10.0
    #: Twice stream_tpcc's inputs: 1% of webserver requests are class3
    #: downloads carrying about a third of all instructions.
    inputs = 32


class ServeFleet(Scenario):
    """One instance streams a pre-generated faulted tpcc event stream to
    two shard workers, unpaced (capacity) and paced (latency).

    Two pools live for the whole run: ``unpaced`` with the default credit
    window and ``paced`` with credit 1, so the client reads each ack as it
    arrives (under a window of 8 it reads acks only once the window is
    full, and at a paced rate the figure would time the window filling
    up).  Each repetition streams the events under new instance ids, which
    every worker serves with a fresh pipeline: ``unpaced_instances`` ids
    into the unpaced pool, the first ``paced_instances`` of them again into
    the paced pool.  Both pools' reports on those ids must match byte for
    byte: the same decisions from two independent runs.
    """

    name = "serve_fleet"
    #: Each repetition uses new instance ids, hence other shard routing
    #: and decisions; the paced/unpaced comparison is its repeat check.
    repeats_match = False

    requests = 600
    faults = "lock_stall:0.1+gc_pause:0.05"
    arrivals = "poisson:1000"
    workers = 2
    checkpoint_every = 256
    #: Paced rate: well below the unpaced capacity (~22k events/s on a
    #: 2-CPU host) and what a credit-1 link keeps up with, so acks
    #: measure latency, not a growing backlog.
    paced_events_per_s = 6000.0
    unpaced_instances = 3
    paced_instances = 1
    train = 24

    def setup(self, tracer) -> str:
        from repro.online.pipeline import train_identifier
        from repro.serve.instance import InstanceSpec, generate_instance_events
        from repro.serve.worker import save_bank
        from repro.workloads.registry import make_workload

        os.makedirs(OUT_DIR, exist_ok=True)
        self.run_dir = os.path.relpath(
            os.path.join(OUT_DIR, f"serve-{os.getpid()}")
        )
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        self.next_instance = 0
        self.events_streamed = 0
        self.checkpoints = 0
        with tracer.span("online.train"):
            identifier = train_identifier(
                make_workload("tpcc"),
                num_requests=self.sized(self.train),
                seed=self.seed + 10_000,
            )
        self.bank_path = os.path.join(self.run_dir, "bank.json")
        save_bank(identifier, self.bank_path)
        self.spec = InstanceSpec(
            instance=0,
            workload="tpcc",
            requests=self.sized(self.requests),
            seed=self.seed,
            faults=self.faults,
            arrivals=self.arrivals,
        )
        with tracer.span("serve.generate_events"):
            self.events = generate_instance_events(self.spec)
        self.cpu_before = _children_cpu_s()
        self.loop = asyncio.new_event_loop()
        self.pools = {}
        for name, credit in (("unpaced", 8), ("paced", 1)):
            self.loop.run_until_complete(self._start(name, credit, tracer))
        with open(self.bank_path) as fh:
            bank = fh.read()
        return sha(bank + "".join(
            json.dumps(e.to_dict(), sort_keys=True) for e in self.events
        ))

    async def _start(self, name: str, credit: int, tracer) -> None:
        from repro.serve.service import PoolConfig, WorkerPool

        pool = self.pools[name] = WorkerPool(PoolConfig(
            run_dir=os.path.join(self.run_dir, name),
            workers=self.workers,
            bank_path=self.bank_path,
            checkpoint_every=self.checkpoint_every,
            credit=credit,
            attribute=True,
        ))
        with tracer.span("serve.pool_start"):
            await pool.start()

    async def _stream(self, tracer, pool, instance: int, rate):
        """Stream the events as ``instance``; (stats, seconds, speed)."""
        from repro.serve.instance import InstanceClient

        client = InstanceClient(
            replace(self.spec, instance=instance),
            self.events,
            pool.ring,
            pool.socket_paths,
            rate_events_per_s=rate,
        )
        # Probe host speed while the workers idle, just before they work.
        speed = CALIBRATION_S / calibrate(repeats=5)
        start = _clock()
        with tracer.span("serve.stream"):
            stats = await client.run()
        return stats, _clock() - start, speed

    async def _report(self, tracer, pool, instances):
        """Fleet report over ``instances`` only, plus worker stats."""
        from repro.serve.aggregator import merge_worker_reports

        with tracer.span("serve.collect"):
            responses = await pool.collect_reports()
        keys = {str(i) for i in instances}
        documents = [
            {**r["report"], "instances": {
                key: view for key, view in r["report"]["instances"].items()
                if key in keys
            }}
            for r in responses
        ]
        return merge_worker_reports(documents), [r["stats"] for r in responses]

    def rep(self, tracer, k: int) -> Rep:
        return self.loop.run_until_complete(self._rep(tracer))

    async def _rep(self, tracer) -> Rep:
        start = _clock()
        first = self.next_instance
        ids = range(first, first + self.sized(self.unpaced_instances, 1))
        paced_ids = ids[:self.sized(self.paced_instances, 1)]
        self.next_instance = ids.stop
        unpaced = [
            await self._stream(tracer, self.pools["unpaced"], i, None) for i in ids
        ]
        paced = [
            await self._stream(
                tracer, self.pools["paced"], i, self.paced_events_per_s
            )
            for i in paced_ids
        ]
        fleet, stats = await self._report(tracer, self.pools["unpaced"], ids)
        once, _ = await self._report(tracer, self.pools["unpaced"], paced_ids)
        again, paced_stats = await self._report(
            tracer, self.pools["paced"], paced_ids
        )
        end = _clock()

        if once.to_json() != again.to_json():
            raise Mismatch(
                f"serve_fleet: paced and unpaced fleet reports on instances "
                f"{list(paced_ids)} differ"
            )
        population = fleet.summary["population"]
        if population != len(ids) * self.spec.requests:
            raise Mismatch(
                f"serve_fleet: fleet report of {len(ids)} instances covers "
                f"{population} requests, {self.spec.requests} were generated "
                "per instance"
            )
        streams = [stats for stats, _, _ in unpaced + paced]
        sent = sum(s.events_sent for s in streams)
        frames = sum(s.frames_sent for s in streams)
        shed = sum(s.events_shed for s in streams)
        reconnects = sum(s.reconnects for s in streams)
        restarts = sum(
            sum(pool.restarts.values()) for pool in self.pools.values()
        )
        self.events_streamed += sent
        # Worker counters run since pool start: report this repetition's.
        checkpoints = sum(s["checkpoints_written"] for s in stats + paced_stats)
        checkpoints, self.checkpoints = checkpoints - self.checkpoints, checkpoints
        paced_acks = [
            seconds * 1e3 for stats, _, _ in paced for seconds in stats.ack_latencies
        ]
        counts = {
            "serve.frames": frames,
            "serve.events_per_frame": sent / frames if frames else 0.0,
            "serve.checkpoints_written": checkpoints,
            "serve.gen_lag_ms": statistics.fmean(
                max(0.0, seconds - len(self.events) / self.paced_events_per_s)
                for _, seconds, _ in paced
            ) * 1e3,
            "serve.paced_ack_p50_ms": float(np.percentile(paced_acks, 50)),
            "serve.paced_ack_p90_ms": float(np.percentile(paced_acks, 90)),
            "serve.paced_ack_samples": len(paced_acks),
            "serve.events_shed": shed,
            "serve.reconnects": reconnects,
            "serve.worker_restarts": restarts,
        }
        counts.update(quality_scores(fleet.summary, fleet.attribution))
        # Each unpaced pass is corrected by the probe just before it.  The
        # end-to-end latency is the ack latency at capacity: the window
        # stays full, so each ack is read as soon as the client needs the
        # credit, and the figure follows the workers' service time.
        # Paced acks wait on process wake-ups, which other tenants of the
        # host swing by 20-80% from run to run, so they are reported per
        # layer instead, uncorrected.
        return Rep(
            work=sum(stats.events_sent for stats, _, _ in unpaced),
            work_s=sum(seconds * speed for _, seconds, speed in unpaced),
            latencies_ms=[
                seconds * 1e3 * speed
                for stats, _, speed in unpaced
                for seconds in stats.ack_latencies
            ],
            attempted=len(streams) * len(self.events),
            failed=shed + reconnects + restarts,
            digests={"fleet_report": sha(fleet.to_json())},
            counts=counts,
            region=(start, end),
            speed=1.0,
        )

    def close(self) -> None:
        """Stop the pools; their CPU over the run gives the per-event cost."""
        loop = getattr(self, "loop", None)
        if loop is not None:
            for pool in self.pools.values():
                loop.run_until_complete(pool.stop())
            loop.close()
            self.run_counts = {
                "serve.worker_cpu_us_per_event": (
                    (_children_cpu_s() - self.cpu_before) * 1e6
                    / max(1, self.events_streamed)
                ),
            }
        shutil.rmtree(getattr(self, "run_dir", ""), ignore_errors=True)


class Classify(Scenario):
    """All-pairs penalty-DTW matrix + k-medoids through a fresh
    cache-less serial engine, then nearest-medoid argmin queries."""

    name = "classify"

    #: Each repetition classifies one of 8 data sets drawn from the seed,
    #: so a run's figures do not hinge on one draw of series lengths.
    inputs = 8
    #: Series per request kind in each data set: ``(train, held-out)``.
    #: Fixed quotas (tpcc evenly, webserver by its SPECweb99 file-class
    #: mix) keep the length distribution's shape the same for every seed.
    quotas = {
        "tpcc": {
            "new_order": (5, 3),
            "payment": (5, 3),
            "order_status": (5, 3),
            "delivery": (5, 3),
            "stock_level": (5, 3),
        },
        "webserver": {
            "class0": (9, 5),
            "class1": (12, 7),
            "class2": (3, 2),
            "class3": (1, 1),
        },
    }
    #: Webserver's class3 downloads give series of 550-1500 windows,
    #: against at most ~165 for every other kind.  The one class3 series
    #: sets most of the matrix cost (batched blocks pad to their longest
    #: member), superlinearly in its length, and tends to become a medoid
    #: every query is compared with.  Cutting it to a fixed length keeps
    #: that outlier in every data set without letting one random draw of
    #: its size set the figures.
    max_windows = {"class3": 500}
    k = 8

    def setup(self, tracer) -> str:
        from repro.core.distances import unequal_length_penalty
        from repro.core.kernels import PenaltyDtw
        from repro.kernel.sampling import SamplingPolicy
        from repro.kernel.simulator import ServerSimulator, SimConfig
        from repro.workloads.registry import FixedKindWorkload

        items = [[] for _ in range(self.inputs)]
        queries = [[] for _ in range(self.inputs)]
        runs = 0
        for app, kinds in self.quotas.items():
            for kind, (train, held) in kinds.items():
                train = self.sized(train, minimum=1)
                held = self.sized(held, minimum=1)
                # One run per kind draws that kind's series of every set.
                workload = FixedKindWorkload(app, kind)
                config = SimConfig(
                    sampling=SamplingPolicy.interrupt(workload.sampling_period_us),
                    num_requests=self.inputs * (train + held),
                    seed=sub_seed(self.seed, runs),
                )
                runs += 1
                with tracer.span("kernel.run"):
                    result = ServerSimulator(workload, config).run()
                cap = self.max_windows.get(kind)
                series = [
                    t.series("cpi", workload.window_instructions).values[:cap]
                    for t in result.traces
                ]
                for k in range(self.inputs):
                    mine = series[k * (train + held):(k + 1) * (train + held)]
                    items[k] += mine[:train]
                    queries[k] += mine[train:]
        # One fixed shuffle for every set and seed: where the long series
        # sits decides how many padded blocks it joins, so it must not move.
        order = np.random.default_rng(0).permutation(len(items[0]))
        rng = np.random.default_rng(self.seed)
        self.datasets = []
        for k in range(self.inputs):
            train = [items[k][i] for i in order]
            penalty = unequal_length_penalty(np.concatenate(train), rng)
            self.datasets.append((train, queries[k], PenaltyDtw(penalty)))
        self.mean_len = float(np.mean(
            [len(x) for k in range(self.inputs) for x in items[k] + queries[k]]
        ))
        return sha("".join(
            repr(measure.penalty) + "".join(x.tobytes().hex() for x in train + held)
            for train, held, measure in self.datasets
        ))

    def rep(self, tracer, k: int) -> Rep:
        from repro.core.clustering import k_medoids
        from repro.core.distengine import DistanceEngine

        items, queries, measure = self.datasets[k]
        n = len(items)
        pairs = n * (n - 1) // 2
        engine = DistanceEngine(jobs=1)
        start = _clock()
        matrix = tracer.wrap(engine.matrix, "core.matrix")(items, measure)
        clusters = tracer.wrap(k_medoids, "core.kmedoids")(
            matrix, k=min(self.k, n), rng=np.random.default_rng(self.seed)
        )
        cluster_s = _clock() - start
        bank = measure.bank([items[int(i)] for i in clusters.medoids])
        argmin = tracer.wrap(measure.argmin, "core.argmin")
        answers, latencies = [], []
        for query in queries:
            t0 = _clock()
            answers.append(argmin(query, bank))
            latencies.append((_clock() - t0) * 1e3)
        elapsed = _clock() - start

        if not np.array_equal(matrix, matrix.T):
            raise Mismatch("classify: distance matrix is not symmetric")
        if np.any(np.diag(matrix) != 0.0):
            raise Mismatch("classify: distance matrix diagonal is not zero")
        result = {
            "medoids": [int(i) for i in clusters.medoids],
            "labels": [int(i) for i in clusters.labels],
            "argmin": [[int(i), repr(float(d))] for i, d in answers],
        }
        return Rep(
            work=pairs,
            work_s=cluster_s,
            latencies_ms=latencies,
            attempted=pairs + len(queries),
            failed=0,
            digests={
                "matrix": sha(matrix.tobytes()),
                "medoids_argmin": sha(json.dumps(result, sort_keys=True)),
            },
            counts={
                "core.pairs": pairs,
                "core.argmin_queries": len(queries),
                "core.mean_series_len": self.mean_len,
            },
            region=(start, start + elapsed),
        )


SCENARIOS = {
    cls.name: cls for cls in (StreamTpcc, ClosedWebserver, ServeFleet, Classify)
}
