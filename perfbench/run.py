"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream_tpcc --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures half the time untraced and half traced, checks the
two agree byte for byte, prints the per-layer metrics and the self-time
table, and writes the spans as JSONL under ``perfbench/out/``.  Both
repeat whole cycles of the workload's inputs until ``--seconds`` pass.  The
metric names and units come from ``BENCHMARK.json`` at the repository
root; ``perfbench/README.md`` defines each metric and workload.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  The exit status is 1 when an output check fails and 2 when
an engine kill switch (``REPRO_*_FASTPATH``, ``REPRO_DTW_KERNELS``) is
set, since the run would then measure a reference engine.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from scenarios import COUNT_KEYS, OUT_DIR, SCENARIOS, Mismatch  # noqa: E402
from spans import (  # noqa: E402
    CALIBRATION_S,
    NullTracer,
    Tracer,
    calibrate,
    self_times,
    uncovered,
)

#: Engine kill switches: any of them set selects a reference twin.
SWITCHES = ("REPRO_SIM_FASTPATH", "REPRO_GEN_FASTPATH", "REPRO_DTW_KERNELS")

#: Set-up repetitions in fresh processes, besides the measuring one.
SETUP_CHILDREN = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink every input size (smoke tests); metrics are only "
        "comparable at the default 1.0",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="run the set-up, print its time and digest, exit",
    )
    return parser


def fingerprint() -> dict:
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(affinity) if affinity is not None else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "switches": {name: os.environ.get(name) for name in SWITCHES},
    }


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        group: {m["name"]: m["unit"] for m in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


class Tally:
    """Attempted/failed operations and failed checks across a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"CHECK FAILED: {message}", file=sys.stderr)


def measure(scenario, seconds: float, traced: bool, tally: Tally, expected: dict):
    """Repeat ``scenario.rep`` until ``seconds`` pass and every input has
    been run equally often (at least one whole cycle).

    Returns ``[(rep, tracer), ...]``.  A repetition that raises counts
    as one failed operation; every repetition's digests must equal
    ``expected[k]`` for its input ``k`` (recorded on first sight).
    """
    done = []
    deadline = time.perf_counter() + seconds
    before = calibrate(repeats=3)
    index = 0
    while True:
        k = index % scenario.inputs
        index += 1
        tracer = Tracer() if traced else NullTracer()
        try:
            rep = scenario.rep(tracer, k)
        except Mismatch as error:
            tally.problem(str(error))
            rep = None
        except Exception:
            traceback.print_exc()
            tally.attempted += 1
            tally.failed += 1
            tally.problem(f"{scenario.name}: repetition raised")
            rep = None
        after = calibrate(repeats=3)
        if rep is not None:
            if rep.speed is None:
                rep.speed = CALIBRATION_S / ((before + after) / 2)
            tally.attempted += rep.attempted
            tally.failed += rep.failed
            if (scenario.repeats_match
                    and expected.setdefault(k, rep.digests) != rep.digests):
                tally.problem(
                    f"{scenario.name}: {'traced' if traced else 'untraced'} "
                    f"repetition of input {k} output {rep.digests} differs "
                    f"from {expected[k]}"
                )
            done.append((rep, tracer))
        before = after
        if index % scenario.inputs == 0 and time.perf_counter() >= deadline:
            return done


def cycles(done, inputs: int) -> list:
    """``done`` split into whole cycles: one repetition of each input."""
    return [done[i:i + inputs] for i in range(0, len(done) - inputs + 1, inputs)]


def throughput(done, inputs: int) -> float:
    """Median over input cycles of work per speed-corrected second.

    A cycle's work and time are pooled, so every input weighs in by the
    time it takes; the median over cycles shrugs off a burst of load from
    other tenants of the host that hits one cycle.
    """
    return statistics.median(
        sum(rep.work for rep, _ in cycle)
        / sum(rep.work_s * rep.speed for rep, _ in cycle)
        for cycle in cycles(done, inputs)
    )


def latency(done, inputs: int, percentile: float) -> float:
    """Median over input cycles of the cycle's latency percentile."""
    return statistics.median(
        float(np.percentile(
            [ms * rep.speed for rep, _ in cycle for ms in rep.latencies_ms],
            percentile,
        ))
        for cycle in cycles(done, inputs)
    )


def end_to_end(done, inputs, setup_times, peak_rss_mb) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "throughput": throughput(done, inputs),
        "op_p50_ms": latency(done, inputs, 50),
        "op_p90_ms": latency(done, inputs, 90),
    }


def layer_metrics(rep, tracer) -> dict:
    """Per-layer figures of one traced repetition."""
    table = self_times(tracer.spans)
    counts = rep.counts

    def calls(name):
        return table[name]["calls"] if name in table else 0

    def total(prefix):
        return sum(r["total_s"] for n, r in table.items() if n.startswith(prefix))

    def self_s(prefix):
        return sum(r["self_s"] for n, r in table.items() if n.startswith(prefix))

    kernel_self = self_s("kernel.run")
    kernel_events = counts.get("kernel.samples", 0) + counts.get(
        "kernel.phase_transitions", 0
    )
    emit_calls = calls("obs.emit")
    # Spans named after the event kind a process_event call handled.
    online_event_self = sum(
        r["self_s"] for n, r in table.items()
        if n.startswith("online.")
        and not n.startswith(("online.attribute.", "online.report"))
    )
    metrics = {
        "workloads.generate_s": self_s("workloads."),
        "workloads.requests": calls("workloads.sample_request"),
        "kernel.self_s": kernel_self,
        "kernel.self_us_per_event": (
            kernel_self * 1e6 / kernel_events if kernel_events else 0.0
        ),
        "obs.emit_self_s": self_s("obs.emit"),
        "obs.delivered_frac": (
            counts.get("obs.events", 0) / emit_calls if emit_calls else 0.0
        ),
        "online.self_s": online_event_self,
        "online.period_s": self_s("online.period_sample"),
        "online.completed_s": self_s("online.request_completed"),
        "online.attribute_s": total("online.attribute."),
        "online.report_s": total("online.report"),
        "online.attribute_calls": calls("online.attribute.classify"),
        "serve.stream_s": total("serve.stream"),
        "core.matrix_s": total("core.matrix"),
        "core.kmedoids_s": total("core.kmedoids"),
        "core.argmin_s": total("core.argmin"),
        "bench.unspanned_s": uncovered(tracer.spans, *rep.region),
    }
    # Layer times get the repetition's host-speed correction too.
    for name, value in metrics.items():
        if name.endswith(("_s", "_us_per_event")):
            metrics[name] = value * rep.speed
    metrics.update(dict.fromkeys(COUNT_KEYS, 0.0))
    metrics.update(counts)
    return metrics


def print_self_times(tracers) -> None:
    merged = {}
    for tracer in tracers:
        for name, row in self_times(tracer.spans).items():
            into = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += row[key]
    print(f"self-time table ({len(tracers)} traced repetitions, summed)")
    for name, row in sorted(merged.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:34s} calls={row['calls']:<9d} "
              f"total_s={row['total_s']:.6f} self_s={row['self_s']:.6f}")


def export_spans(path: str, tracers) -> None:
    """Concatenate tracers' spans (ids re-based) into one JSONL file."""
    merged = Tracer()
    merged.origin = min(t.origin for t in tracers)
    for tracer in tracers:
        offset = len(merged.spans)
        merged.spans.extend(
            [name, start, end, parent + offset if parent >= 0 else -1, rid]
            for name, start, end, parent, rid in tracer.spans
        )
    with open(path, "w") as fh:
        fh.write(merged.to_jsonl())


def child_setup_times(args, digest: str, tally: Tally) -> list:
    """Repeat the set-up in fresh processes (imports included)."""
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--trace", "0", "--scale", repr(args.scale),
             "--setup-only"],
            capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            tally.problem(f"{args.workload}: set-up process failed")
            continue
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        if payload["digest"] != digest:
            tally.problem(f"{args.workload}: repeated set-up built other inputs")
        times.append(payload["setup_s"])
    return times


def peak_rss_mb(scenario) -> float:
    """This process's peak RSS plus, for serve, each shard worker's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = getattr(scenario, "workers", 0)
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    switched = [name for name in SWITCHES if name in os.environ]
    if switched:
        print(f"refusing to report: {', '.join(switched)} set, the run would "
              "measure a reference engine", file=sys.stderr)
        return 2
    declared = declared_metrics()
    scenario = SCENARIOS[args.workload](args.seed, args.scale)
    tally = Tally()
    setup_tracer = Tracer() if args.trace else NullTracer()
    try:
        with setup_tracer.span("bench.setup"):
            setup_digest = scenario.setup(setup_tracer)
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "digest": setup_digest}))
            return 0
        print("fingerprint", json.dumps(fingerprint(), sort_keys=True))
        expected = dict(getattr(scenario, "expected", {}))
        if args.trace:
            plain = measure(scenario, args.seconds / 2, False, tally, expected)
            traced = measure(scenario, args.seconds / 2, True, tally, expected)
        else:
            plain = measure(scenario, args.seconds, False, tally, expected)
    finally:
        scenario.close()
    if not plain or (args.trace and not traced):
        print(f"{args.workload}: no repetition completed", file=sys.stderr)
        return 1

    if args.trace:
        per_rep = [layer_metrics(rep, tracer) for rep, tracer in traced]
        # Whole cycles of inputs, so the means are per repetition of the
        # run's input mix (counts repeat exactly for a given seed).
        metrics = {
            name: statistics.fmean(m[name] for m in per_rep)
            for name in per_rep[0]
        }
        metrics["bench.trace_overhead_frac"] = (
            throughput(plain, scenario.inputs)
            / throughput(traced, scenario.inputs) - 1.0
        )
        metrics.update(getattr(scenario, "run_counts", {}))
        metrics["bench.failed_ops_frac"] = tally.failed / max(1, tally.attempted)
        units = declared["per_layer"]
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl")
        export_spans(path, [setup_tracer, traced[-1][1]])
        print_self_times([tracer for _, tracer in traced])
        print(f"spans of set-up and the last traced repetition: "
              f"{os.path.relpath(path)}")
    else:
        rss = peak_rss_mb(scenario)
        setup_times = [setup_s] + child_setup_times(args, setup_digest, tally)
        metrics = end_to_end(plain, scenario.inputs, setup_times, rss)
        units = declared["end_to_end"]
    if set(metrics) != set(units):
        raise SystemExit(
            f"metrics {sorted(set(metrics) ^ set(units))} do not match "
            "BENCHMARK.json"
        )
    print("digest", args.workload, json.dumps(plain[0][0].digests, sort_keys=True))
    correct = not tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
