"""The benchmark's own tests: tiny-size smoke runs of every workload,
self-time arithmetic on synthetic spans, and failure accounting on a
forced shed.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import subprocess
import sys

import pytest

import run
from scenarios import SCENARIOS, StreamTpcc
from spans import Tracer, self_times, uncovered

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _run(workload, trace, env=None):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "0.05", "--trace", str(trace), "--scale", "0.05"],
        capture_output=True, text=True, timeout=170, env=env,
    )


@pytest.mark.parametrize("workload", sorted(SCENARIOS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_declared_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    group = "per_layer" if trace else "end_to_end"
    assert result["metrics"].keys() == run.declared_metrics()[group].keys()
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        # Bypass predictions: untouched layers read zero.
        if workload in ("closed_webserver", "classify"):
            assert values["obs.emit_self_s"] == values["online.self_s"] == 0
            assert values["obs.events"] == values["obs.delivered_frac"] == 0
        if workload in ("serve_fleet", "classify"):
            assert values["kernel.self_s"] == values["workloads.generate_s"] == 0
    else:
        assert all(value > 0 for value in values.values())


def test_refuses_to_report_with_an_engine_switch_set():
    env = dict(os.environ, REPRO_SIM_FASTPATH="0")
    proc = _run("classify", 0, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 3.0, 6.0, 0, None],  # overlaps b: the overlap counts once
        ["d", 2.0, 3.0, 1, None],
        ["a", 11.0, 12.0, -1, None],
    ]
    table = self_times(spans)
    assert table["a"] == {"calls": 2, "total_s": 11.0, "self_s": 6.0}
    assert table["b"]["self_s"] == 2.0
    assert table["c"]["self_s"] == 3.0
    assert table["d"]["self_s"] == 1.0
    assert uncovered(spans, 0.0, 13.0) == 2.0


def test_wrapped_calls_nest_under_their_caller():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner", lambda args, kw: args[0])
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(3) == 8
    (outer_name, *_, outer_parent, _), (inner_name, *_, inner_parent, rid) = (
        tracer.spans
    )
    assert (outer_name, outer_parent) == ("outer", -1)
    assert (inner_name, inner_parent, rid) == ("inner", 0, 3)
    lines = [json.loads(line) for line in tracer.to_jsonl().splitlines()]
    assert [line["parent"] for line in lines] == [None, 0]


class _Overloaded(StreamTpcc):
    """Offered far above capacity into a one-request admission queue."""

    arrivals = "poisson:50000"
    admission_limit = 1
    inputs = 2


def test_shed_requests_count_as_failed_operations():
    scenario = _Overloaded(seed=5, scale=0.2)
    scenario.setup(run.NullTracer())
    tally = run.Tally()
    done = run.measure(scenario, 0.0, False, tally, dict(scenario.expected))
    shed = sum(rep.counts["traffic.shed"] for rep, _ in done)
    assert shed > 0
    assert tally.failed == shed
    assert tally.attempted == len(done) * scenario.sized(scenario.requests)
    assert not tally.problems
