"""End-to-end smokes of the shipped command lines (run with --runslow).

Each test drives the real CLIs as subprocesses (or the library, where the
smoke is a library-level gate) on a fixed configuration and asserts the
same properties CI has always gated on: scored online reports,
per-kind attribution accuracy floors, sweep kill/resume byte identity
(plain and fault-axis grids), loadsweep ``--jobs`` invariance plus the
closed-loop golden bytes, and serve failover byte identity.
"""

from __future__ import annotations

import filecmp
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace

import pytest

pytestmark = pytest.mark.slow

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def cli(cwd, *args, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python -m <args>`` in ``cwd``; a non-zero exit fails the test."""
    return subprocess.run(
        [sys.executable, "-m", *args], cwd=cwd, env=_env(), check=True, **kwargs
    )


def kill_once_settled(cwd, spec, manifest, settled, label) -> None:
    """Start ``repro.sweep run`` and SIGKILL it once ``settled`` scenarios
    of its manifest are done (fails if that takes over 180 s)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.sweep", "run", spec,
         "--manifest", manifest, "--quiet"],
        cwd=cwd,
        env=_env(),
    )
    try:
        deadline = time.monotonic() + 180
        while time.monotonic() < deadline:
            try:
                with open(os.path.join(cwd, manifest)) as fh:
                    doc = json.load(fh)
                done = sum(1 for entry in doc["scenarios"].values()
                           if entry["status"] == "done")
            except (OSError, ValueError, KeyError):
                done = 0
            if done >= settled:
                break
            time.sleep(0.05)
        else:
            pytest.fail(f"{label} never settled {settled} scenarios")
        os.kill(process.pid, signal.SIGKILL)
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_online_pipeline_smoke(tmp_path):
    """Stream a faulted run through repro-online; the scored report is
    real (non-empty, with ground truth)."""
    cli(tmp_path, "repro.online.cli", "tpcc",
        "--requests", "24", "--train", "12", "--faults", "lock_stall:0.25",
        "--report", "online-report.json", "--checkpoint", "online-state.json")
    report = load_json(tmp_path / "online-report.json")
    assert report["format"] == "repro-online-report"
    s = report["summary"]
    assert s["population"] == 24 and s["windows"] > 0
    assert s["injected"] > 0, "fault injection produced no ground truth"


def test_attribution_accuracy_smoke():
    """Every taxonomy kind injected into tpcc at a fixed rate/seed pair
    stays detectable and attributable at or above per-kind floors (a
    margin below the calibrated accuracy — the run is deterministic, so a
    miss is a regression in the detector, the attributor, or the
    injectors)."""
    from repro.faults.taxonomy import FAULT_TAXONOMY
    from repro.sweep.executor import SweepOptions, run_sweep
    from repro.sweep.manifest import SweepManifest
    from repro.sweep.report import build_report
    from repro.sweep.spec import SweepSpec

    spec = SweepSpec(
        name="ci-attribution",
        workloads=("tpcc",),
        sampling=("interrupt:100",),
        seeds=(3, 11),
        faults=tuple(f"{kind}:0.25" for kind in FAULT_TAXONOMY),
        requests=60,
        concurrency=8,
        online=True,
        train=12,
        attribute=True,
    )
    manifest = SweepManifest.plan(spec)
    run_sweep(manifest, options=SweepOptions(jobs=2))
    report = build_report(manifest)
    # Floors sit a margin below the calibrated accuracies
    # (thrash .62, gc .90, gray .25, convoy .50, stall .50,
    # membw .94, replica .53, slowdown .44 at this exact config).
    floors = {
        "cache_thrash": 0.50,
        "gc_pause": 0.75,
        "gray_degradation": 0.15,
        "lock_convoy": 0.35,
        "lock_stall": 0.35,
        "membw_saturation": 0.80,
        "slow_replica": 0.40,
        "slowdown": 0.30,
    }
    rows = {row["faults"].split(":")[0]: row for row in report.attribution_rows}
    assert set(rows) == set(FAULT_TAXONOMY), (
        f"missing fault axes: {set(FAULT_TAXONOMY) - set(rows)}"
    )
    failures = []
    for kind, floor in sorted(floors.items()):
        row = rows[kind]
        if row["detected"] < 5:
            failures.append(f"{kind}: only {row['detected']} detected")
        elif row["accuracy"] < floor:
            failures.append(f"{kind}: accuracy {row['accuracy']} < floor {floor}")
    assert not failures, failures
    mean = sum(rows[k]["accuracy"] for k in floors) / len(floors)
    assert mean >= 0.45, f"mean attribution accuracy {mean:.3f} < 0.45"


def test_sweep_kill_resume_smoke(tmp_path):
    """Run an 8-scenario grid uninterrupted, run it again with a SIGKILL
    once >= 3 scenarios settle, resume from the manifest, and demand the
    two reports be byte-identical."""
    (tmp_path / "sweep-spec.json").write_text(json.dumps({
        "name": "ci-smoke",
        "workloads": ["webserver", "tpcc"],
        "sampling": ["interrupt:100", "syscall:80,400"],
        "seeds": [0, 1],
        "requests": 5, "concurrency": 4, "online": True,
    }))
    cli(tmp_path, "repro.sweep", "run", "sweep-spec.json",
        "--manifest", "sweep-a.json", "--jobs", "2", "--quiet")
    cli(tmp_path, "repro.sweep", "report",
        "--manifest", "sweep-a.json", "--out", "report-a.json")
    kill_once_settled(tmp_path, "sweep-spec.json", "sweep-b.json", 3, "sweep")
    cli(tmp_path, "repro.sweep", "resume",
        "--manifest", "sweep-b.json", "--jobs", "2", "--quiet")
    cli(tmp_path, "repro.sweep", "report",
        "--manifest", "sweep-b.json", "--out", "report-b.json")
    assert filecmp.cmp(
        tmp_path / "report-a.json", tmp_path / "report-b.json", shallow=False
    )
    manifest = load_json(tmp_path / "sweep-b.json")
    assert all(entry["status"] == "done"
               for entry in manifest["scenarios"].values()), "incomplete"
    report = load_json(tmp_path / "report-b.json")
    assert report["format"] == "repro-sweep-report"
    assert len(report["scenarios"]) == 8, "report missing scenarios"
    assert report["overhead"], "report has no overhead rows"


def test_fault_axis_sweep_kill_resume_smoke(tmp_path):
    """The same resumability contract over composed fault schedules with
    attribution on: SIGKILL mid-run, resume, byte-identical report,
    attribution rows included."""
    (tmp_path / "fault-sweep-spec.json").write_text(json.dumps({
        "name": "ci-fault-smoke",
        "workloads": ["tpcc"],
        "sampling": ["interrupt:100"],
        "seeds": [0, 1],
        "faults": ["none", "gc_pause:0.3",
                   "lock_stall:0.2+cache_thrash:0.15@0-10"],
        "requests": 8, "concurrency": 4,
        "online": True, "train": 6, "attribute": True,
    }))
    cli(tmp_path, "repro.sweep", "run", "fault-sweep-spec.json",
        "--manifest", "fault-sweep-a.json", "--jobs", "2", "--quiet")
    cli(tmp_path, "repro.sweep", "report",
        "--manifest", "fault-sweep-a.json", "--out", "fault-report-a.json")
    kill_once_settled(
        tmp_path, "fault-sweep-spec.json", "fault-sweep-b.json", 2, "fault sweep"
    )
    cli(tmp_path, "repro.sweep", "resume",
        "--manifest", "fault-sweep-b.json", "--jobs", "2", "--quiet")
    cli(tmp_path, "repro.sweep", "report",
        "--manifest", "fault-sweep-b.json", "--out", "fault-report-b.json")
    assert filecmp.cmp(
        tmp_path / "fault-report-a.json", tmp_path / "fault-report-b.json",
        shallow=False,
    )
    report = load_json(tmp_path / "fault-report-b.json")
    assert len(report["scenarios"]) == 6, "report missing scenarios"
    rows = report["attribution"]
    mixes = {row["faults"] for row in rows}
    assert "gc_pause:0.3" in mixes, rows
    assert "lock_stall:0.2+cache_thrash:0.15@0-10" in mixes, rows


def test_loadsweep_smoke(tmp_path):
    """The loadsweep table is byte-identical under --jobs 1 vs --jobs 4
    (wall-clock timing lines aside), and the explicit closed-loop
    arrival axes reproduce the pre-traffic-layer golden scenario bytes."""
    timing = re.compile(r"^\[[0-9.]+s\]$")
    stripped = {}
    for jobs in ("1", "4"):
        out = tmp_path / f"loadsweep-j{jobs}.md"
        cli(tmp_path, "repro.experiments.runner", "loadsweep",
            "--scale", "0.25", "--jobs", jobs, "--out", out.name,
            stdout=subprocess.DEVNULL)
        stripped[jobs] = [
            line for line in out.read_text().splitlines(keepends=True)
            if not timing.match(line.rstrip("\n"))
        ]
    assert stripped["1"] == stripped["4"]

    from repro.sweep.golden import golden_path, golden_scenario
    from repro.sweep.scenario import result_to_json, run_scenario

    scenario = golden_scenario("tpcc")
    # The explicit closed-loop axes must hit the same code path — and the
    # same bytes — as the pre-traffic-layer default.
    explicit = replace(scenario, arrivals="closed", dispatch="rr")
    produced = result_to_json(run_scenario(explicit)) + "\n"
    with open(golden_path("tpcc")) as fh:
        pinned = fh.read()
    assert produced == pinned, "closed-loop traffic diverged from golden"


def test_serve_failover_smoke(tmp_path):
    """3 instances stream to a 2-worker pool; one run SIGKILLs a worker
    after its first durable checkpoint.  The killed run must actually
    restart a worker, and its fleet report must be byte-identical to the
    uninterrupted run's."""
    common = ["repro.serve.cli", "load-test",
              "--workload", "tpcc", "--instances", "3", "--workers", "2",
              "--requests", "12", "--faults", "lock_stall:0.25",
              "--train", "8", "--checkpoint-every", "32", "--quiet"]
    cli(tmp_path, *common, "--report", "fleet-clean.json")
    cli(tmp_path, *common, "--kill-worker", "0", "--report", "fleet-killed.json",
        "--stats-out", "serve-stats.json")
    assert filecmp.cmp(
        tmp_path / "fleet-clean.json", tmp_path / "fleet-killed.json",
        shallow=False,
    )
    stats = load_json(tmp_path / "serve-stats.json")
    restarts = sum(stats["worker_restarts"].values())
    assert restarts >= 1, "kill run never restarted a worker"
    assert stats["events_shed"] == 0, "block mode must not shed"
    summary = load_json(tmp_path / "fleet-clean.json")["summary"]
    assert summary["population"] == 36 and summary["injected"] > 0
