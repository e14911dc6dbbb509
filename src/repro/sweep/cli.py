"""``repro-sweep``: plan, run, resume, and report scenario sweeps.

Usage::

    repro-sweep plan spec.json                      # show the expanded grid
    repro-sweep run spec.json --manifest m.json     # execute (creates/continues)
    repro-sweep run spec.json --manifest m.json --jobs 4 --timeout 120
    repro-sweep resume --manifest m.json            # continue a killed sweep
    repro-sweep report --manifest m.json --out report.json
    python -m repro.sweep --regen-golden            # rebuild tests/golden/

``run`` on an existing manifest verifies the spec matches and continues
it, so ``resume`` is simply ``run`` without re-reading the spec file.
Exit status is 1 when quarantined scenarios remain, so CI smoke steps
fail loudly on swept-under-the-rug failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.report import format_table
from repro.documents import atomic_write
from repro.sweep.cache import ScenarioCache, default_scenario_cache_path
from repro.sweep.executor import SweepOptions, run_sweep
from repro.sweep.golden import GOLDEN_DIR, regenerate_golden
from repro.sweep.manifest import SweepManifest
from repro.sweep.report import build_report
from repro.sweep.spec import SweepSpec

__all__ = ["main"]


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _add_execution_arguments(sub) -> None:
    sub.add_argument("--jobs", type=positive_int, default=1,
                     help="worker processes (forked, one per scenario)")
    sub.add_argument("--timeout", type=positive_float, default=None,
                     metavar="SECONDS",
                     help="per-scenario wall-clock limit (needs --jobs > 1)")
    sub.add_argument("--retries", type=nonnegative_int, default=1,
                     help="extra attempts before quarantining a scenario")
    sub.add_argument("--stop-after", type=positive_int, default=None,
                     metavar="N", help="settle N scenarios, then stop")
    sub.add_argument("--cache", nargs="?", const=default_scenario_cache_path(),
                     default=None, metavar="PATH",
                     help="persist scenario results for cross-sweep reuse "
                          "(default path under results/.cache/)")
    sub.add_argument("--report", default=None, metavar="PATH",
                     help="write the canonical-JSON report here when done")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress per-scenario progress lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="Sharded, resumable scenario-sweep orchestrator.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    plan = commands.add_parser("plan", help="expand a spec and show the grid")
    plan.add_argument("spec", help="sweep spec JSON file")
    plan.add_argument("--manifest", default=None,
                      help="also write a fresh all-pending manifest here")

    run = commands.add_parser("run", help="execute a sweep (creates or continues)")
    run.add_argument("spec", help="sweep spec JSON file")
    run.add_argument("--manifest", required=True,
                     help="manifest path (created if missing, continued if not)")
    _add_execution_arguments(run)

    resume = commands.add_parser("resume", help="continue a sweep from its manifest")
    resume.add_argument("--manifest", required=True)
    resume.add_argument("--retry-quarantined", action="store_true",
                        help="return quarantined scenarios to pending first")
    _add_execution_arguments(resume)

    report = commands.add_parser("report", help="aggregate a manifest")
    report.add_argument("--manifest", required=True)
    report.add_argument("--out", default=None, metavar="PATH",
                        help="write the canonical-JSON report here")
    return parser


def _options(args) -> SweepOptions:
    cache = ScenarioCache(args.cache) if args.cache else None
    return SweepOptions(
        jobs=args.jobs,
        timeout_s=args.timeout,
        retries=args.retries,
        stop_after=args.stop_after,
        cache=cache,
    )


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def emit(scenario_id: str, status: str) -> None:
        print(f"[{status}] {scenario_id}")

    return emit


def _finish(manifest: SweepManifest, report_path: Optional[str]) -> int:
    report = build_report(manifest)
    if report_path:
        atomic_write(report_path, report.to_json())
    print(report.render())
    return 1 if manifest.counts()["quarantined"] else 0


def _execute(manifest: SweepManifest, args) -> int:
    run_sweep(
        manifest,
        manifest_path=args.manifest,
        options=_options(args),
        progress=_progress_printer(args.quiet),
    )
    return _finish(manifest, args.report)


def _cmd_plan(args) -> int:
    spec = SweepSpec.from_json_file(args.spec)
    manifest = SweepManifest.plan(spec)
    rows = [
        {
            "scenario": scenario.scenario_id,
            "workload": scenario.workload,
            "sampling": scenario.sampling,
            "seed": scenario.seed,
            "faults": scenario.faults,
            "placement": scenario.placement,
        }
        for scenario in spec.expand()
    ]
    print(format_table(rows, title=f"-- plan: {spec.name} "
                                   f"({len(rows)} scenarios) --"))
    if args.manifest:
        if os.path.exists(args.manifest):
            raise SystemExit(
                f"refusing to overwrite existing manifest {args.manifest!r}; "
                "use 'run' or 'resume' to continue it"
            )
        manifest.save(args.manifest)
        print(f"manifest written: {args.manifest}")
    return 0


def _cmd_run(args) -> int:
    spec = SweepSpec.from_json_file(args.spec)
    if os.path.exists(args.manifest):
        manifest = SweepManifest.load(args.manifest)
        if manifest.spec.spec_key != spec.spec_key:
            raise SystemExit(
                f"manifest {args.manifest!r} belongs to a different spec "
                f"({manifest.spec.name!r}); refusing to mix sweeps"
            )
    else:
        manifest = SweepManifest.plan(spec)
    return _execute(manifest, args)


def _cmd_resume(args) -> int:
    manifest = SweepManifest.load(args.manifest)
    if args.retry_quarantined:
        for sid in manifest.release_quarantined():
            print(f"[retrying] {sid}")
    return _execute(manifest, args)


def _cmd_report(args) -> int:
    manifest = SweepManifest.load(args.manifest)
    report = build_report(manifest)
    if args.out:
        atomic_write(args.out, report.to_json())
    print(report.render())
    return 0


def _regen_golden_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Regenerate the golden conformance corpus.",
    )
    parser.add_argument("--regen-golden", action="store_true", required=True)
    parser.add_argument("--golden-dir", default=GOLDEN_DIR,
                        help="corpus directory (default tests/golden/)")
    args = parser.parse_args(argv)
    for path in regenerate_golden(args.golden_dir):
        print(f"wrote {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--regen-golden" in argv:
        return _regen_golden_main(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "plan": _cmd_plan,
        "run": _cmd_run,
        "resume": _cmd_resume,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except ValueError as error:
        parser.error(str(error))
    except BrokenPipeError:
        # stdout went away mid-print (e.g. piped into head).  Detach it
        # so the interpreter's shutdown flush cannot raise again, and
        # exit like a well-behaved filter instead of tracebacking.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
