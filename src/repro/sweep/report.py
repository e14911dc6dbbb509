"""Cross-scenario sweep reports.

A :class:`SweepReport` folds the per-scenario metric documents of a
(possibly partial) manifest into the cross-scenario tables the paper's
evaluation reassembles by hand: observer overhead vs. sampling policy per
workload (Table 1 / Fig. 5 shaped) and detection precision/recall vs.
fault mix (stream-detection shaped), plus a per-scenario status table.

Aggregation walks scenarios in plan order and groups in sorted-key order,
so every float reduction sums in a fixed sequence: the report is a pure
function of the manifest *content*, and an interrupted-then-resumed sweep
renders byte-identically to an uninterrupted one (``to_json`` is the
comparison surface CI uses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.report import format_table
from repro.documents import canonical_json
from repro.sweep.manifest import STATUS_DONE, SweepManifest
from repro.sweep.spec import NO_FAULTS

__all__ = ["REPORT_FORMAT", "REPORT_VERSION", "SweepReport", "build_report"]

REPORT_FORMAT = "repro-sweep-report"
REPORT_VERSION = 1


def _mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


@dataclass
class SweepReport:
    """Aggregated sweep outcome, JSON-ready."""

    summary: Dict = field(default_factory=dict)
    scenario_rows: List[Dict] = field(default_factory=list)
    overhead_rows: List[Dict] = field(default_factory=list)
    detection_rows: List[Dict] = field(default_factory=list)
    attribution_rows: List[Dict] = field(default_factory=list)

    def to_json(self) -> str:
        """Canonical serialization (the byte-identity comparison surface)."""
        payload = {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            "summary": self.summary,
            "scenarios": self.scenario_rows,
            "overhead": self.overhead_rows,
            "detection": self.detection_rows,
        }
        # The attribution table appears only when some scenario scored
        # cause attribution, keeping detection-only report bytes pinned.
        if self.attribution_rows:
            payload["attribution"] = self.attribution_rows
        return canonical_json(payload) + "\n"

    def render(self) -> str:
        """Human-readable ASCII report."""
        s = self.summary
        lines = [
            f"== sweep report: {s['name']} ==",
            f"planned={s['planned']}  done={s['done']}  "
            f"pending={s['pending']}  quarantined={s['quarantined']}",
        ]
        if self.scenario_rows:
            lines.append("")
            lines.append(format_table(self.scenario_rows, title="-- scenarios --"))
        if self.overhead_rows:
            lines.append("")
            lines.append(
                format_table(
                    self.overhead_rows,
                    title="-- observer overhead by workload x sampling --",
                )
            )
        if self.detection_rows:
            lines.append("")
            lines.append(
                format_table(
                    self.detection_rows,
                    title="-- fault detection by workload x fault mix --",
                )
            )
        if self.attribution_rows:
            lines.append("")
            lines.append(
                format_table(
                    self.attribution_rows,
                    title="-- cause attribution by workload x fault mix --",
                )
            )
        return "\n".join(lines)


def build_report(manifest: SweepManifest) -> SweepReport:
    """Aggregate a manifest (partial sweeps report what has settled)."""
    counts = manifest.counts()
    summary = {
        "name": manifest.spec.name,
        "spec_key": manifest.spec.spec_key,
        "planned": counts["planned"],
        "done": counts[STATUS_DONE],
        "pending": counts["pending"],
        "quarantined": counts["quarantined"],
    }

    scenario_rows: List[Dict] = []
    overhead_groups: Dict[tuple, List[Dict]] = {}
    detection_groups: Dict[tuple, List[Dict]] = {}
    attribution_groups: Dict[tuple, List[Dict]] = {}
    for sid in manifest.order:
        entry = manifest.scenarios[sid]
        row = {"scenario": sid, "status": entry["status"]}
        if entry["status"] != STATUS_DONE:
            row.update(error=entry["error"] or "")
            scenario_rows.append(row)
            continue
        document = entry["result"]
        scenario = document["scenario"]
        result_summary = document["summary"]
        row.update(
            requests=result_summary["requests"],
            mean_cpi=round(result_summary["mean_cpi"], 4),
            overhead_pct=round(100.0 * result_summary["overhead_fraction"], 4),
            error="",
        )
        scenario_rows.append(row)
        overhead_groups.setdefault(
            (scenario["workload"], scenario["sampling"]), []
        ).append(result_summary)
        online = document["online"]
        if online is not None and scenario["faults"] != NO_FAULTS:
            detection_groups.setdefault(
                (scenario["workload"], scenario["faults"]), []
            ).append(online["summary"])
            if online.get("attribution") is not None:
                attribution_groups.setdefault(
                    (scenario["workload"], scenario["faults"]), []
                ).append(online["attribution"])

    overhead_rows = []
    for (workload, sampling) in sorted(overhead_groups):
        summaries = overhead_groups[(workload, sampling)]
        overhead_rows.append(
            {
                "workload": workload,
                "sampling": sampling,
                "scenarios": len(summaries),
                "mean_overhead_pct": round(
                    100.0 * _mean([s["overhead_fraction"] for s in summaries]), 4
                ),
                "mean_samples_per_request": round(
                    _mean([s["total_samples"] / s["requests"] for s in summaries]),
                    2,
                ),
                "mean_cpi": round(_mean([s["mean_cpi"] for s in summaries]), 4),
            }
        )

    detection_rows = []
    for (workload, faults) in sorted(detection_groups):
        summaries = detection_groups[(workload, faults)]
        precisions = [s["precision"] for s in summaries if s["precision"] is not None]
        recalls = [s["recall"] for s in summaries if s["recall"] is not None]
        precision = _mean(precisions)
        recall = _mean(recalls)
        detection_rows.append(
            {
                "workload": workload,
                "faults": faults,
                "scenarios": len(summaries),
                "injected": sum(s["injected"] for s in summaries),
                "flagged": sum(s["flagged"] for s in summaries),
                "precision": round(precision, 4) if precision is not None else None,
                "recall": round(recall, 4) if recall is not None else None,
            }
        )

    attribution_rows = []
    for (workload, faults) in sorted(attribution_groups):
        scores = attribution_groups[(workload, faults)]
        detected = sum(s["detected"] for s in scores)
        correct = sum(s["correct"] for s in scores)
        attribution_rows.append(
            {
                "workload": workload,
                "faults": faults,
                "scenarios": len(scores),
                "detected": detected,
                "correct": correct,
                "accuracy": round(correct / detected, 4) if detected else None,
                "false_attributions": sum(
                    s["false_attributions"] for s in scores
                ),
            }
        )

    return SweepReport(
        summary=summary,
        scenario_rows=scenario_rows,
        overhead_rows=overhead_rows,
        detection_rows=detection_rows,
        attribution_rows=attribution_rows,
    )
