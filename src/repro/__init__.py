"""repro — reproduction of "Request Behavior Variations" (ASPLOS 2010).

A simulated multicore server system with OS-level online tracking of
per-request hardware-counter behavior variations, variation-driven request
modeling (differencing, classification, anomaly detection, online
signatures, prediction), and contention-easing CPU scheduling.

Quick start::

    from repro import run_workload, SamplingPolicy
    result = run_workload("tpcc", num_requests=50,
                          sampling=SamplingPolicy.interrupt(100.0))
    for trace in result.traces[:3]:
        print(trace.spec.kind, trace.overall_cpi())
"""

from repro.core import (
    Ewma,
    LastValue,
    MetricSeries,
    RunningAverage,
    VaEwma,
    captured_variation,
    dtw_distance,
    inter_request_variation,
    k_medoids,
    l1_distance,
    levenshtein_distance,
)
from repro.analysis.projection import project_population, project_trace
from repro.core.anomaly import detect_by_centroid_distance, detect_multi_metric_pairs
from repro.core.signatures import RecentPastPredictor, SignatureBank
from repro.core.stagedetect import identify_stages
from repro.core.transitions import TransitionSignalTrainer
from repro.documents import DocumentError
from repro.kernel.trace_io import load_traces, save_traces
from repro.hardware import MachineConfig, SamplingCostModel, WOODCREST
from repro.kernel import (
    ContentionEasingScheduler,
    RequestTrace,
    RoundRobinScheduler,
    SamplingMode,
    SamplingPolicy,
    ServerSimulator,
    SimConfig,
    SimResult,
    run_workload,
)
from repro.workloads import available_workloads, make_workload

__version__ = "1.0.0"

__all__ = [
    "ContentionEasingScheduler",
    "DocumentError",
    "Ewma",
    "LastValue",
    "MachineConfig",
    "MetricSeries",
    "RecentPastPredictor",
    "RequestTrace",
    "RoundRobinScheduler",
    "RunningAverage",
    "SamplingCostModel",
    "SamplingMode",
    "SamplingPolicy",
    "ServerSimulator",
    "SignatureBank",
    "SimConfig",
    "SimResult",
    "TransitionSignalTrainer",
    "VaEwma",
    "WOODCREST",
    "available_workloads",
    "captured_variation",
    "detect_by_centroid_distance",
    "detect_multi_metric_pairs",
    "dtw_distance",
    "identify_stages",
    "inter_request_variation",
    "k_medoids",
    "l1_distance",
    "levenshtein_distance",
    "load_traces",
    "make_workload",
    "project_population",
    "project_trace",
    "run_workload",
    "save_traces",
]
