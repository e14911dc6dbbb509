"""Benchmark: pruned + batched DTW kernels on a fig7-shaped NN workload.

A fig7-style nearest-neighbor classification workload — 40 query CPI
variation patterns, each matched against a bank of 120 training patterns
under DTW with asynchrony penalty — computed three ways:

* naive scan: one interpreter-dispatched `dtw_distance` per (query, bank
  row) pair, argmin over the full distance vector (the pre-kernel
  baseline);
* `argmin_distance`: candidates ordered by admissible lower bound,
  batched block DPs with the best-so-far threaded through as the exact
  early-abandon cutoff;
* `dtw_one_to_many`: the full batched DP without pruning (measures the
  vectorization win alone).

Every path must return identical argmin indices and bit-identical best
distances.

A second, classify-shaped case builds the all-pairs matrix of 50 series
of 8-120 windows plus one 500-window series through `DistanceEngine`
(the pair planner and block body) and through the serial double loop.
The matrices must be byte-identical, and the plan may compute at most
2x the real DP cells — a count that does not depend on the hardware.

The >= 3x speedup assertions are hardware-gated (need >= 2 usable CPUs
to rule out pathologically throttled machines); otherwise the measured
ratio is reported and the assertion skips.  Run directly for a readable
report:

    PYTHONPATH=src python benchmarks/bench_dtw_kernels.py
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.distengine import DistanceEngine
from repro.core.dtw import dtw_distance
from repro.core.kernels import (
    PenaltyDtw,
    argmin_distance,
    dtw_one_to_many,
    plan_pair_blocks,
)

BANK_SIZE = 120
N_QUERIES = 40
PENALTY = 0.4
MIN_SPEEDUP = 3.0
#: Classify-shaped matrix: short series plus one long outlier.
N_SHORT = 50
LONG_WINDOWS = 500
MAX_PADDED_RATIO = 2.0


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fig7_style_series(n: int, seed: int):
    """Synthetic CPI variation patterns: length-varying noisy random walks
    around a few per-kind baselines, like fig7's per-request series."""
    rng = np.random.default_rng(seed)
    baselines = (1.6, 2.4, 3.1)
    series = []
    for i in range(n):
        length = int(rng.integers(40, 90))
        base = baselines[i % len(baselines)]
        walk = np.cumsum(rng.normal(0.0, 0.08, size=length))
        series.append(base + walk + rng.normal(0.0, 0.15, size=length))
    return series


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def naive_nn(queries, bank_rows):
    results = []
    for query in queries:
        distances = np.array(
            [
                dtw_distance(query, row, asynchrony_penalty=PENALTY)
                for row in bank_rows
            ]
        )
        index = int(np.argmin(distances))
        results.append((index, float(distances[index])))
    return results


def pruned_nn(queries, bank):
    return [argmin_distance(q, bank, PENALTY) for q in queries]


def batched_nn(queries, bank):
    results = []
    for query in queries:
        distances = dtw_one_to_many(query, bank, PENALTY)
        index = int(np.argmin(distances))
        results.append((index, float(distances[index])))
    return results


def run_benchmark():
    bank_rows = fig7_style_series(BANK_SIZE, seed=7)
    queries = fig7_style_series(N_QUERIES, seed=8)
    bank = PenaltyDtw(PENALTY).bank(bank_rows)

    naive, t_naive = timed(lambda: naive_nn(queries, bank_rows))
    pruned, t_pruned = timed(lambda: pruned_nn(queries, bank))
    batched, t_batched = timed(lambda: batched_nn(queries, bank))

    return {
        "naive": naive,
        "pruned": pruned,
        "batched": batched,
        "t_naive": t_naive,
        "t_pruned": t_pruned,
        "t_batched": t_batched,
        "n_pairs": BANK_SIZE * N_QUERIES,
    }


def classify_shaped_series(seed: int = 9):
    """50 series of 8-120 windows and one of 500, the long one placed
    mid-list so it is both the first and the second operand of pairs."""
    rng = np.random.default_rng(seed)
    lengths = [int(v) for v in rng.integers(8, 121, size=N_SHORT)]
    lengths.insert(N_SHORT // 2, LONG_WINDOWS)
    return [
        1.8 + np.cumsum(rng.normal(0.0, 0.08, size=n)) + rng.normal(0.0, 0.15, size=n)
        for n in lengths
    ]


def planned_cells(items):
    """(planned, real) DP cells of the engine's symmetric matrix plan."""
    lengths = np.array([len(x) for x in items])
    first, second = np.triu_indices(len(items), 1)
    m, n = lengths[first], lengths[second]
    planned = sum(int((m[b] * n[b].max()).sum()) for b in plan_pair_blocks(m, n))
    return planned, int((m * n).sum())


def serial_matrix(items):
    matrix = np.zeros((len(items), len(items)))
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            matrix[i, j] = matrix[j, i] = dtw_distance(
                items[i], items[j], asynchrony_penalty=PENALTY
            )
    return matrix


def run_matrix_benchmark():
    items = classify_shaped_series()
    engine, t_engine = timed(
        lambda: DistanceEngine(jobs=1).matrix(items, PenaltyDtw(PENALTY))
    )
    serial, t_serial = timed(lambda: serial_matrix(items))
    planned, real = planned_cells(items)
    return {
        "identical": engine.tobytes() == serial.tobytes(),
        "t_engine": t_engine,
        "t_serial": t_serial,
        "planned_cells": planned,
        "real_cells": real,
        "n_pairs": len(items) * (len(items) - 1) // 2,
    }


def require_cpus(speedup: float) -> None:
    if usable_cpus() < 2:
        pytest.skip(
            f"only {usable_cpus()} usable CPU(s); measured speedup "
            f"{speedup:.2f}x (assertion needs >= 2 CPUs)"
        )


@pytest.fixture(scope="module")
def report():
    return run_benchmark()


@pytest.fixture(scope="module")
def matrix_report():
    return run_matrix_benchmark()


class TestDtwKernelBench:
    def test_pruned_identical_argmins_and_distances(self, report):
        assert report["pruned"] == report["naive"]

    def test_batched_identical_argmins_and_distances(self, report):
        assert report["batched"] == report["naive"]

    def test_pruned_speedup(self, report):
        speedup = report["t_naive"] / report["t_pruned"]
        require_cpus(speedup)
        assert speedup >= MIN_SPEEDUP, (
            f"pruned NN speedup {speedup:.2f}x below {MIN_SPEEDUP:.0f}x"
        )


class TestClassifyShapedMatrix:
    def test_engine_matrix_identical_to_serial_loop(self, matrix_report):
        assert matrix_report["identical"]

    def test_planned_padding_at_most_twice_real_cells(self, matrix_report):
        ratio = matrix_report["planned_cells"] / matrix_report["real_cells"]
        assert ratio <= MAX_PADDED_RATIO, f"plan pads {ratio:.2f}x the real cells"

    def test_matrix_speedup(self, matrix_report):
        speedup = matrix_report["t_serial"] / matrix_report["t_engine"]
        require_cpus(speedup)
        assert speedup >= MIN_SPEEDUP, (
            f"engine matrix speedup {speedup:.2f}x below {MIN_SPEEDUP:.0f}x"
        )


def main() -> None:
    r = run_benchmark()
    identical = r["pruned"] == r["naive"] and r["batched"] == r["naive"]
    print(
        f"fig7-shaped NN workload: {N_QUERIES} queries x {BANK_SIZE} bank "
        f"rows = {r['n_pairs']} pairs, p={PENALTY} "
        f"({usable_cpus()} usable CPU(s))"
    )
    print(f"  naive per-pair scan    {r['t_naive']:8.2f} s")
    print(
        f"  pruned argmin          {r['t_pruned']:8.2f} s "
        f"({r['t_naive'] / r['t_pruned']:.2f}x vs naive)"
    )
    print(
        f"  batched full DP        {r['t_batched']:8.2f} s "
        f"({r['t_naive'] / r['t_batched']:.2f}x vs naive)"
    )
    print(f"  argmins + distances identical: {identical}")
    r = run_matrix_benchmark()
    print(
        f"classify-shaped matrix: {N_SHORT} series of 8-120 windows + one of "
        f"{LONG_WINDOWS} = {r['n_pairs']} pairs, p={PENALTY}"
    )
    print(f"  serial double loop     {r['t_serial']:8.2f} s")
    print(
        f"  engine (planned blocks){r['t_engine']:8.2f} s "
        f"({r['t_serial'] / r['t_engine']:.2f}x vs serial)"
    )
    print(
        f"  planned DP cells       {r['planned_cells']:>10,} "
        f"({r['planned_cells'] / r['real_cells']:.2f}x the {r['real_cells']:,} real)"
    )
    print(f"  matrix identical: {r['identical']}")


if __name__ == "__main__":
    main()
