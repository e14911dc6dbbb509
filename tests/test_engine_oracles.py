"""Whole-program oracle: rendered experiments under both engine sets.

Renders the same experiments at the same scales twice — once through the
shipped engines (fast simulator, batched generators, batched DTW
kernels) and once with every layer on its reference engine (see
:func:`tests.oracles.reference_engines`) — and byte-compares the
rendered reports with only the wall-clock timing lines stripped.

Slow: run with ``--runslow``.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core.distengine import DistanceEngine
from repro.core.kernels import PenaltyDtw
from repro.experiments import runner
from repro.kernel.fastpath import FastpathSimulator, ReferenceSimulator
from repro.kernel.simulator import ServerSimulator, SimConfig
from repro.workloads.genfast import FastTpccWorkload
from repro.workloads.registry import make_workload
from repro.workloads.tpcc import TpccWorkload
from tests.oracles import reference_engines

#: The runner appends one ``[<seconds>s]`` line per experiment.
_TIMING_LINE = re.compile(r"^\[[0-9.]+s\]\n", re.MULTILINE)

CASES = {
    "fig7-fig8": ("fig7", "fig8", "--scale", "0.35"),
    "fig1-fig2": ("fig1", "fig2", "--scale", "0.35"),
    "loadsweep": ("loadsweep", "--scale", "0.25", "--jobs", "1"),
}


def _render(argv, out, capsys):
    assert runner.main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    return _TIMING_LINE.sub("", out.read_text())


class _CountingDtw(PenaltyDtw):
    """Counts batched calls, so a test can see which path ran."""

    batched = 0

    def one_to_many(self, *args, **kwargs):
        type(self).batched += 1
        return super().one_to_many(*args, **kwargs)


def _engines():
    simulator = ServerSimulator(make_workload("mbench_spin"), SimConfig(num_requests=2))
    _CountingDtw.batched = 0
    rows = [np.arange(n, dtype=float) for n in (3, 4, 5)]
    matrix = DistanceEngine().matrix(rows, _CountingDtw(0.5))
    return type(simulator), type(make_workload("tpcc")), _CountingDtw.batched, matrix


def test_reference_engines_swaps_every_layer_and_restores():
    sim_cls, gen_cls, batched, shipped = _engines()
    assert (sim_cls, gen_cls) == (FastpathSimulator, FastTpccWorkload)
    assert batched > 0
    with reference_engines():
        sim_cls, gen_cls, batched, reference = _engines()
    assert (sim_cls, gen_cls, batched) == (ReferenceSimulator, TpccWorkload, 0)
    assert np.array_equal(shipped, reference)
    assert _engines()[:2] == (FastpathSimulator, FastTpccWorkload)


@pytest.mark.slow
@pytest.mark.parametrize("case", CASES)
def test_rendered_output_matches_reference_engines(case, tmp_path, capsys):
    argv = CASES[case]
    shipped = _render(argv, tmp_path / "shipped.md", capsys)
    with reference_engines():
        reference = _render(argv, tmp_path / "reference.md", capsys)
    assert shipped == reference
