"""Reference engines, built explicitly as byte oracles.

Each layer ships exactly one engine: ``ServerSimulator(...)`` returns
:class:`~repro.kernel.fastpath.FastpathSimulator`, ``make_workload``
returns the batched generators of :mod:`repro.workloads.genfast`, and
:class:`~repro.core.distengine.DistanceEngine` routes
:class:`~repro.core.kernels.PenaltyDtw` matrices through the batched
kernels.  The references those engines replaced stay in ``src/`` and
nothing selects them at run time; tests build them from here and demand
byte-identical output.

:func:`reference_trace_arrays` is the per-request trace construction
that :class:`~repro.kernel.tracker.RequestTrace` and the tracker's
run-wide build replaced; it lives only here.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.distengine import DistanceEngine
from repro.faults.schedule import ScheduledFaultWorkload, parse_fault_schedule
from repro.hardware.counters import SamplingContext
from repro.kernel.fastpath import ReferenceSimulator
from repro.kernel.simulator import ServerSimulator
from repro.workloads import registry
from repro.workloads.rubis import RubisWorkload
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.tpch import TpchWorkload
from repro.workloads.webserver import WebServerWorkload
from repro.workloads.webwork import WeBWorKWorkload

#: The reference generators of the five server applications, keyed like
#: :data:`repro.workloads.genfast.FAST_FACTORIES`.
REFERENCE_FACTORIES = {
    "webserver": WebServerWorkload,
    "tpcc": TpccWorkload,
    "tpch": TpchWorkload,
    "rubis": RubisWorkload,
    "webwork": WeBWorKWorkload,
}


def make_reference_workload(name: str):
    """The reference generator for ``name``.

    Microbenchmarks have a single generator, so they come from the
    registry unchanged.
    """
    factory = REFERENCE_FACTORIES.get(name)
    return factory() if factory is not None else registry.make_workload(name)


def make_reference_faulted_workload(name: str, fault_spec: str):
    """:func:`~repro.workloads.registry.make_faulted_workload` over the
    reference generator."""
    return ScheduledFaultWorkload(
        inner=make_reference_workload(name),
        schedule=parse_fault_schedule(fault_spec),
    )


def _reference_new(cls, workload=None, config=None):
    return object.__new__(ReferenceSimulator if cls is ServerSimulator else cls)


@contextmanager
def reference_engines():
    """Run every layer on its reference engine inside the block.

    Plain ``ServerSimulator(...)`` constructions build the reference
    loop, ``make_workload`` builds the reference generators, and
    ``DistanceEngine`` evaluates :class:`PenaltyDtw` one pair at a time.
    For whole-program oracles (rendered experiments) that construct
    their engines deep inside library code.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ServerSimulator, "__new__", staticmethod(_reference_new))
        for name, factory in REFERENCE_FACTORIES.items():
            patch.setitem(registry._FACTORIES, name, factory)
        patch.setattr(
            DistanceEngine, "_compute_batched", lambda self, *args: None
        )
        yield


def reference_trace_arrays(periods, cost_model) -> dict:
    """One request's trace arrays, built from its rows on their own.

    ``periods`` are rows in :data:`~repro.kernel.tracker.PERIOD_FIELDS`
    order, in append order.  A stable argsort on start, nine ``np.array``
    calls and a compensation pass, exactly as each completion used to run
    them.
    """
    order = np.argsort([row[0] for row in periods], kind="stable")
    (start, end, core, cycles, instructions, l2_refs, l2_misses,
     inj_ik, inj_int) = zip(*[periods[i] for i in order])
    arrays = {
        "start": np.array(start),
        "end": np.array(end),
        "core": np.array(core, dtype=int),
        "raw_instructions": np.array(instructions),
        "raw_cycles": np.array(cycles),
        "raw_l2_refs": np.array(l2_refs),
        "raw_l2_misses": np.array(l2_misses),
    }
    n_ik = np.array(inj_ik, dtype=float)
    n_int = np.array(inj_int, dtype=float)
    if cost_model is None:
        for name in ("instructions", "cycles", "l2_refs", "l2_misses"):
            arrays[name] = arrays["raw_" + name].copy()
        return arrays
    ik = cost_model.minimum_cost(SamplingContext.IN_KERNEL)
    it = cost_model.minimum_cost(SamplingContext.INTERRUPT)
    arrays["instructions"] = np.maximum(
        1.0,
        arrays["raw_instructions"]
        - n_ik * ik.instructions
        - n_int * it.instructions,
    )
    arrays["cycles"] = np.maximum(
        1.0, arrays["raw_cycles"] - n_ik * ik.cycles - n_int * it.cycles
    )
    arrays["l2_refs"] = np.maximum(
        0.0, arrays["raw_l2_refs"] - n_ik * ik.l2_refs - n_int * it.l2_refs
    )
    arrays["l2_misses"] = np.maximum(
        0.0,
        arrays["raw_l2_misses"] - n_ik * ik.l2_misses - n_int * it.l2_misses,
    )
    return arrays
