"""Reference engines, built explicitly as byte oracles.

Each layer ships exactly one engine: ``ServerSimulator(...)`` returns
:class:`~repro.kernel.fastpath.FastpathSimulator`, ``make_workload``
returns the batched generators of :mod:`repro.workloads.genfast`, and
:class:`~repro.core.distengine.DistanceEngine` routes
:class:`~repro.core.kernels.PenaltyDtw` matrices through the batched
kernels.  The references those engines replaced stay in ``src/`` and
nothing selects them at run time; tests build them from here and demand
byte-identical output.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.core.distengine import DistanceEngine
from repro.faults.schedule import ScheduledFaultWorkload, parse_fault_schedule
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
