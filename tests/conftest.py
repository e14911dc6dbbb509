"""Shared fixtures: small cached simulation runs reused across test modules."""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest

from repro.hardware.platform import serial_machine
from repro.kernel.sampling import SamplingPolicy
from repro.kernel.simulator import ServerSimulator, SimConfig
from repro.workloads.registry import make_workload


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run tests marked @pytest.mark.slow (excluded from tier-1)",
    )


def pytest_collection_modifyitems(config, items):
    """Skip slow-marked tests unless --runslow: tier-1 must stay fast."""
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow test: pass --runslow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


def run_small(app, num_requests=20, seed=5, cores=4, concurrency=None, **overrides):
    workload = make_workload(app)
    if cores == 1:
        machine = serial_machine()
        concurrency = concurrency or 1
    else:
        from repro.hardware.platform import WOODCREST

        machine = WOODCREST
        concurrency = concurrency or 8
    config = SimConfig(
        machine=machine,
        sampling=overrides.pop(
            "sampling", SamplingPolicy.interrupt(workload.sampling_period_us)
        ),
        num_requests=num_requests,
        concurrency=concurrency,
        seed=seed,
        **overrides,
    )
    return ServerSimulator(workload, config).run()


@pytest.fixture(scope="session")
def web_run():
    """A small concurrent web-server run shared by many tests."""
    return run_small("webserver", num_requests=40, seed=5)


@pytest.fixture(scope="session")
def tpcc_run():
    return run_small("tpcc", num_requests=40, seed=6)


@pytest.fixture(scope="session")
def tpch_run():
    return run_small("tpch", num_requests=10, seed=7)


@pytest.fixture(scope="session")
def web_serial_run():
    return run_small("webserver", num_requests=15, seed=8, cores=1)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def torn_writes(monkeypatch):
    """Make file writes through ``os.fdopen`` (the atomic-write temp
    file) die half-way with ENOSPC, as a full disk or a crash would."""
    real_fdopen = os.fdopen

    class TornFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.fh.close()
            return False

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def fdopen(fd, *args, **kwargs):
        return TornFile(real_fdopen(fd, *args, **kwargs))

    monkeypatch.setattr(os, "fdopen", fdopen)
