"""The package's public API surface: everything advertised must work."""

import importlib

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_documented_quickstart_runs(self):
        """The module docstring's quickstart snippet must stay true."""
        result = repro.run_workload(
            "tpcc",
            num_requests=5,
            sampling=repro.SamplingPolicy.interrupt(100.0),
        )
        for trace in result.traces[:3]:
            assert trace.spec.kind
            assert trace.overall_cpi() > 0

    @pytest.mark.parametrize(
        "module",
        [
            "repro.hardware",
            "repro.kernel",
            "repro.workloads",
            "repro.faults",
            "repro.core",
            "repro.obs",
            "repro.analysis",
            "repro.experiments",
            "repro.sweep",
            "repro.cli",
            "repro.documents",
        ],
    )
    def test_subpackages_import(self, module):
        importlib.import_module(module)

    def test_subpackage_alls_resolve(self):
        for name in (
            "repro.hardware",
            "repro.kernel",
            "repro.workloads",
            "repro.faults",
            "repro.core",
            "repro.obs",
            "repro.sweep",
        ):
            module = importlib.import_module(name)
            for symbol in getattr(module, "__all__", []):
                assert hasattr(module, symbol), (name, symbol)

    def test_engine_exports(self):
        """Both simulators are exported; no engine switch is."""
        kernel = importlib.import_module("repro.kernel")
        kernels = importlib.import_module("repro.core.kernels")
        assert {"FastpathSimulator", "ReferenceSimulator"} <= set(kernel.__all__)
        for name in ("FASTPATH_ENV", "fastpath_enabled"):
            assert name not in kernel.__all__
            assert not hasattr(kernel, name)
        for name in ("KERNELS_ENV", "kernels_enabled"):
            assert name not in kernels.__all__
            assert not hasattr(kernels, name)

    def test_document_error_is_every_decoders_error(self):
        from repro.online.checkpoint import CheckpointError
        from repro.serve.protocol import PeerClosedError, ProtocolError

        assert "DocumentError" in repro.__all__
        assert issubclass(repro.DocumentError, ValueError)
        for error in (CheckpointError, ProtocolError, PeerClosedError):
            assert issubclass(error, repro.DocumentError), error
        assert issubclass(PeerClosedError, ConnectionError)

    def test_every_public_callable_has_docstring(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj):
                assert obj.__doc__, f"{name} lacks a docstring"
