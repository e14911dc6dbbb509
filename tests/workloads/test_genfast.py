"""Tests for the generation fast path (:mod:`repro.workloads.genfast`).

The contract mirrors the simulator fast path's: the fast generators must
be *draw-for-draw* indistinguishable from the reference ones — identical
spec values (every phase field, every behavior float, exact ints) and an
identical RNG state afterward, so any downstream consumer sees the same
bitstream no matter which generator produced the specs.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.hardware.cpu import PhaseBehavior
from repro.kernel.simulator import ServerSimulator, SimConfig
from repro.workloads.genfast import FAST_FACTORIES, FastTpccWorkload, PhaseBlock
from repro.workloads.registry import (
    SERVER_APPS,
    FixedKindWorkload,
    make_faulted_workload,
    make_workload,
)
from repro.workloads.tpcc import transaction_phase_defs
from repro.workloads.webserver import WebServerWorkload
from tests.oracles import (
    REFERENCE_FACTORIES,
    make_reference_faulted_workload,
    reference_engines,
)


def spec_fingerprint(spec):
    """Every observable field of a spec, floats exact, order preserved."""
    stages = tuple(
        (
            stage.tier,
            stage.instructions,
            tuple(stage.cumulative_instructions),
            tuple(
                (
                    p.name,
                    p.instructions,
                    p.behavior.base_cpi,
                    p.behavior.l2_refs_per_ins,
                    p.behavior.l2_miss_ratio,
                    p.behavior.cache_footprint,
                    p.entry_syscall,
                    p.syscall_rate_per_ins,
                    p.syscall_pool,
                )
                for p in stage.phases
            ),
        )
        for stage in spec.stages
    )
    return (
        spec.request_id,
        spec.app,
        spec.kind,
        spec.total_instructions,
        tuple(sorted(spec.metadata.items())),
        stages,
    )


def draw_with_state(workload, n, seed):
    rng = np.random.default_rng(seed)
    specs = [workload.sample_request(rng, i) for i in range(n)]
    return [spec_fingerprint(s) for s in specs], rng.bit_generator.state


class TestSpecEquality:
    """Fast generators replay the reference draw sequence exactly."""

    @pytest.mark.parametrize("app", SERVER_APPS)
    @pytest.mark.parametrize("seed", (0, 7, 123))
    def test_specs_and_rng_state_match_reference(self, app, seed):
        fast, fast_state = draw_with_state(FAST_FACTORIES[app](), 25, seed)
        ref, ref_state = draw_with_state(REFERENCE_FACTORIES[app](), 25, seed)
        assert fast == ref
        # Same state afterward: the fast path consumed exactly the same
        # draws in the same order, not merely equivalent values.
        assert fast_state == ref_state

    def test_webserver_respects_catalog_seed(self):
        fast, _ = draw_with_state(FAST_FACTORIES["webserver"](catalog_seed=42), 10, 3)
        ref, _ = draw_with_state(WebServerWorkload(catalog_seed=42), 10, 3)
        assert fast == ref


class TestBlockAhead:
    """``prepare_block`` + pops must equal direct synthesis."""

    @pytest.mark.parametrize("app", SERVER_APPS)
    def test_block_matches_direct_synthesis(self, app):
        direct, direct_state = draw_with_state(FAST_FACTORIES[app](), 12, 5)

        blocked_workload = FAST_FACTORIES[app]()
        rng = np.random.default_rng(5)
        blocked_workload.prepare_block(rng, 0, 12)
        blocked = [
            spec_fingerprint(blocked_workload.sample_request(rng, i))
            for i in range(12)
        ]
        assert blocked == direct
        assert rng.bit_generator.state == direct_state

    def test_block_drain_falls_back_to_direct(self):
        """A short block drains, then synthesis continues seamlessly."""
        direct, direct_state = draw_with_state(FastTpccWorkload(), 10, 9)

        workload = FastTpccWorkload()
        rng = np.random.default_rng(9)
        workload.prepare_block(rng, 0, 6)
        specs = [
            spec_fingerprint(workload.sample_request(rng, i)) for i in range(10)
        ]
        assert specs == direct
        assert rng.bit_generator.state == direct_state

    def test_stale_block_cleared_on_id_mismatch(self):
        workload = FastTpccWorkload()
        rng = np.random.default_rng(2)
        workload.prepare_block(rng, 0, 4)
        spec = workload.sample_request(rng, 2)  # out of order: stale block
        assert spec.request_id == 2
        assert not workload._block


class TestStampedBehaviors:
    def test_stamped_behavior_equals_reference_dataclass(self):
        """Stamping skips dataclass validation, not dataclass semantics."""
        phases = PhaseBlock(transaction_phase_defs("payment")).stamp(
            np.random.default_rng(1)
        )
        for phase in phases:
            behavior = phase.behavior
            assert type(behavior) is PhaseBehavior
            assert behavior == PhaseBehavior(
                base_cpi=behavior.base_cpi,
                l2_refs_per_ins=behavior.l2_refs_per_ins,
                l2_miss_ratio=behavior.l2_miss_ratio,
                cache_footprint=behavior.cache_footprint,
            )

    def test_dropped_run_releases_its_behaviors(self):
        """Nothing process-wide pins a finished run's behaviors."""
        workload = make_workload("tpcc")
        result = ServerSimulator(workload, SimConfig(num_requests=10, seed=3)).run()
        behavior = weakref.ref(result.traces[0].spec.stages[0].phases[0].behavior)
        del result, workload
        gc.collect()
        assert behavior() is None


class TestTemplateCache:
    def test_templates_shared_across_instances(self):
        """Compiled templates are cached per key, not per workload."""
        a, b = FastTpccWorkload(), FastTpccWorkload()
        for kind in ("payment", "order_status", "delivery", "stock_level"):
            assert a._fixed[kind] is b._fixed[kind]
        assert a._new_order_head is b._new_order_head


class TestWrapperIntegration:
    """Registry wrappers compose with the fast generators unchanged."""

    @pytest.mark.parametrize(
        "app,kind",
        (("tpcc", "payment"), ("webserver", "class1")),
        ids=("builder-dispatch", "rejection-sampling"),
    )
    def test_fixed_kind_matches_reference(self, app, kind):
        fast = FixedKindWorkload(app, kind)
        with reference_engines():
            ref = FixedKindWorkload(app, kind)
        assert type(ref._inner) is REFERENCE_FACTORIES[app]
        assert draw_with_state(fast, 8, 4) == draw_with_state(ref, 8, 4)

    def test_faulted_workload_matches_reference(self):
        fast = draw_with_state(
            make_faulted_workload("tpcc", "lock_stall:0.4"), 15, 8
        )
        ref = draw_with_state(
            make_reference_faulted_workload("tpcc", "lock_stall:0.4"), 15, 8
        )
        assert fast == ref
        # The fault rate must actually fire in 15 draws at p=0.4 for the
        # comparison to exercise injected stages.
        fingerprints, _ = fast
        assert any(
            ("injected_fault", "lock_stall") in fp[4] for fp in fingerprints
        )


class TestRegistryRouting:
    @pytest.mark.parametrize("app", SERVER_APPS)
    def test_default_routes_to_fast_factory(self, app):
        assert type(make_workload(app)) is FAST_FACTORIES[app]

    def test_microbenchmarks_never_rerouted(self):
        assert "mbench_spin" not in FAST_FACTORIES
        assert make_workload("mbench_spin").name == "mbench_spin"
