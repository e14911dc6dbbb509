"""Tests for the parallel + cached pairwise-distance engine.

The engine's contract is strict: whatever the jobs/cache configuration,
the returned matrices are bit-identical to the plain serial double loop.
"""

import json
import os

import numpy as np
import pytest

from repro.core.distances import l1_distance
from repro.core.distengine import (
    MIN_PARALLEL_PAIRS,
    DistanceCache,
    DistanceEngine,
    default_cache_path,
    sequence_key,
)
from repro.core.dtw import dtw_distance


def serial_reference(items, distance, symmetric=True):
    """The pre-engine double loop, kept verbatim as the oracle."""
    n = len(items)
    matrix = np.zeros((n, n))
    for i in range(n):
        start = i + 1 if symmetric else 0
        for j in range(start, n):
            if i == j:
                continue
            d = float(distance(items[i], items[j]))
            matrix[i, j] = d
            if symmetric:
                matrix[j, i] = d
    return matrix


def make_series(n, rng, min_len=20, max_len=60):
    return [
        rng.normal(2.0, 0.5, size=rng.integers(min_len, max_len))
        for _ in range(n)
    ]


class TestBitIdentity:
    def test_serial_engine_matches_reference(self):
        rng = np.random.default_rng(0)
        items = make_series(12, rng)
        fn = lambda a, b: dtw_distance(a, b, asynchrony_penalty=0.3)
        engine = DistanceEngine(jobs=1)
        assert np.array_equal(engine.matrix(items, fn), serial_reference(items, fn))

    def test_parallel_engine_matches_reference(self):
        rng = np.random.default_rng(1)
        # Enough pairs to clear MIN_PARALLEL_PAIRS and actually fork.
        items = make_series(16, rng)
        assert 16 * 15 // 2 >= MIN_PARALLEL_PAIRS
        fn = lambda a, b: dtw_distance(a, b, asynchrony_penalty=0.3)
        engine = DistanceEngine(jobs=4, chunk_pairs=7)
        assert np.array_equal(engine.matrix(items, fn), serial_reference(items, fn))

    def test_parallel_non_symmetric_matches_reference(self):
        rng = np.random.default_rng(2)
        items = make_series(14, rng)
        # Deliberately order-sensitive: d(a, b) != d(b, a).
        fn = lambda a, b: float(a.sum() - 0.5 * b.sum())
        engine = DistanceEngine(jobs=3, chunk_pairs=5)
        assert np.array_equal(
            engine.matrix(items, fn, symmetric=False),
            serial_reference(items, fn, symmetric=False),
        )

    def test_cached_engine_matches_reference(self, tmp_path):
        rng = np.random.default_rng(3)
        items = make_series(10, rng)
        fn = lambda a, b: l1_distance(a, b, penalty=0.7)
        cache = DistanceCache(path=str(tmp_path / "d.json"))
        engine = DistanceEngine(jobs=1, cache=cache)
        expected = serial_reference(items, fn)
        assert np.array_equal(
            engine.matrix(items, fn, distance_key="l1:p=0.7"), expected
        )
        # Second pass is served from the cache, still bit-identical.
        assert np.array_equal(
            engine.matrix(items, fn, distance_key="l1:p=0.7"), expected
        )

    def test_empty_and_singleton(self):
        engine = DistanceEngine(jobs=2)
        fn = lambda a, b: abs(a - b)
        assert engine.matrix([], fn).shape == (0, 0)
        assert np.array_equal(engine.matrix([1.0], fn), np.zeros((1, 1)))


class TestCaching:
    def test_second_call_computes_nothing(self):
        rng = np.random.default_rng(4)
        items = make_series(8, rng)
        calls = []

        def fn(a, b):
            calls.append(1)
            return l1_distance(a, b, penalty=0.2)

        engine = DistanceEngine(jobs=1, cache=DistanceCache())
        engine.matrix(items, fn, distance_key="l1:p=0.2")
        first = len(calls)
        assert first == 8 * 7 // 2
        engine.matrix(items, fn, distance_key="l1:p=0.2")
        assert len(calls) == first

    def test_no_distance_key_disables_caching(self):
        items = [np.array([1.0]), np.array([2.0])]
        calls = []

        def fn(a, b):
            calls.append(1)
            return float(abs(a[0] - b[0]))

        engine = DistanceEngine(jobs=1, cache=DistanceCache())
        engine.matrix(items, fn)
        engine.matrix(items, fn)
        assert len(calls) == 2

    def test_symmetric_cache_is_unordered(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0])
        cache = DistanceCache()
        engine = DistanceEngine(jobs=1, cache=cache)
        fn = lambda x, y: l1_distance(x, y, penalty=1.0)
        d_ab = engine.matrix([a, b], fn, distance_key="k")[0, 1]
        d_ba = engine.matrix([b, a], fn, distance_key="k")[0, 1]
        assert d_ab == d_ba
        assert len(cache) == 1

    def test_non_symmetric_cache_is_ordered(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0])
        cache = DistanceCache()
        engine = DistanceEngine(jobs=1, cache=cache)
        fn = lambda x, y: float(x.sum() - y.sum())
        matrix = engine.matrix([a, b], fn, symmetric=False, distance_key="k")
        assert matrix[0, 1] == -matrix[1, 0]
        assert len(cache) == 2

    def test_distinct_keys_do_not_collide(self):
        items = [np.array([0.0, 4.0]), np.array([1.0])]
        cache = DistanceCache()
        engine = DistanceEngine(jobs=1, cache=cache)
        d1 = engine.matrix(
            items, lambda a, b: l1_distance(a, b, penalty=0.0), distance_key="l1:p=0"
        )[0, 1]
        d2 = engine.matrix(
            items, lambda a, b: l1_distance(a, b, penalty=9.0), distance_key="l1:p=9"
        )[0, 1]
        assert d1 != d2

    def test_disk_roundtrip_serves_every_pair(self, tmp_path):
        rng = np.random.default_rng(5)
        items = make_series(9, rng)
        path = str(tmp_path / "cache" / "distances.json")
        fn = lambda a, b: dtw_distance(a, b, asynchrony_penalty=0.1)
        warm = DistanceEngine(jobs=1, cache=DistanceCache(path=path))
        expected = warm.matrix(items, fn, distance_key="dtw:p=0.1")
        assert os.path.exists(path)

        def poisoned(a, b):
            raise AssertionError("cache miss: distance recomputed")

        cold = DistanceEngine(jobs=1, cache=DistanceCache(path=path))
        assert np.array_equal(
            cold.matrix(items, poisoned, distance_key="dtw:p=0.1"), expected
        )

    def test_corrupt_cache_file_starts_empty(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        cache = DistanceCache(path=str(path))
        assert len(cache) == 0

    def test_cache_file_is_a_versioned_document(self, tmp_path):
        path = tmp_path / "d.json"
        cache = DistanceCache(path=str(path))
        cache.put("k|a|b", 1.5)
        cache.save()
        document = json.loads(path.read_text())
        assert document == {
            "format": "repro-distance-cache",
            "version": 1,
            "entries": {"k|a|b": 1.5},
        }
        assert DistanceCache(path=str(path)).get("k|a|b") == 1.5

    @pytest.mark.parametrize(
        "document",
        [
            {"format": "repro-distance-cache", "version": 99,
             "entries": {"k|a|b": 1.5}},
            {"format": "repro-scenario-cache", "version": 1,
             "entries": {"k|a|b": 1.5}},
            {"version": 1, "entries": {"k|a|b": 1.5}},
            [],
        ],
        ids=["future-version", "foreign-format", "no-format", "non-object"],
    )
    def test_foreign_future_or_non_object_file_starts_empty(
        self, tmp_path, document
    ):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(document))
        assert len(DistanceCache(path=str(path))) == 0

    def test_default_cache_path_layout(self):
        assert default_cache_path().endswith(
            os.path.join("results", ".cache", "distances.json")
        )


class TestPairAPIs:
    def test_pair_distances_explicit_list(self):
        items = [np.array([float(i)]) for i in range(5)]
        pairs = [(0, 4), (1, 3), (2, 2)]
        engine = DistanceEngine(jobs=1)
        fn = lambda a, b: float(abs(a[0] - b[0]))
        assert np.array_equal(
            engine.pair_distances(items, pairs, fn), np.array([4.0, 2.0, 0.0])
        )

    def test_one_to_many_matches_loop(self):
        rng = np.random.default_rng(6)
        probe = rng.normal(size=10)
        others = make_series(7, rng, min_len=5, max_len=15)
        fn = lambda a, b: l1_distance(a, b, penalty=0.4)
        engine = DistanceEngine(jobs=1)
        expected = np.array([float(fn(probe, o)) for o in others])
        assert np.array_equal(engine.one_to_many(probe, others, fn), expected)


class TestSequenceKey:
    def test_content_determines_key(self):
        a = np.array([1.0, 2.0, 3.0])
        assert sequence_key(a) == sequence_key(a.copy())
        assert sequence_key(a) != sequence_key(np.array([1.0, 2.0, 3.5]))

    def test_dtype_and_shape_matter(self):
        assert sequence_key(np.array([1, 2])) != sequence_key(np.array([1.0, 2.0]))
        flat = np.arange(4.0)
        assert sequence_key(flat) != sequence_key(flat.reshape(2, 2))

    def test_token_sequences(self):
        assert sequence_key(["read", "write"]) == sequence_key(("read", "write"))
        assert sequence_key(["read", "write"]) != sequence_key(["write", "read"])

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            sequence_key(object())


class TestValidation:
    def test_bad_jobs(self):
        with pytest.raises(ValueError):
            DistanceEngine(jobs=0)

    def test_bad_chunk(self):
        with pytest.raises(ValueError):
            DistanceEngine(chunk_pairs=0)
