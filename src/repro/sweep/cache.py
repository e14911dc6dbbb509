"""Cross-sweep scenario-result cache.

Same content-keyed, atomically-persisted discipline as the distance
engine's :class:`~repro.core.distengine.DistanceCache` (both specialize
:class:`~repro.core.distengine.ContentCache`), but the value is a whole
scenario result document and the key is the scenario's content hash over
*all* of its fields.  Two sweeps sharing scenarios — a widened grid, a
re-run with extra seeds — therefore skip the overlap entirely, and
because the cached document is the exact bytes-for-bytes payload
``run_scenario`` produced, cache hits preserve the sweep's byte-identity
contract.
"""

from __future__ import annotations

import os

from repro.core.distengine import ContentCache
from repro.sweep.scenario import validate_result_document

__all__ = ["ScenarioCache", "default_scenario_cache_path"]


def default_scenario_cache_path(
    directory: str = os.path.join("results", ".cache"),
) -> str:
    """The conventional on-disk location for a persistent scenario cache."""
    return os.path.join(directory, "scenarios.json")


class ScenarioCache(ContentCache):
    """scenario content key -> canonical scenario result document."""

    FORMAT = "repro-scenario-cache"

    @staticmethod
    def _decode(value):
        # Foreign documents in the entries dict mean the file is not a
        # scenario cache; treat as corrupt (ContentCache.load starts empty).
        return validate_result_document(value)

    @staticmethod
    def _encode(value):
        return validate_result_document(value)
