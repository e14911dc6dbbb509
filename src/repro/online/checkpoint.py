"""Versioned checkpoint/restore for the streaming pipeline.

A checkpoint is a canonical JSON document (sorted keys, no whitespace)
holding the *entire* decision-relevant state of an
:class:`~repro.online.pipeline.OnlinePipeline`: identifier bank, group
centroids, P-square quantile markers, per-request open state (windower
fill, vaEWMA estimate, commit streaks), completed records, and the event
cursor ``last_seq``.

The restore contract is byte-identity, not approximation: Python floats
survive a JSON round trip exactly (``repr``-based encoding), so a pipeline
restored mid-stream and fed the remaining events produces decisions — and
a final report — byte-identical to an uninterrupted run.  The event
cursor makes restore idempotent: replaying the full stream after a restore
skips everything already folded in.

Format changes must bump ``CHECKPOINT_VERSION``; loading a foreign or
future document fails loudly.
"""

from __future__ import annotations

from repro.documents import DocumentError, atomic_write, canonical_json, read_document
from repro.online.pipeline import OnlinePipeline

CHECKPOINT_FORMAT = "repro-online-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(DocumentError):
    """A checkpoint document could not be read.

    Raised — instead of a raw :class:`KeyError` / :class:`json.
    JSONDecodeError` surfacing from the payload internals — for truncated
    files, malformed JSON, foreign documents, unsupported versions, and
    structurally corrupt state payloads.  A :class:`~repro.documents.
    DocumentError`, hence a :class:`ValueError` for broad callers.
    """


def checkpoint_to_json(pipeline: OnlinePipeline) -> str:
    """Serialize a pipeline's full state as canonical checkpoint JSON."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "state": pipeline.to_state(),
    }
    return canonical_json(payload)


def checkpoint_from_json(
    text: str, registry=None, where: str = "checkpoint"
) -> OnlinePipeline:
    """Rebuild a pipeline from checkpoint JSON (loud on bad input)."""

    def decode(payload: dict) -> OnlinePipeline:
        state = payload.get("state")
        if not isinstance(state, dict):
            raise CheckpointError(f"{where}: checkpoint has no state object")
        return OnlinePipeline.from_state(state, registry=registry)

    return read_document(
        text, CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
        where=where, decode=decode, error=CheckpointError,
    )


def save_checkpoint(pipeline: OnlinePipeline, path: str) -> None:
    """Atomically replace ``path`` with the pipeline's checkpoint."""
    atomic_write(path, checkpoint_to_json(pipeline) + "\n")


def load_checkpoint(path: str, registry=None) -> OnlinePipeline:
    with open(path, "rb") as fh:
        return checkpoint_from_json(fh.read(), registry=registry, where=path)
