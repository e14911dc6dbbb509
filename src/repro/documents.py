"""The one document substrate behind every on-disk and wire format.

Every format this package persists or streams is a JSON *document*: an
object whose ``format`` names it and whose integer ``version`` pins its
layout.  The decisions those formats share live here, once: canonical
serialization (:func:`canonical_json`), torn-write-free replacement
(:func:`atomic_write`), one error taxonomy (:class:`DocumentError`), and
the decoders (:func:`read_document`, :func:`read_jsonl`,
:func:`check_envelope`) that turn truncated, malformed, foreign, future
or wrong-shaped input into that error instead of a ``KeyError`` or
``TypeError`` from the payload internals.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Callable, List, Optional, Tuple, Type, Union

__all__ = [
    "DocumentError",
    "atomic_write",
    "canonical_json",
    "check_envelope",
    "read_document",
    "read_jsonl",
]


class DocumentError(ValueError):
    """A document could not be decoded (empty, truncated, malformed,
    foreign, unsupported version, or structurally corrupt).  A
    :class:`ValueError`, so broad callers keep working; format-specific
    errors (``CheckpointError``, ``ProtocolError``) subclass it."""


#: What payload decoders raise on wrong-shaped input; the decoders below
#: turn these into the caller's DocumentError.
_DECODE_ERRORS = (
    KeyError, TypeError, ValueError, AttributeError, IndexError, OverflowError,
)

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(payload) -> str:
    """The repo-wide canonical serialization (sorted keys, no whitespace,
    ``repr``-exact floats): equal payloads give identical bytes."""
    return _CANONICAL.encode(payload)


def atomic_write(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` via a temp file in the same directory
    and ``os.replace``: readers see the old file or the new one, never a
    torn write, and the temp file is removed on any error."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse(text, what: str, where: str, error: Type[DocumentError]):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # incl. UnicodeDecodeError
        message = f"{where}: malformed {what} (truncated or corrupt): {exc}"
        raise error(message) from None


def check_envelope(
    payload, format: str, version: int, *, where: str,
    error: Type[DocumentError] = DocumentError,
) -> dict:
    """Demand an object with this ``format`` and exactly this ``version``."""
    if not isinstance(payload, dict):
        kind = type(payload).__name__
        raise error(f"{where}: not a {format} document ({kind}, not an object)")
    found = payload.get("format")
    if found != format:
        raise error(f"{where}: not a {format} document (format {found!r})")
    found = payload.get("version")
    if type(found) is not int or found != version:
        raise error(
            f"{where}: unsupported {format} version {found!r} "
            f"(this build reads version {version})"
        )
    return payload


def _decoded(decode: Callable, payload: dict, context: str, error):
    try:
        return decode(payload)
    except error:
        raise
    except _DECODE_ERRORS as exc:
        raise error(f"{context}: {type(exc).__name__}: {exc}") from None


def read_document(
    text: Union[str, bytes], format: str, version: int, *, where: str,
    decode: Optional[Callable[[dict], Any]] = None,
    error: Type[DocumentError] = DocumentError,
):
    """Parse one JSON document (text, or raw file bytes), check its
    envelope, and return ``decode(document)`` — the document itself when
    ``decode`` is None.  Whatever ``decode`` raises on a wrong-shaped
    payload comes out as ``error`` naming ``where``, format and version."""
    if not text or text.isspace():
        raise error(f"{where}: empty {format} document (truncated write?)")
    payload = _parse(text, f"{format} document", where, error)
    check_envelope(payload, format, version, where=where, error=error)
    if decode is None:
        return payload
    context = f"{where}: corrupt {format} document (version {version})"
    return _decoded(decode, payload, context, error)


def read_jsonl(
    text: Union[str, bytes], format: str, version: int, *, where: str,
    decode: Callable[[dict], Any], count: Optional[str] = None,
    error: Type[DocumentError] = DocumentError,
) -> Tuple[dict, List[Any]]:
    """Parse a header-plus-records JSONL stream into ``(header, records)``.

    The first non-blank line is the versioned header; every later
    non-blank line is one object record passed through ``decode``.  Errors
    name the line's position in the file (blank lines are skipped, not
    renumbered).  With ``count``, the header's ``count`` field, when
    present, must equal the number of records.
    """
    numbered = [
        (number, line)
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if not numbered:
        raise error(f"{where}: empty {format} stream")
    number, line = numbered[0]
    header = _parse(line, f"{format} header", f"{where}: line {number}", error)
    check_envelope(header, format, version, where=where, error=error)
    records = []
    for number, line in numbered[1:]:
        at = f"{where}: line {number}"
        record = _parse(line, f"{format} record", at, error)
        if not isinstance(record, dict):
            raise error(f"{at}: {format} record is not an object")
        context = f"{at}: corrupt {format} record"
        records.append(_decoded(decode, record, context, error))
    declared = header.get(count) if count else None
    if declared is not None and declared != len(records):
        raise error(
            f"{where}: header declares {declared} {count}, stream has {len(records)}"
        )
    return header, records
