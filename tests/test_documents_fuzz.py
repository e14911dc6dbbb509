"""Hostile-input fuzzing of every document decoder.

For each persisted or wire format, a valid document is mutated — cut off
at any byte, one bit flipped, its version skewed, its format replaced,
its top level swapped for a non-object — and fed to the format's real
decoder.  The only acceptable outcomes are a clean decode or a
:class:`~repro.documents.DocumentError` (or subclass); a ``KeyError``,
``TypeError``, ``AttributeError`` or ``UnicodeDecodeError`` escaping a
decoder is a bug.  Content caches follow their own policy instead: any
damaged file loads as an empty cache.  Valid documents must round-trip
byte-identically through decode and re-encode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.distengine import DistanceCache
from repro.documents import DocumentError, canonical_json, read_document
from repro.kernel.sampling import SamplingPolicy
from repro.kernel.simulator import ServerSimulator, SimConfig
from repro.kernel.trace_io import load_traces, save_traces
from repro.obs.trace import TraceCollector, events_to_jsonl, load_events
from repro.online.checkpoint import load_checkpoint, save_checkpoint
from repro.online.pipeline import OnlinePipeline, train_identifier
from repro.serve.aggregator import load_worker_report
from repro.serve.protocol import check_version, decode_payload, encode_frame, hello
from repro.serve.service import save_worker_reports
from repro.serve.worker import load_bank, save_bank
from repro.sweep.executor import SweepOptions, run_sweep
from repro.sweep.manifest import SweepManifest
from repro.sweep.scenario import (
    RESULT_FORMAT,
    RESULT_VERSION,
    result_to_json,
    validate_result_document,
)
from repro.sweep.spec import SweepSpec
from repro.traffic.arrivals import load_schedule, save_schedule
from repro.workloads.registry import make_workload

FUZZ = settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

class _Missing:
    """Sentinel for "drop this field"; its repr keeps test ids stable."""

    def __repr__(self):
        return "MISSING"


MISSING = _Missing()


@dataclass
class Format:
    """One format under test: its valid bytes and its real decoder."""

    valid: bytes
    #: bytes -> decoded value (raises DocumentError on bad input)
    decode: Callable[[bytes], object]
    #: decoded value -> bytes the format's writer produces for it
    encode: Callable[[object], bytes]
    #: JSONL streams carry their envelope on the first line only.
    jsonl: bool = False


def _file_codec(path, load, save):
    """Decode/encode through the format's file loader and writer."""

    def decode(data: bytes):
        path.write_bytes(data)
        return load(str(path))

    def encode(value) -> bytes:
        save(value, str(path))
        return path.read_bytes()

    return decode, encode


@pytest.fixture(scope="module")
def formats(tmp_path_factory) -> Dict[str, Format]:
    work = tmp_path_factory.mktemp("fuzz")
    identifier = train_identifier(make_workload("tpcc"), num_requests=8, seed=3)
    collector = TraceCollector()
    pipeline = OnlinePipeline(identifier=identifier)
    collector.subscribe(pipeline.process_event)
    run = ServerSimulator(
        make_workload("tpcc"),
        SimConfig(
            sampling=SamplingPolicy.interrupt(100.0),
            num_requests=3,
            concurrency=2,
            seed=4,
            collector=collector,
        ),
    ).run()
    manifest = SweepManifest.plan(
        SweepSpec(
            name="fuzz",
            workloads=("webserver",),
            sampling=("interrupt:100",),
            seeds=(0, 1),
            requests=3,
            concurrency=2,
        )
    )
    run_sweep(manifest, options=SweepOptions(stop_after=1))
    result = manifest.result(manifest.order[0])
    report = {
        "format": "repro-serve-worker-report",
        "version": 1,
        "shard": "w0",
        "instances": {"0": {"records": list(pipeline.records)}},
    }

    built: Dict[str, Format] = {}

    def add(name, valid: bytes, decode, encode, jsonl=False):
        built[name] = Format(valid, decode, encode, jsonl)

    path = work / "checkpoint.json"
    save_checkpoint(pipeline, str(path))
    add("online-checkpoint", path.read_bytes(),
        *_file_codec(path, load_checkpoint, save_checkpoint))

    path = work / "manifest.json"
    manifest.save(str(path))
    add("sweep-manifest", path.read_bytes(),
        *_file_codec(path, SweepManifest.load, lambda m, p: m.save(p)))

    add(
        "sweep-result",
        result_to_json(result).encode(),
        lambda data: read_document(
            data, RESULT_FORMAT, RESULT_VERSION,
            where="result", decode=validate_result_document,
        ),
        lambda document: result_to_json(document).encode(),
    )

    add(
        "serve-proto",
        encode_frame(hello("instance", instance=3))[4:],
        lambda data: check_version(decode_payload(data)),
        lambda payload: encode_frame(payload)[4:],
    )

    path = work / "events.jsonl"
    path.write_text(events_to_jsonl(collector.events, dropped=collector.dropped))
    add(
        "obs-events",
        path.read_bytes(),
        *_file_codec(
            path, load_events,
            lambda value, p: Path(p).write_text(events_to_jsonl(*value)),
        ),
        jsonl=True,
    )

    for suffix in ("json", "jsonl"):
        path = work / f"traces.{suffix}"
        save_traces(run.traces, str(path))
        add(f"traces-{suffix}", path.read_bytes(),
            *_file_codec(path, load_traces, save_traces), jsonl=suffix == "jsonl")

    path = work / "schedule.jsonl"
    save_schedule([(0.5, None), (1.25, 2), (1.25, 0), (7.0, None)], str(path))
    add("arrival-schedule", path.read_bytes(),
        *_file_codec(path, load_schedule, save_schedule), jsonl=True)

    path = work / "bank.json"
    save_bank(identifier, str(path))
    add("serve-bank", path.read_bytes(), *_file_codec(path, load_bank, save_bank))

    path = work / "report-w0.json"
    save_worker_reports([report], str(work))
    add(
        "worker-report",
        path.read_bytes(),
        *_file_codec(
            path, load_worker_report,
            lambda value, p: save_worker_reports([value], str(work)),
        ),
    )
    return built


@pytest.fixture(scope="module")
def cache_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz-cache") / "distances.json"
    cache = DistanceCache(path=str(path))
    for index in range(4):
        cache.put(f"dtw:p=0.1|{index}|{index + 1}", index / 3.0)
    cache.save()
    return path


NAMES = [
    "online-checkpoint",
    "sweep-manifest",
    "sweep-result",
    "serve-proto",
    "obs-events",
    "traces-json",
    "traces-jsonl",
    "arrival-schedule",
    "serve-bank",
    "worker-report",
]


def decodes_or_raises_document_error(fmt: Format, data: bytes) -> None:
    try:
        fmt.decode(data)
    except DocumentError:
        pass


def expect_document_error(fmt: Format, data: bytes) -> None:
    with pytest.raises(DocumentError):
        fmt.decode(data)


def with_envelope(fmt: Format, data: bytes, mutate) -> bytes:
    """Rewrite the envelope object (the JSONL header line) via ``mutate``."""
    if fmt.jsonl:
        header, _, rest = data.partition(b"\n")
        return json.dumps(mutate(json.loads(header))).encode() + b"\n" + rest
    return json.dumps(mutate(json.loads(data))).encode()


def set_field(key, value):
    def mutate(envelope):
        envelope = dict(envelope)
        if value is MISSING:
            del envelope[key]
        else:
            envelope[key] = value
        return envelope

    return mutate


VERSION_SKEWS = [2, 0, "1", None, MISSING]
NON_OBJECTS = [[], 1, "document", None, True]


class TestDecoders:
    @pytest.mark.parametrize("name", NAMES)
    def test_valid_document_round_trips_byte_identically(self, formats, name):
        fmt = formats[name]
        assert fmt.encode(fmt.decode(fmt.valid)) == fmt.valid

    @pytest.mark.parametrize("name", NAMES)
    @FUZZ
    @given(data=st.data())
    def test_truncation_at_any_byte(self, formats, name, data):
        fmt = formats[name]
        cut = data.draw(st.integers(0, len(fmt.valid) - 1))
        decodes_or_raises_document_error(fmt, fmt.valid[:cut])

    @pytest.mark.parametrize("name", NAMES)
    @FUZZ
    @given(data=st.data())
    def test_single_bit_flip(self, formats, name, data):
        fmt = formats[name]
        index = data.draw(st.integers(0, len(fmt.valid) - 1))
        bit = data.draw(st.integers(0, 7))
        flipped = bytearray(fmt.valid)
        flipped[index] ^= 1 << bit
        decodes_or_raises_document_error(fmt, bytes(flipped))

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("version", VERSION_SKEWS, ids=repr)
    def test_version_skew(self, formats, name, version):
        fmt = formats[name]
        expect_document_error(
            fmt, with_envelope(fmt, fmt.valid, set_field("version", version))
        )

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("foreign", ["something-else", MISSING], ids=repr)
    def test_foreign_format(self, formats, name, foreign):
        fmt = formats[name]
        expect_document_error(
            fmt, with_envelope(fmt, fmt.valid, set_field("format", foreign))
        )

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("top", NON_OBJECTS, ids=repr)
    def test_non_object_top_level(self, formats, name, top):
        fmt = formats[name]
        expect_document_error(fmt, with_envelope(fmt, fmt.valid, lambda _: top))


class TestDistanceCache:
    """Damaged cache files are a performance artifact: they load empty."""

    def load(self, path, data: bytes) -> DistanceCache:
        damaged = path.with_name("damaged.json")
        damaged.write_bytes(data)
        return DistanceCache(path=str(damaged))

    def test_valid_file_round_trips_byte_identically(self, cache_file):
        loaded = DistanceCache(path=str(cache_file))
        copy = DistanceCache(path=str(cache_file.with_name("copy.json")))
        for index in range(4):
            key = f"dtw:p=0.1|{index}|{index + 1}"
            copy.put(key, loaded.get(key))
        copy.save()
        assert cache_file.with_name("copy.json").read_bytes() == (
            cache_file.read_bytes()
        )

    @FUZZ
    @given(data=st.data())
    def test_truncation_and_bit_flips_never_raise(self, cache_file, data):
        valid = cache_file.read_bytes()
        index = data.draw(st.integers(0, len(valid) - 1))
        if data.draw(st.booleans()):
            mutated = valid[:index]
        else:
            flipped = bytearray(valid)
            flipped[index] ^= 1 << data.draw(st.integers(0, 7))
            mutated = bytes(flipped)
        assert len(self.load(cache_file, mutated)) in (0, 4)

    @pytest.mark.parametrize(
        "mutate",
        [set_field("version", v) for v in VERSION_SKEWS]
        + [set_field("format", "something-else"), set_field("format", MISSING)]
        + [lambda _, top=top: top for top in NON_OBJECTS],
        ids=[f"version={v!r}" for v in VERSION_SKEWS]
        + ["foreign-format", "no-format"]
        + [f"top={top!r}" for top in NON_OBJECTS],
    )
    def test_foreign_future_or_non_object_file_starts_empty(
        self, cache_file, mutate
    ):
        document = mutate(json.loads(cache_file.read_bytes()))
        assert len(self.load(cache_file, json.dumps(document).encode())) == 0


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": [1, 2.5], "a": None}) == '{"a":null,"b":[1,2.5]}'
