"""Sweep specifications: the scenario grid and its deterministic expansion.

A :class:`SweepSpec` declares a grid over workloads x sampling policies x
seeds x fault mixes x tier placements, plus the fixed run settings every
scenario shares (request count, concurrency, core count, online
analysis).  :meth:`SweepSpec.expand` turns it into an ordered list of
self-contained :class:`Scenario` descriptions with stable human-readable
ids; ``include`` / ``exclude`` rules prune the cross product explicitly
instead of burying special cases in experiment code.

Everything here is canonical-JSON serializable, so a manifest can embed
the spec and a resumed sweep re-plans bit-identically: same axis order,
same scenario ids, same content keys.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

from repro.documents import canonical_json
from repro.workloads.registry import available_workloads

__all__ = [
    "AXES",
    "NO_FAULTS",
    "SINGLE_PLACEMENT",
    "Scenario",
    "SweepSpec",
    "content_key",
    "parse_placement",
]

#: The grid axes, in expansion (itertools.product) order.
AXES = ("workload", "sampling", "seed", "faults", "placement", "arrivals",
        "dispatch")

#: Fault-mix axis value meaning "no injection".
NO_FAULTS = "none"

#: Placement axis value meaning "every tier on one machine".
SINGLE_PLACEMENT = "single"

#: Arrivals axis value meaning "the paper's closed generative loop".
CLOSED_ARRIVALS = "closed"

#: Dispatch axis value meaning "historical per-machine round-robin".
DEFAULT_DISPATCH = "rr"

SCENARIO_FORMAT = "repro-sweep-scenario"
SCENARIO_VERSION = 1


def content_key(payload) -> str:
    """Stable content hash of a JSON-serializable payload."""
    digest = hashlib.blake2b(canonical_json(payload).encode(), digest_size=16)
    return digest.hexdigest()


def parse_placement(text: str) -> Tuple[int, Optional[Dict[str, int]]]:
    """Parse a tier-placement spec into (num_machines, tier -> machine).

    ``single`` keeps every tier on one machine (``(1, None)``);
    ``cluster:<N>:<tier>=<m>[,<tier>=<m>...]`` spreads tiers over an
    ``N``-machine cluster (tiers not listed stay on machine 0).
    """
    if text == SINGLE_PLACEMENT:
        return 1, None
    head, sep, rest = text.partition(":")
    if head != "cluster" or not sep:
        raise ValueError(
            f"unknown placement spec {text!r}; expected 'single' or "
            "'cluster:<machines>:<tier>=<machine>,...'"
        )
    count_text, sep, assignments = rest.partition(":")
    try:
        machines = int(count_text)
    except ValueError:
        raise ValueError(f"bad machine count in placement spec {text!r}") from None
    if machines < 2:
        raise ValueError(f"cluster placement needs >= 2 machines, got {text!r}")
    if not sep or not assignments:
        raise ValueError(f"cluster placement {text!r} assigns no tiers")
    placement: Dict[str, int] = {}
    for part in assignments.split(","):
        tier, eq, machine_text = part.partition("=")
        if not eq or not tier:
            raise ValueError(f"bad tier assignment {part!r} in {text!r}")
        try:
            machine = int(machine_text)
        except ValueError:
            raise ValueError(f"bad machine index {machine_text!r} in {text!r}") from None
        if not 0 <= machine < machines:
            raise ValueError(
                f"machine {machine} out of range for {machines}-machine "
                f"cluster in {text!r}"
            )
        if tier in placement:
            raise ValueError(f"tier {tier!r} assigned twice in {text!r}")
        placement[tier] = machine
    return machines, placement


def _validate_sampling(text: str) -> None:
    from repro.cli import parse_sampling

    parse_sampling(text)


def _validate_faults(text: str) -> None:
    if text != NO_FAULTS:
        from repro.faults.schedule import parse_fault_schedule

        parse_fault_schedule(text)


def _validate_arrivals(text: str) -> None:
    from repro.traffic import parse_arrivals

    parse_arrivals(text)


def _validate_dispatch(text: str) -> None:
    from repro.traffic import parse_dispatch

    parse_dispatch(text)


@dataclass(frozen=True)
class Scenario:
    """One self-contained point of the grid.

    Carries both the axis values and the shared run settings, so a
    scenario executes identically whether launched by the sweep executor,
    a fork worker, or a differential test reconstructing it by hand.
    """

    workload: str
    sampling: str
    seed: int
    faults: str = NO_FAULTS
    placement: str = SINGLE_PLACEMENT
    arrivals: str = CLOSED_ARRIVALS
    dispatch: str = DEFAULT_DISPATCH
    requests: int = 8
    concurrency: int = 4
    cores: int = 4
    online: bool = False
    train: int = 0
    attribute: bool = False

    def __post_init__(self):
        if self.attribute and not self.online:
            raise ValueError(
                "attribute=True needs online=True (cause attribution runs "
                "inside the online pipeline)"
            )
        if self.workload not in available_workloads():
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"available: {available_workloads()}"
            )
        _validate_sampling(self.sampling)
        _validate_faults(self.faults)
        parse_placement(self.placement)
        _validate_arrivals(self.arrivals)
        _validate_dispatch(self.dispatch)
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.cores not in (1, 4):
            raise ValueError(f"cores must be 1 or 4, got {self.cores}")
        if self.train < 0:
            raise ValueError(f"train must be >= 0, got {self.train}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an int, got {self.seed!r}")

    @property
    def _default_traffic(self) -> bool:
        return (
            self.arrivals == CLOSED_ARRIVALS
            and self.dispatch == DEFAULT_DISPATCH
        )

    @property
    def scenario_id(self) -> str:
        """Readable deterministic id, unique within one spec's grid.

        The traffic axes appear only when off their defaults, so every
        pre-traffic-layer id (and manifest referencing one) is unchanged.
        """
        parts = [
            self.workload,
            self.sampling,
            f"seed{self.seed}",
            self.faults,
            self.placement,
        ]
        if not self._default_traffic:
            parts.extend((self.arrivals, self.dispatch))
        if self.attribute:
            parts.append("attr")
        return "~".join(parts)

    @property
    def content_key(self) -> str:
        """Content hash over *all* fields — the cross-sweep cache key."""
        payload = {
            "format": SCENARIO_FORMAT,
            "version": SCENARIO_VERSION,
        }
        payload.update(self.to_dict())
        return content_key(payload)

    def to_dict(self) -> Dict:
        """Axis values + run settings; traffic axes only off-default.

        Omitting default traffic axes keeps the content keys (and hence
        the cross-sweep cache and the golden corpus bytes) of every
        pre-traffic-layer scenario stable; ``from_dict`` fills the
        defaults back in.
        """
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.arrivals == CLOSED_ARRIVALS:
            del payload["arrivals"]
        if self.dispatch == DEFAULT_DISPATCH:
            del payload["dispatch"]
        # Attribution, like the traffic axes, appears only when enabled
        # so pre-attribution content keys and goldens keep their bytes.
        if not self.attribute:
            del payload["attribute"]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "Scenario":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown scenario fields: {unknown}")
        return cls(**payload)


def _matches(combo: Dict, rule: Dict) -> bool:
    return all(combo.get(axis) == value for axis, value in rule.items())


def _validate_rule(rule: Dict, where: str) -> Dict:
    if not isinstance(rule, dict) or not rule:
        raise ValueError(f"{where} rules must be non-empty axis dicts, got {rule!r}")
    unknown = sorted(set(rule) - set(AXES))
    if unknown:
        raise ValueError(f"{where} rule uses unknown axes {unknown}; valid: {AXES}")
    return dict(rule)


def _unique(values, axis: str) -> tuple:
    values = tuple(values)
    if not values:
        raise ValueError(f"axis {axis!r} is empty")
    if len(set(values)) != len(values):
        raise ValueError(f"axis {axis!r} contains duplicates: {values}")
    return values


@dataclass(frozen=True)
class SweepSpec:
    """A declared grid of scenarios plus shared run settings.

    ``include`` / ``exclude`` are lists of partial axis dicts
    (e.g. ``{"workload": "tpcc", "faults": "none"}``): a combination
    survives expansion iff it matches at least one ``include`` rule (when
    any are given) and matches no ``exclude`` rule.
    """

    name: str
    workloads: tuple
    sampling: tuple
    seeds: tuple
    faults: tuple = (NO_FAULTS,)
    placements: tuple = (SINGLE_PLACEMENT,)
    arrivals: tuple = (CLOSED_ARRIVALS,)
    dispatch: tuple = (DEFAULT_DISPATCH,)
    requests: int = 8
    concurrency: int = 4
    cores: int = 4
    online: bool = False
    train: int = 0
    attribute: bool = False
    include: tuple = ()
    exclude: tuple = ()

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"spec needs a non-empty name, got {self.name!r}")
        object.__setattr__(self, "workloads", _unique(self.workloads, "workloads"))
        object.__setattr__(self, "sampling", _unique(self.sampling, "sampling"))
        object.__setattr__(self, "seeds", _unique(self.seeds, "seeds"))
        object.__setattr__(self, "faults", _unique(self.faults, "faults"))
        object.__setattr__(self, "placements", _unique(self.placements, "placements"))
        object.__setattr__(self, "arrivals", _unique(self.arrivals, "arrivals"))
        object.__setattr__(self, "dispatch", _unique(self.dispatch, "dispatch"))
        object.__setattr__(
            self,
            "include",
            tuple(_validate_rule(r, "include") for r in self.include),
        )
        object.__setattr__(
            self,
            "exclude",
            tuple(_validate_rule(r, "exclude") for r in self.exclude),
        )
        # Every axis value is validated eagerly by building one probe
        # scenario per value, so a bad spec fails at plan time, not ten
        # scenarios into a sweep.
        self.expand()

    def expand(self) -> List[Scenario]:
        """Deterministic plan: the pruned cross product, in axis order."""
        scenarios: List[Scenario] = []
        for (
            workload, sampling, seed, faults, placement, arrivals, dispatch
        ) in itertools.product(
            self.workloads, self.sampling, self.seeds, self.faults,
            self.placements, self.arrivals, self.dispatch,
        ):
            combo = {
                "workload": workload,
                "sampling": sampling,
                "seed": seed,
                "faults": faults,
                "placement": placement,
                "arrivals": arrivals,
                "dispatch": dispatch,
            }
            if self.include and not any(_matches(combo, r) for r in self.include):
                continue
            if any(_matches(combo, r) for r in self.exclude):
                continue
            scenarios.append(
                Scenario(
                    workload=workload,
                    sampling=sampling,
                    seed=seed,
                    faults=faults,
                    placement=placement,
                    arrivals=arrivals,
                    dispatch=dispatch,
                    requests=self.requests,
                    concurrency=self.concurrency,
                    cores=self.cores,
                    online=self.online,
                    train=self.train,
                    attribute=self.attribute,
                )
            )
        if not scenarios:
            raise ValueError(
                f"spec {self.name!r} expands to zero scenarios "
                "(include/exclude rules pruned the whole grid)"
            )
        return scenarios

    @property
    def spec_key(self) -> str:
        """Content hash of the spec (manifest/spec mismatch detection)."""
        return content_key(self.to_dict())

    def to_dict(self) -> Dict:
        payload = {
            "name": self.name,
            "workloads": list(self.workloads),
            "sampling": list(self.sampling),
            "seeds": list(self.seeds),
            "faults": list(self.faults),
            "placements": list(self.placements),
            "requests": self.requests,
            "concurrency": self.concurrency,
            "cores": self.cores,
            "online": self.online,
            "train": self.train,
            "include": [dict(r) for r in self.include],
            "exclude": [dict(r) for r in self.exclude],
        }
        # Traffic axes appear only off-default so that the spec_key of
        # every pre-traffic-layer spec (and its manifest) stays stable.
        if self.arrivals != (CLOSED_ARRIVALS,):
            payload["arrivals"] = list(self.arrivals)
        if self.dispatch != (DEFAULT_DISPATCH,):
            payload["dispatch"] = list(self.dispatch)
        if self.attribute:
            payload["attribute"] = True
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "SweepSpec":
        if not isinstance(payload, dict):
            raise ValueError(f"sweep spec must be a JSON object, got {payload!r}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown sweep spec fields: {unknown}")
        if "name" not in payload:
            raise ValueError("sweep spec needs a 'name'")
        kwargs = dict(payload)
        for axis in (
            "workloads", "sampling", "seeds", "faults", "placements",
            "arrivals", "dispatch",
        ):
            if axis in kwargs:
                kwargs[axis] = tuple(kwargs[axis])
        for rules in ("include", "exclude"):
            if rules in kwargs:
                kwargs[rules] = tuple(kwargs[rules])
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path: str) -> "SweepSpec":
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except ValueError as error:
                raise ValueError(f"malformed sweep spec {path!r}: {error}") from None
        return cls.from_dict(payload)
