"""Core data model for preemptive multi-host scheduling over discrete time slots.

Time is a sequence of integer slots 1..T (closed intervals).  A job j has a
release/due window, an integral length p_j (number of slots it must be
processed in), a d-dimensional demand vector with components in (0, 1], and a
weight.  Hosts are identical with unit capacity per dimension per slot.  A
schedule places jobs into (host, slot) bins; within one slot a job may occupy
at most one host, and the demand vectors resident in a bin must sum to at most
one in every dimension.  Preemption and migration between slots are free.

All numeric fields are exact rationals (`fractions.Fraction`); nothing in this
module touches floating point, so feasibility checks are decidable exactly.
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from fractions import Fraction
from functools import cache, cached_property
from types import UnionType
from typing import Iterable, Mapping, Sequence, get_args, get_origin, get_type_hints


def parse_rational(value) -> Fraction:
    """Parse a JSON-level rational: an int or a 'p/q' (or 'p') string.

    Floats are rejected on purpose: the whole pipeline relies on exact
    arithmetic and a float in the input is almost always an upstream bug.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        num, slash, den = value.strip().partition("/")
        try:
            return Fraction(int(num), int(den) if slash else 1)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"not a rational: {value!r}") from None
    if isinstance(value, Fraction):
        return value
    raise ValueError(f"not a rational: {value!r} (floats are not accepted)")


def format_rational(q: Fraction):
    """Serialize a rational as an int when integral, else a 'p/q' string."""
    q = Fraction(q)
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True, order=True)
class TimeWindow:
    """Closed integer slot interval [start, end], 1-based."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 1 or self.end < self.start:
            raise ValueError(f"bad window [{self.start}, {self.end}]")

    @property
    def size(self) -> int:
        return self.end - self.start + 1

    def slots(self) -> range:
        return range(self.start, self.end + 1)

    def contains(self, other: "TimeWindow") -> bool:
        return self.start <= other.start and other.end <= self.end

    def contains_slot(self, t: int) -> bool:
        return self.start <= t <= self.end

    def overlaps(self, other: "TimeWindow") -> bool:
        return self.start <= other.end and other.start <= self.end


@dataclass(frozen=True)
class Job:
    """One preemptible job.

    length is the number of distinct slots the job must run in; demand is the
    per-slot resource vector, one component per dimension, in (0, 1].
    """

    id: int
    release: int
    due: int
    length: int
    demand: tuple[Fraction, ...]
    weight: Fraction | None = None  # None: defaults to the job's area

    def __post_init__(self):
        if self.release < 1 or self.due < self.release:
            raise ValueError(f"job {self.id}: bad window [{self.release}, {self.due}]")
        if not 1 <= self.length <= self.due - self.release + 1:
            raise ValueError(f"job {self.id}: length {self.length} does not fit window")
        if not self.demand:
            raise ValueError(f"job {self.id}: empty demand vector")
        for s in self.demand:
            if not 0 < s <= 1:
                raise ValueError(f"job {self.id}: demand component {s} outside (0, 1]")
        if self.weight is None:
            object.__setattr__(self, "weight", self.length * max(self.demand))
        elif self.weight < 0:
            raise ValueError(f"job {self.id}: negative weight")

    @cached_property
    def window(self) -> TimeWindow:
        # cached in the instance __dict__, outside the dataclass fields, so
        # equality, hashing and repr do not see it
        return TimeWindow(self.release, self.due)

    @property
    def height(self) -> Fraction:
        """Scalar demand: the max-norm of the demand vector."""
        return max(self.demand)


def area(job: Job) -> Fraction:
    """Scalar area length * height (max-norm for multi-dimensional demands)."""
    return job.length * job.height


def density(job: Job) -> Fraction:
    """weight / area.  Area is positive by construction for valid jobs."""
    a = area(job)
    if a == 0:
        raise ValueError(f"job {job.id}: zero area has no density")
    return job.weight / a


@dataclass(frozen=True)
class Instance:
    """A scheduling instance: identical unit-capacity hosts and a job list."""

    hosts: int
    dim: int
    jobs: tuple[Job, ...]

    def __post_init__(self):
        object.__setattr__(self, "jobs", tuple(self.jobs))
        if self.hosts < 1:
            raise ValueError("hosts must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        seen = set()
        for job in self.jobs:
            if job.id in seen:
                raise ValueError(f"duplicate job id {job.id}")
            seen.add(job.id)
            if len(job.demand) != self.dim:
                raise ValueError(
                    f"job {job.id}: demand has {len(job.demand)} components, dim is {self.dim}"
                )

    @property
    def horizon(self) -> int:
        return max((job.due for job in self.jobs), default=0)

    def job_map(self) -> dict[int, Job]:
        return {job.id: job for job in self.jobs}

    def with_jobs(self, jobs: Iterable[Job]) -> "Instance":
        return Instance(hosts=self.hosts, dim=self.dim, jobs=tuple(jobs))


def slackness(instance: Instance) -> Fraction:
    """max_j length / window-size; 0 for an empty instance."""
    # compare the ratios by cross-multiplying and build one Fraction at the end
    length, size = 0, 1
    for job in instance.jobs:
        window = job.window.size
        if job.length * size > length * window:
            length, size = job.length, window
    return Fraction(length, size)


@dataclass(frozen=True)
class Schedule:
    """Placements: job id -> set of (host, slot) pairs, hosts and slots 1-based."""

    placements: Mapping[int, frozenset[tuple[int, int]]]

    @classmethod
    def from_pairs(cls, pairs: Mapping[int, Iterable[tuple[int, int]]]) -> "Schedule":
        return cls(
            placements={
                int(jid): frozenset((int(h), int(t)) for h, t in hs)
                for jid, hs in pairs.items()
            }
        )

    def slots_of(self, jid: int) -> set[int]:
        return {t for _, t in self.placements.get(jid, ())}


@dataclass(frozen=True)
class Violation:
    kind: str
    job: int | None = None
    host: int | None = None
    slot: int | None = None


@dataclass(frozen=True)
class ValidationReport:
    feasible: bool
    violations: tuple[Violation, ...]
    completed_ids: tuple[int, ...]
    total_weight: Fraction
    total_area: Fraction

    def to_json(self) -> dict:
        """The `slotsched validate` payload; absent violation fields are null."""
        return {
            "feasible": self.feasible,
            "violations": [asdict(v) for v in self.violations],
            "completed": sorted(self.completed_ids),
            "total_weight": format_rational(self.total_weight),
            "total_area": format_rational(self.total_area),
        }


def validate(
    instance: Instance,
    schedule: Schedule,
    require_all_complete: bool = False,
    hosts: int | None = None,
) -> ValidationReport:
    """Check a schedule against an instance.  Never raises on bad input;
    every problem becomes a Violation in the report.

    A job that appears in the schedule must be completed exactly: `length`
    distinct slots, no more.  With require_all_complete, every job of the
    instance must be completed (host-minimization mode).

    `hosts` overrides the instance's host count as the bound on host
    indices — host minimizers produce schedules on however many hosts
    their answer says, not on the instance's.
    """
    host_limit = instance.hosts if hosts is None else hosts
    horizon = instance.horizon
    jobs = instance.job_map()
    violations: list[Violation] = []
    # (host, slot) -> list of jobs resident there
    bins: dict[tuple[int, int], list[Job]] = {}

    for jid in sorted(schedule.placements):
        placed = schedule.placements[jid]
        job = jobs.get(jid)
        if job is None:
            violations.append(Violation("unknown-job", job=jid))
            continue
        slots_seen: dict[int, int] = {}
        for host, slot in sorted(placed):
            if not 1 <= host <= host_limit:
                violations.append(Violation("bad-host", job=jid, host=host, slot=slot))
            if not 1 <= slot <= horizon:
                violations.append(Violation("bad-slot", job=jid, host=host, slot=slot))
            elif not job.window.contains_slot(slot):
                violations.append(Violation("outside-window", job=jid, host=host, slot=slot))
            slots_seen[slot] = slots_seen.get(slot, 0) + 1
            bins.setdefault((host, slot), []).append(job)
        for slot, count in sorted(slots_seen.items()):
            if count > 1:
                violations.append(Violation("simultaneous", job=jid, slot=slot))
        distinct = len(slots_seen)
        if distinct > job.length:
            violations.append(Violation("overcomplete", job=jid))
        elif 0 < distinct < job.length:
            violations.append(Violation("incomplete", job=jid))

    for (host, slot) in sorted(bins):
        resident = bins[(host, slot)]
        for i in range(instance.dim):
            load = sum((job.demand[i] for job in resident), Fraction(0))
            if load > 1:
                violations.append(Violation("capacity", host=host, slot=slot))
                break

    completed = tuple(
        jid
        for jid in sorted(schedule.placements)
        if jid in jobs and len(schedule.slots_of(jid)) == jobs[jid].length
    )
    if require_all_complete:
        done = set(completed)
        for job in instance.jobs:
            if job.id not in done and len(schedule.slots_of(job.id)) == 0:
                violations.append(Violation("incomplete", job=job.id))

    return ValidationReport(
        feasible=not violations,
        violations=tuple(violations),
        completed_ids=completed,
        total_weight=sum((jobs[j].weight for j in completed), Fraction(0)),
        total_area=sum((area(jobs[j]) for j in completed), Fraction(0)),
    )


# ---------------------------------------------------------------------------
# JSON serialization.  Canonical form: sorted keys, 2-space indent, trailing
# newline.  Byte-stable across runs for identical data.
# ---------------------------------------------------------------------------


def job_to_json(job: Job) -> dict:
    return {
        "id": job.id,
        "release": job.release,
        "due": job.due,
        "length": job.length,
        "weight": format_rational(job.weight),
        "demand": [format_rational(s) for s in job.demand],
    }


def _is_int(value) -> bool:
    """A JSON integer: bools and floats do not count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_array(value) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, str)


def _field(obj, key: str, where: str):
    if not isinstance(obj, Mapping):
        raise ValueError(f"{where} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{where}: missing field {key!r}")
    return obj[key]


# What a dataclass field of each type reads from JSON, as named in errors.
_JSON_NOUNS = {
    int: "an integer",
    bool: "true or false",
    str: "a string",
    dict: "a JSON object",
    tuple: "a list",
    type(None): "null",
    Fraction: "a rational (an integer or a 'p/q' string)",
}


def _members(hint) -> tuple:
    """The members of a union type in declared order, or the type alone."""
    return get_args(hint) if isinstance(hint, UnionType) else (hint,)


@cache
def _json_schema(cls) -> tuple[dict, frozenset]:
    """Per field of dataclass `cls`, the members of its type's union in
    declared order; and the names of the fields without a default."""
    hints = get_type_hints(cls)
    kinds = {f.name: _members(hints[f.name]) for f in fields(cls)}
    required = frozenset(
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    )
    return kinds, required


def _read_json(kinds, value, owner: str, key: str):
    """`value`, named `key` in `owner`, read as the first of `kinds` that
    fits.  A dataclass is read from a JSON object named `key`, and a
    `tuple[X, ...]` from a list of X whose elements are named `key[i]`."""
    for kind in kinds:
        if kind is Fraction:
            with suppress(ValueError):
                return parse_rational(value)
        elif is_dataclass(kind):
            if type(value) is dict:
                return dataclass_from_json(kind, value, key)
        elif get_origin(kind) is tuple:
            if type(value) is list:
                item = _members(get_args(kind)[0])
                return tuple(
                    _read_json(item, v, owner, f"{key}[{i}]") for i, v in enumerate(value)
                )
        elif type(value) is kind:  # a bool is no int here
            return value
    nouns = " or ".join(
        "a JSON object" if is_dataclass(k) else _JSON_NOUNS[get_origin(k) or k] for k in kinds
    )
    raise ValueError(f"{owner} field {key!r} must be {nouns}, got {value!r}")


def dataclass_from_json(cls, obj, name: str):
    """Dataclass `cls` built from the JSON object `obj`.  Every key must name
    a field, fields without a default are required, and each value is read by
    its field's declared type, taking the first member of a union that fits;
    nested dataclasses and `tuple[X, ...]` lists follow the same rules.
    Raises ValueError naming `name` and the field on malformed input."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"{name!r} must be a JSON object, got {type(obj).__name__}")
    kinds, required = _json_schema(cls)
    unknown = obj.keys() - kinds.keys()
    if unknown:
        raise ValueError(
            f"unknown {name} fields: {sorted(unknown, key=str)}; known: {sorted(kinds)}"
        )
    missing = required - obj.keys()
    if missing:
        raise ValueError(f"missing {name} fields: {sorted(missing)}")
    return cls(**{key: _read_json(kinds[key], value, name, key) for key, value in obj.items()})


def instance_to_json(instance: Instance) -> dict:
    return {
        "hosts": instance.hosts,
        "dim": instance.dim,
        "jobs": [job_to_json(job) for job in sorted(instance.jobs, key=lambda j: j.id)],
    }


def instance_from_json(obj: Mapping) -> Instance:
    """An instance from its JSON object, as `dataclass_from_json` reads it."""
    return dataclass_from_json(Instance, obj, "instance")


def schedule_to_json(schedule: Schedule) -> dict:
    return {
        "placements": {
            str(jid): [[h, t] for h, t in sorted(schedule.placements[jid])]
            for jid in sorted(schedule.placements)
        }
    }


def schedule_from_json(obj: Mapping) -> Schedule:
    """A schedule from its JSON object: job-id keys, each mapped to a list of
    [host, slot] integer pairs.  Raises ValueError naming the field on
    malformed input, or both keys where two name one job ("1" and "01")."""
    placements = _field(obj, "placements", "schedule")
    if not isinstance(placements, Mapping):
        raise ValueError(
            f"schedule: field 'placements' must be a JSON object, got {type(placements).__name__}"
        )
    pairs, keys = {}, {}
    for key, spots in placements.items():
        where = f"schedule: placements[{key!r}]"
        try:
            jid = key if _is_int(key) else int(key)
        except (TypeError, ValueError):
            raise ValueError(f"{where}: key is not a job id") from None
        if jid in keys:
            raise ValueError(
                f"schedule: placements keys {keys[jid]!r} and {key!r} both name job {jid}"
            )
        keys[jid] = key
        if not _is_array(spots):
            raise ValueError(f"{where} must be a list of [host, slot] pairs")
        for pair in spots:
            if not (_is_array(pair) and len(pair) == 2 and all(map(_is_int, pair))):
                raise ValueError(f"{where}: {pair!r} is not a [host, slot] pair of integers")
        pairs[jid] = spots
    return Schedule.from_pairs(pairs)


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; a key given twice raises ValueError, where
    json.load would keep the last value silently."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _load_json(path):
    """The JSON value in file `path`; malformed JSON, or an object that
    repeats a key, raises ValueError prefixed with the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except ValueError as exc:  # json.JSONDecodeError is one
            raise ValueError(f"{path}: {exc}") from None


def load_instance(path) -> Instance:
    return instance_from_json(_load_json(path))


def load_schedule(path) -> Schedule:
    return schedule_from_json(_load_json(path))
