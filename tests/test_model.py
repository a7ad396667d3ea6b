"""Data model: windows, areas, validation, JSON round-trips."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotsched.experiments import SOLVER_NAMES, _parse_batch_config
from slotsched.generator import GenSpec, generate
from slotsched.model import (
    Instance,
    Job,
    Schedule,
    TimeWindow,
    area,
    density,
    dumps_canonical,
    format_rational,
    instance_from_json,
    instance_to_json,
    parse_rational,
    schedule_from_json,
    schedule_to_json,
    slackness,
    validate,
)


def mk_job(jid=1, release=1, due=2, length=1, demand=(Fraction(1, 2),), weight=None):
    demand = tuple(Fraction(s) for s in demand)
    if weight is None:
        weight = length * max(demand)
    return Job(id=jid, release=release, due=due, length=length, demand=demand, weight=Fraction(weight))


def test_parse_rational_forms():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("5") == Fraction(5)
    with pytest.raises(ValueError):
        parse_rational(0.5)
    with pytest.raises(ValueError):
        parse_rational(True)
    for text in ("1/0", "abc", "1/x", "", "/"):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational(text)


def test_format_rational_round_trip():
    assert format_rational(Fraction(4, 2)) == 2
    assert format_rational(Fraction(3, 4)) == "3/4"
    for q in [Fraction(0), Fraction(-5, 3), Fraction(17, 1), Fraction(1, 64)]:
        assert parse_rational(format_rational(q)) == q


def test_window_basics():
    w = TimeWindow(2, 5)
    assert w.size == 4
    assert list(w.slots()) == [2, 3, 4, 5]
    assert w.contains(TimeWindow(3, 4))
    assert not w.contains(TimeWindow(1, 4))
    with pytest.raises(ValueError):
        TimeWindow(3, 2)
    with pytest.raises(ValueError):
        TimeWindow(0, 2)


def test_job_invariants():
    with pytest.raises(ValueError):
        mk_job(length=3, release=1, due=2)  # length exceeds window
    with pytest.raises(ValueError):
        mk_job(demand=(Fraction(0),))
    with pytest.raises(ValueError):
        mk_job(demand=(Fraction(3, 2),))
    job = mk_job(length=2, due=4, demand=(Fraction(1, 4), Fraction(1, 2)))
    # scalar height is the max-norm
    assert job.height == Fraction(1, 2)
    assert area(job) == Fraction(1)


def test_area_density_slackness():
    # p=2, s=1/2 -> a=1; w=3 -> density 3
    job = mk_job(length=2, due=5, demand=(Fraction(1, 2),), weight=3)
    assert area(job) == 1
    assert density(job) == 3
    inst = Instance(hosts=1, dim=1, jobs=(job,))
    # slackness = p/|chi| = 2/5
    assert slackness(inst) == Fraction(2, 5)
    assert slackness(Instance(hosts=1, dim=1, jobs=())) == 0


def test_instance_rejects_dim_mismatch_and_dup_ids():
    with pytest.raises(ValueError):
        Instance(hosts=1, dim=2, jobs=(mk_job(),))
    with pytest.raises(ValueError):
        Instance(hosts=1, dim=1, jobs=(mk_job(jid=1), mk_job(jid=1)))


def test_instance_jobs_is_always_a_tuple():
    jobs = [Job(id=1, release=1, due=4, length=2, demand=(Fraction(1, 2),)),
            Job(id=2, release=2, due=3, length=1, demand=(Fraction(1, 3),))]
    from_list = Instance(hosts=1, dim=1, jobs=jobs)
    from_tuple = Instance(hosts=1, dim=1, jobs=tuple(jobs))
    assert isinstance(from_list.jobs, tuple)
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)


def test_generated_instance_hashes_and_equals_its_tuple_form():
    instance = generate(GenSpec(jobs=6, hosts=2, horizon=8, seed="tuple"))
    rebuilt = Instance(hosts=instance.hosts, dim=instance.dim, jobs=tuple(instance.jobs))
    assert instance == rebuilt
    assert hash(instance) == hash(rebuilt)
    assert len({instance, rebuilt}) == 1


def test_validate_single_job_feasible():
    # 1 job (p=1, s=1/2, window [1,2]) placed at (host 1, slot 1) on one host
    inst = Instance(hosts=1, dim=1, jobs=(mk_job(),))
    sched = Schedule.from_pairs({1: [(1, 1)]})
    rep = validate(inst, sched, require_all_complete=True)
    assert rep.feasible
    assert rep.completed_ids == (1,)
    assert rep.total_weight == Fraction(1, 2)
    assert rep.total_area == Fraction(1, 2)


def test_validate_capacity_violation():
    # two jobs of demand 0.6 in the same bin exceed unit capacity
    jobs = (
        mk_job(jid=1, demand=(Fraction(3, 5),)),
        mk_job(jid=2, demand=(Fraction(3, 5),)),
    )
    inst = Instance(hosts=1, dim=1, jobs=jobs)
    sched = Schedule.from_pairs({1: [(1, 1)], 2: [(1, 1)]})
    rep = validate(inst, sched)
    assert not rep.feasible
    assert [v.kind for v in rep.violations] == ["capacity"]
    # same two jobs on separate slots are fine
    rep2 = validate(inst, Schedule.from_pairs({1: [(1, 1)], 2: [(1, 2)]}))
    assert rep2.feasible


def test_validate_capacity_multidim():
    jobs = (
        mk_job(jid=1, demand=(Fraction(1, 4), Fraction(3, 4))),
        mk_job(jid=2, demand=(Fraction(1, 4), Fraction(1, 2))),
    )
    inst = Instance(hosts=1, dim=2, jobs=jobs)
    rep = validate(inst, Schedule.from_pairs({1: [(1, 1)], 2: [(1, 1)]}))
    # dim 1 fits (1/2), dim 2 overflows (5/4)
    assert [v.kind for v in rep.violations] == ["capacity"]


def test_validate_structural_violations_never_crash():
    inst = Instance(hosts=1, dim=1, jobs=(mk_job(),))
    sched = Schedule.from_pairs({9: [(1, 1)], 1: [(2, 1), (1, 99), (1, 1)]})
    rep = validate(inst, sched)
    kinds = sorted(v.kind for v in rep.violations)
    assert "unknown-job" in kinds
    assert "bad-host" in kinds
    assert "bad-slot" in kinds
    assert "overcomplete" in kinds


def test_validate_same_slot_two_hosts():
    job = mk_job(length=2, due=3)
    inst = Instance(hosts=2, dim=1, jobs=(job,))
    rep = validate(inst, Schedule.from_pairs({1: [(1, 1), (2, 1)]}))
    kinds = [v.kind for v in rep.violations]
    assert "simultaneous" in kinds
    # two hosts same slot counts as one distinct slot -> also incomplete
    assert "incomplete" in kinds


def test_validate_require_all_complete():
    inst = Instance(hosts=1, dim=1, jobs=(mk_job(jid=1), mk_job(jid=2)))
    sched = Schedule.from_pairs({1: [(1, 1)]})
    assert validate(inst, sched).feasible
    rep = validate(inst, sched, require_all_complete=True)
    assert not rep.feasible
    assert [v.kind for v in rep.violations] == ["incomplete"]


def test_validate_outside_window():
    job = mk_job(release=2, due=3, length=1)
    inst = Instance(hosts=1, dim=1, jobs=(job, mk_job(jid=2, release=1, due=4, length=1)))
    rep = validate(inst, Schedule.from_pairs({1: [(1, 1)]}))
    assert [v.kind for v in rep.violations] == ["outside-window"]


def test_validate_is_pure():
    inst = Instance(hosts=1, dim=1, jobs=(mk_job(),))
    sched = Schedule.from_pairs({1: [(1, 1)]})
    before = schedule_to_json(sched)
    validate(inst, sched)
    validate(inst, sched, require_all_complete=True)
    assert schedule_to_json(sched) == before


def test_instance_json_round_trip():
    jobs = (
        mk_job(jid=1, length=2, due=4, demand=(Fraction(1, 3),), weight=Fraction(5, 2)),
        mk_job(jid=2, release=2, due=2, demand=(Fraction(1),)),
    )
    inst = Instance(hosts=3, dim=1, jobs=jobs)
    blob = dumps_canonical(instance_to_json(inst))
    back = instance_from_json(json.loads(blob))
    assert back == inst
    # canonical dump is stable
    assert dumps_canonical(instance_to_json(back)) == blob


def test_weight_defaults_to_area():
    obj = {
        "hosts": 1,
        "dim": 1,
        "jobs": [{"id": 1, "release": 1, "due": 4, "length": 2, "demand": ["1/3"]}],
    }
    inst = instance_from_json(obj)
    assert inst.jobs[0].weight == Fraction(2, 3)


def test_schedule_json_round_trip():
    sched = Schedule.from_pairs({2: [(1, 3), (2, 1)], 1: [(1, 1)]})
    obj = schedule_to_json(sched)
    assert obj == {"placements": {"1": [[1, 1]], "2": [[1, 3], [2, 1]]}}
    assert schedule_from_json(obj) == sched


def test_schedule_keys_naming_one_job_are_rejected():
    # "01" and "1" both read as job 1: keeping the later list would hide that
    # the file runs job 1 in two slots
    obj = {"placements": {"01": [[1, 1]], "1": [[1, 2]]}}
    with pytest.raises(ValueError, match="'01' and '1' both name job 1"):
        schedule_from_json(obj)


def test_job_with_cached_window_equals_and_hashes_like_its_twin():
    read, fresh = mk_job(jid=3, release=2, due=5), mk_job(jid=3, release=2, due=5)
    assert read.window == TimeWindow(2, 5)
    assert read.window is read.window  # built once, then cached
    assert read == fresh and hash(read) == hash(fresh)
    assert repr(read) == repr(fresh)
    assert {read, fresh} == {fresh}


_json_leaf = st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False) | st.sampled_from(
    ["", "1", "1/2", "3/4", "1/0", "-1", "x", "2/3/4", " 7 "]
)
_json = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


def _mostly(valid):
    """`valid` four times in five, any JSON value otherwise."""
    return st.integers(0, 4).flatmap(lambda k: valid if k else _json)


_near_job = st.fixed_dictionaries(
    {
        "id": _mostly(st.integers(1, 4)),
        "release": _mostly(st.integers(1, 3)),
        "due": _mostly(st.integers(3, 6)),
        "length": _mostly(st.integers(1, 3)),
        "demand": _mostly(st.lists(st.sampled_from(["1/2", "1/3", 1]), min_size=1, max_size=1)),
    },
    optional={"weight": _mostly(st.sampled_from(["5/2", 1, "0"])), "wieght": _json},
)
_near_instance = st.fixed_dictionaries(
    {
        "hosts": _mostly(st.integers(1, 3)),
        "dim": _mostly(st.just(1)),
        "jobs": _mostly(st.lists(_mostly(_near_job), max_size=3)),
    },
    optional={"horizon": _json},
)
_pair = st.lists(_mostly(st.integers(1, 4)), min_size=2, max_size=2)
_near_placements = st.dictionaries(
    st.sampled_from(["1", "2", "x", " 3"]), _mostly(st.lists(_mostly(_pair)))
)
_near_schedule = st.fixed_dictionaries({"placements": _mostly(_near_placements)})


@settings(max_examples=300, deadline=None)
@given(instance=_near_instance | _json, schedule=_near_schedule | _json)
def test_loaders_either_load_or_raise_value_error(instance, schedule):
    for load, obj in ((instance_from_json, instance), (schedule_from_json, schedule)):
        try:
            load(obj)
        except ValueError:
            pass


def _optional(**strategies):
    return st.fixed_dictionaries({}, optional={k: _mostly(v) for k, v in strategies.items()})


_rational = st.sampled_from([1, "1/3", "1/2", "7/2", "1/20"])
_near_gen = st.fixed_dictionaries(
    {
        "jobs": _mostly(st.integers(0, 3)),
        "hosts": _mostly(st.integers(1, 2)),
        "horizon": _mostly(st.integers(1, 8)),
    },
    optional={
        "slack": _mostly(_rational),
        "dim": _mostly(st.integers(1, 2)),
        "laminar": _mostly(st.booleans()),
        "weight_mode": _mostly(st.sampled_from(["random", "area"])),
        "demand_lo": _mostly(_rational),
        "demand_hi": _mostly(_rational),
        "seed": _json,
        "count": _mostly(st.integers(0, 2)),
        "label": _mostly(st.sampled_from(["a", "b"])),
    },
)
_near_batch = _optional(
    seed=st.integers(0, 3) | st.text(max_size=3),
    gen=st.lists(_mostly(_near_gen), max_size=2),
    solvers=st.lists(_mostly(st.sampled_from(SOLVER_NAMES)), max_size=2),
    oracle=_optional(max_jobs=st.integers(0, 6), max_horizon=st.integers(0, 6),
                     max_hosts=st.integers(0, 2)),
    lam=_rational,
    minr=_optional(c=_rational, epsilon=_rational, omega=_rational, theta=_rational,
                   max_retries=st.integers(1, 3)),
    acceptance=st.just("check.py"),
)


@settings(max_examples=300, deadline=None)
@given(config=_near_batch | _json)
def test_batch_config_parser_either_parses_or_raises_value_error(config):
    try:
        _parse_batch_config(config)
    except ValueError:
        pass
