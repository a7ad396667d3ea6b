"""Exhaustive baselines: hand-checked values and internal consistency."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from slotsched.model import Instance, Job, Schedule, validate
from slotsched.oracle import (
    LimitExceeded,
    OracleLimits,
    exact_maxt,
    exact_minr,
    feasible,
    host_lower_bound,
)


def J(jid, release, due, length, s, w=None, dim=1):
    demand = tuple([Fraction(s)] * dim)
    if w is None:
        w = length * Fraction(s)
    return Job(id=jid, release=release, due=due, length=length, demand=demand, weight=Fraction(w))


def test_feasible_trivial_cases():
    # one unit job on one host
    inst = Instance(hosts=1, dim=1, jobs=(J(1, 1, 2, 1, "1/2"),))
    assert feasible(inst)
    # two full-height jobs, one slot, one host: impossible
    inst2 = Instance(hosts=1, dim=1, jobs=(J(1, 1, 1, 1, 1), J(2, 1, 1, 1, 1)))
    assert not feasible(inst2)
    assert feasible(inst2, hosts=2)
    # empty selection is always feasible
    assert feasible(inst2, ids=[])


def test_feasible_respects_total_work():
    # s=1 jobs of length 2 in window [1,3]: one host holds 3 work units,
    # so one job fits, two (4 units) do not, two hosts take all three
    jobs = tuple(J(i, 1, 3, 2, 1) for i in (1, 2, 3))
    inst = Instance(hosts=1, dim=1, jobs=jobs)
    assert not feasible(inst)
    assert not feasible(inst, ids=[1, 2])
    assert feasible(inst, ids=[1])
    assert feasible(inst, hosts=2)


def test_feasible_migration_allowed():
    # two s=0.6 jobs and one s=0.4 job, two hosts, one slot each:
    # the 0.4 job pairs with either 0.6 job
    jobs = (J(1, 1, 1, 1, "3/5"), J(2, 1, 1, 1, "3/5"), J(3, 1, 1, 1, "2/5"))
    inst = Instance(hosts=2, dim=1, jobs=jobs)
    assert feasible(inst)


def test_feasible_multidim_blocks_packing():
    # fits in dim 1, collides in dim 2
    jobs = (
        Job(id=1, release=1, due=1, length=1, demand=(Fraction(1, 4), Fraction(3, 4)), weight=Fraction(1)),
        Job(id=2, release=1, due=1, length=1, demand=(Fraction(1, 4), Fraction(1, 2)), weight=Fraction(1)),
    )
    inst = Instance(hosts=1, dim=2, jobs=jobs)
    assert not feasible(inst)
    assert feasible(inst, hosts=2)


def test_feasible_window_deadlines():
    # job 2's window forces it into slot 2; job 1 needs both slots
    jobs = (J(1, 1, 2, 2, 1), J(2, 2, 2, 1, 1))
    inst = Instance(hosts=1, dim=1, jobs=jobs)
    assert not feasible(inst)
    assert feasible(inst, hosts=2)


def test_limits_enforced():
    jobs = tuple(J(i, 1, 6, 1, "1/2") for i in range(1, 8))
    inst = Instance(hosts=1, dim=1, jobs=jobs)
    with pytest.raises(LimitExceeded):
        feasible(inst)
    assert feasible(inst, limits=OracleLimits(max_jobs=8))


@pytest.mark.parametrize("field", ["max_jobs", "max_horizon", "max_hosts"])
def test_limits_reject_negative_values(field):
    with pytest.raises(ValueError, match=field):
        OracleLimits(**{field: -1})
    assert getattr(OracleLimits(**{field: 0}), field) == 0


def test_host_lower_bound():
    # four unit-height unit-length jobs in a 2-slot window: 4 work / 2 slots = 2
    jobs = tuple(J(i, 1, 2, 1, 1) for i in (1, 2, 3, 4))
    inst = Instance(hosts=1, dim=1, jobs=jobs)
    assert host_lower_bound(inst) == 2
    assert host_lower_bound(Instance(hosts=1, dim=1, jobs=())) == 0


def test_exact_maxt_picks_best_subset():
    # one host, one slot: the two light jobs (combined weight 5) beat the
    # single heavy one (weight 4)
    jobs = (
        J(1, 1, 1, 1, "3/5", w=4),
        J(2, 1, 1, 1, "1/2", w=3),
        J(3, 1, 1, 1, "1/2", w=2),
    )
    inst = Instance(hosts=1, dim=1, jobs=jobs)
    weight, ids = exact_maxt(inst)
    assert weight == 5
    assert ids == (2, 3)


def test_exact_maxt_empty_instance():
    weight, ids = exact_maxt(Instance(hosts=1, dim=1, jobs=()))
    assert weight == 0 and ids == ()


def test_exact_minr_hand_values():
    # two full-height jobs sharing a single slot need two hosts
    inst = Instance(hosts=1, dim=1, jobs=(J(1, 1, 1, 1, 1), J(2, 1, 1, 1, 1)))
    assert exact_minr(inst) == 2
    # same two jobs with a second slot available fit on one host
    inst2 = Instance(hosts=1, dim=1, jobs=(J(1, 1, 2, 1, 1), J(2, 1, 2, 1, 1)))
    assert exact_minr(inst2) == 1
    # six pairwise-conflicting jobs in one slot
    inst3 = Instance(hosts=1, dim=1, jobs=tuple(J(i, 1, 1, 1, 1) for i in range(1, 7)))
    assert exact_minr(inst3) == 6


def test_exact_minr_multidim():
    # dim-2 demands force separation even though each dim-1 load would fit
    jobs = (
        Job(id=1, release=1, due=1, length=1, demand=(Fraction(1, 2), Fraction(3, 4)), weight=Fraction(1)),
        Job(id=2, release=1, due=1, length=1, demand=(Fraction(1, 2), Fraction(3, 4)), weight=Fraction(1)),
    )
    assert exact_minr(Instance(hosts=1, dim=2, jobs=jobs)) == 2


def _random_tiny_instance(rng: random.Random) -> Instance:
    horizon = rng.randint(2, 5)
    n = rng.randint(1, 5)
    jobs = []
    for jid in range(1, n + 1):
        a = rng.randint(1, horizon)
        b = rng.randint(a, horizon)
        p = rng.randint(1, b - a + 1)
        s = Fraction(rng.randint(1, 4), 4)
        jobs.append(J(jid, a, b, p, s, w=rng.randint(1, 5)))
    return Instance(hosts=rng.randint(1, 2), dim=1, jobs=tuple(jobs))


def test_oracle_consistency_on_random_instances():
    rng = random.Random(11)
    for _ in range(60):
        inst = _random_tiny_instance(rng)
        w, ids = exact_maxt(inst)
        assert feasible(inst, ids)
        # subset weight adds up
        jm = inst.job_map()
        assert w == sum((jm[i].weight for i in ids), Fraction(0))
        # monotone: any superset weight cannot be exceeded by its subsets
        if feasible(inst):
            assert set(ids) == {j.id for j in inst.jobs} or w >= sum(
                (j.weight for j in inst.jobs), Fraction(0)
            ) * 0  # all-feasible implies best is everything
            assert w == sum((j.weight for j in inst.jobs), Fraction(0))
        # exact_minr returns a host count that works and m-1 that does not
        m = exact_minr(inst)
        big = OracleLimits(max_hosts=max(2, m))
        assert feasible(inst, hosts=m, limits=big)
        if m > 1:
            assert not feasible(inst, hosts=m - 1, limits=big)
        assert m >= host_lower_bound(inst)
