"""Tests of the benchmark's output checker: real outputs pass, broken ones fail.

    python3 -m pytest bench/test_check.py -q
"""

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import check  # noqa: E402
from slotsched.generator import GenSpec, generate  # noqa: E402
from slotsched.laminar import build_tree, map_window  # noqa: E402
from slotsched.maxt import solve_maxt_general, solve_maxt_laminar, solve_relaxation  # noqa: E402
from slotsched.minr import MinRParams, solve_config_lp, solve_minr  # noqa: E402
from slotsched.model import Instance, Job, Schedule, TimeWindow  # noqa: E402

LAM = Fraction(1, 3)
PARAMS = MinRParams(theta=Fraction(1, 32))


@pytest.fixture(scope="module")
def maxt_case():
    instance = generate(GenSpec(jobs=12, hosts=3, horizon=16, slack=LAM, seed="check"))
    return instance, solve_maxt_laminar(instance, lam=LAM)


@pytest.fixture(scope="module")
def minr_case():
    jobs = [
        Job(id=1, release=1, due=8, length=2, demand=(Fraction(1, 2), Fraction(3, 10)), weight=Fraction(1)),
        Job(id=2, release=2, due=9, length=1, demand=(Fraction(7, 10), Fraction(1, 5)), weight=Fraction(1)),
        Job(id=3, release=1, due=9, length=2, demand=(Fraction(2, 5), Fraction(9, 10)), weight=Fraction(1)),
        Job(id=4, release=3, due=10, length=1, demand=(Fraction(1, 10), Fraction(1, 2)), weight=Fraction(1)),
    ]
    instance = Instance(hosts=1, dim=2, jobs=tuple(jobs))
    return instance, solve_minr(instance, PARAMS, seed="check"), solve_config_lp(instance)


def test_real_outputs_pass(maxt_case, minr_case):
    check.check_maxt(*maxt_case, LAM, "single", general=False)
    instance, result, lp = minr_case
    check.check_minr(instance, result, lp, PARAMS)


def test_general_output_passes():
    lam = Fraction(1, 10)
    instance = generate(GenSpec(jobs=15, hosts=2, horizon=32, slack=lam, laminar=False, seed="g"))
    check.check_maxt(instance, solve_maxt_general(instance, lam=lam), lam, "single", general=True)


def test_overfull_bin_is_rejected(maxt_case):
    instance, result = maxt_case
    # a full-height job joins a bin that already holds a selected job
    placements = dict(result.schedule.placements)
    placements[99] = {sorted(placements[result.selected[0]])[0]}
    big = Job(id=99, release=1, due=16, length=1, demand=(Fraction(1),), weight=Fraction(0))
    crowded = instance.with_jobs([*instance.jobs, big])
    with pytest.raises(check.CheckFailed, match="overfull"):
        check.check_schedule(crowded.jobs, placements, crowded.hosts, [])


def test_slot_outside_window_is_rejected(maxt_case):
    instance, result = maxt_case
    jobs = instance.job_map()
    jid = next(j for j in result.selected if jobs[j].due < 16)
    spots = sorted(result.schedule.placements[jid])
    host, _ = spots[0]
    moved = {**result.schedule.placements, jid: frozenset([(host, jobs[jid].due + 1), *spots[1:]])}
    with pytest.raises(check.CheckFailed, match="outside"):
        check.check_maxt(instance, replace(result, schedule=Schedule(moved)), LAM, "single", general=False)


def test_two_hosts_in_one_slot_and_bad_host_are_rejected(maxt_case):
    instance, result = maxt_case
    jid = result.selected[0]
    host, slot = sorted(result.schedule.placements[jid])[0]
    twice = {**result.schedule.placements, jid: frozenset([(1, slot), (2, slot)])}
    with pytest.raises(check.CheckFailed, match="two hosts"):
        check.check_schedule(instance.jobs, twice, instance.hosts, [])
    beyond = {jid: frozenset((instance.hosts + 1, t) for _, t in result.schedule.placements[jid])}
    with pytest.raises(check.CheckFailed, match="host"):
        check.check_schedule(instance.jobs, beyond, instance.hosts, [])


def test_wrong_profit_and_lp_bound_are_rejected(maxt_case):
    instance, result = maxt_case
    with pytest.raises(check.CheckFailed, match="profit"):
        check.check_maxt(instance, replace(result, profit=result.profit + 1), LAM, "single", general=False)
    with pytest.raises(check.CheckFailed, match="lp_bound"):
        check.check_maxt(instance, replace(result, lp_bound=result.lp_bound - Fraction(1, 7)),
                         LAM, "single", general=False)


def test_perturbed_m_star_is_rejected(minr_case):
    instance, result, lp = minr_case
    for delta in (Fraction(1, 1000), -Fraction(1, 1000)):
        bad = replace(lp, m_star=lp.m_star + delta)
        with pytest.raises(check.CheckFailed):
            check.check_config_lp(instance, bad)


def test_perturbed_dual_is_rejected(minr_case):
    instance, result, lp = minr_case
    for jid in lp.alpha:
        bad = replace(lp, alpha={**lp.alpha, jid: lp.alpha[jid] + Fraction(1, 100)})
        with pytest.raises(check.CheckFailed):
            check.check_config_lp(instance, bad)
    slot = lp.slots[0]
    bad = replace(lp, gamma={**lp.gamma, slot: lp.gamma[slot] - Fraction(1, 100)})
    with pytest.raises(check.CheckFailed):
        check.check_config_lp(instance, bad)


def test_wrong_host_count_is_rejected(minr_case):
    instance, result, lp = minr_case
    with pytest.raises(check.CheckFailed, match="m1"):
        check.check_minr(instance, replace(result, m1=result.m1 + 1, hosts_used=result.hosts_used + 1),
                         lp, PARAMS)


def test_greedy_matches_the_solver_lp():
    for i in range(30):
        m = 2 + i % 4
        instance = generate(GenSpec(jobs=5 + i, hosts=m, horizon=32, slack=LAM, seed=f"lp{i}"))
        omega = check.omega_single(m, LAM)
        assert check.laminar_lp_optimum(instance.jobs, m, omega) == solve_relaxation(instance, omega).objective


def test_tree_window_matches_the_mapping():
    for horizon in (1, 5, 12, 32):
        tree = build_tree(horizon)
        for a in range(1, horizon + 1):
            for b in range(a, horizon + 1):
                mapped = map_window(tree, TimeWindow(a, b))
                assert check.tree_window(horizon, a, b) == (mapped.start, mapped.end)
