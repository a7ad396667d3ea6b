"""Tests for the throughput pipelines: relaxation, rounding, packing, and the
four solver entry points."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from slotsched.laminar import build_tree, forest_order
from slotsched.model import Instance, Job, Schedule, area, density, slackness, validate
from slotsched.maxt import (
    FractionalSelection,
    MaxTResult,
    ScheduleError,
    SlotBins,
    alpha_split,
    class_hosts,
    general_slack_limit,
    greedy_long_lowheight,
    height_class,
    omega_single,
    omega_small,
    round_selection,
    schedule_selected,
    single_host_throughput,
    single_slack_limit,
    solve_large_heights,
    solve_maxt_general,
    solve_maxt_laminar,
    solve_maxt_logn,
    solve_relaxation,
    solve_utilization,
    utilization_bound,
)
from slotsched.oracle import OracleLimits, exact_maxt
from slotsched.simplex import LinearProgram, solve as lp_solve


def mk(jid, release, due, length, height, weight=None):
    return Job(
        id=jid,
        release=release,
        due=due,
        length=length,
        demand=(Fraction(height),),
        weight=None if weight is None else Fraction(weight),
    )


def inst(jobs, hosts=1):
    return Instance(hosts=hosts, dim=1, jobs=jobs)


def assert_selected_complete(instance, result):
    report = validate(instance, result.schedule)
    assert report.feasible, report.violations
    assert report.completed_ids == result.selected
    assert report.total_weight == result.profit


def node_area_bound_holds(instance, selected, omega, lam):
    """Selected area inside every family window chi stays at or below
    omega*m*|chi| + lam*|chi|."""
    chosen = [j for j in instance.jobs if j.id in set(selected)]
    for node in forest_order(j.window for j in instance.jobs):
        inside = sum(
            (area(j) for j in chosen if node.contains(j.window)), Fraction(0)
        )
        if inside > omega * instance.hosts * node.size + lam * node.size:
            return False
    return True


# -- guarantee-range arithmetic -------------------------------------------------


def test_alpha_and_omegas_frozen_values():
    assert alpha_split(2, Fraction(1, 3)) == Fraction(4, 15)
    assert omega_small(2, Fraction(1, 3)) == Fraction(4, 9)
    assert omega_single(2, Fraction(1, 3)) == Fraction(1, 6)
    assert single_slack_limit(2) == Fraction(1, 2)
    assert general_slack_limit(2) == Fraction(1, 8)


def test_omega_small_is_one_minus_lambda_squared():
    for m in (1, 2, 3, 5, 8):
        for lam in (Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)):
            assert omega_small(m, lam) == (1 - lam) ** 2


def test_omega_single_positive_exactly_below_limit():
    for m in (1, 2, 3, 7):
        limit = single_slack_limit(m)
        assert omega_single(m, limit) == 0
        assert omega_single(m, limit - Fraction(1, 100)) > 0


def test_utilization_bound_value():
    # m=2, lam=1/5: alpha = (1/5)(4/5) / (4/5 + 1/10) = 8/45
    assert alpha_split(2, Fraction(1, 5)) == Fraction(8, 45)
    assert utilization_bound(2, Fraction(1, 5)) == Fraction(37, 45) * Fraction(1, 5) / 3


# -- LP relaxation ----------------------------------------------------------------


def test_relaxation_hand_instance():
    # m=1, omega=1/2.  Window [1,2] caps B at area 1; window [1,4] caps
    # 2 x_A + x_B at 2.  Density favors B: x_B = 1, x_A = 1/2, objective 4.
    a = mk(1, 1, 4, 2, 1, weight=2)
    b = mk(2, 1, 2, 1, 1, weight=3)
    instance = inst([a, b])
    sel = solve_relaxation(instance, Fraction(1, 2))
    assert sel.objective == 4
    assert sel.values == {1: Fraction(1, 2), 2: Fraction(1)}


def test_relaxation_rejects_nonlaminar_and_bad_omega():
    a = mk(1, 1, 3, 1, 1, weight=1)
    b = mk(2, 2, 4, 1, 1, weight=1)
    with pytest.raises(ValueError, match="laminar"):
        solve_relaxation(inst([a, b]), Fraction(1, 2))
    with pytest.raises(ValueError, match="omega"):
        solve_relaxation(inst([a]), Fraction(0))


def test_relaxation_empty_instance():
    sel = solve_relaxation(inst([]), Fraction(1, 2))
    assert sel.objective == 0 and sel.values == {}


def relaxation_lp(instance, omega):
    """The relaxation as an explicit LP, solved by the exact simplex: one
    box-bounded column per job and one area row per family window."""
    jobs = sorted(instance.jobs, key=lambda j: j.id)
    lp = LinearProgram("max")
    col = {job.id: lp.add_variable(objective=job.weight, lo=0, hi=1) for job in jobs}
    for node in forest_order(job.window for job in jobs):
        coeffs = {col[job.id]: area(job) for job in jobs if node.contains(job.window)}
        lp.add_row(coeffs, "<=", omega * instance.hosts * node.size)
    sol = lp_solve(lp)
    assert sol.optimal
    return sol.objective, {job.id: sol.x[col[job.id]] for job in jobs}


def test_relaxation_zero_weights_stay_at_zero():
    # m=1, omega=1/2: [1,4] caps all three at area 2.  A (weight 2) takes
    # area 1; a greedy that also filled the zero-weight B would raise x_B to
    # 1 at no gain, which changes the selected set downstream.
    a = mk(1, 1, 4, 1, 1, weight=2)
    b = mk(2, 1, 2, 1, 1, weight=0)
    c = mk(3, 3, 4, 1, 1, weight=0)
    instance = inst([a, b, c])
    sel = solve_relaxation(instance, Fraction(1, 2))
    assert sel.objective == 2
    assert sel.values == {1: Fraction(1), 2: Fraction(0), 3: Fraction(0)}
    assert relaxation_lp(instance, Fraction(1, 2)) == (sel.objective, sel.values)
    assert round_selection(instance, sel).selected == (1,)


def test_relaxation_density_ties_fill_the_lower_id_first():
    # m=1, omega=1/2: [1,4] holds area 2; three unit jobs of density 1 tie,
    # so ids 1 and 2 fill and id 3 gets nothing, as the simplex also returns
    jobs = [mk(jid, 1, 4, 1, 1, weight=1) for jid in (3, 1, 2)]
    instance = inst(jobs)
    sel = solve_relaxation(instance, Fraction(1, 2))
    assert sel.values == {1: Fraction(1), 2: Fraction(1), 3: Fraction(0)}
    assert relaxation_lp(instance, Fraction(1, 2)) == (sel.objective, sel.values)


@pytest.mark.parametrize("weights", ["random-with-zeros", "area"])
def test_relaxation_greedy_matches_simplex(weights):
    rng = random.Random(f"relaxation:{weights}")
    unique = 0
    for _ in range(60):
        instance = _laminar_instance(rng, hosts=rng.randint(1, 3), horizon=rng.randint(8, 16))
        if weights == "area":
            jobs = [replace(job, weight=None) for job in instance.jobs]
        else:
            jobs = [replace(job, weight=0) if rng.random() < 0.3 else job for job in instance.jobs]
        instance = inst(jobs, hosts=instance.hosts)
        omega = rng.choice([Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)])
        sel = solve_relaxation(instance, omega)
        objective, values = relaxation_lp(instance, omega)
        assert sel.objective == objective
        assert list(sel.values) == sorted(sel.values)
        assert all(sel.values[job.id] == 0 for job in jobs if job.weight == 0)
        densities = [job.weight / area(job) for job in jobs if job.weight > 0]
        if len(set(densities)) == len(densities):  # the optimum is unique
            unique += 1
            assert sel.values == values
    if weights != "area":
        assert unique >= 30


def test_relaxation_integer_scale_matches_simplex():
    # 2-3 dimensional demands whose max component has denominator 7, 9, 10
    # or 12, and omegas such as 7/20 and 5/12: the common integer scale of
    # capacities and areas mixes all of them
    rng = random.Random("relaxation:scale")
    unique = 0
    for _ in range(50):
        horizon = rng.randint(8, 16)
        nodes = [nd.window for nd in build_tree(horizon).nodes() if nd.window.size >= 2]
        dim = rng.randint(2, 3)
        jobs = []
        for jid in range(1, rng.randint(2, 9) + 1):
            w = rng.choice(nodes)
            demand = tuple(
                Fraction(rng.randint(1, den), den) for den in rng.choices([7, 9, 10, 12], k=dim)
            )
            weight = rng.choice([0, Fraction(rng.randint(1, 30), rng.randint(1, 6))])
            jobs.append(Job(jid, w.start, w.end, rng.randint(1, w.size // 2), demand, weight))
        instance = Instance(hosts=rng.randint(1, 3), dim=dim, jobs=jobs)
        omega = rng.choice([Fraction(7, 20), Fraction(5, 12), Fraction(3, 7), Fraction(2, 9)])
        sel = solve_relaxation(instance, omega)
        objective, values = relaxation_lp(instance, omega)
        assert sel.objective == objective
        assert all(sel.values[job.id] == 0 for job in jobs if job.weight == 0)
        densities = [density(job) for job in jobs if job.weight > 0]
        if len(set(densities)) == len(densities):
            unique += 1
            assert sel.values == values
    assert unique >= 30


def test_relaxation_respects_every_window_cap():
    rng = random.Random(7)
    for _ in range(25):
        instance = _laminar_instance(rng, hosts=2, horizon=8)
        omega = Fraction(1, 3)
        sel = solve_relaxation(instance, omega)
        jm = instance.job_map()
        for node in forest_order(j.window for j in instance.jobs):
            used = sum(
                (area(jm[j]) * x for j, x in sel.values.items() if node.contains(jm[j].window)),
                Fraction(0),
            )
            assert used <= omega * instance.hosts * node.size
        assert all(0 <= x <= 1 for x in sel.values.values())


# -- rounding ----------------------------------------------------------------------


def test_rounding_transfers_area_down_to_denser_job():
    # A (window [1,4], area 2, density 1) sits above B (window [1,2], area 1,
    # density 3); both at x = 1/2.  Draining A into B: B reaches 1, A keeps
    # area 1/2, i.e. x_A = 1/4.  Both end up selected.
    a = mk(1, 1, 4, 2, 1, weight=2)
    b = mk(2, 1, 2, 1, 1, weight=3)
    instance = inst([a, b])
    rr = round_selection(instance, {1: Fraction(1, 2), 2: Fraction(1, 2)})
    assert rr.adjusted == {1: Fraction(1, 4), 2: Fraction(1)}
    assert rr.selected == (1, 2)


def test_rounding_normalizes_same_window_fractions():
    # Same window, same area, densities 3 vs 1: all area flows to the denser
    # job, the other drops to zero and is not selected.
    c = mk(1, 1, 4, 2, 1, weight=6)
    d = mk(2, 1, 4, 2, 1, weight=2)
    instance = inst([c, d])
    rr = round_selection(instance, {1: Fraction(1, 2), 2: Fraction(1, 2)})
    assert rr.adjusted == {1: Fraction(1), 2: Fraction(0)}
    assert rr.selected == (1,)


def test_rounding_zero_values_stay_out():
    a = mk(1, 1, 4, 1, 1, weight=1)
    b = mk(2, 1, 4, 1, 1, weight=1)
    rr = round_selection(inst([a, b]), {1: Fraction(0), 2: Fraction(1)})
    assert rr.selected == (2,)


def test_rounding_rejects_bad_input():
    a = mk(1, 1, 4, 1, 1, weight=1)
    with pytest.raises(ValueError, match="unknown job"):
        round_selection(inst([a]), {9: Fraction(1, 2)})
    with pytest.raises(ValueError, match="outside"):
        round_selection(inst([a]), {1: Fraction(3, 2)})


def test_rounding_never_loses_lp_profit_on_corpus():
    # random weights, then area weights, under which every density ties
    rng = random.Random(11)
    for weights in ["random"] * 40 + ["area"] * 40:
        instance = _laminar_instance(rng, hosts=rng.choice([1, 2, 3]), horizon=8, weights=weights)
        lam = slackness(instance)
        omega = omega_single(instance.hosts, lam)
        if omega <= 0:
            continue
        sel = solve_relaxation(instance, omega)
        rr = round_selection(instance, sel)
        jm = instance.job_map()
        profit = sum((jm[j].weight for j in rr.selected), Fraction(0))
        assert profit >= sel.objective
        assert node_area_bound_holds(instance, rr.selected, omega, lam)
        # at most one fractional job per root-to-leaf chain of windows
        fracs = [j for j, x in rr.adjusted.items() if 0 < x < 1]
        for i in fracs:
            for j in fracs:
                if i < j:
                    wi, wj = jm[i].window, jm[j].window
                    assert not (wi.contains(wj) or wj.contains(wi))


def _reference_round(instance, values):
    """The rounding as a scan over every job per window (the former
    implementation), kept to pin round_selection's output."""
    values = dict(values)
    jobs = instance.job_map()

    def fractional(jid):
        return 0 < values[jid] < 1

    def move_area(donor, receiver):
        a_d, a_r = area(jobs[donor]), area(jobs[receiver])
        give = min(a_d * values[donor], a_r * (1 - values[receiver]))
        values[donor] -= give / a_d
        values[receiver] += give / a_r

    order = forest_order(jobs[j].window for j in values)
    by_density = lambda jid: (-density(jobs[jid]), jid)
    for node in order:
        while True:
            fracs = sorted(
                (j for j in values if jobs[j].window == node and fractional(j)), key=by_density
            )
            if len(fracs) < 2:
                break
            move_area(fracs[-1], fracs[0])
    for node in order:
        here = [j for j in values if jobs[j].window == node and fractional(j)]
        if not here:
            continue
        (jid,) = here
        below = sorted(
            (
                k
                for k in values
                if fractional(k) and jobs[k].window != node and node.contains(jobs[k].window)
            ),
            key=by_density,
        )
        for k in below:
            if not fractional(jid):
                break
            move_area(jid, k)
    return tuple(sorted(j for j, x in values.items() if x > 0)), values


def test_rounding_matches_reference_scan_on_arbitrary_values():
    # arbitrary (not LP-optimal) values, mostly fractional, several per
    # window, keyed in random order and often for a subset of the jobs only
    rng = random.Random("rounding:reference")
    moved = 0
    for _ in range(150):
        instance = _laminar_instance(
            rng, hosts=rng.randint(1, 3), horizon=rng.choice([8, 16]), n=rng.randint(1, 14),
            weights=rng.choice(["random", "area"]),
        )
        ids = [j.id for j in instance.jobs]
        rng.shuffle(ids)
        if rng.random() < 0.5:
            ids = ids[: rng.randint(0, len(ids))]
        values = {
            jid: rng.choice([Fraction(0), Fraction(1)] + [Fraction(rng.randint(1, 11), 12)] * 3)
            for jid in ids
        }
        rr = round_selection(instance, values)
        selected, adjusted = _reference_round(instance, values)
        assert rr.selected == selected
        assert list(rr.adjusted.items()) == list(adjusted.items())
        moved += rr.adjusted != values
    assert moved >= 75


def test_rounding_needs_laminar_fractional_windows():
    a = mk(1, 1, 3, 1, 1, weight=1)
    b = mk(2, 2, 4, 1, 1, weight=2)
    c = mk(3, 1, 4, 1, 1, weight=3)
    instance = inst([a, b, c])
    # crossing windows are fine while one of the two is integral
    values = {1: Fraction(1), 2: Fraction(1, 2), 3: Fraction(1, 2)}
    assert round_selection(instance, values).selected == _reference_round(instance, values)[0]
    with pytest.raises(ValueError, match="not laminar"):
        round_selection(instance, {1: Fraction(1, 2), 2: Fraction(1, 2)})


# -- bin mechanics ------------------------------------------------------------------


def test_pairing_gray_white_black_sequence():
    bins = SlotBins(hosts=2, horizon=2)
    # first unit opens (1,1) as gray
    assert bins.allocate_pairing(1, Fraction(3, 5), [1, 2]) == (1, 1)
    assert bins.color_of(1, 1) == "gray"
    # 0.6 does not fit on the gray bin: goes to first white (1,2), black pair
    assert bins.allocate_pairing(2, Fraction(3, 5), [1, 2]) == (1, 2)
    assert bins.color_of(1, 1) == "black" and bins.color_of(1, 2) == "black"
    assert bins.pairs == [((1, 1), (1, 2))]
    assert bins.load_of(1, 1) + bins.load_of(1, 2) > 1
    # no gray left: (2,1) opens as the new gray
    assert bins.allocate_pairing(3, Fraction(3, 10), [1, 2]) == (2, 1)
    assert bins.color_of(2, 1) == "gray"
    # fits on the gray
    assert bins.allocate_pairing(4, Fraction(1, 2), [1, 2]) == (2, 1)
    assert bins.load_of(2, 1) == Fraction(4, 5)
    assert bins.color_of(2, 1) == "gray"


def test_pairing_fails_without_white_bin():
    bins = SlotBins(hosts=1, horizon=1)
    bins.allocate_pairing(1, Fraction(3, 5), [1])
    with pytest.raises(ScheduleError):
        bins.allocate_pairing(2, Fraction(3, 5), [1])


def test_pairing_respects_avail_restriction():
    bins = SlotBins(hosts=1, horizon=4)
    assert bins.allocate_pairing(1, Fraction(1, 2), [3, 4]) == (1, 3)


class _ReferenceBins(SlotBins):
    """allocate_pairing as a scan over every bin of `avail` in host-major
    order (the former implementation), kept to pin the per-slot state."""

    def allocate_pairing(self, job_id, height, avail):
        ordered = sorted(set(avail))
        candidates = [(h, t) for h in range(1, self.hosts + 1) for t in ordered]
        grays = [b for b in candidates if self.color_of(*b) == "gray"]
        if grays:
            for b in grays:
                if self.load_of(*b) + height <= 1:
                    self.place(*b, height)
                    return b
            for b in candidates:
                if self.color_of(*b) == "white":
                    self.place(*b, height)
                    self.color[grays[0]] = "black"
                    self.color[b] = "black"
                    self.pairs.append((grays[0], b))
                    return b
            raise ScheduleError(job_id, "no gray bin fits and no white bin available")
        for b in candidates:
            if self.color_of(*b) == "white":
                self.place(*b, height)
                self.color[b] = "gray"
                return b
        raise ScheduleError(job_id, "no white bin available to open")


def _allocate(bins, unit, height, avail):
    try:
        return bins.allocate_pairing(unit, height, avail)
    except ScheduleError as exc:
        return str(exc)


def test_pairing_matches_reference_scan():
    rng = random.Random("pairing:reference")
    errors = {"no gray bin fits": 0, "no white bin available to open": 0}
    for _ in range(300):
        hosts, horizon = rng.randint(1, 4), rng.randint(1, 6)
        bins, ref = SlotBins(hosts, horizon), _ReferenceBins(hosts, horizon)
        for unit in range(rng.randint(1, 3 * hosts * horizon)):
            height = Fraction(rng.randint(1, 12), rng.choice([2, 3, 4, 5, 12]))
            height = min(height, Fraction(1))
            # unsorted, sometimes with repeats or empty
            avail = rng.choices(range(1, horizon + 1), k=rng.randint(0, horizon))
            got = _allocate(bins, unit, height, avail)
            assert got == _allocate(ref, unit, height, avail)
            for prefix in errors:
                errors[prefix] += isinstance(got, str) and prefix in got
        assert list(bins.load.items()) == list(ref.load.items())
        assert list(bins.color.items()) == list(ref.color.items())
        assert bins.pairs == ref.pairs
    # runs exhaust the white bins, with and without a gray in reach
    assert min(errors.values()) >= 20


def test_open_host_strict_threshold():
    bins = SlotBins(hosts=1, horizon=2)
    bins.place(1, 1, Fraction(1, 2))
    # capacity check is strict: a bin exactly (1-s) full is not open for s
    assert bins.open_host(1, Fraction(1, 2)) is None
    assert bins.open_host(2, Fraction(1, 2)) == 1


def test_schedule_selected_smallfit_raises_when_short_of_good_slots():
    e = mk(1, 1, 2, 1, Fraction(1, 2), weight=1)
    f = mk(2, 1, 2, 2, Fraction(1, 2), weight=1)
    with pytest.raises(ScheduleError):
        schedule_selected(inst([e, f]), [1, 2], mode="smallfit")


def test_schedule_selected_smallfit_places_first_good_slots():
    e = mk(1, 1, 4, 2, Fraction(1, 4), weight=1)
    schedule, bins = schedule_selected(inst([e]), [1], mode="smallfit")
    assert schedule.placements[1] == frozenset({(1, 1), (1, 2)})
    assert bins.load_of(1, 1) == Fraction(1, 4)


def test_schedule_selected_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        schedule_selected(inst([]), [], mode="hopeful")


# -- exact single-host throughput ------------------------------------------------


def test_single_host_picks_heavier_of_conflicting():
    a = mk(1, 1, 2, 2, 1, weight=5)
    b = mk(2, 1, 2, 2, 1, weight=4)
    weight, ids, assign = single_host_throughput([a, b])
    assert (weight, ids) == (5, (1,))
    assert assign == {1: {1, 2}}


def test_single_host_earliest_due_first():
    a = mk(1, 1, 1, 1, 1, weight=3)
    b = mk(2, 1, 2, 1, 1, weight=3)
    weight, ids, assign = single_host_throughput([a, b])
    assert (weight, ids) == (6, (1, 2))
    assert assign == {1: {1}, 2: {2}}


def test_single_host_empty():
    assert single_host_throughput([]) == (Fraction(0), (), {})


def test_single_host_matches_exact_oracle():
    # Unit heights on one host make the two models identical.
    rng = random.Random(23)
    limits = OracleLimits(max_jobs=5, max_horizon=5, max_hosts=1)
    for _ in range(40):
        jobs = []
        for jid in range(1, rng.randint(2, 5) + 1):
            r = rng.randint(1, 4)
            d = rng.randint(r, 5)
            p = rng.randint(1, d - r + 1)
            jobs.append(mk(jid, r, d, p, 1, weight=rng.randint(1, 9)))
        instance = inst(jobs)
        weight, ids, assign = single_host_throughput(jobs)
        best, _ = exact_maxt(instance, limits=limits)
        assert weight == best
        placements = {j: {(1, t) for t in slots} for j, slots in assign.items()}
        report = validate(instance, Schedule.from_pairs(placements))
        assert report.feasible and set(report.completed_ids) == set(ids)


# -- height classes -----------------------------------------------------------------


def test_height_class_and_class_hosts_frozen():
    delta, eps = Fraction(2, 5), Fraction(1)
    assert height_class(Fraction(9, 20), delta, eps) == 0
    assert height_class(Fraction(9, 10), delta, eps) == 1
    assert class_hosts(2, delta, eps, 0) == 4
    assert class_hosts(2, delta, eps, 1) == 2
    with pytest.raises(ValueError, match="below delta"):
        height_class(Fraction(1, 5), delta, eps)


def test_large_heights_trims_virtual_hosts_to_fit():
    # Two conflicting jobs, height 0.45 => class 0 with 2 virtual hosts on
    # m=1, but only floor(2/2)=1 strip embeds at original heights: the
    # heavier strip survives.
    g = mk(1, 1, 2, 2, Fraction(9, 20), weight=5)
    h = mk(2, 1, 2, 2, Fraction(9, 20), weight=4)
    res = solve_large_heights(inst([g, h]), delta=Fraction(2, 5))
    assert res.selected == (1,)
    assert res.profit == 5
    assert_selected_complete(inst([g, h]), res)


def test_large_heights_keeps_both_when_capacity_allows():
    g = mk(1, 1, 2, 2, Fraction(9, 20), weight=5)
    h = mk(2, 1, 2, 2, Fraction(9, 20), weight=4)
    res = solve_large_heights(inst([g, h], hosts=2), delta=Fraction(2, 5))
    assert res.selected == (1, 2)
    assert res.profit == 9
    assert_selected_complete(inst([g, h], hosts=2), res)


def test_large_heights_picks_best_class():
    low = mk(1, 1, 2, 2, Fraction(9, 20), weight=5)
    high = mk(2, 3, 4, 2, Fraction(9, 10), weight=7)
    instance = inst([low, high])
    res = solve_large_heights(instance, delta=Fraction(2, 5))
    assert res.selected == (2,)
    assert res.profit == 7
    assert_selected_complete(instance, res)


def test_large_heights_validates_on_corpus():
    rng = random.Random(31)
    for _ in range(30):
        jobs = []
        for jid in range(1, rng.randint(2, 7) + 1):
            r = rng.randint(1, 6)
            d = rng.randint(r, 8)
            p = rng.randint(1, d - r + 1)
            s = Fraction(rng.randint(4, 10), 10)
            jobs.append(mk(jid, r, d, p, s, weight=rng.randint(1, 9)))
        instance = inst(jobs, hosts=rng.choice([1, 2]))
        res = solve_large_heights(instance, delta=Fraction(2, 5))
        assert_selected_complete(instance, res)


def test_large_heights_rejects_bad_params():
    j = mk(1, 1, 2, 1, Fraction(1, 2), weight=1)
    with pytest.raises(ValueError, match="delta"):
        solve_large_heights(inst([j]), delta=Fraction(0))
    with pytest.raises(ValueError, match="eps"):
        solve_large_heights(inst([j]), delta=Fraction(1, 2), eps=Fraction(0))


# -- corpora ------------------------------------------------------------------------


def _laminar_instance(
    rng, hosts, horizon=8, lam=Fraction(1, 3), n=None, heights="mixed", weights="random"
):
    """Random laminar instance: windows drawn from the split tree over
    [1, horizon], lengths at most lam * |window| (only nodes where that floor
    is at least 1).  weights="area" leaves every weight at the job's area."""
    tree = build_tree(horizon)
    nodes = [
        nd.window for nd in tree.nodes() if math.floor(nd.window.size * lam) >= 1
    ]
    jobs = []
    n = n if n is not None else rng.randint(2, 8)
    for jid in range(1, n + 1):
        w = rng.choice(nodes)
        p = rng.randint(1, math.floor(w.size * lam))
        if heights == "mixed":
            s = Fraction(rng.randint(1, 8), 8)
        elif heights == "small":
            s = Fraction(rng.randint(1, 4), 15)  # <= alpha(2, 1/3) = 4/15
        else:
            raise AssertionError(heights)
        weight = rng.randint(1, 20) if weights == "random" else None
        jobs.append(mk(jid, w.start, w.end, p, s, weight=weight))
    return inst(jobs, hosts=hosts)


def _general_instance(rng, hosts=2, horizon=16, min_len=10, n=None):
    """Arbitrary windows of length >= min_len, unit processing, so measured
    slackness stays at or below 1/min_len."""
    jobs = []
    n = n if n is not None else rng.randint(2, 8)
    for jid in range(1, n + 1):
        length = rng.randint(min_len, horizon)
        r = rng.randint(1, horizon - length + 1)
        s = Fraction(rng.randint(1, 8), 8)
        jobs.append(mk(jid, r, r + length - 1, 1, s, weight=rng.randint(1, 20)))
    return inst(jobs, hosts=hosts)


# -- laminar solver -----------------------------------------------------------------


def test_laminar_single_end_to_end_corpus():
    rng = random.Random(43)
    for _ in range(40):
        m = rng.choice([2, 3])
        instance = _laminar_instance(rng, hosts=m)
        lam = Fraction(1, 3)
        res = solve_maxt_laminar(instance, lam=lam, variant="single")
        assert res.path == "laminar-single"
        assert res.omega == omega_single(m, lam)
        assert res.profit >= res.lp_bound
        assert_selected_complete(instance, res)
        assert node_area_bound_holds(instance, res.selected, res.omega, slackness(instance))


def test_laminar_single_rejects_excess_slackness():
    # p = |window| gives slackness 1 >= 1 - 2/(m+2)
    j = mk(1, 1, 4, 4, Fraction(1, 2), weight=1)
    with pytest.raises(ValueError, match="lambda"):
        solve_maxt_laminar(inst([j], hosts=2), variant="single")


def test_laminar_single_rejects_nonlaminar():
    a = mk(1, 1, 3, 1, 1, weight=1)
    b = mk(2, 2, 4, 1, 1, weight=1)
    with pytest.raises(ValueError, match="laminar"):
        solve_maxt_laminar(inst([a, b]), variant="single")


def test_laminar_empty():
    res = solve_maxt_laminar(inst([]), variant="single")
    assert res.profit == 0 and res.selected == ()


def test_laminar_split_small_jobs_use_smallfit():
    rng = random.Random(47)
    for _ in range(25):
        instance = _laminar_instance(rng, hosts=2, heights="small")
        res = solve_maxt_laminar(instance, lam=Fraction(1, 3), variant="split")
        assert res.path == "laminar-split-small"
        assert res.omega == Fraction(4, 9)
        assert res.profit >= res.lp_bound
        assert_selected_complete(instance, res)


def test_laminar_split_prefers_better_side():
    # One small job of trivial weight, one tall heavy job: the large-height
    # side must win.
    small = mk(1, 1, 8, 1, Fraction(1, 15), weight=1)
    tall = mk(2, 1, 8, 2, Fraction(9, 10), weight=50)
    instance = inst([small, tall], hosts=2)
    res = solve_maxt_laminar(instance, lam=Fraction(1, 3), variant="split")
    assert res.path == "large-heights"
    assert res.selected == (2,)
    assert_selected_complete(instance, res)


def test_laminar_split_mixed_corpus_runs_clean():
    rng = random.Random(53)
    for _ in range(25):
        instance = _laminar_instance(rng, hosts=2, heights="mixed")
        res = solve_maxt_laminar(instance, lam=Fraction(1, 3), variant="split")
        assert_selected_complete(instance, res)


# -- general solver ------------------------------------------------------------------


def test_general_single_schedules_validate_on_original():
    rng = random.Random(59)
    for _ in range(30):
        instance = _general_instance(rng, hosts=2)
        res = solve_maxt_general(instance, variant="single")
        assert res.path == "general-laminar-single"
        assert res.dropped == ()
        assert res.profit >= res.lp_bound
        assert_selected_complete(instance, res)


def test_general_rejects_excess_slackness():
    j = mk(1, 1, 4, 2, Fraction(1, 2), weight=1)  # slackness 1/2 > 1/8
    with pytest.raises(ValueError, match="lambda"):
        solve_maxt_general(inst([j], hosts=2), variant="single")
    with pytest.raises(ValueError, match="lambda"):
        solve_maxt_general(inst([j], hosts=2), variant="split")


def test_general_split_variant_runs():
    rng = random.Random(61)
    for _ in range(15):
        instance = _general_instance(rng, hosts=2)
        res = solve_maxt_general(instance, variant="split")
        assert_selected_complete(instance, res)


# -- log-n fallback ------------------------------------------------------------------


def test_logn_tall_side_wins():
    tiny1 = mk(1, 1, 4, 1, Fraction(1, 4), weight=1)
    tiny2 = mk(2, 1, 4, 1, Fraction(1, 4), weight=1)
    tall = mk(3, 1, 4, 2, Fraction(9, 10), weight=10)
    instance = inst([tiny1, tiny2, tall])
    res = solve_maxt_logn(instance)
    assert res.path == "logn-tall"
    assert res.selected == (3,)
    assert_selected_complete(instance, res)


def test_logn_tiny_side_wins():
    tiny1 = mk(1, 1, 4, 2, Fraction(1, 4), weight=6)
    tiny2 = mk(2, 1, 4, 2, Fraction(1, 4), weight=6)
    tall = mk(3, 1, 4, 2, Fraction(9, 10), weight=10)
    instance = inst([tiny1, tiny2, tall])
    res = solve_maxt_logn(instance)
    assert res.path == "logn-tiny"
    assert res.selected == (1, 2)
    assert res.profit == 12
    assert_selected_complete(instance, res)


def test_logn_empty():
    assert solve_maxt_logn(inst([])).profit == 0


def test_logn_corpus_validates():
    rng = random.Random(67)
    for _ in range(30):
        jobs = []
        n = rng.randint(2, 6)
        for jid in range(1, n + 1):
            r = rng.randint(1, 6)
            d = rng.randint(r, 8)
            p = rng.randint(1, d - r + 1)
            s = Fraction(rng.randint(1, 12), 12)
            jobs.append(mk(jid, r, d, p, s, weight=rng.randint(1, 9)))
        instance = inst(jobs, hosts=rng.choice([1, 2]))
        res = solve_maxt_logn(instance)
        assert_selected_complete(instance, res)


# -- utilization ----------------------------------------------------------------------


def test_utilization_weights_are_areas():
    # One long low job alone: admitted by the greedy, profit equals its area.
    j = mk(1, 1, 5, 3, Fraction(8, 45), weight=999)  # alpha(2, 1/5) = 8/45
    instance = inst([j], hosts=2)
    res = solve_utilization(instance, lam=Fraction(1, 5))
    assert res.selected == (1,)
    assert res.profit == area(j) == Fraction(8, 15)


def test_utilization_greedy_admits_by_window_size():
    lam = Fraction(1, 5)
    wide = mk(1, 1, 8, 4, Fraction(1, 10), weight=None)
    narrow = mk(2, 1, 4, 2, Fraction(1, 10), weight=None)
    instance = inst([wide, narrow], hosts=1)
    res = greedy_long_lowheight(instance, lam)
    assert set(res.selected) == {1, 2}
    report = validate(instance, res.schedule)
    assert report.feasible


def test_utilization_rejects_bad_lambda():
    j = mk(1, 1, 5, 3, Fraction(1, 10), weight=1)
    with pytest.raises(ValueError, match="lambda"):
        solve_utilization(inst([j]), lam=Fraction(1, 4))
    with pytest.raises(ValueError, match="lambda"):
        solve_utilization(inst([j]), lam=Fraction(0))


def test_utilization_corpus_validates_and_counts_area():
    rng = random.Random(71)
    for _ in range(25):
        jobs = []
        n = rng.randint(2, 7)
        for jid in range(1, n + 1):
            if rng.random() < 0.4:  # short job: length <= |window| / 5
                length = rng.randint(5, 12)
                r = rng.randint(1, 16 - length + 1)
                p = rng.randint(1, length // 5)
            else:  # long job
                length = rng.randint(2, 8)
                r = rng.randint(1, 16 - length + 1)
                p = rng.randint(length // 5 + 1, length)
            s = Fraction(rng.randint(1, 10), 10)
            jobs.append(mk(jid, r, r + length - 1, p, s, weight=rng.randint(1, 9)))
        instance = inst(jobs, hosts=rng.choice([1, 2]))
        res = solve_utilization(instance)
        jm = instance.job_map()
        assert res.profit == sum((area(jm[j]) for j in res.selected), Fraction(0))
        report = validate(instance, res.schedule)
        assert report.feasible, report.violations
        assert report.completed_ids == res.selected


# -- determinism -----------------------------------------------------------------------


def test_solvers_are_deterministic():
    rng = random.Random(73)
    instance = _laminar_instance(rng, hosts=2)
    first = solve_maxt_laminar(instance, lam=Fraction(1, 3), variant="single")
    second = solve_maxt_laminar(instance, lam=Fraction(1, 3), variant="single")
    assert first.to_json() == second.to_json()
    rng2 = random.Random(73)
    general = _general_instance(rng2)
    g1 = solve_maxt_general(general, variant="single")
    g2 = solve_maxt_general(general, variant="single")
    assert g1.to_json() == g2.to_json()
