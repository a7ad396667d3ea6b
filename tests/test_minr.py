"""Tests for host minimization: configuration LP, pricing, sampling,
residual scheduling, the end-to-end solver, and the window-size partition."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slotsched import minr
from slotsched.laminar import build_tree, map_window
from slotsched.maxt import ScheduleError, best_subset
from slotsched.minr import (
    ConfigLpResult,
    Configuration,
    MinRError,
    MinRParams,
    ResidualJob,
    build_residual,
    config_fits,
    draw_count,
    log2_factor,
    partition_by_window,
    price_column,
    psi_table,
    residual_area_report,
    residual_avail,
    sample_configurations,
    schedule_residual,
    slab_windows,
    solve_config_lp,
    solve_minr,
    split_residuals,
    window_condition_threshold,
)
from slotsched.generator import GenSpec, generate
from slotsched.model import Instance, Job, TimeWindow, slackness, validate
from slotsched.oracle import OracleLimits, exact_minr
from slotsched.simplex import LinearProgram, solve


def mk(jid, release, due, length, demand, weight=1):
    if not isinstance(demand, tuple):
        demand = (Fraction(demand),)
    else:
        demand = tuple(Fraction(s) for s in demand)
    return Job(
        id=jid, release=release, due=due, length=length, demand=demand,
        weight=Fraction(weight),
    )


def inst(jobs, hosts=1, dim=1):
    return Instance(hosts=hosts, dim=dim, jobs=jobs)


def check_lp_invariants(instance, lpsol):
    """The three primal constraint families, exactly."""
    per_slot = {}
    per_pair = {}
    per_job = {j.id: Fraction(0) for j in instance.jobs}
    for c, x in lpsol.columns:
        assert x > 0
        assert config_fits(instance, c.jobs, c.slot)
        per_slot[c.slot] = per_slot.get(c.slot, Fraction(0)) + x
        for jid in c.jobs:
            per_pair[(jid, c.slot)] = per_pair.get((jid, c.slot), Fraction(0)) + x
            per_job[jid] += x
    for t, total in per_slot.items():
        assert total <= lpsol.m_star
    for key, total in per_pair.items():
        assert total <= 1
    jm = instance.job_map()
    for jid, total in per_job.items():
        assert total >= jm[jid].length


# -- configurations and pricing ----------------------------------------------------


def test_config_fits_checks_windows_and_capacity():
    a = mk(1, 1, 2, 1, (Fraction(3, 5), Fraction(1, 5)))
    b = mk(2, 1, 3, 1, (Fraction(1, 2), Fraction(9, 10)))
    instance = inst([a, b], dim=2)
    assert config_fits(instance, [1], 1)
    assert not config_fits(instance, [1], 3)  # outside a's window
    assert not config_fits(instance, [1, 2], 2)  # dim-2 load 1.1


def test_price_column_hand_example():
    # profits 5, 4, 3 with sizes 0.6, 0.5, 0.4: best is {first, third} at 8
    jobs = [
        mk(1, 1, 1, 1, Fraction(3, 5)),
        mk(2, 1, 1, 1, Fraction(1, 2)),
        mk(3, 1, 1, 1, Fraction(2, 5)),
    ]
    alpha = {1: Fraction(5), 2: Fraction(4), 3: Fraction(3)}
    value, chosen = price_column(inst(jobs), 1, alpha, {})
    assert value == 8
    assert chosen == frozenset({1, 3})


def test_price_column_nonpositive_profits():
    jobs = [mk(1, 1, 1, 1, Fraction(1, 2))]
    value, chosen = price_column(inst(jobs), 1, {1: Fraction(0)}, {})
    assert (value, chosen) == (0, frozenset())


def test_price_column_multidim_blocking():
    jobs = [
        mk(1, 1, 1, 1, (Fraction(3, 5), Fraction(1, 5))),
        mk(2, 1, 1, 1, (Fraction(1, 2), Fraction(9, 10))),
    ]
    alpha = {1: Fraction(5), 2: Fraction(4)}
    value, chosen = price_column(inst(jobs, dim=2), 1, alpha, {})
    assert value == 5
    assert chosen == frozenset({1})


def test_price_column_beta_reduces_profit():
    jobs = [mk(1, 1, 2, 1, Fraction(1, 2))]
    alpha = {1: Fraction(3)}
    beta = {(1, 1): Fraction(3)}  # cancels at slot 1, not at slot 2
    assert price_column(inst(jobs), 1, alpha, beta) == (0, frozenset())
    assert price_column(inst(jobs), 2, alpha, beta) == (3, frozenset({1}))


def test_price_column_searches_past_the_recursion_limit():
    # every job fits, and the search goes one level per job
    jobs = [mk(j, 1, 1, 1, Fraction(1, 2000)) for j in range(1, 1101)]
    alpha = {j.id: Fraction(1) for j in jobs}
    assert price_column(inst(jobs), 1, alpha, {}) == (1100, frozenset(range(1, 1101)))


def test_price_column_matches_exhaustive_search():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 8)
        dim = rng.choice([1, 2, 3])
        jobs = [
            mk(j, 1, 1, 1, tuple(Fraction(rng.randint(1, 10), 10) for _ in range(dim)))
            for j in range(1, n + 1)
        ]
        instance = inst(jobs, dim=dim)
        alpha = {j.id: Fraction(rng.randint(-3, 9)) for j in jobs}
        value, chosen = price_column(instance, 1, alpha, {})
        best = Fraction(0)
        for r in range(n + 1):
            for combo in itertools.combinations([j.id for j in jobs], r):
                if config_fits(instance, combo, 1):
                    best = max(best, sum((alpha[j] for j in combo), Fraction(0)))
        assert value == best
        assert config_fits(instance, chosen, 1)
        assert sum((alpha[j] for j in chosen), Fraction(0)) == value


def _fraction_price_column(instance, slot, alpha, beta):
    """The former price_column, whose knapsack ran on Fraction profits and
    demands; pins the integer search."""
    items = []
    for job in instance.jobs:
        if not job.window.contains_slot(slot):
            continue
        profit = alpha.get(job.id, Fraction(0)) - beta.get((job.id, slot), Fraction(0))
        if profit > 0:
            items.append((profit, job.id, job.demand))
    items.sort(key=lambda it: (-it[0], it[1]))

    def extend(state, i):
        ids, room = state
        _, jid, demand = items[i]
        if all(need <= left for need, left in zip(demand, room)):
            return ids + (jid,), tuple(left - need for need, left in zip(demand, room))
        return None

    root = ((), (Fraction(1),) * instance.dim)
    value, (ids, _) = best_subset([it[0] for it in items], root, extend)
    return Fraction(value), frozenset(ids)


# few distinct values, so equal profits (and the id tie-break) come up often
_ALPHAS = [Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1),
           Fraction(3, 2), Fraction(7, 6), Fraction(2)]
_BETAS = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(5, 3)]


def test_integer_pricing_matches_fraction_pricing():
    rng = random.Random("pricing:integers")
    seen = {"empty": 0, "tie": 0, "mixed": 0, "nonpositive": 0}
    for _ in range(120):
        dim = rng.choice([1, 2, 4])
        jobs = []
        for jid in range(1, rng.randint(1, 7) + 1):
            demand = []
            for _ in range(dim):
                den = rng.choice([2, 3, 5, 7, 10, 12])
                demand.append(Fraction(rng.randint(1, den), den))
            jobs.append(mk(jid, rng.randint(1, 3), rng.randint(3, 5), 1, tuple(demand)))
        instance = inst(jobs, dim=dim)
        alpha = {j.id: rng.choice(_ALPHAS) for j in jobs if rng.random() < 0.9}
        beta = {
            (j.id, t): rng.choice(_BETAS)
            for j in jobs for t in j.window.slots() if rng.random() < 0.3
        }
        for t in range(1, 6):
            got = price_column(instance, t, alpha, beta)
            assert got == _fraction_price_column(instance, t, alpha, beta)
            assert type(got[0]) is Fraction
            profits = [
                alpha.get(j.id, 0) - beta.get((j.id, t), 0)
                for j in jobs if j.window.contains_slot(t)
            ]
            positive = [p for p in profits if p > 0]
            seen["empty"] += not got[1]
            seen["tie"] += len(set(positive)) < len(positive)
            seen["mixed"] += len({p.denominator for p in positive}) > 1
            seen["nonpositive"] += len(positive) < len(profits)
    assert min(seen.values()) >= 30


def test_integer_pricing_breaks_equal_profits_by_id():
    # equal profits and room for one of the two jobs: the lower id wins
    jobs = [mk(2, 1, 1, 1, (Fraction(3, 5), Fraction(1, 7))),
            mk(1, 1, 1, 1, (Fraction(1, 2), Fraction(2, 3)))]
    instance = inst(jobs, dim=2)
    alpha = {1: Fraction(1, 2), 2: Fraction(3, 2)}
    beta = {(2, 1): Fraction(1)}
    assert price_column(instance, 1, alpha, beta) == (Fraction(1, 2), frozenset({1}))
    assert _fraction_price_column(instance, 1, alpha, beta) == (Fraction(1, 2), frozenset({1}))


# -- configuration LP -----------------------------------------------------------------


def test_config_lp_single_slot_job():
    lpsol = solve_config_lp(inst([mk(1, 1, 1, 1, Fraction(1, 2))]))
    assert lpsol.m_star == 1
    assert lpsol.m_int == 1


def test_config_lp_spreads_across_window():
    # One unit of work, two slots to put it in: half a host on average.
    lpsol = solve_config_lp(inst([mk(1, 1, 2, 1, Fraction(1))]))
    assert lpsol.m_star == Fraction(1, 2)
    assert lpsol.m_int == 1


def test_config_lp_conflicting_pair():
    jobs = [mk(1, 1, 1, 1, Fraction(3, 5)), mk(2, 1, 1, 1, Fraction(3, 5))]
    lpsol = solve_config_lp(inst(jobs))
    assert lpsol.m_star == 2


def test_config_lp_pricing_discovers_sharing():
    # Two compatible jobs in one slot: seeds are singletons (m = 2 if kept
    # apart), pricing must discover the shared configuration for m* = 1.
    jobs = [mk(1, 1, 1, 1, Fraction(2, 5)), mk(2, 1, 1, 1, Fraction(2, 5))]
    lpsol = solve_config_lp(inst(jobs))
    assert lpsol.m_star == 1
    assert any(c.jobs == frozenset({1, 2}) for c, _ in lpsol.columns)


def test_config_lp_empty_instance():
    lpsol = solve_config_lp(inst([]))
    assert lpsol.m_star == 0 and lpsol.m_int == 0 and lpsol.columns == ()


def test_config_lp_trace_is_exact_and_monotone():
    rng = random.Random(13)
    for _ in range(15):
        instance = _tiny_instance(rng)
        lpsol = solve_config_lp(instance)
        assert all(a.max_violation == 0 for a in lpsol.trace)
        objectives = [a.objective for a in lpsol.trace]
        assert all(x >= y for x, y in zip(objectives, objectives[1:]))
        assert lpsol.iterations == len(lpsol.trace)
        check_lp_invariants(instance, lpsol)


def test_config_lp_first_audit_counts_the_seed_columns():
    # the seeds are one singleton per unit of each job's length, and every
    # later audit counts the columns that pricing added before its solve
    rng = random.Random(23)
    for _ in range(15):
        instance = _tiny_instance(rng)
        lpsol = solve_config_lp(instance)
        assert lpsol.trace[0].columns_added == sum(j.length for j in instance.jobs)
        assert lpsol.column_count == sum(a.columns_added for a in lpsol.trace)
        assert all(a.columns_added > 0 for a in lpsol.trace[1:])


def test_config_lp_lower_bounds_exact_minimum():
    rng = random.Random(17)
    limits = OracleLimits(max_jobs=5, max_horizon=5, max_hosts=5)
    for _ in range(20):
        instance = _tiny_instance(rng)
        lpsol = solve_config_lp(instance)
        opt = exact_minr(instance, limits=limits)
        assert lpsol.m_star <= opt
        assert lpsol.m_int <= opt


def test_config_lp_deterministic():
    rng = random.Random(19)
    instance = _tiny_instance(rng)
    a = solve_config_lp(instance)
    b = solve_config_lp(instance)
    assert a.m_star == b.m_star
    assert [(c.key, x) for c, x in a.columns] == [(c.key, x) for c, x in b.columns]


def _tiny_instance(rng, max_jobs=5, horizon=5, dim=None):
    dim = dim or rng.choice([1, 2])
    jobs = []
    for jid in range(1, rng.randint(1, max_jobs) + 1):
        r = rng.randint(1, horizon)
        d = rng.randint(r, horizon)
        p = rng.randint(1, d - r + 1)
        demand = tuple(Fraction(rng.randint(1, 10), 10) for _ in range(dim))
        jobs.append(mk(jid, r, d, p, demand))
    return inst(jobs, dim=dim)


def full_row_m_star(instance, pair_rows=True):
    """m* of the configuration LP with every (job, slot) row in the master
    from the start, by column generation over the same seeds and pricing;
    with pair_rows=False, of the LP that leaves those rows out."""
    jobs = sorted(instance.jobs, key=lambda j: j.id)
    slots = sorted({t for job in jobs for t in job.window.slots()})
    lp = LinearProgram("min")
    m_var = lp.add_variable(objective=1)
    slot_row = {t: lp.add_row({m_var: 1}, ">=", 0) for t in slots}
    pair_row = {(j.id, t): lp.add_row({}, ">=", -1) for j in jobs for t in j.window.slots() if pair_rows}
    job_row = {j.id: lp.add_row({}, ">=", j.length) for j in jobs}

    def add(t, ids):
        entries = {slot_row[t]: -1}
        for jid in ids:
            if pair_rows:
                entries[pair_row[(jid, t)]] = -1
            entries[job_row[jid]] = 1
        lp.add_column(0, entries)

    for job in jobs:
        for t in list(job.window.slots())[: job.length]:
            add(t, [job.id])
    while True:
        sol = solve(lp)
        alpha = {jid: sol.duals[row] for jid, row in job_row.items()}
        beta = {pair: sol.duals[row] for pair, row in pair_row.items()}
        priced = [(t, price_column(instance, t, alpha, beta)) for t in slots]
        entering = [(t, ids) for t, (value, ids) in priced if ids and value > sol.duals[slot_row[t]]]
        if not entering:
            return sol.objective
        for t, ids in entering:
            add(t, ids)


def _binding_instances():
    """8 jobs, T = 8, one host, slack 1 or 1/2: most of these violate some
    (job, slot) row unless the row is in the master."""
    return [
        generate(GenSpec(jobs=8, hosts=1, horizon=8, dim=dim, slack=slack, seed=f"bind:{dim}:{slack}:{k}"))
        for dim in (1, 2) for slack in (Fraction(1), Fraction(1, 2)) for k in range(5)
    ]


def test_lazy_pair_rows_give_the_full_formulation_m_star_on_a_grid():
    for n, horizon, dim, slack in itertools.product((3, 6), (4, 8, 16), (1, 2), (Fraction(1, 3), Fraction(1, 2))):
        instance = generate(GenSpec(jobs=n, hosts=1, horizon=horizon, dim=dim, slack=slack,
                                    seed=f"grid:{n}:{horizon}:{dim}:{slack}"))
        lpsol = solve_config_lp(instance)
        assert lpsol.m_star == full_row_m_star(instance)
        check_lp_invariants(instance, lpsol)


def test_lazy_pair_rows_where_they_bind():
    instances = _binding_instances()
    with_rows = lower_without = 0
    for instance in instances:
        lpsol = solve_config_lp(instance)
        assert lpsol.m_star == full_row_m_star(instance)
        assert all(a.max_violation == 0 for a in lpsol.trace)
        check_lp_invariants(instance, lpsol)
        assert len(lpsol.beta) == lpsol.pair_rows
        with_rows += lpsol.pair_rows > 0
        lower_without += full_row_m_star(instance, pair_rows=False) < lpsol.m_star
    # the rows are needed: leaving them out lowers m* on some instances
    assert with_rows >= len(instances) * 3 // 4 and lower_without > 0, (with_rows, lower_without)


def test_config_lp_dual_certificate_with_absent_pair_rows_at_zero():
    # alpha, beta, gamma >= 0; the m column prices at sum gamma <= 1; no
    # feasible configuration at any slot prices above gamma_t under
    # exhaustive search, with beta = 0 for pairs not in the master; and the
    # dual objective is m*.  Weak duality then proves m* optimal.
    rng = random.Random(31)
    instances = _binding_instances()[::2] + [_tiny_instance(rng) for _ in range(10)]
    for instance in instances:
        lpsol = solve_config_lp(instance)
        alpha, beta, gamma = lpsol.alpha, lpsol.beta, lpsol.gamma
        assert all(v >= 0 for v in (*alpha.values(), *beta.values(), *gamma.values()))
        assert sum(gamma.values(), Fraction(0)) <= 1
        for t in lpsol.slots:
            ids = [j.id for j in instance.jobs if j.window.contains_slot(t)]
            best = max(
                sum((alpha[j] - beta.get((j, t), Fraction(0)) for j in combo), Fraction(0))
                for r in range(len(ids) + 1)
                for combo in itertools.combinations(ids, r)
                if config_fits(instance, combo, t)
            )
            assert best <= gamma[t]
        dual = sum((j.length * alpha[j.id] for j in instance.jobs), Fraction(0))
        assert dual - sum(beta.values(), Fraction(0)) == lpsol.m_star


# -- sampling ----------------------------------------------------------------------


def _lpsol_with(columns, m_star, slots):
    return ConfigLpResult(
        m_star=m_star,
        m_int=math.ceil(m_star),
        columns=tuple(columns),
        column_count=len(columns),
        pair_rows=0,
        slots=tuple(slots),
        alpha={},
        beta={},
        gamma={t: Fraction(0) for t in slots},
        iterations=1,
        trace=(),
    )


def test_sampling_certain_column_picked_every_draw_then_deduped():
    instance = inst([mk(1, 1, 2, 2, Fraction(1, 2))])
    lpsol = _lpsol_with(
        [(Configuration(1, frozenset({1})), Fraction(1))], Fraction(1), [1, 2]
    )
    chosen = sample_configurations(instance, lpsol, draws=4, seed="s")
    assert chosen[1][0] == frozenset({1})
    assert all(pick == frozenset() for pick in chosen[1][1:])
    assert chosen[2] == [frozenset()] * 4


def test_sampling_rejects_excess_mass():
    instance = inst([mk(1, 1, 1, 1, Fraction(1, 2))])
    lpsol = _lpsol_with(
        [(Configuration(1, frozenset({1})), Fraction(2))], Fraction(1), [1]
    )
    with pytest.raises(ValueError, match="exceeds m\\*"):
        sample_configurations(instance, lpsol, draws=1, seed=0)


def test_sampling_disjoint_and_subset_invariants():
    rng = random.Random(29)
    for _ in range(15):
        instance = _tiny_instance(rng)
        lpsol = solve_config_lp(instance)
        chosen = sample_configurations(instance, lpsol, draws=6, seed=rng.random())
        originals = {}
        for c, _ in lpsol.columns:
            originals.setdefault(c.slot, []).append(c.jobs)
        for t, picks in chosen.items():
            taken = set()
            for pick in picks:
                assert not (pick & taken)
                taken |= pick
                if pick:
                    assert any(pick <= jobs for jobs in originals[t])


def test_sampling_deterministic_per_slot_streams():
    # Slot 1 forces m* = 2; slot 2 carries mass 1 of 2, so each draw there
    # picks {3} with probability 1/2 and the seed genuinely matters.
    jobs = [
        mk(1, 1, 1, 1, Fraction(3, 5)),
        mk(2, 1, 1, 1, Fraction(3, 5)),
        mk(3, 2, 2, 1, Fraction(3, 5)),
    ]
    instance = inst(jobs)
    lpsol = solve_config_lp(instance)
    assert lpsol.m_star == 2
    a = sample_configurations(instance, lpsol, draws=8, seed="fixed")
    b = sample_configurations(instance, lpsol, draws=8, seed="fixed")
    assert a == b
    c = sample_configurations(instance, lpsol, draws=8, seed="other")
    assert a != c
    picks_at_2 = [pick for pick in a[2] if pick]
    assert 0 < len(picks_at_2) < 8  # genuinely random, not certain


def _unit_fraction(rng):
    return Fraction(rng.getrandbits(53), 2**53)


def _fraction_sample_configurations(instance, lpsol, draws, seed):
    """The former sample_configurations, which drew a Fraction u and walked
    the running mass; pins the integer bisection."""
    m_star = lpsol.m_star
    by_slot = {}
    for c, x in lpsol.columns:
        by_slot.setdefault(c.slot, []).append((tuple(sorted(c.jobs)), x))
    out = {}
    for t in lpsol.slots:
        cols = sorted(by_slot.get(t, []))
        mass = sum((x for _, x in cols), Fraction(0))
        if mass > m_star:
            raise ValueError(f"slot {t}: configuration mass {mass} exceeds m* = {m_star}")
        rng = random.Random(f"{seed}:slot{t}")
        picks = []
        taken = set()
        for _ in range(draws):
            chosen = frozenset()
            if m_star > 0 and cols:
                u = _unit_fraction(rng) * m_star
                acc = Fraction(0)
                for ids, x in cols:
                    acc += x
                    if u < acc:
                        chosen = frozenset(ids)
                        break
            chosen = chosen - taken
            taken |= chosen
            picks.append(chosen)
        out[t] = picks
    return out


def test_integer_sampling_matches_fraction_sampling():
    rng = random.Random("sampling:integers")
    lpsols = [(instance, solve_config_lp(instance))
              for instance in [_tiny_instance(rng, dim=d) for d in (1, 2, 1, 2, 1, 2)]]
    jobs = [mk(1, 1, 1, 1, Fraction(3, 5)), mk(2, 1, 1, 1, Fraction(3, 5)),
            mk(3, 2, 2, 1, Fraction(3, 5))]
    lpsols.append((inst(jobs), solve_config_lp(inst(jobs))))  # slot 2 holds mass 1 of 2
    # mass short of m* at a slot, so some draws pick nothing
    lpsols.append((inst(jobs), _lpsol_with(
        [(Configuration(1, frozenset({1})), Fraction(2, 7)),
         (Configuration(1, frozenset({1, 2})), Fraction(1, 3))], Fraction(5, 3), [1, 2])))
    for instance, lpsol in lpsols:
        for draws in (1, 4, 13):
            for seed in ("a", 7, "minr-master:1:3"):
                got = sample_configurations(instance, lpsol, draws, seed)
                assert got == _fraction_sample_configurations(instance, lpsol, draws, seed)


class _FixedBits:
    """A random.Random whose getrandbits(53) always returns `bits`."""

    bits = 0

    def __init__(self, seed):
        pass

    def getrandbits(self, k):
        assert k == 53
        return self.bits


@pytest.mark.parametrize("bits, pick", [(2**52 - 1, {1}), (2**52, {2}), (2**53 - 1, {2})])
def test_sampling_draw_on_a_prefix_sum_picks_the_next_column(monkeypatch, bits, pick):
    # m* = 1 and two columns of 1/2: u = 2^52 / 2^53 is exactly the first
    # prefix sum, and u < acc is strict, so that draw takes the second column
    instance = inst([mk(1, 1, 1, 1, Fraction(1, 2)), mk(2, 1, 1, 1, Fraction(1, 2))])
    lpsol = _lpsol_with(
        [(Configuration(1, frozenset({1})), Fraction(1, 2)),
         (Configuration(1, frozenset({2})), Fraction(1, 2))], Fraction(1), [1])
    monkeypatch.setattr(_FixedBits, "bits", bits)
    monkeypatch.setattr(minr.random, "Random", _FixedBits)
    want = {1: [frozenset(pick), frozenset()]}
    assert sample_configurations(instance, lpsol, 2, seed=0) == want
    assert _fraction_sample_configurations(instance, lpsol, 2, seed=0) == want


def test_sampling_draw_past_the_mass_picks_nothing(monkeypatch):
    # m* = 2 and one column of 1: u = 1 is exactly the column's prefix sum
    instance = inst([mk(1, 1, 1, 1, Fraction(1, 2))])
    lpsol = _lpsol_with([(Configuration(1, frozenset({1})), Fraction(1))], Fraction(2), [1])
    monkeypatch.setattr(minr.random, "Random", _FixedBits)
    for bits, want in [(2**52, frozenset()), (2**52 - 1, frozenset({1}))]:
        monkeypatch.setattr(_FixedBits, "bits", bits)
        assert sample_configurations(instance, lpsol, 1, seed=0) == {1: [want]}


def test_sampling_excess_mass_error_text():
    instance = inst([mk(1, 1, 2, 1, Fraction(1, 2)), mk(2, 1, 2, 1, Fraction(1, 2))])
    lpsol = _lpsol_with(
        [(Configuration(2, frozenset({1})), Fraction(2, 3)),
         (Configuration(2, frozenset({2})), Fraction(5, 6))], Fraction(4, 3), [1, 2])
    text = "slot 2: configuration mass 3/2 exceeds m* = 4/3"
    for sample in (sample_configurations, _fraction_sample_configurations):
        with pytest.raises(ValueError) as err:
            sample(instance, lpsol, 1, seed=0)
        assert str(err.value) == text


# -- residuals ----------------------------------------------------------------------


def test_build_residual_basic():
    job = mk(1, 1, 6, 3, Fraction(1, 2))
    chosen = {1: [frozenset({1})], 4: [frozenset({1})]}
    residuals, kept = build_residual(inst([job]), chosen)
    assert kept[1] == ((1, 0), (4, 0))
    assert len(residuals) == 1
    r = residuals[0]
    assert (r.job_id, r.units, r.forb) == (1, 1, frozenset({1, 4}))
    assert r.units + len(r.forb) == job.length


def test_build_residual_overcovered_job_is_trimmed():
    job = mk(1, 1, 6, 1, Fraction(1, 2))
    chosen = {2: [frozenset({1})], 5: [frozenset({1})]}
    residuals, kept = build_residual(inst([job]), chosen)
    assert residuals == ()
    assert kept[1] == ((2, 0),)  # first covered slot only


def test_build_residual_scalarizes_demand():
    job = mk(1, 1, 4, 2, (Fraction(3, 10), Fraction(7, 10)))
    residuals, _ = build_residual(inst([job], dim=2), {})
    assert residuals[0].height == Fraction(7, 10)
    assert residuals[0].units == 2


def test_residual_avail_and_split():
    tree = build_tree(8)
    # [2,7] maps to [5,6]: two slots for four units -> fallback
    tight = ResidualJob(1, 4, Fraction(1, 2), TimeWindow(2, 7), frozenset())
    roomy = ResidualJob(2, 2, Fraction(1, 2), TimeWindow(1, 8), frozenset({1}))
    assert residual_avail(tight, tree) == [5, 6]
    assert residual_avail(roomy, tree) == [2, 3, 4, 5, 6, 7, 8]
    schedulable, fallback = split_residuals([tight, roomy], tree)
    assert [r.job_id for r in schedulable] == [2]
    assert [r.job_id for r in fallback] == [1]


def test_schedule_residual_empty():
    schedule, bins = schedule_residual([], 2, build_tree(4))
    assert dict(schedule.placements) == {}


def test_schedule_residual_forced_slot():
    tree = build_tree(4)
    r = ResidualJob(7, 1, Fraction(1, 2), TimeWindow(1, 4), frozenset({1, 2, 4}))
    schedule, _ = schedule_residual([r], 1, tree)
    assert schedule.placements[7] == frozenset({(1, 3)})


def test_schedule_residual_avoids_forb_and_respects_capacity():
    rng = random.Random(37)
    tree = build_tree(8)
    nodes = [w for w in tree.windows() if w.size >= 2]
    for _ in range(50):
        residuals = []
        for jid in range(1, rng.randint(1, 6) + 1):
            w = rng.choice(nodes)
            slots = list(w.slots())
            forb = frozenset(rng.sample(slots, rng.randint(0, len(slots) // 2)))
            free = len(slots) - len(forb)
            units = rng.randint(1, max(1, free // 2))
            height = Fraction(rng.randint(1, 4), 10)
            residuals.append(ResidualJob(jid, units, height, w, forb))
        try:
            schedule, bins = schedule_residual(residuals, 2, tree)
        except ScheduleError:
            continue  # capacity-driven failure is allowed in this loose corpus
        for r in residuals:
            spots = schedule.placements[r.job_id]
            assert len(spots) == r.units
            mapped = map_window(tree, r.window)
            for h, t in spots:
                assert mapped.contains_slot(t)
                assert t not in r.forb
            assert len({t for _, t in spots}) == r.units
        assert all(load <= 1 for load in bins.load.values())


# -- parameters, thresholds, area report -----------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError, match="c must exceed 2"):
        MinRParams(c=Fraction(2))
    with pytest.raises(ValueError, match="epsilon"):
        MinRParams(epsilon=Fraction(2))
    with pytest.raises(ValueError, match="omega"):
        MinRParams(omega=Fraction(2))
    with pytest.raises(ValueError, match="theta"):
        MinRParams(theta=Fraction(0))
    with pytest.raises(ValueError, match="max_retries"):
        MinRParams(max_retries=0)


def test_log2_factor_and_draw_count():
    assert log2_factor(1) == 1
    assert log2_factor(2) == 1
    assert log2_factor(4) == 2
    assert log2_factor(8) == 3
    assert log2_factor(3) == 2  # ceil(log2 3)
    assert draw_count(Fraction(6), 2, 1) == 12
    assert draw_count(Fraction(6), 2, 4) == 24
    with pytest.raises(ValueError):
        log2_factor(0)
    with pytest.raises(ValueError):
        minr._ceil_log2(0)


@pytest.mark.parametrize("dim", [3, 5, 6, 7, 12])
def test_draw_count_is_the_least_k_meeting_the_integer_inequality(dim):
    # with c * m_int = P/Q, ceil(c * m_int * log2 d) is the smallest k with
    # 2^(k*Q) >= d^P; check that k meets it and k - 1 does not
    for c in (Fraction(6), Fraction(7), Fraction(13, 2), Fraction(25, 3), Fraction(1001, 17)):
        for m_int in (1, 2, 3, 5, 12, 40):
            k = draw_count(c, m_int, dim)
            p, q = (c * m_int).numerator, (c * m_int).denominator
            assert 2 ** (k * q) >= dim**p
            assert 2 ** ((k - 1) * q) < dim**p
    assert draw_count(Fraction(6), 0, dim) == 0


def test_window_condition_threshold_scales():
    params = MinRParams()
    base = window_condition_threshold(64, 2, 2, params)
    assert base > 0
    assert window_condition_threshold(64, 4, 2, params) > base  # more dims
    assert window_condition_threshold(64, 2, 4, params) < base  # more hosts
    assert window_condition_threshold(64, 2, 0, params) == 0
    assert window_condition_threshold(0, 2, 2, params) == 0


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 8])
def test_window_condition_threshold_is_the_least_qualifying_size(dim):
    # with gamma = p/q, size s qualifies when s >= gamma * log2(T/sqrt(eps)) / m,
    # i.e. 2^(2*m*q*s) >= (T^2/eps)^p; s meets it and s - 1 does not
    for theta in (Fraction(1), Fraction(1, 32), Fraction(3, 7)):
        for epsilon in (Fraction(1, 10), Fraction(1, 2), Fraction(99, 100)):
            params = MinRParams(theta=theta, epsilon=epsilon)
            gamma = theta * dim * dim * log2_factor(dim)
            p, q = gamma.numerator, gamma.denominator
            for horizon in (1, 2, 7, 64, 1000):
                target = (Fraction(horizon * horizon) / epsilon) ** p
                for m_int in (1, 2, 3, 17):
                    s = window_condition_threshold(horizon, dim, m_int, params)
                    assert s >= 1
                    assert 2 ** (2 * m_int * q * s) >= target
                    assert 2 ** (2 * m_int * q * (s - 1)) < target


def _least_power_of_two_at_or_above(x: Fraction) -> int:
    # x lies above 2^(e - 1) for this e; step up until 2^e reaches x
    e = x.numerator.bit_length() - x.denominator.bit_length() - 1
    while Fraction(2) ** e < x:
        e += 1
    return e


@settings(max_examples=400, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 2**200), max_value=2**200)
    | st.integers(min_value=1, max_value=2**200),
    st.integers(min_value=0, max_value=300),
)
@example(1, 1)
@example(2**40, 1)
@example(2**40 + 1, 1)
@example(2**100 + 1, 1)  # more bits than the first mantissa width
@example(Fraction(3, 8), 1)
@example(Fraction(2**100 + 1, 2**100), 3)  # q^power just above a power of two
@example(Fraction(2**100 - 1, 2**100), 3)  # and just below
@example(Fraction(3**40, 2**63), 40)
@example(1597139675139416931391658226011, 3)  # floor(2^(301/3)): cube just below 2^301
@example(Fraction(1, 1597139675139416931391658226011), 3)
@example(Fraction(1, 1597139675139416931391658226012), 3)  # cube just above 2^301
def test_ceil_log2_matches_brute_force(q, power):
    assert minr._ceil_log2(q, power) == _least_power_of_two_at_or_above(Fraction(q) ** power)


def test_residual_area_report_empty():
    instance = inst([mk(1, 1, 4, 1, Fraction(1, 2))])
    report = residual_area_report(instance, [], 1)
    assert report.checked == 10  # T=4: 4+3+2+1 intervals
    assert report.violations == 0
    assert report.rate == 0.0


def test_residual_area_report_counts_containing_intervals():
    instance = inst([mk(1, 1, 4, 2, Fraction(1))])
    r = ResidualJob(1, 2, Fraction(1), TimeWindow(1, 2), frozenset())
    params = MinRParams(omega=Fraction(1, 8))
    report = residual_area_report(instance, [r], 1, params)
    # area 2 inside any interval containing [1,2]; bound |I|/8 is at most 1/2
    assert report.checked == 10
    assert report.violations == 3  # [1,2], [1,3], [1,4]
    assert report.worst_ratio == 8.0  # interval [1,2]: 2 / (2/8)


def _fraction_residual_area_report(instance, residuals, m_int, params=MinRParams()):
    """The former residual_area_report, which summed Fraction areas and kept
    a running max of float ratios; pins the integer report."""
    horizon = instance.horizon
    if params.omega is not None:
        omega = params.omega
    else:
        omega = (1 - 4 * slackness(instance)) / 8
    if horizon <= 64:
        intervals = [(a, b) for a in range(1, horizon + 1) for b in range(a, horizon + 1)]
    else:
        rng = random.Random(f"residual-area:{horizon}")
        intervals = sorted(
            {tuple(sorted((rng.randint(1, horizon), rng.randint(1, horizon))))
             for _ in range(2000)}
        )
    threshold = window_condition_threshold(horizon, instance.dim, m_int, params)
    checked = violations = q_checked = q_violations = 0
    worst = 0.0
    for a, b in intervals:
        size = b - a + 1
        inside = sum(
            (r.units * r.height for r in residuals
             if a <= r.window.start and r.window.end <= b),
            Fraction(0),
        )
        bound = omega * m_int * size
        checked += 1
        bad = inside > bound
        violations += bad
        if bound > 0:
            worst = max(worst, float(inside / bound))
        if size >= threshold:
            q_checked += 1
            q_violations += bad
    return minr.ResidualAreaReport(
        omega=omega, hosts_bound=m_int, checked=checked, violations=violations,
        qualifying_checked=q_checked, qualifying_violations=q_violations,
        threshold=threshold, worst_ratio=worst,
    )


def test_integer_residual_area_report_matches_fraction_report():
    rng = random.Random("report:integers")
    params_menu = [MinRParams(), MinRParams(omega=Fraction(1, 8)),
                   MinRParams(omega=Fraction(5, 7), theta=Fraction(1, 32))]
    seen = {"empty": 0, "negative_omega": 0, "violations": 0, "long": 0, "ratio": 0}
    for k in range(48):
        horizon = [1, 5, 12, 64, 65, 90][k % 6]
        jobs, residuals = [], []
        for jid in range(1, rng.randint(1, 5) + 1):
            r = rng.randint(1, horizon)
            d = rng.randint(r, min(horizon, r + rng.choice([0, 2, 10, 100])))
            den = rng.choice([3, 7, 10])
            job = mk(jid, r, d, rng.randint(1, d - r + 1), Fraction(rng.randint(1, den), den))
            jobs.append(job)
            if k % 4 and rng.random() < 0.8:  # every fourth instance has no residuals
                residuals.append(ResidualJob(jid, rng.randint(1, job.length), job.height,
                                             job.window, frozenset()))
        instance = inst(jobs)
        for m_int in (0, 1, 3):
            params = params_menu[(k + m_int) % 3]
            got = residual_area_report(instance, residuals, m_int, params)
            want = _fraction_residual_area_report(instance, residuals, m_int, params)
            assert got == want  # every field, worst_ratio by ==
            assert got.to_json() == want.to_json()
            seen["empty"] += not residuals
            seen["negative_omega"] += got.omega < 0
            seen["violations"] += got.violations > 0
            seen["long"] += horizon > 64
            seen["ratio"] += got.worst_ratio > 0
    assert min(seen.values()) >= 10


# -- end-to-end solver ------------------------------------------------------------------


def _roomy_instance(rng, dim=1, horizon=12, n=None):
    """Windows of at least 8 slots and lengths at most 2: slack and roomy, so
    phase 2 never needs fallbacks."""
    jobs = []
    n = n if n is not None else rng.randint(2, 5)
    for jid in range(1, n + 1):
        length = rng.randint(8, horizon)
        r = rng.randint(1, horizon - length + 1)
        p = rng.randint(1, 2)
        demand = tuple(Fraction(rng.randint(1, 10), 10) for _ in range(dim))
        jobs.append(mk(jid, r, r + length - 1, p, demand))
    return inst(jobs, dim=dim)


def test_solve_minr_completes_all_jobs():
    rng = random.Random(41)
    for trial in range(10):
        instance = _roomy_instance(rng, dim=rng.choice([1, 2]))
        res = solve_minr(instance, seed=trial)
        report = validate(
            instance, res.schedule, require_all_complete=True, hosts=res.hosts_used
        )
        assert report.feasible, report.violations
        assert res.hosts_used == res.m1 + res.m2 + len(res.fallback_ids)
        assert res.m1 == draw_count(Fraction(6), res.m_int, instance.dim)
        assert res.m2 == res.m_int
        assert res.fallback_ids == ()


def test_solve_minr_empty_instance():
    res = solve_minr(inst([]))
    assert res.hosts_used == 0
    assert res.m_star == 0
    assert dict(res.schedule.placements) == {}


def test_solve_minr_oracle_sandwich():
    rng = random.Random(43)
    limits = OracleLimits(max_jobs=4, max_horizon=5, max_hosts=6)
    for trial in range(8):
        instance = _tiny_instance(rng, max_jobs=4)
        res = solve_minr(instance, seed=trial)
        opt = exact_minr(instance, limits=limits)
        assert res.m_star <= opt <= res.hosts_used


def test_solve_minr_deterministic():
    rng = random.Random(47)
    instance = _roomy_instance(rng)
    a = solve_minr(instance, seed=7)
    b = solve_minr(instance, seed=7)
    assert a.to_json() == b.to_json()


def test_solve_minr_window_condition_comes_from_the_report(monkeypatch):
    # theta = 2 puts the threshold at 11 slots on this 12-slot horizon, so
    # the 12-slot window meets the condition and the 8-slot ones do not
    real = minr.window_condition_threshold
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(minr, "window_condition_threshold", counted)
    instance = inst([
        mk(1, 1, 12, 2, Fraction(3, 10)),
        mk(2, 3, 10, 1, Fraction(2, 5)),
        mk(3, 5, 12, 2, Fraction(1, 2)),
    ])
    res = solve_minr(instance, MinRParams(theta=Fraction(2)), seed=0)
    assert len(calls) == 1
    assert res.window_threshold == res.residual_stats.threshold == 11
    assert res.window_condition_met == sum(
        j.window.size >= res.window_threshold for j in instance.jobs
    ) == 1
    assert res.window_condition_total == 3


def test_solve_minr_fallback_assembly(monkeypatch):
    # With sampling stubbed out, phase 1 covers nothing: every job is a full
    # residual.  The narrow-window job's mapped window ([2,7] -> [5,6]) is too
    # small for 4 units, forcing a dedicated fallback host; the roomy job goes
    # through phase 2.  The assembled schedule must still complete everything.
    tight = mk(1, 2, 7, 4, Fraction(1, 2))
    roomy = mk(2, 1, 8, 2, Fraction(1, 2))
    instance = inst([tight, roomy])
    monkeypatch.setattr(
        minr,
        "sample_configurations",
        lambda inst_, lpsol, draws, seed: {t: [] for t in lpsol.slots},
    )
    res = solve_minr(instance, seed=0)
    assert res.fallback_ids == (1,)
    assert res.hosts_used == res.m1 + res.m2 + 1
    assert res.residual_count == 2
    report = validate(
        instance, res.schedule, require_all_complete=True, hosts=res.hosts_used
    )
    assert report.feasible, report.violations
    # the fallback host is the last one and serves only job 1
    fallback_host = res.m1 + res.m2 + 1
    spots = [hs for hs in res.schedule.placements[1] if hs[0] == fallback_host]
    assert len(spots) == 4


def test_solve_minr_retry_ladder_exhausts(monkeypatch):
    attempts = []

    def always_stuck(residuals, hosts, tree):
        attempts.append(1)
        raise ScheduleError(0, "stubbed")

    monkeypatch.setattr(minr, "schedule_residual", always_stuck)
    rng = random.Random(53)
    instance = _roomy_instance(rng)
    params = MinRParams(max_retries=2)
    with pytest.raises(MinRError, match="failed 4 attempts"):
        solve_minr(instance, params, seed=1)
    assert len(attempts) == 4


def test_solve_minr_retry_escalates_c(monkeypatch):
    real = minr.schedule_residual
    calls = []

    def flaky(residuals, hosts, tree):
        calls.append(1)
        if len(calls) <= 3:
            raise ScheduleError(0, "stubbed")
        return real(residuals, hosts, tree)

    monkeypatch.setattr(minr, "schedule_residual", flaky)
    rng = random.Random(59)
    instance = _roomy_instance(rng)
    params = MinRParams(max_retries=2)
    res = solve_minr(instance, params, seed=2)
    assert res.retries == 3
    assert res.effective_c == params.c + 1
    assert res.m1 == draw_count(params.c + 1, res.m_int, instance.dim)
    report = validate(
        instance, res.schedule, require_all_complete=True, hosts=res.hosts_used
    )
    assert report.feasible


# -- psi partition ---------------------------------------------------------------------


def test_psi_frozen_example():
    part = psi_table(100, 2, Fraction(1))
    assert part.gamma == 4 and isinstance(part.gamma, Fraction)
    assert part.psi == (0, 64, 100)
    assert all(type(v) is int for v in part.psi)
    assert part.kappa == 2
    assert part.ranges() == [(0, 64), (64, 100)]


def test_psi_single_range_when_horizon_small():
    part = psi_table(50, 2, Fraction(1))
    assert part.kappa == 1
    assert part.ranges() == [(0, 50)]


def test_psi_stall_guard_jumps_to_horizon():
    # gamma = 1 stalls at 4 = 2^(4/2); the guard forces the cap.
    part = psi_table(1000, 1, Fraction(1))
    assert part.psi == (0, 4, 1000)
    assert part.kappa == 2


def _float_psi_table(horizon: int, dim: int, theta: Fraction) -> list[float]:
    """The former float recursion, kept as a reference: real gamma with
    log2 d (exact for the powers of two used here), real psi values."""
    gamma = float(theta) * dim * dim * max(1.0, math.log2(dim))
    psi = [0.0, float(min(horizon, 4 * math.ceil(gamma * gamma)))]
    while psi[-1] < horizon:
        prev = psi[-1]
        exponent = prev / (2 * gamma)
        if exponent >= math.log2(horizon):
            nxt = float(horizon)
        else:
            nxt = min(float(horizon), 2.0**exponent)
        if nxt <= prev:
            nxt = float(horizon)
        psi.append(nxt)
    return psi


def test_psi_is_the_floor_of_the_float_recursion():
    thetas = (Fraction(1), Fraction(1, 2), Fraction(1, 16), Fraction(1, 32), Fraction(3, 7))
    horizons = [*range(1, 300), 1000, 1024, 4096, 2**16, 10**5, 2**20, 10**6]
    tables = fractional = 0
    for dim in (1, 2, 4, 8):
        for theta in thetas:
            for horizon in horizons:
                reference = _float_psi_table(horizon, dim, theta)
                assert psi_table(horizon, dim, theta).psi == tuple(
                    math.floor(v) for v in reference
                ), (horizon, dim, theta)
                tables += 1
                fractional += any(v != math.floor(v) for v in reference)
    assert tables == 6120
    assert fractional > 0  # the floor is exercised, not only integer psi


def _log_star(x: float) -> int:
    n = 0
    while x > 1:
        x = math.log2(x)
        n += 1
    return n


def test_psi_and_threshold_with_a_float_derived_theta():
    # Fraction(0.3) has a 53-bit numerator: the powers behind these answers
    # have ~10^16-digit exponents and must never be built
    theta = Fraction(0.3)
    part = psi_table(1000, 2, theta)
    gamma = float(part.gamma)
    assert part.psi == (0, 8, 10, 17, 135, 1000)
    for i in range(2, part.kappa):
        assert part.psi[i] == math.floor(2 ** (part.psi[i - 1] / (2 * gamma)))
    params = MinRParams(theta=theta)
    expected = math.ceil(gamma * math.log2(1000 / math.sqrt(0.1)) / 2)
    assert window_condition_threshold(1000, 2, 2, params) == expected == 7
    assert draw_count(Fraction(6.1), 3, 3) == math.ceil(6.1 * 3 * math.log2(3))


def test_psi_invariants_numeric():
    for dim in (2, 4, 8):
        for horizon in (1024, 2**16, 2**20):
            part = psi_table(horizon, dim, Fraction(1))
            psi = part.psi
            p, q = part.gamma.numerator, part.gamma.denominator
            assert psi[part.kappa] == horizon
            for i in range(1, part.kappa):
                assert psi[i] <= psi[i + 1]
                # psi(i) >= 2*gamma*log2 psi(i+1), raised to integer powers
                assert 2 ** (psi[i] * q) >= psi[i + 1] ** (2 * p)
            assert part.kappa <= _log_star(horizon) + 3


def test_slab_windows_cover_small_windows():
    for block in (1, 2, 3):
        odd, even = slab_windows(block, 12)
        for start in range(1, 13):
            for size in range(1, block + 1):
                end = start + size - 1
                if end > 12:
                    continue
                w = TimeWindow(start, end)
                assert any(s.contains(w) for s in odd) or any(
                    s.contains(w) for s in even
                )


def test_slab_windows_layout():
    odd, even = slab_windows(4, 20)
    assert even == [TimeWindow(1, 8), TimeWindow(9, 16), TimeWindow(17, 20)]
    assert odd == [TimeWindow(5, 12), TimeWindow(13, 20)]


def test_partition_by_window_end_to_end():
    # theta = 1/16, d=1: gamma = 1/16, psi(1) = 4, so windows of size <= 4 and
    # > 4 land in different ranges with slabs of width 8 and wider.
    rng = random.Random(61)
    jobs = []
    jid = 0
    for _ in range(4):  # small windows
        jid += 1
        r = rng.randint(1, 21)
        jobs.append(mk(jid, r, r + 3, rng.randint(1, 2), Fraction(rng.randint(1, 5), 10)))
    for _ in range(3):  # bigger windows
        jid += 1
        r = rng.randint(1, 9)
        jobs.append(mk(jid, r, r + 15, rng.randint(1, 2), Fraction(rng.randint(1, 5), 10)))
    instance = inst(jobs)
    params = MinRParams(theta=Fraction(1, 16))
    result = partition_by_window(instance, params, seed=3)

    seen = [j for run in result.runs for j in run.job_ids]
    assert sorted(seen) == [j.id for j in instance.jobs]  # disjoint cover

    report = validate(
        instance,
        result.schedule,
        require_all_complete=True,
        hosts=result.total_hosts,
    )
    assert report.feasible, report.violations
    assert result.total_hosts == sum(o + e for o, e in result.pool_hosts)
    for run in result.runs:
        hosts_in_run = {h for spots in run.result.schedule.placements.values() for h, _ in spots}
        assert all(1 <= h <= run.result.hosts_used for h in hosts_in_run)


def test_partition_deterministic():
    rng = random.Random(67)
    jobs = [
        mk(j, 1 + (j % 3), 4 + (j % 3), 1, Fraction(1, 4)) for j in range(1, 5)
    ]
    instance = inst(jobs)
    params = MinRParams(theta=Fraction(1, 16))
    a = partition_by_window(instance, params, seed=9)
    b = partition_by_window(instance, params, seed=9)
    assert a.to_json() == b.to_json()
