"""Host minimization: complete every job on as few hosts as possible.

The pipeline:

* solve_config_lp: exact row-and-column generation on the configuration
  relaxation.  A configuration (S, t) is a job set that fits one host at
  slot t in all d demand dimensions.  The master minimizes the host count m
  subject to: at most m configurations active per slot, each (job, slot)
  covered at most once, each job covered at least `length` times.  The
  (job, slot) rows enter the master only once a solution violates them.
  Pricing per slot is an exact multi-dimensional knapsack over profits
  alpha_j - beta_{j,t}, with beta_{j,t} = 0 for a pair row not in the
  master; a column enters when its value exceeds gamma_t.  All arithmetic
  is exact: the simplex is rational, and pricing runs on ints over common
  denominators, so m* is the exact LP optimum and a true lower bound on the
  integer answer.
* sample_configurations: ceil(m*) rounds up to m_int; every slot draws m1
  configurations independently (probability x_C / m* each, possibly none,
  by an exact integer inverse-CDF over the columns' common denominator),
  then overlapping draws are disjointified in draw order.  Draw i of slot t
  runs on phase-1 host i+1.
* build_residual: a job covered n_j times keeps its first `length` covered
  slots (forb), and the remainder p' = length - n_j becomes a residual job
  with scalarized (max-norm) demand.
* schedule_residual: residual windows are mapped into the fixed binary
  laminar tree and packed by the pairing allocator on m_int fresh hosts,
  avoiding each job's forb slots.  Residuals whose mapped window cannot hold
  them get a dedicated host each (counted; absent when windows are roomy).
* partition_by_window: for horizons too long for one shot, window sizes are
  bucketed by the psi recursion into O(log* T) ranges, each range cut into
  time-disjoint odd/even slabs that share a host pool, and every slab solved
  independently.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from slotsched.laminar import LaminarTree, build_tree, forest_order, map_window
from slotsched.maxt import ScheduleError, SlotBins, best_subset
from slotsched.model import (
    Instance,
    Job,
    Schedule,
    TimeWindow,
    format_rational,
    schedule_to_json,
    slackness,
    validate,
)
from slotsched.simplex import LinearProgram, solve as lp_solve


class MinRError(RuntimeError):
    """Residual scheduling failed past every retry and escalation."""


# -- configurations -------------------------------------------------------------


@dataclass(frozen=True)
class Configuration:
    """A job set that shares one host at one slot."""

    slot: int
    jobs: frozenset[int]

    @property
    def key(self) -> tuple[int, tuple[int, ...]]:
        return (self.slot, tuple(sorted(self.jobs)))


def config_fits(instance: Instance, ids: Iterable[int], slot: int) -> bool:
    """True when every job's window covers the slot and the demands fit one
    host in every dimension."""
    jm = instance.job_map()
    chosen = [jm[j] for j in ids]
    if any(not j.window.contains_slot(slot) for j in chosen):
        return False
    return all(
        sum((j.demand[i] for j in chosen), Fraction(0)) <= 1
        for i in range(instance.dim)
    )


# -- pricing ----------------------------------------------------------------------


def price_column(
    instance: Instance,
    slot: int,
    alpha: Mapping[int, Fraction],
    beta: Mapping[tuple[int, int], Fraction],
) -> tuple[Fraction, frozenset[int]]:
    """Exact best configuration at `slot` under profits alpha_j - beta_{j,slot}.

    `maxt.best_subset` over the items by falling profit (ties by id); items
    with nonpositive profit never help and are dropped up front.  The search
    runs on ints: profits over the lcm of their denominators, demands over
    the lcm of those jobs' demand denominators, against a room of that lcm
    per dimension.  Returns (value, job set), (0, empty) when nothing
    profitable fits.
    """
    items = []
    for job in instance.jobs:
        if not job.window.contains_slot(slot):
            continue
        profit = alpha.get(job.id, 0)
        cut = beta.get((job.id, slot))
        if cut is not None:
            profit -= cut
        if profit.numerator > 0:  # profit > 0: denominators are positive
            items.append((profit, job.id, job.demand))
    if not items:
        return Fraction(0), frozenset()
    # Lists, not generators, feed the lcms: CPython gathers *args from a
    # generator in a tuple it resizes, and those freed tuples fill the tuple
    # free lists of sizes that nothing else draws from (with generators the
    # benchmark's peak RSS grew by 0.6 MB).
    scale = math.lcm(*[profit.denominator for profit, _, _ in items])
    room = math.lcm(*[q.denominator for _, _, demand in items for q in demand])
    items = [
        (profit.numerator * (scale // profit.denominator), jid,
         tuple(q.numerator * (room // q.denominator) for q in demand))
        for profit, jid, demand in items
    ]
    items.sort(key=lambda it: (-it[0], it[1]))

    def extend(state, i):
        ids, free = state
        _, jid, need = items[i]
        if all(n <= f for n, f in zip(need, free)):
            return ids + (jid,), tuple(f - n for n, f in zip(need, free))
        return None

    value, (ids, _) = best_subset(
        [it[0] for it in items], ((), (room,) * instance.dim), extend
    )
    return Fraction(value, scale), frozenset(ids)


# -- configuration LP ---------------------------------------------------------------


@dataclass(frozen=True)
class IterationAudit:
    objective: Fraction
    columns_added: int
    max_violation: Fraction


@dataclass(frozen=True)
class ConfigLpResult:
    m_star: Fraction
    m_int: int
    columns: tuple[tuple[Configuration, Fraction], ...]  # positive-value columns
    column_count: int  # all columns generated, including zero-value ones
    pair_rows: int  # (job, slot) rows in the final master
    slots: tuple[int, ...]  # slots covered by at least one window
    alpha: dict[int, Fraction]
    beta: dict[tuple[int, int], Fraction]  # pair rows in the master; absent ones are 0
    gamma: dict[int, Fraction]
    iterations: int
    trace: tuple[IterationAudit, ...]


def solve_config_lp(instance: Instance) -> ConfigLpResult:
    """Exact optimum of the configuration relaxation by row-and-column
    generation.

    Rows (all >=): per covered slot t, m - sum of x_C at t >= 0; per job,
    sum of x_C containing it >= length; per (job, slot) in the job's window,
    -sum of x_C containing the job at t >= -1.  Slots no window covers never
    carry a configuration, so they get no row.  The master starts with the
    slot and job rows only, and every column enters through the same
    `add_config` path: first the seeds, singletons at each job's first
    `length` window slots, which are feasible on their own; then, in each
    pass, one column per covered slot whose priced configuration improves.

    Pair rows are generated lazily.  After each master solve, the exact
    activity of every (job, slot) pair that a positive column covers is
    checked; each violated pair gets its row, in sorted key order, and the
    master is solved again, warm.  Pricing runs only once no pair row is
    violated, with beta holding the duals of the pair rows present (an
    absent row prices at 0).  The loop stops when a pass adds no column.
    The solution is then feasible for the full LP, and the duals, with
    beta = 0 on the absent rows, are feasible for its dual, so m* is the
    full LP's exact optimum.

    The trace records, per pricing pass, the objective, the columns added
    since the previous pass and the worst exact violation over all three
    row families, absent pair rows included (always zero).
    """
    jobs = sorted(instance.jobs, key=lambda j: j.id)
    slots = sorted({t for job in jobs for t in job.window.slots()})
    lp = LinearProgram("min")
    m_var = lp.add_variable(objective=1)
    slot_row = {t: lp.add_row({m_var: 1}, ">=", 0) for t in slots}
    job_row = {job.id: lp.add_row({}, ">=", job.length) for job in jobs}
    pair_row: dict[tuple[int, int], int] = {}

    configs: list[Configuration] = []  # index-aligned with column variables
    keys: set[tuple[int, tuple[int, ...]]] = set()
    covers: dict[tuple[int, int], list[int]] = {}  # (job, slot) -> its columns

    def add_config(c: Configuration) -> None:
        assert c.key not in keys, "priced an existing column"
        var = lp.n_vars
        entries = {slot_row[c.slot]: -1}
        for jid in c.jobs:
            pair = (jid, c.slot)
            covers.setdefault(pair, []).append(var)
            if pair in pair_row:
                entries[pair_row[pair]] = -1
            entries[job_row[jid]] = 1
        lp.add_column(0, entries)
        keys.add(c.key)
        configs.append(c)

    for job in jobs:
        for t in list(job.window.slots())[: job.length]:
            add_config(Configuration(t, frozenset({job.id})))

    trace: list[IterationAudit] = []
    added = len(configs)
    while True:
        sol = lp_solve(lp)
        if not sol.optimal:
            raise AssertionError(f"configuration master came back {sol.status}")
        # activity as ints over scale, the lcm of m's and the positive x's
        # denominators
        m = sol.x[m_var]
        active = [(c, x) for c, x in zip(configs, sol.x[1:]) if x]
        scale = math.lcm(m.denominator, *[x.denominator for _, x in active])
        per_slot: dict[int, int] = {}
        per_pair: dict[tuple[int, int], int] = {}
        per_job = dict.fromkeys(job_row, 0)
        for c, x in active:
            k = x.numerator * (scale // x.denominator)
            per_slot[c.slot] = per_slot.get(c.slot, 0) + k
            for jid in c.jobs:
                per_pair[(jid, c.slot)] = per_pair.get((jid, c.slot), 0) + k
                per_job[jid] += k
        violated = sorted(pair for pair, total in per_pair.items() if total > scale)
        if violated:
            for pair in violated:
                pair_row[pair] = lp.add_row({var: -1 for var in covers[pair]}, ">=", -1)
            continue
        m_scaled = m.numerator * (scale // m.denominator)
        worst = max([
            0,
            *(total - m_scaled for total in per_slot.values()),
            *(total - scale for total in per_pair.values()),
            *(job.length * scale - per_job[job.id] for job in jobs),
        ])
        trace.append(IterationAudit(sol.objective, added, Fraction(worst, scale)))
        duals = sol.duals
        alpha = {j.id: duals[job_row[j.id]] for j in jobs}
        beta = {key: duals[row] for key, row in pair_row.items()}
        gamma = {t: duals[row] for t, row in slot_row.items()}
        added = 0
        for t in slots:
            value, chosen = price_column(instance, t, alpha, beta)
            if chosen and value > gamma[t]:
                add_config(Configuration(t, chosen))
                added += 1
        if added == 0:
            break

    m_star = sol.objective
    columns = tuple(
        (c, sol.x[var]) for var, c in enumerate(configs, start=1) if sol.x[var] > 0
    )
    return ConfigLpResult(
        m_star=m_star,
        m_int=math.ceil(m_star),
        columns=columns,
        column_count=len(configs),
        pair_rows=len(pair_row),
        slots=tuple(slots),
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        iterations=len(trace),
        trace=tuple(trace),
    )


# -- randomized sampling --------------------------------------------------------------


def sample_configurations(
    instance: Instance, lpsol: ConfigLpResult, draws: int, seed
) -> dict[int, list[frozenset[int]]]:
    """Per slot: `draws` independent picks, configuration C with probability
    x_C / m*, nothing with the leftover probability; overlapping picks are
    disjointified in draw order (later sets drop jobs already taken).  Each
    slot consumes its own derived random stream, so results do not depend on
    slot evaluation order.

    A draw is u = k / 2^53 * m* for k = getrandbits(53), and picks the first
    column, in sorted order, whose running mass exceeds u.  With every x_C
    and m* as ints over their common denominator L, and M = m* * L, that is
    the first prefix sum P with k * M < P * 2^53: an exact integer bisection.
    """
    m_star = lpsol.m_star
    scale = math.lcm(m_star.denominator, *[x.denominator for _, x in lpsol.columns])
    total = m_star.numerator * (scale // m_star.denominator)
    by_slot: dict[int, list[tuple[tuple[int, ...], Fraction]]] = {}
    for c, x in lpsol.columns:
        by_slot.setdefault(c.slot, []).append((tuple(sorted(c.jobs)), x))
    out: dict[int, list[frozenset[int]]] = {}
    for t in lpsol.slots:
        cols = sorted(by_slot.get(t, []))
        ends: list[int] = []
        mass = 0
        for _, x in cols:
            mass += x.numerator * (scale // x.denominator)
            ends.append(mass << 53)
        if mass > total:
            raise ValueError(
                f"slot {t}: configuration mass {Fraction(mass, scale)} exceeds m* = {m_star}"
            )
        sets = [frozenset(ids) for ids, _ in cols]
        drawing = total > 0 and bool(sets)  # m* > 0 and the slot has a column
        rng = random.Random(f"{seed}:slot{t}")
        picks: list[frozenset[int]] = []
        taken: set[int] = set()
        for _ in range(draws):
            chosen: frozenset[int] = frozenset()
            if drawing:
                k = bisect_right(ends, rng.getrandbits(53) * total)
                if k < len(sets):
                    chosen = sets[k]
            chosen = chosen - taken
            taken |= chosen
            picks.append(chosen)
        out[t] = picks
    return out


# -- residuals ---------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualJob:
    """Unfinished part of a job after phase 1: `units` slots still needed,
    scalar height (max-norm), original window, and the forbidden slots where
    phase 1 already runs the job."""

    job_id: int
    units: int
    height: Fraction
    window: TimeWindow
    forb: frozenset[int]


def build_residual(
    instance: Instance, chosen: Mapping[int, Sequence[frozenset[int]]]
) -> tuple[tuple[ResidualJob, ...], dict[int, tuple[tuple[int, int], ...]]]:
    """From per-slot disjoint picks, keep each job's first `length` covered
    slots as its phase-1 assignment and return the leftovers as residuals.

    Returns (residuals, kept) where kept maps job id -> ((slot, draw), ...)
    actually retained; forb(job) is exactly the kept slots, so the identity
    units + |forb| = length holds for every residual job.
    """
    cover: dict[int, list[tuple[int, int]]] = {}
    for t in sorted(chosen):
        for draw, ids in enumerate(chosen[t]):
            for jid in ids:
                cover.setdefault(jid, []).append((t, draw))
    residuals: list[ResidualJob] = []
    kept: dict[int, tuple[tuple[int, int], ...]] = {}
    for job in sorted(instance.jobs, key=lambda j: j.id):
        mine = cover.get(job.id, [])
        mine.sort()
        keep = tuple(mine[: job.length])
        kept[job.id] = keep
        missing = job.length - len(keep)
        if missing > 0:
            residuals.append(
                ResidualJob(
                    job_id=job.id,
                    units=missing,
                    height=job.height,
                    window=job.window,
                    forb=frozenset(t for t, _ in keep),
                )
            )
    return tuple(residuals), kept


def residual_avail(residual: ResidualJob, tree: LaminarTree) -> list[int]:
    """Slots the residual may use: its window mapped into the tree, minus the
    forbidden phase-1 slots."""
    mapped = map_window(tree, residual.window)
    return [t for t in mapped.slots() if t not in residual.forb]


def split_residuals(
    residuals: Sequence[ResidualJob], tree: LaminarTree
) -> tuple[list[ResidualJob], list[ResidualJob]]:
    """(schedulable, fallback): a residual is schedulable when its mapped
    window keeps at least `units` non-forbidden slots; the rest each need a
    dedicated host (never happens when windows are roomy, counted anyway)."""
    schedulable: list[ResidualJob] = []
    fallback: list[ResidualJob] = []
    for r in residuals:
        if len(residual_avail(r, tree)) >= r.units:
            schedulable.append(r)
        else:
            fallback.append(r)
    return schedulable, fallback


def schedule_residual(
    residuals: Sequence[ResidualJob], hosts: int, tree: LaminarTree
) -> tuple[Schedule, SlotBins]:
    """Pack residuals on `hosts` fresh hosts with the pairing allocator,
    windows mapped into the tree, forb slots excluded, smaller windows first.
    Raises ScheduleError when stuck (cannot happen when every mapped window
    has enough free room and the residual area per tree node is small)."""
    mapped = {r.job_id: map_window(tree, r.window) for r in residuals}
    rank = {w: i for i, w in enumerate(forest_order(mapped.values()))}
    ordered = sorted(residuals, key=lambda r: (rank[mapped[r.job_id]], r.job_id))
    bins = SlotBins(hosts, tree.horizon)
    placements: dict[int, set[tuple[int, int]]] = {}
    for r in ordered:
        avail = residual_avail(r, tree)
        if len(avail) < r.units:
            raise ScheduleError(
                r.job_id, f"mapped window offers {len(avail)} slots for {r.units} units"
            )
        placements[r.job_id] = bins.place_pairing(r.job_id, r.height, avail, r.units)
    return Schedule.from_pairs(placements), bins


# -- parameters and reports ------------------------------------------------------------


@dataclass(frozen=True)
class MinRParams:
    c: Fraction = Fraction(6)
    epsilon: Fraction = Fraction(1, 10)
    omega: Fraction | None = None  # residual-area target; default (1 - 4*lambda)/8
    theta: Fraction = Fraction(1)
    max_retries: int = 5

    def __post_init__(self):
        if self.c <= 2:
            raise ValueError(f"c must exceed 2, got {self.c}")
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.omega is not None and not 0 < self.omega < 1:
            raise ValueError(f"omega must be in (0, 1), got {self.omega}")
        if self.theta <= 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be at least 1, got {self.max_retries}")


def _power_bounds(n: int, power: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, shift) with lo * 2^shift <= n^power <= hi * 2^shift, for
    n >= 1: square-and-multiply that keeps `bits`-bit mantissas, rounding
    lo down and hi up.  Exact (lo == hi) once no product exceeds `bits`."""
    lo = hi = 1
    base_lo = base_hi = n
    shift = base_shift = 0

    def trim(lo: int, hi: int, shift: int) -> tuple[int, int, int]:
        drop = max(0, hi.bit_length() - bits)
        return lo >> drop, -(-hi >> drop), shift + drop

    while power:
        if power & 1:
            lo, hi, shift = trim(lo * base_lo, hi * base_hi, shift + base_shift)
        power >>= 1
        if power:
            base_lo, base_hi, base_shift = trim(
                base_lo * base_lo, base_hi * base_hi, 2 * base_shift
            )
    return lo, hi, shift


def _ceil_log2(q: Fraction | int, power: int = 1) -> int:
    """The least e with 2^e >= q^power, for rational q > 0 and power >= 0.

    For a ratio n/m of positive integers, with e0 = bit length of n less
    that of m, n/m lies strictly between 2^(e0-1) and 2^(e0+1), so the
    answer is e0 or e0 + 1.  q^power itself is never built: its numerator
    and denominator are bracketed by _power_bounds, and the precision
    doubles until both ends of the bracket give the same answer, which is
    then exact (it ends at the latest when the bracket is exact)."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"log2 needs a positive argument, got {q}")

    def ratio(n: int, m: int) -> int:
        e = n.bit_length() - m.bit_length()
        at_most = n <= m << e if e >= 0 else n << -e <= m
        return e if at_most else e + 1

    bits = 64
    while True:
        n_lo, n_hi, n_shift = _power_bounds(q.numerator, power, bits)
        m_lo, m_hi, m_shift = _power_bounds(q.denominator, power, bits)
        low = ratio(n_lo, m_hi) + n_shift - m_shift
        if low == ratio(n_hi, m_lo) + n_shift - m_shift:
            return low
        bits *= 2


def log2_factor(dim: int) -> int:
    """max(1, ceil(log2 dim)): log2 d for powers of two, rounded up otherwise."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return max(1, _ceil_log2(dim))


def _gamma(dim: int, theta: Fraction) -> Fraction:
    """theta * d^2 * max(1, ceil(log2 d)): the scale of the window condition
    and of the psi recursion."""
    return Fraction(theta) * dim * dim * log2_factor(dim)


def draw_count(c: Fraction, m_int: int, dim: int) -> int:
    """Phase-1 hosts: ceil(c * m_int * max(1, log2 d)), in integers.

    Unlike log2_factor this keeps the real log2 d.  With c * m_int = P/Q and
    b = max(d, 2), this is the smallest k with 2^(k*Q) >= b^P, i.e. k*Q >=
    log2(b^P); k*Q is an integer, so that holds exactly when k*Q is at least
    ceil(log2(b^P))."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    product = Fraction(c) * m_int
    if product < 0:
        raise ValueError(f"c * m_int must be non-negative, got {product}")
    bits = _ceil_log2(max(dim, 2), product.numerator)
    return -(-bits // product.denominator)


def window_condition_threshold(
    horizon: int, dim: int, m_int: int, params: MinRParams
) -> int:
    """Least window size at which the concentration guarantee is designed to
    hold: size >= gamma * log2(T / sqrt(epsilon)) / m.

    With gamma = p/q that reads 2*m*q*size >= log2((T^2/epsilon)^p); the
    left side is an integer, so it holds exactly when size is at least
    ceil(ceil(log2((T^2/epsilon)^p)) / (2*m*q)).  0 when m or T is 0."""
    if m_int == 0 or horizon == 0:
        return 0
    gamma = _gamma(dim, params.theta)
    bits = _ceil_log2(Fraction(horizon * horizon) / params.epsilon, gamma.numerator)
    return -(-bits // (2 * m_int * gamma.denominator))


@dataclass(frozen=True)
class ResidualAreaReport:
    omega: Fraction
    hosts_bound: int  # the m the bound is scaled by (m_int)
    checked: int
    violations: int
    qualifying_checked: int
    qualifying_violations: int
    threshold: int  # least qualifying interval length
    worst_ratio: float  # max residual area / bound over checked intervals

    @property
    def rate(self) -> float:
        return self.violations / self.checked if self.checked else 0.0

    @property
    def qualifying_rate(self) -> float:
        return (
            self.qualifying_violations / self.qualifying_checked
            if self.qualifying_checked
            else 0.0
        )

    def to_json(self) -> dict:
        return {
            "omega": format_rational(self.omega),
            "hosts_bound": self.hosts_bound,
            "checked": self.checked,
            "violations": self.violations,
            "rate": self.rate,
            "qualifying_checked": self.qualifying_checked,
            "qualifying_violations": self.qualifying_violations,
            "qualifying_rate": self.qualifying_rate,
            "threshold": self.threshold,
            "worst_ratio": self.worst_ratio,
        }


def residual_area_report(
    instance: Instance,
    residuals: Sequence[ResidualJob],
    m_int: int,
    params: MinRParams = MinRParams(),
) -> ResidualAreaReport:
    """Compare residual area against omega * m_int * |I| on every subinterval
    I of the horizon (exhaustive for T <= 64, a seeded 2000-interval sample
    beyond).  Also reported for the qualifying intervals at least as long as
    the design threshold."""
    horizon = instance.horizon
    if params.omega is not None:
        omega = params.omega
    else:
        lam = slackness(instance)
        omega = (1 - 4 * lam) / 8
    if horizon <= 64:
        intervals = [
            (a, b) for a in range(1, horizon + 1) for b in range(a, horizon + 1)
        ]
    else:
        rng = random.Random(f"residual-area:{horizon}")
        intervals = sorted(
            {
                tuple(sorted((rng.randint(1, horizon), rng.randint(1, horizon))))
                for _ in range(2000)
            }
        )
    threshold = window_condition_threshold(horizon, instance.dim, m_int, params)
    # Areas are ints over the lcm of the heights, so an interval of `size`
    # slots holding area inside / hscale violates its bound omega * m_int *
    # size exactly when inside * den > per_slot * size.
    hscale = math.lcm(*[r.height.denominator for r in residuals])
    areas = [
        (r.window.start, r.window.end,
         r.units * r.height.numerator * (hscale // r.height.denominator))
        for r in residuals
    ]
    den = omega.denominator
    per_slot = omega.numerator * m_int * hscale
    checked = violations = q_checked = q_violations = 0
    worst_inside, worst_size = 0, 1  # the largest inside / size so far
    for a, b in intervals:
        size = b - a + 1
        inside = sum(area for start, end, area in areas if a <= start and end <= b)
        checked += 1
        bad = inside * den > per_slot * size
        violations += bad
        if inside * worst_size > worst_inside * size:
            worst_inside, worst_size = inside, size
        if size >= threshold:
            q_checked += 1
            q_violations += bad
    # One rounding at the end: float() is monotone, so this is the largest
    # float(inside / bound).  A ratio counts only where the bound is positive.
    worst = (
        float(Fraction(worst_inside * den, per_slot * worst_size))
        if per_slot > 0 else 0.0
    )
    return ResidualAreaReport(
        omega=omega,
        hosts_bound=m_int,
        checked=checked,
        violations=violations,
        qualifying_checked=q_checked,
        qualifying_violations=q_violations,
        threshold=threshold,
        worst_ratio=worst,
    )


# -- end-to-end solver -------------------------------------------------------------------


@dataclass(frozen=True)
class MinRResult:
    schedule: Schedule
    hosts_used: int
    m_star: Fraction
    m_int: int
    m1: int
    retries: int
    effective_c: Fraction
    fallback_ids: tuple[int, ...]
    phase2_idle: int
    residual_count: int
    residual_stats: ResidualAreaReport
    window_condition_met: int
    window_condition_total: int

    def to_json(self) -> dict:
        return {
            "hosts_used": self.hosts_used,
            "m_star": format_rational(self.m_star),
            "m1": self.m1,
            "m2": self.m_int,
            "retries": self.retries,
            "effective_c": format_rational(self.effective_c),
            "fallbacks": list(self.fallback_ids),
            "phase2_idle": self.phase2_idle,
            "residual_count": self.residual_count,
            "residual_area_stats": self.residual_stats.to_json(),
            "window_condition": {
                "met": self.window_condition_met,
                "total": self.window_condition_total,
                "threshold": self.residual_stats.threshold,
            },
            "schedule": schedule_to_json(self.schedule),
        }


def solve_minr(
    instance: Instance, params: MinRParams = MinRParams(), seed=0
) -> MinRResult:
    """Complete every job, reporting the hosts used.

    Phase 1 samples LP configurations onto m1 = ceil(c * m_int * max(1,
    log2 d)) hosts; phase 2 packs the residuals onto m_int more.  A stuck
    phase 2 retries with fresh randomness up to max_retries times, then
    another max_retries with c + 1, then raises MinRError.  Residuals whose
    tree-mapped window cannot hold them run on dedicated extra hosts
    (fallbacks; empty when windows are roomy relative to lengths).  Both
    phase-2 hosts and fallbacks count toward hosts_used.
    """
    lpsol = solve_config_lp(instance)
    m_int = lpsol.m_int
    horizon = instance.horizon
    tree = build_tree(max(horizon, 1))

    attempts = 2 * params.max_retries
    for attempt in range(attempts):
        c_eff = params.c if attempt < params.max_retries else params.c + 1
        m1 = draw_count(c_eff, m_int, instance.dim)
        chosen = sample_configurations(instance, lpsol, m1, seed=f"{seed}:a{attempt}")
        residuals, kept = build_residual(instance, chosen)
        schedulable, fallback = split_residuals(residuals, tree)
        try:
            phase2, bins2 = schedule_residual(schedulable, m_int, tree)
        except ScheduleError:
            continue

        placements: dict[int, set[tuple[int, int]]] = {}
        for jid, pairs in kept.items():
            if pairs:
                placements[jid] = {(draw + 1, t) for t, draw in pairs}
        for jid, spots in phase2.placements.items():
            placements.setdefault(jid, set()).update(
                (m1 + h, t) for h, t in spots
            )
        for k, r in enumerate(fallback, start=1):
            host = m1 + m_int + k
            free = [t for t in r.window.slots() if t not in r.forb][: r.units]
            placements.setdefault(r.job_id, set()).update((host, t) for t in free)

        hosts_used = m1 + m_int + len(fallback)
        schedule = Schedule.from_pairs(placements)
        report = validate(
            instance, schedule, require_all_complete=True, hosts=hosts_used
        )
        if not report.feasible:
            raise AssertionError(
                f"internal: assembled schedule invalid: {report.violations[:3]}"
            )
        used_phase2 = sum(1 for v in bins2.load.values() if v > 0)
        stats = residual_area_report(instance, residuals, m_int, params)
        return MinRResult(
            schedule=schedule,
            hosts_used=hosts_used,
            m_star=lpsol.m_star,
            m_int=m_int,
            m1=m1,
            retries=attempt,
            effective_c=c_eff,
            fallback_ids=tuple(r.job_id for r in fallback),
            phase2_idle=m_int * horizon - used_phase2,
            residual_count=len(residuals),
            residual_stats=stats,
            window_condition_met=sum(j.window.size >= stats.threshold for j in instance.jobs),
            window_condition_total=len(instance.jobs),
        )
    raise MinRError(
        f"residual scheduling failed {attempts} attempts "
        f"(c = {params.c} then {params.c + 1}); seed {seed!r}"
    )


# -- window-size partition ------------------------------------------------------------------


@dataclass(frozen=True)
class PsiPartition:
    gamma: Fraction
    psi: tuple[int, ...]  # psi[0] = 0 sentinel; psi[kappa] == horizon
    kappa: int
    horizon: int

    def ranges(self) -> list[tuple[int, int]]:
        """Window-size buckets (lo exclusive, hi inclusive] covering (0, T]."""
        return [(self.psi[w], self.psi[w + 1]) for w in range(self.kappa)]


def psi_table(horizon: int, dim: int, theta: Fraction = Fraction(1)) -> PsiPartition:
    """The recursion psi(1) = 4*ceil(gamma^2), psi(i) = floor(2^(psi(i-1)/2gamma))
    with gamma = theta * d^2 * max(1, ceil(log2 d)), capped at T.  It runs on
    the integers, so psi(i-1) >= 2gamma*log2 psi(i) holds exactly; window
    sizes are integers, so the floor keeps every window of the real bound
    2^(psi(i-1)/2gamma) in its bucket.

    With exponent a/b = psi(i-1)/2gamma the cap holds when a >= log2(T^b),
    and below it psi(i) is the largest k with k^b <= 2^a, found bit by bit
    from 2^(a//b).  A non-increasing step jumps straight to T (the recursion
    has provably escaped its growth regime, e.g. tiny gamma)."""
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    gamma = _gamma(dim, theta)
    psi = [0, min(horizon, 4 * math.ceil(gamma * gamma))]
    while psi[-1] < horizon:
        prev = psi[-1]
        exponent = prev / (2 * gamma)
        a, b = exponent.numerator, exponent.denominator
        if a >= _ceil_log2(horizon, b):
            nxt = horizon
        else:
            nxt = 1 << (a // b)
            for bit in reversed(range(a // b)):
                if _ceil_log2(nxt | (1 << bit), b) <= a:
                    nxt |= 1 << bit
        if nxt <= prev:
            nxt = horizon
        psi.append(nxt)
    return PsiPartition(
        gamma=gamma, psi=tuple(psi), kappa=len(psi) - 1, horizon=horizon
    )


def slab_windows(block: int, horizon: int) -> tuple[list[TimeWindow], list[TimeWindow]]:
    """Odd and even slab families of width 2*block covering [1, horizon],
    each listed by start.

    Even slabs start at 1, 2B+1, 4B+1, ...; odd slabs at B+1, 3B+1, ....
    Any window of length at most B lies inside a slab of one family."""

    def family(first: int) -> list[TimeWindow]:
        return [
            TimeWindow(s, min(s + 2 * block - 1, horizon))
            for s in range(first, horizon + 1, 2 * block)
        ]

    return family(block + 1), family(1)


@dataclass(frozen=True)
class SlabRun:
    range_index: int
    parity: str  # "odd" | "even"
    slab: TimeWindow
    job_ids: tuple[int, ...]
    result: MinRResult
    host_base: int  # merged schedule uses hosts host_base+1 .. host_base+hosts_used


@dataclass(frozen=True)
class PartitionResult:
    partition: PsiPartition
    runs: tuple[SlabRun, ...]
    pool_hosts: tuple[tuple[int, int], ...]  # per range: (odd pool, even pool)
    total_hosts: int
    schedule: Schedule

    def to_json(self) -> dict:
        return {
            "gamma": format_rational(self.partition.gamma),
            "psi": list(self.partition.psi[1:]),
            "kappa": self.partition.kappa,
            "total_hosts": self.total_hosts,
            "pools": [list(p) for p in self.pool_hosts],
            "runs": [
                {
                    "range": r.range_index,
                    "parity": r.parity,
                    "slab": [r.slab.start, r.slab.end],
                    "jobs": list(r.job_ids),
                    "hosts_used": r.result.hosts_used,
                    "host_base": r.host_base,
                }
                for r in self.runs
            ],
            "schedule": schedule_to_json(self.schedule),
        }


def partition_by_window(
    instance: Instance, params: MinRParams = MinRParams(), seed=0
) -> PartitionResult:
    """Bucket jobs by window size with the psi recursion, cut each bucket
    into time-disjoint odd/even slabs, solve every slab independently, and
    merge: a range's odd slabs share one host pool (they never overlap in
    time), its even slabs another, and ranges stack pools on top of each
    other.  Every job lands in exactly one slab."""
    part = psi_table(max(instance.horizon, 1), instance.dim, params.theta)
    ranges = part.ranges()
    families = [slab_windows(hi, instance.horizon) for _, hi in ranges]  # (odd, even)
    groups: dict[tuple[int, TimeWindow], list[Job]] = {}
    for job in instance.jobs:
        size = job.window.size
        w = next((w for w, (lo, hi) in enumerate(ranges) if lo < size <= hi), None)
        if w is None:
            raise AssertionError(f"job {job.id}: window size {size} outside (0, T]")
        slab = next(
            (s for slabs in families[w] for s in slabs if s.contains(job.window)), None
        )
        if slab is None:
            raise AssertionError(
                f"job {job.id}: window fits no slab of width {2 * ranges[w][1]}"
            )
        groups.setdefault((w, slab), []).append(job)

    runs: list[SlabRun] = []
    pools: list[tuple[int, int]] = []
    base = 0
    merged: dict[int, set[tuple[int, int]]] = {}
    for w, family in enumerate(families):
        range_pool = []
        for parity, slabs in zip(("odd", "even"), family):
            pool = 0
            for slab in (s for s in slabs if (w, s) in groups):
                jobs = groups[(w, slab)]
                result = solve_minr(
                    instance.with_jobs(jobs), params,
                    seed=f"{seed}:w{w}:{parity}:{slab.start}",
                )
                runs.append(
                    SlabRun(
                        range_index=w,
                        parity=parity,
                        slab=slab,
                        job_ids=tuple(sorted(j.id for j in jobs)),
                        result=result,
                        host_base=base,
                    )
                )
                for jid, spots in result.schedule.placements.items():
                    merged.setdefault(jid, set()).update((base + h, t) for h, t in spots)
                pool = max(pool, result.hosts_used)
            range_pool.append(pool)
            base += pool
        pools.append(tuple(range_pool))

    return PartitionResult(
        partition=part,
        runs=tuple(runs),
        pool_hosts=tuple(pools),
        total_hosts=base,
        schedule=Schedule.from_pairs(merged),
    )
