"""Throughput maximization: schedule a max-weight job subset on m hosts.

The laminar pipeline is relaxation -> rounding -> greedy packing:

* solve_relaxation: fractional selection x in [0,1]^J maximizing total
  weight, with the area inside every window chi of the (laminar) family
  capped at omega * m * |chi|.  In the areas y_j = area_j * x_j these caps
  over a laminar family define a polymatroid, so no LP is needed: filling
  jobs in density order (Edmonds' greedy) is optimal.  The capacity headroom
  bought by omega < 1 is exactly what the later packing steps spend.
* round_selection: walks the window forest bottom-up moving fractional area
  from a node's fractional job to fractional jobs strictly inside it, so at
  most one fractional job survives per root-leaf path; survivors round up.
  On an LP-optimal input the strictly-contained jobs have no lower density,
  so the rounded profit never drops below the LP optimum, while the area in
  any window grows by at most lambda * |chi| (one fractional job per branch,
  each of area <= lambda * |chi|).
* schedule_selected: places the rounded set unit by unit.  "pairing" mode
  opens at most one gray bin per slot and closes bins in black pairs whose
  combined load exceeds one, which is the counting argument that makes
  omega = 1/2 - lambda(1/2 + 1/m) always succeed.  "smallfit" mode just
  needs a bin less than (1 - s_j) full in enough slots and backs the
  height-split variant for jobs of height <= alpha.

A solve_maxt_laminar call keeps its loops on ints.  It builds the window
forest once (the build is also its laminarity check) and hands it to the
relaxation, which reads omega and the heights as ints over one scale
(`model.as_ints`).  The rounding tests values on their numerators and
denominators and does Fraction arithmetic only on the few fractional jobs.
Bins keep int loads over one scale, widened one height at a time, and, per
host, int bitmasks of the slots holding its gray bins and its first white
bins.  The profit is one sum of the weights as ints over one scale.  The
height-class pipeline computes its class thresholds once per call and
searches subsets on the weights as ints.

Arbitrary instances are laminarized first (windows shrink by at most 4x, so
lambda inflates to 4*lambda), and separate pipelines cover high jobs
(height-class decomposition driven by an exact single-host solver), the
log-n fallback, and utilization greedy (weights forced to areas).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from typing import Callable, Iterable, Sequence, TypeVar

from slotsched.laminar import forest_order, transform_instance, window_forest
from slotsched.model import (
    Instance,
    Job,
    Schedule,
    area,
    as_ints,
    format_rational,
    schedule_to_json,
    slackness,
)
# not called here: the benchmark's tracer (bench/layers.py) times maxt.lp_solve
from slotsched.simplex import solve as lp_solve  # noqa: F401

S = TypeVar("S")


class ScheduleError(RuntimeError):
    """The greedy packer got stuck on a job (preconditions not met)."""

    def __init__(self, job_id: int, detail: str):
        super().__init__(f"job {job_id}: {detail}")
        self.job_id = job_id


# -- guarantee-range arithmetic ----------------------------------------------


def alpha_split(m: int, lam: Fraction) -> Fraction:
    """Height threshold separating the small and large pipelines."""
    lam = Fraction(lam)
    return lam * (1 - lam) / (1 - lam + lam / m)


def omega_small(m: int, lam: Fraction) -> Fraction:
    """LP cap for the small-height path: (1-a)(1-lam) - a*lam/m with
    a = alpha_split(m, lam), which simplifies to (1-lam)^2."""
    return (1 - Fraction(lam)) ** 2


def omega_single(m: int, lam: Fraction) -> Fraction:
    """LP cap under which the pairing scheduler can never fail."""
    return Fraction(1, 2) - Fraction(lam) * (Fraction(1, 2) + Fraction(1, m))


def single_slack_limit(m: int) -> Fraction:
    """Largest lambda (exclusive) with omega_single > 0."""
    return 1 - Fraction(2, m + 2)


def general_slack_limit(m: int) -> Fraction:
    """Largest lambda (exclusive) for the laminarize-then-solve pipeline."""
    return Fraction(1, 4) - Fraction(1, 2 * (m + 2))


# -- LP relaxation ------------------------------------------------------------


@dataclass(frozen=True)
class FractionalSelection:
    values: dict[int, Fraction]  # job id -> x in [0, 1]
    objective: Fraction
    omega: Fraction


def solve_relaxation(
    instance: Instance, omega: Fraction, forest: dict | None = None
) -> FractionalSelection:
    """Exact optimum of the windowed-area relaxation over a laminar family.

    With y_j = area_j * x_j the feasible region {0 <= y_j <= area_j,
    y(chi) <= omega * m * |chi| for every family window chi} is a polymatroid,
    because the capped sets form a laminar family.  Edmonds' greedy is
    therefore optimal: visit jobs by decreasing density (ties by id) and give
    each the most area that every family window containing its own still has
    room for.  Zero-weight jobs add nothing and stay at 0.  Each job walks
    its ancestor chain in the window forest, and every area, capacity and
    density is an integer over one common denominator, so the only rationals
    built are the returned values and objective.  `forest`, when the caller
    has built it, is `window_forest` of the jobs' windows."""
    omega = Fraction(omega)
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    parent = window_forest(job.window for job in instance.jobs) if forest is None else forest
    if parent is None:
        raise ValueError("job windows are not laminar; transform the instance first")
    # zero weights stay at 0; capacities and areas are ints over one scale
    live = [job for job in instance.jobs if job.weight != 0]
    (cap, *heights), _ = as_ints([omega] + [job.height for job in live])
    cap *= instance.hosts
    residual: list[int] = []
    above: dict = {}  # window -> indices of itself and its ancestors in residual
    for node, up in parent.items():  # preorder: a parent's entry comes first
        above[node] = [len(residual)] + (above[up] if up is not None else [])
        residual.append(cap * node.size)
    # densities weight/area as ints over one common denominator `unit`
    scaled = []
    for job, h in zip(live, heights):
        a = job.length * h
        scaled.append((job, a, job.weight.denominator * a))
    unit = lcm(*[qa for _, _, qa in scaled])
    ranked = sorted(
        (-job.weight.numerator * (unit // qa), job.id, a, job.window) for job, a, qa in scaled
    )
    values = dict.fromkeys(sorted(job.id for job in instance.jobs), Fraction(0))
    total = 0  # objective * unit
    for neg_density, jid, a, window in ranked:
        y = min(a, min(residual[i] for i in above[window]))
        if y == 0:
            continue
        for i in above[window]:
            residual[i] -= y
        values[jid] = Fraction(y, a)
        total -= neg_density * y
    objective = Fraction(total, unit)
    return FractionalSelection(values, objective, omega)


# -- rounding ------------------------------------------------------------------


@dataclass(frozen=True)
class RoundingResult:
    selected: tuple[int, ...]
    adjusted: dict[int, Fraction]  # post-transfer values, before the round-up


def round_selection(instance: Instance, selection: FractionalSelection | dict) -> RoundingResult:
    """Round a fractional selection to a job set, never losing LP profit when
    the input is LP-optimal.  Zeros stay zero; per window family node the
    selected area exceeds the LP cap by at most lambda * m-th of the node.
    Only jobs strictly between 0 and 1 move, so only their windows form the
    forest walked here; they must be laminar (ValueError otherwise).  Values
    must be ints or Fractions, so that every step stays exact; each is
    tested on its numerator n and denominator d."""
    values = dict(selection.values if isinstance(selection, FractionalSelection) else selection)
    jobs = {job.id: job for job in instance.jobs}
    # only fractional jobs ever move, and a move can only end a job's
    # fractionality (donors fall toward 0, receivers rise toward 1)
    frac = set()
    for jid, x in values.items():
        if jid not in jobs:
            raise ValueError(f"selection mentions unknown job {jid}")
        if type(x) is not int and not isinstance(x, Fraction):  # bools and floats too
            raise ValueError(f"value {x!r} for job {jid} is not an int or a Fraction")
        n, d = x.numerator, x.denominator
        if not 0 <= n <= d:
            raise ValueError(f"fractional value {x} for job {jid} outside [0, 1]")
        if 0 < n < d:
            frac.add(jid)
    areas = {jid: area(jobs[jid]) for jid in frac}
    key = {jid: (-jobs[jid].weight / areas[jid], jid) for jid in frac}  # densest first

    def move_area(donor: int, receiver: int) -> None:
        a_d, a_r = areas[donor], areas[receiver]
        give = min(a_d * values[donor], a_r * (1 - values[receiver]))
        values[donor] -= give / a_d
        values[receiver] += give / a_r
        if values[donor] == 0:
            frac.discard(donor)
        if values[receiver] == 1:
            frac.discard(receiver)

    parent = window_forest(jobs[jid].window for jid in frac)
    if parent is None:
        raise ValueError("windows of the fractional jobs are not laminar")
    children: dict = {node: [] for node in parent}
    bucket: dict = {node: [] for node in parent}
    for node, up in parent.items():
        if up is not None:
            children[up].append(node)
    for jid in frac:
        bucket[jobs[jid].window].append(jid)

    # bottom-up, per node: leave one fractional job in its window by pushing
    # area toward the denser job, then drain that job into fractional jobs
    # strictly inside the node until it empties or they all saturate.  Both
    # steps touch only the node and its subtree, which reversed preorder
    # finishes first.
    for node in reversed(parent):
        here = sorted(bucket[node], key=key.__getitem__)
        while len(here) > 1:
            move_area(here[-1], here[0])
            here = [j for j in here if j in frac]
        if not here:
            continue
        (jid,) = here
        below = []
        stack = list(children[node])
        while stack:
            inner = stack.pop()
            below.extend(k for k in bucket[inner] if k in frac)
            stack.extend(children[inner])
        for k in sorted(below, key=key.__getitem__):
            if jid not in frac:
                break
            move_area(jid, k)

    selected = tuple(sorted(j for j, x in values.items() if x.numerator > 0))
    return RoundingResult(selected=selected, adjusted=values)


# -- bin state and the two packing modes ---------------------------------------

WHITE, GRAY, BLACK = "white", "gray", "black"


class SlotBins:
    """Mutable bin state for one packing run: m hosts x T slots, scalar loads.

    Loads are Python ints over one common denominator `_scale` (a bin's load
    is `_load[(h, t)] / _scale`).  A height whose denominator does not divide
    `_scale` widens it to their lcm and rescales every stored load, so every
    fit test is an integer comparison.  `load` and `load_of` give the exact
    `Fraction` view; `color` and `pairs` record the pairing packer's bins.

    The pairing packer keeps two int bitmasks over the slots per host h (bit
    t stands for slot t): `_gray[h]` holds the slots whose gray bin is on h,
    and `_white[h]` the slots whose first white bin is on h.  A slot holds at
    most one gray bin, and its non-white bins are hosts 1..k, so its first
    white bin is host k + 1 and each slot is in exactly one `_white` mask
    until all its hosts are colored.  A unit ANDs the masks with its job's
    slots and reads the set bits host by host, which is host-major order."""

    def __init__(self, hosts: int, horizon: int):
        self.hosts = hosts
        self.horizon = horizon
        self._scale = 1
        self._load: dict[tuple[int, int], int] = {}
        self.color: dict[tuple[int, int], str] = {}
        self.pairs: list[tuple[tuple[int, int], tuple[int, int]]] = []
        self._gray = [0] * (hosts + 1)  # index 0 unused
        self._white = [0] * (hosts + 1)
        if hosts:
            self._white[1] = ((1 << horizon) - 1) << 1  # every slot starts white

    @property
    def load(self) -> dict[tuple[int, int], Fraction]:
        """Every bin ever placed on, in first-placement order, with its load."""
        return {b: Fraction(v, self._scale) for b, v in self._load.items()}

    def load_of(self, h: int, t: int) -> Fraction:
        return Fraction(self._load.get((h, t), 0), self._scale)

    def color_of(self, h: int, t: int) -> str:
        return self.color.get((h, t), WHITE)

    def _units(self, q: Fraction) -> int:
        """`q` as an integer over `_scale`, widening the scale to fit it."""
        den = q.denominator
        if self._scale % den:
            factor = den // gcd(self._scale, den)
            self._scale *= factor
            for b in self._load:
                self._load[b] *= factor
        return q.numerator * (self._scale // den)

    def place(self, h: int, t: int, height: Fraction) -> None:
        u = self._units(height)  # first: widening rescales the stored loads
        self._load[(h, t)] = self._load.get((h, t), 0) + u

    def _slot_mask(self, avail: Iterable[int]) -> int:
        """The slots of `avail` as a bitmask; ValueError for a slot outside
        1..horizon."""
        if type(avail) is range and avail.step == 1:  # a window's slots
            if avail and not (0 < avail.start and avail.stop <= self.horizon + 1):
                raise ValueError(f"slots {avail.start}..{avail.stop - 1} outside 1..{self.horizon}")
            return ((1 << len(avail)) - 1) << avail.start if avail else 0
        mask = 0
        for t in avail:
            if not 0 < t <= self.horizon:
                raise ValueError(f"slot {t} outside 1..{self.horizon}")
            mask |= 1 << t
        return mask

    def _pair_unit(self, job_id: int, u: int, mask: int) -> tuple[int, int]:
        """One unit of `u` load into the slots of `mask` by the pairing rule
        (see allocate_pairing)."""
        room = self._scale - u  # a gray fits when its load is at most this
        load, gray, white = self._load, self._gray, self._white
        first_gray = first_white = None
        for h in range(1, self.hosts + 1):
            bits = gray[h] & mask
            if bits and first_gray is None:
                first_gray = (h, (bits & -bits).bit_length() - 1)
            while bits:
                low = bits & -bits
                b = (h, low.bit_length() - 1)
                if load[b] <= room:
                    load[b] += u
                    return b
                bits ^= low
            bits = white[h] & mask
            if bits and first_white is None:
                first_white = (h, (bits & -bits).bit_length() - 1)
        if first_white is None:
            if first_gray is not None:
                raise ScheduleError(job_id, "no gray bin fits and no white bin available")
            raise ScheduleError(job_id, "no white bin available to open")
        h, t = first_white
        load[first_white] = load.get(first_white, 0) + u
        white[h] ^= 1 << t
        if h < self.hosts:
            white[h + 1] |= 1 << t
        if first_gray is None:
            self.color[first_white] = GRAY
            gray[h] |= 1 << t
            return first_white
        gray[first_gray[0]] ^= 1 << first_gray[1]
        self.color[first_gray] = BLACK
        self.color[first_white] = BLACK
        self.pairs.append((first_gray, first_white))
        return first_white

    def allocate_pairing(self, job_id: int, height: Fraction, avail: Iterable[int]) -> tuple[int, int]:
        """One processing unit of a job into one slot of `avail`.

        Use the first gray bin that fits; if grays exist but none fit, put the
        unit in the first white bin and close it with the first gray as a
        black pair (their combined load then exceeds one); with no gray in
        reach, open the first white bin as the new gray.  "First" is
        host-major: lowest host, then lowest slot.  Raises ValueError for a
        slot outside 1..horizon and ScheduleError when stuck.
        """
        mask = self._slot_mask(avail)
        return self._pair_unit(job_id, self._units(height), mask)

    def open_host(self, t: int, cap: Fraction) -> int | None:
        """Lowest host whose bin at t is strictly less than `cap` full;
        ValueError for a slot outside 1..horizon."""
        if not 0 < t <= self.horizon:
            raise ValueError(f"slot {t} outside 1..{self.horizon}")
        return self._open_host(t, self._units(cap))

    def _open_host(self, t: int, limit: int) -> int | None:
        """open_host for a checked slot and a cap over `_scale`."""
        load = self._load
        for h in range(1, self.hosts + 1):
            if load.get((h, t), 0) < limit:
                return h
        return None

    def place_pairing(
        self, job_id: int, height: Fraction, avail: Iterable[int], units: int
    ) -> set[tuple[int, int]]:
        """`units` units of a job in distinct slots of `avail`, each placed
        as allocate_pairing places it, with the slots used so far taken out.
        Raises ValueError for a slot outside 1..horizon and ScheduleError
        when stuck."""
        mask = self._slot_mask(avail)
        u = self._units(height)
        spots: set[tuple[int, int]] = set()
        for _ in range(units):
            h, t = self._pair_unit(job_id, u, mask)
            mask ^= 1 << t
            spots.add((h, t))
        return spots

    def place_smallfit(
        self, job_id: int, height: Fraction, slots: Iterable[int], units: int
    ) -> set[tuple[int, int]]:
        """`units` units of a job in the first slots of `slots` where some
        host is less than (1 - height) full, each on the lowest such host.
        Raises ValueError for a slot outside 1..horizon and ScheduleError,
        having placed nothing, when fewer slots qualify."""
        slots = slots if type(slots) is range else list(slots)
        self._slot_mask(slots)  # checks the horizon, in O(1) for a range
        cap = self._units(1 - height)
        found: list[tuple[int, int]] = []
        for t in slots:  # one scan finds each slot and its host together
            if len(found) == units:
                break
            h = self._open_host(t, cap)
            if h is not None:
                found.append((h, t))
        if len(found) < units:
            raise ScheduleError(job_id, f"only {len(found)} open slots for {units} units")
        for h, t in found:
            self.place(h, t, height)
        return set(found)


def schedule_selected(
    instance: Instance, selected: Iterable[int], mode: str = "pairing"
) -> tuple[Schedule, SlotBins]:
    """Pack the selected jobs unit by unit, windows bottom-up, ids ascending.

    Raises ScheduleError when stuck; under the omega preconditions of the
    respective pipeline that must not happen (tested property, not checked
    here).
    """
    if mode not in ("pairing", "smallfit"):
        raise ValueError(f"unknown mode {mode!r}")
    jobs = instance.job_map()
    chosen = [jobs[j] for j in selected]
    node_rank = {w: i for i, w in enumerate(forest_order(j.window for j in chosen))}
    chosen.sort(key=lambda j: (node_rank[j.window], j.id))
    bins = SlotBins(instance.hosts, instance.horizon)
    placements: dict[int, set[tuple[int, int]]] = {}
    place = bins.place_pairing if mode == "pairing" else bins.place_smallfit
    for job in chosen:
        placements[job.id] = place(job.id, job.height, job.window.slots(), job.length)
    return Schedule.from_pairs(placements), bins


# -- solver results -------------------------------------------------------------


@dataclass(frozen=True)
class MaxTResult:
    selected: tuple[int, ...]
    schedule: Schedule
    profit: Fraction
    path: str
    omega: Fraction | None = None
    lp_bound: Fraction | None = None
    # jobs laminarization could not keep; empty whenever the slackness guards
    # admit the instance (see solve_maxt_general), kept as the result's
    # "dropped" key, which the benchmark's output checker reads
    dropped: tuple[int, ...] = ()

    def to_json(self) -> dict:
        return {
            "selected": list(self.selected),
            "profit": format_rational(self.profit),
            "path": self.path,
            "omega": None if self.omega is None else format_rational(self.omega),
            "lp_bound": None if self.lp_bound is None else format_rational(self.lp_bound),
            "dropped": list(self.dropped),
            "schedule": schedule_to_json(self.schedule),
        }


def _profit(instance: Instance, ids: Iterable[int]) -> Fraction:
    """Total weight of `ids`: the weights summed as ints over one scale, one
    Fraction built."""
    jm = instance.job_map()
    weights, scale = as_ints([jm[j].weight for j in ids])
    return Fraction(sum(weights), scale)


def _empty_result(path: str, omega: Fraction | None = None) -> MaxTResult:
    return MaxTResult((), Schedule.from_pairs({}), Fraction(0), path, omega=omega)


# -- exact single-host throughput ------------------------------------------------


def best_subset(
    weights: Sequence[int | Fraction],
    root: S,
    extend: Callable[[S, int], S | None],
) -> tuple[int | Fraction, S]:
    """Exact best-weight subset of items 0..n-1, as (weight, state).

    Depth-first include/exclude search on an explicit stack, trying items in
    index order (callers list them heaviest first) and including before
    excluding.  `extend(state, i)` is the state with item i added, or None
    when it does not fit; the root state stands for the empty set.  A node
    is pruned when its weight plus every remaining weight cannot strictly
    beat the best so far, and only a strictly heavier set replaces the best,
    so the result is the first heaviest set in include-first order.  Sums
    start at int 0, so int weights are added as ints (and the empty set
    weighs int 0 whatever the weights' type).
    """
    suffix = [0] * (len(weights) + 1)
    for i in range(len(weights) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]
    best_weight, best_state = 0, root
    stack = [(0, 0, root)]
    while stack:
        i, weight, state = stack.pop()
        if weight > best_weight:
            best_weight, best_state = weight, state
        if i == len(weights) or weight + suffix[i] <= best_weight:
            continue
        stack.append((i + 1, weight, state))  # exclude, popped after include's subtree
        grown = extend(state, i)
        if grown is not None:
            stack.append((i + 1, weight + weights[i], grown))
    return best_weight, best_state


def _edf(sel: Sequence[Job], horizon: int) -> dict[int, set[int]] | None:
    """Earliest-due-date slot assignment of `sel` on one host over slots
    1..horizon, or None when some job misses its window.

    In every slot the host runs the released, unfinished job of earliest due
    date (ties by id), which decides preemptive one-machine feasibility with
    release times and due dates exactly (Horn 1974).  The simulation jumps
    from event to event: the job on top of a (due, id) heap runs until it
    completes, the next job is released or its due date passes, and the
    result maps each job id, in `sel` order, to the slots it ran in."""
    assign: dict[int, set[int]] = {j.id: set() for j in sel}
    pending = sorted(sel, key=lambda j: j.release, reverse=True)  # next release last
    ready: list[list[int]] = []  # heap of [due, id, remaining length]
    t = 1
    while t <= horizon:
        while pending and pending[-1].release <= t:
            job = pending.pop()
            heappush(ready, [job.due, job.id, job.length])
        if not ready:
            if not pending:
                return assign
            t = pending[-1].release  # idle until the next release
            continue
        top = ready[0]
        due, jid, left = top
        if due < t:
            return None
        stop = min(t + left, due + 1, horizon + 1)
        if pending:
            stop = min(stop, pending[-1].release)
        assign[jid].update(range(t, stop))
        if stop - t == left:
            heappop(ready)
        else:
            top[2] = left - (stop - t)
        t = stop
    return None if ready or pending else assign


def single_host_throughput(
    jobs: Sequence[Job],
) -> tuple[Fraction, tuple[int, ...], dict[int, set[int]]]:
    """Best-weight subset of unit-height jobs feasible on one host, plus its
    earliest-deadline slot assignment.

    Feasibility of a set is decided by the earliest-due-date simulation
    (exact for preemptive single-host windows on integer slots); the subset
    search is `best_subset` over the jobs heaviest first, so it is exact and
    affordable for the per-class job counts the callers produce.  It runs on
    the weights as ints over the lcm of their denominators.
    """
    horizon = max((j.due for j in jobs), default=0)
    weights, scale = as_ints([j.weight for j in jobs])
    order = sorted(zip(weights, jobs), key=lambda wj: (-wj[0], wj[1].id))

    def extend(state, i):
        sel = state[0] + (order[i][1],)
        assign = _edf(sel, horizon)
        return None if assign is None else (sel, assign)

    weight, (sel, assign) = best_subset([w for w, _ in order], ((), {}), extend)
    return Fraction(weight, scale), tuple(sorted(j.id for j in sel)), assign


# -- height classes ----------------------------------------------------------------


def _class_floors(delta: Fraction, eps: Fraction, top: Fraction) -> list[Fraction]:
    """delta * (1+eps)^k for k = 0, 1, ... while that is at most `top`, each
    made from the last by one multiplication; delta itself always comes first."""
    floors, step = [delta], delta * (1 + eps)
    while step <= top:
        floors.append(step)
        step *= 1 + eps
    return floors


def _class_of(s: Fraction, floors: list[Fraction]) -> int:
    """Largest k with floors[k] <= s; floors must reach at least up to s."""
    k = bisect_right(floors, s) - 1
    if k < 0:
        raise ValueError(f"height {s} below delta {floors[0]}")
    return k


def height_class(s: Fraction, delta: Fraction, eps: Fraction) -> int:
    """Largest k >= 0 with delta * (1+eps)^k <= s (requires s >= delta)."""
    return _class_of(s, _class_floors(delta, eps, s))


def class_hosts(m: int, delta: Fraction, eps: Fraction, k: int) -> int:
    """Unit-height host budget for class k: m * floor(1 / rounded-height)."""
    h = delta * (1 + eps) ** k
    return m * (Fraction(1) / h).__floor__()


def solve_large_heights(
    instance: Instance, delta: Fraction, eps: Fraction = Fraction(1)
) -> MaxTResult:
    """Height-class decomposition for jobs of height >= delta.

    Per class: round heights down to delta*(1+eps)^k, treat them as unit
    height on m_k = m*floor(1/h_k) virtual hosts filled by repeated exact
    single-host solves, then map virtual hosts back to the m real ones.  When
    m_k > m only floor(floor(1/h_k)/(1+eps)) virtual hosts fit per real host
    at original heights (per-host floor; a global floor can overcommit), so
    the heaviest that many per host survive.  Best class wins.
    """
    delta = Fraction(delta)
    eps = Fraction(eps)
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not instance.jobs:
        return _empty_result("large-heights")
    floors = _class_floors(delta, eps, Fraction(1))  # every height is at most one
    classes: dict[int, list[Job]] = {}
    for job in instance.jobs:
        classes.setdefault(_class_of(job.height, floors), []).append(job)

    m = instance.hosts
    best: tuple[Fraction, int, dict[int, set[tuple[int, int]]], tuple[int, ...]] | None = None
    for k in sorted(classes):
        m_k = class_hosts(m, delta, eps, k)
        remaining = sorted(classes[k], key=lambda j: j.id)
        strips: list[tuple[Fraction, dict[int, set[int]]]] = []
        for _ in range(m_k):
            if not remaining:
                break
            weight, ids, assign = single_host_throughput(remaining)
            if not ids:
                break
            strips.append((weight, assign))
            taken = set(ids)
            remaining = [j for j in remaining if j.id not in taken]
        if m_k > m:
            per_host = ((Fraction(m_k, m)) / (1 + eps)).__floor__()
            keep = min(len(strips), m * per_host)
            order = sorted(range(len(strips)), key=lambda i: (-strips[i][0], i))[:keep]
        else:
            per_host = 1
            order = list(range(len(strips)))
        placements: dict[int, set[tuple[int, int]]] = {}
        ids: list[int] = []
        profit = Fraction(0)
        for rank, idx in enumerate(order):
            host = rank // per_host + 1
            weight, assign = strips[idx]
            profit += weight
            for jid, slots in assign.items():
                placements[jid] = {(host, t) for t in slots}
                ids.append(jid)
        if best is None or profit > best[0]:
            best = (profit, k, placements, tuple(sorted(ids)))
    profit, _, placements, ids = best
    return MaxTResult(
        selected=ids,
        schedule=Schedule.from_pairs(placements),
        profit=profit,
        path="large-heights",
    )


# -- solver entry points -------------------------------------------------------------


def _resolve_lambda(instance: Instance, lam: Fraction | None) -> Fraction:
    measured = slackness(instance)
    if lam is None:
        return measured
    lam = Fraction(lam)
    if measured > lam:
        raise ValueError(f"instance slackness {measured} exceeds declared lambda {lam}")
    return lam


def _lp_round_pack(
    instance: Instance, omega: Fraction, mode: str, path: str, forest: dict | None = None
) -> MaxTResult:
    """Relax at `omega`, round, and pack the selection with packer `mode`;
    `forest` is the instance's window forest when the caller has built it.

    The three steps are looked up as module globals at call time, so a
    tracer that rebinds them sees every call.
    """
    relax = solve_relaxation(instance, omega, forest)
    rounded = round_selection(instance, relax)
    schedule, _ = schedule_selected(instance, rounded.selected, mode=mode)
    return MaxTResult(
        selected=rounded.selected,
        schedule=schedule,
        profit=_profit(instance, rounded.selected),
        path=path,
        omega=omega,
        lp_bound=relax.objective,
    )


def solve_maxt_laminar(
    instance: Instance, lam: Fraction | None = None, variant: str = "single"
) -> MaxTResult:
    """Throughput on laminar windows.

    variant="single": one LP at omega = 1/2 - lambda(1/2 + 1/m) and the
    pairing packer; needs lambda < 1 - 2/(m+2), works for any heights.
    variant="split": heights <= alpha go through the LP at the tighter
    omega = (1-lambda)^2 with the smallfit packer, heights > alpha through
    the height-class pipeline; the better profit wins.
    """
    if variant not in ("single", "split"):
        raise ValueError(f"unknown variant {variant!r}")
    # the one forest of the call; the split variant's small jobs form a
    # different family, so their relaxation builds its own
    forest = window_forest(j.window for j in instance.jobs)
    if forest is None:
        raise ValueError("windows not laminar; use solve_maxt_general")
    if not instance.jobs:
        return _empty_result(f"laminar-{variant}")
    lam = _resolve_lambda(instance, lam)
    m = instance.hosts
    if variant == "single":
        limit = single_slack_limit(m)
        if lam >= limit:
            raise ValueError(f"lambda {lam} >= {limit}; omega would be nonpositive")
        return _lp_round_pack(
            instance, omega_single(m, lam), "pairing", "laminar-single", forest
        )
    if lam >= 1:
        raise ValueError(f"lambda {lam} >= 1; the split variant needs lambda < 1")

    alpha = alpha_split(m, lam)
    small = [j for j in instance.jobs if j.height <= alpha]
    large = [j for j in instance.jobs if j.height > alpha]
    small_res = _empty_result("laminar-split-small")
    if small:
        small_res = _lp_round_pack(
            instance.with_jobs(small), omega_small(m, lam), "smallfit", "laminar-split-small"
        )
    large_res = _empty_result("laminar-split-large")
    if large:
        large_res = solve_large_heights(instance.with_jobs(large), delta=alpha)
    return small_res if small_res.profit >= large_res.profit else large_res


def solve_maxt_general(
    instance: Instance, lam: Fraction | None = None, variant: str = "single"
) -> MaxTResult:
    """Arbitrary windows: laminarize (lambda inflates to at most 4*lambda),
    solve there, keep the schedule (mapped windows nest in the originals).
    Jobs whose length no longer fits the mapped window would be dropped and
    reported in `dropped`, but the slackness guards keep that set empty: they
    need lambda < 1/4, so every length is under a quarter of its window, and
    a mapped window keeps at least a quarter of the original."""
    if not instance.jobs:
        return _empty_result(f"general-{variant}")
    lam = _resolve_lambda(instance, lam)
    trans, mapping = transform_instance(instance)
    lam_t = 4 * lam  # windows shrink at most 4x, so slackness(trans) <= 4 * lam
    if variant == "single":
        limit = general_slack_limit(instance.hosts)
        if lam >= limit:
            raise ValueError(f"lambda {lam} >= {limit}; omega would be nonpositive")
    elif lam >= Fraction(1, 4):
        raise ValueError(f"lambda {lam} >= 1/4; the laminarized instance leaves no headroom")
    inner = solve_maxt_laminar(trans, lam=lam_t, variant=variant)
    return replace(inner, path=f"general-{inner.path}", dropped=mapping.untransformable)


def solve_maxt_logn(instance: Instance) -> MaxTResult:
    """Split at height 1/n: everything below fits together on one host (the
    heights sum to less than one), everything above goes through the
    height-class pipeline; the better side wins."""
    n = len(instance.jobs)
    if n == 0:
        return _empty_result("logn")
    cut = Fraction(1, n)
    tiny = [j for j in instance.jobs if j.height < cut]
    tall = [j for j in instance.jobs if j.height >= cut]
    tiny_res = _empty_result("logn-tiny")
    if tiny:
        placements = {
            job.id: {(1, t) for t in list(job.window.slots())[: job.length]}
            for job in tiny
        }
        tiny_res = MaxTResult(
            selected=tuple(sorted(j.id for j in tiny)),
            schedule=Schedule.from_pairs(placements),
            profit=sum((j.weight for j in tiny), Fraction(0)),
            path="logn-tiny",
        )
    tall_res = _empty_result("logn-tall")
    if tall:
        tall_res = solve_large_heights(instance.with_jobs(tall), delta=cut)
    if tiny_res.profit >= tall_res.profit:
        return tiny_res
    return replace(tall_res, path="logn-tall")


def utilization_bound(m: int, lam: Fraction) -> Fraction:
    """Guaranteed fraction of the long-job optimum the greedy achieves."""
    return (1 - alpha_split(m, lam)) * Fraction(lam) / 3


def greedy_long_lowheight(instance: Instance, lam: Fraction) -> MaxTResult:
    """Utilization greedy for long jobs of height <= alpha: admit a job iff
    its window still has `length` slots where some bin is less than
    (1 - height) full, widest windows first."""
    alpha = alpha_split(instance.hosts, lam)
    eligible = sorted(
        (j for j in instance.jobs if j.height <= alpha),
        key=lambda j: (-j.window.size, j.id),
    )
    bins = SlotBins(instance.hosts, instance.horizon)
    placements: dict[int, set[tuple[int, int]]] = {}
    admitted: list[int] = []
    for job in eligible:
        try:
            placements[job.id] = bins.place_smallfit(
                job.id, job.height, job.window.slots(), job.length
            )
        except ScheduleError:
            continue  # not enough open slots: the job is not admitted
        admitted.append(job.id)
    ids = tuple(sorted(admitted))
    return MaxTResult(
        selected=ids,
        schedule=Schedule.from_pairs(placements),
        profit=_profit(instance, ids),
        path="utilization-greedy",
    )


def solve_utilization(instance: Instance, lam: Fraction = Fraction(1, 5)) -> MaxTResult:
    """Maximize total scheduled area (weights are forced to areas).

    Jobs split at slackness lambda < 1/4: short jobs ride the general
    throughput pipeline, long low jobs the sorted greedy, long high jobs the
    height-class pipeline; best of the three candidates is returned.
    """
    lam = Fraction(lam)
    if not 0 < lam < Fraction(1, 4):
        raise ValueError(f"lambda must be in (0, 1/4), got {lam}")
    if not instance.jobs:
        return _empty_result("utilization")
    weighted = instance.with_jobs(replace(j, weight=area(j)) for j in instance.jobs)
    alpha = alpha_split(weighted.hosts, lam)
    short = [j for j in weighted.jobs if Fraction(j.length, j.window.size) <= lam]
    long_jobs = [j for j in weighted.jobs if Fraction(j.length, j.window.size) > lam]
    candidates: list[MaxTResult] = []
    long_low = [j for j in long_jobs if j.height <= alpha]
    if long_low:
        candidates.append(greedy_long_lowheight(weighted.with_jobs(long_jobs), lam))
    long_high = [j for j in long_jobs if j.height > alpha]
    if long_high:
        candidates.append(solve_large_heights(weighted.with_jobs(long_high), delta=alpha))
    if short:
        candidates.append(solve_maxt_general(weighted.with_jobs(short), variant="split"))
    if not candidates:
        return _empty_result("utilization")
    best = max(candidates, key=lambda r: r.profit)
    return replace(best, path=f"utilization-{best.path}")
