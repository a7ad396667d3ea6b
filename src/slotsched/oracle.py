"""Exhaustive exact baselines for tiny instances.

Everything here is deliberately brute force: these functions define ground
truth that the polynomial-time solvers are measured against in tests, so they
must be obviously correct rather than fast.  Hard size limits keep them from
being called on anything they cannot finish.

feasible() decides whether a job set can be completed on m hosts by searching
slot by slot over which jobs to process.  Only inclusion-maximal packable job
sets are branched on: processing more units never hurts (remaining work is
componentwise monotone), so the restriction is exact, and memoization on
(slot, remaining work) keeps the state space small.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from slotsched.model import Instance, Job


@dataclass(frozen=True)
class OracleLimits:
    max_jobs: int = 6
    max_horizon: int = 6
    max_hosts: int = 2

    def __post_init__(self):
        for name in ("max_jobs", "max_horizon", "max_hosts"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


DEFAULT_LIMITS = OracleLimits()


class LimitExceeded(ValueError):
    """Instance too large for exhaustive search with the given limits."""


def _check_limits(jobs: Sequence[Job], horizon: int, hosts: int, limits: OracleLimits) -> None:
    if len(jobs) > limits.max_jobs:
        raise LimitExceeded(f"{len(jobs)} jobs > limit {limits.max_jobs}")
    if horizon > limits.max_horizon:
        raise LimitExceeded(f"horizon {horizon} > limit {limits.max_horizon}")
    if hosts > limits.max_hosts:
        raise LimitExceeded(f"{hosts} hosts > limit {limits.max_hosts}")


def host_lower_bound(instance: Instance, jobs: Iterable[Job] | None = None) -> int:
    """ceil of the densest per-dimension area over any slot interval.

    Necessary for feasibility: work inside an interval cannot exceed
    m * |interval| in any dimension.
    """
    jobs = list(instance.jobs if jobs is None else jobs)
    if not jobs:
        return 0
    horizon = max(j.due for j in jobs)
    best = 1
    for a in range(1, horizon + 1):
        for b in range(a, horizon + 1):
            inside = [j for j in jobs if a <= j.release and j.due <= b]
            if not inside:
                continue
            size = b - a + 1
            for i in range(instance.dim):
                work = sum((j.length * j.demand[i] for j in inside), Fraction(0))
                need = -(-work.numerator // (work.denominator * size))  # ceil
                best = max(best, int(need))
    return best


def _packable(jobs: Sequence[Job], dim: int, hosts: int) -> bool:
    """Can these jobs run in one slot: partition into `hosts` unit bins."""
    items = sorted(jobs, key=lambda j: (max(j.demand), j.id), reverse=True)
    loads = [[Fraction(0)] * dim for _ in range(hosts)]
    used = [False] * hosts

    def place(k: int) -> bool:
        if k == len(items):
            return True
        job = items[k]
        for h in range(hosts):
            if all(loads[h][i] + job.demand[i] <= 1 for i in range(dim)):
                fresh = not used[h]
                for i in range(dim):
                    loads[h][i] += job.demand[i]
                used[h] = True
                if place(k + 1):
                    return True
                for i in range(dim):
                    loads[h][i] -= job.demand[i]
                used[h] = fresh
                if fresh:
                    break  # empty bins are interchangeable
        return False

    return place(0)


def feasible(
    instance: Instance,
    ids: Iterable[int] | None = None,
    hosts: int | None = None,
    limits: OracleLimits = DEFAULT_LIMITS,
) -> bool:
    """Exact decision: can the given jobs (all by default) be completed on
    `hosts` hosts (instance.hosts by default)?"""
    job_map = instance.job_map()
    if ids is None:
        jobs = list(instance.jobs)
    else:
        jobs = [job_map[i] for i in ids]
    m = instance.hosts if hosts is None else hosts
    if not jobs:
        return True
    horizon = max(j.due for j in jobs)
    _check_limits(jobs, horizon, max(m, 1), limits)
    if m < 1 or host_lower_bound(instance, jobs) > m:
        return False

    n = len(jobs)
    memo: dict[tuple[int, tuple[int, ...]], bool] = {}

    def slots_left(j: int, t: int) -> int:
        job = jobs[j]
        if t > job.due:
            return 0
        return job.due - max(t, job.release) + 1

    def search(t: int, remaining: tuple[int, ...]) -> bool:
        if not any(remaining):
            return True
        if t > horizon:
            return False
        for j in range(n):
            if remaining[j] > slots_left(j, t):
                return False
        key = (t, remaining)
        cached = memo.get(key)
        if cached is not None:
            return cached
        eligible = [
            j
            for j in range(n)
            if remaining[j] > 0 and jobs[j].release <= t <= jobs[j].due
        ]
        result = False
        if not eligible:
            result = search(t + 1, remaining)
        else:
            k = len(eligible)
            packable_masks = []
            for mask in range(1 << k):
                chosen = [jobs[eligible[i]] for i in range(k) if mask >> i & 1]
                if _packable(chosen, instance.dim, m):
                    packable_masks.append(mask)
            packable_set = set(packable_masks)
            maximal = [
                mask
                for mask in packable_masks
                if not any(
                    (mask | 1 << i) in packable_set
                    for i in range(k)
                    if not mask >> i & 1
                )
            ]
            # larger sets first: more progress, earlier cutoffs
            maximal.sort(key=lambda mask: (-bin(mask).count("1"), mask))
            for mask in maximal:
                nxt = list(remaining)
                for i in range(k):
                    if mask >> i & 1:
                        nxt[eligible[i]] -= 1
                if search(t + 1, tuple(nxt)):
                    result = True
                    break
        memo[key] = result
        return result

    return search(1, tuple(j.length for j in jobs))


def exact_maxt(
    instance: Instance, limits: OracleLimits = DEFAULT_LIMITS
) -> tuple[Fraction, tuple[int, ...]]:
    """Maximum total weight over feasibly schedulable job subsets, with the
    best subset itself (first in weight-descending search order on ties)."""
    jobs = sorted(instance.jobs, key=lambda j: (-j.weight, j.id))
    if jobs:
        _check_limits(jobs, max(j.due for j in jobs), instance.hosts, limits)
    suffix = [Fraction(0)] * (len(jobs) + 1)
    for i in range(len(jobs) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + jobs[i].weight

    best_weight = Fraction(0)
    best_ids: tuple[int, ...] = ()

    def dfs(i: int, chosen: list[int], weight: Fraction) -> None:
        nonlocal best_weight, best_ids
        if weight > best_weight:
            best_weight = weight
            best_ids = tuple(sorted(chosen))
        if i == len(jobs) or weight + suffix[i] <= best_weight:
            return
        trial = chosen + [jobs[i].id]
        if feasible(instance, trial, limits=limits):
            dfs(i + 1, trial, weight + jobs[i].weight)
        dfs(i + 1, chosen, weight)

    dfs(0, [], Fraction(0))
    return best_weight, best_ids


def exact_minr(instance: Instance, limits: OracleLimits = DEFAULT_LIMITS) -> int:
    """Minimum host count that completes every job.  n hosts always suffice
    (one job per host), so the increment loop terminates."""
    if not instance.jobs:
        return 0
    # more hosts only ever helps the search, so the host cap must not bind
    # the increment loop; n hosts is the worst case tried
    lim = replace(limits, max_hosts=max(limits.max_hosts, len(instance.jobs)))
    m = max(1, host_lower_bound(instance))
    while not feasible(instance, hosts=m, limits=lim):
        m += 1
    return m
