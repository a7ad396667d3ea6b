"""Independent checks of slotsched outputs.

Written from the problem definitions, not from ``slotsched.model.validate``
or any other slotsched routine: the checker reads only the public fields of
jobs, instances and results.  Every check raises ``CheckFailed`` with a
reason; a check that returns has passed.

* ``check_schedule``: window containment, per-(host, slot) demand at most 1
  in every dimension, at most one host per job per slot, host indices within
  the host count, exact completion counts.
* ``check_maxt``: profit equals the selected weights, the schedule completes
  exactly the selected jobs, and ``lp_bound`` equals the optimum of the
  laminar area LP, recomputed by the density-order (polymatroid) greedy.
* ``check_minr``: an exact optimality certificate for m* (primal columns
  feasible, duals feasible under exhaustive pricing, equal objectives) and
  the host-count identities.
* ``check_batch``: the files ``run_batch`` writes, against the oracle values
  it recorded and the laminar guarantee.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace


class CheckFailed(Exception):
    """An output broke a property the checker enforces."""


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def height(job) -> Fraction:
    return max(job.demand)


def job_area(job) -> Fraction:
    return job.length * height(job)


# -- schedules ---------------------------------------------------------------------


def check_schedule(jobs, placements, host_count: int, must_complete) -> None:
    """``placements`` maps job id -> iterable of (host, slot).  Every placed
    job and every id in ``must_complete`` must run exactly ``length`` slots."""
    by_id = {job.id: job for job in jobs}
    dim = len(next(iter(by_id.values())).demand) if by_id else 0
    loads: dict[tuple[int, int], list[Fraction]] = {}
    for jid, spots in placements.items():
        _require(jid in by_id, f"schedule places unknown job {jid}")
        job = by_id[jid]
        slots = [t for _, t in spots]
        _require(len(set(slots)) == len(slots), f"job {jid} runs on two hosts in one slot")
        _require(len(slots) == job.length, f"job {jid} runs {len(slots)} slots, needs {job.length}")
        for h, t in spots:
            _require(1 <= h <= host_count, f"job {jid} on host {h} of {host_count}")
            _require(job.release <= t <= job.due, f"job {jid} at slot {t} outside [{job.release}, {job.due}]")
            load = loads.setdefault((h, t), [Fraction(0)] * dim)
            for k in range(dim):
                load[k] += job.demand[k]
    for (h, t), load in loads.items():
        _require(all(x <= 1 for x in load), f"bin (host {h}, slot {t}) overfull: {load}")
    missing = set(must_complete) - set(placements)
    _require(not missing, f"jobs {sorted(missing)} not scheduled")


# -- throughput (MaxT) ---------------------------------------------------------------


def laminar_lp_optimum(jobs, hosts: int, omega: Fraction) -> Fraction:
    """max sum w_j x_j  s.t.  sum_{window_j inside node} area_j x_j <= omega*m*|node|
    for every distinct job window (a laminar family), 0 <= x <= 1.

    With y_j = area_j x_j the region is a polymatroid, so filling jobs in
    decreasing weight/area order, each up to the least residual capacity of
    the windows containing its own, is optimal (Edmonds' greedy)."""
    nodes = {(job.release, job.due) for job in jobs}
    residual = {n: omega * hosts * (n[1] - n[0] + 1) for n in nodes}
    total = Fraction(0)
    for job in sorted(jobs, key=lambda j: j.weight / job_area(j), reverse=True):
        if job.weight == 0:
            continue
        above = [n for n in nodes if n[0] <= job.release and job.due <= n[1]]
        y = min([job_area(job)] + [residual[n] for n in above])
        for n in above:
            residual[n] -= y
        total += job.weight * y / job_area(job)
    return total


def omega_single(hosts: int, lam: Fraction) -> Fraction:
    return Fraction(1, 2) - lam * (Fraction(1, 2) + Fraction(1, hosts))


def omega_small(hosts: int, lam: Fraction) -> Fraction:
    return (1 - lam) ** 2


def alpha_split(hosts: int, lam: Fraction) -> Fraction:
    return lam * (1 - lam) / (1 - lam + lam / hosts)


def tree_window(horizon: int, release: int, due: int) -> tuple[int, int]:
    """Largest interval of the binary split tree over [1, horizon] (node
    [l, r] splits at floor((l + r) / 2)) inside [release, due]; the
    rightmost one on size ties."""
    best = None
    stack = [(1, horizon)]
    while stack:
        lo, hi = stack.pop()
        if hi < release or due < lo:
            continue
        if release <= lo and hi <= due:
            if best is None or (hi - lo, lo) > (best[1] - best[0], best[0]):
                best = (lo, hi)
            continue
        mid = (lo + hi) // 2
        stack += [(lo, mid), (mid + 1, hi)]
    return best


def _narrowed(job, release: int, due: int):
    """The job seen through a narrower window (the laminarized instance)."""
    return SimpleNamespace(id=job.id, length=job.length, demand=job.demand,
                           weight=job.weight, release=release, due=due)


def check_maxt(instance, result, lam: Fraction, variant: str, general: bool) -> None:
    """One result of ``solve_maxt_laminar`` (general=False) or
    ``solve_maxt_general`` (general=True) at the declared ``lam``."""
    jobs = list(instance.jobs)
    by_id = {job.id: job for job in jobs}
    m = instance.hosts
    check_schedule(jobs, result.schedule.placements, m, result.selected)
    _require(set(result.schedule.placements) == set(result.selected),
             "schedule and selection differ")
    _require(result.profit == sum((by_id[j].weight for j in result.selected), Fraction(0)),
             f"profit {result.profit} is not the selected weight")
    inner = jobs
    if general:
        horizon = max(job.due for job in jobs)
        mapped = {job.id: tree_window(horizon, job.release, job.due) for job in jobs}
        dropped = sorted(j for j, (lo, hi) in mapped.items() if by_id[j].length > hi - lo + 1)
        _require(sorted(result.dropped) == dropped, f"dropped {result.dropped}, expected {dropped}")
        inner = [_narrowed(job, *mapped[job.id]) for job in jobs if job.id not in dropped]
        check_schedule(inner, result.schedule.placements, m, result.selected)
        lam = 4 * lam
    if variant == "single":
        omega = omega_single(m, lam)
        _require(result.omega == omega, f"omega {result.omega}, expected {omega}")
        lp = laminar_lp_optimum(inner, m, omega)
        _require(result.lp_bound == lp, f"lp_bound {result.lp_bound}, greedy optimum {lp}")
        _require(result.profit >= lp, f"profit {result.profit} below LP optimum {lp}")
    elif result.path.endswith("split-small"):
        alpha = alpha_split(m, lam)
        small = [job for job in inner if height(job) <= alpha]
        lp = laminar_lp_optimum(small, m, omega_small(m, lam))
        _require(result.lp_bound == lp, f"lp_bound {result.lp_bound}, greedy optimum {lp}")


# -- host minimization (MinR) ----------------------------------------------------------


def config_fits(jobs, slot: int) -> bool:
    if any(not job.release <= slot <= job.due for job in jobs):
        return False
    dim = len(jobs[0].demand) if jobs else 0
    return all(sum((job.demand[k] for job in jobs), Fraction(0)) <= 1 for k in range(dim))


def best_config_exhaustive(items) -> Fraction:
    """items: (profit, demand) pairs with positive profit.  Best total profit
    of a subset whose demands fit one host, by trying every subset."""
    best = Fraction(0)
    for r in range(1, len(items) + 1):
        for subset in itertools.combinations(items, r):
            dim = len(subset[0][1])
            if all(sum((d[k] for _, d in subset), Fraction(0)) <= 1 for k in range(dim)):
                best = max(best, sum((p for p, _ in subset), Fraction(0)))
    return best


def interval_area_bound(jobs) -> Fraction:
    """max over slot intervals I and dimensions k of the demand-weighted
    length of the jobs whose windows lie in I, divided by |I|."""
    bound = Fraction(0)
    edges = sorted({job.release for job in jobs}), sorted({job.due for job in jobs})
    for a in edges[0]:
        for b in edges[1]:
            if b < a:
                continue
            inside = [job for job in jobs if a <= job.release and job.due <= b]
            for k in range(len(jobs[0].demand)):
                work = sum((job.length * job.demand[k] for job in inside), Fraction(0))
                bound = max(bound, work / (b - a + 1))
    return bound


def check_config_lp(instance, lp) -> None:
    """Exact certificate that ``lp.m_star`` is the configuration-LP optimum.

    Primal: the returned columns with m = m* satisfy every master row.  Dual:
    alpha, beta, gamma >= 0, sum gamma <= 1 (the m column), and no feasible
    configuration at any slot has sum (alpha_j - beta_jt) > gamma_t, decided
    by trying every job subset.  Equal objectives then prove optimality by
    weak duality."""
    jobs = {job.id: job for job in instance.jobs}
    m_star = lp.m_star
    per_slot: dict[int, Fraction] = {}
    per_pair: dict[tuple[int, int], Fraction] = {}
    per_job: dict[int, Fraction] = {}
    for config, x in lp.columns:
        _require(x > 0, f"column at slot {config.slot} has value {x}")
        chosen = [jobs[j] for j in config.jobs]
        _require(config_fits(chosen, config.slot), f"column {config.key} does not fit a host")
        per_slot[config.slot] = per_slot.get(config.slot, Fraction(0)) + x
        for j in config.jobs:
            per_pair[(j, config.slot)] = per_pair.get((j, config.slot), Fraction(0)) + x
            per_job[j] = per_job.get(j, Fraction(0)) + x
    _require(all(v <= m_star for v in per_slot.values()), "a slot holds more than m* configurations")
    _require(all(v <= 1 for v in per_pair.values()), "a job is covered twice in one slot")
    for job in jobs.values():
        _require(per_job.get(job.id, 0) >= job.length, f"job {job.id} covered less than its length")

    alpha, beta, gamma = lp.alpha, lp.beta, lp.gamma
    _require(all(v >= 0 for v in [*alpha.values(), *beta.values(), *gamma.values()]),
             "a dual is negative")
    _require(sum(gamma.values(), Fraction(0)) <= 1, "slot duals sum above 1")
    slots = sorted({t for job in jobs.values() for t in range(job.release, job.due + 1)})
    _require(list(lp.slots) == slots, f"LP slots {lp.slots}, windows cover {slots}")
    for t in slots:
        items = []
        for job in jobs.values():
            if job.release <= t <= job.due:
                profit = alpha.get(job.id, 0) - beta.get((job.id, t), 0)
                if profit > 0:
                    items.append((profit, job.demand))
        best = best_config_exhaustive(items)
        _require(best <= gamma.get(t, 0), f"slot {t}: a configuration prices at {best} > gamma {gamma.get(t, 0)}")
    dual = sum((job.length * alpha.get(job.id, 0) for job in jobs.values()), Fraction(0))
    dual -= sum(beta.values(), Fraction(0))
    _require(dual == m_star, f"dual objective {dual} != m* {m_star}")


def log2_factor(dim: int) -> Fraction:
    if dim & (dim - 1):
        raise CheckFailed(f"dimension {dim} is not a power of two")
    return Fraction(max(1, dim.bit_length() - 1))


def check_minr(instance, result, lp, params) -> None:
    """One ``solve_minr`` result with the configuration LP it solved."""
    jobs = list(instance.jobs)
    check_schedule(jobs, result.schedule.placements, result.hosts_used, [j.id for j in jobs])
    _require(result.m_star == lp.m_star, "result and LP disagree on m*")
    check_config_lp(instance, lp)
    m_int = math.ceil(lp.m_star)
    _require(result.m_int == m_int, f"m_int {result.m_int} != ceil(m*) {m_int}")
    bound = interval_area_bound(jobs)
    _require(result.hosts_used >= m_int and lp.m_star >= bound,
             f"hosts {result.hosts_used} >= ceil(m*) {m_int} >= area bound {bound} broken")
    c_eff = params.c if result.retries < params.max_retries else params.c + 1
    _require(result.effective_c == c_eff, f"effective c {result.effective_c}, expected {c_eff}")
    m1 = math.ceil(c_eff * m_int * log2_factor(instance.dim))
    _require(result.m1 == m1, f"m1 {result.m1}, recomputed {m1}")
    _require(result.hosts_used == m1 + m_int + len(result.fallback_ids),
             f"hosts {result.hosts_used} != m1 + m_int + fallbacks")


# -- batch sweeps ------------------------------------------------------------------------


def _rational(value) -> Fraction:
    return Fraction(str(value))


def load_instance_file(path: Path):
    """Jobs and host count from an instance file ``run_batch`` wrote."""
    obj = json.loads(path.read_text())
    jobs = [
        SimpleNamespace(id=o["id"], release=o["release"], due=o["due"], length=o["length"],
                        demand=tuple(_rational(d) for d in o["demand"]),
                        weight=_rational(o["weight"]))
        for o in obj["jobs"]
    ]
    return jobs, obj["hosts"]


def check_batch(out_dir, expected_rows: int) -> None:
    """Every row ok; digests match the instance files; profit rows at most
    the oracle value; ``laminar`` rows at least (1/2 - lam(1/2 + 1/m)) * OPT
    at the measured slackness, with ``lp_bound`` the greedy LP optimum."""
    out_dir = Path(out_dir)
    with open(out_dir / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == expected_rows, f"{len(rows)} rows, expected {expected_rows}")
    summary = json.loads((out_dir / "summary.json").read_text())
    _require(summary["rows"] == expected_rows, "summary row count differs")
    loaded = {}
    for row in rows:
        _require(row["status"] == "ok", f"{row['instance']}/{row['solver']}: {row['status']}")
        path = out_dir / "instances" / f"{row['instance']}.json"
        if row["instance"] not in loaded:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
            _require(digest == row["digest"], f"{row['instance']}: digest mismatch")
            loaded[row["instance"]] = load_instance_file(path)
        jobs, hosts = loaded[row["instance"]]
        value = _rational(row["value"])
        if row["metric"] == "profit" and row["oracle"]:
            _require(value <= _rational(row["oracle"]),
                     f"{row['instance']}/{row['solver']}: {value} above OPT {row['oracle']}")
        if row["solver"] == "laminar":
            lam = max(Fraction(j.length, j.due - j.release + 1) for j in jobs)
            omega = omega_single(hosts, lam)
            lp = laminar_lp_optimum(jobs, hosts, omega)
            _require(_rational(row["lp_bound"]) == lp,
                     f"{row['instance']}: lp_bound {row['lp_bound']}, greedy optimum {lp}")
            _require(value >= lp, f"{row['instance']}: profit {value} below LP {lp}")
            if row["oracle"]:
                _require(value >= omega * _rational(row["oracle"]),
                         f"{row['instance']}: laminar profit {value} under the guarantee")
