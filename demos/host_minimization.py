#!/usr/bin/env python3
"""Host minimization, phase by phase.

Solves the configuration LP by column generation, samples configurations
per slot, shows what survives into the residual phase, and assembles the
final multi-host schedule.  Compares the host count against the exact
oracle when the instance is small enough.

    python3 demos/host_minimization.py
"""

from fractions import Fraction

from slotsched.generator import GenSpec, generate
from slotsched.minr import solve_config_lp, solve_minr
from slotsched.model import format_rational, validate
from slotsched.oracle import LimitExceeded, OracleLimits, exact_minr


def frac(q) -> str:
    return str(format_rational(Fraction(q)))


def main() -> None:
    # slack 1/5 keeps the measured slackness under 1/4, where the default
    # residual-area budget (1 - 4*lambda)/8 is a real, positive bound
    spec = GenSpec(
        jobs=5, hosts=1, horizon=8, slack=Fraction(1, 5), dim=2,
        demand_hi=Fraction(3, 4), seed="minr-demo",
    )
    instance = generate(spec)

    print("== instance ==")
    for job in instance.jobs:
        demands = ", ".join(frac(s) for s in job.demand)
        print(
            f"  job {job.id}: window [{job.release},{job.due}]"
            f"  length {job.length}  demand ({demands})"
        )

    print("\n== configuration LP (column generation) ==")
    lpsol = solve_config_lp(instance)
    print(f"fractional optimum m* = {frac(lpsol.m_star)}  (m_int = {lpsol.m_int})")
    print(f"{lpsol.column_count} columns after {lpsol.iterations} pricing rounds:")
    for config, x in lpsol.columns:
        if x > 0:
            members = ",".join(str(j) for j in sorted(config.jobs))
            print(f"  slot {config.slot}: jobs {{{members}}}  x = {frac(x)}")

    print("\n== randomized cover + residual phase ==")
    result = solve_minr(instance, seed="demo")
    print(f"phase-1 sampling hosts (m1): {result.m1}")
    print(f"phase-2 residual hosts (m2): {result.m_int}")
    print(f"dedicated fallback hosts:    {len(result.fallback_ids)}")
    print(f"hosts used:                  {result.hosts_used}")
    print("(the oversampling constant c = 6 dominates at toy scale; the")
    print(" guarantee is hosts_used = O(m* log d), which pays off as m* grows)")
    print(f"residual jobs after phase 1: {result.residual_count}")
    stats = result.residual_stats
    print(
        f"residual-area check: {stats.violations}/{stats.checked} intervals"
        f" over budget (rate {stats.rate:.3f})"
    )

    report = validate(
        instance, result.schedule, require_all_complete=True, hosts=result.hosts_used
    )
    print(f"assembled schedule completes every job: {report.feasible}")

    print("\n== against the exhaustive oracle ==")
    try:
        opt = exact_minr(instance, limits=OracleLimits(max_jobs=6, max_horizon=8, max_hosts=6))
        print(f"exact minimum hosts: {opt}")
        print(f"sandwich m* <= OPT <= hosts_used: {frac(lpsol.m_star)} <= {opt} <= {result.hosts_used}")
    except LimitExceeded as exc:
        print(f"oracle out of range ({exc}); LP lower bound m* = {frac(lpsol.m_star)} stands")


if __name__ == "__main__":
    main()
