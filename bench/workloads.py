"""The workloads: their inputs, their calls and their output checks.

A workload makes a corpus of operations from the seed once per run; a pass
calls the workload's public entry point once per operation.  ``call`` is the
only code inside the timed region; ``check`` runs right after it, outside.

Why the minr-master corpus does not move with the seed: a call's cost
varies several-fold with the instance and a pass holds a dozen calls, so
instance sets drawn afresh per seed spread run times by about 30% between
seeds.  Its instances come from a fixed corpus key; the seed is the
sampling seed handed to ``solve_minr``, which drives rounding, residual
packing and retries.  ``maxt-laminar`` and ``batch-sweep`` draw every
instance from the seed.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from slotsched import experiments, maxt, minr
from slotsched.generator import GenSpec, generate
from slotsched.model import Instance, Job

import check

LAMBDA_MENU = [Fraction(1, 5), Fraction(1, 4), Fraction(1, 3),
               Fraction(2, 5), Fraction(1, 2), Fraction(3, 5)]
GENERAL_LAMBDA = Fraction(1, 10)  # under 1/4 - 1/(2(m+2)) for every m >= 2
MINR_PARAMS = minr.MinRParams(theta=Fraction(1, 32))  # the criterion-07 setting
BATCH_SOLVERS = ["laminar", "laminar-split", "logn", "utilization"]


@dataclass
class Workload:
    corpus: Callable[[int], list]  # seed -> operations of one pass
    warm: Callable[[], Any]  # one small call before timing starts
    call: Callable[[Any], Any]  # operation -> output (the timed region)
    check: Callable[[Any, Any], None]  # raises check.CheckFailed
    observe: Callable[[Any, Any, dict], None] = lambda op, out, acc: None


# -- maxt-laminar ---------------------------------------------------------------------


def _maxt_corpus(seed: int) -> list:
    """Criterion-01 shapes (T=32, n in 5..40, m in 2..5, lambda from the
    menu under the single-variant limit for m) on a fixed grid, so that the
    seed draws only windows, lengths, demands and weights: a solve's cost
    follows n, m and lambda, and a seed that drew them too would move the
    run's throughput by about 20%.

    Per (m, lambda): six instances through the single variant and two
    through the split variant; per m: nine general-window instances
    through solve_maxt_general at lambda = 1/10.  204 operations, a pass
    short enough that a 30 s run times every operation fifteen to
    thirty times: the fastest of fewer passes (408 operations, seven passes)
    spread solve_p50_s by about a quarter between runs on a busy machine."""
    ops = []
    for m in range(2, 6):
        for lam in (q for q in LAMBDA_MENU if q < maxt.single_slack_limit(m)):
            for k, n in enumerate((5, 12, 19, 26, 33, 40, 8, 36)):
                spec = GenSpec(jobs=n, hosts=m, horizon=32, slack=lam, seed=f"{seed}:{m}:{lam}:{k}")
                ops.append(("laminar", "single" if k < 6 else "split", lam, generate(spec)))
        for n in range(5, 41, 4):
            spec = GenSpec(jobs=n, hosts=m, horizon=32, slack=GENERAL_LAMBDA,
                           laminar=False, seed=f"{seed}:{m}:general:{n}")
            ops.append(("general", "single", GENERAL_LAMBDA, generate(spec)))
    return ops


def _maxt_call(op):
    kind, variant, lam, instance = op
    solver = maxt.solve_maxt_general if kind == "general" else maxt.solve_maxt_laminar
    return solver(instance, lam=lam, variant=variant)


def _maxt_check(op, out) -> None:
    kind, variant, lam, instance = op
    check.check_maxt(instance, out, lam, variant, general=kind == "general")


def _maxt_observe(op, out, acc) -> None:
    if out.lp_bound:
        acc["maxt.profit_over_lp"] += out.profit / out.lp_bound
        acc["maxt.results"] += 1


def _maxt_laminar() -> Workload:
    lam = Fraction(1, 3)
    warm = ("laminar", "single", lam, generate(GenSpec(jobs=5, hosts=2, horizon=32, slack=lam, seed="warm")))
    return Workload(
        corpus=_maxt_corpus,
        warm=lambda: _maxt_call(warm),
        call=_maxt_call,
        check=_maxt_check,
        observe=_maxt_observe,
    )


# -- minr-master ---------------------------------------------------------------------------


class _ConfigLpCapture:
    """Keeps the configuration LP that ``solve_minr`` solved, for the
    optimality certificate; rebinds ``minr.solve_config_lp`` for the run."""

    def __init__(self):
        self.original = minr.solve_config_lp
        self.last = None
        minr.solve_config_lp = self

    def __call__(self, instance):
        self.last = self.original(instance)
        return self.last


def _criterion07_instance(i: int) -> Instance:
    """Criterion-07 shape (T in 10..12, windows >= 8 slots, demands in tenths,
    d cycling 1/2/4, unit weights) with 3 jobs: with 4 to 6 jobs a call
    takes 0.3-2 s, too long to time steadily on a shared machine."""
    rng = random.Random(f"minr-master:{i}")
    dim = (1, 2, 4)[i % 3]
    horizon = rng.randint(10, 12)
    jobs = []
    for jid in range(1, 4):
        size = rng.randint(8, horizon)
        r = rng.randint(1, horizon - size + 1)
        p = 1 if size < 10 else rng.randint(1, 2)
        demand = tuple(Fraction(rng.randint(1, 9), 10) for _ in range(dim))
        jobs.append(Job(id=jid, release=r, due=r + size - 1, length=p,
                        demand=demand, weight=Fraction(1)))
    return Instance(hosts=1, dim=dim, jobs=tuple(jobs))


def _minr_master() -> Workload:
    """12 instances, four per d; the seed is the sampling seed of every
    solve_minr call (see the module docstring)."""
    instances = [_criterion07_instance(i) for i in range(12)]
    capture = _ConfigLpCapture()

    def call(op):
        instance, seed = op
        return minr.solve_minr(instance, MINR_PARAMS, seed=seed)

    def check_out(op, out) -> None:
        check.check_minr(op[0], out, capture.last, MINR_PARAMS)

    def observe(op, out, acc) -> None:
        acc["minr.retries"] += out.retries
        acc["minr.fallbacks"] += len(out.fallback_ids)
        acc["minr.hosts_over_lb"] += Fraction(out.hosts_used, out.m_int)
        acc["minr.results"] += 1

    return Workload(
        corpus=lambda seed: [(inst, f"minr-master:{seed}:{i}") for i, inst in enumerate(instances)],
        warm=lambda: call((_criterion07_instance(-1), "warm")),
        call=call,
        check=check_out,
        observe=observe,
    )


# -- batch-sweep ---------------------------------------------------------------------------


BATCH_DIR = Path(__file__).resolve().parent / "out" / "batch"


def _batch_config(seed: str, tiny: int = 2, small: int = 1) -> dict:
    """Tiny laminar instances inside the oracle's limits, and criterion-01
    sized ones it skips; every instance through the four profit solvers."""
    return {
        "seed": seed,
        "gen": [
            {"label": "tiny", "jobs": 5, "hosts": 2, "horizon": 6, "slack": "1/3", "count": tiny},
            {"label": "small", "jobs": 20, "hosts": 3, "horizon": 32, "slack": "1/3", "count": small},
        ],
        "solvers": BATCH_SOLVERS,
    }


def _batch_call(op):
    config, out_dir = op
    return experiments.run_batch(config, out_dir, workers=2)


def _batch_check(op, out) -> None:
    config, out_dir = op
    cells = sum(g["count"] for g in config["gen"]) * len(config["solvers"])
    check.check_batch(out_dir, cells)


def _batch_corpus(seed: int) -> list:
    shutil.rmtree(BATCH_DIR, ignore_errors=True)
    return [(_batch_config(f"batch-sweep:{seed}:{k}"), BATCH_DIR / str(k)) for k in range(24)]


def _batch_sweep() -> Workload:
    return Workload(
        corpus=_batch_corpus,
        warm=lambda: _batch_call((_batch_config("warm"), BATCH_DIR / "warm")),
        call=_batch_call,
        check=_batch_check,
    )


def get(name: str) -> Workload:
    makers = {
        "maxt-laminar": _maxt_laminar,
        "minr-master": _minr_master,
        "batch-sweep": _batch_sweep,
    }
    return makers[name]()
