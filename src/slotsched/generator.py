"""Seeded random instance generation.

Two window regimes: laminar mode draws every window from the binary
interval tree over the horizon, so the window family is laminar by
construction; general mode draws arbitrary intervals.  Both regimes
enforce the slackness invariant exactly: each job's length is at most
`slack` times its window size (lengths are integers, so `floor(slack *
size) >= 1` must hold for a window to be usable).

Everything is driven by one `random.Random` seeded from the spec's seed,
so a spec generates the same instance every time, byte for byte.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .laminar import build_tree
from .model import Instance, Job, dataclass_from_json

__all__ = ["GenSpec", "generate", "generate_many", "spec_from_json"]

# heights are drawn on a grid of this many steps between the demand bounds,
# keeping denominators small enough for exact arithmetic to stay cheap
_DEMAND_GRID = 12

_WEIGHT_MODES = ("random", "area")


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one random instance."""

    jobs: int
    hosts: int
    horizon: int
    slack: Fraction = Fraction(1, 3)
    dim: int = 1
    laminar: bool = True
    weight_mode: str = "random"
    demand_lo: Fraction = Fraction(1, 10)
    demand_hi: Fraction = Fraction(1)
    seed: int | str = 0

    def __post_init__(self):
        if self.jobs < 0:
            raise ValueError("jobs must be non-negative")
        if self.hosts < 1:
            raise ValueError("hosts must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if not 0 < self.slack <= 1:
            raise ValueError("slack must be in (0, 1]")
        if self.weight_mode not in _WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {_WEIGHT_MODES}")
        if not 0 < self.demand_lo <= self.demand_hi <= 1:
            raise ValueError("demand bounds must satisfy 0 < lo <= hi <= 1")


def spec_from_json(obj: dict) -> GenSpec:
    """A GenSpec from a JSON object, as `model.dataclass_from_json` reads it."""
    return dataclass_from_json(GenSpec, obj, "generator")


def _draw_demand(rng: random.Random, spec: GenSpec) -> tuple[Fraction, ...]:
    lo, hi = spec.demand_lo, spec.demand_hi
    return tuple(
        lo + (hi - lo) * Fraction(rng.randint(0, _DEMAND_GRID), _DEMAND_GRID)
        for _ in range(spec.dim)
    )


def _draw_weight(rng: random.Random, spec: GenSpec) -> Fraction | None:
    if spec.weight_mode == "area":
        return None  # Job defaults the weight to the job's area
    return Fraction(rng.randint(1, 100), 10)


def generate(spec: GenSpec) -> Instance:
    """Generate the instance a spec describes.

    Raises ValueError when no window of the requested regime can hold a
    job at the requested slackness (e.g. ``slack * horizon < 1`` in
    general mode, or no tree node is large enough in laminar mode).
    """
    rng = random.Random(f"gen:{spec.seed}")
    if spec.laminar:
        windows = [
            w for w in build_tree(spec.horizon).windows()
            if spec.slack * w.size >= 1
        ]
        if not windows:
            raise ValueError(
                f"no window of the interval tree over [1, {spec.horizon}] "
                f"admits a job at slackness {spec.slack}"
            )
        windows.sort(key=lambda w: (w.start, w.end))
    else:
        if spec.slack * spec.horizon < 1:
            raise ValueError(
                f"slack {spec.slack} * horizon {spec.horizon} < 1: "
                "no window can hold even a unit job"
            )

    jobs = []
    for jid in range(1, spec.jobs + 1):
        if spec.laminar:
            window = rng.choice(windows)
            release, due = window.start, window.end
        else:
            min_size = math.ceil(1 / spec.slack)
            size = rng.randint(min_size, spec.horizon)
            release = rng.randint(1, spec.horizon - size + 1)
            due = release + size - 1
        max_len = int(spec.slack * (due - release + 1))
        length = rng.randint(1, max_len)
        jobs.append(
            Job(
                id=jid,
                release=release,
                due=due,
                length=length,
                demand=_draw_demand(rng, spec),
                weight=_draw_weight(rng, spec),
            )
        )
    return Instance(hosts=spec.hosts, dim=spec.dim, jobs=jobs)


def generate_many(spec: GenSpec, count: int) -> list[Instance]:
    """`count` instances from consecutive derived seeds (spec.seed:0, :1, ...).

    The derivation is positional, so extending the count re-produces the
    existing instances unchanged.
    """
    return [
        generate(replace(spec, seed=f"{spec.seed}:{i}")) for i in range(count)
    ]
