"""The benchmark's tracer (bench/layers.py) times layers by rebinding module
globals, so the functions it wraps must stay module-level names that their
callers look up at call time."""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import layers  # noqa: E402
from slotsched import experiments, maxt, minr  # noqa: E402
from slotsched.model import Instance, Job  # noqa: E402


def job(jid, release, due, length, height):
    return Job(id=jid, release=release, due=due, length=length,
               demand=(Fraction(height),), weight=Fraction(1))


def test_tracer_sees_large_heights_and_pricing_then_restores():
    modules = (experiments, maxt, minr)
    before = [dict(vars(module)) for module in modules]
    solvers = dict(experiments.SOLVERS)
    # heights above alpha_split(1, 1/4) = 3/16 take the height-class pipeline
    tall = Instance(hosts=1, dim=1, jobs=(job(1, 1, 4, 1, Fraction(1, 2)),
                                          job(2, 1, 4, 1, Fraction(9, 10))))
    small = Instance(hosts=1, dim=1, jobs=(job(1, 1, 10, 1, Fraction(1, 2)),
                                           job(2, 2, 10, 1, Fraction(3, 10)),
                                           job(3, 1, 9, 1, Fraction(7, 10))))
    tracer = layers.Tracer()
    tracer.install()
    try:
        maxt.solve_maxt_laminar(tall, variant="split")
        minr.solve_minr(small, minr.MinRParams(theta=Fraction(1, 32)), seed=0)
    finally:
        tracer.restore()
    metrics = tracer.metrics(calls=1, overhead=0.0)
    assert metrics["maxt.large_heights_s"] > 0
    assert metrics["minr.pricing_calls"] > 0
    for module, attrs in zip(modules, before):
        assert all(getattr(module, name) is value for name, value in attrs.items())
    assert experiments.SOLVERS == solvers
