"""Tests for seeded instance generation."""

from fractions import Fraction

import pytest

from slotsched.generator import GenSpec, generate, spec_from_json
from slotsched.laminar import build_tree, window_forest
from slotsched.model import area, dumps_canonical, instance_to_json


def canon(instance) -> str:
    return dumps_canonical(instance_to_json(instance))


def test_same_seed_same_bytes():
    spec = GenSpec(jobs=10, hosts=3, horizon=16, seed="alpha")
    assert canon(generate(spec)) == canon(generate(spec))


def test_different_seeds_differ():
    a = generate(GenSpec(jobs=10, hosts=3, horizon=16, seed=1))
    b = generate(GenSpec(jobs=10, hosts=3, horizon=16, seed=2))
    assert canon(a) != canon(b)


def test_laminar_mode_draws_tree_windows():
    spec = GenSpec(jobs=25, hosts=2, horizon=16, slack=Fraction(1, 3), seed=3)
    instance = generate(spec)
    windows = [j.window for j in instance.jobs]
    assert window_forest(windows) is not None
    tree_windows = set(build_tree(16).windows())
    assert all(w in tree_windows for w in windows)


def test_slackness_invariant_exact():
    for laminar in (True, False):
        spec = GenSpec(
            jobs=30, hosts=2, horizon=20, slack=Fraction(2, 7),
            laminar=laminar, seed=4,
        )
        for job in generate(spec).jobs:
            assert job.length <= Fraction(2, 7) * job.window.size


def test_weight_mode_area():
    spec = GenSpec(jobs=12, hosts=2, horizon=8, weight_mode="area", seed=5)
    for job in generate(spec).jobs:
        assert job.weight == area(job)


def test_demand_bounds_and_dim():
    spec = GenSpec(
        jobs=15, hosts=2, horizon=8, dim=3,
        demand_lo=Fraction(1, 4), demand_hi=Fraction(3, 4), seed=6,
    )
    instance = generate(spec)
    assert instance.dim == 3
    for job in instance.jobs:
        assert len(job.demand) == 3
        assert all(Fraction(1, 4) <= s <= Fraction(3, 4) for s in job.demand)


def test_unsatisfiable_specs_error():
    with pytest.raises(ValueError, match="admits a job"):
        generate(GenSpec(jobs=1, hosts=1, horizon=4, slack=Fraction(1, 5)))
    with pytest.raises(ValueError, match="unit job"):
        generate(
            GenSpec(jobs=1, hosts=1, horizon=4, slack=Fraction(1, 5), laminar=False)
        )


def test_zero_jobs():
    instance = generate(GenSpec(jobs=0, hosts=2, horizon=8, seed=7))
    assert len(instance.jobs) == 0


def test_spec_validation():
    with pytest.raises(ValueError, match="slack"):
        GenSpec(jobs=1, hosts=1, horizon=4, slack=Fraction(3, 2))
    with pytest.raises(ValueError, match="weight_mode"):
        GenSpec(jobs=1, hosts=1, horizon=4, weight_mode="uniform")
    with pytest.raises(ValueError, match="demand bounds"):
        GenSpec(jobs=1, hosts=1, horizon=4, demand_lo=Fraction(2), demand_hi=Fraction(2))
    with pytest.raises(ValueError, match="hosts"):
        GenSpec(jobs=1, hosts=0, horizon=4)


def test_spec_from_json_parses_rationals():
    spec = spec_from_json(
        {"jobs": 4, "hosts": 2, "horizon": 8, "slack": "1/2", "demand_lo": "1/5"}
    )
    assert spec.slack == Fraction(1, 2)
    assert spec.demand_lo == Fraction(1, 5)
    with pytest.raises(ValueError, match="unknown generator fields"):
        spec_from_json({"jobs": 4, "hosts": 2, "horizon": 8, "bogus": 1})


def test_spec_from_json_reads_a_union_by_its_first_fitting_member():
    base = {"jobs": 4, "hosts": 2, "horizon": 8}
    assert spec_from_json({**base, "seed": 7}).seed == 7
    assert spec_from_json({**base, "seed": "7"}).seed == "7"
    for bad in (2.5, True, None):
        with pytest.raises(ValueError, match="'seed' must be an integer or a string"):
            spec_from_json({**base, "seed": bad})
