"""Canonical interval tree, window mapping, and the laminar transform."""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotsched.laminar import (
    build_tree,
    forest_order,
    map_window,
    transform_instance,
    window_forest,
)
from slotsched.model import Instance, Job, Schedule, TimeWindow, validate


def W(a, b):
    return TimeWindow(a, b)


def test_is_laminar_cases():
    assert window_forest([W(1, 4), W(1, 2), W(3, 4)]) is not None
    assert window_forest([W(1, 3), W(2, 4)]) is None
    # duplicates are laminar
    assert window_forest([W(2, 2), W(2, 2)]) is not None
    assert window_forest([]) is not None


def _pairwise_laminar(windows):
    return all(
        a.contains(b) or b.contains(a) or not a.overlaps(b) for a in windows for b in windows
    )


_any_window = st.builds(lambda s, n: W(s, s + n), st.integers(1, 8), st.integers(0, 7))
_tree_windows = st.lists(st.sampled_from(build_tree(12).windows()), max_size=10)


@settings(max_examples=300, deadline=None)
@given(
    windows=st.lists(_any_window, max_size=6)
    | _tree_windows
    | st.tuples(_tree_windows, _any_window).map(lambda p: p[0] + [p[1]])
)
def test_window_forest_matches_pairwise_check(windows):
    laminar = _pairwise_laminar(windows)
    parent = window_forest(windows)
    assert (parent is not None) == laminar
    if parent is None:
        return
    assert set(parent) == set(windows)
    order = list(parent)
    for w, up in parent.items():
        containing = [v for v in set(windows) if v != w and v.contains(w)]
        if up is None:
            assert not containing
        else:
            assert up == min(containing, key=lambda v: v.size)
            assert order.index(up) < order.index(w)


def test_window_forest_cases():
    assert window_forest([]) == {}
    assert window_forest([W(2, 2), W(2, 2)]) == {W(2, 2): None}
    assert window_forest([W(3, 4), W(1, 4), W(1, 2), W(1, 4), W(6, 6)]) == {
        W(1, 4): None,
        W(1, 2): W(1, 4),
        W(3, 4): W(1, 4),
        W(6, 6): None,
    }
    assert window_forest([W(1, 4), W(1, 2), W(2, 3)]) is None


def test_tree_t4_nodes():
    tree = build_tree(4)
    got = sorted((w.start, w.end) for w in tree.windows())
    assert got == [(1, 1), (1, 2), (1, 4), (2, 2), (3, 3), (3, 4), (4, 4)]


def test_tree_t8_balanced():
    tree = build_tree(8)
    ws = tree.windows()
    assert len(ws) == 15
    sizes = sorted(w.size for w in ws)
    assert sizes == [1] * 8 + [2] * 4 + [4] * 2 + [8]
    assert window_forest(ws) is not None


def test_tree_odd_horizon():
    # [1,5] splits at 3: [1,3],[4,5]; still laminar, still covers all singletons
    tree = build_tree(5)
    ws = set((w.start, w.end) for w in tree.windows())
    assert (1, 5) in ws and (1, 3) in ws and (4, 5) in ws
    for t in range(1, 6):
        assert (t, t) in ws
    assert window_forest(tree.windows()) is not None


def test_map_window_examples():
    tree = build_tree(8)
    # [2,7] contains [3,4] and [5,6]; rightmost of the largest wins
    assert map_window(tree, W(2, 7)) == W(5, 6)
    # exact tree node maps to itself
    assert map_window(tree, W(1, 4)) == W(1, 4)
    # singleton always maps to itself
    assert map_window(tree, W(3, 3)) == W(3, 3)
    # strictly larger contained interval beats a righter smaller one
    assert map_window(tree, W(1, 6)) == W(1, 4)


@dataclass(frozen=True)
class _RefNode:
    window: TimeWindow
    children: tuple["_RefNode", ...]


def _reference_tree(horizon):
    """The split tree as stored nodes (the former implementation), kept to
    pin the computed preorder and mapping."""

    def grow(lo, hi):
        if lo == hi:
            return _RefNode(W(lo, hi), ())
        mid = (lo + hi) // 2
        return _RefNode(W(lo, hi), (grow(lo, mid), grow(mid + 1, hi)))

    return grow(1, horizon)


def _reference_preorder(root):
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(node.window)
        stack.extend(reversed(node.children))
    return out


def _reference_map(root, window):
    best = None
    stack = [root]
    while stack:
        node = stack.pop()
        w = node.window
        if not w.overlaps(window):
            continue
        if window.contains(w):
            if best is None or (w.size, w.start) > (best.size, best.start):
                best = w
            continue
        stack.extend(node.children)
    return best


@pytest.mark.parametrize("horizons", [range(1, 65), (100, 127, 128, 129)], ids=["1-64", "edges"])
def test_computed_tree_matches_stored_nodes(horizons):
    for horizon in horizons:
        tree, root = build_tree(horizon), _reference_tree(horizon)
        assert tree.windows() == _reference_preorder(root)
        for a in range(1, horizon + 1):
            for b in range(a, horizon + 1):
                assert map_window(tree, W(a, b)) == _reference_map(root, W(a, b))


def test_tree_errors():
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        build_tree(0)
    with pytest.raises(ValueError, match="exceeds horizon 8"):
        map_window(build_tree(8), W(3, 9))


def test_transform_leaves_no_cyclic_garbage():
    jobs = (
        Job(id=1, release=2, due=15, length=3, demand=(Fraction(1, 2),), weight=Fraction(5)),
        Job(id=2, release=6, due=12, length=1, demand=(Fraction(1, 4),), weight=Fraction(2)),
    )
    inst = Instance(hosts=2, dim=1, jobs=jobs)
    gc.collect()
    gc.disable()
    try:
        for horizon in (1, 16, 33):
            build_tree(horizon).windows()
        transform_instance(inst)
        transform_instance(Instance(hosts=1, dim=1, jobs=()))
    finally:
        gc.enable()
    assert gc.collect() == 0


def test_transform_empty_instance():
    inst = Instance(hosts=3, dim=2, jobs=())
    trans, mapping = transform_instance(inst)
    assert trans == inst
    assert mapping.by_job == {} and mapping.untransformable == ()
    assert mapping.aggregate_span(W(1, 1)) is None


def test_map_window_total_and_bounded():
    # |window| <= 4 |mapped| over every window of several horizons
    for horizon in (4, 8, 16, 31):
        tree = build_tree(horizon)
        for a in range(1, horizon + 1):
            for b in range(a, horizon + 1):
                mapped = map_window(tree, W(a, b))
                assert W(a, b).contains(mapped)
                assert b - a + 1 <= 4 * mapped.size


def test_aggregate_span_bound():
    # windows [1,8] and [2,7] on T=8 both map rightward; the union of the
    # windows mapped onto [5,6] spans [2,7], within 4x of the node size
    jobs = (
        Job(id=1, release=1, due=8, length=1, demand=(Fraction(1, 2),), weight=Fraction(1)),
        Job(id=2, release=2, due=7, length=1, demand=(Fraction(1, 2),), weight=Fraction(1)),
    )
    inst = Instance(hosts=1, dim=1, jobs=jobs)
    _, mapping = transform_instance(inst)
    assert mapping.by_job[1] == (W(1, 8), W(1, 8))
    assert mapping.by_job[2] == (W(2, 7), W(5, 6))
    span = mapping.aggregate_span(W(5, 6))
    assert span == W(2, 7)
    assert span.size <= 4 * W(5, 6).size


def test_transform_drops_overlong_jobs():
    # horizon 7 tree maps [2,7] to [5,7]: 3 slots, so p=4 cannot transform
    jobs = (
        Job(id=1, release=2, due=7, length=4, demand=(Fraction(1, 2),), weight=Fraction(1)),
        Job(id=2, release=2, due=7, length=2, demand=(Fraction(1, 2),), weight=Fraction(1)),
    )
    inst = Instance(hosts=1, dim=1, jobs=jobs)
    trans, mapping = transform_instance(inst)
    assert mapping.by_job[1] == (W(2, 7), W(5, 7))
    assert mapping.untransformable == (1,)
    assert [j.id for j in trans.jobs] == [2]
    assert trans.jobs[0].window == W(5, 7)


def test_transform_result_is_laminar_and_slackness_scales():
    rng = random.Random(7)
    for _ in range(50):
        horizon = rng.choice([8, 16, 24])
        jobs = []
        for jid in range(1, rng.randint(2, 10)):
            a = rng.randint(1, horizon)
            b = rng.randint(a, horizon)
            size = b - a + 1
            p = rng.randint(1, size)
            jobs.append(
                Job(
                    id=jid,
                    release=a,
                    due=b,
                    length=p,
                    demand=(Fraction(1, rng.randint(2, 6)),),
                    weight=Fraction(rng.randint(1, 9)),
                )
            )
        inst = Instance(hosts=2, dim=1, jobs=tuple(jobs))
        trans, mapping = transform_instance(inst)
        assert window_forest([j.window for j in trans.jobs]) is not None
        for job in trans.jobs:
            orig, mapped = mapping.by_job[job.id]
            assert orig.contains(mapped)
            # window shrinks by at most 4x, so per-job slackness grows <= 4x
            assert orig.size <= 4 * mapped.size


def test_schedule_for_transformed_validates_on_original():
    jobs = (
        Job(id=1, release=2, due=7, length=2, demand=(Fraction(1, 2),), weight=Fraction(1)),
    )
    inst = Instance(hosts=1, dim=1, jobs=jobs)
    trans, _ = transform_instance(inst)
    # schedule inside the mapped window [5,6]
    sched = Schedule.from_pairs({1: [(1, 5), (1, 6)]})
    assert validate(trans, sched, require_all_complete=True).feasible
    assert validate(inst, sched, require_all_complete=True).feasible


def test_forest_order_children_first():
    order = forest_order([W(1, 4), W(1, 2), W(3, 4), W(1, 1), W(1, 4)])
    assert order.index(W(1, 2)) < order.index(W(1, 4))
    assert order.index(W(1, 1)) < order.index(W(1, 2))
    # duplicates collapse
    assert order.count(W(1, 4)) == 1
