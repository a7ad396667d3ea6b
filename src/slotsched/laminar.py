"""Laminar window families and the canonical binary interval tree.

A family of windows is laminar when every pair is nested or disjoint.  The
throughput LP and its rounding only work on laminar families, so arbitrary
instances are transformed first: build a fixed binary tree over [1, T]
(each node [l, r] splits at floor((l+r)/2), down to singleton leaves) and
replace every window by the largest tree interval contained in it (rightmost
such interval on size ties).  The mapped window loses at most a factor 4 of
its size, and the union of all windows mapped onto one tree interval spans at
most 4x that window; both facts are what the downstream guarantees lean on,
and both are cheap to check exhaustively for small horizons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from slotsched.model import Instance, Job, TimeWindow


def is_laminar(windows: Iterable[TimeWindow]) -> bool:
    """True iff every pair of windows is nested or disjoint.

    Duplicates are fine (a window nests in itself).  O(n^2) on distinct
    windows, which is plenty at the sizes this package targets.
    """
    distinct = sorted(set(windows))
    for i, a in enumerate(distinct):
        for b in distinct[i + 1 :]:
            if a.contains(b) or b.contains(a):
                continue
            if a.overlaps(b):
                return False
    return True


@dataclass(frozen=True)
class TreeNode:
    window: TimeWindow
    children: tuple["TreeNode", ...]


@dataclass(frozen=True)
class LaminarTree:
    """Binary split tree over [1, horizon] with singleton leaves."""

    horizon: int
    root: TreeNode

    def nodes(self) -> list[TreeNode]:
        """All nodes, preorder (parent before children)."""
        out: list[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children))
        return out

    def windows(self) -> list[TimeWindow]:
        return [n.window for n in self.nodes()]


def build_tree(horizon: int) -> LaminarTree:
    """The canonical tree: root [1, T], split [l, r] at floor((l+r)/2)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")

    def grow(lo: int, hi: int) -> TreeNode:
        if lo == hi:
            return TreeNode(TimeWindow(lo, hi), ())
        mid = (lo + hi) // 2
        return TreeNode(TimeWindow(lo, hi), (grow(lo, mid), grow(mid + 1, hi)))

    return LaminarTree(horizon=horizon, root=grow(1, horizon))


def map_window(tree: LaminarTree, window: TimeWindow) -> TimeWindow:
    """Largest tree interval contained in `window`; rightmost on size ties.

    Total: singleton leaves guarantee a hit for any window inside [1, T].
    Only nodes intersecting the window are visited, and descent stops at the
    first contained node on each branch, so this is O(tree depth + hits).
    """
    if window.end > tree.horizon:
        raise ValueError(f"window [{window.start}, {window.end}] exceeds horizon {tree.horizon}")
    best: TimeWindow | None = None
    stack = [tree.root]
    while stack:
        node = stack.pop()
        w = node.window
        if not w.overlaps(window):
            continue
        if window.contains(w):
            # a contained node's descendants are strictly smaller; prune here
            if best is None or (w.size, w.start) > (best.size, best.start):
                best = w
            continue
        stack.extend(node.children)
    if best is None:
        raise AssertionError("singleton leaves make mapping total")
    return best


@dataclass(frozen=True)
class LaminarMapping:
    """Result of transforming an instance onto the canonical tree.

    by_job: job id -> (original window, mapped tree interval).
    untransformable: ids of jobs whose length exceeds their mapped interval;
    they are left out of the transformed instance and the caller decides what
    to do with them.
    """

    tree: LaminarTree
    by_job: dict[int, tuple[TimeWindow, TimeWindow]]
    untransformable: tuple[int, ...]

    def aggregate_span(self, node: TimeWindow) -> TimeWindow | None:
        """Union of all original windows mapped onto `node`.

        Every such window contains `node`, so the union is the single
        interval [min start, max end]; None when nothing maps there.
        """
        starts = [
            orig.start for orig, mapped in self.by_job.values() if mapped == node
        ]
        ends = [orig.end for orig, mapped in self.by_job.values() if mapped == node]
        if not starts:
            return None
        return TimeWindow(min(starts), max(ends))


def transform_instance(instance: Instance) -> tuple[Instance, LaminarMapping]:
    """Shrink every job's window to its mapped tree interval.

    Jobs whose length no longer fits the mapped interval are dropped from the
    transformed instance and reported in the mapping.  Ids, lengths, demands
    and weights are untouched, so any schedule feasible for the transformed
    instance validates against the original unchanged.
    """
    if not instance.jobs:
        tree = build_tree(max(instance.horizon, 1))
        return instance, LaminarMapping(tree=tree, by_job={}, untransformable=())
    tree = build_tree(instance.horizon)
    by_job: dict[int, tuple[TimeWindow, TimeWindow]] = {}
    kept: list[Job] = []
    dropped: list[int] = []
    for job in instance.jobs:
        mapped = map_window(tree, job.window)
        by_job[job.id] = (job.window, mapped)
        if job.length > mapped.size:
            dropped.append(job.id)
            continue
        kept.append(
            Job(
                id=job.id,
                release=mapped.start,
                due=mapped.end,
                length=job.length,
                demand=job.demand,
                weight=job.weight,
            )
        )
    transformed = Instance(hosts=instance.hosts, dim=instance.dim, jobs=tuple(kept))
    mapping = LaminarMapping(tree=tree, by_job=by_job, untransformable=tuple(dropped))
    return transformed, mapping


# ---------------------------------------------------------------------------
# Laminar forest over an arbitrary laminar window family (not necessarily the
# canonical tree).  The rounding step and the bottom-up scheduler both walk
# windows children-before-parents, which the sort below provides directly.
# ---------------------------------------------------------------------------


def forest_order(windows: Iterable[TimeWindow]) -> list[TimeWindow]:
    """Distinct windows sorted children-before-parents (size asc, start asc)."""
    return sorted(set(windows), key=lambda w: (w.size, w.start))
