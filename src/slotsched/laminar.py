"""Laminar window families and the canonical binary interval tree.

A family of windows is laminar when every pair is nested or disjoint.  The
throughput LP and its rounding only work on laminar families, so arbitrary
instances are transformed first: take the fixed binary tree over [1, T]
(each node [l, r] splits at floor((l+r)/2), down to singleton leaves) and
replace every window by the largest tree interval contained in it (rightmost
such interval on size ties).  The tree depends only on T, so its nodes are
computed from T when needed rather than stored.  The mapped window loses at
most a factor 4 of its size, and the union of all windows mapped onto one
tree interval spans at most 4x that window; both facts are what the
downstream guarantees lean on, and both are cheap to check exhaustively for
small horizons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from slotsched.model import Instance, Job, TimeWindow


def window_forest(windows: Iterable[TimeWindow]) -> dict[TimeWindow, TimeWindow | None] | None:
    """Parent of every distinct window in a laminar family, or None when the
    family is not laminar.

    A window's parent is the smallest window that strictly contains it; roots
    map to None.  Keys come in preorder (start ascending, larger first on equal
    starts), so every parent precedes its children.  One sort plus a stack of
    open windows: the top of the stack is the innermost window still open at
    the next start, and it either contains the next window, ends before it, or
    crosses it, which is exactly a non-laminar pair.
    """
    parent: dict[TimeWindow, TimeWindow | None] = {}
    stack: list[TimeWindow] = []
    for w in sorted(set(windows), key=lambda w: (w.start, -w.end)):
        while stack and stack[-1].end < w.start:
            stack.pop()
        if stack and stack[-1].end < w.end:
            return None
        parent[w] = stack[-1] if stack else None
        stack.append(w)
    return parent


def is_laminar(windows: Iterable[TimeWindow]) -> bool:
    """True iff every pair of windows is nested or disjoint.

    Duplicates are fine (a window nests in itself).  O(k log k) on the k
    distinct windows: a family is laminar exactly when window_forest builds.
    """
    return window_forest(windows) is not None


@dataclass(frozen=True)
class LaminarTree:
    """Binary split tree over [1, horizon] with singleton leaves.

    The tree depends only on the horizon, so its nodes are computed from
    (lo, hi) pairs whenever they are needed, never stored.
    """

    horizon: int

    def windows(self) -> list[TimeWindow]:
        """All tree intervals, preorder (parent, then left subtree, then right)."""
        out: list[TimeWindow] = []
        stack = [(1, self.horizon)]
        while stack:
            lo, hi = stack.pop()
            out.append(TimeWindow(lo, hi))
            if lo < hi:
                mid = (lo + hi) // 2
                stack += ((mid + 1, hi), (lo, mid))
        return out


def build_tree(horizon: int) -> LaminarTree:
    """The canonical tree: root [1, T], split [l, r] at floor((l+r)/2)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return LaminarTree(horizon)


def map_window(tree: LaminarTree, window: TimeWindow) -> TimeWindow:
    """Largest tree interval contained in `window`; rightmost on size ties.

    Total: singleton leaves guarantee a hit for any window inside [1, T].
    Only nodes intersecting the window are visited, and descent stops at the
    first contained node on each branch, so this is O(tree depth + hits).
    """
    if window.end > tree.horizon:
        raise ValueError(f"window [{window.start}, {window.end}] exceeds horizon {tree.horizon}")
    start, end = window.start, window.end
    best: tuple[int, int] | None = None  # (size, start) of the best contained node
    stack = [(1, tree.horizon)]
    while stack:
        lo, hi = stack.pop()
        if hi < start or end < lo:
            continue
        if start <= lo and hi <= end:
            # a contained node's descendants are strictly smaller; prune here
            if best is None or (hi - lo + 1, lo) > best:
                best = (hi - lo + 1, lo)
            continue
        mid = (lo + hi) // 2
        stack += ((lo, mid), (mid + 1, hi))
    if best is None:
        raise AssertionError("singleton leaves make mapping total")
    size, lo = best
    return TimeWindow(lo, lo + size - 1)


@dataclass(frozen=True)
class LaminarMapping:
    """Result of transforming an instance onto the canonical tree.

    by_job: job id -> (original window, mapped tree interval).
    untransformable: ids of jobs whose length exceeds their mapped interval;
    they are left out of the transformed instance and the caller decides what
    to do with them.
    """

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
    tree = LaminarTree(instance.horizon)  # horizon 0 only when there are no jobs to map
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
    return transformed, LaminarMapping(by_job=by_job, untransformable=tuple(dropped))


# ---------------------------------------------------------------------------
# Laminar forest over an arbitrary laminar window family (not necessarily the
# canonical tree).  The rounding step and the bottom-up scheduler both walk
# windows children-before-parents, which the sort below provides directly.
# ---------------------------------------------------------------------------


def forest_order(windows: Iterable[TimeWindow]) -> list[TimeWindow]:
    """Distinct windows sorted children-before-parents (size asc, start asc)."""
    return sorted(set(windows), key=lambda w: (w.size, w.start))
