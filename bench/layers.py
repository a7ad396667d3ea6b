"""Per-layer spans and counts for the traced run.

Nothing inside slotsched is instrumented: ``install`` rebinds the module
attributes that callers look up at call time (``maxt.lp_solve``,
``minr.price_column``, ``experiments.compare`` and so on) to wrappers that
add their wall time and counts to an accumulator, and ``restore`` puts the
originals back.  Untraced passes run with the originals in place.

Spans below ``experiments.compare`` run on the batch's worker threads, so the
accumulator takes a lock, and the experiments-layer spans use per-thread CPU
time: under the interpreter lock two threads share one core, and their CPU
times add up to the core time the batch used, where wall times would count
the same second twice.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

from slotsched import experiments, maxt, minr

# name -> (unit, better); every value is per call of the workload's entry
# point, except the ratios
PER_LAYER = {
    "simplex.solves": ("count", "lower"),
    "simplex.solve_s": ("s", "lower"),
    "simplex.tableau_cells": ("count", "lower"),
    "maxt.relaxation_s": ("s", "lower"),
    "maxt.lp_s": ("s", "lower"),
    "maxt.rounding_s": ("s", "lower"),
    "maxt.packing_s": ("s", "lower"),
    "maxt.large_heights_s": ("s", "lower"),
    "maxt.family_rows": ("count", "lower"),
    "maxt.profit_over_lp": ("ratio", "higher"),
    "laminar.transform_s": ("s", "lower"),
    "laminar.dropped_jobs": ("count", "lower"),
    "minr.config_lp_s": ("s", "lower"),
    "minr.master_s": ("s", "lower"),
    "minr.master_solves": ("count", "lower"),
    "minr.columns": ("count", "lower"),
    "minr.pricing_s": ("s", "lower"),
    "minr.pricing_calls": ("count", "lower"),
    "minr.entering_ratio": ("ratio", "higher"),
    "minr.useful_column_ratio": ("ratio", "higher"),
    "minr.sample_s": ("s", "lower"),
    "minr.residual_s": ("s", "lower"),
    "minr.report_s": ("s", "lower"),
    "model.validate_s": ("s", "lower"),
    "minr.retries": ("count", "lower"),
    "minr.fallbacks": ("count", "lower"),
    "minr.hosts_over_lb": ("ratio", "lower"),
    "experiments.cells": ("count", "higher"),
    "experiments.solver_s": ("s", "lower"),
    "oracle.exact_s": ("s", "lower"),
    "experiments.overhead_s": ("s", "lower"),
    "experiments.parallelism": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


class Tracer:
    """Accumulated span times and counts, safe to add to from several threads."""

    def __init__(self):
        self.acc: dict[str, float] = defaultdict(float)
        self._cells: list[tuple[float, float]] = []  # wall intervals of batch cells
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def add(self, values: dict) -> None:
        with self._lock:
            for name, value in values.items():
                self.acc[name] += value

    def _rebind(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def _span(self, module, attr: str, metric: str, counts=None, clock=time.perf_counter) -> None:
        def make(original):
            def traced(*args, **kwargs):
                started = clock()
                result = original(*args, **kwargs)
                values = {metric: clock() - started}
                if counts:
                    values.update(counts(args, result))
                self.add(values)
                return result
            return traced
        self._rebind(module, attr, make)

    def install(self) -> None:
        def simplex(args, result):
            lp = args[0]
            return {"simplex.solves": 1, "simplex.tableau_cells": lp.n_rows * (lp.n_vars + lp.n_rows)}

        def maxt_lp(args, result):
            return {**simplex(args, result), "maxt.family_rows": args[0].n_rows}

        def config_lp(args, result):
            return {
                "minr.master_solves": result.iterations,
                "minr.columns": result.column_count,
                "minr.entered": result.column_count - result.trace[0].columns_added,
                "minr.useful": len(result.columns),
            }

        self._span(maxt, "lp_solve", "maxt.lp_s", maxt_lp)
        self._span(minr, "lp_solve", "minr.master_s", simplex)
        self._span(maxt, "solve_relaxation", "maxt.relaxation_s")
        self._span(maxt, "round_selection", "maxt.rounding_s")
        self._span(maxt, "schedule_selected", "maxt.packing_s")
        self._span(maxt, "solve_large_heights", "maxt.large_heights_s")
        self._span(maxt, "transform_instance", "laminar.transform_s",
                   lambda args, result: {"laminar.dropped_jobs": len(result[1].untransformable)})
        self._span(minr, "solve_config_lp", "minr.config_lp_s", config_lp)
        self._span(minr, "price_column", "minr.pricing_s", lambda args, result: {"minr.pricing_calls": 1})
        self._span(minr, "sample_configurations", "minr.sample_s")
        for attr in ("build_residual", "split_residuals", "schedule_residual"):
            self._span(minr, attr, "minr.residual_s")
        self._span(minr, "residual_area_report", "minr.report_s")
        self._span(minr, "validate", "model.validate_s")
        for attr in ("exact_maxt", "exact_minr"):
            self._span(experiments, attr, "oracle.exact_s", clock=time.thread_time)
        self._rebind(experiments, "compare", self._traced_cell)
        self._rebind(experiments, "run_batch", self._traced_batch)
        solvers = experiments.SOLVERS
        saved = dict(solvers)
        for name, (metric, runner) in saved.items():
            solvers[name] = (metric, self._traced_runner(runner))
        self._saved.append((solvers, None, saved))

    def _traced_cell(self, compare):
        def traced(*args, **kwargs):
            wall, cpu = time.perf_counter(), time.thread_time()
            try:
                return compare(*args, **kwargs)
            finally:
                self.add({"experiments.cells": 1, "experiments.cell_cpu_s": time.thread_time() - cpu})
                with self._lock:
                    self._cells.append((wall, time.perf_counter()))
        return traced

    def _traced_batch(self, run_batch):
        def traced(*args, **kwargs):
            self._cells.clear()
            started = time.perf_counter()
            try:
                return run_batch(*args, **kwargs)
            finally:
                wall = time.perf_counter() - started
                busy, reach = 0.0, started
                for lo, hi in sorted(self._cells):  # length of the union of cell intervals
                    busy += max(0.0, hi - max(lo, reach))
                    reach = max(reach, hi)
                self.add({"experiments.batch_wall_s": wall, "experiments.overhead_s": wall - busy})
        return traced

    def _traced_runner(self, runner):
        def traced(*args):
            started = time.thread_time()
            try:
                return runner(*args)
            finally:
                self.add({"experiments.solver_s": time.thread_time() - started})
        return traced

    def restore(self) -> None:
        for target, attr, original in reversed(self._saved):
            if attr is None:
                target.clear()
                target.update(original)
            else:
                setattr(target, attr, original)
        self._saved.clear()

    def metrics(self, calls: int, overhead: float) -> dict:
        """Every PER_LAYER metric from the accumulator: sums per call, ratios
        of their own totals."""
        acc = self.acc

        def ratio(num, den):
            return acc[num] / acc[den] if acc[den] else 0.0

        out = {name: acc[name] / calls for name in PER_LAYER if PER_LAYER[name][0] != "ratio"}
        out.update({
            "maxt.profit_over_lp": ratio("maxt.profit_over_lp", "maxt.results"),
            "minr.entering_ratio": ratio("minr.entered", "minr.pricing_calls"),
            "minr.useful_column_ratio": ratio("minr.useful", "minr.columns"),
            "minr.hosts_over_lb": ratio("minr.hosts_over_lb", "minr.results"),
            "experiments.parallelism": ratio("experiments.cell_cpu_s", "experiments.batch_wall_s"),
            "trace.overhead": overhead,
        })
        out["simplex.solve_s"] = (acc["maxt.lp_s"] + acc["minr.master_s"]) / calls
        return {name: float(out[name]) for name in PER_LAYER}
