"""Experiment harness: run solvers on instances, emit CSV rows, summarize,
and sweep generated corpora in reproducible batches, one instance after another
on the calling thread (cells are CPU-bound Python: threads only add GIL waits).

Seeding discipline: `compare` runs solver `name` with the seed
`f"{seed}:{name}"` and records that seed in its row, so the row's seed
reproduces it.  A batch seeds instance k of generator spec g with
`f"{seed}:g{g}:i{k}"` and compares every solver on it, so adding a solver or
appending a generator spec never changes any other row's randomness.  Ratios
in the CSV are a convenience for human readers; loaders recompute them from
the raw value and oracle columns.
"""

from __future__ import annotations

import csv
import hashlib
import io
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from .generator import generate, spec_from_json
from .maxt import (
    solve_maxt_general,
    solve_maxt_laminar,
    solve_maxt_logn,
    solve_utilization,
)
from .minr import MinRParams, partition_by_window, solve_minr
from .model import (
    Instance,
    _is_int,
    dataclass_from_json,
    dumps_canonical,
    format_rational,
    instance_to_json,
    parse_rational,
)
from .oracle import DEFAULT_LIMITS, LimitExceeded, OracleLimits, exact_maxt, exact_minr

__all__ = [
    "BatchConfig",
    "CSV_COLUMNS",
    "RunRow",
    "SOLVERS",
    "SOLVER_NAMES",
    "compare",
    "instance_digest",
    "load_rows",
    "rows_to_csv",
    "run_batch",
    "summarize",
]

CSV_COLUMNS = [
    "instance",
    "digest",
    "solver",
    "params",
    "status",
    "metric",
    "value",
    "lp_bound",
    "oracle",
    "ratio",
    "seed",
]
RUNTIME_COLUMN = "runtime"


def instance_digest(instance: Instance) -> str:
    """First 16 hex chars of sha256 over the canonical instance JSON."""
    blob = dumps_canonical(instance_to_json(instance)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class RunRow:
    instance: str
    digest: str
    solver: str
    params: str
    status: str
    metric: str
    value: str
    lp_bound: str
    oracle: str
    ratio: str
    seed: str
    runtime: float | None = None

    def as_list(self, timings: bool = False) -> list[str]:
        cells = [getattr(self, column) for column in CSV_COLUMNS]
        if timings:
            cells.append("" if self.runtime is None else f"{self.runtime:.6f}")
        return cells


def _fmt(q) -> str:
    return "" if q is None else str(format_rational(q))


# The one table of how each solver name is called, used by compare, batch and
# the CLI.  Each entry: (metric, runner).  Runners take (instance, seed, lam,
# minr_params) and return (result, value, lp_bound, params_str), where result
# is the solver's own result object; deterministic solvers ignore the seed.
def _maxt_runner(fn, takes_lam=True, **fixed):
    def run(instance, seed, lam, minr_params):
        kwargs = dict(fixed)
        if takes_lam and lam is not None:
            kwargs["lam"] = lam
        res = fn(instance, **kwargs)
        params = f"lam={_fmt(lam)}" if takes_lam and lam is not None else ""
        return res, res.profit, res.lp_bound, params
    return run


def _run_minr(instance, seed, lam, minr_params):
    params = minr_params or MinRParams()
    res = solve_minr(instance, params, seed=seed)
    return res, res.hosts_used, res.m_star, f"c={_fmt(params.c)}"


def _run_partition(instance, seed, lam, minr_params):
    params = minr_params or MinRParams()
    res = partition_by_window(instance, params, seed=seed)
    return res, res.total_hosts, None, f"c={_fmt(params.c)};theta={_fmt(params.theta)}"


SOLVERS = {
    "laminar": ("profit", _maxt_runner(solve_maxt_laminar)),
    "laminar-single": ("profit", _maxt_runner(solve_maxt_laminar, variant="single")),
    "laminar-split": ("profit", _maxt_runner(solve_maxt_laminar, variant="split")),
    "general": ("profit", _maxt_runner(solve_maxt_general)),
    "general-split": ("profit", _maxt_runner(solve_maxt_general, variant="split")),
    "logn": ("profit", _maxt_runner(solve_maxt_logn, takes_lam=False)),
    "utilization": ("profit", _maxt_runner(solve_utilization)),
    "minr": ("hosts", _run_minr),
    "minr-partition": ("hosts", _run_partition),
}
SOLVER_NAMES = tuple(SOLVERS)


def _check_solvers(solvers) -> list[str]:
    solvers = list(solvers)
    for name in solvers:
        if name not in SOLVERS:
            raise ValueError(f"unknown solver {name!r}; known: {SOLVER_NAMES}")
    return solvers


def _oracle_value(instance: Instance, metric: str, limits: OracleLimits):
    try:
        if metric == "profit":
            return exact_maxt(instance, limits=limits)[0]
        return Fraction(exact_minr(instance, limits=limits))
    except LimitExceeded:
        return None


def compare(
    instance: Instance,
    solvers,
    *,
    label: str = "instance",
    seed=0,
    lam: Fraction | None = None,
    minr_params: MinRParams | None = None,
    oracle_limits: OracleLimits = DEFAULT_LIMITS,
    timings: bool = False,
) -> list[RunRow]:
    """One row per requested solver, each run with and recording the seed
    `f"{seed}:{name}"`.  An unknown name raises before anything runs.
    Solver failures become rows with an `error:` status instead of aborting
    the run; the oracle column is filled (once per metric) when the instance
    fits within the exhaustive-search limits and left empty otherwise."""
    solvers = _check_solvers(solvers)
    digest = instance_digest(instance)
    oracle_cache: dict[str, Fraction | None] = {}
    rows = []
    for name in solvers:
        metric, runner = SOLVERS[name]
        run_seed = f"{seed}:{name}"
        if metric not in oracle_cache:
            oracle_cache[metric] = _oracle_value(instance, metric, oracle_limits)
        opt = oracle_cache[metric]
        started = time.perf_counter()
        try:
            _, value, lp_bound, params = runner(instance, run_seed, lam, minr_params)
            status = "ok"
        except Exception as exc:  # recorded, not raised: failures become rows
            value, lp_bound, params = None, None, ""
            status = f"error:{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        ratio = None
        if value is not None and opt not in (None, 0):
            ratio = Fraction(value) / opt
        rows.append(
            RunRow(
                instance=label,
                digest=digest,
                solver=name,
                params=params,
                status=status,
                metric=metric,
                value=_fmt(value),
                lp_bound=_fmt(lp_bound),
                oracle=_fmt(opt),
                ratio=_fmt(ratio),
                seed=run_seed,
                runtime=elapsed if timings else None,
            )
        )
    return rows


def rows_to_csv(rows, timings: bool = False) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS + ([RUNTIME_COLUMN] if timings else []))
    for row in rows:
        writer.writerow(row.as_list(timings))
    return buf.getvalue()


def load_rows(text: str) -> list[dict]:
    """Parse a results CSV.  The ratio column is recomputed from the raw
    value and oracle columns — stored ratios are never trusted."""
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        row["ratio"] = ""
        if row["value"] and row["oracle"]:
            opt = parse_rational(row["oracle"])
            if opt != 0:
                row["ratio"] = _fmt(parse_rational(row["value"]) / opt)
    return rows


def summarize(rows: list[dict]) -> dict:
    """Per-solver run counts and min/median ratios, from loaded rows."""
    by_solver: dict[str, dict] = {}
    for row in rows:
        entry = by_solver.setdefault(
            row["solver"], {"runs": 0, "errors": 0, "ratios": []}
        )
        entry["runs"] += 1
        if row["status"] != "ok":
            entry["errors"] += 1
        if row["ratio"]:
            entry["ratios"].append(parse_rational(row["ratio"]))
    summary = {}
    for name in sorted(by_solver):
        entry = by_solver[name]
        ratios = entry["ratios"]
        summary[name] = {
            "runs": entry["runs"],
            "errors": entry["errors"],
            "oracle_runs": len(ratios),
            "min_ratio": _fmt(min(ratios)) if ratios else None,
            "median_ratio": _fmt(statistics.median(ratios)) if ratios else None,
        }
    return summary


# -- batch sweeps --------------------------------------------------------------------


@dataclass(frozen=True)
class BatchConfig:
    """The fields of a batch config file, as `dataclass_from_json` reads them."""

    seed: int | str = 0
    gen: tuple[dict, ...] = ()
    solvers: tuple[str, ...] = ()
    oracle: OracleLimits = DEFAULT_LIMITS
    lam: Fraction | None = None
    minr: MinRParams | None = None
    acceptance: str | None = None


def _parse_batch_config(config) -> tuple[BatchConfig, dict]:
    """The config and its generator specs, label -> (spec, count)."""
    cfg = dataclass_from_json(BatchConfig, config, "batch config")
    gen_specs = {}
    for gi, entry in enumerate(cfg.gen):
        entry = dict(entry)
        count = entry.pop("count", 1)
        if not _is_int(count) or count < 0:
            raise ValueError(
                f"batch config field 'gen[{gi}].count' must be an integer >= 0, got {count!r}"
            )
        label = entry.pop("label", f"gen{gi}")
        # the label names this entry's files in instances/
        plain = isinstance(label, str) and label and not set(label) & set("/\\\0")
        if not plain or label in gen_specs:
            raise ValueError(
                f"batch config field 'gen[{gi}].label' must be a unique plain name, got {label!r}"
            )
        entry.pop("seed", None)  # seeds are derived, never taken from specs
        gen_specs[label] = spec_from_json(entry), count
    _check_solvers(cfg.solvers)
    return cfg, gen_specs


def _run_acceptance(test_path: str, out_dir: Path) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", test_path, "-v"],
        capture_output=True,
        text=True,
    )
    verdict = "PASS" if proc.returncode == 0 else "FAIL"
    (out_dir / "verdict.txt").write_text(
        f"{verdict}\n\n{proc.stdout}{proc.stderr}"
    )
    return verdict


def run_batch(
    config: dict,
    out_dir,
    *,
    workers: int | None = None,
    timings: bool = False,
) -> dict:
    """Run the full generator x solver matrix described by a config object:
    one `compare` call per generated instance, with the instance's seed, in
    order on the calling thread.

    Writes instances/, results.csv, and summary.json under out_dir and
    returns the summary.  Cell failures are isolated: a solver error shows
    up as an error row (and in the summary's error counts), never as a
    crashed batch.

    `workers` is deprecated and ignored: its thread pool lost to serial runs
    under the GIL.  It stays only while `bench/workloads.py` passes
    `workers=2`; a later benchmark change drops that argument, then this one.
    """
    if workers is not None:
        msg = "run_batch(workers=...) is ignored: cells run on the calling thread"
        warnings.warn(msg, DeprecationWarning, stacklevel=2)
    cfg, gen_specs = _parse_batch_config(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    instance_dir = out_dir / "instances"
    rows = []
    for gi, (label, (spec, count)) in enumerate(gen_specs.items()):
        for k in range(count):
            inst_seed = f"{cfg.seed}:g{gi}:i{k}"
            instance = generate(replace(spec, seed=inst_seed))
            name = f"{label}-{k}"
            if cfg.solvers:
                instance_dir.mkdir(exist_ok=True)
                (instance_dir / f"{name}.json").write_text(
                    dumps_canonical(instance_to_json(instance))
                )
                rows += compare(
                    instance,
                    cfg.solvers,
                    label=name,
                    seed=inst_seed,
                    lam=cfg.lam,
                    minr_params=cfg.minr,
                    oracle_limits=cfg.oracle,
                    timings=timings,
                )

    csv_text = rows_to_csv(rows, timings=timings)
    (out_dir / "results.csv").write_text(csv_text)

    summary = {
        "seed": cfg.seed,
        "rows": len(rows),
        "solvers": summarize(load_rows(csv_text)),
    }
    if cfg.acceptance:
        summary["acceptance"] = _run_acceptance(cfg.acceptance, out_dir)
    (out_dir / "summary.json").write_text(dumps_canonical(summary))
    return summary
