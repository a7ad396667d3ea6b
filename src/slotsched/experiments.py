"""Experiment harness: run solvers on instances, emit CSV rows, summarize,
and sweep generated corpora in reproducible batches.

Seeding discipline: one global seed fans out to per-cell seeds through the
cell's position (generator index, instance index, solver name), so adding a
solver or appending a generator spec never changes any other cell's
randomness.  Ratios in the CSV are a convenience for human readers; loaders
recompute them from the raw value and oracle columns.
"""

from __future__ import annotations

import csv
import hashlib
import io
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields as dataclass_fields, replace
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
    dumps_canonical,
    format_rational,
    instance_to_json,
    parse_rational,
)
from .oracle import DEFAULT_LIMITS, LimitExceeded, OracleLimits, exact_maxt, exact_minr

__all__ = [
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
        cells = [
            self.instance, self.digest, self.solver, self.params, self.status,
            self.metric, self.value, self.lp_bound, self.oracle, self.ratio,
            self.seed,
        ]
        if timings:
            cells.append("" if self.runtime is None else f"{self.runtime:.6f}")
        return cells


def _fmt(q) -> str:
    if q is None:
        return ""
    out = format_rational(Fraction(q))
    return str(out)


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
    """One row per requested solver.  Solver failures become rows with an
    `error:` status instead of aborting the run; the oracle column is
    filled when the instance fits within the exhaustive-search limits and
    left empty otherwise."""
    digest = instance_digest(instance)
    oracle_cache: dict[str, Fraction | None] = {}
    rows = []
    for name in solvers:
        if name not in SOLVERS:
            raise ValueError(f"unknown solver {name!r}; known: {SOLVER_NAMES}")
        metric, runner = SOLVERS[name]
        if metric not in oracle_cache:
            oracle_cache[metric] = _oracle_value(instance, metric, oracle_limits)
        opt = oracle_cache[metric]
        started = time.perf_counter()
        try:
            _, value, lp_bound, params = runner(instance, seed, lam, minr_params)
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
                seed=str(seed),
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


def _config_mapping(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"batch config field {field!r} must be a JSON object")
    return value


def _config_fields(value, field: str, param_type) -> dict:
    mapping = _config_mapping(value, field)
    allowed = {f.name for f in dataclass_fields(param_type)}
    bad = set(mapping) - allowed
    if bad:
        raise ValueError(
            f"unknown {field} fields: {sorted(bad)}; known: {sorted(allowed)}"
        )
    return mapping


def _parse_batch_config(config):
    if not isinstance(config, dict):
        raise ValueError("batch config must be a JSON object")
    known = {"seed", "gen", "solvers", "oracle", "acceptance", "lam", "minr"}
    unknown = set(config) - known
    if unknown:
        raise ValueError(f"unknown batch config fields: {sorted(unknown)}")
    seed = config.get("seed", 0)
    if not isinstance(seed, (str, int)) or isinstance(seed, bool):
        raise ValueError("batch config field 'seed' must be a string or integer")
    gen_entries = config.get("gen", [])
    if not isinstance(gen_entries, list):
        raise ValueError("batch config field 'gen' must be a list of generator specs")
    gen_specs = []
    for gi, entry in enumerate(gen_entries):
        entry = dict(_config_mapping(entry, f"gen[{gi}]"))
        count = entry.pop("count", 1)
        if not _is_int(count):
            raise ValueError(
                f"batch config field 'gen[{gi}].count' must be an integer, got {count!r}"
            )
        label = entry.pop("label", f"gen{gi}")
        entry.pop("seed", None)  # seeds are derived, never taken from specs
        gen_specs.append((label, spec_from_json(entry), count))
    solvers = config.get("solvers", [])
    if not isinstance(solvers, list):
        raise ValueError("batch config field 'solvers' must be a list of solver names")
    solvers = list(solvers)
    for name in solvers:
        if name not in SOLVERS:
            raise ValueError(f"unknown solver {name!r}; known: {SOLVER_NAMES}")
    if "oracle" in config:
        limits = OracleLimits(**_config_fields(config["oracle"], "oracle", OracleLimits))
    else:
        limits = DEFAULT_LIMITS
    lam = parse_rational(config["lam"]) if "lam" in config else None
    minr_params = None
    if "minr" in config:
        raw = _config_fields(config["minr"], "minr", MinRParams)
        retries = raw.get("max_retries", 0)
        if not _is_int(retries):
            raise ValueError(
                f"batch config field 'minr.max_retries' must be an integer, got {retries!r}"
            )
        minr_params = MinRParams(**{
            k: v if k == "max_retries" else parse_rational(v)
            for k, v in raw.items()
        })
    if "acceptance" in config and not isinstance(config["acceptance"], str):
        raise ValueError("batch config field 'acceptance' must be a test-file path")
    return seed, gen_specs, solvers, limits, lam, minr_params


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
    """Run the full generator x solver matrix described by a config object.

    Writes instances/, results.csv, and summary.json under out_dir and
    returns the summary.  Cell failures are isolated: a solver error shows
    up as an error row (and in the summary's error counts), never as a
    crashed batch.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed, gen_specs, solvers, limits, lam, minr_params = _parse_batch_config(config)

    instance_dir = out_dir / "instances"
    cells = []  # (order, label, instance, run_seed)
    for gi, (label, spec, count) in enumerate(gen_specs):
        for k in range(count):
            inst_seed = f"{seed}:g{gi}:i{k}"
            instance = generate(replace(spec, seed=inst_seed))
            name = f"{label}-{k}"
            if solvers:
                instance_dir.mkdir(exist_ok=True)
                (instance_dir / f"{name}.json").write_text(
                    dumps_canonical(instance_to_json(instance))
                )
            for solver in solvers:
                cells.append((name, instance, solver, f"{inst_seed}:{solver}"))

    def run_cell(cell):
        name, instance, solver, run_seed = cell
        return compare(
            instance,
            [solver],
            label=name,
            seed=run_seed,
            lam=lam,
            minr_params=minr_params,
            oracle_limits=limits,
            timings=timings,
        )[0]

    if workers is not None and workers > 1 and cells:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_cell, cells))
    else:
        rows = [run_cell(cell) for cell in cells]

    csv_text = rows_to_csv(rows, timings=timings)
    (out_dir / "results.csv").write_text(csv_text)

    summary = {
        "seed": seed,
        "rows": len(rows),
        "solvers": summarize(load_rows(csv_text)),
    }
    if config.get("acceptance"):
        summary["acceptance"] = _run_acceptance(str(config["acceptance"]), out_dir)
    (out_dir / "summary.json").write_text(dumps_canonical(summary))
    return summary
