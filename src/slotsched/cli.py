"""Command-line interface.

Commands mirror the library surface: `gen` makes instances, `laminarize`
maps windows onto the interval tree, `solve-maxt` / `solve-minr` run the
approximation pipelines, `oracle` runs the exhaustive reference solvers,
`validate` checks schedules, and `compare` / `batch` drive experiment
sweeps with CSV output.

Conventions: every command accepts --seed (commands without randomness
accept and ignore it); results go to stdout unless --out is given;
relative output paths resolve under $SLOTSCHED_OUT when that variable is
set.  The exit code is 0 only when everything requested succeeded —
solver errors inside compare/batch still produce rows, but the exit code
reports them.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

from .experiments import SOLVER_NAMES, SOLVERS, compare, rows_to_csv, run_batch
from .generator import GenSpec, generate
from .laminar import transform_instance
from .maxt import ScheduleError
from .minr import MinRError, MinRParams
from .model import (
    _load_json,
    dumps_canonical,
    format_rational,
    instance_to_json,
    load_instance,
    load_schedule,
    parse_rational,
    validate,
)
from .oracle import LimitExceeded, OracleLimits, exact_maxt, exact_minr

ENV_OUT = "SLOTSCHED_OUT"

__all__ = ["main"]


def _out_base() -> Path:
    base = os.environ.get(ENV_OUT)
    return Path(base) if base else Path(".")


def _resolve_out(arg: str | None) -> Path | None:
    if arg is None:
        return None
    path = Path(arg)
    return path if path.is_absolute() else _out_base() / path


def _emit(text: str, out: str | None) -> None:
    path = _resolve_out(out)
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}", file=sys.stderr)


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", default="0",
                        help="random seed (accepted and ignored where nothing is random)")
    parser.add_argument("--out", help="output file (default: stdout); relative paths resolve under $SLOTSCHED_OUT")


# -- command implementations -------------------------------------------------------


def _from_options(cls, args):
    """Dataclass `cls` built from the options given, so that every option
    left out (None) takes its default from the dataclass."""
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in vars(args).items() if k in names and v is not None})


def _cmd_gen(args) -> int:
    instance = generate(_from_options(GenSpec, args))
    _emit(dumps_canonical(instance_to_json(instance)), args.out)
    return 0


def _cmd_laminarize(args) -> int:
    instance = load_instance(args.instance)
    transformed, mapping = transform_instance(instance)
    payload = {
        "instance": instance_to_json(transformed),
        "dropped": list(mapping.untransformable),
        "window_map": {
            str(jid): {
                "original": [orig.start, orig.end],
                "mapped": [mapped.start, mapped.end],
            }
            for jid, (orig, mapped) in sorted(mapping.by_job.items())
        },
    }
    _emit(dumps_canonical(payload), args.out)
    return 0


def _solve(args, solver: str, lam=None, minr_params=None) -> int:
    """Run one registry solver on the instance and emit its result JSON."""
    instance = load_instance(args.instance)
    _, runner = SOLVERS[solver]
    result = runner(instance, args.seed, lam, minr_params)[0]
    _emit(dumps_canonical(result.to_json()), args.out)
    return 0


def _cmd_solve_maxt(args) -> int:
    return _solve(args, args.solver, lam=args.lam)


def _cmd_solve_minr(args) -> int:
    solver = "minr-partition" if args.partition else "minr"
    return _solve(args, solver, minr_params=_from_options(MinRParams, args))


def _cmd_oracle(args) -> int:
    instance = load_instance(args.instance)
    limits = _from_options(OracleLimits, args)
    try:
        if args.problem == "maxt":
            weight, ids = exact_maxt(instance, limits=limits)
            payload = {
                "problem": "maxt",
                "optimum": format_rational(weight),
                "selected": list(ids),
            }
        else:
            payload = {"problem": "minr", "optimum": exact_minr(instance, limits=limits)}
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(dumps_canonical(payload), args.out)
    return 0


def _cmd_validate(args) -> int:
    instance = load_instance(args.instance)
    schedule = load_schedule(args.schedule)
    report = validate(
        instance,
        schedule,
        require_all_complete=args.require_all_complete,
        hosts=args.hosts,
    )
    _emit(dumps_canonical(report.to_json()), args.out)
    return 0 if report.feasible else 1


def _cmd_compare(args) -> int:
    instance = load_instance(args.instance)
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    rows = compare(
        instance,
        solvers,
        label=Path(args.instance).stem,
        seed=args.seed,
        lam=args.lam,
        timings=args.timings,
    )
    _emit(rows_to_csv(rows, timings=args.timings), args.out)
    return 0 if all(row.status == "ok" for row in rows) else 1


def _cmd_batch(args) -> int:
    config = _load_json(args.config)
    out_dir = _resolve_out(args.out_dir)
    summary = run_batch(config, out_dir, timings=args.timings)
    sys.stdout.write(dumps_canonical(summary))
    errors = sum(entry["errors"] for entry in summary["solvers"].values())
    if summary.get("acceptance") == "FAIL":
        return 1
    return 0 if errors == 0 else 1


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slotsched",
        description="Slot schedulers: throughput maximization and host minimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--hosts", type=int, default=2)
    p.add_argument("--horizon", type=int, default=8)
    p.add_argument("--slack", type=_rational,
                   help=f"max job length as a fraction of its window (default {GenSpec.slack})")
    p.add_argument("--dim", type=int)
    p.add_argument("--general", dest="laminar", action="store_false", default=None,
                   help="arbitrary windows (default: laminar, drawn from the interval tree)")
    p.add_argument("--weight-mode", choices=("random", "area"))
    p.add_argument("--demand-lo", type=_rational)
    p.add_argument("--demand-hi", type=_rational)
    _add_common(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("laminarize", help="map windows onto the interval tree")
    p.add_argument("instance")
    _add_common(p)
    p.set_defaults(fn=_cmd_laminarize)

    p = sub.add_parser("solve-maxt", help="approximate maximum-throughput scheduling")
    p.add_argument("instance")
    p.add_argument("--solver", default="laminar",
                   choices=[name for name, (metric, _) in SOLVERS.items() if metric == "profit"])
    p.add_argument("--lam", type=_rational, default=None,
                   help="slackness bound (default: measured from the instance)")
    _add_common(p)
    p.set_defaults(fn=_cmd_solve_maxt)

    p = sub.add_parser("solve-minr", help="minimize hosts to complete all jobs")
    p.add_argument("instance")
    p.add_argument("--c", type=_rational, help=f"oversampling factor (default {MinRParams.c})")
    p.add_argument("--epsilon", type=_rational)
    p.add_argument("--theta", type=_rational)
    p.add_argument("--omega", type=_rational)
    p.add_argument("--max-retries", type=int)
    p.add_argument("--partition", action="store_true",
                   help="partition jobs by window size and solve per slab")
    _add_common(p)
    p.set_defaults(fn=_cmd_solve_minr)

    p = sub.add_parser("oracle", help="exhaustive reference solvers (tiny instances)")
    p.add_argument("instance")
    p.add_argument("--problem", choices=("maxt", "minr"), default="maxt")
    p.add_argument("--max-jobs", type=int)
    p.add_argument("--max-horizon", type=int)
    p.add_argument("--max-hosts", type=int)
    _add_common(p)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("validate", help="check a schedule against an instance")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.add_argument("--require-all-complete", action="store_true")
    p.add_argument("--hosts", type=int, default=None,
                   help="host-count bound override (for host-minimization schedules)")
    _add_common(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("compare", help="run several solvers on one instance, emit CSV")
    p.add_argument("instance")
    p.add_argument("--solvers", default="laminar,logn",
                   help=f"comma-separated from: {', '.join(SOLVER_NAMES)}")
    p.add_argument("--lam", type=_rational, default=None)
    p.add_argument("--timings", action="store_true",
                   help="include the runtime column (breaks byte-for-byte determinism)")
    _add_common(p)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("batch", help="run a generator x solver sweep from a config file")
    p.add_argument("config")
    p.add_argument("--out-dir", default="batch-results")
    p.add_argument("--timings", action="store_true")
    p.add_argument("--seed", default="0",
                   help="accepted and ignored; the config file's seed governs the sweep")
    p.set_defaults(fn=_cmd_batch)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, ScheduleError, MinRError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
