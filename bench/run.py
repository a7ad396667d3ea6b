"""Benchmark for slotsched: one workload per run, every output checked.

    python3 bench/run.py --workload maxt-laminar --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy, and the run
fails (exit 2, no result) when that source is missing.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a run record with the same numbers, the Python version, the
CPU count and the arithmetic backend goes to ``bench/out/``.

A run sets up five times and reports the median as ``setup_s``: each
set-up imports the package in a fresh interpreter, generates the corpus and
makes one small warm-up call.  It then makes whole passes over the corpus,
at least three, and stops at the pass boundary nearest to ``--seconds`` of
timed calls; every output is checked outside the timed region.  Each
operation's time is its fastest pass: on a shared machine contention only
ever adds time, and it comes in stretches that a median over a few passes
does not filter.
``solves_per_s`` is operations over the sum of those times and
``solve_p50_s`` their median.  With ``--trace 1`` untraced and traced passes
alternate, at least two of each, and the per-layer metrics replace the
end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3
SETUP_REPEATS = 5


def _import_package() -> None:
    """Import slotsched from the checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import slotsched

    if Path(slotsched.__file__).resolve().parent != ROOT / "src" / "slotsched":
        raise ImportError(f"slotsched imported from {slotsched.__file__}, not from {ROOT / 'src'}")


def _fresh_import_seconds() -> float:
    """Wall time of a new interpreter that imports every module the workloads use."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import slotsched.experiments, slotsched.maxt, slotsched.minr"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True,
    )
    return time.perf_counter() - started


def _backend() -> str:
    """The simplex's rational type: gmpy2's mpq, or the Fraction fallback."""
    from slotsched import simplex

    return f"{simplex._q.__module__}.{simplex._q.__name__}"


def _passes(workload, ops, seconds: float, tracer=None):
    """Whole passes over ops; returns (per-op times per pass, traced flags,
    attempted, failed, problems) where problems holds the first failed call
    and the first failed check."""
    times: list[list[float]] = []
    traced_flags: list[bool] = []
    attempted = failed = 0
    problems: dict[str, str] = {}
    timed = 0.0
    need = 4 if tracer else MIN_PASSES  # trace: untraced and traced passes alternate
    # stop at the pass boundary nearest to `seconds` of timed calls
    while len(times) < need or timed + sum(times[-1]) / 2 < seconds or (tracer and len(times) % 2):
        traced = bool(tracer) and len(times) % 2 == 1
        if traced:
            tracer.install()
        row = []
        try:
            for op in ops:
                attempted += 1
                started = time.perf_counter()
                try:
                    out = workload.call(op)
                except Exception as exc:  # counted against attempted, reported below
                    row.append(time.perf_counter() - started)
                    failed += 1
                    problems.setdefault("call", f"{type(exc).__name__}: {exc}")
                    continue
                row.append(time.perf_counter() - started)
                if traced:
                    workload.observe(op, out, tracer.acc)
                try:
                    workload.check(op, out)
                except Exception as exc:  # a wrong output, or a checker fault
                    problems.setdefault("check", f"{type(exc).__name__}: {exc}")
        finally:
            if traced:
                tracer.restore()
        times.append(row)
        traced_flags.append(traced)
        timed += sum(row)
    return times, traced_flags, attempted, failed, problems


def _fastest(times: list[list[float]]) -> list[float]:
    """Each operation's fastest time over the passes."""
    return [min(column) for column in zip(*times)]


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    _import_package()
    import layers
    import workloads

    workload = workloads.get(workload_name)
    setups = []
    for _ in range(SETUP_REPEATS):
        import_s = _fresh_import_seconds()
        started = time.perf_counter()
        ops = workload.corpus(seed)
        workload.warm()
        setups.append(import_s + time.perf_counter() - started)

    tracer = layers.Tracer() if trace else None
    times, traced_flags, attempted, failed, problems = _passes(workload, ops, seconds, tracer)
    if trace:
        plain = _fastest([t for t, f in zip(times, traced_flags) if not f])
        traced = _fastest([t for t, f in zip(times, traced_flags) if f])
        calls = len(ops) * sum(traced_flags)
        metrics = tracer.metrics(calls, sum(traced) / sum(plain))
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        fastest = _fastest(times)
        metrics = {
            "setup_s": statistics.median(setups),
            "solves_per_s": len(ops) / sum(fastest),
            "solve_p50_s": statistics.median(fastest),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "solves_per_s": "1/s", "solve_p50_s": "s", "peak_rss_mb": "MB"}
    for kind, text in problems.items():
        print(f"first failed {kind}: {text}", file=sys.stderr)
    return {
        "correct": "check" not in problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "record": {
            "workload": workload_name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "passes": len(times),
            "operations_per_pass": len(ops),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "backend": _backend(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("maxt-laminar", "minr-master", "batch-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import slotsched from this checkout: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(BENCH / "out" / "batch", ignore_errors=True)
    record = result.pop("record")
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({**record, **result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
