"""Tests for the experiment harness: compare rows, CSV round-trips,
summaries, and reproducible batch sweeps."""

import json
import threading
from fractions import Fraction

import pytest

from slotsched import experiments
from slotsched.experiments import (
    CSV_COLUMNS,
    compare,
    instance_digest,
    load_rows,
    rows_to_csv,
    run_batch,
    summarize,
)
from slotsched.generator import GenSpec, generate
from slotsched.minr import MinRParams, solve_minr
from slotsched.model import Instance, Job
from slotsched.oracle import OracleLimits


def tiny_laminar():
    return generate(
        GenSpec(jobs=4, hosts=2, horizon=4, slack=Fraction(1, 3), seed="cmp")
    )


def general_only():
    # [1,9] and [2,10] overlap without nesting: not a laminar family.
    # Unit lengths keep the slackness (1/9) inside the general solver's limit.
    return Instance(
        hosts=2,
        dim=1,
        jobs=[
            Job(id=1, release=1, due=9, length=1, demand=(Fraction(1, 2),),
                weight=Fraction(1)),
            Job(id=2, release=2, due=10, length=1, demand=(Fraction(1, 2),),
                weight=Fraction(1)),
        ],
    )


def test_digest_is_stable_and_content_sensitive():
    a, b = tiny_laminar(), tiny_laminar()
    assert instance_digest(a) == instance_digest(b)
    assert len(instance_digest(a)) == 16
    assert int(instance_digest(a), 16) >= 0
    other = generate(GenSpec(jobs=4, hosts=2, horizon=4, slack=Fraction(1, 3), seed="x"))
    assert instance_digest(other) != instance_digest(a)


def test_compare_fills_oracle_and_ratio():
    rows = compare(tiny_laminar(), ["laminar", "logn"], seed=1)
    assert [r.solver for r in rows] == ["laminar", "logn"]
    for row in rows:
        assert row.status == "ok"
        assert row.metric == "profit"
        assert row.oracle != ""
        assert row.ratio != ""
        assert Fraction(0) <= Fraction(row.ratio) <= 1
        assert row.digest == instance_digest(tiny_laminar())


def test_compare_minr_ratio_at_least_one():
    rows = compare(
        tiny_laminar(), ["minr"], seed=2, oracle_limits=OracleLimits(max_hosts=4)
    )
    (row,) = rows
    assert row.status == "ok"
    assert row.metric == "hosts"
    assert Fraction(row.ratio) >= 1


def test_compare_records_failures_as_rows():
    rows = compare(general_only(), ["laminar", "general"], seed=3)
    by_solver = {r.solver: r for r in rows}
    assert by_solver["laminar"].status.startswith("error:ValueError")
    assert by_solver["laminar"].value == ""
    assert by_solver["general"].status == "ok"


def counting_exact_maxt(monkeypatch) -> list:
    """Wrap experiments.exact_maxt; the returned list grows by one per call."""
    calls = []
    real = experiments.exact_maxt

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "exact_maxt", counted)
    return calls


def test_compare_unknown_solver_rejected(monkeypatch):
    with pytest.raises(ValueError, match="unknown solver"):
        compare(tiny_laminar(), ["nonesuch"])
    # a known name ahead of the unknown one runs neither its oracle nor itself
    calls = counting_exact_maxt(monkeypatch)
    with pytest.raises(ValueError, match="unknown solver 'nonesuch'"):
        compare(tiny_laminar(), ["laminar", "nonesuch"])
    assert calls == []


def test_compare_seeds_each_solver_with_seed_and_name():
    instance = tiny_laminar()
    rows = compare(instance, ["laminar", "minr", "logn"], seed=11,
                   oracle_limits=OracleLimits(max_hosts=4))
    assert [row.seed for row in rows] == ["11:laminar", "11:minr", "11:logn"]
    # the recorded seed is the one the solver ran with: it reproduces the row
    rerun = solve_minr(instance, MinRParams(), seed="11:minr")
    assert rows[1].value == str(rerun.hosts_used)


def test_oracle_column_empty_beyond_limits():
    big = generate(GenSpec(jobs=10, hosts=2, horizon=16, seed="big"))
    rows = compare(big, ["laminar"], seed=4)
    assert rows[0].oracle == ""
    assert rows[0].ratio == ""
    assert rows[0].lp_bound != ""


def test_csv_round_trip_recomputes_ratio():
    rows = compare(tiny_laminar(), ["laminar"], seed=5)
    text = rows_to_csv(rows)
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    loaded = load_rows(text)
    assert loaded[0]["ratio"] == rows[0].ratio
    # tamper with the stored ratio: the loader must overwrite it
    tampered = text.replace(f",{rows[0].ratio},", ",999,")
    assert load_rows(tampered)[0]["ratio"] == rows[0].ratio


def test_csv_runtime_column_only_with_timings():
    rows = compare(tiny_laminar(), ["laminar"], seed=6, timings=True)
    plain = rows_to_csv(rows)
    timed = rows_to_csv(rows, timings=True)
    assert "runtime" not in plain.splitlines()[0]
    assert timed.splitlines()[0].endswith(",runtime")
    assert rows[0].runtime is not None


def test_summarize_min_and_median():
    rows = load_rows(rows_to_csv(compare(tiny_laminar(), ["laminar", "logn"], seed=7)))
    summary = summarize(rows)
    for name in ("laminar", "logn"):
        entry = summary[name]
        assert entry["runs"] == 1
        assert entry["errors"] == 0
        assert entry["oracle_runs"] == 1
        assert entry["min_ratio"] == entry["median_ratio"]


BATCH_CONFIG = {
    "seed": "sweep",
    "gen": [
        {
            "label": "tiny",
            "jobs": 4,
            "hosts": 2,
            "horizon": 4,
            "slack": "1/3",
            "count": 3,
        }
    ],
    "solvers": ["laminar", "logn"],
}


def test_batch_writes_artifacts_and_summary(tmp_path):
    summary = run_batch(BATCH_CONFIG, tmp_path / "out")
    assert (tmp_path / "out" / "results.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()
    instances = sorted(p.name for p in (tmp_path / "out" / "instances").iterdir())
    assert instances == ["tiny-0.json", "tiny-1.json", "tiny-2.json"]
    assert summary["rows"] == 6
    assert set(summary["solvers"]) == {"laminar", "logn"}
    assert summary["solvers"]["laminar"]["runs"] == 3


def test_batch_reruns_are_byte_identical(tmp_path):
    seeded = dict(BATCH_CONFIG, solvers=["laminar", "minr"])
    for k, config in enumerate((BATCH_CONFIG, seeded)):
        run_batch(config, tmp_path / f"a{k}")
        with pytest.warns(DeprecationWarning):  # workers is ignored
            run_batch(config, tmp_path / f"b{k}", workers=4)
        for name in ("results.csv", "summary.json"):
            a = (tmp_path / f"a{k}" / name).read_bytes()
            assert a == (tmp_path / f"b{k}" / name).read_bytes()


def test_batch_starts_no_thread(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("thread started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    with pytest.warns(DeprecationWarning):
        summary = run_batch(BATCH_CONFIG, tmp_path / "out", workers=2)
    assert summary["rows"] == 6


def test_batch_runs_the_oracle_once_per_instance(tmp_path, monkeypatch):
    calls = counting_exact_maxt(monkeypatch)
    run_batch(BATCH_CONFIG, tmp_path / "out")
    assert len(calls) == 3  # three instances, two profit solvers each


def test_batch_rows_are_compare_on_each_instance(tmp_path):
    run_batch(BATCH_CONFIG, tmp_path / "out")
    rows = []
    for k in range(3):
        instance = generate(GenSpec(jobs=4, hosts=2, horizon=4, slack=Fraction(1, 3),
                                    seed=f"sweep:g0:i{k}"))
        rows += compare(instance, BATCH_CONFIG["solvers"], label=f"tiny-{k}",
                        seed=f"sweep:g0:i{k}")
    assert (tmp_path / "out" / "results.csv").read_text() == rows_to_csv(rows)


def test_batch_adding_a_solver_keeps_other_rows(tmp_path):
    run_batch(BATCH_CONFIG, tmp_path / "a")
    bigger = dict(BATCH_CONFIG, solvers=["laminar", "logn", "minr"])
    run_batch(bigger, tmp_path / "b")
    rows_a = load_rows((tmp_path / "a" / "results.csv").read_text())
    rows_b = load_rows((tmp_path / "b" / "results.csv").read_text())
    kept = [r for r in rows_b if r["solver"] != "minr"]
    assert kept == rows_a


def test_batch_empty_matrix(tmp_path):
    summary = run_batch({"seed": 0, "gen": [], "solvers": []}, tmp_path / "out")
    assert summary == {"seed": 0, "rows": 0, "solvers": {}}


def test_batch_rejects_unknown_fields(tmp_path):
    with pytest.raises(ValueError, match="unknown batch config"):
        run_batch({"sed": 1}, tmp_path / "out")
    with pytest.raises(ValueError, match="unknown solver"):
        run_batch({"solvers": ["nope"]}, tmp_path / "out")


def test_batch_rejects_malformed_field_types(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="must be a JSON object"):
        run_batch(["not", "a", "config"], out)
    with pytest.raises(ValueError, match="'oracle' must be a JSON object"):
        run_batch({"oracle": True}, out)
    with pytest.raises(ValueError, match="unknown oracle fields"):
        run_batch({"oracle": {"max_jobs": 4, "max_depth": 9}}, out)
    with pytest.raises(ValueError, match="'gen' must be a list"):
        run_batch({"gen": {"jobs": 3}}, out)
    with pytest.raises(ValueError, match="'gen\\[0\\]' must be a JSON object"):
        run_batch({"gen": ["jobs"]}, out)
    with pytest.raises(ValueError, match="'solvers' must be a list"):
        run_batch({"solvers": "laminar"}, out)
    with pytest.raises(ValueError, match="unknown minr fields"):
        run_batch({"minr": {"oversample": 6}}, out)
    with pytest.raises(ValueError, match="'minr' must be a JSON object"):
        run_batch({"minr": 6}, out)
    with pytest.raises(ValueError, match="'seed' must be an integer or a string"):
        run_batch({"seed": True}, out)
    with pytest.raises(ValueError, match="'acceptance' must be a string or null"):
        run_batch({"acceptance": 3}, out)


def test_batch_isolates_cell_failures(tmp_path):
    config = {
        "seed": 1,
        "gen": [
            {
                "label": "gen",
                "jobs": 3,
                "hosts": 2,
                "horizon": 12,
                "slack": "1/9",
                "laminar": False,
                "count": 4,
            }
        ],
        "solvers": ["laminar", "general"],
    }
    summary = run_batch(config, tmp_path / "out")
    assert summary["solvers"]["laminar"]["errors"] > 0  # non-laminar windows
    assert summary["solvers"]["general"]["errors"] == 0


def test_batch_acceptance_verdict(tmp_path):
    good = tmp_path / "check_pass.py"
    good.write_text("def test_ok():\n    assert True\n")
    config = {"seed": 0, "acceptance": str(good)}
    summary = run_batch(config, tmp_path / "out")
    assert summary["acceptance"] == "PASS"
    verdict = (tmp_path / "out" / "verdict.txt").read_text()
    assert verdict.startswith("PASS")

    bad = tmp_path / "check_fail.py"
    bad.write_text("def test_no():\n    assert False\n")
    summary = run_batch({"seed": 0, "acceptance": str(bad)}, tmp_path / "out2")
    assert summary["acceptance"] == "FAIL"


def test_batch_minr_params_threaded(tmp_path):
    config = {
        "seed": "mp",
        "gen": [
            {
                "label": "roomy",
                "jobs": 2,
                "hosts": 1,
                "horizon": 8,
                "slack": "1/4",
                "count": 1,
            }
        ],
        "solvers": ["minr"],
        "minr": {"c": 4, "max_retries": 3},
        "oracle": {"max_jobs": 4, "max_horizon": 8, "max_hosts": 4},
    }
    summary = run_batch(config, tmp_path / "out")
    rows = load_rows((tmp_path / "out" / "results.csv").read_text())
    assert rows[0]["params"] == "c=4"
    assert summary["solvers"]["minr"]["errors"] == 0
