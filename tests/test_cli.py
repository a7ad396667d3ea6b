"""End-to-end tests of the command-line interface, driven through main()."""

import json
from fractions import Fraction

import pytest

from slotsched import maxt, minr
from slotsched.cli import main
from slotsched.experiments import SOLVERS
from slotsched.model import (
    Instance,
    Job,
    dumps_canonical,
    instance_to_json,
    load_instance,
    load_schedule,
    validate,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_instance(tmp_path, capsys, name="inst.json", **overrides):
    args = {
        "--jobs": "4", "--hosts": "2", "--horizon": "4",
        "--slack": "1/3", "--seed": "cli",
    }
    for key, value in overrides.items():
        flag = key if key.startswith("--") else "--" + key.replace("_", "-")
        args[flag] = value
    path = tmp_path / name
    argv = ["gen"] + [x for kv in args.items() for x in kv] + ["--out", str(path)]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    return path


def test_gen_writes_deterministic_instance(tmp_path, capsys):
    a = gen_instance(tmp_path, capsys, "a.json")
    b = gen_instance(tmp_path, capsys, "b.json")
    assert a.read_bytes() == b.read_bytes()
    instance = load_instance(a)
    assert len(instance.jobs) == 4


def test_gen_stdout_mode(capsys):
    code, out, _ = run(capsys, "gen", "--jobs", "2", "--hosts", "1",
                       "--horizon", "4", "--slack", "1/2", "--seed", "s")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["jobs"]) == 2


def test_gen_unsatisfiable_exits_nonzero(capsys):
    code, out, err = run(capsys, "gen", "--jobs", "1", "--hosts", "1",
                         "--horizon", "4", "--slack", "1/5")
    assert code == 1
    assert "error:" in err
    assert out == ""


def test_out_paths_resolve_under_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SLOTSCHED_OUT", str(tmp_path / "results"))
    code, _, err = run(capsys, "gen", "--jobs", "2", "--hosts", "1",
                       "--horizon", "4", "--slack", "1/2", "--seed", "s",
                       "--out", "sub/inst.json")
    assert code == 0
    assert (tmp_path / "results" / "sub" / "inst.json").exists()


def test_laminarize_reports_window_map(tmp_path, capsys):
    path = tmp_path / "gen.json"
    code, _, _ = run(capsys, "gen", "--jobs", "3", "--hosts", "2",
                     "--horizon", "12", "--slack", "1/9", "--general",
                     "--seed", "g", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "laminarize", str(path))
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"instance", "dropped", "window_map"}
    for entry in payload["window_map"].values():
        o_start, o_end = entry["original"]
        m_start, m_end = entry["mapped"]
        assert o_start <= m_start <= m_end <= o_end


def test_solve_maxt_output_validates(tmp_path, capsys):
    inst_path = gen_instance(tmp_path, capsys)
    code, out, _ = run(capsys, "solve-maxt", str(inst_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["path"] == "laminar-single"
    schedule_path = tmp_path / "sched.json"
    schedule_path.write_text(json.dumps(payload["schedule"]))
    report = validate(load_instance(inst_path), load_schedule(schedule_path))
    assert report.feasible
    assert sorted(payload["selected"]) == sorted(report.completed_ids)


def test_solve_maxt_solver_choices(tmp_path, capsys):
    inst_path = gen_instance(tmp_path, capsys)
    expected = {
        "laminar-split": {"laminar-split-small", "laminar-split-large", "large-heights"},
        "logn": {"logn-tiny", "logn-tall"},
        "utilization": None,  # any path is fine; profits are areas
    }
    for solver, paths in expected.items():
        code, out, _ = run(capsys, "solve-maxt", str(inst_path), "--solver", solver)
        assert code == 0
        path = json.loads(out)["path"]
        assert paths is None or path in paths


def test_solve_maxt_rejects_bad_lambda(tmp_path, capsys):
    inst_path = gen_instance(tmp_path, capsys)
    code, out, err = run(capsys, "solve-maxt", str(inst_path), "--lam", "3/4")
    assert code == 1
    assert "error:" in err


def test_solve_minr_end_to_end(tmp_path, capsys):
    inst_path = gen_instance(
        tmp_path, capsys, jobs="3", horizon="8", **{"--slack": "1/4"}
    )
    code, out, _ = run(capsys, "solve-minr", str(inst_path), "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["hosts_used"] == payload["m1"] + payload["m2"] + len(payload["fallbacks"])
    code2, out2, _ = run(capsys, "solve-minr", str(inst_path), "--seed", "7")
    assert out2 == out  # same seed, same bytes
    code3, out3, _ = run(capsys, "solve-minr", str(inst_path), "--seed", "8")
    assert code3 == 0


def test_solve_minr_partition(tmp_path, capsys):
    inst_path = gen_instance(tmp_path, capsys, jobs="3", horizon="8",
                             **{"--slack": "1/4"})
    code, out, _ = run(capsys, "solve-minr", str(inst_path), "--partition",
                       "--theta", "1/16", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_hosts"] >= 1
    assert payload["runs"]


def test_oracle_both_problems(tmp_path, capsys):
    inst_path = gen_instance(tmp_path, capsys)
    code, out, _ = run(capsys, "oracle", str(inst_path), "--problem", "maxt")
    assert code == 0
    maxt = json.loads(out)
    assert maxt["problem"] == "maxt" and "optimum" in maxt and "selected" in maxt
    code, out, _ = run(capsys, "oracle", str(inst_path), "--problem", "minr",
                       "--max-hosts", "4")
    assert code == 0
    assert json.loads(out)["optimum"] >= 1


def test_oracle_limit_exceeded(tmp_path, capsys):
    inst_path = gen_instance(tmp_path, capsys, jobs="8", horizon="16")
    code, _, err = run(capsys, "oracle", str(inst_path))
    assert code == 1
    assert "limit" in err


def test_validate_command(tmp_path, capsys):
    inst_path = gen_instance(tmp_path, capsys)
    code, out, _ = run(capsys, "solve-maxt", str(inst_path))
    schedule = json.loads(out)["schedule"]
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(json.dumps(schedule))
    code, out, _ = run(capsys, "validate", str(inst_path), str(sched_path))
    assert code == 0
    assert json.loads(out)["feasible"] is True

    # corrupt the schedule: send a job to a host that does not exist
    bad = {"placements": {jid: [[9, t] for _, t in spots]
                          for jid, spots in schedule["placements"].items()}}
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "validate", str(inst_path), str(bad_path))
    if json.loads(out)["violations"]:
        assert code == 1
    # the same placements pass under a higher host-count bound
    code, out, _ = run(capsys, "validate", str(inst_path), str(bad_path),
                       "--hosts", "9")
    assert code == 0


def test_compare_csv_and_exit_codes(tmp_path, capsys):
    inst_path = gen_instance(tmp_path, capsys)
    code, out, _ = run(capsys, "compare", str(inst_path),
                       "--solvers", "laminar,logn", "--seed", "5")
    assert code == 0
    header, *rows = out.splitlines()
    assert header.startswith("instance,digest,solver")
    assert "runtime" not in header
    assert len(rows) == 2

    code, out2, _ = run(capsys, "compare", str(inst_path),
                        "--solvers", "laminar,logn", "--seed", "5")
    assert out2 == out  # byte-identical rerun

    code, out, _ = run(capsys, "compare", str(inst_path),
                       "--solvers", "laminar", "--seed", "5", "--timings")
    assert code == 0
    assert out.splitlines()[0].endswith(",runtime")

    code, _, err = run(capsys, "compare", str(inst_path), "--solvers", "nope")
    assert code == 1
    assert "unknown solver" in err


def test_compare_reports_solver_failures_in_exit_code(tmp_path, capsys):
    path = tmp_path / "gen.json"
    run(capsys, "gen", "--jobs", "3", "--hosts", "2", "--horizon", "12",
        "--slack", "1/9", "--general", "--seed", "x1", "--out", str(path))
    code, out, _ = run(capsys, "compare", str(path), "--solvers", "laminar,general")
    lines = out.splitlines()
    assert code == 1  # the laminar cell failed on non-laminar windows
    assert any("error:" in line for line in lines[1:])


def test_batch_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SLOTSCHED_OUT", str(tmp_path))
    config = {
        "seed": "cli-batch",
        "gen": [{"label": "t", "jobs": 3, "hosts": 2, "horizon": 4,
                 "slack": "1/3", "count": 2}],
        "solvers": ["laminar"],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code, out, _ = run(capsys, "batch", str(cfg), "--out-dir", "sweep")
    assert code == 0
    summary = json.loads(out)
    assert summary["rows"] == 2
    assert (tmp_path / "sweep" / "results.csv").exists()
    assert (tmp_path / "sweep" / "summary.json").exists()


def test_batch_has_no_workers_option(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 0}))
    with pytest.raises(SystemExit) as exc:
        main(["batch", str(cfg), "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_batch_malformed_config_is_a_clean_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seed": 0, "oracle": True, "solvers": []}))
    code, _, err = run(capsys, "batch", str(cfg), "--out-dir", str(tmp_path / "b"))
    assert code == 1
    assert err.startswith("error:") and "oracle" in err
    assert "Traceback" not in err


def test_missing_instance_file(capsys):
    code, _, err = run(capsys, "solve-maxt", "/nonexistent/inst.json")
    assert code == 1
    assert "error:" in err


def test_every_command_accepts_seed(tmp_path, capsys):
    inst_path = gen_instance(tmp_path, capsys)
    sched = json.loads(run(capsys, "solve-maxt", str(inst_path))[1])["schedule"]
    sched_path = tmp_path / "s.json"
    sched_path.write_text(json.dumps(sched))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 0, "gen": [], "solvers": []}))
    commands = [
        ["laminarize", str(inst_path)],
        ["solve-maxt", str(inst_path)],
        ["solve-minr", str(inst_path)],
        ["oracle", str(inst_path)],
        ["validate", str(inst_path), str(sched_path)],
        ["compare", str(inst_path), "--solvers", "logn"],
        ["batch", str(cfg), "--out-dir", str(tmp_path / "b")],
    ]
    for argv in commands:
        code, _, err = run(capsys, *argv, "--seed", "1")
        assert code == 0, (argv, err)


# each profit solver name of the registry, as a direct library call
DIRECT_MAXT = {
    "laminar": lambda inst, lam: maxt.solve_maxt_laminar(inst, lam=lam),
    "laminar-single": lambda inst, lam: maxt.solve_maxt_laminar(inst, lam=lam, variant="single"),
    "laminar-split": lambda inst, lam: maxt.solve_maxt_laminar(inst, lam=lam, variant="split"),
    "general": lambda inst, lam: maxt.solve_maxt_general(inst, lam=lam),
    "general-split": lambda inst, lam: maxt.solve_maxt_general(inst, lam=lam, variant="split"),
    "logn": lambda inst, lam: maxt.solve_maxt_logn(inst),
    "utilization": lambda inst, lam: (
        maxt.solve_utilization(inst) if lam is None else maxt.solve_utilization(inst, lam=lam)
    ),
}


def test_solve_maxt_takes_every_registry_profit_solver(tmp_path, capsys):
    assert set(DIRECT_MAXT) == {n for n, (metric, _) in SOLVERS.items() if metric == "profit"}
    inst_path = gen_instance(tmp_path, capsys, jobs="6", horizon="16", slack="1/10")
    instance = load_instance(inst_path)
    for name, direct in DIRECT_MAXT.items():
        for lam in (None, Fraction(1, 10)):
            argv = ["solve-maxt", str(inst_path), "--solver", name]
            argv += [] if lam is None else ["--lam", "1/10"]
            code, out, err = run(capsys, *argv)
            assert code == 0, (name, lam, err)
            assert out == dumps_canonical(direct(instance, lam).to_json()), (name, lam)


def test_solve_minr_dispatch_matches_the_library(tmp_path, capsys):
    inst_path = gen_instance(tmp_path, capsys, jobs="3", horizon="8", slack="1/4")
    instance = load_instance(inst_path)
    params = minr.MinRParams(theta=Fraction(1, 16))
    code, out, _ = run(capsys, "solve-minr", str(inst_path), "--theta", "1/16", "--seed", "9")
    assert code == 0
    assert out == dumps_canonical(minr.solve_minr(instance, params, seed="9").to_json())
    code, out, _ = run(capsys, "solve-minr", str(inst_path), "--theta", "1/16", "--seed", "9",
                       "--partition")
    assert code == 0
    assert out == dumps_canonical(minr.partition_by_window(instance, params, seed="9").to_json())


def test_validate_payload_is_the_report_json(tmp_path, capsys):
    inst_path = gen_instance(tmp_path, capsys)
    sched_path = tmp_path / "bad.json"
    sched_path.write_text(json.dumps({"placements": {"1": [[9, 1]], "77": [[1, 1]]}}))
    code, out, _ = run(capsys, "validate", str(inst_path), str(sched_path))
    assert code == 1
    payload = json.loads(out)
    assert set(payload) == {"feasible", "violations", "completed", "total_weight", "total_area"}
    assert payload["violations"]
    for violation in payload["violations"]:
        assert set(violation) == {"kind", "job", "host", "slot"}
    assert {"kind": "unknown-job", "job": 77, "host": None, "slot": None} in payload["violations"]
    report = validate(load_instance(inst_path), load_schedule(sched_path))
    assert out == dumps_canonical(report.to_json())


GOOD_INSTANCE = {
    "hosts": 1,
    "dim": 1,
    "jobs": [{"id": 1, "release": 1, "due": 8, "length": 2, "demand": ["1/2"]}],
}
GOOD_JOB = GOOD_INSTANCE["jobs"][0]


def test_the_well_formed_instance_solves(tmp_path, capsys):
    # truncating "hosts": 1.9 or "length": 2.7 would leave it solvable too
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(GOOD_INSTANCE))
    assert run(capsys, "solve-maxt", str(inst_path))[0] == 0


def _with_job(**fields):
    return {**GOOD_INSTANCE, "jobs": [{**GOOD_JOB, **fields}]}


@pytest.mark.parametrize(
    "instance, schedule, field",
    [
        (_with_job(demand="1/0"), None, "demand"),
        (_with_job(demand=["1/0"]), None, "demand"),
        (_with_job(demand="1/2"), None, "demand"),
        (_with_job(wieght="9"), None, "wieght"),
        ({**GOOD_INSTANCE, "horizon": 8}, None, "horizon"),
        ({"hosts": 1, "dim": 1}, None, "jobs"),
        ([GOOD_INSTANCE], None, "instance"),
        ({**GOOD_INSTANCE, "jobs": 5}, None, "jobs"),
        ({**GOOD_INSTANCE, "hosts": 1.9}, None, "hosts"),
        (_with_job(length=2.7), None, "length"),
        ({**GOOD_INSTANCE, "dim": True}, None, "dim"),
        (_with_job(id=True), None, "'id'"),
        (_with_job(release=1.0), None, "release"),
        (_with_job(due="8"), None, "due"),
        (_with_job(length=None), None, "length"),
        (_with_job(weight=0.5), None, "weight"),
        (GOOD_INSTANCE, {"placements": {"1": [[1]]}}, "placements"),
        (GOOD_INSTANCE, [], "schedule"),
        (GOOD_INSTANCE, {"placements": []}, "placements"),
        (GOOD_INSTANCE, {"placements": {"x": []}}, "placements"),
        (GOOD_INSTANCE, {"placements": {"1": 5}}, "placements"),
        (GOOD_INSTANCE, {"placements": {"1": [[1, 2.0]]}}, "placements"),
        (GOOD_INSTANCE, {"placements": {"1": [[1, True]]}}, "placements"),
    ],
    ids=["demand-1/0", "demand-item-1/0", "demand-scalar", "weight-misspelt",
         "instance-unknown-key", "no-jobs", "top-level-list", "jobs-5", "hosts-float",
         "length-float", "dim-bool", "id-bool", "release-float", "due-string", "length-null",
         "weight-float",
         "pair-of-one", "schedule-list", "placements-list", "key-not-id", "spots-int",
         "slot-float", "slot-bool"],
)
def test_malformed_input_is_a_clean_error(tmp_path, capsys, instance, schedule, field):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(instance))
    if schedule is None:
        argv = ["solve-maxt", str(inst_path)]
    else:
        sched_path = tmp_path / "sched.json"
        sched_path.write_text(json.dumps(schedule))
        argv = ["validate", str(inst_path), str(sched_path)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and field in err
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert out == ""


def test_malformed_json_error_names_its_file(tmp_path, capsys):
    good, broken = tmp_path / "good.json", tmp_path / "broken.json"
    good.write_text(json.dumps(GOOD_INSTANCE))
    broken.write_text("")
    # the instance, then the schedule, is the file that does not parse
    for argv in (["validate", str(broken), str(good)], ["validate", str(good), str(broken)]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: {broken}: Expecting value: line 1 column 1 (char 0)\n"


TWO_UNIT_JOBS = (
    '{"hosts": 1, "dim": 1, "jobs": ['
    '{"id": 1, "release": 1, "due": 2, "length": 1, "demand": ["1/2"]}, '
    '{"id": 2, "release": 1, "due": 2, "length": 1, "demand": ["1/2"]}]}'
)
ONE_PLACEMENT = '{"placements": {"1": [[1, 1]]}}'


@pytest.mark.parametrize(
    "instance, schedule, key",
    [
        (TWO_UNIT_JOBS, '{"placements": {"1": [[1, 1]], "1": [[1, 2]]}}', "'1'"),
        (TWO_UNIT_JOBS.replace('"hosts": 1,', '"hosts": 1, "hosts": 2,'), ONE_PLACEMENT, "'hosts'"),
        (TWO_UNIT_JOBS.replace('"due": 2,', '"due": 2, "due": 1,', 1), ONE_PLACEMENT, "'due'"),
    ],
    ids=["schedule-job", "instance-field", "job-field"],
)
def test_a_repeated_json_key_is_an_error(tmp_path, capsys, instance, schedule, key):
    # json.load keeps the last of two equal keys; the first list of job 1
    # would vanish and the schedule read as feasible
    inst_path, sched_path = tmp_path / "inst.json", tmp_path / "sched.json"
    inst_path.write_text(instance)
    sched_path.write_text(schedule)
    code, out, err = run(capsys, "validate", str(inst_path), str(sched_path))
    assert code == 1 and out == ""
    broken = sched_path if key == "'1'" else inst_path
    assert err == f"error: {broken}: repeated key {key}\n"


GOOD_SPEC = {"label": "g", "jobs": 3, "hosts": 2, "horizon": 4, "slack": "1/3"}


def _batch_with(spec=None, **config):
    return {"seed": 0, "gen": [{**GOOD_SPEC, **(spec or {})}], "solvers": ["laminar"], **config}


@pytest.mark.parametrize(
    "config, field",
    [
        (_batch_with({"jobs": 2.5}), "jobs"),
        (_batch_with({"jobs": "3"}), "jobs"),
        (_batch_with({"count": 2.5}), "count"),
        (_batch_with({"laminar": "no"}), "laminar"),
        (_batch_with({"dim": True}), "dim"),
        (_batch_with(minr={"max_retries": 2.7}), "max_retries"),
        ({"gen": [{"hosts": 2, "horizon": 4}]}, "jobs"),
        (_batch_with(oracle={"max_jobs": "3"}), "'max_jobs'"),
        (_batch_with(oracle={"max_jobs": 2.5}), "'max_jobs'"),
        (_batch_with(solvers=[["laminar"]]), "'solvers[0]'"),
        (_batch_with({"count": -3}), "count"),
        (_batch_with({"label": "TMP/escaped"}), "label"),
        (_batch_with({"label": "../x"}), "label"),
        ({**_batch_with(), "gen": [GOOD_SPEC, GOOD_SPEC]}, "label"),
        (_batch_with(lam="x/y"), "'lam'"),
        (_batch_with(minr={"c": "x/y"}), "'c'"),
    ],
    ids=["jobs-float", "jobs-string", "count-float", "laminar-string", "dim-bool",
         "max-retries-float", "jobs-missing", "oracle-string", "oracle-float",
         "solvers-nested", "count-negative", "label-absolute", "label-parent",
         "label-repeated", "lam-not-rational", "c-not-rational"],
)
def test_malformed_batch_config_is_a_clean_error(tmp_path, capsys, config, field):
    cfg = tmp_path / "config.json"
    # "TMP" stands for tmp_path: an absolute label outside --out-dir
    cfg.write_text(json.dumps(config).replace("TMP", str(tmp_path)))
    out_dir = tmp_path / "b"
    code, out, err = run(capsys, "batch", str(cfg), "--out-dir", str(out_dir))
    assert code == 1
    assert err.startswith("error:") and field in err
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert out == ""
    written = [p for p in tmp_path.rglob("*") if p.is_file() and out_dir not in p.parents]
    assert written == [cfg]


@pytest.mark.parametrize(
    "text, detail",
    [('{"seed": ', "Expecting value: line 1 column 10 (char 9)"),
     ('{"seed": 0, "seed": 1, "solvers": []}', "repeated key 'seed'")],
    ids=["truncated", "repeated-key"],
)
def test_batch_config_that_does_not_parse_names_its_file(tmp_path, capsys, text, detail):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    code, out, err = run(capsys, "batch", str(cfg), "--out-dir", str(tmp_path / "b"))
    assert code == 1 and out == ""
    assert err == f"error: {cfg}: {detail}\n"
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [cfg]


def test_batch_rejects_a_negative_oracle_limit(tmp_path, capsys):
    # a negative limit would turn every oracle lookup into LimitExceeded
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_batch_with(oracle={"max_jobs": -1})))
    code, out, err = run(capsys, "batch", str(cfg), "--out-dir", str(tmp_path / "b"))
    assert code == 1
    assert err.startswith("error:") and "max_jobs" in err
    assert err.count("\n") == 1
    assert out == ""
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [cfg]


def test_solve_maxt_logn_searches_past_the_recursion_limit(tmp_path, capsys):
    # 1,050 unit jobs for two slots on one host: one height class, one search
    jobs = [
        Job(id=i, release=1, due=2, length=1, demand=(Fraction(1),), weight=Fraction(1, 2**i))
        for i in range(1, 1051)
    ]
    path = tmp_path / "deep.json"
    path.write_text(dumps_canonical(instance_to_json(Instance(hosts=1, dim=1, jobs=jobs))))
    code, out, err = run(capsys, "solve-maxt", str(path), "--solver", "logn")
    assert code == 0, err
    assert json.loads(out)["profit"] == "3/4"
