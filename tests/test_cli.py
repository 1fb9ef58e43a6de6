import argparse
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from itertools import product
from pathlib import Path
from xml.dom import minidom

import pytest

import coarsevrp
from coarsevrp.cli import build_parser, main
from coarsevrp.coarsening import CoarseningParams
from coarsevrp.instances import (build_solution_document, load_instance, read_solution,
                                 write_solomon)
from coarsevrp.report import REFERENCE_IMPROVEMENTS
from coarsevrp.tuning import SearchSpace, run_pipeline

import gen


@pytest.fixture
def instance_file(tmp_path):
    inst = gen.random_instance(55, 20, family="clustered", name="cli20")
    path = tmp_path / "cli20.txt"
    path.write_text(write_solomon(inst))
    return path


def test_solve_writes_document(tmp_path, instance_file, capsys):
    out = tmp_path / "sol.json"
    rc = main(["solve", str(instance_file), "--alpha", "0.5", "--beta", "0.5",
               "--p", "0.5", "--radius", "1.5", "--solver", "savings",
               "-o", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "distance=" in printed and "vehicles=" in printed
    doc = read_solution(out)
    assert doc["instance"] == "cli20"
    assert doc["params"]["solver"] == "savings"
    assert doc["params"]["p"] == 0.5
    stops = [s["node_id"] for r in doc["routes"] for s in r["stops"] if s["node_id"] != 0]
    assert sorted(stops) == list(range(1, 21))


class ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_solve_writes_its_document_before_printing_to_a_closed_pipe(
        tmp_path, instance_file, monkeypatch, capsys):
    out = tmp_path / "sol.json"
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["solve", str(instance_file), "-o", str(out)]) == 3
    assert "Broken pipe" in capsys.readouterr().err
    doc = read_solution(out)
    stops = [s["node_id"] for r in doc["routes"] for s in r["stops"] if s["node_id"] != 0]
    assert sorted(stops) == list(range(1, 21))


def test_solve_document_is_one_line_of_sorted_ascii_json(tmp_path):
    path, out = tmp_path / "inst.txt", tmp_path / "sol.json"
    path.write_text(write_solomon(gen.random_instance(55, 20, name="Café n°20")),
                    encoding="utf-8")
    assert main(["solve", str(path), "-o", str(out)]) == 0
    raw = out.read_bytes()
    assert raw.isascii()
    text = raw.decode()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    assert json.loads(text)["instance"] == "Café n°20"


def test_solve_missing_file_is_io_error(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "nope.txt")])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_solve_bad_instance_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("junk\nwith no sections\n")
    rc = main(["solve", str(bad)])
    assert rc == 2


@pytest.mark.parametrize("command", ["solve", "baseline"])
def test_overflowing_instance_is_validation_error(tmp_path, capsys, command):
    # every number is finite, but the distance between customers 1 and 2 is not
    path = tmp_path / "overflow.txt"
    path.write_text("OVERFLOW\n\nVEHICLE\nNUMBER CAPACITY\n25 100\n\nCUSTOMER\n"
                    "0 0 0 0 0 1e300 0\n1 1e308 0 10 0 1e300 0\n"
                    "2 -1e308 0 10 0 1e300 0\n3 5 5 10 0 100 0\n")
    out = tmp_path / "out.json"
    assert main([command, str(path), "-o", str(out)]) == 2
    assert "too large" in capsys.readouterr().err
    assert not out.exists()


def test_solve_non_integer_vehicle_count_is_validation_error(tmp_path, instance_file, capsys):
    lines = instance_file.read_text().splitlines()
    fleet = lines.index("VEHICLE") + 2                 # the NUMBER/CAPACITY row
    lines[fleet] = "  2.5   " + lines[fleet].split()[1]
    bad = tmp_path / "fleet.txt"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["solve", str(bad), "-o", str(tmp_path / "out.json")])
    assert rc == 2
    assert "vehicle count" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["solve", "baseline"])
@pytest.mark.parametrize("token", ["nan", "inf", "1.9"])
def test_poisoned_instance_is_validation_error(tmp_path, instance_file, capsys,
                                               command, token):
    lines = instance_file.read_text().splitlines()
    first = next(k for k, ln in enumerate(lines) if ln.split()[:1] == ["1"])
    cols = lines[first].split()
    if token == "1.9":
        cols[0] = token                  # non-integer customer id
    else:
        cols[1] = token                  # x coordinate
    lines[first] = "   ".join(cols)
    bad = tmp_path / "poisoned.txt"
    bad.write_text("\n".join(lines) + "\n")
    rc = main([command, str(bad), "-o", str(tmp_path / "out.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["solve", "baseline", "tune"])
def test_short_customer_row_is_validation_error(tmp_path, instance_file, capsys, command):
    lines = instance_file.read_text().rstrip("\n").splitlines()
    lines[-1] = "   ".join(lines[-1].split()[:6])    # the last customer loses a column
    bad = tmp_path / "short.txt"
    bad.write_text("\n".join(lines) + "\n")
    out = ["--out-dir", str(tmp_path / "run")] if command == "tune" else \
        ["-o", str(tmp_path / "out.json")]
    rc = main([command, str(bad), *out])
    assert rc == 2
    assert "expected 7" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists() and not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["solve", "baseline"])
def test_malformed_last_customer_row_is_validation_error(tmp_path, instance_file, capsys,
                                                         command):
    # a last row that fails to parse once read as a header, and the file
    # loaded as one customer short, with no gap in the ids
    lines = instance_file.read_text().rstrip("\n").splitlines()
    cols = lines[-1].split()
    cols[1] = "18x"                                   # the x coordinate
    lines[-1] = "   ".join(cols)
    bad = tmp_path / "malformed.txt"
    bad.write_text("\n".join(lines) + "\n")
    rc = main([command, str(bad), "-o", str(tmp_path / "out.json")])
    assert rc == 2
    assert "non-number" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("flags", [["--alpha", "nan"], ["--beta", "nan"],
                                   ["--radius", "nan"], ["--alpha", "inf"],
                                   ["--radius", "inf"]])
def test_solve_rejects_non_finite_weights(tmp_path, instance_file, capsys, flags):
    rc = main(["solve", str(instance_file), *flags, "-o", str(tmp_path / "out.json")])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("flags", [
    ["--trials", "0"], ["--jobs", "0"], ["--jobs", "-3"],
    ["--alphas=-1,0.5", "--trials", "3"], ["--ps", "0.5,7", "--trials", "1"],
    ["--alphas", "nan"], ["--betas", "0.5,nan"], ["--radius-coeffs", "1,inf"],
    ["--alphas", "0,0.5", "--betas", "0,0.5"],       # a draw may pair 0 with 0
    ["--solvers", "greedy,exact"]])
def test_tune_rejects_bad_input_before_any_trial(tmp_path, instance_file, capsys, flags):
    rc = main(["tune", str(instance_file), *flags, "--out-dir", str(tmp_path / "run")])
    assert rc == 2
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_solve_warns_on_stderr_when_coarsening_stalls(tmp_path, instance_file, capsys):
    # radius 0 proposes no merge, so the first round stalls at 20 of 20 nodes
    out = tmp_path / "sol.json"
    assert main(["solve", str(instance_file), "--p", "0.5", "--radius", "0",
                 "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: coarsening stalled at 20 nodes (started with 20, target 10)\n"
    assert captured.out.splitlines()[1] == f"wrote {out}"
    assert read_solution(out)["params"]["radius_coeff"] == 0.0


def test_solve_is_silent_on_stderr_when_coarsening_reaches_its_target(
        tmp_path, instance_file, capsys):
    # one round of 9 merges takes the 20 nodes to 11 <= 0.9 * 20
    argv = ["solve", str(instance_file), "--p", "0.9", "--radius", "4",
            "-o", str(tmp_path / "sol.json")]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "distance=" in captured.out


def test_solve_p_one_matches_baseline(tmp_path, instance_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", str(instance_file), "--p", "1.0",
                 "--solver", "greedy", "-o", str(a)]) == 0
    assert main(["baseline", str(instance_file), "--solver", "greedy",
                 "-o", str(b)]) == 0
    da, db = read_solution(a), read_solution(b)
    assert da["routes"] == db["routes"]
    assert da["metrics"] == db["metrics"]


def test_baseline_default_names_differ_by_solver(tmp_path, instance_file, monkeypatch, capsys):
    # without --out each solver's baseline gets its own file, so one does not
    # overwrite the other
    monkeypatch.chdir(tmp_path)
    for solver in ("savings", "greedy"):
        assert main(["baseline", str(instance_file), "--solver", solver]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"wrote cli20.{solver}.baseline.json"
    for solver in ("savings", "greedy"):
        doc = read_solution(tmp_path / f"cli20.{solver}.baseline.json")
        assert doc["params"]["solver"] == solver


def test_plot_after_solve(tmp_path, instance_file):
    sol = tmp_path / "sol.json"
    svg = tmp_path / "sol.svg"
    assert main(["solve", str(instance_file), "-o", str(sol)]) == 0
    assert main(["plot", str(sol), "-o", str(svg)]) == 0
    body = svg.read_text()
    doc = read_solution(sol)
    assert body.count("<polyline") == len(doc["routes"])
    assert "<rect" in body                     # depot marker
    assert 'transform="translate(' in body     # declared affine transform
    # raw instance coordinates preserved inside the transformed group
    first = doc["routes"][0]["stops"][1]["node_id"]
    x = doc["nodes"][str(first)]["x"]
    y = doc["nodes"][str(first)]["y"]
    assert f"{x},{y}" in body
    # legend: one distance entry per route
    assert body.count("vehicle ") == len(doc["routes"])


def test_plot_rejects_document_without_nodes(tmp_path, instance_file, capsys):
    sol = tmp_path / "sol.json"
    assert main(["solve", str(instance_file), "-o", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    del doc["nodes"]
    sol.write_text(json.dumps(doc))
    assert main(["plot", str(sol)]) == 2


def test_plot_rejects_non_finite_coordinates(tmp_path, instance_file, capsys):
    sol = tmp_path / "sol.json"
    assert main(["solve", str(instance_file), "-o", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    doc["nodes"]["1"]["x"] = float("nan")            # json writes NaN, and reads it back
    sol.write_text(json.dumps(doc))
    svg = tmp_path / "nan.svg"
    assert main(["plot", str(sol), "-o", str(svg)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not svg.exists()


def test_plot_escapes_the_instance_title(tmp_path, instance_file):
    sol = tmp_path / "sol.json"
    assert main(["solve", str(instance_file), "-o", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    doc["instance"] = "A&B <x>"                  # the Solomon title line is free text
    sol.write_text(json.dumps(doc))
    svg = tmp_path / "title.svg"
    assert main(["plot", str(sol), "-o", str(svg)]) == 0
    title = minidom.parse(str(svg)).getElementsByTagName("text")[0]
    assert title.firstChild.data.startswith("A&B <x> — ")


def test_plot_empty_solution(tmp_path, instance_file):
    sol = tmp_path / "sol.json"
    assert main(["solve", str(instance_file), "-o", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    doc["routes"] = []
    sol.write_text(json.dumps(doc))
    svg = tmp_path / "empty.svg"
    assert main(["plot", str(sol), "-o", str(svg)]) == 0
    body = svg.read_text()
    assert "<polyline" not in body and "<rect" in body


@pytest.mark.parametrize("routes", [5, [5], [{"stops": [7]}], [{"stops": [{"node_id": None}]}]])
def test_plot_rejects_malformed_routes(tmp_path, instance_file, capsys, routes):
    sol = tmp_path / "sol.json"
    assert main(["solve", str(instance_file), "-o", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    doc["routes"] = routes
    sol.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["plot", str(sol), "-o", str(tmp_path / "sol.svg")]) == 2
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "sol.svg").exists()


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_tune_outputs(tmp_path, instance_file, capsys):
    out_dir = tmp_path / "run"
    rc = main(["tune", str(instance_file), "--trials", "5", "--seed", "42",
               "--out-dir", str(out_dir)])
    assert rc == 0
    trials = _read_rows(out_dir / "trials.csv")
    baselines = _read_rows(out_dir / "baselines.csv")
    assert len(trials) == 5
    assert [r["trial"] for r in trials] == ["0", "1", "2", "3", "4"]
    assert {r["solver"] for r in baselines} == {"greedy", "savings"}
    best = read_solution(out_dir / "best_solution.json")
    assert best["seed"] == 42
    printed = capsys.readouterr().out
    assert "best trial" in printed


def test_tune_deterministic_modulo_timings(tmp_path, instance_file):
    timing_cols = ("coarsen_ms", "solve_ms", "inflate_ms")
    rows = []
    for d in ("r1", "r2"):
        out_dir = tmp_path / d
        assert main(["tune", str(instance_file), "--trials", "4",
                     "--seed", "42", "--out-dir", str(out_dir)]) == 0
        rws = _read_rows(out_dir / "trials.csv")
        rows.append([{k: v for k, v in r.items() if k not in timing_cols}
                     for r in rws])
    assert rows[0] == rows[1]


def _tune_outputs(out_dir: Path):
    """(trials.csv and baselines.csv rows, best_solution.json), without timings."""
    timing_cols = ("coarsen_ms", "solve_ms", "inflate_ms")
    tables = [[{k: v for k, v in row.items() if k not in timing_cols}
               for row in _read_rows(out_dir / name)]
              for name in ("trials.csv", "baselines.csv")]
    doc = read_solution(out_dir / "best_solution.json")
    del doc["timings"]
    return tables, doc


def test_tune_output_is_the_same_for_any_jobs(tmp_path, instance_file):
    # with one trial the pool has more baselines than trials
    outputs = {}
    for trials, jobs in product(("6", "1"), ("1", "2")):
        out_dir = tmp_path / f"trials{trials}_jobs{jobs}"
        assert main(["tune", str(instance_file), "--trials", trials, "--seed", "7",
                     "--jobs", jobs, "--out-dir", str(out_dir)]) == 0
        outputs[trials, jobs] = _tune_outputs(out_dir)
    assert outputs["6", "1"] == outputs["6", "2"]
    assert outputs["1", "1"] == outputs["1", "2"]
    # the best trial's document equals one rebuilt by running its parameters again
    (trials, _), doc = outputs["6", "1"]
    best = min(trials, key=lambda row: (float(row["score"]), int(row["trial"])))
    params = CoarseningParams(alpha=float(best["alpha"]), beta=float(best["beta"]),
                              p_target=float(best["p"]),
                              radius_coeff=float(best["radius_coeff"]),
                              propagation=best["propagation"])
    instance = load_instance(instance_file)
    out = run_pipeline(instance, params, best["solver"])
    rebuilt = build_solution_document(out.solution, instance, out.metrics,
                                      {**doc["params"]}, seed=7)
    del rebuilt["timings"]
    assert json.loads(json.dumps(rebuilt)) == doc


def test_tune_config_file_and_overrides(tmp_path, instance_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alphas": [0.9], "betas": [0.1],
                               "ps": [0.5], "radius_coeffs": [1.0],
                               "solvers": ["greedy"]}))
    out_dir = tmp_path / "cfgrun"
    assert main(["tune", str(instance_file), "--trials", "3", "--seed", "1",
                 "--config", str(cfg), "--ps", "0.3",
                 "--out-dir", str(out_dir)]) == 0
    trials = _read_rows(out_dir / "trials.csv")
    assert all(r["alpha"] == "0.9" for r in trials)
    assert all(r["p"] == "0.3" for r in trials)          # flag beat the config
    assert all(r["solver"] == "greedy" for r in trials)


def test_parser_defaults_come_from_coarsening_params_and_search_space():
    parser = build_parser()
    args = parser.parse_args(["solve", "x.txt"])
    assert CoarseningParams(alpha=args.alpha, beta=args.beta, p_target=args.p,
                            radius_coeff=args.radius,
                            propagation=args.propagation) == CoarseningParams()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    overrides = [a for a in sub.choices["tune"]._actions
                 if a.help == "comma-separated override"]
    assert [(a.dest, a.option_strings) for a in overrides] == [
        (name, ["--" + name.replace("_", "-")]) for name in SearchSpace.__slots__]


def test_tune_bad_config_is_validation_error(tmp_path, instance_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{broken")
    rc = main(["tune", str(instance_file), "--trials", "2",
               "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("cfg,flags,message", [
    ({"alphas": 0.5}, [], "alphas must be a non-empty list"),
    ({"alphas": []}, [], "alphas must be a non-empty list"),
    ({"solvers": "greedy"}, [], "solvers must be a non-empty list"),
    ({}, ["--alphas", ""], "alphas must be a non-empty list"),
    ({"betas": [None]}, [], "betas: "),
    ({"alpha": [0.9], "solver": ["greedy"], "ps": [0.5]}, [],
     "unknown config keys: alpha, solver "),
    # a config value is a JSON number, not a boolean or a string, or a
    # string for solvers
    ({"alphas": [True], "ps": [True], "solvers": ["greedy"]}, [], "alphas: "),
    ({"ps": [False]}, [], "ps: "),
    ({"radius_coeffs": ["1.0"]}, [], "radius_coeffs: "),
    ({"solvers": [1]}, [], "solvers: "),
    ({"solvers": [True]}, [], "solvers: "),
    ({"betas": [10 ** 400]}, [], "betas: ")])
def test_tune_space_field_must_be_a_non_empty_list(tmp_path, instance_file, capsys,
                                                   cfg, flags, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["tune", str(instance_file), "--trials", "2", "--config", str(path), *flags,
               "--out-dir", str(tmp_path / "x")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_report_table(tmp_path, instance_file, capsys):
    out_dir = tmp_path / "run"
    assert main(["tune", str(instance_file), "--trials", "4", "--seed", "7",
                 "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    report_csv = tmp_path / "table.csv"
    rc = main(["report", str(out_dir), "-o", str(report_csv)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "dist%" in printed and "ref dist%" in printed
    rows = _read_rows(report_csv)
    assert {r["solver"] for r in rows} <= {"greedy", "savings"}
    for r in rows:
        assert float(r["baseline_distance"]) > 0


def test_report_includes_reference_for_known_names(tmp_path, capsys):
    # fabricate a minimal run dir whose instance name matches a reference row
    from coarsevrp.instances import TRIAL_FIELDS, write_trials_csv
    run = tmp_path / "synthrun"
    run.mkdir()
    base = {k: "" for k in TRIAL_FIELDS}
    base.update(instance="synth_C101", seed=1, total_distance=1000.0,
                num_vehicles=10, total_duration=2000.0, tw_violations=0,
                capacity_violations=0, feasible=True, score=11000.0,
                coarsen_ms=0, solve_ms=1, inflate_ms=0)
    trial = dict(base)
    trial.update(trial=0, alpha=0.5, beta=0.5, p=0.5, radius_coeff=1.0,
                 propagation="relaxed", solver="savings", total_distance=800.0,
                 num_vehicles=8, total_duration=1500.0, score=8800.0)
    baseline = dict(base)
    baseline.update(trial=-1, solver="savings")
    write_trials_csv(run / "trials.csv", [trial])
    write_trials_csv(run / "baselines.csv", [baseline])
    assert main(["report", str(run)]) == 0
    printed = capsys.readouterr().out
    ref = REFERENCE_IMPROVEMENTS["C101"]
    assert f"{ref[0]:.2f}" in printed
    assert "20.00" in printed                  # achieved distance improvement


@pytest.mark.parametrize("header,cells,message", [
    ("instance,trial,solver,total_distance,num_vehicles,total_duration,tw_violations",
     "100.0,2,300.0,0", "missing columns score"),
    ("instance,trial,solver,score,total_distance,num_vehicles,total_duration,tw_violations",
     "1100.0,100.0,2", "fewer cells than the header")], ids=["no score column", "short row"])
def test_report_rejects_malformed_trial_csv(tmp_path, capsys, header, cells, message):
    run = tmp_path / "run"
    run.mkdir()
    for name, trial in (("trials.csv", "0"), ("baselines.csv", "-1")):
        (run / name).write_text(f"{header}\ncli20,{trial},savings,{cells}\n")
    assert main(["report", str(run)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name,column,value", [
    ("trials.csv", "score", "nan"), ("trials.csv", "total_distance", "nan"),
    ("trials.csv", "trial", "inf"), ("baselines.csv", "total_duration", "-inf"),
    ("baselines.csv", "tw_violations", "nan")])
def test_report_rejects_non_finite_numbers(tmp_path, capsys, name, column, value):
    header = ["instance", "trial", "solver", "score", "total_distance", "num_vehicles",
              "total_duration", "tw_violations"]
    run = tmp_path / "run"
    run.mkdir()
    for csv_name, trials in (("trials.csv", ("0", "1")), ("baselines.csv", ("-1",))):
        rows = [dict(zip(header, ["cli20", t, "savings", "1100.0", "100.0", "2", "300.0",
                                  "0"])) for t in trials]
        if csv_name == name:
            rows[-1][column] = value   # a NaN score would otherwise win the report
        lines = [",".join(header), *(",".join(row.values()) for row in rows)]
        (run / csv_name).write_text("\n".join(lines) + "\n")
    assert main(["report", str(run)]) == 2
    assert f"{column} is not a finite number" in capsys.readouterr().err


def _child_env() -> dict:
    """The environment of a child interpreter that imports the same copy of
    the package as this test."""
    src = str(Path(coarsevrp.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_script_entry_point(tmp_path, instance_file):
    out = tmp_path / "s.json"
    proc = subprocess.run([sys.executable, "-m", "coarsevrp.cli", "solve",
                           str(instance_file), "-o", str(out)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_tune_jobs_under_forkserver_equals_serial(tmp_path, instance_file):
    # forkserver workers inherit nothing from the parent's memory, so the
    # instance must reach them through the pool itself; it is Linux's
    # default start method from Python 3.14
    code = ("import multiprocessing, sys; multiprocessing.set_start_method('forkserver'); "
            "from coarsevrp.cli import build_parser, main; sys.exit(main(sys.argv[1:]))")
    argv = ["tune", str(instance_file), "--trials", "4", "--seed", "5"]
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--jobs", "2",
                           "--out-dir", str(tmp_path / "forkserver")],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert main([*argv, "--jobs", "1", "--out-dir", str(tmp_path / "serial")]) == 0
    assert _tune_outputs(tmp_path / "forkserver") == _tune_outputs(tmp_path / "serial")


def _child_cli(argv, *flags, env=None):
    """`coarsevrp argv` in a child interpreter started with `flags`."""
    code = "import sys; from coarsevrp.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, *flags, "-c", code, *map(str, argv)],
                          capture_output=True, text=True, env=env or _child_env(),
                          timeout=120)


def test_every_command_reads_and_writes_utf8(tmp_path, instance_file):
    # a file opened in the locale's encoding raises EncodingWarning here
    config = tmp_path / "space.json"
    config.write_text('{"alphas": [0.5], "solvers": ["greedy"]}', encoding="utf-8")
    for argv in (["solve", instance_file, "-o", tmp_path / "s.json"],
                 ["baseline", instance_file, "-o", tmp_path / "b.json"],
                 ["tune", instance_file, "--trials", "2", "--config", config,
                  "--out-dir", tmp_path / "run"],
                 ["report", tmp_path / "run", "-o", tmp_path / "report.csv"],
                 ["plot", tmp_path / "s.json", "-o", tmp_path / "s.svg"]):
        proc = _child_cli(argv, "-X", "warn_default_encoding", "-W", "error::EncodingWarning")
        assert proc.returncode == 0, (argv[0], proc.stderr)


def test_plot_writes_utf8_under_an_ascii_locale(tmp_path, instance_file):
    doc, svg = tmp_path / "s.json", tmp_path / "s.svg"
    assert main(["solve", str(instance_file), "-o", str(doc)]) == 0
    env = {**_child_env(), "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = _child_cli(["plot", doc, "-o", svg], env=env)
    assert proc.returncode == 0, proc.stderr
    assert "—" in svg.read_bytes().decode("utf-8")      # the title's em dash


def test_report_writes_its_csv_under_an_ascii_locale(tmp_path, instance_file):
    # cli20 has no reference row, so the table holds placeholders
    run, table = tmp_path / "run", tmp_path / "r.csv"
    assert main(["tune", str(instance_file), "--trials", "2", "--out-dir", str(run)]) == 0
    env = {**_child_env(), "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = _child_cli(["report", run, "-o", table], env=env)
    assert proc.returncode == 0, proc.stderr
    assert table.exists()


def test_commands_import_only_what_they_run(tmp_path, instance_file):
    # in a fresh interpreter, each entry of `loaded` lists the modules that
    # importing the CLI and running the commands so far added to sys.modules
    code = ("import json, sys; before = set(sys.modules); from coarsevrp.cli import main\n"
            "loaded = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "    loaded.append(sorted(set(sys.modules) - before))\n"
            "print(json.dumps(loaded))")
    runs = [["solve", instance_file, "-o", tmp_path / "s.json"],
            ["baseline", instance_file, "-o", tmp_path / "b.json"],
            ["tune", instance_file, "--trials", "2", "--jobs", "1",
             "--out-dir", tmp_path / "run"]]
    proc = subprocess.run([sys.executable, "-c", code,
                           json.dumps([[str(a) for a in argv] for argv in runs])],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    solve, baseline, tune = json.loads(proc.stdout.splitlines()[-1])
    pool = {"concurrent.futures", "multiprocessing"}
    deferred = pool | {"csv", "coarsevrp.plotting", "coarsevrp.report"}
    assert "coarsevrp.tuning" in solve and "csv" in tune      # loads are seen
    assert deferred.isdisjoint(solve) and deferred.isdisjoint(baseline)
    assert pool.isdisjoint(tune)
    # the records are plain __slots__ classes: no command loads dataclasses
    for loaded in (solve, baseline, tune):
        assert {"dataclasses", "inspect"}.isdisjoint(loaded)


# sha256 of every file the CLI writes, and of what it prints, on two fixed
# instances; timings are zeroed in documents and cut from the CSVs (their
# last three columns), paths are replaced by "<tmp>"
WRITTEN_DIGESTS = {
    "baseline_greedy":
        "77afe1826a8c17e6ff033bf092968da432544b1947d199f927895c847b485649",
    "baseline_greedy stdout":
        "6e76d988651bbfea1f516820754dd6b3cc1a5b7af2dcc578c500fc7f54febec6",
    "baseline_savings":
        "60aad0c0d2ae5fe3b524b168c3aab2ebd8c27e6e55a3cb7e5c730a5dd84c4b5b",
    "baseline_savings stdout":
        "406a85fe6ac3aa290d7148e3421edcb4928bacaa02465c3d6e73efe53710124f",
    "plot stdout":
        "05559f637c9d4a4f00b7d3af07b59807555a1252ee47f80f318300fb9d0cb8d4",
    "plot.svg":
        "6380958505c8b2abd60386254720035ba1af83ce0df45b9ae57f9b28cd114002",
    "report stdout":
        "0fb566cd54a2f1b25d4d0daad508863cd74abec6e5446578e5c4cdf32e68e17f",
    "report.csv":
        "d138b80fee98a86ec9051960a0a3c835e4ebead8f017d2e652c2fc395b3a6ce4",
    "solve_conservative":
        "667c279c5c3a7164e2b92eaf50cbce38155d910462400ffb5f0a294c15db4020",
    "solve_conservative stdout":
        "20c5eb2cdc78ed31fc61ea6571293c8f843cd447d76648a5f8dcbfd71715dd12",
    "solve_defaults":
        "98b88e96ad61625d310d479820295d3edec171c9b3b880d07c2684411f05a160",
    "solve_defaults stdout":
        "bc46653c667f7b7c90b4a84e31e81de1c445234f2de43a6c9c4e78cd5a055cd6",
    "solve_t6":
        "323f7aa6f1723f2b0bbfdc8f96e1513f6bc96774ff4ce798a078e7eae82df816",
    "solve_t6 stdout":
        "98f5d8a132977736c70e6b16ae8a172eaf6bbac284cfbf724f237c9f5e1b1856",
    "tune cli20 baselines.csv":
        "4b2e65a4a41bdf7127fa4b6473f6d75891be454b2464e44fc19309719197c754",
    "tune cli20 best_solution.json":
        "30db7f726647cddf609fc9c52fd7ce7c486bf856093edc13a1782e7f61c6e2e2",
    "tune cli20 stdout":
        "e6fbbf0a26066dae134f692bd0d0b46319b0cecfd2f9786d4dd16c726a239167",
    "tune cli20 trials.csv":
        "ee16510550cf55650ebf3b7ab1512e7495ea831b0aac4828fe43c9bdb4b2a82c",
    "tune synth_C101 baselines.csv":
        "91ee4a79bf1fc2c878cc9d9fcf180b6d72662dbea566751b44f02f3857d9c770",
    "tune synth_C101 best_solution.json":
        "55e4068bab4e30bfba0afcf09130944fe3107237d23e82fcd13d70289bb2eafb",
    "tune synth_C101 stdout":
        "4a6e0d6ceecfc075674db5f0e4ea8dfbff244cae5192670405370c7b7ce14e86",
    "tune synth_C101 trials.csv":
        "85db8c028188cd947aa1745c4896abe21159cbf49ce41c818f2d30273fef6bc1",
}

_TIMING_VALUE = re.compile(r'("(?:coarsen|solve|inflate)_ms": )[^,}\n]+')


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_written_files_are_pinned(tmp_path, capsys):
    paths = {}
    for name, inst in (("cli20", gen.random_instance(55, 20, family="clustered", name="cli20")),
                       ("synth_C101", gen.random_instance(8, 25, family="mixed",
                                                          name="synth_C101"))):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(write_solomon(inst))
    runs = {
        "solve_defaults": ["solve", paths["cli20"]],
        "solve_t6": ["solve", paths["cli20"], "--alpha", "0.9", "--beta", "0.1",
                     "--p", "0.3", "--radius", "4"],
        "solve_conservative": ["solve", paths["synth_C101"], "--alpha", "0.9",
                               "--beta", "0.1", "--p", "0.3", "--radius", "4",
                               "--propagation", "conservative"],
        "baseline_greedy": ["baseline", paths["cli20"], "--solver", "greedy"],
        "baseline_savings": ["baseline", paths["cli20"], "--solver", "savings"],
    }
    digests = {}

    def record(key, argv):
        assert main([str(a) for a in argv]) == 0
        digests[f"{key} stdout"] = _sha(capsys.readouterr().out.replace(str(tmp_path), "<tmp>"))

    for key, argv in runs.items():
        out = tmp_path / f"{key}.json"
        record(key, [*argv, "-o", out])
        digests[key] = _sha(_TIMING_VALUE.sub(r"\g<1>0", out.read_text()))
    for name in paths:
        run = tmp_path / f"run_{name}"
        record(f"tune {name}", ["tune", paths[name], "--trials", "4", "--seed", "3",
                                "--jobs", "1", "--out-dir", run])
        for csv_name in ("trials.csv", "baselines.csv"):
            rows = run.joinpath(csv_name).read_bytes().decode().splitlines()
            digests[f"tune {name} {csv_name}"] = _sha(
                "\n".join(row.rsplit(",", 3)[0] for row in rows))
        digests[f"tune {name} best_solution.json"] = _sha(
            _TIMING_VALUE.sub(r"\g<1>0", run.joinpath("best_solution.json").read_text()))
    record("report", ["report", tmp_path / "run_cli20", tmp_path / "run_synth_C101",
                      "-o", tmp_path / "report.csv"])
    digests["report.csv"] = _sha((tmp_path / "report.csv").read_bytes().decode())
    record("plot", ["plot", tmp_path / "solve_defaults.json", "-o", tmp_path / "plot.svg"])
    digests["plot.svg"] = _sha((tmp_path / "plot.svg").read_text())
    assert digests == WRITTEN_DIGESTS
