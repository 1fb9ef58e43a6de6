"""The benchmark scripts still run against the package.

The scripts under perfbench/ are frozen against the package's API. Their
imports are read with `ast`, and the traced replays of `solve`, `baseline`
and `tune` run at toy size beside the CLI, so that deleting or renaming a
name they use, or changing a call they make, fails here, in the test suite,
and not only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from coarsevrp.cli import main
from coarsevrp.graph import Graph
from coarsevrp.instances import write_solomon

import gen

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.joinpath("perfbench").glob("*.py"))


def _imports(path):
    """(module, name) for each `from coarsevrp... import name`, and
    (module, None) for each `import coarsevrp...`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "coarsevrp":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "coarsevrp")


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: str(p.relative_to(ROOT)))
def test_benchmark_imports_resolve(path):
    for module, name in _imports(path):
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")     # a submodule, or ImportError


def test_the_guard_sees_the_benchmark_imports():
    found = {pair for path in SCRIPTS for pair in _imports(path)}
    assert ("coarsevrp.graph", "Graph") in found
    assert ("coarsevrp", "cli") in found


def _load_script(name, monkeypatch):
    """perfbench/<name>.py as a module, without putting perfbench/ on sys.path
    (its gen.py would shadow the tests' own)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # dataclasses look it up here
    spec.loader.exec_module(module)
    return module


def test_benchmark_replays_write_what_the_cli_writes(tmp_path, capsys, monkeypatch):
    # the benchmark checks its traced replays against the CLI this way only in
    # traced runs; a replay that no longer runs against the package fails here
    replay, checks = (_load_script(name, monkeypatch) for name in ("replay", "checks"))
    inst = gen.random_instance(61, 24, family="mixed", name="toy24")
    path = tmp_path / "toy24.txt"
    path.write_text(write_solomon(inst), encoding="utf-8")
    graph = Graph.from_instance(inst)
    tr = replay.Tracer()
    heavy = {"alpha": 0.9, "beta": 0.1, "p": 0.3, "radius": 4.0}

    def cli(*argv):
        assert main([str(a) for a in argv]) == 0
        return checks.printed_scores(capsys.readouterr().out)[-1]

    score = cli("solve", path, *(f"--{k}={v!r}" for k, v in heavy.items()), "--seed", 3,
                "-o", tmp_path / "solve.json")
    replay.solve(tr, path, tmp_path / "replay-solve.json", **heavy, solver="savings",
                 propagation="relaxed", seed=3)
    assert tr.pipelines[0].coarse_n < tr.pipelines[0].n0       # the toy coarsens
    score_b = cli("baseline", path, "--solver", "greedy", "--seed", 3,
                  "-o", tmp_path / "baseline.json")
    replay.baseline(tr, path, tmp_path / "replay-baseline.json", solver="greedy", seed=3)
    for name, printed in (("solve", score), ("baseline", score_b)):
        assert checks.check_document(tmp_path / f"{name}.json", inst, graph, printed)[0] == []
        assert checks.without_timings_doc(tmp_path / f"replay-{name}.json") == \
            checks.without_timings_doc(tmp_path / f"{name}.json")

    run, replayed = tmp_path / "run", tmp_path / "replay-run"
    cli("tune", path, "--trials", 4, "--seed", 42, "--jobs", 1, "--out-dir", run)
    replay.tune(tr, path, replayed, trials=4, seed=42, jobs=1)
    replay.serial_trials(tr, path, tmp_path / "serial.csv", trials=4, seed=42)

    def rows(csv_path):
        problems, found = checks.check_trial_rows(csv_path)
        assert problems == []
        return checks.without_timings_rows(found)

    assert rows(replayed / "trials.csv") == rows(tmp_path / "serial.csv") == \
        rows(run / "trials.csv")
    assert rows(replayed / "baselines.csv") == rows(run / "baselines.csv")
    assert checks.without_timings_doc(replayed / "best_solution.json") == \
        checks.without_timings_doc(run / "best_solution.json")
