"""In-memory spans and traced replays of the CLI's `solve`, `baseline` and
`tune` paths.

Each replay calls the same public functions, in the same order, as the CLI
command it mirrors (`coarsevrp.cli.cmd_*` and the `coarsevrp.tuning`
runners they use), with a span around every call. Nothing inside the
program is instrumented. A replay writes the same files as its CLI command,
so run.py can check that it did the same work, timings excepted.
"""

from __future__ import annotations

import gc
import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from coarsevrp.coarsening import CoarseningParams, coarsen
from coarsevrp.evaluation import evaluate, objective_score
from coarsevrp.graph import Graph
from coarsevrp.inflation import inflate, light_postprocess
from coarsevrp.instances import (build_solution_document, load_instance, trial_row,
                                 write_solution, write_trials_csv)
from coarsevrp.tuning import (SOLVERS, PipelineResult, SearchSpace, TrialResult,
                              random_search, sample_params, trial_seed)


@dataclass
class Span:
    name: str           # "<module>.<call>"
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    op: int             # operation id shared by every span of one operation

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


@dataclass
class PipelineStats:
    """What one coarsen -> solve -> inflate run did, read from outside."""
    n0: int
    coarse_n: int
    p_target: float
    rounds: list              # coarsen's per-round trace dicts
    tau_entries: int
    late_before_repair: int
    late_after_repair: int
    split_routes: int

    @property
    def stalled(self) -> bool:
        return self.coarse_n > self.p_target * self.n0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    pipelines: list = field(default_factory=list)   # PipelineStats, one per run
    gc_collections: int = 0
    gc_ms: float = 0.0
    _stack: list = field(default_factory=list)
    _op: int = -1
    _gc_start: float | None = None

    @contextmanager
    def operation(self, name: str):
        """A root span; GC passes inside it are counted."""
        self._op += 1
        gc.callbacks.append(self._on_gc)
        try:
            with self.span(name):
                yield
        finally:
            gc.callbacks.remove(self._on_gc)

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def _on_gc(self, phase, _info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_collections += 1
            self.gc_ms += (time.perf_counter() - self._gc_start) * 1e3
            self._gc_start = None

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op}) + "\n")


def _tau_entries(graph: Graph, n: int) -> int:
    # the travel-time store is private; fall back to the all-pairs count
    store = getattr(graph, "_tau", None)
    return len(store) if store is not None else (n + 1) * n // 2


def pipeline(tr: Tracer, instance, params: CoarseningParams, solver: str) -> PipelineResult:
    """`coarsevrp.tuning.run_pipeline`, one span per call."""
    solve_fn = SOLVERS[solver]
    cap = instance.capacity
    with tr.span("tuning.run_pipeline"):
        graph = tr.call("graph.from_instance", Graph.from_instance, instance)
        rounds: list = []
        t0 = time.perf_counter()
        coarse_graph, history = tr.call("coarsening.coarsen", coarsen, graph, params,
                                        trace=rounds)
        t1 = time.perf_counter()
        coarse = tr.call("heuristics.coarse_solve", solve_fn, coarse_graph, cap)
        t2 = time.perf_counter()
        inflated = tr.call("inflation.inflate", inflate, coarse, history, graph)
        full = tr.call("inflation.light_postprocess", light_postprocess, inflated, graph, cap)
        t3 = time.perf_counter()
        coarse_metrics = tr.call("evaluation.evaluate", evaluate, coarse, coarse_graph, cap)
        metrics = tr.call("evaluation.evaluate", evaluate, full, graph, cap)
        score = tr.call("evaluation.objective_score", objective_score, metrics)
    tr.pipelines.append(PipelineStats(
        n0=graph.customer_count, coarse_n=coarse_graph.customer_count,
        p_target=params.p_target, rounds=rounds,
        tau_entries=_tau_entries(graph, graph.customer_count),
        late_before_repair=sum(r.tw_violations for r in inflated.routes),
        late_after_repair=metrics.tw_violations,
        split_routes=len(full.routes) - len(inflated.routes)))
    return PipelineResult(
        solution=full, coarse_solution=coarse, coarse_graph=coarse_graph,
        coarse_metrics=coarse_metrics, metrics=metrics, score=score,
        timings={"coarsen_ms": (t1 - t0) * 1e3, "solve_ms": (t2 - t1) * 1e3,
                 "inflate_ms": (t3 - t2) * 1e3})


def _baseline(tr: Tracer, instance, solver: str):
    """`coarsevrp.tuning.solve_baseline`."""
    with tr.span("tuning.solve_baseline"):
        graph = tr.call("graph.from_instance", Graph.from_instance, instance)
        t0 = time.perf_counter()
        solution = tr.call("heuristics.baseline_solve", SOLVERS[solver], graph,
                           instance.capacity)
        solve_ms = (time.perf_counter() - t0) * 1e3
        metrics = tr.call("evaluation.evaluate", evaluate, solution, graph, instance.capacity)
        score = tr.call("evaluation.objective_score", objective_score, metrics)
    return solution, metrics, score, {"solve_ms": solve_ms}


def _write_doc(tr: Tracer, instance, solution, metrics, params_doc, seed, timings, out):
    graph = tr.call("graph.from_instance", Graph.from_instance, instance)
    doc = tr.call("instances.build_solution_document", build_solution_document,
                  solution, graph, metrics, params_doc, seed=seed, timings=timings)
    tr.call("instances.write_solution", write_solution, doc, out)


def solve(tr: Tracer, path, out, *, alpha, beta, p, radius, solver, propagation, seed):
    """`coarsevrp solve`."""
    with tr.operation("cli.solve"):
        instance = tr.call("instances.load_instance", load_instance, path)
        params = CoarseningParams(alpha=alpha, beta=beta, p_target=p,
                                  radius_coeff=radius, propagation=propagation)
        res = pipeline(tr, instance, params, solver)
        _write_doc(tr, instance, res.solution, res.metrics,
                   {"alpha": alpha, "beta": beta, "p": p, "radius_coeff": radius,
                    "propagation": propagation, "solver": solver},
                   seed, res.timings, out)


def baseline(tr: Tracer, path, out, *, solver, seed):
    """`coarsevrp baseline`."""
    with tr.operation("cli.baseline"):
        instance = tr.call("instances.load_instance", load_instance, path)
        solution, metrics, _, timings = _baseline(tr, instance, solver)
        _write_doc(tr, instance, solution, metrics, {"solver": solver}, seed, timings, out)


def tune(tr: Tracer, path, out_dir: Path, *, trials, seed, jobs):
    """`coarsevrp tune` with the default search space and propagation."""
    propagation = "relaxed"
    with tr.operation("cli.tune"):
        instance = tr.call("instances.load_instance", load_instance, path)
        space = SearchSpace()
        out_dir.mkdir(parents=True, exist_ok=True)
        best, results = tr.call("tuning.random_search", random_search, instance, space,
                                trials, seed, propagation=propagation, jobs=jobs)
        baselines = []
        for s in ("greedy", "savings"):
            with tr.span("tuning.run_baseline"):
                _, metrics, score, timings = _baseline(tr, instance, s)
            baselines.append(TrialResult(
                trial=-1, alpha=None, beta=None, p=None, radius_coeff=None,
                propagation=None, solver=s, coarse_metrics=None, metrics=metrics,
                score=score, solve_ms=timings["solve_ms"]))
        tr.call("instances.write_trials_csv", write_trials_csv, out_dir / "trials.csv",
                [trial_row(t, instance.name, seed) for t in results])
        tr.call("instances.write_trials_csv", write_trials_csv, out_dir / "baselines.csv",
                [trial_row(b, instance.name, seed) for b in baselines])
        with tr.span("tuning.rerun"):
            rng = random.Random(trial_seed(seed, best.trial))
            params, solver = sample_params(space, rng, propagation)
            res = pipeline(tr, instance, params, solver)
        _write_doc(tr, instance, res.solution, res.metrics, best.params_doc(), seed,
                   res.timings, out_dir / "best_solution.json")


def serial_trials(tr: Tracer, path, out_csv: Path, *, trials, seed):
    """The campaign's trials one after another (`coarsevrp.tuning.run_trial`),
    each its own operation; writes their rows as `tune` writes trials.csv."""
    instance = load_instance(path)
    space = SearchSpace()
    results = []
    for index in range(trials):
        with tr.operation("tuning.run_trial"):
            rng = random.Random(trial_seed(seed, index))
            params, solver = sample_params(space, rng, "relaxed")
            out = pipeline(tr, instance, params, solver)
        results.append(TrialResult(
            trial=index, alpha=params.alpha, beta=params.beta, p=params.p_target,
            radius_coeff=params.radius_coeff, propagation=params.propagation,
            solver=solver, coarse_metrics=out.coarse_metrics, metrics=out.metrics,
            score=out.score, coarsen_ms=out.timings["coarsen_ms"],
            solve_ms=out.timings["solve_ms"], inflate_ms=out.timings["inflate_ms"]))
    write_trials_csv(out_csv, [trial_row(t, instance.name, seed) for t in results])
