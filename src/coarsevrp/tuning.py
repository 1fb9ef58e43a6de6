"""Pipeline runner plus a reproducible random-search tuning harness.

Reproducibility contract: every trial gets its own `random.Random` seeded by
splitmix64(campaign_seed XOR golden-ratio-scrambled trial index). Draws
happen in a fixed order (alpha, beta, p, radius_coeff, solver), so results
are identical no matter how trials are scheduled across processes.
"""

from __future__ import annotations

import os
import random
import time
from itertools import product

from ._records import Frozen, Record, _fill, _set
from .coarsening import CoarseningParams, coarsen
from .evaluation import Metrics, aggregate_metrics, objective_score
from .graph import Graph, recompute_schedule
from .heuristics import Solution, greedy_solve, savings_solve
from .inflation import expand_stops, repair_stops
from .instances import PARAM_NAMES, TIMING_NAMES, Instance

SOLVERS = {"greedy": greedy_solve, "savings": savings_solve}


class SearchSpace(Frozen):
    __slots__ = ("alphas", "betas", "ps", "radius_coeffs", "solvers")

    def __init__(self, alphas: tuple[float, ...] = (0.1, 0.5, 0.9),
                 betas: tuple[float, ...] = (0.1, 0.5, 0.9),
                 ps: tuple[float, ...] = (0.3, 0.5, 0.7),
                 radius_coeffs: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0),
                 solvers: tuple[str, ...] = tuple(SOLVERS)):
        for name, values in zip(self.__slots__, (alphas, betas, ps, radius_coeffs, solvers)):
            if not values:
                raise ValueError(f"search space field {name} is empty")
            _set(self, name, values)
        # every draw must give valid CoarseningParams, whichever values meet
        for alpha, beta in product(alphas, betas):
            CoarseningParams(alpha=alpha, beta=beta)
        for p in ps:
            CoarseningParams(p_target=p)
        for radius_coeff in radius_coeffs:
            CoarseningParams(radius_coeff=radius_coeff)
        for solver in solvers:
            if solver not in SOLVERS:
                raise ValueError(f"unknown solver in search space: {solver!r}")


class TrialResult(Frozen):
    __slots__ = ("trial", "solver", "metrics", "score", "alpha", "beta", "p", "radius_coeff",
                 "propagation", "coarse_metrics", "coarsen_ms", "solve_ms", "inflate_ms",
                 "stops")             # stops: a trial's final routes, depot to depot

    def __init__(self, trial: int, solver: str, metrics: Metrics, score: float,
                 alpha: float | None = None, beta: float | None = None,
                 p: float | None = None, radius_coeff: float | None = None,
                 propagation: str | None = None, coarse_metrics: Metrics | None = None,
                 coarsen_ms: float = 0.0, solve_ms: float = 0.0, inflate_ms: float = 0.0,
                 stops: tuple[tuple[int, ...], ...] = ()):
        _fill(self, (trial, solver, metrics, score, alpha, beta, p, radius_coeff, propagation,
                     coarse_metrics, coarsen_ms, solve_ms, inflate_ms, stops))

    @property
    def timings(self) -> dict:
        return {k: getattr(self, k) for k in TIMING_NAMES}

    def params_doc(self) -> dict:
        return {k: getattr(self, k) for k in PARAM_NAMES}


class PipelineResult(Record):
    """One solve of an instance. A baseline (solve_baseline) has no coarse
    stage: its coarse fields are None and its timings hold only solve_ms."""
    __slots__ = ("solution",          # the final routes, on the original graph
                 "metrics", "score", "coarse_solution", "coarse_graph", "coarse_metrics",
                 "timings", "coarsening")   # coarsening: coarsen's per-round trace

    def __init__(self, solution: Solution, metrics: Metrics, score: float,
                 coarse_solution: Solution | None = None, coarse_graph: Graph | None = None,
                 coarse_metrics: Metrics | None = None, timings: dict | None = None,
                 coarsening: list | None = None):
        _fill(self, (solution, metrics, score, coarse_solution, coarse_graph, coarse_metrics,
                     {} if timings is None else timings, [] if coarsening is None else coarsening))


def run_pipeline(instance: Instance, params: CoarseningParams, solver: str,
                 graph: Graph | None = None) -> PipelineResult:
    """coarsen -> solve on the small graph -> inflate -> light repairs -> score.

    `graph` is the instance's Graph.from_instance, built here when not given
    and never modified: a campaign hands every task its worker's one graph.

    The coarse routes are expanded to stop lists and handed to the repair
    unscheduled (inflate plus light_postprocess, minus inflate's schedules),
    so each full route is scheduled once, plus once per repair that changes
    it. Both metrics are aggregated from the routes as scheduled: the
    solver's on the coarse graph, the repair's on the original one; each
    equals evaluate() on the same solution and graph.
    """
    solve_fn = SOLVERS[solver]
    if graph is None:
        graph = Graph.from_instance(instance)
    rounds = []
    t0 = time.perf_counter()
    coarse_graph, history = coarsen(graph, params, trace=rounds)
    t1 = time.perf_counter()
    coarse_solution = solve_fn(coarse_graph, instance.capacity)
    t2 = time.perf_counter()
    routes = repair_stops(expand_stops(coarse_solution, history, graph), graph,
                          instance.capacity)
    full = Solution(routes, coarse_solution.solver, graph.name)
    t3 = time.perf_counter()
    coarse_metrics = aggregate_metrics(coarse_solution.routes)
    metrics = aggregate_metrics(routes)
    return PipelineResult(
        solution=full, coarse_solution=coarse_solution, coarse_graph=coarse_graph,
        coarse_metrics=coarse_metrics, metrics=metrics,
        score=objective_score(metrics),
        timings={"coarsen_ms": (t1 - t0) * 1e3, "solve_ms": (t2 - t1) * 1e3,
                 "inflate_ms": (t3 - t2) * 1e3},
        coarsening=rounds)


def solve_baseline(instance: Instance, solver: str, graph: Graph | None = None) -> PipelineResult:
    """run_pipeline without the coarse stage: the solver's routes on the
    uncoarsened instance, with metrics aggregated from their schedules.
    `graph` is as in run_pipeline."""
    solve_fn = SOLVERS[solver]
    if graph is None:
        graph = Graph.from_instance(instance)
    t0 = time.perf_counter()
    solution = solve_fn(graph, instance.capacity)
    solve_ms = (time.perf_counter() - t0) * 1e3
    metrics = aggregate_metrics(solution.routes)
    return PipelineResult(solution, metrics, objective_score(metrics),
                          timings={"solve_ms": solve_ms})


def trial_solution(instance: Instance, trial: TrialResult) -> Solution:
    """A trial's final solution, scheduled from its stop lists on the
    original graph as run_pipeline's repair scheduled it."""
    graph = Graph.from_instance(instance)
    return Solution([recompute_schedule(stops, graph, instance.capacity)
                     for stops in trial.stops], trial.solver, graph.name)


def run_baseline(instance: Instance, solver: str, graph: Graph | None = None) -> TrialResult:
    """solve_baseline as a campaign task: trial -1, with no parameters."""
    out = solve_baseline(instance, solver, graph)
    return TrialResult(trial=-1, solver=solver, metrics=out.metrics, score=out.score,
                       **out.timings)


# ---------------------------------------------------------------------------
# seeded search

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def trial_seed(seed: int, index: int) -> int:
    """Stable per-trial seed; independent of execution order."""
    return _splitmix64((seed & _MASK) ^ _splitmix64(index))


def sample_params(space: SearchSpace, rng: random.Random,
                  propagation: str = "relaxed") -> tuple[CoarseningParams, str]:
    """Draw one configuration. Order of draws is part of the contract."""
    alpha = rng.choice(space.alphas)
    beta = rng.choice(space.betas)
    p = rng.choice(space.ps)
    radius_coeff = rng.choice(space.radius_coeffs)
    solver = rng.choice(space.solvers)
    return CoarseningParams(alpha=alpha, beta=beta, p_target=p,
                            radius_coeff=radius_coeff, propagation=propagation), solver


def run_trial(instance: Instance, space: SearchSpace, seed: int, index: int,
              propagation: str = "relaxed", graph: Graph | None = None) -> TrialResult:
    rng = random.Random(trial_seed(seed, index))
    params, solver = sample_params(space, rng, propagation)
    out = run_pipeline(instance, params, solver, graph)
    return TrialResult(trial=index, alpha=params.alpha, beta=params.beta,
                       p=params.p_target, radius_coeff=params.radius_coeff,
                       propagation=params.propagation, solver=solver,
                       coarse_metrics=out.coarse_metrics, metrics=out.metrics,
                       score=out.score, **out.timings,
                       stops=tuple(tuple(r.stops) for r in out.solution.routes))


def random_search(instance: Instance, space: SearchSpace, n_trials: int, seed: int,
                  propagation: str = "relaxed", jobs: int = 1):
    """Run n_trials sampled configurations; returns (best, all_trials).

    Best is the lowest objective score, ties going to the earlier trial.
    Each trial runs once and carries its own final stop lists, metrics and
    timings, so the best one's solution is rebuilt from its `stops` without
    running it again. Identical output for any `jobs` value; the trials run
    as in run_campaign(), without baselines.
    """
    best, results, _ = run_campaign(instance, space, n_trials, seed, propagation, jobs)
    return best, results


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_task(instance: Instance, space: SearchSpace, seed: int, propagation: str,
              graph: Graph, task: int | str) -> TrialResult:
    """A campaign task: a trial index, or the solver name of a baseline."""
    if isinstance(task, str):
        return run_baseline(instance, task, graph)
    return run_trial(instance, space, seed, task, propagation, graph)


_worker_args: tuple = ()   # a pool worker's (instance, space, seed, propagation, graph)


def _start_worker(*args) -> None:
    global _worker_args
    _worker_args = (*args, Graph.from_instance(args[0]))


def _worker_task(task: int | str) -> TrialResult:
    return _run_task(*_worker_args, task)


def run_campaign(instance: Instance, space: SearchSpace, n_trials: int, seed: int,
                 propagation: str = "relaxed", jobs: int = 1,
                 baselines=()):
    """Run trials 0..n_trials-1 and a run_baseline of each solver named in
    `baselines`; returns (best trial, the trials in order, the baselines in
    the order named). Best is as in random_search().

    With jobs > 1 every task runs in one process pool of at most jobs
    workers, capped at the task count and at the CPUs this process may use.
    The baselines are queued first, as the longest tasks, so that no worker
    idles at the end; each is timed while the other workers run trials, as
    each trial is. The instance, space, seed and propagation reach each
    worker once, as the pool's initargs, under any start method. With one
    job, or one worker after the caps, every task runs here, in order.

    The instance's Graph is built once per worker, by its initializer, or
    once here when the tasks run here, and every task of that process reads
    it: coarsening contracts into new graphs, and the solvers and repair
    only read theirs. It is built before any task's timed stages, and it
    lives no longer than the campaign.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    tasks = [*baselines, *range(n_trials)]
    args = (instance, space, seed, propagation)
    workers = min(jobs, len(tasks), _usable_cpus())
    if workers > 1:
        # imported here, so that a serial run never loads the pool and multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                                 initargs=args) as pool:
            results = list(pool.map(_worker_task, tasks))
    else:
        graph = Graph.from_instance(instance)
        results = [_run_task(*args, graph, task) for task in tasks]
    trials = results[len(baselines):]
    best = min(trials, key=lambda r: (r.score, r.trial))
    return best, trials, results[:len(baselines)]
