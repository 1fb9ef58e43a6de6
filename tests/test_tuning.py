import math
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsevrp.coarsening import PROPAGATION_MODES, CoarseningParams, coarsen
from coarsevrp.evaluation import evaluate
from coarsevrp.graph import Graph
from coarsevrp.heuristics import savings_solve
from coarsevrp.instances import TRIAL_FIELDS, Instance, trial_row
from coarsevrp.tuning import (SOLVERS, SearchSpace, TrialResult, random_search,
                              run_baseline, run_campaign, run_pipeline, run_trial,
                              sample_params, trial_seed, trial_solution)

import gen


def test_trial_seed_stable_and_spread():
    assert trial_seed(42, 0) == trial_seed(42, 0)
    seeds = {trial_seed(42, i) for i in range(100)}
    assert len(seeds) == 100
    assert trial_seed(42, 1) != trial_seed(43, 1)


def test_sample_params_draws_from_space():
    import random
    space = SearchSpace()
    for i in range(50):
        rng = random.Random(trial_seed(7, i))
        params, solver = sample_params(space, rng)
        assert params.alpha in space.alphas
        assert params.beta in space.betas
        assert params.p_target in space.ps
        assert params.radius_coeff in space.radius_coeffs
        assert solver in space.solvers


def test_run_baseline_single_customer():
    inst = gen.random_instance(3, 1)
    res = run_baseline(inst, "greedy")
    c = inst.customers[0]
    r = math.hypot(c.x - inst.depot.x, c.y - inst.depot.y)
    assert res.metrics.num_vehicles == 1
    assert abs(res.metrics.total_distance - 2 * r) < 1e-9
    assert abs(res.score - (2 * r + 1000.0)) < 1e-9
    assert res.coarse_metrics is None
    assert res.trial == -1


def test_run_pipeline_stages_and_timings():
    inst = gen.random_instance(12, 30, family="clustered")
    params = CoarseningParams(p_target=0.4, radius_coeff=2.0)
    out = run_pipeline(inst, params, "savings")
    assert set(out.timings) == {"coarsen_ms", "solve_ms", "inflate_ms"}
    assert out.coarse_graph.customer_count <= 30
    assert out.coarse_metrics.num_vehicles >= 1
    assert sorted(out.solution.customer_stops) == list(range(1, 31))
    assert out.score >= out.metrics.total_distance


def test_run_pipeline_carries_the_coarsening_trace():
    inst = gen.random_instance(12, 30, family="clustered")
    out = run_pipeline(inst, CoarseningParams(p_target=0.4, radius_coeff=2.0), "savings")
    rounds = out.coarsening
    assert [r["round"] for r in rounds] == list(range(1, len(rounds) + 1))
    assert all(r["pairs_scanned"] <= r["nodes_before"] * (r["nodes_before"] - 1) // 2
               for r in rounds)
    reached = out.coarse_graph.customer_count <= 0.4 * 30
    assert rounds[-1]["stop"] == ("target" if reached else "stalled")
    assert run_pipeline(inst, CoarseningParams(p_target=1.0), "savings").coarsening == []


@settings(max_examples=60, deadline=None)
@given(inst=gen.drawn_instances(max_customers=14, bound=200.0),
       p=st.sampled_from([0.2, 0.5, 1.0]), radius=st.sampled_from([0.5, 2.0, 6.0]))
def test_pipeline_serves_every_customer_exactly_once(inst, p, radius):
    ids = [c.id for c in inst.customers]
    for propagation, solver in product(PROPAGATION_MODES, SOLVERS):
        params = CoarseningParams(p_target=p, radius_coeff=radius, propagation=propagation)
        out = run_pipeline(inst, params, solver)
        assert sorted(out.solution.customer_stops) == ids, (propagation, solver)


def test_pipeline_with_p_one_equals_baseline():
    inst = gen.random_instance(15, 25)
    out = run_pipeline(inst, CoarseningParams(p_target=1.0), "savings")
    g = Graph.from_instance(inst)
    base = savings_solve(g, inst.capacity)
    assert [r.stops for r in out.solution.routes] == [r.stops for r in base.routes]
    assert out.metrics == evaluate(base, g, inst.capacity)


@settings(max_examples=40, deadline=None)
@given(inst=gen.windowed_instances(max_customers=20), radius=st.sampled_from([2.0, 6.0]))
def test_pipeline_metrics_equal_evaluate_on_the_same_routes(inst, radius):
    # run_pipeline aggregates the routes it scheduled; evaluate recomputes them
    g = Graph.from_instance(inst)
    for propagation, solver in product(PROPAGATION_MODES, SOLVERS):
        params = CoarseningParams(alpha=0.9, beta=0.1, p_target=0.2, radius_coeff=radius,
                                  propagation=propagation)
        out = run_pipeline(inst, params, solver)
        case = (propagation, solver)
        assert out.metrics == evaluate(out.solution, g, inst.capacity), case
        assert out.coarse_metrics == evaluate(out.coarse_solution, out.coarse_graph,
                                              inst.capacity), case


def _pipeline_outputs(inst, params, solver):
    out = run_pipeline(inst, params, solver)
    _, history = coarsen(Graph.from_instance(inst), params)
    return ([r.stops for r in out.solution.routes],
            [r.stops for r in out.coarse_solution.routes],
            out.score, out.metrics, out.coarse_metrics, history, out.coarsening)


@settings(max_examples=40, deadline=None)
# generator-shaped instances, and instances on a small grid, where many travel
# times are equal and ties decide
@given(inst=st.one_of(st.builds(gen.random_instance, st.integers(0, 10**6), st.integers(10, 60),
                                family=st.sampled_from(["random", "clustered", "mixed"])),
                      gen.windowed_instances(max_customers=20, grid=4)),
       rnd=st.randoms(use_true_random=False))
def test_customer_row_order_changes_no_output(inst, rnd):
    # Graph.customers follows the file's row order while customer_ids() sorts:
    # the order of the rows reaches no route, score, merge or coarsening trace
    rows = list(inst.customers)
    rnd.shuffle(rows)
    shuffled = Instance(inst.name, inst.vehicle_count, inst.capacity, inst.depot, tuple(rows))
    for propagation, solver in product(PROPAGATION_MODES, SOLVERS):
        for params in (CoarseningParams(propagation=propagation),      # the CLI defaults
                       CoarseningParams(alpha=0.9, beta=0.1, p_target=0.3, radius_coeff=4.0,
                                        propagation=propagation)):
            assert (_pipeline_outputs(shuffled, params, solver)
                    == _pipeline_outputs(inst, params, solver)), (propagation, solver, params)


def test_trial_carries_its_final_stops():
    inst = gen.random_instance(26, 30, family="mixed")
    res = run_trial(inst, SearchSpace(), seed=9, index=3)
    params = CoarseningParams(alpha=res.alpha, beta=res.beta, p_target=res.p,
                              radius_coeff=res.radius_coeff, propagation=res.propagation)
    out = run_pipeline(inst, params, res.solver)
    assert res.stops == tuple(tuple(r.stops) for r in out.solution.routes)
    assert trial_solution(inst, res).routes == out.solution.routes
    assert res.timings == {"coarsen_ms": res.coarsen_ms, "solve_ms": res.solve_ms,
                           "inflate_ms": res.inflate_ms}


def test_random_search_reproducible():
    inst = gen.random_instance(20, 20, family="mixed")
    space = SearchSpace()
    best1, all1 = random_search(inst, space, 6, seed=42)
    best2, all2 = random_search(inst, space, 6, seed=42)
    strip = lambda t: (t.trial, t.alpha, t.beta, t.p, t.radius_coeff, t.solver,
                       t.metrics, t.coarse_metrics, t.score)
    assert [strip(t) for t in all1] == [strip(t) for t in all2]
    assert strip(best1) == strip(best2)
    _, all3 = random_search(inst, space, 6, seed=43)
    assert [strip(t) for t in all1] != [strip(t) for t in all3]


def test_random_search_best_is_argmin():
    inst = gen.random_instance(21, 18)
    best, results = random_search(inst, SearchSpace(), 8, seed=5)
    assert best.score == min(r.score for r in results)
    firsts = [r for r in results if r.score == best.score]
    assert best.trial == min(f.trial for f in firsts)


def test_random_search_single_point_space():
    inst = gen.random_instance(22, 12)
    space = SearchSpace(alphas=(0.5,), betas=(0.5,), ps=(0.5,),
                        radius_coeffs=(1.0,), solvers=("greedy",))
    best, results = random_search(inst, space, 1, seed=0)
    assert len(results) == 1
    assert (best.alpha, best.beta, best.p, best.radius_coeff, best.solver) == \
        (0.5, 0.5, 0.5, 1.0, "greedy")


def test_random_search_parallel_matches_serial():
    inst = gen.random_instance(23, 16, family="clustered")
    space = SearchSpace()
    _, serial = random_search(inst, space, 4, seed=11, jobs=1)
    _, parallel = random_search(inst, space, 4, seed=11, jobs=2)
    strip = lambda t: (t.trial, t.alpha, t.beta, t.p, t.radius_coeff, t.solver,
                       t.metrics, t.score)
    assert [strip(t) for t in serial] == [strip(t) for t in parallel]


@pytest.fixture
def serial_pool(monkeypatch):
    """Swaps the process pool for one that runs each task here, after the
    initializer, as a worker would; records each pool's worker count and
    the tasks it was given."""
    record = SimpleNamespace(started=[], tasks=[])

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            record.started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            record.tasks.append(list(tasks))
            return map(fn, record.tasks[-1])

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("coarsevrp.tuning._worker_args", ())
    return record


def test_random_search_starts_no_more_workers_than_trials(serial_pool, monkeypatch):
    # a fork pool starts all max_workers processes at the first submit; the
    # CPU count is stubbed, so no test starts that many
    inst = gen.random_instance(23, 16, family="clustered")
    _, serial = random_search(inst, SearchSpace(), 4, seed=11, jobs=1)
    runs = []
    for cpus in (64, 3, 1):
        monkeypatch.setattr("coarsevrp.tuning._usable_cpus", lambda: cpus)
        runs.append(random_search(inst, SearchSpace(), 4, seed=11, jobs=64)[1])
    assert serial_pool.started == [min(64, 4, 64), min(64, 4, 3)]   # one CPU: no pool
    assert [[t.stops for t in run] for run in runs] == [[t.stops for t in serial]] * 3


def test_campaign_queues_its_baselines_first_in_the_trials_pool(serial_pool, monkeypatch):
    monkeypatch.setattr("coarsevrp.tuning._usable_cpus", lambda: 2)
    inst = gen.random_instance(23, 16, family="clustered")
    solvers = tuple(SOLVERS)
    serial = run_campaign(inst, SearchSpace(), 1, seed=11, jobs=1, baselines=solvers)
    pooled = run_campaign(inst, SearchSpace(), 1, seed=11, jobs=2, baselines=solvers)
    assert serial_pool.started == [2] and serial_pool.tasks == [[*solvers, 0]]
    strip = lambda t: (t.trial, t.solver, t.metrics, t.score, t.stops)
    trial = strip(run_trial(inst, SearchSpace(), 11, 0))
    for best, trials, baselines in (serial, pooled):
        assert strip(best) == trial and [strip(t) for t in trials] == [trial]
        assert [strip(b) for b in baselines] == [strip(run_baseline(inst, s))
                                                 for s in solvers]


@pytest.mark.parametrize("field", ["alphas", "betas", "ps", "radius_coeffs", "solvers"])
def test_search_space_rejects_an_empty_field(field):
    # an empty field would fail inside the first trial's draw with IndexError
    with pytest.raises(ValueError, match=field):
        SearchSpace(**{field: ()})


def test_random_search_rejects_zero_trials():
    inst = gen.random_instance(24, 5)
    with pytest.raises(ValueError):
        random_search(inst, SearchSpace(), 0, seed=1)


def test_trial_row_matches_fields():
    inst = gen.random_instance(25, 10)
    res = run_trial(inst, SearchSpace(), seed=9, index=0)
    row = trial_row(res, inst.name, 9)
    assert list(row) == TRIAL_FIELDS
    assert row["instance"] == inst.name
    assert row["trial"] == 0
    base_row = trial_row(run_baseline(inst, "savings"), inst.name, 9)
    assert base_row["alpha"] == "" and base_row["coarse_total_distance"] == ""
    assert base_row["solver"] == "savings"
