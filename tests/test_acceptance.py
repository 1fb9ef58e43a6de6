"""End-to-end acceptance suite: one test per shipped guarantee.

Each test prints a single `ACCEPTANCE <n> PASS/FAIL` line directly to the
terminal (visible under plain `pytest -v`), with timing and the benchmark
data source where one is involved.  The benchmark-backed checks use real
Solomon files from data/solomon/ when present and deterministic synthetic
stand-ins otherwise; the printed lines say which.
"""

import csv
import functools
import math
import random
import statistics
import time

from coarsevrp.coarsening import (CoarseningParams, aggregate_window, coarsen,
                                  merge_feasibility, merge_slack, st_distance,
                                  temporal_separation)
from coarsevrp.cli import main
from coarsevrp.evaluation import Metrics, evaluate, objective_score
from coarsevrp.graph import CoarseNode, Graph
from coarsevrp.heuristics import greedy_solve, savings_solve
from coarsevrp.inflation import expansion_map, inflate
from coarsevrp.instances import (read_solution, trial_row, write_solomon,
                                 write_trials_csv)
from coarsevrp.report import build_report, format_report
from coarsevrp.tuning import SearchSpace, random_search, run_baseline, run_pipeline, solve_baseline

import gen
from oracle import brute_force_optimal, savings_value

TOL = 1e-9


# ---------------------------------------------------------------------------
# reporting helpers

def _write(request, line, **markup):
    rep = request.config.pluginmanager.get_plugin("terminalreporter")
    if rep is not None:
        rep.ensure_newline()
        rep.write_line(line, **markup)
    else:
        print(line)


def _announce(request, num, ok, detail):
    status = "PASS" if ok else "FAIL"
    _write(request, f"ACCEPTANCE {num} {status} — {detail}", green=ok, red=not ok)


@functools.lru_cache(maxsize=1)
def _fig8():
    return gen.fig8_instances()


def _sources(items):
    tags = {src for _, _, src in items}
    if len(tags) == 1:
        return f"all {tags.pop()}s" if len(items) > 1 else tags.pop()
    return ", ".join(f"{name}: {src}" for name, _, src in items)


def _cnode(nid, ready, due, service=0.0, x=0.0, y=0.0):
    nominal = (ready + (due - service)) / 2.0
    return CoarseNode(nid, "customer", x, y, 0.0, service, ready, due, nominal)


# ---------------------------------------------------------------------------
# 1. formula examples, frozen values, 1e-9

def test_1_formula_examples_frozen(request):
    t0 = time.perf_counter()
    checks = []

    def close(got, want):
        checks.append(abs(got - want) < TOL)

    # temporal separation: identical nominal times; strict waiting; strict clamp
    close(temporal_separation(_cnode(1, 0, 100), _cnode(2, 0, 100), 5.0, "nominal"), 0.0)
    close(temporal_separation(_cnode(1, 0, 12, service=2.0), _cnode(2, 20, 100), 5.0, "strict"), 8.0)
    close(temporal_separation(_cnode(1, 0, 12, service=2.0), _cnode(2, 10, 100), 5.0, "strict"), 0.0)

    # blended distance: pure spatial, pure temporal, even blend
    close(st_distance(_cnode(1, 0, 100), _cnode(2, 0, 100), 7.5, 1.0, 0.0), 7.5)
    close(st_distance(_cnode(1, 0, 12, service=2.0), _cnode(2, 20, 100), 5.0, 0.0, 1.0, "strict"), 8.0)
    close(st_distance(_cnode(1, 0, 100), _cnode(2, 0, 100), 5.0, 0.5, 0.5), 2.5)

    # merge feasibility: both directions open; both blocked; degenerate tau
    checks.append(merge_feasibility(_cnode(1, 0, 100, service=10.0),
                                    _cnode(2, 0, 100, service=10.0), 5.0) == (True, True))
    checks.append(merge_feasibility(_cnode(1, 90, 50, service=10.0),
                                    _cnode(2, 60, 50, service=10.0), 5.0) == (False, False))
    checks.append(merge_feasibility(_cnode(1, 0, 10), _cnode(2, 5, 15), 0.0) == (True, True))

    # slack value and the zero-slack boundary (still feasible)
    close(merge_slack(_cnode(1, 0, 100, service=10.0), _cnode(2, 0, 100, service=10.0), 5.0), 75.0)
    close(merge_slack(_cnode(1, 75, 200, service=10.0), _cnode(2, 0, 100, service=10.0), 5.0), 0.0)
    checks.append(merge_feasibility(_cnode(1, 75, 200, service=10.0),
                                    _cnode(2, 0, 100, service=10.0), 5.0)[0] is True)

    # window aggregation, both modes, plus the conservative veto
    i, j = _cnode(1, 0, 80, service=10.0), _cnode(2, 30, 100, service=10.0)
    e, l = aggregate_window(i, j, 5.0, "relaxed")
    close(e, 0.0), close(l, 90.0)
    e, l = aggregate_window(i, j, 5.0, "conservative")
    close(e, 30.0), close(l, 80.0)
    e, l = aggregate_window(_cnode(1, 0, 10), _cnode(2, 20, 30), 0.0, "conservative")
    checks.append(e > l)

    # savings value for depot (0,0), i=(0,10), j=(10,0)
    from coarsevrp.instances import Customer, Instance
    inst = Instance("hand", 5, 100.0,
                    Customer(0, 0, 0, 0, 0, 1000, 0),
                    (Customer(1, 0, 10, 1, 0, 900, 0), Customer(2, 10, 0, 1, 0, 900, 0)))
    close(savings_value(Graph.from_instance(inst), 1, 2), 20.0 - math.sqrt(200.0))

    # objective score: flags, not counts; empty solution scores zero
    close(objective_score(Metrics(100.0, 3, 0.0, 0, 0, True)), 3100.0)
    close(objective_score(Metrics(100.0, 3, 0.0, 1, 0, False)), 4100.0)
    close(objective_score(Metrics(0.0, 0, 0.0, 0, 0, True)), 0.0)

    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 1.0
    _announce(request, 1, ok,
              f"formula examples, {len(checks)} frozen values at 1e-9 ({elapsed:.3f}s, cap 1s)")
    assert all(checks), f"frozen formula values drifted: {checks}"
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. coverage: every output of every path serves each customer exactly once

def _coverage_problems(solution, instance):
    problems = []
    stops = sorted(solution.customer_stops)
    if stops != list(range(1, len(instance.customers) + 1)):
        problems.append(f"coverage broken: {stops}")
    demand = {c.id: c.demand for c in instance.customers}
    for k, route in enumerate(solution.routes):
        load = sum(demand[s] for s in route.customer_stops)
        if not route.over_capacity and load > instance.capacity + TOL:
            problems.append(f"route {k} load {load} > Q unflagged")
    return problems


def test_2_every_customer_served_exactly_once(request):
    t0 = time.perf_counter()
    params = CoarseningParams(alpha=0.5, beta=0.5, p_target=0.5, radius_coeff=1.0)
    problems, outputs = [], 0
    for i in range(200):
        n = 5 + (i * 11) % 56
        family = ("random", "clustered", "mixed")[i % 3]
        inst = gen.random_instance(2000 + i, n, family=family)
        for solver in ("greedy", "savings"):
            base = solve_baseline(inst, solver).solution
            pipe = run_pipeline(inst, params, solver)
            for sol in (base, pipe.solution):
                outputs += 1
                for p in _coverage_problems(sol, inst):
                    problems.append(f"{inst.name}/{solver}: {p}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    _announce(request, 2, ok,
              f"coverage + capacity on {outputs} outputs over 200 instances "
              f"({elapsed:.2f}s, cap 60s)")
    assert not problems, problems[:5]
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 3. no heuristic or pipeline output beats the exhaustive optimum

def test_3_costs_never_beat_exhaustive_optimum(request):
    t0 = time.perf_counter()
    params = CoarseningParams(alpha=0.5, beta=0.5, p_target=0.5, radius_coeff=1.5,
                              propagation="conservative")
    rng = random.Random(3000)
    problems = []
    for i in range(50):
        n = rng.randint(3, 7)
        inst = gen.random_instance(3100 + i, n, capacity=70.0, demand_range=(10, 30))
        g = Graph.from_instance(inst)
        opt = brute_force_optimal(inst)
        if opt is None:
            problems.append(f"{inst.name}: no feasible optimum on singleton-feasible data")
            continue
        opt_cost = evaluate(opt, g, inst.capacity).total_distance
        for solver in ("greedy", "savings"):
            bm = solve_baseline(inst, solver).metrics
            pm = run_pipeline(inst, params, solver).metrics
            for label, m in ((f"{solver} baseline", bm), (f"{solver} pipeline", pm)):
                if not m.feasible:
                    problems.append(f"{inst.name} {label}: infeasible output")
                elif m.total_distance < opt_cost - TOL:
                    problems.append(f"{inst.name} {label}: {m.total_distance:.4f} "
                                    f"< optimum {opt_cost:.4f}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 300.0
    _announce(request, 3, ok,
              f"optimum floor on 50 instances x 4 outputs ({elapsed:.2f}s, cap 300s)")
    assert not problems, problems[:5]
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 4. conservative mode: clean coarse routes inflate to clean routes

def test_4_conservative_inflation_preserves_feasibility(request):
    t0 = time.perf_counter()
    params = CoarseningParams(alpha=0.5, beta=0.5, p_target=0.4, radius_coeff=2.0,
                              propagation="conservative")
    checked, exceptions = 0, []
    for i in range(100):
        n = 10 + (i * 7) % 31
        family = ("random", "clustered", "mixed")[i % 3]
        inst = gen.random_instance(4000 + i, n, family=family, width_range=(15, 80))
        g = Graph.from_instance(inst)
        cg, hist = coarsen(g, params)
        for solve in (greedy_solve, savings_solve):
            coarse = solve(cg, inst.capacity)
            fine = inflate(coarse, hist, g)
            for cr, fr in zip(coarse.routes, fine.routes):
                if cr.tw_violations == 0:
                    checked += 1
                    if fr.tw_violations != 0:
                        exceptions.append(f"{inst.name}/{coarse.solver}: "
                                          f"{cr.stops} -> {fr.tw_violations} late")
    elapsed = time.perf_counter() - t0
    ok = not exceptions
    _announce(request, 4, ok,
              f"{checked} zero-violation coarse routes inflated, "
              f"{len(exceptions)} exceptions (0 allowed) ({elapsed:.2f}s)")
    assert not exceptions, exceptions[:5]


# ---------------------------------------------------------------------------
# 5. coarsening contract on the 8 benchmark instances

def _replay_levels(graph, history, conservative):
    """Re-apply records one at a time, checking invariants at every level."""
    original_ids = set(graph.customer_ids())
    demand0 = sum(nd.demand for nd in graph.customers)
    service0 = sum(nd.service for nd in graph.customers)
    for k, rec in enumerate(history):
        first, second = rec.order
        fwd, _ = merge_feasibility(graph.node(first), graph.node(second),
                                   graph.tau(first, second))
        assert fwd, f"recorded direction infeasible at its level: {rec}"
        graph, (sup,) = graph.contract([(rec.order, rec.window)], conservative)
        assert sup.id == rec.super_id
        expand = expansion_map(history[:k + 1])
        assert sorted(s for c in graph.customer_ids()
                      for s in expand.get(c, (c,))) == sorted(original_ids), "partition broken"
        assert abs(sum(nd.demand for nd in graph.customers) - demand0) < 1e-6
        if not conservative:
            assert abs(sum(nd.service for nd in graph.customers) - service0) < 1e-6
    return graph


def test_5_coarsening_contract_on_benchmarks(request):
    t0 = time.perf_counter()
    problems = []
    for name, inst, _src in _fig8():
        g = Graph.from_instance(inst)
        for p in (0.3, 0.5, 0.7):
            # spatial-heavy weights with a wide radius coarsen deep on all
            # families, so the replay exercises long merge histories
            params = CoarseningParams(alpha=0.9, beta=0.1, p_target=p, radius_coeff=4.0)
            trace = []
            cg, hist = coarsen(g, params, trace=trace)
            bound = math.ceil(p * g.customer_count)
            halted = trace and trace[-1]["merges_applied"] == 0
            if cg.customer_count > bound and not halted:
                problems.append(f"{name} P={p}: {cg.customer_count} > {bound}, no halt")
            try:
                replayed = _replay_levels(g, hist, params.propagation == "conservative")
                if sorted(replayed.customer_ids()) != sorted(cg.customer_ids()):
                    problems.append(f"{name} P={p}: replay mismatch")
            except AssertionError as exc:
                problems.append(f"{name} P={p}: {exc}")
    elapsed = time.perf_counter() - t0
    ok = not problems
    _announce(request, 5, ok,
              f"8 instances x P in (0.3, 0.5, 0.7), invariants at every level; "
              f"data: {_sources(_fig8())} ({elapsed:.2f}s)")
    assert not problems, problems[:5]


# ---------------------------------------------------------------------------
# 6. solving the coarsened graph is faster than solving the original

def test_6_coarse_solve_is_faster(request):
    t0 = time.perf_counter()
    wanted = {"C101", "R101", "RC101"}
    subset = [(n, i, s) for n, i, s in _fig8()
              if n.removeprefix("synth_") in wanted]
    params = CoarseningParams(alpha=0.9, beta=0.1, p_target=0.3, radius_coeff=4.0)
    problems = []
    for name, inst, _src in subset:
        g = Graph.from_instance(inst)
        cg, _ = coarsen(g, params)
        for solve in (greedy_solve, savings_solve):
            med = {}
            for label, graph in (("original", g), ("coarse", cg)):
                runs = []
                for _ in range(5):
                    t1 = time.perf_counter()
                    solve(graph, inst.capacity)
                    runs.append(time.perf_counter() - t1)
                med[label] = statistics.median(runs)
            tag = solve.__name__.replace("_solve", "")
            _write(request, f"  {name} {tag}: original {med['original'] * 1e3:.2f}ms, "
                            f"coarse {med['coarse'] * 1e3:.2f}ms "
                            f"({g.customer_count} -> {cg.customer_count} nodes)")
            if med["coarse"] >= med["original"]:
                problems.append(f"{name}/{tag}: coarse {med['coarse']:.4f}s "
                                f">= original {med['original']:.4f}s")
    elapsed = time.perf_counter() - t0
    ok = not problems
    _announce(request, 6, ok,
              f"median-of-5 solver wall clock, coarse < original, both solvers; "
              f"data: {_sources(subset)} ({elapsed:.2f}s)")
    assert not problems, problems


# ---------------------------------------------------------------------------
# 7. tuned pipeline holds its own against the savings baseline

def test_7_tuned_beats_savings_baseline(request, tmp_path):
    t0 = time.perf_counter()
    space = SearchSpace()
    exists = feasible_exists = argmin = 0
    run_dirs = []
    for name, inst, _src in _fig8():
        base = run_baseline(inst, "savings")
        best, trials = random_search(inst, space, 20, seed=42)
        bd, bv = base.metrics.total_distance, base.metrics.num_vehicles
        dom = [t for t in trials
               if t.metrics.total_distance <= bd + TOL and t.metrics.num_vehicles <= bv]
        feas = [t for t in dom if t.metrics.feasible]
        best_ok = (best.metrics.total_distance <= bd + TOL
                   and best.metrics.num_vehicles <= bv)
        exists += bool(dom)
        feasible_exists += bool(feas)
        argmin += best_ok
        _write(request, f"  {name}: baseline d={bd:.1f} v={bv}; dominating trials "
                        f"{len(dom)}/20 ({len(feas)} feasible); best-score trial "
                        f"{'dominates' if best_ok else 'does not dominate'}")
        run_dir = tmp_path / f"run_{name}"
        run_dir.mkdir()
        write_trials_csv(run_dir / "trials.csv",
                         [trial_row(t, inst.name, 42) for t in trials])
        write_trials_csv(run_dir / "baselines.csv",
                         [trial_row(b, inst.name, 42)
                          for b in (base, run_baseline(inst, "greedy"))])
        run_dirs.append(run_dir)
    for line in format_report(build_report(run_dirs)).splitlines():
        _write(request, "  " + line)
    elapsed = time.perf_counter() - t0
    ok = exists >= 6 and elapsed < 600.0
    _announce(request, 7, ok,
              f"some trial no worse than savings baseline on {exists}/8 "
              f"(feasible-only {feasible_exists}/8, best-score pick {argmin}/8), "
              f"need 6; data: {_sources(_fig8())} ({elapsed:.2f}s, cap 600s)")
    assert exists >= 6, f"only {exists}/8 instances had a dominating trial"
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 8. tune is deterministic end to end

def _rows_without_timings(path):
    with open(path, newline="") as fh:
        return [row[:-3] for row in csv.reader(fh)]


def test_8_tune_cli_is_deterministic(request, tmp_path):
    t0 = time.perf_counter()
    inst, src = gen.load_benchmark("C101")
    instance_file = tmp_path / "C101.txt"
    instance_file.write_text(write_solomon(inst))
    outs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        assert main(["tune", str(instance_file), "--trials", "20", "--seed", "42",
                     "--out-dir", str(out_dir)]) == 0
        outs.append(out_dir)
    same_trials = (_rows_without_timings(outs[0] / "trials.csv")
                   == _rows_without_timings(outs[1] / "trials.csv"))
    same_base = (_rows_without_timings(outs[0] / "baselines.csv")
                 == _rows_without_timings(outs[1] / "baselines.csv"))
    doc_a = read_solution(outs[0] / "best_solution.json")
    doc_b = read_solution(outs[1] / "best_solution.json")
    same_best = (doc_a["routes"] == doc_b["routes"]
                 and doc_a["metrics"] == doc_b["metrics"])
    elapsed = time.perf_counter() - t0
    ok = same_trials and same_base and same_best
    _announce(request, 8, ok,
              f"two tune runs, seed 42, 20 trials: identical routes and scores; "
              f"data: {src} ({elapsed:.2f}s)")
    assert same_trials, "trials.csv differs between identically seeded runs"
    assert same_base, "baselines.csv differs between identically seeded runs"
    assert same_best, "best_solution.json differs between identically seeded runs"
