import random

from coarsevrp.evaluation import Metrics, evaluate, objective_score
from coarsevrp.graph import Graph, recompute_schedule
from coarsevrp.heuristics import Solution, greedy_solve
from coarsevrp.instances import Customer, Instance

import gen

TOL = 1e-9


def test_evaluate_worked_example():
    depot = Customer(0, 0, 0, 0, 0, 1000, 0)
    c = Customer(1, 10, 0, 5, 15, 400, 5)
    inst = Instance("one", 3, 50, depot, (c,))
    g = Graph.from_instance(inst)
    sol = Solution([recompute_schedule([0, 1, 0], g, 50)], "greedy", g.name)
    m = evaluate(sol, g, inst.capacity)
    assert abs(m.total_distance - 20.0) < TOL
    # 10 travel + 5 wait + 5 service + 10 travel back
    assert abs(m.total_duration - 30.0) < TOL
    assert m.num_vehicles == 1
    assert m.feasible


def test_objective_score_frozen_values():
    m = Metrics(100.0, 3, 0.0, 0, 0, True)
    assert abs(objective_score(m) - 3100.0) < TOL
    m_tw = Metrics(100.0, 3, 0.0, 1, 0, False)
    assert abs(objective_score(m_tw) - 4100.0) < TOL
    empty = Metrics(0.0, 0, 0.0, 0, 0, True)
    assert objective_score(empty) == 0.0


def test_objective_penalties_are_flags_not_counts():
    one = Metrics(0.0, 0, 0.0, 1, 0, False)
    many = Metrics(0.0, 0, 0.0, 10, 0, False)
    assert objective_score(one) == objective_score(many) == 1000.0
    both = Metrics(0.0, 0, 0.0, 2, 3, False)
    assert objective_score(both) == 2000.0


def test_evaluate_ignores_stale_schedules():
    inst = gen.random_instance(42, 10)
    g = Graph.from_instance(inst)
    sol = greedy_solve(g, inst.capacity)
    m1 = evaluate(sol, g, inst.capacity)
    # damage the stored times; evaluate must not care
    for r in sol.routes:
        r.arrivals.clear()
        r.starts.clear()
        r.departures.clear()
    m2 = evaluate(sol, g, inst.capacity)
    assert m1 == m2


def test_evaluate_counts_vehicles_with_customers_only():
    inst = gen.random_instance(43, 6)
    g = Graph.from_instance(inst)
    sol = greedy_solve(g, inst.capacity)
    sol.routes.append(recompute_schedule([0, 0], g))
    m = evaluate(sol, g, inst.capacity)
    assert m.num_vehicles == sum(1 for r in sol.routes if r.customer_stops)


def test_evaluate_feasibility_flags():
    depot = Customer(0, 0, 0, 0, 0, 1000, 0)
    c = Customer(1, 10, 0, 60, 0, 5, 0)     # due 5 < travel 10: always late
    inst = Instance("late", 3, 50, depot, (c,))
    g = Graph.from_instance(inst)
    sol = Solution([recompute_schedule([0, 1, 0], g, 50)], "x", g.name)
    m = evaluate(sol, g, inst.capacity)
    assert m.tw_violations == 1
    assert m.capacity_violations == 1       # demand 60 > 50
    assert not m.feasible


def test_duration_decomposition():
    rng = random.Random(7)
    inst = gen.random_instance(44, 15)
    g = Graph.from_instance(inst)
    ids = rng.sample(g.customer_ids(), 6)
    route = recompute_schedule([0, *ids, 0], g)
    wait = sum(start - arrival for arrival, start in zip(route.arrivals, route.starts))
    service = sum(g.node(s).service for s in route.stops)
    distance = 0.0
    for a, b in zip(route.stops, route.stops[1:]):
        distance += g.tau(a, b)      # left to right: sum() of floats is compensated on 3.12+
    assert route.distance == distance
    assert abs(route.duration - (route.distance + wait + service)) < 1e-6
