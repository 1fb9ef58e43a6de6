import math
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsevrp.coarsening import PROPAGATION_MODES, CoarseningParams, coarsen
from coarsevrp.evaluation import evaluate
from coarsevrp.graph import DEPOT_ID, Graph, recompute_schedule
from coarsevrp.heuristics import Solution, greedy_solve, savings_solve
from coarsevrp.instances import Customer, Instance

import gen
from oracle import brute_force_optimal, savings_value

TOL = 1e-9


def make_instance(customers, capacity=100.0, horizon=1000.0, depot_xy=(0.0, 0.0)):
    depot = Customer(0, depot_xy[0], depot_xy[1], 0, 0, horizon, 0)
    cs = tuple(Customer(i + 1, *c) for i, c in enumerate(customers))
    return Instance("hand", 10, capacity, depot, cs)


def test_savings_value_worked_example():
    # x y demand ready due service
    inst = make_instance([(0, 10, 1, 0, 900, 0), (10, 0, 1, 0, 900, 0)])
    g = Graph.from_instance(inst)
    expected = 20.0 - math.sqrt(200.0)
    assert abs(savings_value(g, 1, 2) - expected) < TOL
    assert abs(savings_value(g, 1, 2) - 5.857864376269049) < 1e-9


def test_greedy_single_customer():
    inst = make_instance([(10, 0, 5, 0, 900, 0)])
    sol = greedy_solve(Graph.from_instance(inst), inst.capacity)
    assert [r.stops for r in sol.routes] == [[0, 1, 0]]
    assert sol.routes[0].late_stops == ()
    assert sol.solver == "greedy"


def test_greedy_visits_nearer_first():
    inst = make_instance([(20, 0, 1, 0, 900, 0), (10, 0, 1, 0, 900, 0)])
    sol = greedy_solve(Graph.from_instance(inst), inst.capacity)
    assert [r.stops for r in sol.routes] == [[0, 2, 1, 0]]


def test_greedy_ties_go_to_lower_id():
    inst = make_instance([(10, 0, 1, 0, 900, 0), (-10, 0, 1, 0, 900, 0)])
    sol = greedy_solve(Graph.from_instance(inst), inst.capacity)
    assert sol.routes[0].stops[1] == 1


def test_greedy_opens_new_route_on_capacity():
    inst = make_instance([(5, 0, 60, 0, 900, 0), (6, 0, 60, 0, 900, 0)],
                         capacity=100)
    sol = greedy_solve(Graph.from_instance(inst), inst.capacity)
    assert len(sol.routes) == 2
    assert sorted(s for r in sol.routes for s in r.customer_stops) == [1, 2]


def test_greedy_respects_deadlines_with_new_route():
    # second customer's window closes before any same-route visit could reach it
    inst = make_instance([(10, 0, 1, 0, 15, 5), (-10, 0, 1, 0, 12, 5)])
    sol = greedy_solve(Graph.from_instance(inst), inst.capacity)
    assert len(sol.routes) == 2
    m = evaluate(sol, Graph.from_instance(inst), inst.capacity)
    assert m.tw_violations == 0


def test_greedy_flags_unservable_singletons():
    # due date smaller than the direct travel time: hopeless on its own
    inst = make_instance([(10, 0, 1, 0, 900, 0), (50, 0, 1, 0, 20, 0)])
    sol = greedy_solve(Graph.from_instance(inst), inst.capacity)
    # nothing dropped: the fallback route serves customer 2 alone, late
    assert [(r.stops, r.late_stops) for r in sol.routes] == [([0, 1, 0], ()),
                                                              ([0, 2, 0], (1,))]


def test_greedy_respects_depot_return():
    # serving the far customer late would miss the depot closing time
    inst = make_instance([(30, 0, 1, 40, 60, 0)], horizon=65.0)
    sol = greedy_solve(Graph.from_instance(inst), inst.capacity)
    # start 40 + return 30 > 65: hopeless alone, so a fallback route, late at the depot
    assert [(r.stops, r.late_stops) for r in sol.routes] == [([0, 1, 0], (2,))]


@pytest.mark.parametrize("solve", [greedy_solve, savings_solve])
def test_super_node_over_capacity_gets_its_own_route(solve):
    # demand 60 + 60 > 100: no vehicle can take the super-node, yet it is
    # served, alone and over capacity, beside the other customer's route
    inst = make_instance([(10, 0, 60, 0, 900, 0), (12, 0, 60, 0, 900, 0),
                          (-10, 0, 10, 0, 900, 0)])
    coarse, _ = Graph.from_instance(inst).contract([((1, 2), (0.0, 900.0))])
    sol = solve(coarse, inst.capacity)
    assert [(r.stops, r.over_capacity) for r in sol.routes] == [([0, 3, 0], False),
                                                               ([0, 4, 0], True)]


def test_savings_merges_compatible_pair():
    inst = make_instance([(10, 0, 10, 0, 900, 0), (12, 0, 10, 0, 900, 0)])
    sol = savings_solve(Graph.from_instance(inst), inst.capacity)
    assert len(sol.routes) == 1
    assert sol.routes[0].customer_stops in ([1, 2], [2, 1])
    assert sol.solver == "savings"


@pytest.mark.parametrize("demand, routes", [(60, 2), (40, 1)], ids=["over", "exactly"])
def test_savings_blocked_by_capacity(demand, routes):
    # 60 + 60 exceeds the capacity; 60 + 40 fills it exactly, so the pair merges
    inst = make_instance([(10, 0, 60, 0, 900, 0), (12, 0, demand, 0, 900, 0)],
                         capacity=100)
    sol = savings_solve(Graph.from_instance(inst), inst.capacity)
    assert len(sol.routes) == routes


class TausCountingGraph(Graph):
    """A Graph that records the (from, to) legs of every taus call."""

    def taus(self, a, bs):
        bs = list(bs)
        self.asked += [(a, b) for b in bs]
        return super().taus(a, bs)


class LegCountingGraph(TausCountingGraph):
    """A Graph that records every (from, to) travel time it is asked for."""

    def tau(self, a, b):
        self.asked.append((a, b))
        return super().tau(a, b)


def test_savings_asks_no_leg_between_customers_that_cannot_share_a_vehicle():
    inst = make_instance([(10, 0, 60, 0, 900, 0), (12, 0, 70, 0, 900, 0),
                          (0, 11, 55, 0, 900, 0), (-9, 3, 80, 0, 900, 0)], capacity=100)
    g = LegCountingGraph.from_instance(inst)
    g.asked = []
    sol = savings_solve(g, inst.capacity)
    assert len(sol.routes) == 4
    assert g.asked and all(DEPOT_ID in leg for leg in g.asked)


def test_savings_asks_each_leg_once():
    # every pair fits one vehicle, so savings lists all n(n-1)/2 pairs: each
    # depot leg once, and each unordered pair of customers once
    inst = gen.random_instance(11, 40, capacity=1000.0)
    g = TausCountingGraph.from_instance(inst)
    g.asked = []
    savings_solve(g, inst.capacity)
    ids = g.customer_ids()
    n = len(ids)
    depot_legs = [b for a, b in g.asked if a == DEPOT_ID]
    customer_legs = [frozenset(leg) for leg in g.asked if leg[0] != DEPOT_ID]
    assert sorted(depot_legs) == ids
    assert len(customer_legs) == n * (n - 1) // 2
    assert set(customer_legs) == {frozenset(p) for p in combinations(ids, 2)}


def test_savings_blocked_by_time_windows():
    # both want service around the same tight slot far from each other
    inst = make_instance([(30, 0, 1, 28, 32, 0), (-30, 0, 1, 28, 32, 0)])
    g = Graph.from_instance(inst)
    sol = savings_solve(g, inst.capacity)
    assert len(sol.routes) == 2
    assert evaluate(sol, g, inst.capacity).tw_violations == 0


def test_savings_route_count_never_exceeds_n():
    for seed in range(4):
        inst = gen.random_instance(400 + seed, 25)
        g = Graph.from_instance(inst)
        sol = savings_solve(g, inst.capacity)
        assert len(sol.routes) <= len(inst.customers)
        assert sorted(s for r in sol.routes for s in r.customer_stops) == \
            list(range(1, 26))


def test_heuristics_feasible_on_singleton_feasible_instances():
    for seed in range(8):
        inst = gen.random_instance(500 + seed, 18)
        g = Graph.from_instance(inst)
        for solver in (greedy_solve, savings_solve):
            sol = solver(g, inst.capacity)
            m = evaluate(sol, g, inst.capacity)
            assert m.tw_violations == 0, (solver, seed)
            assert m.capacity_violations == 0


def test_heuristics_deterministic():
    inst = gen.random_instance(777, 30)
    g = Graph.from_instance(inst)
    for solver in (greedy_solve, savings_solve):
        a = solver(g, inst.capacity)
        b = solver(g, inst.capacity)
        assert [r.stops for r in a.routes] == [r.stops for r in b.routes]


# ---------------------------------------------------------------------------
# exact oracle

def test_brute_force_single_customer():
    inst = make_instance([(3, 4, 5, 0, 900, 0)])
    sol = brute_force_optimal(inst)
    assert [r.stops for r in sol.routes] == [[0, 1, 0]]
    g = Graph.from_instance(inst)
    assert abs(evaluate(sol, g, inst.capacity).total_distance - 10.0) < TOL


def test_brute_force_capacity_forces_split():
    inst = make_instance([(10, 0, 60, 0, 900, 0), (0, 10, 60, 0, 900, 0)],
                         capacity=100)
    sol = brute_force_optimal(inst)
    assert len(sol.routes) == 2
    g = Graph.from_instance(inst)
    assert abs(evaluate(sol, g, inst.capacity).total_distance - 40.0) < TOL


def test_brute_force_windows_force_order():
    inst = make_instance([(1, 0, 1, 100, 200, 0), (2, 0, 1, 0, 50, 0)])
    sol = brute_force_optimal(inst)
    g = Graph.from_instance(inst)
    m = evaluate(sol, g, inst.capacity)
    assert abs(m.total_distance - 4.0) < TOL
    assert m.tw_violations == 0
    assert [r.stops for r in sol.routes] == [[0, 2, 1, 0]]


def test_brute_force_reports_infeasible():
    inst = make_instance([(50, 0, 1, 0, 20, 0)])   # unreachable in time
    assert brute_force_optimal(inst) is None


def test_brute_force_refuses_large_instances():
    inst = gen.random_instance(1, 10)
    with pytest.raises(ValueError):
        brute_force_optimal(inst)


def test_brute_force_result_is_hard_feasible():
    for seed in range(6):
        inst = gen.random_instance(600 + seed, 6, capacity=60.0,
                                   demand_range=(10, 30))
        sol = brute_force_optimal(inst)
        assert sol is not None    # singleton-feasible instances always admit one
        g = Graph.from_instance(inst)
        m = evaluate(sol, g, inst.capacity)
        assert m.tw_violations == 0 and m.capacity_violations == 0


def test_heuristics_never_beat_the_oracle():
    for seed in range(10):
        inst = gen.random_instance(700 + seed, 7, capacity=70.0,
                                   demand_range=(10, 30))
        g = Graph.from_instance(inst)
        opt = brute_force_optimal(inst)
        assert opt is not None
        opt_dist = evaluate(opt, g, inst.capacity).total_distance
        for solver in (greedy_solve, savings_solve):
            got = evaluate(solver(g, inst.capacity), g, inst.capacity)
            assert got.tw_violations == 0 and got.capacity_violations == 0
            assert got.total_distance >= opt_dist - TOL, (seed, solver)


# ---------------------------------------------------------------------------
# savings_solve against its plain reference

def reference_savings_solve(graph, capacity):
    """savings_solve as it was before its pair list, sort and merge test were
    made cheap, kept verbatim: one tau call per pair, a sort on whole tuples
    and a full schedule rebuild per merge tested. savings_solve must return
    the same routes."""
    ids = graph.customer_ids()
    routes = {k: [c] for k, c in enumerate(ids)}        # interior stops only
    route_of = {c: k for k, c in enumerate(ids)}
    loads = {k: graph.node(c).demand for k, c in enumerate(ids)}
    viols = {k: recompute_schedule([DEPOT_ID, c, DEPOT_ID], graph, capacity).tw_violations
             for k, c in enumerate(ids)}
    home = {c: graph.tau(DEPOT_ID, c) for c in ids}    # savings_value, each depot leg once
    pairs = [(-(home[i] + home[j] - graph.tau(i, j)), i, j) for i, j in combinations(ids, 2)]
    pairs.sort()
    for neg, i, j in pairs:
        ri, rj = route_of[i], route_of[j]
        if ri == rj:
            continue
        if loads[ri] + loads[rj] > capacity:
            continue
        if routes[ri][-1] == i and routes[rj][0] == j:
            front, back = ri, rj
        elif routes[rj][-1] == j and routes[ri][0] == i:
            front, back = rj, ri
        else:
            continue
        merged = routes[front] + routes[back]
        trial = recompute_schedule([DEPOT_ID, *merged, DEPOT_ID], graph, capacity)
        if trial.tw_violations > viols[front] + viols[back]:
            continue
        routes[front] = merged
        loads[front] += loads[back]
        viols[front] = trial.tw_violations
        for c in routes[back]:
            route_of[c] = front
        del routes[back], loads[back], viols[back]
    final = [recompute_schedule([DEPOT_ID, *routes[k], DEPOT_ID], graph, capacity)
             for k in sorted(routes)]
    return Solution(final, "savings", graph.name)


@settings(max_examples=150, deadline=None)
@given(inst=st.one_of(gen.windowed_instances(), gen.windowed_instances(grid=4),
                     gen.drawn_instances(max_customers=14, bound=100.0),
                     st.builds(partial(gen.random_instance, horizon=4000, family="mixed"),
                               st.integers(0, 10**6), st.integers(1, 40))),
       alpha=st.sampled_from([0.3, 0.9]), radius=st.sampled_from([1.0, 4.0]),
       propagation=st.sampled_from(PROPAGATION_MODES))
def test_savings_equals_reference(inst, alpha, radius, propagation):
    # fractional coordinates, windows, service times and demands, with late
    # stops and late depot returns; the conservative coarse graph adds its
    # super-nodes' covering radii to their travel times. On the integer grid
    # [0, 4]² many savings values are equal, so the (i, j) order of ties
    # decides. Wide-horizon mixed instances are bound by capacity, so their
    # routes grow long and many merges rewrite each customer's route load
    g = Graph.from_instance(inst)
    coarse, _ = coarsen(g, CoarseningParams(alpha=alpha, beta=1 - alpha, p_target=0.3,
                                            radius_coeff=radius, propagation=propagation))
    for graph in (g, coarse):
        got = savings_solve(graph, inst.capacity)
        assert got == reference_savings_solve(graph, inst.capacity)


# ---------------------------------------------------------------------------
# greedy_solve against its plain reference

def reference_greedy_solve(graph, capacity):
    """greedy_solve as it was before it read each step's legs in one pass,
    kept verbatim: two tau calls per candidate per step and a running
    minimum with a strict comparison. greedy_solve must return the same
    routes."""
    depot = graph.depot
    unrouted = graph.customer_ids()
    routes = []
    while unrouted:
        stops = [DEPOT_ID]
        time = 0.0
        load = 0.0
        while True:
            best = None
            best_key = None
            for c in unrouted:
                node = graph.node(c)
                if load + node.demand > capacity:
                    continue
                leg = graph.tau(stops[-1], c)
                start = max(time + leg, node.ready)
                if start > node.due:
                    continue
                if start + node.service + graph.tau(c, DEPOT_ID) > depot.due:
                    continue
                if best_key is None or leg < best_key:
                    best, best_key = c, leg
            if best is None:
                break
            node = graph.node(best)
            time = max(time + graph.tau(stops[-1], best), node.ready) + node.service
            load += node.demand
            stops.append(best)
            unrouted.remove(best)
        if len(stops) == 1:
            # nothing fits even a fresh vehicle: emit the rest as singletons
            for c in unrouted:
                routes.append(recompute_schedule([DEPOT_ID, c, DEPOT_ID], graph, capacity))
            break
        routes.append(recompute_schedule(stops + [DEPOT_ID], graph, capacity))
    return Solution(routes, "greedy", graph.name)


@settings(max_examples=150, deadline=None)
@given(inst=st.one_of(gen.windowed_instances(), gen.windowed_instances(grid=4),
                     gen.drawn_instances(max_customers=14, bound=100.0),
                     st.builds(partial(gen.random_instance, family="mixed"),
                               st.integers(0, 10**6), st.integers(1, 40))),
       alpha=st.sampled_from([0.3, 0.9]), radius=st.sampled_from([1.0, 4.0]),
       propagation=st.sampled_from(PROPAGATION_MODES))
def test_greedy_equals_reference(inst, alpha, radius, propagation):
    # on the integer grid [0, 4]² many legs are equal, so the lower-id rule decides;
    # the conservative coarse graph adds its super-nodes' covering radii to
    # their travel times. On mixed instances routes run long enough that due
    # times pass mid-route, so the clock test drops candidates
    g = Graph.from_instance(inst)
    coarse, _ = coarsen(g, CoarseningParams(alpha=alpha, beta=1 - alpha, p_target=0.3,
                                            radius_coeff=radius, propagation=propagation))
    for graph in (g, coarse):
        got = greedy_solve(graph, inst.capacity)
        assert got == reference_greedy_solve(graph, inst.capacity)
