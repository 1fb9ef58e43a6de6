import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsevrp.coarsening import PROPAGATION_MODES, CoarseningParams, MergeRecord, coarsen
from coarsevrp.evaluation import evaluate
from coarsevrp.graph import DEPOT_ID, Graph, recompute_schedule
from coarsevrp.heuristics import Solution, greedy_solve, savings_solve
from coarsevrp.inflation import (InflationError, expand_stops, expansion_map, inflate,
                                 light_postprocess, repair_stops)
from coarsevrp.instances import Customer, Instance

import gen


def make_instance(customers, capacity=100.0, horizon=1000.0):
    depot = Customer(0, 0, 0, 0, 0, horizon, 0)
    cs = tuple(Customer(i + 1, *c) for i, c in enumerate(customers))
    return Instance("hand", 10, capacity, depot, cs)


def _solution(stop_lists, graph, solver="greedy"):
    routes = [recompute_schedule(s, graph) for s in stop_lists]
    return Solution(routes, solver, graph.name)


def test_inflate_single_record():
    inst = make_instance([(10, 0, 1, 0, 900, 5), (12, 0, 1, 0, 900, 5)])
    g = Graph.from_instance(inst)
    hist = [MergeRecord(3, (1, 2), (0.0, 900.0))]
    # a coarse graph isn't even needed to build the coarse stop list by hand
    coarse_sol = Solution([recompute_schedule([0, 1, 0], g)], "greedy", "c")
    coarse_sol.routes[0].stops[1] = 3          # pretend node 3 was routed
    out = inflate(coarse_sol, hist, g)
    assert [r.stops for r in out.routes] == [[0, 1, 2, 0]]
    assert out.solver == "greedy"


def test_inflate_order_respected():
    inst = make_instance([(10, 0, 1, 0, 900, 5), (12, 0, 1, 0, 900, 5)])
    g = Graph.from_instance(inst)
    hist = [MergeRecord(3, (2, 1), (0.0, 900.0))]
    sol = _solution([[0, 1, 0]], g)
    sol.routes[0].stops[1] = 3
    out = inflate(sol, hist, g)
    assert out.routes[0].stops == [0, 2, 1, 0]


def test_inflate_nested_records_newest_first():
    inst = make_instance([(10, 0, 1, 0, 900, 0), (12, 0, 1, 0, 900, 0),
                          (14, 0, 1, 0, 900, 0)])
    g = Graph.from_instance(inst)
    # merge 1+2 -> 4, then 4+3 -> 5
    hist = [MergeRecord(4, (1, 2), (0.0, 900.0)),
            MergeRecord(5, (4, 3), (0.0, 900.0))]
    sol = _solution([[0, 1, 0]], g)
    sol.routes[0].stops[1] = 5
    out = inflate(sol, hist, g)
    assert out.routes[0].stops == [0, 1, 2, 3, 0]


def test_inflate_empty_history_identity():
    inst = make_instance([(10, 0, 1, 0, 900, 0)])
    g = Graph.from_instance(inst)
    sol = _solution([[0, 1, 0]], g)
    out = inflate(sol, [], g)
    assert [r.stops for r in out.routes] == [[0, 1, 0]]


def test_inflate_unknown_super_raises():
    inst = make_instance([(10, 0, 1, 0, 900, 0)])
    g = Graph.from_instance(inst)
    sol = _solution([[0, 1, 0]], g)
    sol.routes[0].stops[1] = 99
    with pytest.raises(InflationError):
        inflate(sol, [], g)


def test_inflate_ignores_unused_records():
    inst = make_instance([(10, 0, 1, 0, 900, 0), (12, 0, 1, 0, 900, 0),
                          (14, 0, 1, 0, 900, 0)])
    g = Graph.from_instance(inst)
    hist = [MergeRecord(4, (1, 2), (0.0, 900.0))]
    sol = _solution([[0, 3, 0]], g)            # never visits super 4
    out = inflate(sol, hist, g)
    assert out.routes[0].stops == [0, 3, 0]


def test_inflate_preserves_route_count():
    inst = make_instance([(10, 0, 1, 0, 900, 0), (12, 0, 1, 0, 900, 0),
                          (14, 0, 1, 0, 900, 0)])
    g = Graph.from_instance(inst)
    hist = [MergeRecord(4, (1, 2), (0.0, 900.0))]
    sol = _solution([[0, 3, 0], [0, 1, 0]], g)
    sol.routes[1].stops[1] = 4
    out = inflate(sol, hist, g)
    assert len(out.routes) == 2


def test_inflate_end_to_end_coverage():
    for seed in range(6):
        inst = gen.random_instance(800 + seed, 24, family="clustered")
        g = Graph.from_instance(inst)
        cg, hist = coarsen(g, CoarseningParams(p_target=0.4, radius_coeff=2.0))
        for solver in (greedy_solve, savings_solve):
            coarse = solver(cg, inst.capacity)
            out = inflate(coarse, hist, g)
            assert len(out.routes) == len(coarse.routes)
            assert sorted(out.customer_stops) == list(range(1, 25))
            # schedules are on the original metric now
            for r in out.routes:
                rebuilt = recompute_schedule(r.stops, g)
                assert (rebuilt.arrivals, rebuilt.starts, rebuilt.departures) == (
                    r.arrivals, r.starts, r.departures)


# ---------------------------------------------------------------------------
# light_postprocess

def test_postprocess_swap_restores_feasibility():
    inst = make_instance([(1, 0, 1, 50, 60, 0), (2, 0, 1, 0, 10, 0)])
    g = Graph.from_instance(inst)
    sol = _solution([[0, 1, 2, 0]], g)
    before = evaluate(sol, g, inst.capacity)
    assert before.tw_violations == 1
    fixed = light_postprocess(sol, g, inst.capacity)
    after = evaluate(fixed, g, inst.capacity)
    assert after.tw_violations == 0
    assert fixed.routes[0].stops == [0, 2, 1, 0]


def test_postprocess_keeps_feasible_solution_unchanged():
    inst = make_instance([(10, 0, 10, 0, 900, 5), (12, 0, 10, 0, 900, 5)])
    g = Graph.from_instance(inst)
    sol = _solution([[0, 1, 2, 0]], g)
    out = light_postprocess(sol, g, inst.capacity)
    assert [r.stops for r in out.routes] == [[0, 1, 2, 0]]


def test_postprocess_splits_over_capacity_route():
    inst = make_instance([(10, 0, 40, 0, 900, 0), (12, 0, 40, 0, 900, 0),
                          (14, 0, 40, 0, 900, 0)])
    g = Graph.from_instance(inst)
    sol = _solution([[0, 1, 2, 3, 0]], g)
    out = light_postprocess(sol, g, inst.capacity)
    stop_lists = [r.stops for r in out.routes]
    assert [0, 1, 2, 0] in stop_lists and [0, 3, 0] in stop_lists
    m = evaluate(out, g, inst.capacity)
    assert m.capacity_violations == 0


def test_postprocess_swaps_once_a_split_allows_it():
    # swapping 1 and 2 makes 3 late, so the swap is refused until the
    # capacity split has moved 3 to a route of its own
    inst = make_instance([(10, 0, 40, 0, 100, 10), (20, 0, 40, 0, 25, 0),
                          (20, 0, 40, 0, 45, 0)])
    g = Graph.from_instance(inst)
    out = light_postprocess(_solution([[0, 1, 2, 3, 0]], g), g, inst.capacity)
    assert [r.stops for r in out.routes] == [[0, 2, 1, 0], [0, 3, 0]]
    assert evaluate(out, g, inst.capacity).tw_violations == 0


def test_postprocess_refuses_a_swap_that_makes_the_depot_return_late():
    # swapped, both customers are on time but the vehicle returns to the
    # depot late, so the route's late count does not fall
    inst = make_instance([(10, 0, 10, 0, 100, 0), (1, 0, 10, 5, 6, 0)], horizon=22)
    g = Graph.from_instance(inst)
    assert recompute_schedule([0, 1, 2, 0], g).late_stops == (2,)
    assert recompute_schedule([0, 2, 1, 0], g).late_stops == (3,)
    out = light_postprocess(_solution([[0, 1, 2, 0]], g), g, inst.capacity)
    assert [r.stops for r in out.routes] == [[0, 1, 2, 0]]


@pytest.mark.parametrize("solver", [savings_solve, greedy_solve])
def test_repair_edits_each_stop_list_into_its_route(solver):
    # relaxed acceptance-test-6 routes: with either solver one route of this
    # instance is both swapped and split
    inst = gen.random_instance(1, 50)
    g = Graph.from_instance(inst)
    cg, hist = coarsen(g, CoarseningParams(alpha=0.9, beta=0.1, p_target=0.3,
                                           radius_coeff=4.0))
    stop_lists = expand_stops(solver(cg, inst.capacity), hist, g)
    before = [stops[:] for stops in stop_lists]
    routes = repair_stops(stop_lists, g, inst.capacity)
    assert any(len(old) > len(new) and new[1:-1] != old[1:len(new) - 1]
               for old, new in zip(before, stop_lists))
    assert [r.stops for r in routes[:len(stop_lists)]] == stop_lists
    kept = [s for stops in stop_lists for s in stops[1:-1]]
    split_off = [r.stops[1] for r in routes[len(stop_lists):]]
    assert split_off and sorted(kept + split_off) == list(range(1, 51))


def test_postprocess_idempotent():
    for seed in range(5):
        inst = gen.random_instance(900 + seed, 20, width_range=(10, 40))
        g = Graph.from_instance(inst)
        cg, hist = coarsen(g, CoarseningParams(p_target=0.4, radius_coeff=2.0))
        rough = inflate(savings_solve(cg, inst.capacity), hist, g)
        once = light_postprocess(rough, g, inst.capacity)
        twice = light_postprocess(once, g, inst.capacity)
        assert [r.stops for r in twice.routes] == [r.stops for r in once.routes]


def test_postprocess_preserves_coverage():
    for seed in range(5):
        inst = gen.random_instance(950 + seed, 22, family="mixed")
        g = Graph.from_instance(inst)
        cg, hist = coarsen(g, CoarseningParams(p_target=0.3, radius_coeff=2.0))
        rough = inflate(greedy_solve(cg, inst.capacity), hist, g)
        out = light_postprocess(rough, g, inst.capacity)
        assert sorted(out.customer_stops) == list(range(1, 23))


# ---------------------------------------------------------------------------
# light_postprocess against its plain reference

def reference_light_postprocess(solution, graph, capacity):
    """light_postprocess as it was before it skipped settled routes, kept
    verbatim: every pass visits every route. light_postprocess must return
    the same solution."""
    stop_lists = [list(r.stops) for r in solution.routes]
    changed = True
    while changed:
        changed = False
        for stops in stop_lists:
            route = recompute_schedule(stops, graph)
            for pos in route.late_stops:
                if pos < 2 or pos >= len(stops) - 1:
                    continue  # only interior customer pairs can swap
                trial = stops[:]
                trial[pos - 1], trial[pos] = trial[pos], trial[pos - 1]
                swapped = recompute_schedule(trial, graph)
                if (swapped.tw_violations < route.tw_violations
                        and pos not in swapped.late_stops
                        and pos - 1 not in swapped.late_stops):
                    stops[:] = trial
                    changed = True
                    break
        new_routes = []
        for stops in stop_lists:
            route = recompute_schedule(stops, graph, capacity)
            while route.over_capacity and len(route.customer_stops) > 1:
                last = stops[-2]
                del stops[-2]
                new_routes.append([DEPOT_ID, last, DEPOT_ID])
                route = recompute_schedule(stops, graph, capacity)
                changed = True
        stop_lists.extend(new_routes)
    routes = [recompute_schedule(stops, graph, capacity) for stops in stop_lists]
    return Solution(routes, solution.solver, solution.source_graph)


@settings(max_examples=150, deadline=None)
@given(inst=gen.windowed_instances(max_customers=20),
       radius=st.sampled_from([2.0, 6.0]), propagation=st.sampled_from(PROPAGATION_MODES),
       solver=st.sampled_from([greedy_solve, savings_solve]))
def test_postprocess_equals_reference(inst, radius, propagation, solver):
    # relaxed windows leave the inflated routes with late stops, and
    # super-nodes that no capacity check stopped leave them over capacity
    g = Graph.from_instance(inst)
    cg, hist = coarsen(g, CoarseningParams(alpha=0.9, beta=0.1, p_target=0.2,
                                           radius_coeff=radius, propagation=propagation))
    rough = inflate(solver(cg, inst.capacity), hist, g)
    assert (light_postprocess(rough, g, inst.capacity)
            == reference_light_postprocess(rough, g, inst.capacity))


# ---------------------------------------------------------------------------
# the merge history against the coarse graph

# each id names the mode's travel times, then its windows
@pytest.mark.parametrize("propagation", [pytest.param("relaxed", id="midpoint-relaxed"),
                                         pytest.param("conservative",
                                                      id="conservative-conservative")])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 60),
       radius=st.sampled_from([1.0, 4.0, 8.0]), p=st.sampled_from([0.1, 0.5]))
def test_the_history_expansion_partitions_the_customers(propagation, seed, n, radius, p):
    g = Graph.from_instance(gen.random_instance(seed, n, family="mixed", horizon=1000.0))
    cg, hist = coarsen(g, CoarseningParams(alpha=0.9, beta=0.1, p_target=p,
                                           radius_coeff=radius, propagation=propagation))
    expand = expansion_map(hist)            # the map inflate expands through
    assert set(expand) == {rec.super_id for rec in hist}
    members = [expand.get(node.id, [node.id]) for node in cg.customers]
    assert sorted(m for ms in members for m in ms) == g.customer_ids()
    for node, ms in zip(cg.customers, members):
        assert node.demand == pytest.approx(sum(g.node(m).demand for m in ms))

