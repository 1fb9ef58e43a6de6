import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsevrp.coarsening import CoarseningParams, coarsen
from coarsevrp.graph import (CoarseNode, Graph, nominal_visit_time, recompute_schedule,
                             walk_schedule)
from coarsevrp.heuristics import greedy_solve, savings_solve
from coarsevrp.instances import Customer, Instance

import gen

TOL = 1e-9


def node(nid, x, y, demand=0, service=0, ready=0, due=1000, kind="customer"):
    return CoarseNode(nid, kind, x, y, demand, service, ready, due,
                      nominal_visit_time
                      (Customer(nid, x, y, demand, ready, due, service)))


def test_radius_is_keyword_only():
    # a tenth positional argument, the old member tuple, is not taken as the radius
    with pytest.raises(TypeError):
        CoarseNode(1, "customer", 0.0, 0.0, 0.0, 0.0, 0.0, 10.0, 5.0, (1,))
    assert node(1, 0, 0).radius == 0.0


def two_point_instance(cx, cy, ready, due, service, horizon=1000.0):
    depot = Customer(0, 0, 0, 0, 0, horizon, 0)
    return Instance("two", 5, 100.0, depot,
                    (Customer(1, cx, cy, 10, ready, due, service),))


def test_travel_time_values():
    g = Graph({0: node(0, 0, 0, kind="depot"), 1: node(1, 3, 4), 2: node(2, 1, 1)})
    assert abs(g.tau(0, 1) - 5.0) < TOL
    assert g.tau(0, 0) == 0.0
    assert abs(g.tau(0, 2) - math.sqrt(2)) < TOL
    assert g.taus(0, [1, 0, 2]) == [g.tau(0, 1), g.tau(0, 0), g.tau(0, 2)]


def test_nominal_visit_time_midpoint_and_earliest():
    c = Customer(1, 0, 0, 0, 0, 100, 0)
    assert abs(nominal_visit_time(c) - 50.0) < TOL
    c2 = Customer(2, 0, 0, 0, 912, 967, 90)
    assert abs(nominal_visit_time(c2) - 894.5) < TOL


def test_schedule_wait_then_serve():
    inst = two_point_instance(10, 0, ready=20, due=30, service=5)
    g = Graph.from_instance(inst)
    route = recompute_schedule([0, 1, 0], g)
    assert abs(route.arrivals[1] - 10) < TOL
    assert abs(route.starts[1] - route.arrivals[1] - 10) < TOL
    assert abs(route.starts[1] - 20) < TOL
    assert abs(route.departures[1] - 25) < TOL
    assert route.tw_violations == 0


def test_schedule_flags_late_start():
    inst = two_point_instance(10, 0, ready=0, due=8, service=5)
    g = Graph.from_instance(inst)
    route = recompute_schedule([0, 1, 0], g)
    assert route.late_stops == (1,)
    assert route.starts[1] == route.arrivals[1]
    assert route.starts[1] == 10.0


def test_schedule_empty_route():
    inst = two_point_instance(10, 0, 0, 100, 0)
    g = Graph.from_instance(inst)
    route = recompute_schedule([0, 0], g)
    assert route.duration == 0.0
    assert route.tw_violations == 0


def test_schedule_requires_depot_endpoints():
    inst = two_point_instance(10, 0, 0, 100, 0)
    g = Graph.from_instance(inst)
    with pytest.raises(ValueError):
        recompute_schedule([0, 1], g)
    with pytest.raises(ValueError):
        recompute_schedule([1, 0], g)


def test_capacity_flag():
    inst = two_point_instance(10, 0, 0, 100, 0)
    g = Graph.from_instance(inst)
    assert recompute_schedule([0, 1, 0], g, capacity=5.0).over_capacity
    assert not recompute_schedule([0, 1, 0], g, capacity=10.0).over_capacity


def test_graph_from_instance_tau_symmetric():
    inst = gen.random_instance(3, 12)
    g = Graph.from_instance(inst)
    ids = [0, *g.customer_ids()]
    for i in ids:
        for j in ids:
            assert abs(g.tau(i, j) - g.tau(j, i)) < TOL
            if i != j:
                a, b = g.node(i), g.node(j)
                assert abs(g.tau(i, j) - math.hypot(a.x - b.x, a.y - b.y)) < TOL
    assert g.customer_count == 12
    assert g.customer_ids() == list(range(1, 13))


def test_schedule_monotone_in_departure():
    # pushing the whole route later never makes any stop earlier
    rng = random.Random(11)
    inst = gen.random_instance(5, 8)
    g = Graph.from_instance(inst)
    stops = [0, *rng.sample(g.customer_ids(), 4), 0]
    base = recompute_schedule(stops, g)
    # simulate a later start by inflating the first leg: insert a detour stop is
    # not possible, so compare successive prefixes instead: arrival at k+1 is a
    # nondecreasing function of departure at k by construction of max().
    for k in range(1, len(stops)):
        assert base.arrivals[k] >= base.departures[k - 1] - TOL
        assert base.starts[k] >= base.arrivals[k] - TOL
        assert base.departures[k] >= base.starts[k] - TOL


def test_waiting_only_when_early():
    inst = gen.random_instance(9, 20)
    g = Graph.from_instance(inst)
    stops = [0, *g.customer_ids()[:6], 0]
    route = recompute_schedule(stops, g)
    for pos, (arrival, start) in enumerate(zip(route.arrivals, route.starts)):
        node_ = g.node(route.stops[pos])
        if start - arrival > 0:
            assert arrival < node_.ready
            assert abs(start - node_.ready) < TOL


def test_a_waiting_stop_starts_exactly_at_ready():
    # the vehicle arrives at 3.16 and waits for a window that is the single
    # instant r; arrival + (r - arrival) rounds one ulp past r, so only a
    # start of max(arrival, r) is on time
    r = 7.273238618387272
    g = Graph.from_instance(two_point_instance(1, 3, ready=r, due=r, service=0,
                                               horizon=100.0))
    for solve in (greedy_solve, savings_solve):
        [route] = solve(g, 100.0).routes
        assert route.stops == [0, 1, 0]
        assert route.late_stops == ()
        assert route.starts[1] == r
    assert walk_schedule(g, 0, 0.0, (1,))[0] == 0


# ---------------------------------------------------------------------------
# Graph.contract: one batched round equals the same merges one at a time

def _random_round(graph, ids, flips, k):
    """k disjoint merges over `ids`, in that order, each with some window."""
    merges = []
    for (i, j), flip in zip(zip(ids[:k], ids[k:2 * k]), flips):
        a, b = graph.node(i), graph.node(j)
        merges.append(((j, i) if flip else (i, j),
                       (min(a.ready, b.ready), max(a.due, b.due))))
    return merges


def _same_graph(g, h):
    assert g.customers == h.customers               # same nodes, in the same order
    ids = [0, *g.customer_ids()]
    for k, i in enumerate(ids):
        for j in ids[k + 1:]:
            assert g.tau(i, j) == h.tau(i, j), (i, j)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 45),
       conservative=st.booleans(), data=st.data())
def test_contract_round_equals_merges_one_at_a_time(seed, n, conservative, data):
    g = Graph.from_instance(gen.random_instance(seed, n, family="mixed"))
    for _ in range(2):            # the second round merges super-nodes too
        ids = data.draw(st.permutations(g.customer_ids()))
        if len(ids) < 2:
            break
        k = data.draw(st.integers(1, len(ids) // 2))
        flips = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
        merges = _random_round(g, ids, flips, k)
        batched, supers = g.contract(merges, conservative)
        one_by_one = g
        for merge, batched_super in zip(merges, supers):
            one_by_one, (sup,) = one_by_one.contract([merge], conservative)
            assert sup == batched_super
        top = max(g.customer_ids())
        assert [s.id for s in supers] == list(range(top + 1, top + 1 + k))
        _same_graph(batched, one_by_one)
        g = batched


def test_contract_rejects_unknown_and_overlapping_merges():
    g = Graph.from_instance(gen.random_instance(4, 6))
    w = (0.0, 100.0)
    bad_rounds = [
        [((1, 2), w), ((2, 3), w)],                   # 2 merged twice
        [((1, 2), w), ((3, 1), w)],                   # 1 merged twice
        [((0, 1), w)],                                 # the depot
        [((1, 9), w)],                                 # no such node
        [((1, 2), w), ((7, 3), w)],                   # a super made in this call
        [((1, 2, 3), w)],                              # an order that is not two ids
        [((4, 4), w)],                                 # a node with itself
    ]
    for merges in bad_rounds:
        with pytest.raises(ValueError):
            g.contract(merges)
    sub, _ = g.contract([((1, 2), w)])
    with pytest.raises(ValueError):
        sub.contract([((1, 3), w)])                     # merged in an earlier round


def _all_taus(graph):
    ids = [0, *graph.customer_ids()]
    return [graph.tau(a, b) for a in ids for b in ids], [graph.taus(a, ids) for a in ids]


@pytest.mark.parametrize("first", [False, True])
def test_contract_keeps_the_mode_of_a_graph_with_super_nodes(first):
    g = Graph.from_instance(gen.random_instance(4, 6))
    w = (0.0, 100.0)
    empty, _ = g.contract([], first)                    # no super-node yet: either mode
    assert _all_taus(empty) == _all_taus(g)             # and no radius to add
    empty.contract([((1, 2), w)], not first)
    sub, _ = g.contract([((1, 2), w)], first)
    assert sub.conservative == first
    with pytest.raises(ValueError):
        sub.contract([((3, 4), w)], not first)
    assert sub.contract([((3, 4), w)], first)[0].conservative == first
    # the mode comes from the nodes' radii: a graph rebuilt from a coarse
    # graph's node table, here acceptance test 6's, keeps every travel time
    coarse, _ = coarsen(Graph.from_instance(gen.random_instance(301, 40, family="clustered")),
                        CoarseningParams(alpha=0.9, beta=0.1, p_target=0.3, radius_coeff=4.0,
                                         propagation="conservative" if first else "relaxed"))
    for graph in (sub, coarse):
        rebuilt = Graph({n: graph.node(n) for n in [0, *graph.customer_ids()]}, graph.name)
        assert rebuilt.conservative == graph.conservative == first
        assert _all_taus(rebuilt) == _all_taus(graph)


def test_conservative_tau_covers_collinear_members_after_rounding():
    # collinear points through the depot, where the bound holds with equality;
    # one ulp up left tau(16, 20) at 0.05813776741499453, below the distance
    # 0.05813776741499454 from a member of 16 to one of 20
    ks = (27, 15, 26, 32, 33, 11, 8, 35, 6, 23, 26, 6, 1, 20, 35)
    g = Graph.from_instance(Instance("line", 5, 100.0, Customer(0, 0.0, 0.0, 0, 0, 1000, 0),
                                     tuple(Customer(i, k * 2e-3, k * 1e-3, 1, 0, 900, 0)
                                           for i, k in enumerate(ks, 1))))
    merges = [(9, 12), (7, 6), (11, 1), (10, 2), (4, 3), (8, 13), (14, 5)]
    coarse, supers = g.contract([(m, (0.0, 900.0)) for m in merges], conservative=True)
    members = {0: (0,), **{s.id: m for s, m in zip(supers, merges)}}
    assert all(s.radius > 0 for s in supers)          # 16 = (9, 12) is one point twice
    for a in members:
        for b in members:
            exact = max(g.tau(x, y) for x in members[a] for y in members[b])
            assert coarse.tau(a, b) >= exact, (a, b)
            assert coarse.taus(a, [b]) == [coarse.tau(a, b)]


# ---------------------------------------------------------------------------
# Graph.taus: one node to many, equal to tau pair by pair

@settings(max_examples=60, deadline=None)
@given(inst=gen.windowed_instances(max_customers=16), data=st.data())
def test_taus_equals_tau(inst, data):
    g = Graph.from_instance(inst)
    ids = g.customer_ids()
    k = len(ids) // 2
    merges = [((i, j), (0.0, 1000.0)) for i, j in zip(ids[:k], ids[k:2 * k])]
    cases = [(g, [0, *ids[:1]])]
    for conservative in (False, True):
        coarse, supers = g.contract(merges, conservative)
        cases.append((coarse, [0, *(s.id for s in supers)]))
    for graph, sources in cases:
        everyone = [0, *graph.customer_ids()]
        for a in sources:
            bs = data.draw(st.lists(st.sampled_from(everyone), max_size=20))
            for targets in (bs, everyone):                # the depot is in `everyone`
                assert graph.taus(a, targets) == [graph.tau(a, b) for b in targets]


def _assert_taus_rows_equal_tau(graph):
    everyone = [0, *graph.customer_ids()]
    for a in everyone:
        assert graph.taus(a, everyone) == [graph.tau(a, b) for b in everyone], a


def test_each_graph_reads_its_own_point_table():
    # taus reads a point table that a graph builds on its first call. Build the
    # parent's first: a table shared with, or copied into, a contracted graph
    # lacks the super-nodes (and keeps the merged customers); one kept at class
    # level gives another instance's points to the same ids.
    g = Graph.from_instance(gen.random_instance(5, 14))
    _assert_taus_rows_equal_tau(g)
    ids = g.customer_ids()
    merges = [((i, j), (0.0, 400.0)) for i, j in zip(ids[0:8:2], ids[1:8:2])]
    for conservative in (False, True):
        coarse, supers = g.contract(merges, conservative)
        assert len(supers) == 4
        _assert_taus_rows_equal_tau(coarse)
        again, _ = coarse.contract([((supers[0].id, supers[1].id), (0.0, 400.0))],
                                   conservative)
        _assert_taus_rows_equal_tau(again)
    _assert_taus_rows_equal_tau(Graph.from_instance(gen.random_instance(6, 14)))


# ---------------------------------------------------------------------------
# a route's timetable: three float lists, one entry per stop

def _solved_routes(inst):
    """(graph, route) for every route of both solvers, on the full graph and
    on acceptance test 6's conservative coarse graph."""
    g = Graph.from_instance(inst)
    coarse, _ = coarsen(g, CoarseningParams(alpha=0.9, beta=0.1, p_target=0.3,
                                            radius_coeff=4.0, propagation="conservative"))
    for graph in (g, coarse):
        for solve in (greedy_solve, savings_solve):
            for route in solve(graph, inst.capacity).routes:
                yield graph, route


@settings(max_examples=60, deadline=None)
@given(inst=gen.windowed_instances(max_customers=16))
def test_timetable_lists_follow_the_start_rule(inst):
    for g, route in _solved_routes(inst):
        stops, arrivals, starts, departures = (route.stops, route.arrivals, route.starts,
                                               route.departures)
        for times in (arrivals, starts, departures):
            assert len(times) == len(stops) and times[0] == 0.0
        for k in range(1, len(stops)):
            node_ = g.node(stops[k])
            assert arrivals[k] == departures[k - 1] + g.tau(stops[k - 1], stops[k])
            assert starts[k] == max(arrivals[k], node_.ready)
            assert departures[k] == starts[k] + node_.service
        assert route.late_stops == tuple(k for k in range(len(stops))
                                         if starts[k] > g.node(stops[k]).due)


@settings(max_examples=60, deadline=None)
@given(inst=gen.windowed_instances(max_customers=16))
def test_walk_from_a_departure_reproduces_the_route_tail(inst):
    # savings' merge test walks on from a stored departure
    for g, route in _solved_routes(inst):
        stops, departures = route.stops, route.departures
        for k in range(len(stops)):
            late_after = sum(q > k for q in route.late_stops)
            assert walk_schedule(g, stops[k], departures[k], stops[k + 1:]) == (
                late_after, departures[-1])
