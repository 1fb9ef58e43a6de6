import math
import random

import pytest

from coarsevrp.graph import (CoarseNode, Graph, nominal_visit_time,
                             recompute_schedule, travel_time)
from coarsevrp.instances import Customer, Instance

import gen

TOL = 1e-9


def node(nid, x, y, demand=0, service=0, ready=0, due=1000, kind="customer"):
    return CoarseNode(nid, kind, x, y, demand, service, ready, due,
                      nominal_visit_time
                      (Customer(nid, x, y, demand, ready, due, service)),
                      (nid,))


def two_point_instance(cx, cy, ready, due, service, horizon=1000.0):
    depot = Customer(0, 0, 0, 0, 0, horizon, 0)
    return Instance("two", 5, 100.0, depot,
                    (Customer(1, cx, cy, 10, ready, due, service),))


def test_travel_time_values():
    a, b = node(1, 0, 0), node(2, 3, 4)
    assert abs(travel_time(a, b) - 5.0) < TOL
    assert travel_time(a, a) == 0.0
    c = node(3, 1, 1)
    assert abs(travel_time(a, c) - math.sqrt(2)) < TOL


def test_nominal_visit_time_midpoint_and_earliest():
    c = Customer(1, 0, 0, 0, 0, 100, 0)
    assert abs(nominal_visit_time(c) - 50.0) < TOL
    c2 = Customer(2, 0, 0, 0, 912, 967, 90)
    assert abs(nominal_visit_time(c2) - 894.5) < TOL
    c3 = Customer(3, 0, 0, 0, 30, 990, 5)
    with pytest.raises(ValueError):
        nominal_visit_time(c3, policy="typical")


def test_schedule_wait_then_serve():
    inst = two_point_instance(10, 0, ready=20, due=30, service=5)
    g = Graph.from_instance(inst)
    route = recompute_schedule([0, 1, 0], g)
    st = route.schedule[1]
    assert abs(st.arrival - 10) < TOL
    assert abs(st.wait - 10) < TOL
    assert abs(st.service_start - 20) < TOL
    assert abs(st.departure - 25) < TOL
    assert route.tw_violations == 0


def test_schedule_flags_late_start():
    inst = two_point_instance(10, 0, ready=0, due=8, service=5)
    g = Graph.from_instance(inst)
    route = recompute_schedule([0, 1, 0], g)
    assert route.late_stops == (1,)
    assert route.schedule[1].wait == 0.0
    assert route.schedule[1].service_start == 10.0


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
                assert abs(g.tau(i, j) -
                           travel_time(g.node(i), g.node(j))) < TOL
    assert g.customer_count == 12
    assert g.member_ids() == list(range(1, 13))


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
    for a, b in zip(base.schedule, base.schedule[1:]):
        assert b.arrival >= a.departure - TOL
        assert b.service_start >= b.arrival - TOL
        assert b.departure >= b.service_start - TOL


def test_waiting_only_when_early():
    inst = gen.random_instance(9, 20)
    g = Graph.from_instance(inst)
    stops = [0, *g.customer_ids()[:6], 0]
    route = recompute_schedule(stops, g)
    for pos, st in enumerate(route.schedule):
        node_ = g.node(route.stops[pos])
        if st.wait > 0:
            assert st.arrival < node_.ready
            assert abs(st.service_start - node_.ready) < TOL
