import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coarsevrp.coarsening import (PROPAGATION_MODES, CoarseningParams, MergeRecord,
                                  aggregate_window, candidate_pairs, choose_direction,
                                  coarsen, merge_feasibility, merge_slack,
                                  radius_threshold, st_distance,
                                  temporal_separation)
from coarsevrp.graph import CoarseNode, Graph, travel_time
from coarsevrp.instances import Customer, Instance

import gen

TOL = 1e-9


def cnode(nid, ready, due, service=0.0, nominal=None, x=0.0, y=0.0, demand=0.0):
    if nominal is None:
        nominal = (ready + (due - service)) / 2.0
    return CoarseNode(nid, "customer", x, y, demand, service, ready, due,
                      nominal, (nid,))


# ---------------------------------------------------------------------------
# pairwise formulas (frozen values)

def test_temporal_separation_nominal_equal_times():
    i = cnode(1, 0, 100)          # nominal 50
    j = cnode(2, 0, 100)
    assert abs(temporal_separation(i, j, 5.0, "nominal") - 0.0) < TOL


def test_temporal_separation_strict_waiting():
    i = cnode(1, 0, 12, service=2.0)   # nominal (0 + 10)/2 = 5
    j = cnode(2, 20, 100)
    assert abs(temporal_separation(i, j, 5.0, "strict") - 8.0) < TOL


def test_temporal_separation_strict_clamps_to_zero():
    i = cnode(1, 0, 12, service=2.0)
    j = cnode(2, 10, 100)              # reachable without waiting
    assert abs(temporal_separation(i, j, 5.0, "strict") - 0.0) < TOL


def test_temporal_separation_unknown_mode():
    with pytest.raises(ValueError):
        temporal_separation(cnode(1, 0, 10), cnode(2, 0, 10), 1.0, "loose")


def test_st_distance_spatial_only():
    i, j = cnode(1, 0, 100), cnode(2, 0, 100)
    assert abs(st_distance(i, j, 7.5, 1.0, 0.0) - 7.5) < TOL


def test_st_distance_temporal_only_strict():
    i = cnode(1, 0, 12, service=2.0)
    j = cnode(2, 20, 100)
    assert abs(st_distance(i, j, 5.0, 0.0, 1.0, "strict") - 8.0) < TOL


def test_st_distance_even_blend():
    i, j = cnode(1, 0, 100), cnode(2, 0, 100)   # same nominal, dT = 0
    assert abs(st_distance(i, j, 5.0, 0.5, 0.5) - 2.5) < TOL


def test_merge_feasibility_forward_and_backward():
    i = cnode(1, 0, 100, service=10.0)
    j = cnode(2, 0, 100, service=10.0)
    assert merge_feasibility(i, j, 5.0) == (True, True)   # 0 <= 100-10-5-10 = 75


def test_merge_feasibility_both_blocked():
    i = cnode(1, 90, 50, service=10.0)
    j = cnode(2, 60, 50, service=10.0)
    assert merge_feasibility(i, j, 5.0) == (False, False)


def test_merge_feasibility_zero_service_zero_travel():
    i = cnode(1, 0, 10)
    j = cnode(2, 5, 15)
    assert merge_feasibility(i, j, 0.0) == (True, True)


def test_merge_slack_value():
    i = cnode(1, 0, 100, service=10.0)
    j = cnode(2, 0, 100, service=10.0)
    assert abs(merge_slack(i, j, 5.0) - 75.0) < TOL


def test_merge_slack_tie_keeps_lower_id_first():
    i = cnode(1, 0, 100, service=10.0)
    j = cnode(2, 0, 100, service=10.0)
    order = choose_direction(i, j, 5.0)
    assert (order[0].id, order[1].id) == (1, 2)


def test_merge_slack_zero_boundary_still_feasible():
    # ready_i exactly at the last workable moment
    i = cnode(1, 75, 200, service=10.0)
    j = cnode(2, 0, 100, service=10.0)
    assert abs(merge_slack(i, j, 5.0) - 0.0) < TOL
    assert merge_feasibility(i, j, 5.0)[0] is True


def test_choose_direction_picks_feasible_side():
    early = cnode(1, 0, 10, service=0.0)
    late = cnode(2, 50, 90, service=0.0)
    # late-then-early can never work; early-then-late does
    order = choose_direction(late, early, 2.0)
    assert (order[0].id, order[1].id) == (1, 2)
    blocked_i = cnode(3, 90, 50, service=10.0)
    blocked_j = cnode(4, 60, 50, service=10.0)
    assert choose_direction(blocked_i, blocked_j, 5.0) is None


def test_aggregate_window_relaxed():
    i = cnode(1, 0, 80, service=10.0)
    j = cnode(2, 30, 100, service=10.0)
    got = aggregate_window(i, j, 5.0, "relaxed")
    assert abs(got[0] - 0.0) < TOL and abs(got[1] - 90.0) < TOL


def test_aggregate_window_conservative():
    i = cnode(1, 0, 80, service=10.0)
    j = cnode(2, 30, 100, service=10.0)
    got = aggregate_window(i, j, 5.0, "conservative")
    assert abs(got[0] - 30.0) < TOL and abs(got[1] - 80.0) < TOL


def test_aggregate_window_conservative_empty_is_veto():
    i = cnode(1, 0, 10)
    j = cnode(2, 20, 30)
    ready, due = aggregate_window(i, j, 0.0, "conservative")
    assert ready > due


# ---------------------------------------------------------------------------
# radius

def _grid_instance(width, height, n, capacity=200.0):
    depot = Customer(0, width / 2, height / 2, 0, 0, 10_000, 0)
    customers = []
    k = 1
    per_side = int(math.ceil(math.sqrt(n)))
    for gy in range(per_side):
        for gx in range(per_side):
            if k > n:
                break
            customers.append(Customer(k, width * gx / (per_side - 1),
                                      height * gy / (per_side - 1),
                                      1, 0, 9_000, 0))
            k += 1
    return Instance("grid", 25, capacity, depot, tuple(customers[:n]))


def test_radius_threshold_worked_example():
    g = Graph.from_instance(_grid_instance(100, 60, 100))
    assert abs(g.extent() - 100.0) < TOL
    assert abs(radius_threshold(g, 1.0) - 10.0) < TOL


def test_radius_threshold_zero_coeff():
    g = Graph.from_instance(_grid_instance(100, 60, 100))
    assert radius_threshold(g, 0.0) == 0.0


def test_radius_threshold_scales_with_coeff():
    g = Graph.from_instance(_grid_instance(100, 60, 100))
    r1 = radius_threshold(g, 0.5)
    r2 = radius_threshold(g, 1.0)
    r3 = radius_threshold(g, 2.0)
    assert r1 < r2 < r3
    assert abs(r3 - 4 * r1) < TOL


def test_radius_threshold_coincident_nodes():
    depot = Customer(0, 5, 5, 0, 0, 100, 0)
    cs = tuple(Customer(i, 5, 5, 1, 0, 90, 0) for i in (1, 2, 3))
    g = Graph.from_instance(Instance("point", 3, 10, depot, cs))
    assert radius_threshold(g, 3.0) == 0.0


# ---------------------------------------------------------------------------
# one merge

def _three_node_graph():
    depot = Customer(0, 5, 5, 0, 0, 1000, 0)
    cs = (Customer(1, 0, 0, 10, 0, 500, 5),
          Customer(2, 4, 0, 20, 0, 500, 7),
          Customer(3, 10, 0, 5, 0, 500, 3))
    return Graph.from_instance(Instance("tri", 3, 100, depot, cs))


def test_contract_midpoint_attributes():
    g = _three_node_graph()
    window = aggregate_window(g.node(1), g.node(2), g.tau(1, 2), "relaxed")
    g2, (sup,) = g.contract([(1, 2, (1, 2), window)])
    assert (sup.x, sup.y) == (2.0, 0.0)
    assert abs(sup.demand - 30.0) < TOL
    assert abs(sup.service - 12.0) < TOL
    assert sup.members == (1, 2)
    assert sup.kind == "supernode"
    assert abs(sup.nominal_t - (window[0] + window[1]) / 2) < TOL
    assert abs(g2.tau(sup.id, 3) - 8.0) < TOL          # midpoint (2,0) to (10,0)
    assert sorted(g2.customer_ids()) == [3, sup.id]
    assert g2.node(0).id == 0                          # depot untouched


def test_contract_conservative_tau_is_worst_case():
    g = _three_node_graph()
    window = aggregate_window(g.node(1), g.node(2), g.tau(1, 2), "conservative")
    g2, (sup,) = g.contract([(1, 2, (1, 2), window)], conservative=True)
    assert abs(g2.tau(sup.id, 3) - 10.0) < TOL         # max(10, 6)
    for k in (0, 3):
        assert g2.tau(sup.id, k) >= g.tau(1, k) - TOL
        assert g2.tau(sup.id, k) >= g.tau(2, k) - TOL
    # internal leg absorbed into the occupancy
    assert abs(sup.service - (5.0 + 4.0 + 7.0)) < TOL


def test_merge_pair_rejects_bad_order():
    g = _three_node_graph()
    with pytest.raises(ValueError):
        g.contract([(1, 2, (1, 3), (0.0, 10.0))])


def test_contract_order_respected_in_members():
    g = _three_node_graph()
    g2, (sup,) = g.contract([(1, 2, (2, 1), (0.0, 500.0))])
    assert sup.members == (2, 1)


# ---------------------------------------------------------------------------
# coarsen

def _square_instance():
    depot = Customer(0, 50, 50, 0, 0, 10_000, 0)
    cs = (Customer(1, 0, 0, 1, 0, 1000, 0),
          Customer(2, 1, 0, 1, 0, 1000, 0),
          Customer(3, 0, 1, 1, 0, 1000, 0),
          Customer(4, 1, 1, 1, 0, 1000, 0))
    return Instance("square", 4, 10, depot, tuple(cs))


def test_coarsen_identity_at_p_one():
    g = Graph.from_instance(_square_instance())
    g2, hist = coarsen(g, CoarseningParams(p_target=1.0))
    assert len(hist) == 0
    assert g2.customer_ids() == g.customer_ids()


def test_coarsen_unit_square_two_supers():
    g = Graph.from_instance(_square_instance())
    trace = []
    g2, hist = coarsen(g, CoarseningParams(alpha=0.5, beta=0.5, p_target=0.5,
                                           radius_coeff=1.0), trace=trace)
    assert len(hist) == 2
    assert g2.customer_count == 2
    assert [r.order for r in hist] == [(1, 2), (3, 4)]
    assert [r.super_id for r in hist] == [5, 6]
    assert trace[0]["merges_applied"] == 2
    assert trace[0]["stop"] == "target"
    assert sorted(g2.node(5).members + g2.node(6).members) == [1, 2, 3, 4]


def test_coarsen_halts_on_conservative_veto():
    depot = Customer(0, 0, 0, 0, 0, 1000, 0)
    cs = (Customer(1, 1, 0, 1, 0, 10, 0),
          Customer(2, 2, 0, 1, 20, 30, 0))
    g = Graph.from_instance(Instance("veto", 2, 10, depot, cs))
    trace = []
    g2, hist = coarsen(g, CoarseningParams(alpha=0.5, beta=0.5, p_target=0.5,
                                           radius_coeff=30.0,
                                           propagation="conservative"),
                       trace=trace)
    assert len(hist) == 0
    assert g2.customer_ids() == [1, 2]
    assert trace[-1]["merges_applied"] == 0
    assert trace[-1]["candidates"] >= 1       # the pair was close enough, just vetoed
    assert trace[-1]["stop"] == "stalled"


def test_coarsen_zero_radius_makes_no_candidates():
    g = Graph.from_instance(_square_instance())
    trace = []
    g2, hist = coarsen(g, CoarseningParams(p_target=0.25, radius_coeff=0.0),
                       trace=trace)
    assert len(hist) == 0
    assert trace[-1]["candidates"] == 0


def test_coarsen_deterministic():
    inst = gen.random_instance(21, 40)
    g = Graph.from_instance(inst)
    params = CoarseningParams(alpha=0.9, beta=0.1, p_target=0.3, radius_coeff=2.0)
    _, h1 = coarsen(g, params)
    _, h2 = coarsen(g, params)
    assert h1 == h2


def test_params_validation():
    with pytest.raises(ValueError):
        CoarseningParams(alpha=0.0, beta=0.0)
    with pytest.raises(ValueError):
        CoarseningParams(p_target=0.0)
    with pytest.raises(ValueError):
        CoarseningParams(p_target=1.5)
    with pytest.raises(ValueError):
        CoarseningParams(radius_coeff=-1.0)
    with pytest.raises(ValueError):
        CoarseningParams(propagation="optimistic")


def test_weight_order_invariant_under_joint_scaling():
    inst = gen.random_instance(33, 25)
    g = Graph.from_instance(inst)
    ids = g.customer_ids()
    p1 = CoarseningParams(alpha=0.2, beta=0.6)
    p2 = CoarseningParams(alpha=1.0, beta=3.0)    # same ratio, 5x scale
    pairs = [(i, j) for k, i in enumerate(ids) for j in ids[k + 1:]]
    w1 = sorted(pairs, key=lambda p: (st_distance(g.node(p[0]), g.node(p[1]), g.tau(*p),
                                                  p1.alpha, p1.beta), p))
    w2 = sorted(pairs, key=lambda p: (st_distance(g.node(p[0]), g.node(p[1]), g.tau(*p),
                                                  p2.alpha, p2.beta), p))
    assert w1 == w2


# ---------------------------------------------------------------------------
# multilevel structure properties (seeded loops)

def _replay(graph, history, conservative):
    """Re-apply the records one by one, checking structure at every level."""
    n_original = graph.customer_count
    original_ids = set(graph.customer_ids())
    demand0 = sum(n.demand for n in graph.customers)
    service0 = sum(n.service for n in graph.customers)
    for rec in history:
        first, second = rec.order
        ni, nj = graph.node(first), graph.node(second)
        fwd, _ = merge_feasibility(ni, nj, graph.tau(first, second))
        assert fwd, f"recorded direction infeasible at its level: {rec}"
        graph, (sup,) = graph.contract([(rec.left, rec.right, rec.order, rec.window)],
                                       conservative)
        assert sup.id == rec.super_id
        members = sorted(graph.member_ids())
        assert members == sorted(original_ids), "member partition broken"
        assert abs(sum(n.demand for n in graph.customers) - demand0) < 1e-6
        if not conservative:
            assert abs(sum(n.service for n in graph.customers) - service0) < 1e-6
        assert 0 not in {rec.left, rec.right}, "depot merged"
    return graph


@pytest.mark.parametrize("propagation", [pytest.param("relaxed", id="midpoint-relaxed"),
                                         pytest.param("conservative",
                                                      id="conservative-conservative")])
def test_coarsen_structure_replay(propagation):
    for seed in range(6):
        inst = gen.random_instance(100 + seed, 30 + 3 * seed, family="clustered")
        g = Graph.from_instance(inst)
        params = CoarseningParams(alpha=0.5, beta=0.5, p_target=0.4,
                                  radius_coeff=2.0, propagation=propagation)
        trace = []
        cg, hist = coarsen(g, params, trace=trace)
        n0 = g.customer_count
        assert (cg.customer_count <= math.ceil(params.p_target * n0)
                or trace[-1]["merges_applied"] == 0)
        replayed = _replay(g, hist, propagation == "conservative")
        assert sorted(replayed.customer_ids()) == sorted(cg.customer_ids())
        for i in replayed.customer_ids():
            a, b = replayed.node(i), cg.node(i)
            assert a == b
        ids = [0, *cg.customer_ids()]
        for k, i in enumerate(ids):
            for j in ids[k + 1:]:
                assert replayed.tau(i, j) == cg.tau(i, j)


# ---------------------------------------------------------------------------
# what each coarse travel time is

@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(6, 60),
       propagation=st.sampled_from(PROPAGATION_MODES))
def test_coarse_travel_times_follow_positions_or_members(seed, n, propagation):
    g = Graph.from_instance(gen.random_instance(seed, n, family="mixed", horizon=1000.0))
    trace = []
    cg, _ = coarsen(g, CoarseningParams(alpha=0.9, beta=0.1, p_target=0.1, radius_coeff=4.0,
                                        propagation=propagation),
                    trace=trace)
    # two merging rounds, so the second contracts a graph that holds super-nodes
    assume(sum(r["merges_applied"] > 0 for r in trace) >= 2)
    ids = [0, *cg.customer_ids()]
    for k, a in enumerate(ids):
        for b in ids[k + 1:]:
            na, nb = cg.node(a), cg.node(b)
            if propagation == "relaxed":
                expected = travel_time(na, nb)
            else:
                expected = max(travel_time(g.node(x), g.node(y))
                               for x in na.members for y in nb.members)
            assert cg.tau(a, b) == expected, (a, b)


# ---------------------------------------------------------------------------
# sweep-pruned candidate scan (property tests)

def _full_scan(graph, params, rho):
    """Every customer pair weighed, the way coarsen ranked them before pruning."""
    ids = graph.customer_ids() if rho > 0 else []      # radius 0 proposes nothing
    out = []
    for k, i in enumerate(ids):
        for j in ids[k + 1:]:
            w = st_distance(graph.node(i), graph.node(j), graph.tau(i, j),
                            params.alpha, params.beta)
            if w <= rho:
                out.append((w, i, j))
    return sorted(out)


def _graph_of(points, windows, horizon=1000.0):
    depot = Customer(0, 0.0, 0.0, 0, 0, horizon, 0)
    cs = tuple(Customer(k + 1, x, y, 1, ready, ready + width, service)
               for k, ((x, y), (ready, width, service)) in enumerate(zip(points, windows)))
    return Graph.from_instance(Instance("prop", 5, 100.0, depot, cs))


coordinate = st.one_of(st.integers(0, 12).map(float),
                       st.floats(0, 100, allow_nan=False, allow_infinity=False))
weights = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), st.floats(0, 2))


@st.composite
def scan_graphs(draw):
    """A graph of up to 30 customers and its mode: optionally a few pairs are
    contracted first, so super-nodes and worst-case (conservative) travel
    times are scanned too."""
    n = draw(st.integers(2, 30))
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=n, max_size=n))
    windows = draw(st.lists(st.tuples(st.integers(0, 500), st.integers(0, 300),
                                      st.integers(0, 20)), min_size=n, max_size=n))
    graph = _graph_of(points, windows)
    conservative = draw(st.booleans())
    ids = draw(st.permutations(graph.customer_ids()))
    k = draw(st.integers(0, n // 2))
    merges = [(i, j, (i, j), (0.0, float(draw(st.integers(0, 900)))))
              for i, j in zip(ids[:k], ids[k:2 * k])]
    graph, _ = graph.contract(merges, conservative)
    return graph, conservative


@st.composite
def scan_cases(draw):
    graph, _ = draw(scan_graphs())
    alpha, beta = draw(weights), draw(weights)
    assume(alpha + beta > 0)
    params = CoarseningParams(alpha=alpha, beta=beta)
    rho = draw(st.one_of(st.floats(0, 150), st.integers(0, 30).map(float)))
    return graph, params, rho


@settings(max_examples=300, deadline=None)
@given(scan_cases())
def test_pruned_scan_equals_full_scan(case):
    graph, params, rho = case
    candidates, scanned = candidate_pairs(graph, params, rho)
    assert candidates == _full_scan(graph, params, rho)
    n = graph.customer_count
    assert len(candidates) <= scanned <= n * (n - 1) // 2


@pytest.mark.parametrize("weight", [0.3, 0.5, 0.7, 0.9, 1.0])
@pytest.mark.parametrize("rho", [0.1, 1.0, 3.7, 12.5])
def test_scan_keeps_pairs_one_cell_side_apart(weight, rho):
    # customers one window apart (rho/alpha in x, then in y, then rho/beta in
    # nominal time) behind an anchor at 0, so the sweep runs along that axis
    # and every neighbouring pair sits at the window's edge, at offsets that
    # put the first one just inside a window of the anchor too
    side = rho / weight
    offsets = [k / 16 for k in range(16)] + [1 - 10.0**-k for k in range(2, 13, 2)]
    boundary_pairs = 0
    for offset in offsets:
        xs = [0.0] + [(offset + k) * side for k in range(6)]
        along_x = _graph_of([(x, 0.0) for x in xs], [(100, 50, 0)] * 7)
        along_y = _graph_of([(0.0, x) for x in xs], [(100, 50, 0)] * 7)
        temporal = _graph_of([(5.0, 5.0)] * 7, [(x, 0, 0) for x in xs])
        for g, params in ((along_x, CoarseningParams(alpha=weight, beta=0.0)),
                          (along_y, CoarseningParams(alpha=weight, beta=0.0)),
                          (temporal, CoarseningParams(alpha=0.0, beta=weight))):
            candidates, _ = candidate_pairs(g, params, rho)
            assert candidates == _full_scan(g, params, rho)
            boundary_pairs += sum(i > 1 and j == i + 1 for _, i, j in candidates)
    # neighbours sit at w ~ rho; rounding pushes some of them just past it
    assert boundary_pairs >= 3 * len(offsets)


@pytest.mark.parametrize("weight,rho,a,b", [
    (0.1, 32.95879881751642, 88.69257287109427, 418.28056104625847),
    (0.43602256292313024, 40.30683991869017, 22.905284900868562, 115.3473815861178)])
def test_scan_window_margin_keeps_pairs_rounding_puts_past_the_window(weight, rho, a, b):
    # weight*|a - b| <= rho in floats, yet b > a + rho/weight: only the margin keeps the pair
    assert weight * (b - a) <= rho and b > a + rho / weight
    for g, params in ((_graph_of([(a, 0.0), (b, 0.0)], [(100, 50, 0)] * 2),
                       CoarseningParams(alpha=weight, beta=0.0)),
                      (_graph_of([(0.0, a), (0.0, b)], [(100, 50, 0)] * 2),
                       CoarseningParams(alpha=weight, beta=0.0))):
        candidates, _ = candidate_pairs(g, params, rho)
        assert candidates == _full_scan(g, params, rho) != []


@pytest.mark.parametrize("alpha,rho", [(1e300, 1e-30), (1e-320, 1.0), (0.5, 1e300)])
def test_scan_survives_degenerate_cell_sides(alpha, rho):
    # windows that underflow to 0 on a flat axis or overflow to inf
    g = _graph_of([(float(k), 0.0) for k in range(6)], [(0, 500, 5)] * 6)
    params = CoarseningParams(alpha=alpha, beta=0.5)
    candidates, _ = candidate_pairs(g, params, rho)
    assert candidates == _full_scan(g, params, rho)
    # every weighted axis has zero spread: no axis prunes, so all pairs are weighed
    g = _graph_of([(3.0, 4.0)] * 6, [(0, 500, 5)] * 6)
    candidates, scanned = candidate_pairs(g, params, rho)
    assert candidates == _full_scan(g, params, rho)
    assert scanned == 6 * 5 // 2


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 40),
       alpha=st.sampled_from([0.0, 0.1, 0.5, 0.9]), beta=st.sampled_from([0.0, 0.1, 0.5]))
def test_pairs_scanned_is_all_pairs_when_rho_covers_the_extent(seed, n, alpha, beta):
    assume(alpha + beta > 0)
    g = Graph.from_instance(gen.random_instance(seed, n))
    times = [c.nominal_t for c in g.customers]
    t_extent = max(times) - min(times)
    # rho = radius_coeff * extent / sqrt(n) >= alpha * extent and >= beta * t_extent
    coeff = math.sqrt(n) * max(alpha, beta * t_extent / g.extent()) + 1.0
    params = CoarseningParams(alpha=alpha, beta=beta, p_target=0.5, radius_coeff=coeff)
    _, scanned = candidate_pairs(g, params, radius_threshold(g, coeff))
    assert scanned == n * (n - 1) // 2
    # coarsen weighs the outer half of the window only between unmatched nodes
    trace = []
    coarsen(g, params, trace=trace)
    for r in trace:
        m = r["nodes_before"]
        assert r["candidates"] <= r["pairs_scanned"] <= m * (m - 1) // 2


def test_trace_reports_pairs_scanned_and_stop():
    g = Graph.from_instance(gen.random_instance(5, 60, family="clustered"))
    trace = []
    cg, _ = coarsen(g, CoarseningParams(alpha=0.9, beta=0.1, p_target=0.3,
                                        radius_coeff=1.0), trace=trace)
    assert trace[0]["pairs_scanned"] < 60 * 59 // 2
    assert [r.get("stop") for r in trace[:-1]] == [None] * (len(trace) - 1)
    assert trace[-1]["stop"] == ("target" if cg.customer_count <= 0.3 * 60 else "stalled")


# ---------------------------------------------------------------------------
# ring-by-ring matching against one full scan per round

def _reference_coarsen(graph, params):
    """coarsen as it ran before its matching went ring by ring: each round
    weighs every pair, ranks those within the radius by (w, i, j) and
    matches them greedily with the same vetoes."""
    n0 = graph.customer_count
    history = []
    while graph.customer_count > params.p_target * n0:
        used, merges = set(), []
        for _, i, j in _full_scan(graph, params, radius_threshold(graph, params.radius_coeff)):
            if i in used or j in used:
                continue
            tau = graph.tau(i, j)
            order = choose_direction(graph.node(i), graph.node(j), tau)
            if order is None:
                continue
            window = aggregate_window(order[0], order[1], tau, params.propagation)
            if window[0] > window[1]:
                continue
            used.update((i, j))
            merges.append((i, j, (order[0].id, order[1].id), window))
        if not merges:
            break
        graph, supers = graph.contract(merges, params.propagation == "conservative")
        history.extend(MergeRecord(sup.id, i, j, order, window)
                       for sup, (i, j, order, window) in zip(supers, merges))
    return graph, history


@st.composite
def coarsen_cases(draw):
    graph, conservative = draw(scan_graphs())
    alpha, beta = draw(weights), draw(weights)
    assume(alpha + beta > 0)
    # from radius 0 up to a coefficient whose first radius covers every pair
    times = [c.nominal_t for c in graph.customers]
    extent = graph.extent()
    cover = 1.0
    if extent:
        cover += math.sqrt(graph.customer_count) * max(
            alpha, beta * (max(times) - min(times)) / extent)
    return graph, CoarseningParams(
        alpha=alpha, beta=beta, p_target=draw(st.floats(0.01, 1)),
        radius_coeff=draw(st.floats(0, 1)) * cover,
        propagation="conservative" if conservative else "relaxed")


# rho = 1 * extent 8 / sqrt(4) = 4: the pairs 1-2 and 2-3 weigh exactly rho/2,
# 3-4 weighs 3, beyond the window of rho/2, and 1-3 weighs rho
_HALF_RADIUS_CASE = (_graph_of([(1.0, 0.0), (3.0, 0.0), (5.0, 0.0), (8.0, 0.0)],
                               [(0, 900, 0)] * 4),
                     CoarseningParams(alpha=1.0, beta=0.0, p_target=0.5, radius_coeff=1.0))


@settings(max_examples=300, deadline=None)
@given(coarsen_cases())
@example(_HALF_RADIUS_CASE)
def test_coarsen_matches_as_one_full_scan_per_round(case):
    graph, params = case
    trace = []
    cg, history = coarsen(graph, params, trace=trace)
    ref, ref_history = _reference_coarsen(graph, params)
    assert history == ref_history
    assert cg.customers == ref.customers
    # each pair is weighed at most once: round 1 weighs no more than one full scan
    if trace:
        candidates, scanned = candidate_pairs(graph, params, trace[0]["rho"])
        assert trace[0]["pairs_scanned"] <= scanned
        assert trace[0]["candidates"] <= len(candidates)


def test_half_radius_pairs_match_before_the_outer_ring():
    graph, params = _HALF_RADIUS_CASE
    trace = []
    _, history = coarsen(graph, params, trace=trace)
    assert [(r.left, r.right) for r in history] == [(1, 2), (3, 4)]
    assert trace[0]["rho"] == 4.0
