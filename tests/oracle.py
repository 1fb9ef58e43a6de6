"""Test oracles that no command reaches: the savings value of one pair, and
an exact solver for tiny instances."""

import math

from coarsevrp.graph import DEPOT_ID, Graph, recompute_schedule
from coarsevrp.heuristics import Solution
from coarsevrp.instances import Instance


def savings_value(graph: Graph, i: int, j: int) -> float:
    """Distance saved by chaining i and j instead of two depot round trips."""
    return graph.tau(DEPOT_ID, i) + graph.tau(DEPOT_ID, j) - graph.tau(i, j)


def brute_force_optimal(instance: Instance, max_customers: int = 9) -> Solution | None:
    """Exhaustive minimum-distance solution with hard feasibility.

    Enumerates, per customer subset, the cheapest service order that respects
    every time window (depot return included) and the capacity, then picks
    the cheapest partition of all customers into such routes by dynamic
    programming over subsets. Returns None when no fully feasible solution
    exists. Deliberately refuses more than `max_customers` customers.

    The time simulation here is intentionally written out rather than shared
    with the Route machinery, so it can serve as an independent check.
    """
    n = len(instance.customers)
    if n > max_customers:
        raise ValueError(f"brute force capped at {max_customers} customers, got {n}")
    if n == 0:
        return Solution([], "brute-force", instance.name)
    pts = [instance.depot, *instance.customers]
    dist = [[math.hypot(a.x - b.x, a.y - b.y) for b in pts] for a in pts]
    ready = [c.ready for c in pts]
    due = [c.due for c in pts]
    serv = [c.service for c in pts]
    demand = [c.demand for c in pts]

    best_route: dict[int, tuple[float, tuple[int, ...]]] = {}

    def explore(mask_left, last, time, cost, path, best):
        # best is a 1-element list holding (cost, path) found so far for this subset
        if cost >= best[0][0]:
            return
        if mask_left == 0:
            t = time + dist[last][0]
            start = max(t, ready[0])
            if start <= due[0] and cost + dist[last][0] < best[0][0]:
                best[0] = (cost + dist[last][0], path)
            return
        m = mask_left
        while m:
            low = m & -m
            c = low.bit_length()   # customer ids are 1-based; bit k-1 <-> id k
            m ^= low
            t = time + dist[last][c]
            start = max(t, ready[c])
            if start > due[c]:
                continue
            explore(mask_left ^ low, c, start + serv[c], cost + dist[last][c],
                    path + (c,), best)

    full = (1 << n) - 1
    for mask in range(1, full + 1):
        total = sum(demand[k + 1] for k in range(n) if mask >> k & 1)
        if total > instance.capacity:
            continue
        best = [(math.inf, ())]
        explore(mask, 0, 0.0, 0.0, (), best)
        if best[0][0] < math.inf:
            best_route[mask] = best[0]

    INF = math.inf
    part_cost = [INF] * (full + 1)
    part_pick = [0] * (full + 1)
    part_cost[0] = 0.0
    for mask in range(1, full + 1):
        low = mask & -mask
        sub = mask
        while sub:
            if sub & low and sub in best_route:
                rest = part_cost[mask ^ sub]
                cand = best_route[sub][0] + rest
                if cand < part_cost[mask]:
                    part_cost[mask] = cand
                    part_pick[mask] = sub
            sub = (sub - 1) & mask
    if part_cost[full] == INF:
        return None

    graph = Graph.from_instance(instance)
    stops_lists = []
    mask = full
    while mask:
        sub = part_pick[mask]
        stops_lists.append([DEPOT_ID, *best_route[sub][1], DEPOT_ID])
        mask ^= sub
    stops_lists.reverse()
    routes = [recompute_schedule(s, graph, instance.capacity) for s in stops_lists]
    return Solution(routes, "brute-force", instance.name)
