"""Constructive route builders and a small exact oracle.

Both heuristics work on any Graph (original or coarsened) and only need the
vehicle capacity; they never assume Euclidean travel times, so they run
unchanged on coarse graphs whose super-node times bound their members'.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import itemgetter

from ._records import Record, _fill
from .graph import DEPOT_ID, Graph, Route, recompute_schedule, walk_schedule
from .instances import Instance


class Solution(Record):
    __slots__ = ("routes", "solver", "source_graph")

    def __init__(self, routes: list[Route], solver: str, source_graph: str):
        _fill(self, (routes, solver, source_graph))

    @property
    def customer_stops(self) -> list[int]:
        out = []
        for r in self.routes:
            out.extend(r.customer_stops)
        return out


def greedy_solve(graph: Graph, capacity: float) -> Solution:
    """Nearest-feasible-neighbour construction.

    Extends the current route with the closest unrouted node that fits the
    remaining capacity, can be served by its due time, and still allows the
    return to the depot; ties go to the lower id. When nothing fits, the
    route is closed and a fresh one opened. Nodes infeasible even on a fresh
    route end the solution as one-customer routes, each late or over
    capacity, so nothing is silently dropped.

    The depot legs come from one Graph.taus call. At each step the
    unrouted nodes that fit the load, in id order, get their legs from the
    route's last stop in one more, and are tried in the order of a stable
    sort on the leg until one meets both time tests: the smallest leg,
    ties going to the lower id.
    """
    depot = graph.depot
    unrouted = graph.customer_ids()
    nodes = {c: graph.node(c) for c in unrouted}
    homes = dict(zip(unrouted, graph.taus(DEPOT_ID, unrouted)))
    routes: list[Route] = []
    while unrouted:
        stops = [DEPOT_ID]
        time = 0.0
        load = 0.0
        while True:
            fits = [c for c in unrouted if not load + nodes[c].demand > capacity]
            for leg, c in sorted(zip(graph.taus(stops[-1], fits), fits), key=itemgetter(0)):
                node = nodes[c]
                start = max(time + leg, node.ready)
                if start > node.due or start + node.service + homes[c] > depot.due:
                    continue
                time = start + node.service
                load += node.demand
                stops.append(c)
                unrouted.remove(c)
                break
            else:
                break
        if len(stops) == 1:
            # nothing fits even a fresh vehicle: emit the rest as singletons
            for c in unrouted:
                routes.append(recompute_schedule([DEPOT_ID, c, DEPOT_ID], graph, capacity))
            break
        routes.append(recompute_schedule(stops + [DEPOT_ID], graph, capacity))
    return Solution(routes, "greedy", graph.name)


def savings_value(graph: Graph, i: int, j: int) -> float:
    """Distance saved by chaining i and j instead of two depot round trips."""
    return graph.tau(DEPOT_ID, i) + graph.tau(DEPOT_ID, j) - graph.tau(i, j)


def savings_solve(graph: Graph, capacity: float) -> Solution:
    """Parallel savings construction adapted to time windows.

    Starts from one round trip per node and repeatedly merges the pair with
    the highest savings value, but only end-to-start (the route ending at i
    is chained before the route starting at j, or the mirror image — no
    reversals), and only when the merged route fits capacity and introduces
    no new time-window violation.

    The pairs are listed row by row from Graph.taus and ordered by one
    stable sort on the savings value alone, so ties keep (i, j) order. A
    pair whose two demands alone exceed the capacity is never listed: no
    route holding both could ever fit, so the merges are those of the full
    n(n-1)/2 list. Rows where every partner fits, as on a customer graph
    whose largest two demands fit one vehicle, list all their pairs.
    A merge leaves the front route's schedule as it is, so testing it walks
    only the back route, from the front route's last departure, and costs
    O(length of the back route); Route objects are built for the final
    routes only.
    """
    ids = graph.customer_ids()
    homes = graph.taus(DEPOT_ID, ids)                   # each depot leg once
    demands = [graph.node(c).demand for c in ids]
    top = max(demands, default=0.0)
    pairs = []
    for k, i in enumerate(ids):
        rest, hs, di = ids[k + 1:], homes[k + 1:], demands[k]
        if di + top > capacity:                         # not every j fits beside i
            fits = [not di + d > capacity for d in demands[k + 1:]]
            rest, hs = list(compress(rest, fits)), list(compress(hs, fits))
        hi = homes[k]
        pairs += [(-(hi + hj - t), i, j)
                  for j, hj, t in zip(rest, hs, graph.taus(i, rest))]
    pairs.sort(key=itemgetter(0))
    routes = {k: [c] for k, c in enumerate(ids)}        # interior stops only
    route_of = {c: k for k, c in enumerate(ids)}
    loads = dict(enumerate(demands))
    late = {}        # late interior stops
    ends = {}        # departure from the last interior stop
    viols = {}       # late stops, depot return included
    for k, c in enumerate(ids):
        late[k], ends[k] = walk_schedule(graph, DEPOT_ID, 0.0, (c,))
        viols[k] = late[k] + walk_schedule(graph, c, ends[k], (DEPOT_ID,))[0]
    for _, i, j in pairs:
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
        tail = routes[back]
        back_late, end = walk_schedule(graph, routes[front][-1], ends[front], tail)
        merged_late = late[front] + back_late
        merged_viols = merged_late + walk_schedule(graph, tail[-1], end, (DEPOT_ID,))[0]
        if merged_viols > viols[front] + viols[back]:
            continue
        routes[front] += tail
        loads[front] += loads[back]
        late[front], ends[front], viols[front] = merged_late, end, merged_viols
        for c in tail:
            route_of[c] = front
        del routes[back], loads[back], late[back], ends[back], viols[back]
    final = [recompute_schedule([DEPOT_ID, *routes[k], DEPOT_ID], graph, capacity)
             for k in sorted(routes)]
    return Solution(final, "savings", graph.name)


# ---------------------------------------------------------------------------
# exact oracle for tiny instances

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
