"""Constructive route builders.

Both heuristics work on any Graph (original or coarsened) and only need the
vehicle capacity; they never assume Euclidean travel times, so they run
unchanged on coarse graphs whose super-node times bound their members'.
"""

from __future__ import annotations

import math
from itertools import compress, repeat

from ._records import Record, _fill
from .graph import DEPOT_ID, Graph, Route, recompute_schedule, walk_schedule


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

    The depot legs come from one Graph.taus call and, with each node's
    demand, window and service time, sit in lists by node id. Every route
    starts in the same state, at the depot at time 0 with load 0, so
    whether a node could open a route never changes during a solve: the
    nodes that could are sorted once by (depot leg, id), and each route
    opens with the first of them not yet routed, the node a scan of every
    unrouted node would pick. When none is left, the rest become the
    one-customer routes. Within a route the load and the clock only grow,
    since demands, legs and service times are never negative, so a node
    that no longer fits the load, or whose due time the clock has passed,
    never fits again on that route: each step's candidates are those of
    the step before that still pass these two tests, in id order. A node
    that failed only the start or depot-return test stays a candidate, as
    the next leg leaves from another stop. The candidates get their legs
    from the route's last stop in one more Graph.taus call, and one pass
    over them keeps the feasible one with the smallest leg: a node whose
    leg is not strictly below the best so far is skipped before its time
    tests, so ties go to the lower id, as they would in the first feasible
    node of a stable sort on the leg. The clock test drops only nodes the
    due test would reject, since a start max(time + leg, ready) is never
    below time. The pass starts from an infinite best leg; a node an
    infinite leg away would start past its due anyway.
    """
    ids = graph.customer_ids()
    size = max(ids, default=0) + 1      # coarse ids have gaps and run past n
    demand, ready, due, service, homes = ([0.0] * size for _ in range(5))
    for c, leg in zip(ids, graph.taus(DEPOT_ID, ids)):
        n = graph.node(c)
        demand[c], ready[c], due[c], service[c], homes[c] = (n.demand, n.ready, n.due,
                                                             n.service, leg)
    close = graph.depot.due
    firsts = []                              # (depot leg, id) of each possible first stop
    for c in ids:
        start = max(homes[c], ready[c])
        if not (demand[c] > capacity or start > due[c] or start + service[c] + homes[c] > close):
            firsts.append((homes[c], c))
    firsts.sort()
    routed = [False] * size
    routes: list[Route] = []
    for _, first in firsts:
        if routed[first]:
            continue
        routed[first] = True
        stops = [DEPOT_ID, first]
        time = max(homes[first], ready[first]) + service[first]
        load = demand[first]
        fits = [c for c in ids
                if not (routed[c] or load + demand[c] > capacity or time > due[c])]
        while fits:
            best, best_leg = None, math.inf
            for leg, c in zip(graph.taus(stops[-1], fits), fits):
                if not leg < best_leg:
                    continue
                start = max(time + leg, ready[c])
                if start > due[c] or start + service[c] + homes[c] > close:
                    continue
                best, best_leg, best_start = c, leg, start
            if best is None:
                break
            time = best_start + service[best]
            load += demand[best]
            stops.append(best)
            routed[best] = True
            fits = [c for c in fits
                    if not (c == best or load + demand[c] > capacity or time > due[c])]
        routes.append(recompute_schedule(stops + [DEPOT_ID], graph, capacity))
    # nothing fits even a fresh vehicle: emit the rest as singletons
    for c in ids:
        if not routed[c]:
            routes.append(recompute_schedule([DEPOT_ID, c, DEPOT_ID], graph, capacity))
    return Solution(routes, "greedy", graph.name)


def savings_solve(graph: Graph, capacity: float) -> Solution:
    """Parallel savings construction adapted to time windows.

    Starts from one round trip per node and repeatedly merges the pair with
    the highest savings value, but only end-to-start (the route ending at i
    is chained before the route starting at j, or the mirror image — no
    reversals), and only when the merged route fits capacity and introduces
    no new time-window violation.

    The pairs are listed row by row from Graph.taus into three flat lists,
    keys, firsts and seconds, so pair p is (firsts[p], seconds[p]) with
    savings key keys[p]; no tuple is built per pair, so the n(n-1)/2 pairs
    of a full graph leave the cyclic garbage collector almost nothing to
    track. They are ordered by one stable sort of the indices on the key
    alone, and the indices follow (i, j) order, so ties keep (i, j) order.
    A pair whose two demands alone exceed the capacity is never listed: no
    route holding both could ever fit, so the merges are those of the full
    n(n-1)/2 list. Rows where every partner fits, as on a customer graph
    whose largest two demands fit one vehicle, list all their pairs; a row
    left with no partner, as most rows of a coarse graph are, is skipped
    without a Graph.taus call. Each row's keys come from one comprehension.
    The route state lives in lists, by route number and, for each
    customer's route and route load, by node id. So the capacity test,
    which rejects most pairs once routes have grown, reads two loads and
    no route; it runs before the same-route test and skips the same pairs,
    since a pair within one route fails either. A merge leaves the front
    route's schedule as it is, so testing it walks only the back route,
    from the front route's last departure, and costs O(length of the back
    route); Route objects are built for the final routes only.
    """
    ids = graph.customer_ids()
    homes = graph.taus(DEPOT_ID, ids)                   # each depot leg once
    demands = [graph.node(c).demand for c in ids]
    top = max(demands, default=0.0)
    keys, firsts, seconds = [], [], []                  # pair p is (firsts[p], seconds[p])
    for k, i in enumerate(ids):
        rest, hs, di = ids[k + 1:], homes[k + 1:], demands[k]
        if di + top > capacity:                         # not every j fits beside i
            fits = [not di + d > capacity for d in demands[k + 1:]]
            rest, hs = list(compress(rest, fits)), list(compress(hs, fits))
        if not rest:
            continue
        hi = homes[k]
        keys += [-(hi + hj - t) for hj, t in zip(hs, graph.taus(i, rest))]
        firsts += repeat(i, len(rest))
        seconds += rest
    size = max(ids, default=0) + 1      # coarse ids have gaps and run past n
    routes = [[c] for c in ids]         # interior stops by route; None once merged away
    route_of = [0] * size               # by node id
    load_of = [0.0] * size              # each customer's route load, by node id
    late = [0] * len(ids)               # late interior stops
    ends = [0.0] * len(ids)             # departure from the last interior stop
    viols = [0] * len(ids)              # late stops, depot return included
    for k, c in enumerate(ids):
        route_of[c], load_of[c] = k, demands[k]
        late[k], ends[k] = walk_schedule(graph, DEPOT_ID, 0.0, (c,))
        viols[k] = late[k] + walk_schedule(graph, c, ends[k], (DEPOT_ID,))[0]
    for p in sorted(range(len(keys)), key=keys.__getitem__):
        i, j = firsts[p], seconds[p]
        if load_of[i] + load_of[j] > capacity:
            continue
        ri, rj = route_of[i], route_of[j]
        if ri == rj:
            continue
        if routes[ri][-1] == i and routes[rj][0] == j:
            front, back = ri, rj
        elif routes[rj][-1] == j and routes[ri][0] == i:
            front, back = rj, ri
        else:
            continue
        head, tail = routes[front], routes[back]
        back_late, end = walk_schedule(graph, head[-1], ends[front], tail)
        merged_late = late[front] + back_late
        merged_viols = merged_late + walk_schedule(graph, tail[-1], end, (DEPOT_ID,))[0]
        if merged_viols > viols[front] + viols[back]:
            continue
        load = load_of[head[0]] + load_of[tail[0]]
        head += tail
        late[front], ends[front], viols[front] = merged_late, end, merged_viols
        for c in tail:
            route_of[c] = front
        for c in head:
            load_of[c] = load
        routes[back] = None
    final = [recompute_schedule([DEPOT_ID, *stops, DEPOT_ID], graph, capacity)
             for stops in routes if stops is not None]
    return Solution(final, "savings", graph.name)

