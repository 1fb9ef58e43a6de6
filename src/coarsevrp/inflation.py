"""Expand coarse solutions back onto the original graph, then patch them up."""

from __future__ import annotations

from .coarsening import MergeHistory
from .graph import DEPOT_ID, Graph, recompute_schedule
from .heuristics import Solution


class InflationError(ValueError):
    """A route references a super-node the merge history cannot expand."""


def inflate(solution: Solution, history: MergeHistory, original: Graph) -> Solution:
    """Expand each super-node in place into its original customers, in their
    recorded service order, then rebuild all schedules on the original
    graph's travel times.

    Route count and stop order are preserved; records whose super-node never
    appears in any route are simply skipped.
    """
    expand = {}
    for rec in history:   # oldest first: a nested child is already expanded
        expand[rec.super_id] = [s for c in rec.order for s in expand.get(c, (c,))]
    stop_lists = [[s for stop in r.stops for s in expand.get(stop, (stop,))]
                  for r in solution.routes]
    known = {DEPOT_ID, *original.customer_ids()}
    for stops in stop_lists:
        for s in stops:
            if s not in known:
                raise InflationError(f"node {s} not expandable from the merge history")
    routes = [recompute_schedule(stops, original) for stops in stop_lists]
    return Solution(routes, solution.solver, original.name, solution.flagged_routes)


def light_postprocess(solution: Solution, graph: Graph, capacity: float) -> Solution:
    """Cheap repairs after inflation, applied until nothing changes.

    (a) adjacent swap: exchanging a late stop with its predecessor is kept
        when it strictly lowers the route's violation count and leaves both
        swapped stops on time;
    (b) capacity split: a route over capacity repeatedly moves its last
        customer into a fresh singleton route.

    A pass schedules each route it visits once, makes at most one swap in
    it and then splits it. What a pass does to a route depends on nothing
    but the route's own stops, so a route that a whole pass left alone is
    settled: each pass after the first visits only the routes the last pass
    changed and the singleton routes it split off.

    Idempotent: running it on its own output is a no-op.
    """
    stop_lists = [list(r.stops) for r in solution.routes]
    routes = {}           # each route's schedule from its last visit
    visit = range(len(stop_lists))
    while visit:
        changed = set()
        new_routes = []
        for k in visit:
            stops = stop_lists[k]
            route = recompute_schedule(stops, graph, capacity)
            for pos in route.late_stops:
                if pos < 2 or pos >= len(stops) - 1:
                    continue  # only interior customer pairs can swap
                trial = stops[:]
                trial[pos - 1], trial[pos] = trial[pos], trial[pos - 1]
                swapped = recompute_schedule(trial, graph, capacity)
                if (swapped.tw_violations < route.tw_violations
                        and pos not in swapped.late_stops
                        and pos - 1 not in swapped.late_stops):
                    stops[:] = trial
                    route = swapped
                    changed.add(k)
                    break
            while route.over_capacity and len(route.customer_stops) > 1:
                last = stops[-2]
                del stops[-2]
                new_routes.append([DEPOT_ID, last, DEPOT_ID])
                route = recompute_schedule(stops, graph, capacity)
                changed.add(k)
            routes[k] = route
        first_new = len(stop_lists)
        stop_lists.extend(new_routes)
        visit = sorted(changed) + list(range(first_new, len(stop_lists)))
    return Solution([routes[k] for k in range(len(stop_lists))], solution.solver,
                    solution.source_graph, solution.flagged_routes)
