"""Expand coarse solutions back onto the original graph, then patch them up."""

from __future__ import annotations

from .coarsening import MergeRecord
from .graph import DEPOT_ID, Graph, Route, recompute_schedule
from .heuristics import Solution


class InflationError(ValueError):
    """A route references a super-node the merge history cannot expand."""


def expansion_map(history: list[MergeRecord]) -> dict[int, list[int]]:
    """{super_id: its original customers in recorded service order}.

    The merge history is the one record of what a super-node stands for; no
    node lists its customers. Each record names its two children in service
    order, so a super-node expands to its first child's customers, then its
    second's."""
    expand = {}
    for rec in history:   # oldest first: a nested child is already expanded
        expand[rec.super_id] = [s for c in rec.order for s in expand.get(c, (c,))]
    return expand


def expand_stops(solution: Solution, history: list[MergeRecord],
                 original: Graph) -> list[list[int]]:
    """Each route's stop list with every super-node replaced in place by its
    original customers (see expansion_map); nothing is scheduled.

    Raises InflationError for a stop that is neither the depot nor one of
    the original graph's customers after expansion.
    """
    expand = expansion_map(history)
    stop_lists = [[s for stop in r.stops for s in expand.get(stop, (stop,))]
                  for r in solution.routes]
    known = {DEPOT_ID, *original.customer_ids()}
    for stops in stop_lists:
        for s in stops:
            if s not in known:
                raise InflationError(f"node {s} not expandable from the merge history")
    return stop_lists


def inflate(solution: Solution, history: list[MergeRecord], original: Graph) -> Solution:
    """expand_stops, then schedule each route once on the original graph's
    travel times.

    Route count and stop order are preserved; records whose super-node never
    appears in any route are simply skipped.
    """
    routes = [recompute_schedule(stops, original)
              for stops in expand_stops(solution, history, original)]
    return Solution(routes, solution.solver, original.name)


def light_postprocess(solution: Solution, graph: Graph, capacity: float) -> Solution:
    """repair_stops on the solution's stop lists; their times are not read,
    since recompute_schedule schedules every route that repair keeps.

    Idempotent: running it on its own output is a no-op.
    """
    return Solution(repair_stops([list(r.stops) for r in solution.routes], graph, capacity),
                    solution.solver, solution.source_graph)


def repair_stops(stop_lists: list[list[int]], graph: Graph, capacity: float) -> list[Route]:
    """Cheap repairs, applied to each route until nothing changes; returns
    the routes, each scheduled with the capacity, followed by the singleton
    routes split off them in the order they were split. Each stop list is
    edited in place and ends equal to its route's stops.

    (a) adjacent swap: exchanging a late stop with its predecessor is kept
        when it strictly lowers the route's violation count, a late return
        to the depot included, and leaves both swapped stops on time;
    (b) capacity split: a route over capacity repeatedly moves its last
        customer into a fresh singleton route.

    A route's repair depends on nothing but its own stops, so each route is
    repaired on its own: at most one swap, then the split, repeated until
    neither changes it. A split-off singleton has no pair to swap and
    nothing to split. Every candidate swap and every split is scheduled by
    recompute_schedule, so the late stops and the load are read from it.
    """
    routes, split = [], []
    for stops in stop_lists:
        route = recompute_schedule(stops, graph, capacity)
        changed = True
        while changed:
            changed = False
            for pos in route.late_stops:
                if pos < 2 or pos >= len(stops) - 1:
                    continue  # only interior customer pairs can swap
                swapped = [*stops[:pos - 1], stops[pos], stops[pos - 1], *stops[pos + 1:]]
                trial = recompute_schedule(swapped, graph, capacity)
                if (trial.tw_violations < route.tw_violations
                        and pos - 1 not in trial.late_stops and pos not in trial.late_stops):
                    stops[:] = swapped
                    route = trial
                    changed = True
                    break
            while route.over_capacity and len(stops) > 3:
                split.append(stops.pop(-2))
                route = recompute_schedule(stops, graph, capacity)
                changed = True
        routes.append(route)
    return routes + [recompute_schedule([DEPOT_ID, c, DEPOT_ID], graph, capacity) for c in split]
