"""Solution metrics and the penalized objective used to compare trials."""

from __future__ import annotations

from ._records import Frozen, _fill
from .graph import Graph, recompute_schedule
from .heuristics import Solution


class Metrics(Frozen):
    __slots__ = ("total_distance", "num_vehicles", "total_duration", "tw_violations",
                 "capacity_violations", "feasible")

    def __init__(self, total_distance: float, num_vehicles: int, total_duration: float,
                 tw_violations: int, capacity_violations: int, feasible: bool):
        _fill(self, (total_distance, num_vehicles, total_duration, tw_violations,
                     capacity_violations, feasible))


LAMBDA_VEHICLES = 1000.0       # cost per vehicle used
LAMBDA_CAPACITY = 1000.0       # flat penalty once any route is over capacity
LAMBDA_TIME = 1000.0           # flat penalty once any stop is late


def evaluate(solution: Solution, graph: Graph, capacity: float) -> Metrics:
    """Recompute every route from scratch on graph, then aggregate_metrics.

    Stored arrivals, starts and departures are ignored: a solution from
    another graph, or one whose routes were edited, is measured correctly.
    """
    return aggregate_metrics([recompute_schedule(r.stops, graph, capacity)
                              for r in solution.routes])


def aggregate_metrics(routes) -> Metrics:
    """Sum routes already scheduled by recompute_schedule, with the capacity,
    on the graph they are measured on; nothing is recomputed.

    Duration counts travel + waiting + service from the depot departure to
    the return. A vehicle is counted per route that serves at least one
    customer. Violation counts are per late stop / per over-capacity route.
    """
    distance = 0.0
    duration = 0.0
    vehicles = 0
    late = 0
    over = 0
    for route in routes:
        if route.customer_stops:
            vehicles += 1
        distance += route.distance
        duration += route.duration
        late += route.tw_violations
        over += 1 if route.over_capacity else 0
    return Metrics(distance, vehicles, duration, late, over,
                   feasible=(late == 0 and over == 0))


def objective_score(metrics: Metrics) -> float:
    """Distance plus a per-vehicle cost plus flat penalties.

    Capacity and time-window penalties are flags, not counts: one violation
    costs the same as ten. An empty solution scores 0.
    """
    return (metrics.total_distance
            + LAMBDA_VEHICLES * metrics.num_vehicles
            + LAMBDA_CAPACITY * (1 if metrics.capacity_violations > 0 else 0)
            + LAMBDA_TIME * (1 if metrics.tw_violations > 0 else 0))
