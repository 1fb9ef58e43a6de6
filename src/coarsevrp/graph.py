"""Routing graph with time-window node attributes and forward schedule simulation."""

from __future__ import annotations

import math
from itertools import islice, repeat

from ._records import Frozen, Record, _set
from .instances import Instance

DEPOT_ID = 0


class CoarseNode(Frozen):
    """A depot, customer or super-node of a Graph. A super-node stands for
    the original customers its merge history expands to
    (inflation.expansion_map), its members; it keeps their aggregate
    attributes, not a list of them. No member lies farther than `radius` from
    (x, y); it is 0 except for the super-nodes of a conservative graph."""
    __slots__ = ("id", "kind", "x", "y", "demand", "service", "ready", "due", "nominal_t",
                 "radius")
    _hidden = ("radius",)

    def __init__(self, id: int, kind: str, x: float, y: float, demand: float,
                 service: float, ready: float, due: float, nominal_t: float, *,
                 radius: float = 0.0):
        _set(self, "id", id)
        _set(self, "kind", kind)            # "depot" | "customer" | "supernode"
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "demand", demand)
        _set(self, "service", service)
        _set(self, "ready", ready)
        _set(self, "due", due)
        _set(self, "nominal_t", nominal_t)
        _set(self, "radius", radius)


def nominal_visit_time(node) -> float:
    """Representative service-start time used by the temporal distance:
    halfway between the earliest start and the latest start that still
    finishes by the deadline, i.e. (ready + (due - service)) / 2. This reads
    `due` as a finish-by deadline, while Customer.due and recompute_schedule
    read it as the latest start, so the result can fall before `ready`.
    """
    return (node.ready + (node.due - node.service)) / 2.0


def _widen(v: float) -> float:
    """v raised past the rounding error of a covering bound (see Graph)."""
    return v * (1 + 2**-49) + 2**-1070


class Graph:
    """Depot plus customer/super nodes with symmetric travel times.

    One node table holds every node by id: the depot is its first entry,
    under DEPOT_ID, and the customers and super-nodes follow.

    Every travel time is computed from the two nodes, none is stored: the
    distance between their positions, plus, when the graph is conservative
    (some node has a radius), both nodes' covering radii. No member lies
    farther from its node's position than the node's radius, so by the triangle
    inequality that sum is at least the distance between any member of one and
    any member of the other: an upper bound over the pair's members. When a
    radius is not 0 the sum is widened to sum * (1 + 2**-49) + 2**-1070
    (_widen), as the bound holds with equality for collinear points and the
    computed sum can fall below it.

    The error argument, with u = 2**-53: each coordinate difference rounds by
    at most u, hypot by less than 1 ulp (at most 2u) and each sum of
    non-negative terms by at most u, so a computed radius or conservative
    travel time is at least (1 - 4u) times the real sum it stands for, while
    a member distance computed the same way reads up to (1 + 3u) times its
    real value. The factor 1 + 16u, itself rounded by at most u, lifts the
    sum to at least about (1 + 11u) times the real one, which covers both.
    Below 2**-1022 these relative bounds fail, as each step may err by
    2**-1074; the added 2**-1070 is 16 such steps, and it keeps every radius
    above 0, which Graph.conservative reads.
    """

    def __init__(self, nodes: dict[int, CoarseNode], name: str = "graph"):
        if next(iter(nodes), None) != DEPOT_ID:
            raise ValueError("the first node must be the depot, id 0")
        self.depot = nodes[DEPOT_ID]
        self._nodes = nodes
        self.conservative = any(n.radius for n in nodes.values())
        self.name = name
        self._points = None                 # {id: (x, y)}, built on first use by taus

    @classmethod
    def from_instance(cls, instance: Instance) -> "Graph":
        """One node per depot and customer; O(n), as no travel time is stored."""
        d = instance.depot
        nodes = {d.id: CoarseNode(d.id, "depot", d.x, d.y, 0.0, 0.0, d.ready, d.due,
                                  nominal_visit_time(d))}
        for c in instance.customers:
            nodes[c.id] = CoarseNode(c.id, "customer", c.x, c.y, c.demand, c.service,
                                     c.ready, c.due, nominal_visit_time(c))
        return cls(nodes, name=instance.name)

    def node(self, nid: int) -> CoarseNode:
        return self._nodes[nid]

    @property
    def customers(self) -> tuple[CoarseNode, ...]:
        return tuple(islice(self._nodes.values(), 1, None))

    def customer_ids(self) -> list[int]:
        return sorted(islice(self._nodes, 1, None))

    @property
    def customer_count(self) -> int:
        return len(self._nodes) - 1

    def tau(self, a: int, b: int) -> float:
        p, q = self._nodes[a], self._nodes[b]
        if self.conservative and (r := p.radius + q.radius):
            return _widen(math.hypot(p.x - q.x, p.y - q.y) + r)
        return math.hypot(p.x - q.x, p.y - q.y)

    def taus(self, a: int, bs) -> list[float]:
        """Travel times from a to each id of the sequence bs, equal to
        [self.tau(a, b) for b in bs] bit for bit, computed in one pass.

        On a graph without radii the distances come from math.dist over the
        graph's point table, {id: (x, y)} in self._points, which the first
        call builds and later calls reuse; math.dist of two points equals
        math.hypot of their differences. Graph.contract makes a new graph,
        which builds its own table. A conservative graph reads its node
        records, as it needs their radii too: one pass over them measured
        faster than the table plus a second pass for the radii.
        """
        if self.conservative:
            nodes = self._nodes
            p = nodes[a]
            ax, ay, r = p.x, p.y, p.radius
            hypot = math.hypot                # _widen inline, as this loop is hot
            return [(d + s) * (1 + 2**-49) + 2**-1070 if (s := r + q.radius) else d
                    for q in map(nodes.__getitem__, bs)
                    for d in (hypot(ax - q.x, ay - q.y),)]
        points = self._points
        if points is None:
            points = self._points = {nid: (n.x, n.y) for nid, n in self._nodes.items()}
        return list(map(math.dist, repeat(points[a]), map(points.__getitem__, bs)))

    def contract(self, merges, conservative: bool = False):
        """Apply one round of disjoint (order, window) merges in list order;
        returns (graph, supers).

        Each order is (first, second): two distinct customers of this graph
        in service order, named by no earlier merge of the call. Each
        super-node takes the next free id, sits at its children's midpoint,
        sums their demand and gets the given window. By default its service
        time is the children's sum and travel times are measured from the
        midpoint. With conservative=True the internal leg joins the service
        time (s_first + tau(first, second) + s_second), the super-node gets
        the covering radius max(r_a + |a - c|, r_b + |b - c|) around its
        midpoint c, widened for rounding as a travel time is (see Graph). The
        new graph then carries radii, so it is conservative: travel adds both
        radii to the distance, an upper bound over the members, so a coarse
        schedule never promises more than the expanded route delivers. Once a
        graph holds a super-node, later contractions must use its mode.

        A super-node does not list its children: the caller keeps each merge
        (coarsen records it as a MergeRecord), and expansion_map expands a
        super-node through those records alone.

        Nothing is stored for a travel time, so a call costs O(n log n) in
        the nodes, for sorting their ids.
        """
        if conservative != self.conservative and any(
                n.kind == "supernode" for n in self._nodes.values()):
            raise ValueError("a graph with super-nodes contracts in its own mode")
        # id order, the depot first; each new super-node has the largest id,
        # so it stays sorted
        nodes = {nid: self._nodes[nid] for nid in sorted(self._nodes)}
        top = max(self._nodes)
        supers = []
        for (first, second), window in merges:
            if first == second:
                raise ValueError(f"node {first} is merged with itself")
            for nid in (first, second):
                if nid == DEPOT_ID or nid not in self._nodes:
                    raise ValueError(f"node {nid} is not a customer of this graph")
                if nid not in nodes:
                    raise ValueError(f"node {nid} is merged twice in one round")
            a, b = nodes.pop(first), nodes.pop(second)
            ready, due = window
            x, y = (a.x + b.x) / 2.0, (a.y + b.y) / 2.0
            if conservative:
                service = a.service + self.tau(first, second) + b.service
                radius = _widen(max(a.radius + math.hypot(a.x - x, a.y - y),
                                    b.radius + math.hypot(b.x - x, b.y - y)))
            else:
                service, radius = a.service + b.service, 0.0
            top += 1
            supers.append(CoarseNode(
                id=top, kind="supernode", x=x, y=y,
                demand=a.demand + b.demand, service=service, radius=radius,
                ready=ready, due=due, nominal_t=(ready + due) / 2.0,
            ))
        nodes.update((s.id, s) for s in supers)
        return Graph(nodes, self.name), supers

    def extent(self) -> float:
        """Largest bounding-box dimension over every node, depot included."""
        xs = [n.x for n in self._nodes.values()]
        ys = [n.y for n in self._nodes.values()]
        return max(max(xs) - min(xs), max(ys) - min(ys))


class Route(Record):
    __slots__ = ("stops", "arrivals", "starts", "departures", "late_stops", "over_capacity",
                 "distance")

    def __init__(self, stops: list[int], arrivals: list[float], starts: list[float],
                 departures: list[float], late_stops: tuple[int, ...], over_capacity: bool,
                 distance: float):
        self.stops = stops                       # depot ... depot
        self.arrivals = arrivals                 # per stop: arrival time,
        self.starts = starts                     # service start
        self.departures = departures             # and departure; 0.0 at the first depot
        self.late_stops = late_stops             # positions pos where starts[pos] > due
        self.over_capacity = over_capacity
        self.distance = distance                 # the legs' travel times, summed

    @property
    def tw_violations(self) -> int:
        return len(self.late_stops)

    @property
    def customer_stops(self) -> list[int]:
        return [s for s in self.stops if s != DEPOT_ID]

    @property
    def duration(self) -> float:
        return self.departures[-1] - self.departures[0]


def recompute_schedule(stops, graph: Graph, capacity: float | None = None) -> Route:
    """Forward-simulate a depot-to-depot stop sequence into a Route's
    arrivals, starts and departures, one entry per stop.

    The vehicle departs the depot at time 0. At each stop start =
    max(arrival, ready), the rule of greedy_solve's time test, so a vehicle
    that waits starts exactly at ready, and departure = start + service; the
    wait is start - arrival, which build_solution_document derives. A stop is
    late when its start exceeds its due time; late stops are recorded, never
    rejected. With a capacity, the route is additionally flagged when total
    demand exceeds it. The legs' travel times are added into `distance` left
    to right (the built-in `sum` of floats is compensated since Python 3.12).
    """
    stops = list(stops)
    if len(stops) < 2 or stops[0] != DEPOT_ID or stops[-1] != DEPOT_ID:
        raise ValueError("a route must start and end at the depot")
    arrivals, starts, departures = [0.0], [0.0], [0.0]
    late = []
    distance = 0.0
    load = 0.0
    t = 0.0
    for pos in range(1, len(stops)):
        node = graph.node(stops[pos])
        leg = graph.tau(stops[pos - 1], stops[pos])
        distance += leg
        arrival = t + leg
        start = max(arrival, node.ready)
        t = start + node.service
        arrivals.append(arrival)
        starts.append(start)
        departures.append(t)
        if start > node.due:
            late.append(pos)
        load += node.demand
    over = capacity is not None and load > capacity
    return Route(stops, arrivals, starts, departures, tuple(late), over, distance)


def walk_schedule(graph: Graph, prev: int, t: float, stops) -> tuple[int, float]:
    """(late stops, departure from the last one) when `stops` are served in
    order after leaving `prev` at time t; recompute_schedule's arithmetic,
    without building a Route."""
    late = 0
    for c in stops:
        node = graph.node(c)
        arrival = t + graph.tau(prev, c)
        start = max(arrival, node.ready)
        if start > node.due:
            late += 1
        t = start + node.service
        prev = c
    return late, t
