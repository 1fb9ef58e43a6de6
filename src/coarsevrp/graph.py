"""Routing graph with time-window node attributes and forward schedule simulation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

from .instances import Instance

DEPOT_ID = 0


@dataclass(frozen=True)
class CoarseNode:
    id: int
    kind: str           # "depot" | "customer" | "supernode"
    x: float
    y: float
    demand: float
    service: float
    ready: float
    due: float
    nominal_t: float
    members: tuple[int, ...]


def travel_time(a, b) -> float:
    """Euclidean travel time between two point-like objects (unit speed)."""
    return math.hypot(a.x - b.x, a.y - b.y)


def nominal_visit_time(node) -> float:
    """Representative service-start time used by the temporal distance:
    halfway between the earliest start and the latest start that still
    finishes by the deadline, i.e. (ready + (due - service)) / 2.
    """
    return (node.ready + (node.due - node.service)) / 2.0


class Graph:
    """Depot plus customer/super nodes with symmetric travel times.

    One node table holds every node by id: the depot is its first entry,
    under DEPOT_ID, and the customers and super-nodes follow.

    A travel time is the distance between the two nodes' positions unless the
    pair has a stored entry, which only conservative contraction writes: a
    conservative super-node's time is the worst case over its children.
    """

    def __init__(self, nodes: dict[int, CoarseNode],
                 tau: dict[tuple[int, int], float], name: str = "graph"):
        if next(iter(nodes), None) != DEPOT_ID:
            raise ValueError("the first node must be the depot, id 0")
        self.depot = nodes[DEPOT_ID]
        self._nodes = nodes
        self._tau = tau
        self.name = name

    @classmethod
    def from_instance(cls, instance: Instance) -> "Graph":
        """One node per depot and customer; O(n), as no travel time is stored."""
        d = instance.depot
        nodes = {d.id: CoarseNode(d.id, "depot", d.x, d.y, 0.0, 0.0, d.ready, d.due,
                                  nominal_visit_time(d), (d.id,))}
        for c in instance.customers:
            nodes[c.id] = CoarseNode(c.id, "customer", c.x, c.y, c.demand, c.service,
                                     c.ready, c.due, nominal_visit_time(c), (c.id,))
        return cls(nodes, {}, name=instance.name)

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

    @property
    def stores_taus(self) -> bool:
        """Whether some pair has a stored travel time, which may differ from
        the distance between the two positions."""
        return bool(self._tau)

    def tau(self, a: int, b: int) -> float:
        if self._tau:           # most graphs store nothing: skip building the key
            t = self._tau.get((a, b) if a < b else (b, a))
            if t is not None:
                return t
        p, q = self._nodes[a], self._nodes[b]
        return math.hypot(p.x - q.x, p.y - q.y)

    def taus(self, a: int, bs) -> list[float]:
        """Travel times from a to each id of the sequence bs, equal to
        [self.tau(a, b) for b in bs]: the distances between the positions,
        computed in one pass, with the graph's stored entries laid over them.
        """
        nodes = self._nodes
        p = nodes[a]
        ax, ay = p.x, p.y
        hypot = math.hypot
        out = [hypot(ax - q.x, ay - q.y) for q in map(nodes.__getitem__, bs)]
        if self._tau:
            get = self._tau.get
            for k, b in enumerate(bs):
                t = get((a, b) if a < b else (b, a))
                if t is not None:
                    out[k] = t
        return out

    def contract(self, merges, conservative: bool = False):
        """Apply one round of disjoint (i, j, order, window) merges in list
        order; returns (graph, supers).

        Each merge names two customers of this graph that no earlier merge of
        the call named. Each super-node takes the next free id, sits at its
        children's midpoint, sums their demand and gets the given window.
        By default its service time is the children's sum and travel times
        are measured from the midpoint. With conservative=True the internal
        leg joins the service time (s_first + tau_ij + s_second) and travel
        to any other node is the worst case over the children, so a coarse
        schedule never promises more than the expanded route delivers.

        Midpoint travel times follow from the positions, so nothing is
        stored for them. The parent's stored entries between surviving nodes
        are kept, and a conservative contraction gives each super-node one
        entry per node of the final graph (depot, survivors and the round's
        earlier supers). A call costs O(nodes), plus O(stored entries +
        merges × final nodes) when conservative.
        """
        # id order, the depot first; each new super-node has the largest id,
        # so it stays sorted
        nodes = {nid: self._nodes[nid] for nid in sorted(self._nodes)}
        top = max(self._nodes)
        supers = []
        for i, j, order, window in merges:
            if set(order) != {i, j} or i == j:
                raise ValueError("order must permute the merged pair")
            for nid in (i, j):
                if nid == DEPOT_ID or nid not in self._nodes:
                    raise ValueError(f"node {nid} is not a customer of this graph")
                if nid not in nodes:
                    raise ValueError(f"node {nid} is merged twice in one round")
            a, b = nodes.pop(order[0]), nodes.pop(order[1])
            ready, due = window
            if conservative:
                service = a.service + self.tau(i, j) + b.service
            else:
                service = a.service + b.service
            top += 1
            super_node = CoarseNode(
                id=top, kind="supernode",
                x=(a.x + b.x) / 2.0, y=(a.y + b.y) / 2.0,
                demand=a.demand + b.demand, service=service,
                ready=ready, due=due, nominal_t=(ready + due) / 2.0,
                members=a.members + b.members,
            )
            supers.append((super_node, (i, j)))
        merged = {nid for _, children in supers for nid in children}
        # stored entries between surviving nodes, reusing the parent's key tuples
        tau = {key: t for key, t in self._tau.items()
               if key[0] not in merged and key[1] not in merged}
        if conservative:
            # (final node id, the nodes of this graph it covers); keys are (other, sid)
            # because a super-node's id exceeds every id before it
            finals = [(nid, (nid,)) for nid in nodes]
            for super_node, children in supers:
                sid = super_node.id
                for other, others in finals:
                    tau[(other, sid)] = max([self.tau(c, o)
                                             for c in children for o in others])
                finals.append((sid, children))
        nodes.update((s.id, s) for s, _ in supers)
        return Graph(nodes, tau, name=self.name), [s for s, _ in supers]

    def extent(self) -> float:
        """Largest bounding-box dimension over every node, depot included."""
        xs = [n.x for n in self._nodes.values()]
        ys = [n.y for n in self._nodes.values()]
        return max(max(xs) - min(xs), max(ys) - min(ys))

    def member_ids(self) -> list[int]:
        out = []
        for n in self.customers:
            out.extend(n.members)
        return sorted(out)


@dataclass(frozen=True)
class StopTiming:
    arrival: float
    wait: float
    service_start: float
    departure: float


@dataclass
class Route:
    stops: list[int]                       # depot ... depot
    schedule: list[StopTiming] = field(default_factory=list)
    load: float = 0.0
    late_stops: tuple[int, ...] = ()       # positions where service_start > due
    over_capacity: bool = False
    distance: float = 0.0                  # the legs' travel times, summed

    @property
    def tw_violations(self) -> int:
        return len(self.late_stops)

    @property
    def customer_stops(self) -> list[int]:
        return [s for s in self.stops if s != DEPOT_ID]

    @property
    def duration(self) -> float:
        return self.schedule[-1].departure - self.schedule[0].departure if self.schedule else 0.0

def recompute_schedule(stops, graph: Graph, capacity: float | None = None) -> Route:
    """Forward-simulate a depot-to-depot stop sequence.

    The vehicle departs the depot at time 0. At each stop: wait if early
    (wait = max(0, ready - arrival)), then service_start = arrival + wait and
    departure = service_start + service. A stop is late when its
    service_start exceeds its due time; late stops are recorded, never
    rejected. With a capacity, the route is additionally flagged when total
    demand exceeds it. The legs' travel times are summed into `distance`.
    """
    stops = list(stops)
    if len(stops) < 2 or stops[0] != DEPOT_ID or stops[-1] != DEPOT_ID:
        raise ValueError("a route must start and end at the depot")
    schedule = [StopTiming(0.0, 0.0, 0.0, 0.0)]
    late = []
    legs = []
    load = 0.0
    t = 0.0
    for pos in range(1, len(stops)):
        node = graph.node(stops[pos])
        leg = graph.tau(stops[pos - 1], stops[pos])
        legs.append(leg)
        arrival = t + leg
        wait = max(0.0, node.ready - arrival)
        service_start = arrival + wait
        departure = service_start + node.service
        schedule.append(StopTiming(arrival, wait, service_start, departure))
        if service_start > node.due:
            late.append(pos)
        load += node.demand
        t = departure
    over = capacity is not None and load > capacity
    return Route(stops, schedule, load, tuple(late), over, sum(legs))


def walk_schedule(graph: Graph, prev: int, t: float, stops) -> tuple[int, float]:
    """(late stops, departure from the last one) when `stops` are served in
    order after leaving `prev` at time t; recompute_schedule's arithmetic,
    without building a Route."""
    late = 0
    for c in stops:
        node = graph.node(c)
        arrival = t + graph.tau(prev, c)
        start = arrival + max(0.0, node.ready - arrival)
        if start > node.due:
            late += 1
        t = start + node.service
        prev = c
    return late, t
