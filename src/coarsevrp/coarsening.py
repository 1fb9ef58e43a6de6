"""Multilevel spatio-temporal coarsening for routing graphs.

Nodes that are close in space *and* compatible in time are greedily matched
and merged into super-nodes, level by level, until the graph shrinks to a
target fraction of its original size. Every merge is recorded so solutions
found on the small graph can later be expanded back onto the original one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graph import TAU_MODES, CoarseNode, Graph

PROPAGATION_MODES = ("relaxed", "conservative")


@dataclass(frozen=True)
class CoarseningParams:
    alpha: float = 0.5            # weight on spatial travel time
    beta: float = 0.5             # weight on temporal separation
    p_target: float = 0.5         # stop once customer count <= p_target * original
    radius_coeff: float = 1.0     # multiplier on the extent-based merge radius
    propagation: str = "relaxed"
    tau_mode: str = "midpoint"

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.alpha + self.beta == 0:
            raise ValueError("alpha/beta must be non-negative and not both zero")
        if not 0 < self.p_target <= 1:
            raise ValueError("p_target must be in (0, 1]")
        if self.radius_coeff < 0:
            raise ValueError("radius_coeff must be >= 0")
        if self.propagation not in PROPAGATION_MODES:
            raise ValueError(f"propagation must be one of {PROPAGATION_MODES}")
        if self.tau_mode not in TAU_MODES:
            raise ValueError(f"tau_mode must be one of {TAU_MODES}")


@dataclass(frozen=True)
class MergeRecord:
    super_id: int
    left: int
    right: int
    order: tuple[int, int]        # service order of the two children
    window: tuple[float, float]   # aggregated [ready, due] given to the super


@dataclass
class MergeHistory:
    records: list[MergeRecord] = field(default_factory=list)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


# ---------------------------------------------------------------------------
# pairwise measures

def temporal_separation(i: CoarseNode, j: CoarseNode, tau_ij: float,
                        mode: str = "nominal") -> float:
    """Temporal distance from i to j.

    nominal: |t_i - t_j| on the nominal visit times (symmetric).
    strict: forced waiting at j when leaving i at its nominal time,
    max(0, ready_j - (t_i + s_i + tau_ij)) (asymmetric).
    """
    if mode == "nominal":
        return abs(i.nominal_t - j.nominal_t)
    if mode == "strict":
        return max(0.0, j.ready - (i.nominal_t + i.service + tau_ij))
    raise ValueError(f"unknown separation mode: {mode!r}")


def st_distance(i: CoarseNode, j: CoarseNode, tau_ij: float,
                alpha: float, beta: float, mode: str = "nominal") -> float:
    """Combined spatio-temporal distance alpha*tau + beta*separation."""
    return alpha * tau_ij + beta * temporal_separation(i, j, tau_ij, mode)


def pair_weight(i: CoarseNode, j: CoarseNode, tau_ij: float,
                params: CoarseningParams) -> float:
    return st_distance(i, j, tau_ij, params.alpha, params.beta)


def merge_feasibility(i: CoarseNode, j: CoarseNode, tau_ij: float) -> tuple[bool, bool]:
    """(forward, backward): can j be served right after i, and vice versa?

    Serving i at its earliest start must still allow j to finish by its due
    time: ready_i <= due_j - service_j - tau_ij - service_i.
    """
    forward = i.ready <= j.due - j.service - tau_ij - i.service
    backward = j.ready <= i.due - i.service - tau_ij - j.service
    return forward, backward


def merge_slack(first: CoarseNode, second: CoarseNode, tau: float) -> float:
    """Scheduling headroom when `first` is served immediately before `second`."""
    return (second.due - second.service - tau) - (first.ready + first.service)


def choose_direction(i: CoarseNode, j: CoarseNode, tau_ij: float):
    """Pick the feasible service order with the larger slack (ties keep i first).

    Returns the (first, second) node pair, or None when neither order works.
    """
    forward, backward = merge_feasibility(i, j, tau_ij)
    if not forward and not backward:
        return None
    if forward and backward:
        return (i, j) if merge_slack(i, j, tau_ij) >= merge_slack(j, i, tau_ij) else (j, i)
    return (i, j) if forward else (j, i)


def aggregate_window(first: CoarseNode, second: CoarseNode, tau: float,
                     mode: str = "relaxed") -> tuple[float, float]:
    """Time window for the merged node, children served first-then-second.

    relaxed widens: ready' = min(ready_f, ready_s - (s_f + tau)),
    due' = max(due_s - s_s, due_f - (s_f + tau)).

    conservative tightens so any start inside the window serves *both*
    children on time: ready' = max(ready_f, ready_s),
    due' = min(due_f, due_s - (s_f + tau)). May come out empty
    (ready' > due'), which callers treat as a veto.
    """
    if mode == "relaxed":
        ready = min(first.ready, second.ready - (first.service + tau))
        due = max(second.due - second.service, first.due - (first.service + tau))
    elif mode == "conservative":
        ready = max(first.ready, second.ready)
        due = min(first.due, second.due - (first.service + tau))
    else:
        raise ValueError(f"unknown propagation mode: {mode!r}")
    return ready, due


def radius_threshold(graph: Graph, radius_coeff: float) -> float:
    """Merge radius: radius_coeff * bounding-box extent / sqrt(customer count)."""
    n = graph.customer_count
    if n == 0:
        return 0.0
    return radius_coeff * graph.extent() / math.sqrt(n)


# ---------------------------------------------------------------------------
# merging

def merge_pair(graph: Graph, i: int, j: int, order: tuple[int, int],
               window: tuple[float, float], tau_mode: str = "midpoint"):
    """Replace customers i and j with one super-node; returns (graph, super).

    A one-merge `Graph.contract`, which documents the super-node's attributes.
    """
    graph, (super_node,) = graph.contract([(i, j, order, window)], tau_mode)
    return graph, super_node


def coarsen(graph: Graph, params: CoarseningParams, trace: list | None = None):
    """Shrink the graph to at most p_target of its customer count.

    Each round: rank all customer pairs by spatio-temporal distance, keep
    those within the merge radius, then greedily match (each node once,
    depot never, infeasible orders and empty conservative windows skipped)
    and apply every matched merge. Stops at the target size or as soon as a
    round produces no merge. Returns (coarse_graph, history); `trace`, when
    given, collects one summary dict per round.
    """
    n0 = graph.customer_count
    history = MergeHistory()
    rounds = 0
    while graph.customer_count > params.p_target * n0:
        rounds += 1
        rho = radius_threshold(graph, params.radius_coeff)
        ids = graph.customer_ids()
        candidates = []
        if rho > 0:
            for ai, i in enumerate(ids):
                ni = graph.node(i)
                for j in ids[ai + 1:]:
                    w = pair_weight(ni, graph.node(j), graph.tau(i, j), params)
                    if w <= rho:
                        candidates.append((w, i, j))
        candidates.sort()
        used = set()
        merges = []
        for _, i, j in candidates:
            if i in used or j in used:
                continue
            order = choose_direction(graph.node(i), graph.node(j), graph.tau(i, j))
            if order is None:
                continue
            window = aggregate_window(order[0], order[1], graph.tau(i, j),
                                      params.propagation)
            if window[0] > window[1]:
                continue
            used.update((i, j))
            merges.append((i, j, (order[0].id, order[1].id), window))
        if trace is not None:
            trace.append({"round": rounds, "nodes_before": graph.customer_count,
                          "candidates": len(candidates), "merges_applied": len(merges),
                          "rho": rho})
        if not merges:
            break
        graph, supers = graph.contract(merges, params.tau_mode)
        history.records.extend(MergeRecord(sup.id, i, j, order, window)
                               for sup, (i, j, order, window) in zip(supers, merges))
    return graph, history
