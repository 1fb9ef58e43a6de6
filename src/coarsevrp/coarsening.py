"""Multilevel spatio-temporal coarsening for routing graphs.

Nodes that are close in space *and* compatible in time are greedily matched
and merged into super-nodes, level by level, until the graph shrinks to a
target fraction of its original size. Every merge is recorded so solutions
found on the small graph can later be expanded back onto the original one.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import itemgetter

from .graph import CoarseNode, Graph

PROPAGATION_MODES = ("relaxed", "conservative")


@dataclass(frozen=True)
class CoarseningParams:
    alpha: float = 0.5            # weight on spatial travel time
    beta: float = 0.5             # weight on temporal separation
    p_target: float = 0.5         # stop once customer count <= p_target * original
    radius_coeff: float = 1.0     # multiplier on the extent-based merge radius
    propagation: str = "relaxed"  # "conservative" also makes travel times worst-case

    def __post_init__(self):
        if not all(map(math.isfinite, (self.alpha, self.beta, self.radius_coeff))):
            raise ValueError("alpha, beta and radius_coeff must be finite")
        if self.alpha < 0 or self.beta < 0 or self.alpha + self.beta == 0:
            raise ValueError("alpha/beta must be non-negative and not both zero")
        if not 0 < self.p_target <= 1:
            raise ValueError("p_target must be in (0, 1]")
        if self.radius_coeff < 0:
            raise ValueError("radius_coeff must be >= 0")
        if self.propagation not in PROPAGATION_MODES:
            raise ValueError(f"propagation must be one of {PROPAGATION_MODES}")


@dataclass(frozen=True)
class MergeRecord:
    super_id: int
    left: int
    right: int
    order: tuple[int, int]        # service order of the two children
    window: tuple[float, float]   # aggregated [ready, due] given to the super


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

# Why the sweep in `candidate_pairs` drops no candidate. A candidate has
# alpha*tau <= rho and beta*|dt| <= rho (both terms of its weight are >= 0),
# and tau >= the distance between the two positions: midpoint tau is that
# distance, and conservative tau is a max over member pairs, which by
# convexity is >= the distance between the two positions, as each position is
# a weighted mean of its members' positions. So the two x, the two y and the
# two nominal times differ by at most one window, rho/alpha in space and
# rho/beta in time, on whichever axis the rows are sorted. The
# float rounding in those bounds is a few ulps relative, and rounding
# key + window is monotone, so widening the window by _WINDOW_MARGIN, far
# more than those ulps, keeps every candidate. The same holds at any radius,
# so every pair of weight <= rho/2 lies within the window of rho/2: that is
# the inner ring of `coarsen`.
_WINDOW_MARGIN = 1e-6


def _sorted_rows(graph: Graph, params: CoarseningParams, rho: float):
    """The customers as (x, y, nominal_t, id) rows sorted on one axis, x, y
    or nominal time, whichever window (rho/alpha or rho/beta) covers the
    smallest share of its values' spread. Returns (rows, keys, weight): the
    rows, their values on that axis and its weight, alpha or beta. No rows
    when rho <= 0 or fewer than two customers remain."""
    nodes = graph.customers
    weights = (params.alpha, params.alpha, params.beta)
    if rho <= 0 or len(nodes) < 2:
        return [], [], params.alpha
    rows = [(n.x, n.y, n.nominal_t, n.id) for n in nodes]

    def share(axis):                    # of the axis's spread one window covers
        values = [row[axis] for row in rows]
        spread = max(values) - min(values)
        return rho / weights[axis] / spread if spread and weights[axis] else math.inf

    axis = min((0, 1, 2), key=share)
    rows.sort(key=itemgetter(axis))
    return rows, [row[axis] for row in rows], weights[axis]


def _window_ends(keys, weight: float, radius: float, starts):
    """For each key, the end of its window of `radius` (radius/weight, widened
    by _WINDOW_MARGIN): the first index from its start whose key lies past it."""
    side = radius / weight * (1 + _WINDOW_MARGIN) if weight else math.inf
    return [bisect_right(keys, key + side, lo) for key, lo in zip(keys, starts)]


def _weigh(graph: Graph, params: CoarseningParams, rho: float, rows, starts, ends):
    """Weigh each row against rows[start:end]; returns the pairs (w, i, j),
    i < j, with w <= rho, unsorted, and the number of pairs weighed from
    positions. In a conservative graph the pairs kept are weighed again
    with Graph.tau, as candidate_pairs says."""
    alpha, beta, hypot = params.alpha, params.beta, math.hypot
    pairs = [(w, i, j) if i < j else (w, j, i)
             for (ax, ay, at, i), lo, hi in zip(rows, starts, ends)
             for bx, by, bt, j in rows[lo:hi]
             if (w := alpha * hypot(ax - bx, ay - by) + beta * abs(at - bt)) <= rho]
    if graph.conservative:
        tau, node = graph.tau, graph.node
        pairs = [(w, i, j) for _, i, j in pairs
                 if (w := alpha * tau(i, j)
                     + beta * abs(node(i).nominal_t - node(j).nominal_t)) <= rho]
    return pairs, sum(ends) - sum(starts)


def candidate_pairs(graph: Graph, params: CoarseningParams, rho: float):
    """Customer pairs (w, i, j), i < j, with weight w = alpha*tau +
    beta*|t_i - t_j| <= rho (st_distance in nominal mode), sorted; none when
    rho is 0.

    Each customer becomes one (x, y, nominal_t, id) row. The rows are sorted
    on one axis, x, y or nominal time, whichever window (rho/alpha or
    rho/beta) covers the smallest share of its values' spread, and each row
    is weighed against the rows after it that lie within one window: one
    ring over the full window, so every pair in it is weighed once. The
    pruning is exact (see _WINDOW_MARGIN), and a call costs
    O(n log n + pairs in the window). A pair is weighed from the two
    positions. That weight is exact unless the graph is conservative
    (Graph.conservative), and then it is a lower bound, so only then are the
    pairs it keeps weighed again with Graph.tau. Returns (candidates,
    pairs_scanned), the latter counting the pairs weighed from positions.
    """
    rows, keys, weight = _sorted_rows(graph, params, rho)
    starts = range(1, len(rows) + 1)
    candidates, scanned = _weigh(graph, params, rho, rows, starts,
                                 _window_ends(keys, weight, rho, starts))
    candidates.sort()
    return candidates, scanned


def _match(graph: Graph, params: CoarseningParams, pairs, used: set, merges: list):
    """Greedy matching over sorted (w, i, j) pairs: skip a pair with an end
    in `used`, an infeasible service order or an empty conservative window,
    and append every other one to `merges` as (i, j, order, window)."""
    for _, i, j in pairs:
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


def coarsen(graph: Graph, params: CoarseningParams, trace: list | None = None):
    """Shrink the graph to at most p_target of its customer count.

    Each round greedily matches the customer pairs within the merge radius
    rho in order of spatio-temporal distance, then applies every matched
    merge. The matching takes each node once and never the depot, and skips
    infeasible orders and empty conservative windows. It runs in two rings
    over the customers sorted on one axis, as in candidate_pairs. Ring 1
    weighs each customer against the next ones within the window of rho/2
    and matches the pairs of weight <= rho/2, all of which lie in that
    window (see _WINDOW_MARGIN). Ring 2 weighs the outer half of the window,
    only between customers still unmatched, and matches those pairs together
    with ring 1's pairs of weight in (rho/2, rho] whose ends are both still
    unmatched. Every pair is weighed at most once, and the merges are those
    of one greedy pass over all pairs within rho in (w, i, j) order: a pair
    with a matched end would have been skipped. A round costs
    O(n log n + pairs in the window).

    propagation="relaxed" widens merged windows and measures travel from
    midpoints; "conservative" tightens them and contracts to a conservative
    graph, whose travel times are the worst case over the members, so a
    coarse route with no late stop expands to one with none.

    Stops at the target size or as soon as a round produces no merge.
    Returns (coarse_graph, history), history being the MergeRecords oldest
    first; `trace`, when given, collects one summary dict per round, and the
    last one gets "stop": "target" or "stalled". A round's "pairs_scanned"
    counts the pairs both rings weighed from positions, and "candidates"
    those of them within rho.
    """
    n0 = graph.customer_count
    history: list[MergeRecord] = []
    rounds = 0
    while graph.customer_count > params.p_target * n0:
        rounds += 1
        rho = radius_threshold(graph, params.radius_coeff)
        half = rho / 2
        rows, keys, weight = _sorted_rows(graph, params, rho)
        # ring 1: each row against the next ones within the window of rho/2
        starts = range(1, len(rows) + 1)
        mids = _window_ends(keys, weight, half, starts)
        inner, scanned = _weigh(graph, params, rho, rows, starts, mids)
        used = set()
        merges = []
        _match(graph, params, sorted([p for p in inner if p[0] <= half]), used, merges)
        # ring 2: the rest of the window, between rows still unmatched; the
        # first unmatched row at or after rows[k] is unmatched row free_before[k]
        free = [row[3] not in used for row in rows]
        free_before = list(accumulate(free, initial=0))
        starts = [free_before[k] for k in compress(mids, free)]
        outer, outer_scanned = _weigh(
            graph, params, rho, list(compress(rows, free)), starts,
            _window_ends(list(compress(keys, free)), weight, rho, starts))
        _match(graph, params, sorted([p for p in inner if p[0] > half and p[1] not in used
                                      and p[2] not in used] + outer),
               used, merges)
        if trace is not None:
            trace.append({"round": rounds, "nodes_before": graph.customer_count,
                          "pairs_scanned": scanned + outer_scanned,
                          "candidates": len(inner) + len(outer),
                          "merges_applied": len(merges), "rho": rho})
        if not merges:
            break
        graph, supers = graph.contract(merges, params.propagation == "conservative")
        history.extend(MergeRecord(sup.id, i, j, order, window)
                       for sup, (i, j, order, window) in zip(supers, merges))
    if trace is not None and rounds:
        stalled = graph.customer_count > params.p_target * n0
        trace[-1]["stop"] = "stalled" if stalled else "target"
    return graph, history
