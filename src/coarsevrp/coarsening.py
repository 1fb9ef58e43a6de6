"""Multilevel spatio-temporal coarsening for routing graphs.

Nodes that are close in space *and* compatible in time are greedily matched
and merged into super-nodes, level by level, until the graph shrinks to a
target fraction of its original size. Every merge is recorded so solutions
found on the small graph can later be expanded back onto the original one.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, compress
from operator import itemgetter

from ._records import Frozen, _fill, _set
from .graph import CoarseNode, Graph

PROPAGATION_MODES = ("relaxed", "conservative")


class CoarseningParams(Frozen):
    __slots__ = ("alpha", "beta", "p_target", "radius_coeff", "propagation")

    def __init__(self, alpha: float = 0.5,       # weight on spatial travel time
                 beta: float = 0.5,              # weight on temporal separation
                 p_target: float = 0.5,          # stop once customer count <= p_target * original
                 radius_coeff: float = 1.0,      # multiplier on the extent-based merge radius
                 propagation: str = "relaxed"):  # "conservative" bounds members' travel times too
        if not all(map(math.isfinite, (alpha, beta, radius_coeff))):
            raise ValueError("alpha, beta and radius_coeff must be finite")
        if alpha < 0 or beta < 0 or alpha + beta == 0:
            raise ValueError("alpha/beta must be non-negative and not both zero")
        if not 0 < p_target <= 1:
            raise ValueError("p_target must be in (0, 1]")
        if radius_coeff < 0:
            raise ValueError("radius_coeff must be >= 0")
        if propagation not in PROPAGATION_MODES:
            raise ValueError(f"propagation must be one of {PROPAGATION_MODES}")
        _fill(self, (alpha, beta, p_target, radius_coeff, propagation))


class MergeRecord(Frozen):
    """One merge: super-node `super_id` stands for the two children named in
    `order`, in service order, and gets the aggregated [ready, due] `window`."""
    __slots__ = ("super_id", "order", "window")

    def __init__(self, super_id: int, order: tuple[int, int], window: tuple[float, float]):
        _set(self, "super_id", super_id)
        _set(self, "order", order)
        _set(self, "window", window)


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


def merge_slack(first: CoarseNode, second: CoarseNode, tau: float) -> float:
    """Scheduling headroom when `first` is served immediately before `second`:
    (due_s - s_s - tau) - (ready_f + s_f). The order is feasible when it is
    >= 0. This reads `due` as a finish-by deadline; Customer.due and
    recompute_schedule read it as the latest start, so an order rejected
    here may still be served on time."""
    return (second.due - second.service - tau) - (first.ready + first.service)


def merge_feasibility(i: CoarseNode, j: CoarseNode, tau_ij: float) -> tuple[bool, bool]:
    """(forward, backward): can j be served right after i, and vice versa?
    Each is its order's merge_slack >= 0."""
    return merge_slack(i, j, tau_ij) >= 0, merge_slack(j, i, tau_ij) >= 0


def choose_direction(i: CoarseNode, j: CoarseNode, tau_ij: float):
    """Pick the service order with the larger merge_slack (ties keep i first).

    Returns the (first, second) node pair, or None when both slacks are
    negative. A feasible order's slack is >= 0, so it beats an infeasible one.
    """
    forward, backward = merge_slack(i, j, tau_ij), merge_slack(j, i, tau_ij)
    if forward < 0 and backward < 0:
        return None
    return (i, j) if forward >= backward else (j, i)


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

# Why the sweep in `coarsen` drops no candidate. The customers are sorted on
# one axis (_sorted_rows), and each is weighed only against the ones after it
# within one window on that axis (_window_ends, _weigh). A candidate has
# alpha*tau <= rho and beta*|dt| <= rho (both terms of its weight are >= 0),
# and tau >= the distance between the two positions: midpoint tau is that
# distance, and conservative tau adds the two nodes' covering radii to it.
# A radius is >= 0; it makes tau bound every member-to-member distance by the
# triangle inequality, but the sweep needs only that it is non-negative. So
# the two x, the two y and the two nominal times differ by at most one window,
# rho/alpha in space and rho/beta in time, on whichever axis the rows are
# sorted. The float rounding in those bounds is a few ulps relative, and
# rounding key + window is monotone, so widening the window by _WINDOW_MARGIN,
# far more than those ulps, keeps every candidate. The same holds at any
# radius: every pair of weight <= r lies in the window of r, so `coarsen` can
# match ring by ring, r = rho/4, rho/2 and then rho, in one loop, and may skip
# any ring but the last.
#
# A box pass (_box_pairs) drops none either. A pair of weight <= r differs by
# at most one window of r on every axis at once, so on the second axis a2 its
# two rows lie in strips, each one window of r widened by _WINDOW_MARGIN,
# whose floored indices differ by at most one; on the first axis a1 they lie
# within one window of each other, in the same strip or the next. The pass
# weighs each row against exactly those rows. Its composite keys, strip times
# a stretch plus the a1 offset in windows, round by a few ulps of the largest
# key; the a1 window is widened by _WINDOW_MARGIN and by 2**-40 of that key,
# thousands of ulps, so that rounding drops no pair. So each box pass sees
# every pair of weight <= r, and the merges are still those of one greedy
# pass over all pairs within rho in (w, i, j) order.
_WINDOW_MARGIN = 1e-6

# A round weighs in boxes (_box_pairs) when the sweep's window of rho holds
# this many rows or more on average. Below it, a box pass's composite sort
# and three bisections a row cost more than the pairs they spare. Measured as
# one round's thread time, its contraction included, sweep -> boxes, medians
# of 15 on a 2-core VM, 4 mixed inputs each at alpha .9 or .5 and beta .1:
# 16 rows per window 1.21 -> 1.38 ms and 31 rows 2.18 -> 2.49 ms (n = 200),
# 42 rows 1.64 -> 1.64 ms (n = 200), 44 rows 3.40 -> 2.99 ms (n = 400) and
# 77 rows 2.92 -> 2.23 ms (n = 300). The second axis's share needs no bound
# beyond being finite: at 51 rows per window on nominal time (n = 200, beta
# .1, radius 1.5, medians of 25), boxes cost no more than the sweep whether
# a2's window covers 0.27 of its spread (1.94 -> 1.92 ms), 0.53 (1.83 ->
# 1.71 ms) or 1.06 of it, a single strip (2.90 -> 2.44 ms), and at 200 rows
# whose windows of rho cover 1.28 and 2.12 of the two spreads (alpha .05,
# beta .02), 5.25 -> 3.77 ms.
_BOX_ROWS = 40


def _sorted_rows(graph: Graph, params: CoarseningParams, rho: float):
    """The customers as (x, y, nominal_t, id, (x, y)) rows sorted on one
    axis, x, y or nominal time, whichever window (rho/alpha or rho/beta)
    covers the smallest share of its values' spread. Returns (rows, keys,
    weight, shares): the rows, their values on that axis, its weight, alpha
    or beta, and each axis's share (inf where the axis has no weight or no
    spread). No rows when rho <= 0 or fewer than two customers remain."""
    nodes = graph.customers
    weights = (params.alpha, params.alpha, params.beta)
    if rho <= 0 or len(nodes) < 2:
        return [], [], params.alpha, [math.inf] * 3
    rows = [(n.x, n.y, n.nominal_t, n.id, (n.x, n.y)) for n in nodes]

    def share(axis):                    # of the axis's spread one window covers
        values = [row[axis] for row in rows]
        spread = max(values) - min(values)
        return rho / weights[axis] / spread if spread and weights[axis] else math.inf

    shares = [share(axis) for axis in (0, 1, 2)]
    axis = min((0, 1, 2), key=shares.__getitem__)
    rows.sort(key=itemgetter(axis))
    return rows, [row[axis] for row in rows], weights[axis], shares


def _box_axes(count: int, shares):
    """(a1, a2), the round's most selective axis and the next, when a round
    of `count` rows weighs in boxes: its window of rho holds _BOX_ROWS rows
    or more on a1 on average (all `count` when it covers a1's spread), and
    a2 has a weight and a spread (a finite share). None when the round
    sweeps."""
    a1, a2, _ = sorted((0, 1, 2), key=shares.__getitem__)
    if count * min(shares[a1], 1) >= _BOX_ROWS and shares[a2] < math.inf:
        return a1, a2
    return None


def _window_ends(keys, weight: float, radius: float, starts):
    """For each key, the end of its window of `radius` (radius/weight, widened
    by _WINDOW_MARGIN): the first index from its start whose key lies past it."""
    side = radius / weight * (1 + _WINDOW_MARGIN) if weight else math.inf
    return [bisect_right(keys, key + side, lo) for key, lo in zip(keys, starts)]


def _weigh(graph: Graph, params: CoarseningParams, limit: float, rows, starts, ends):
    """Weigh each row against rows[start:end]; returns the pairs (w, i, j),
    i < j, with weight w = alpha*tau + beta*|t_i - t_j| <= limit (st_distance
    in nominal mode), unsorted, and the number of pairs weighed from
    positions. The weight from the two positions is exact unless the graph
    is conservative, whose travel times add the two nodes' covering radii;
    then it is a lower bound, so only then are the pairs it keeps weighed
    again with Graph.tau. O(1) a pair.

    The distance is math.dist of the rows' points, bit for bit the
    math.hypot(ax - bx, ay - by) of Graph.tau: CPython's two functions take
    the same absolute coordinate differences, rounded once each, to the
    same vector_norm (tests/test_coarsening.py checks it)."""
    alpha, beta, dist = params.alpha, params.beta, math.dist
    pairs = [(w, i, j) if i < j else (w, j, i)
             for (_, _, at, i, pa), lo, hi in zip(rows, starts, ends)
             for _, _, bt, j, pb in rows[lo:hi]
             if (w := alpha * dist(pa, pb) + beta * abs(at - bt)) <= limit]
    if graph.conservative:
        tau, node = graph.tau, graph.node
        pairs = [(w, i, j) for _, i, j in pairs
                 if (w := alpha * tau(i, j)
                     + beta * abs(node(i).nominal_t - node(j).nominal_t)) <= limit]
    return pairs, sum(ends) - sum(starts)


def _box_pairs(graph: Graph, params: CoarseningParams, radius: float, rows, a1: int, a2: int):
    """The pairs (w, i, j) of weight <= radius among `rows`, unsorted, and
    the number weighed (_weigh), found in boxes: the rows are cut into
    strips on axis a2, each one window of radius wide, and ordered by
    (strip, value on a1) through one composite key; each row is weighed
    against the rows after it in its strip and the rows of the next strip,
    within its window on a1 (see _WINDOW_MARGIN). Both axes need a weight."""
    if len(rows) < 2:
        return [], 0
    weights = (params.alpha, params.alpha, params.beta)
    side = radius / weights[a1] or math.inf          # an a1 window; the key counts in them
    strip = radius / weights[a2] * (1 + _WINDOW_MARGIN) or math.inf
    low1 = min(row[a1] for row in rows)
    low2 = min(row[a2] for row in rows)
    offsets = [(row[a1] - low1) / side for row in rows]
    stretch = max(offsets) + 3          # a strip's keys, with a window's room on both sides
    keys = [(row[a2] - low2) // strip * stretch + offset for row, offset in zip(rows, offsets)]
    order = sorted(range(len(rows)), key=keys.__getitem__)
    rows, keys = [rows[k] for k in order], [keys[k] for k in order]
    reach = 1 + _WINDOW_MARGIN + keys[-1] * 2**-40
    firsts = range(1, len(rows) + 1)
    ends = [bisect_right(keys, key + reach, lo) for key, lo in zip(keys, firsts)]
    starts = [bisect_left(keys, key + stretch - reach, lo) for key, lo in zip(keys, ends)]
    nexts = [bisect_right(keys, key + stretch + reach, lo) for key, lo in zip(keys, starts)]
    same, weighed = _weigh(graph, params, radius, rows, firsts, ends)
    near, weighed_near = _weigh(graph, params, radius, rows, starts, nexts)
    return same + near, weighed + weighed_near


def _match(graph: Graph, params: CoarseningParams, pairs, used: set, merges: list):
    """Greedy matching over sorted (w, i, j) pairs: skip a pair with an end
    in `used`, an infeasible service order or an empty conservative window,
    and append every other one to `merges` as ((first, second), window)."""
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
        merges.append(((order[0].id, order[1].id), window))


def coarsen(graph: Graph, params: CoarseningParams, trace: list | None = None):
    """Shrink the graph to at most p_target of its customer count.

    Each round greedily matches the customer pairs within the merge radius
    rho in order of spatio-temporal distance, then applies every matched
    merge. The matching takes each node once and never the depot, and skips
    infeasible orders and empty conservative windows. It runs as one loop
    over the rings r = rho/4, rho/2 and rho, going straight to rho after a
    pass that matches nothing, so the last pass is always rho. Each pass
    keeps the rows still unmatched and weighs them in one of two ways,
    chosen per round (_box_axes), neither of which drops a pair within r
    (see _WINDOW_MARGIN):

    - a sweep, on the customers sorted on the axis whose window of rho
      covers the smallest share of its spread (_sorted_rows): each row is
      weighed against the next ones from the end of its previous window to
      the end of its window of r, so no pair is weighed twice, and the pass
      matches the pairs weighed so far of weight <= r; the heavier pairs
      carry to the next pass;
    - boxes, when that window holds _BOX_ROWS (40) rows or more on average
      and the next axis has a weight and a spread: the rows are cut into
      strips on the second axis, one window of r wide, and each is weighed
      against the rows within its window on the first axis in its own
      strip and the next one (_box_pairs). A pass holds every pair within
      r, so nothing carries, and a pair may be weighed again in a later
      pass.

    A pass matches its pairs in (w, i, j) order, skipping those with a
    matched end. Every pair of weight <= r reaches the pass of r, so the
    merges are those of one greedy pass over all pairs within rho in
    (w, i, j) order: a pair with a matched end would have been skipped. A
    round costs O(n log n + pairs weighed).

    propagation="relaxed" widens merged windows and measures travel from
    midpoints; "conservative" tightens them and contracts to a conservative
    graph, whose travel times add covering radii to the distance, an upper
    bound over the members (see Graph), so a coarse route with no late stop
    expands to one with none.

    Stops at the target size or as soon as a round produces no merge.
    Returns (coarse_graph, history), history being the MergeRecords oldest
    first; `trace`, when given, collects one summary dict per round, and the
    last one gets "stop": "target" or "stalled". A round's "pairs_scanned"
    counts the pairs its passes weighed from positions, and "candidates"
    those of them within rho in a sweep, within the pass's radius in boxes.
    """
    n0 = graph.customer_count
    history: list[MergeRecord] = []
    rounds = 0
    while graph.customer_count > params.p_target * n0:
        rounds += 1
        rho = radius_threshold(graph, params.radius_coeff)
        rows, keys, weight, shares = _sorted_rows(graph, params, rho)
        boxes = _box_axes(len(rows), shares)
        ends = range(1, len(rows) + 1)  # each row's window so far ends just past it
        used, merges, carried = set(), [], []
        scanned = candidates = 0
        matched = True
        for radius in (rho / 4, rho / 2, rho):
            if not matched and radius < rho:
                continue                # a pass that matched nothing goes straight to rho
            free = [row[3] not in used for row in rows]
            rows = list(compress(rows, free))       # the rows still unmatched
            if boxes:                   # every pair within radius, so nothing carries
                pairs, weighed = _box_pairs(graph, params, radius, rows, *boxes)
            else:
                # the first unmatched row at or after rows[k] is unmatched row free_before[k]
                free_before = list(accumulate(free, initial=0))
                keys = list(compress(keys, free))
                starts = [free_before[k] for k in compress(ends, free)]
                ends = _window_ends(keys, weight, radius, starts)
                pairs, weighed = _weigh(graph, params, rho, rows, starts, ends)
            scanned += weighed
            candidates += len(pairs)
            pairs += [p for p in carried if p[1] not in used and p[2] not in used]
            before = len(merges)
            _match(graph, params, sorted([p for p in pairs if p[0] <= radius]), used, merges)
            matched = len(merges) > before
            carried = [p for p in pairs if p[0] > radius]
        if trace is not None:
            trace.append({"round": rounds, "nodes_before": graph.customer_count,
                          "pairs_scanned": scanned, "candidates": candidates,
                          "merges_applied": len(merges), "rho": rho})
        if not merges:
            break
        graph, supers = graph.contract(merges, params.propagation == "conservative")
        history.extend(MergeRecord(sup.id, order, window)
                       for sup, (order, window) in zip(supers, merges))
    if trace is not None and rounds:
        stalled = graph.customer_count > params.p_target * n0
        trace[-1]["stop"] = "stalled" if stalled else "target"
    return graph, history
