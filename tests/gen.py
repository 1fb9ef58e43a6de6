"""Deterministic instance generators for the test suite.

Real benchmark files are optional: tests that want the classic 100-customer
instances look in data/solomon/ first and otherwise fall back to the
synthetic stand-ins built here (clearly named synth_*). Every generated
customer is feasible on its own: a vehicle leaving the depot at time 0 can
always serve it inside its window and return before the depot closes.
"""

from __future__ import annotations

import math
import random
import string
from pathlib import Path

from hypothesis import strategies as st

from coarsevrp.instances import Customer, Instance, load_instance

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "solomon"

FIG8_NAMES = ["C101", "C103", "R101", "R103", "C201", "C203", "RC101", "RC103"]


def _window(rng, r, horizon, service, width_range, anchor=None):
    """A [ready, due] pair reachable from the depot with a guaranteed return."""
    hi_start = horizon - service - r          # latest start that still returns in time
    assert hi_start >= r, "horizon too small for this customer"
    width = rng.uniform(*width_range)
    if anchor is None:
        ready = rng.uniform(0.0, max(0.0, hi_start - width))
    else:
        ready = min(max(0.0, anchor), max(0.0, hi_start - width))
    due = min(ready + width, hi_start)
    if due < r:                                # window would close before arrival
        due = min(r + width, hi_start)
        ready = max(0.0, due - width)
    return int(ready), int(math.ceil(due))


def random_instance(seed, n, *, capacity=100.0, horizon=400.0, family="random",
                    width_range=(20, 120), service_choices=(5, 10, 15),
                    demand_range=(5, 35), name=None) -> Instance:
    """Small random instance; family is "random", "clustered", or "mixed"."""
    rng = random.Random(seed)
    depot = Customer(0, 50, 50, 0, 0, horizon, 0)
    coords = []
    if family in ("clustered", "mixed"):
        n_clustered = n if family == "clustered" else n // 2
        n_centers = max(1, n_clustered // 5)
        centers = [(rng.uniform(15, 85), rng.uniform(15, 85)) for _ in range(n_centers)]
        for k in range(n_clustered):
            cx, cy = centers[k % n_centers]
            coords.append((min(90.0, max(10.0, rng.gauss(cx, 3))),
                           min(90.0, max(10.0, rng.gauss(cy, 3)))))
    while len(coords) < n:
        coords.append((rng.uniform(10, 90), rng.uniform(10, 90)))
    customers = []
    for i, (x, y) in enumerate(coords, start=1):
        x, y = round(x), round(y)
        r = math.hypot(x - depot.x, y - depot.y)
        service = rng.choice(service_choices)
        ready, due = _window(rng, r, horizon, service, width_range)
        demand = rng.randint(*demand_range)
        customers.append(Customer(i, x, y, demand, ready, due, service))
    return Instance(name or f"rand{seed}-{n}", 25, capacity, depot, tuple(customers))


# ---------------------------------------------------------------------------
# 100-customer synthetic stand-ins for the classic benchmark families

_SYNTH = {
    # family, horizon, service, window width range, capacity, demand range, seed
    "synth_C101":  ("clustered", 1236, 90, (40, 90),    200, (10, 40), 9101),
    "synth_C103":  ("clustered", 1236, 90, (160, 420),  200, (10, 40), 9103),
    "synth_R101":  ("random",    230,  10, (8, 18),     200, (5, 30),  9201),
    "synth_R103":  ("random",    230,  10, (30, 80),    200, (5, 30),  9203),
    "synth_C201":  ("clustered", 3000, 90, (140, 280),  700, (10, 40), 9301),
    "synth_C203":  ("clustered", 3000, 90, (420, 900),  700, (10, 40), 9303),
    "synth_RC101": ("mixed",     240,  10, (20, 50),    200, (5, 35),  9401),
    "synth_RC103": ("mixed",     240,  10, (60, 140),   200, (5, 35),  9403),
}


def synthetic_benchmark(name: str, n: int = 100) -> Instance:
    """Structured 100-customer stand-in; clusters get staggered sequential windows."""
    family, horizon, service, width_range, capacity, demand_range, seed = _SYNTH[name]
    rng = random.Random(seed)
    depot = Customer(0, 50, 50, 0, 0, horizon, 0)

    groups: list[list[tuple[float, float]]] = []
    if family in ("clustered", "mixed"):
        n_clustered = n if family == "clustered" else n // 2
        n_centers = 10 if family == "clustered" else 5
        per = n_clustered // n_centers
        for _ in range(n_centers):
            cx, cy = rng.uniform(12, 88), rng.uniform(12, 88)
            groups.append([(min(92.0, max(8.0, rng.gauss(cx, 2.5))),
                            min(92.0, max(8.0, rng.gauss(cy, 2.5)))) for _ in range(per)])
    placed = sum(len(g) for g in groups)
    if placed < n:
        groups.append([(rng.uniform(8, 92), rng.uniform(8, 92)) for _ in range(n - placed)])

    customers = []
    cid = 1
    for gi, group in enumerate(groups):
        clustered = family == "clustered" or (family == "mixed" and gi < 5)
        anchor = None
        if clustered:
            cx = sum(p[0] for p in group) / len(group)
            cy = sum(p[1] for p in group) / len(group)
            r_center = math.hypot(cx - depot.x, cy - depot.y)
            latest = horizon - service * len(group) - r_center - 60
            anchor = rng.uniform(r_center, max(r_center + 1, latest * 0.6))
        for x, y in group:
            x, y = round(x), round(y)
            r = math.hypot(x - depot.x, y - depot.y)
            ready, due = _window(rng, r, horizon, service, width_range, anchor=anchor)
            if clustered:
                anchor += service + rng.uniform(2, 8)   # stagger along the cluster tour
            customers.append(Customer(cid, x, y, rng.randint(*demand_range),
                                      ready, due, service))
            cid += 1
    return Instance(name, 25, capacity, depot, tuple(customers))


def load_benchmark(name: str) -> tuple[Instance, str]:
    """(instance, source): the real file when data/solomon has it, else the twin."""
    real = DATA_DIR / f"{name}.txt"
    if real.exists():
        return load_instance(real), "solomon file"
    return synthetic_benchmark(f"synth_{name}"), "synthetic stand-in"


def fig8_instances() -> list[tuple[str, Instance, str]]:
    return [(name, *load_benchmark(name)) for name in FIG8_NAMES]


# ---------------------------------------------------------------------------
# hypothesis strategy: any valid instance, not only generator-shaped ones

@st.composite
def drawn_instances(draw, max_customers=10, bound=1e300):
    """A valid instance with ids 0..n and finite numbers in [-bound, bound]:
    coordinates and windows anywhere in that range, demand, service and
    capacity non-negative (capacity > 0, demand <= capacity), any window
    with ready <= due."""
    def number(lo=-bound, hi=bound):
        return draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))

    def row(cid, demand, service):
        ready, due = sorted((number(), number()))
        return Customer(cid, number(), number(), demand, ready, due, service)

    capacity = draw(st.floats(0.0, bound, exclude_min=True))
    n = draw(st.integers(0, max_customers))
    customers = tuple(row(cid, number(0.0, capacity), number(0.0))
                      for cid in range(1, n + 1))
    name = draw(st.text(string.ascii_letters + string.digits, min_size=1, max_size=10))
    return Instance(name, draw(st.integers(1, 10**6)), capacity, row(0, 0.0, 0.0),
                    customers)


@st.composite
def windowed_instances(draw, max_customers=14, grid=None):
    """An instance on a 100 x 100 square with fractional coordinates,
    windows, service times and demands, whose windows and depot closing time
    are tight enough that some stops and some depot returns are late, and
    whose demands are large enough that some routes exceed the capacity.
    With grid=k the coordinates are integers in [0, k] instead, so that on a
    small grid many travel times are equal."""
    def number(lo, hi):
        return draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))

    def coordinate():
        return number(0.0, 100.0) if grid is None else float(draw(st.integers(0, grid)))

    horizon = number(50.0, 600.0)
    capacity = number(40.0, 150.0)
    customers = []
    for cid in range(1, draw(st.integers(1, max_customers)) + 1):
        ready = number(0.0, horizon)
        customers.append(Customer(cid, coordinate(), coordinate(),
                                  number(0.0, 40.0), ready, ready + number(0.0, 200.0),
                                  number(0.0, 20.0)))
    depot = Customer(0, coordinate(), coordinate(), 0.0, 0.0, horizon, 0.0)
    return Instance("windowed", 25, capacity, depot, tuple(customers))
