"""Seeded CVRPTW instances for the benchmark.

`random_instance` started as a copy of the generator of the same name in
`tests/gen.py`. It is frozen here, so the benchmark's inputs for a seed stay
the same whatever later happens to the test helpers.
"""

from __future__ import annotations

import math
import random

from coarsevrp.instances import Customer, Instance


def _window(rng, r, horizon, service, width_range):
    """A [ready, due] pair reachable from the depot with a guaranteed return."""
    hi_start = horizon - service - r          # latest start that still returns in time
    if hi_start < r:
        raise ValueError("horizon too small for this customer")
    width = rng.uniform(*width_range)
    ready = rng.uniform(0.0, max(0.0, hi_start - width))
    due = min(ready + width, hi_start)
    if due < r:                                # window would close before arrival
        due = min(r + width, hi_start)
        ready = max(0.0, due - width)
    return int(ready), int(math.ceil(due))


def random_instance(seed, n, *, capacity=100.0, horizon=400.0, family="random",
                    width_range=(20, 120), service_choices=(5, 10, 15),
                    demand_range=(5, 35), name=None) -> Instance:
    """Random instance; family is "random", "clustered", or "mixed"."""
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
