"""Solomon-format CVRPTW instances plus solution / trial-report serialization."""

from __future__ import annotations

import json
import math
from pathlib import Path

from ._records import Frozen, _fill, _set


class InstanceError(ValueError):
    """Instance file failed to parse or validate."""


class DocumentError(ValueError):
    """Solution document is malformed or missing required fields."""


class Customer(Frozen):
    __slots__ = ("id", "x", "y", "demand", "ready", "due", "service")

    def __init__(self, id: int, x: float, y: float, demand: float, ready: float,
                 due: float, service: float):
        _set(self, "id", id)
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "demand", demand)
        _set(self, "ready", ready)         # earliest service start
        _set(self, "due", due)             # latest service start
        _set(self, "service", service)


class Instance(Frozen):
    __slots__ = ("name", "vehicle_count", "capacity", "depot", "customers")

    def __init__(self, name: str, vehicle_count: int, capacity: float, depot: Customer,
                 customers: tuple[Customer, ...]):
        _fill(self, (name, vehicle_count, capacity, depot, customers))


def _numbers(line: str) -> list[float]:
    out = []
    for tok in line.split():
        try:
            out.append(float(tok))
        except ValueError:
            return []
    if not all(map(math.isfinite, out)):   # NaN would pass every range check
        raise InstanceError(f"non-finite number in row {line!r}")
    return out


def parse_solomon(text: str) -> Instance:
    """Parse a Solomon-layout instance.

    Expected shape: a title line, a VEHICLE section with a NUMBER/CAPACITY
    pair, and a CUSTOMER table whose rows are
    ``id x y demand ready due service`` with row 0 as the depot. A line of
    that table that starts with a number is a row and must hold exactly
    seven numbers, or InstanceError is raised; other lines are skipped.
    """
    lines = text.splitlines()
    stripped = [ln.strip() for ln in lines]

    ti = next((i for i, ln in enumerate(stripped) if ln), None)
    if ti is None:
        raise InstanceError("empty instance file")
    title = stripped[ti]

    # sections are looked for below the title, which may itself read
    # VEHICLE or CUSTOMER
    try:
        vi = stripped.index("VEHICLE", ti + 1)
    except ValueError:
        raise InstanceError("missing VEHICLE section") from None
    fleet = None
    for ln in stripped[vi + 1:]:
        nums = _numbers(ln)
        if len(nums) >= 2:
            if not nums[0].is_integer():
                raise InstanceError(f"{title}: vehicle count {nums[0]} is not an integer")
            fleet = (int(nums[0]), nums[1])
            break
        if ln == "CUSTOMER":
            break
    if fleet is None:
        raise InstanceError("VEHICLE section has no NUMBER/CAPACITY row")
    vehicle_count, capacity = fleet

    try:
        ci = stripped.index("CUSTOMER", vi + 1)
    except ValueError:
        raise InstanceError("missing CUSTOMER section") from None
    rows = []
    for ln in stripped[ci + 1:]:
        nums = _numbers(ln)
        if nums or _numbers(ln.split(maxsplit=1)[0] if ln else ""):
            # a row starts with a number; header and blank lines do not
            if len(nums) != 7:
                got = f"{len(nums)} numbers" if nums else "a non-number"
                raise InstanceError(f"{title}: CUSTOMER row {ln!r} has {got}, expected 7")
            if not nums[0].is_integer():
                raise InstanceError(f"{title}: customer id {nums[0]} is not an integer")
            rows.append(Customer(int(nums[0]), nums[1], nums[2], nums[3],
                                 nums[4], nums[5], nums[6]))
    if not rows:
        raise InstanceError("CUSTOMER section has no data rows")

    depot, customers = rows[0], tuple(rows[1:])
    _validate(title, vehicle_count, capacity, depot, customers)
    return Instance(title, vehicle_count, capacity, depot, customers)


def _validate(name, vehicle_count, capacity, depot, customers):
    if capacity <= 0:
        raise InstanceError(f"{name}: capacity must be positive, got {capacity}")
    if vehicle_count < 1:
        raise InstanceError(f"{name}: vehicle count must be >= 1")
    if depot.id != 0:
        raise InstanceError(f"{name}: first customer row must be the depot (id 0)")
    if depot.demand != 0 or depot.service != 0:
        raise InstanceError(f"{name}: depot must have zero demand and service time")
    seen = set()
    for c in customers:
        if c.id in seen:
            raise InstanceError(f"{name}: duplicate customer id {c.id}")
        seen.add(c.id)
        if c.ready > c.due:
            raise InstanceError(f"{name}: customer {c.id} window [{c.ready}, {c.due}] is empty")
        if c.demand > capacity:
            raise InstanceError(f"{name}: customer {c.id} demand {c.demand} exceeds capacity {capacity}")
        if c.service < 0 or c.demand < 0:
            raise InstanceError(f"{name}: customer {c.id} has negative demand or service time")
    if depot.ready > depot.due:
        raise InstanceError(f"{name}: depot window is empty")
    if seen != set(range(1, len(customers) + 1)):
        raise InstanceError(f"{name}: customer ids must be 1..n without gaps")
    # every travel time is at most 3 diagonals (with covering radii), so this
    # bounds every schedule time and every metric sum: all must stay finite
    rows = (depot, *customers)
    diagonal = math.hypot(max(r.x for r in rows) - min(r.x for r in rows),
                          max(r.y for r in rows) - min(r.y for r in rows))
    times = max(max(abs(r.ready), abs(r.due)) for r in rows)
    service = sum(r.service for r in rows)
    if not math.isfinite(len(rows) * (times + service + 8 * len(rows) * diagonal)):
        raise InstanceError(f"{name}: coordinates and times are too large for travel "
                            f"times, schedules and their sums to stay finite")


def load_instance(path: str | Path) -> Instance:
    return parse_solomon(Path(path).read_text(encoding="utf-8"))


def _fmt(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def write_solomon(instance: Instance) -> str:
    """Echo an instance back out in Solomon layout (round-trips through parse)."""
    out = [instance.name, "", "VEHICLE", "NUMBER     CAPACITY",
           f"  {instance.vehicle_count}         {_fmt(instance.capacity)}", "", "CUSTOMER",
           "CUST NO.  XCOORD.   YCOORD.    DEMAND   READY TIME  DUE DATE   SERVICE TIME", ""]
    for c in (instance.depot, *instance.customers):
        out.append("   ".join(_fmt(v).rjust(8) for v in
                              (c.id, c.x, c.y, c.demand, c.ready, c.due, c.service)))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# solution documents and trial CSVs: one name list per record

PARAM_NAMES = ("alpha", "beta", "p", "radius_coeff", "propagation", "solver")
METRIC_NAMES = ("total_distance", "num_vehicles", "total_duration",
                "tw_violations", "capacity_violations", "feasible")   # Metrics' fields
TIMING_NAMES = ("coarsen_ms", "solve_ms", "inflate_ms")


def build_solution_document(solution, instance, metrics, params, seed=0, timings=None) -> dict:
    """Assemble the JSON-ready document for one solved instance.

    `instance` is anything with a `name`, a `depot` and `customers` that
    carry id/x/y: the `Instance` itself or a `Graph` built from it.
    `params` is a mapping with the PARAM_NAMES keys (missing keys are
    recorded as null). A `nodes` coordinate block is included
    so plotting needs nothing but the document.
    """
    timings = timings or {}
    routes = []
    for k, route in enumerate(solution.routes):
        stops = [{"node_id": nid,
                  "arrival": arrival,
                  "wait": start - arrival,
                  "service_start": start,
                  "departure": departure}
                 for nid, arrival, start, departure
                 in zip(route.stops, route.arrivals, route.starts, route.departures)]
        routes.append({"vehicle": k, "stops": stops})
    nodes = {str(instance.depot.id): {"x": instance.depot.x, "y": instance.depot.y}}
    for node in instance.customers:
        nodes[str(node.id)] = {"x": node.x, "y": node.y}
    return {
        "instance": instance.name,
        "seed": seed,
        "params": {k: params.get(k) for k in PARAM_NAMES},
        "routes": routes,
        "metrics": {k: getattr(metrics, k) for k in METRIC_NAMES},
        "timings": {k: timings.get(k, 0.0) for k in TIMING_NAMES},
        "nodes": nodes,
    }


_DOC_KEYS = ("instance", "seed", "params", "routes", "metrics", "timings")


def validate_document(doc: dict) -> dict:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    missing = [k for k in _DOC_KEYS if k not in doc]
    if missing:
        raise DocumentError(f"document missing fields: {', '.join(missing)}")
    routes = doc["routes"]
    if not isinstance(routes, list) or not all(isinstance(r, dict) for r in routes):
        raise DocumentError("'routes' must be a list of objects")
    for r in routes:
        stops = r.get("stops")
        if not isinstance(stops, list) or not all(
                isinstance(s, dict) and type(s.get("node_id")) is int for s in stops):
            raise DocumentError("each route needs a 'stops' list of objects "
                                "with an integer 'node_id'")
    return doc


def write_solution(doc: dict, path: str | Path) -> None:
    """Write a document as one line of key-sorted ASCII JSON
    (``python -m json.tool`` pretty-prints it)."""
    Path(path).write_text(json.dumps(validate_document(doc), sort_keys=True) + "\n",
                          encoding="utf-8")


def read_solution(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    return validate_document(doc)


TRIAL_FIELDS = ["instance", "trial", "seed", *PARAM_NAMES,
                *(f"coarse_{k}" for k in METRIC_NAMES), *METRIC_NAMES,
                "score", *TIMING_NAMES]


def trial_row(result, instance_name: str, seed) -> dict:
    """Flatten a TrialResult into one CSV row (timings stay in the last columns);
    a None parameter and missing coarse metrics are written as empty cells."""
    row = {"instance": instance_name, "trial": result.trial, "seed": seed}
    for k in PARAM_NAMES:
        v = getattr(result, k)
        row[k] = "" if v is None else v
    coarse = result.coarse_metrics
    row.update((f"coarse_{k}", "" if coarse is None else getattr(coarse, k))
               for k in METRIC_NAMES)
    row.update((k, getattr(result.metrics, k)) for k in METRIC_NAMES)
    row["score"] = result.score
    row.update((k, getattr(result, k)) for k in TIMING_NAMES)
    return row


def write_trials_csv(path: str | Path, rows) -> None:
    import csv      # here, not at the top: only tune and report use the CSVs
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TRIAL_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def read_trials_csv(path: str | Path) -> list[dict]:
    import csv
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))
