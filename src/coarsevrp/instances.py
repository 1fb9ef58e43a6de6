"""Solomon-format CVRPTW instances plus solution / trial-report serialization."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path


class InstanceError(ValueError):
    """Instance file failed to parse or validate."""


class DocumentError(ValueError):
    """Solution document is malformed or missing required fields."""


@dataclass(frozen=True)
class Customer:
    id: int
    x: float
    y: float
    demand: float
    ready: float      # earliest service start
    due: float        # latest service start
    service: float


@dataclass(frozen=True)
class Instance:
    name: str
    vehicle_count: int
    capacity: float
    depot: Customer
    customers: tuple[Customer, ...]

    @property
    def horizon(self) -> float:
        return self.depot.due

    def customer(self, cid: int) -> Customer:
        c = self.customers[cid - 1]
        if c.id != cid:
            raise KeyError(cid)
        return c


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


def parse_solomon(text: str, name: str | None = None) -> Instance:
    """Parse a Solomon-layout instance.

    Expected shape: a title line, a VEHICLE section with a NUMBER/CAPACITY
    pair, and a CUSTOMER table whose rows are
    ``id x y demand ready due service`` with row 0 as the depot. A row of
    numbers in that table that are not exactly seven raises InstanceError.
    """
    lines = text.splitlines()
    stripped = [ln.strip() for ln in lines]

    title = name
    for ln in stripped:
        if ln:
            title = title or ln
            break
    if title is None:
        raise InstanceError("empty instance file")

    try:
        vi = stripped.index("VEHICLE")
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
        ci = stripped.index("CUSTOMER")
    except ValueError:
        raise InstanceError("missing CUSTOMER section") from None
    rows = []
    for ln in stripped[ci + 1:]:
        nums = _numbers(ln)
        if nums:                        # header and blank lines have none
            if len(nums) != 7:
                raise InstanceError(f"{title}: CUSTOMER row {ln!r} has {len(nums)} "
                                    f"numbers, expected 7")
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


def load_instance(path: str | Path) -> Instance:
    p = Path(path)
    return parse_solomon(p.read_text(), name=None)


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
# solution documents

def build_solution_document(solution, instance, metrics, params, seed=0, timings=None) -> dict:
    """Assemble the JSON-ready document for one solved instance.

    `instance` is anything with a `name`, a `depot` and `customers` that
    carry id/x/y: the `Instance` itself or a `Graph` built from it.
    `params` is a mapping with keys alpha/beta/p/radius_coeff/propagation/solver
    (missing keys are recorded as null). A `nodes` coordinate block is included
    so plotting needs nothing but the document.
    """
    timings = timings or {}
    routes = []
    for k, route in enumerate(solution.routes):
        stops = [{"node_id": nid,
                  "arrival": st.arrival,
                  "wait": st.wait,
                  "service_start": st.service_start,
                  "departure": st.departure}
                 for nid, st in zip(route.stops, route.schedule)]
        routes.append({"vehicle": k, "stops": stops})
    nodes = {str(instance.depot.id): {"x": instance.depot.x, "y": instance.depot.y}}
    for node in instance.customers:
        nodes[str(node.id)] = {"x": node.x, "y": node.y}
    return {
        "instance": instance.name,
        "seed": seed,
        "params": {k: params.get(k) for k in
                   ("alpha", "beta", "p", "radius_coeff", "propagation", "solver")},
        "routes": routes,
        "metrics": {
            "total_distance": metrics.total_distance,
            "num_vehicles": metrics.num_vehicles,
            "total_duration": metrics.total_duration,
            "tw_violations": metrics.tw_violations,
            "capacity_violations": metrics.capacity_violations,
            "feasible": metrics.feasible,
        },
        "timings": {
            "coarsen_ms": timings.get("coarsen_ms", 0.0),
            "solve_ms": timings.get("solve_ms", 0.0),
            "inflate_ms": timings.get("inflate_ms", 0.0),
        },
        "nodes": nodes,
    }


_DOC_KEYS = ("instance", "seed", "params", "routes", "metrics", "timings")


def validate_document(doc: dict) -> dict:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    missing = [k for k in _DOC_KEYS if k not in doc]
    if missing:
        raise DocumentError(f"document missing fields: {', '.join(missing)}")
    for r in doc["routes"]:
        if "stops" not in r:
            raise DocumentError("route entry missing 'stops'")
    return doc


def write_solution(doc: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(validate_document(doc), indent=2, sort_keys=True) + "\n")


def read_solution(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    return validate_document(doc)


# ---------------------------------------------------------------------------
# trial CSV reports

TRIAL_FIELDS = [
    "instance", "trial", "seed",
    "alpha", "beta", "p", "radius_coeff", "propagation", "solver",
    "coarse_total_distance", "coarse_num_vehicles", "coarse_total_duration",
    "coarse_tw_violations", "coarse_capacity_violations", "coarse_feasible",
    "total_distance", "num_vehicles", "total_duration",
    "tw_violations", "capacity_violations", "feasible",
    "score", "coarsen_ms", "solve_ms", "inflate_ms",
]


def trial_row(result, instance_name: str, seed) -> dict:
    """Flatten a TrialResult into one CSV row (timings stay in the last columns)."""
    row = {k: "" for k in TRIAL_FIELDS}
    row.update(instance=instance_name, trial=result.trial, seed=seed,
               propagation=result.propagation or "", solver=result.solver)
    for k in ("alpha", "beta", "p", "radius_coeff"):
        v = getattr(result, k)
        row[k] = "" if v is None else v
    if result.coarse_metrics is not None:
        cm = result.coarse_metrics
        row.update(coarse_total_distance=cm.total_distance,
                   coarse_num_vehicles=cm.num_vehicles,
                   coarse_total_duration=cm.total_duration,
                   coarse_tw_violations=cm.tw_violations,
                   coarse_capacity_violations=cm.capacity_violations,
                   coarse_feasible=cm.feasible)
    m = result.metrics
    row.update(total_distance=m.total_distance, num_vehicles=m.num_vehicles,
               total_duration=m.total_duration, tw_violations=m.tw_violations,
               capacity_violations=m.capacity_violations, feasible=m.feasible,
               score=result.score, coarsen_ms=result.coarsen_ms,
               solve_ms=result.solve_ms, inflate_ms=result.inflate_ms)
    return row


def write_trials_csv(path: str | Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TRIAL_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def read_trials_csv(path: str | Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
