"""Output checks. Each returns a list of problems; an empty list means correct."""

from __future__ import annotations

import math
import re

from coarsevrp.evaluation import evaluate, objective_score
from coarsevrp.graph import DEPOT_ID, recompute_schedule
from coarsevrp.heuristics import Solution
from coarsevrp.instances import DocumentError, read_solution, read_trials_csv

TIMING_FIELDS = ("coarsen_ms", "solve_ms", "inflate_ms")

_SCORE = re.compile(r"score=(\S+)")


def printed_scores(stdout: str) -> list[str]:
    """The `score=` values of the CLI's summary lines, as printed."""
    return _SCORE.findall(stdout)


def check_document(path, instance, graph, printed_score: str | None) -> tuple[list, float]:
    """(problems, score) for one solution document.

    Every customer is served exactly once, the stored metrics equal
    `evaluate()` recomputed from the stored routes on the original graph,
    the score is finite and matches what the CLI printed, and `feasible`
    holds only with zero violations.
    """
    try:
        doc = read_solution(path)
    except (OSError, DocumentError) as exc:
        return [f"{path}: {exc}"], math.nan
    problems = []
    stop_lists = [[s["node_id"] for s in r["stops"]] for r in doc["routes"]]
    served = sorted(s for stops in stop_lists for s in stops if s != DEPOT_ID)
    if served != [c.id for c in instance.customers]:
        problems.append(f"{path}: customers not served exactly once")
    try:
        routes = [recompute_schedule(stops, graph, instance.capacity) for stops in stop_lists]
    except (ValueError, KeyError) as exc:
        return problems + [f"{path}: routes do not replay: {exc!r}"], math.nan
    metrics = evaluate(Solution(routes, "", graph.name), graph, instance.capacity)
    stored = doc["metrics"]
    for key in ("total_distance", "num_vehicles", "total_duration", "tw_violations",
                "capacity_violations", "feasible"):
        if stored.get(key) != getattr(metrics, key):
            problems.append(f"{path}: {key}={stored.get(key)!r}, "
                            f"recomputed {getattr(metrics, key)!r}")
    if stored.get("feasible") and (stored.get("tw_violations") or
                                   stored.get("capacity_violations")):
        problems.append(f"{path}: feasible with violations")
    score = objective_score(metrics)
    if not math.isfinite(score):
        problems.append(f"{path}: score {score!r} is not finite")
    if printed_score is not None and printed_score != f"{score:.2f}":
        problems.append(f"{path}: CLI printed score={printed_score}, recomputed {score:.2f}")
    return problems, score


def check_trial_rows(path) -> tuple[list, list]:
    """(problems, rows): finite scores, `feasible` only with zero violations."""
    try:
        rows = read_trials_csv(path)
    except OSError as exc:
        return [f"{path}: {exc}"], []
    problems = [] if rows else [f"{path}: no rows"]
    for row in rows:
        try:
            score = float(row["score"])
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            problems.append(f"{path}: trial {row['trial']} score {row['score']!r}")
        violations = int(row["tw_violations"]) + int(row["capacity_violations"])
        if (row["feasible"] == "True") != (violations == 0):
            problems.append(f"{path}: trial {row['trial']} feasible={row['feasible']} "
                            f"with {violations} violations")
    return problems, rows


def without_timings_rows(rows: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k not in TIMING_FIELDS} for r in rows]


def without_timings_doc(path) -> dict:
    doc = read_solution(path)
    doc.pop("timings")
    return doc


def pipeline_ms(row: dict) -> float:
    """A trials.csv or baselines.csv row's recorded time: coarsen, solve and
    inflate for a trial, the solve alone for a baseline (its other two are 0)."""
    return sum(float(row[k]) for k in TIMING_FIELDS)
