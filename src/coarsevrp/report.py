"""Aggregate tuning runs into best-vs-baseline comparison tables."""

from __future__ import annotations

import csv
import math
from pathlib import Path

from .instances import DocumentError, read_trials_csv

# Externally reported improvement percentages (distance, duration, vehicles)
# for the savings solver on the classic benchmark instances, used purely for
# side-by-side inspection in report output.
REFERENCE_IMPROVEMENTS = {
    "C101": (63.29, 54.72, 66.30),
    "C103": (63.72, 52.33, 69.57),
    "C201": (61.93, 63.92, 67.39),
    "C203": (64.20, 67.17, 70.65),
    "R101": (53.84, 57.92, 59.78),
    "R103": (56.17, 61.03, 64.13),
    "RC101": (61.73, 67.13, 67.39),
    "RC103": (64.17, 68.90, 69.57),
}

# (report name, trial CSV column, type) in REFERENCE_IMPROVEMENTS order
_COMPARED = (("distance", "total_distance", float), ("duration", "total_duration", float),
             ("vehicles", "num_vehicles", int))
_BASELINE_COLUMNS = ("solver", "tw_violations", *(column for _, column, _ in _COMPARED))
_TRIAL_COLUMNS = ("instance", "trial", "score", *_BASELINE_COLUMNS)
_TEXT_COLUMNS = ("instance", "solver")    # every other column read is a number

# (field, text header): the report's columns in order, for the table and the CSV
REPORT_COLUMNS = [
    ("instance", "instance"), ("solver", "solver"),
    ("baseline_distance", "base dist"), ("best_distance", "best dist"),
    ("distance_impr_pct", "dist%"),
    ("baseline_duration", "base dur"), ("best_duration", "best dur"),
    ("duration_impr_pct", "dur%"),
    ("baseline_vehicles", "base veh"), ("best_vehicles", "best veh"),
    ("vehicles_impr_pct", "veh%"),
    ("baseline_tw", "base tw"), ("best_tw", "best tw"),
    ("ref_distance_impr_pct", "ref dist%"), ("ref_duration_impr_pct", "ref dur%"),
    ("ref_vehicles_impr_pct", "ref veh%"),
]


def improvement(base: float, new: float):
    """Percent reduction vs a baseline; None when the baseline is zero but got worse."""
    if base > 0:
        return (base - new) / base * 100.0
    return 0.0 if new <= base else None


def _f(row, key):
    return float(row[key])


def best_trial_row(trials: list[dict]) -> dict:
    """Lowest score wins; ties go to the earlier trial (mirrors the search)."""
    return min(trials, key=lambda r: (float(r["score"]), int(r["trial"])))


def load_run(run_dir: str | Path) -> tuple[list[dict], list[dict]]:
    run_dir = Path(run_dir)
    trials = read_trials_csv(run_dir / "trials.csv")
    baselines = read_trials_csv(run_dir / "baselines.csv")
    if not trials or not baselines:
        raise ValueError(f"{run_dir}: empty trials or baselines CSV")
    for name, rows, columns in (("trials.csv", trials, _TRIAL_COLUMNS),
                                ("baselines.csv", baselines, _BASELINE_COLUMNS)):
        missing = [c for c in columns if c not in rows[0]]
        if missing:
            raise DocumentError(f"{run_dir / name}: missing columns {', '.join(missing)}")
        if any(None in row.values() for row in rows):
            raise DocumentError(f"{run_dir / name}: a row has fewer cells than the header")
        for row in rows:
            for column in columns:
                if column not in _TEXT_COLUMNS and not math.isfinite(float(row[column])):
                    raise DocumentError(f"{run_dir / name}: {column} is not a finite "
                                        f"number: {row[column]!r}")
    return trials, baselines


def reference_row(instance_name: str):
    """Reference percentages for the instance; synthetic twins match their namesake."""
    key = instance_name
    if key.startswith("synth_"):
        key = key[len("synth_"):]
    return REFERENCE_IMPROVEMENTS.get(key)


def build_report(run_dirs) -> list[dict]:
    """One row per (instance, baseline solver): best trial with that solver
    against that solver's baseline, plus reference percentages when known."""
    rows = []
    for run_dir in run_dirs:
        trials, baselines = load_run(run_dir)
        instance = trials[0]["instance"]
        ref = reference_row(instance)
        for base in sorted(baselines, key=lambda r: r["solver"]):
            solver = base["solver"]
            with_solver = [t for t in trials if t["solver"] == solver]
            if not with_solver:
                continue
            best = best_trial_row(with_solver)
            row = {"instance": instance, "solver": solver,
                   "baseline_tw": int(_f(base, "tw_violations")),
                   "best_tw": int(_f(best, "tw_violations"))}
            for (name, column, cast), ref_pct in zip(_COMPARED, ref or (None,) * 3):
                b, n = cast(_f(base, column)), cast(_f(best, column))
                row.update({f"baseline_{name}": b, f"best_{name}": n,
                            f"{name}_impr_pct": improvement(b, n),
                            f"ref_{name}_impr_pct": ref_pct})
            rows.append(row)
    return rows


def _fmt(v):
    if v is None:
        return "n/a"      # ASCII, so the table prints under any locale
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)


def format_report(rows: list[dict]) -> str:
    """Aligned text table: achieved improvements next to the reference ones."""
    table = [[header for _, header in REPORT_COLUMNS]]
    for r in rows:
        table.append([_fmt(r[k]) for k, _ in REPORT_COLUMNS])
    widths = [max(len(row[c]) for row in table) for c in range(len(REPORT_COLUMNS))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def write_report_csv(path: str | Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([k for k, _ in REPORT_COLUMNS])
        for r in rows:
            writer.writerow(["" if r[k] is None else r[k] for k, _ in REPORT_COLUMNS])
