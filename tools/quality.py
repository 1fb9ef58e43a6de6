"""Quality and stage-time table of the pipeline against the plain baseline.

    python3 tools/quality.py --out BENCH_<n>.json

Run from anywhere; the program is imported from the checkout's `src/` and the
instances come from `tests/gen.py`. For each row (the synthetic Solomon
stand-ins C101, R101, RC101, C201 and R103, and `random_instance(7, N,
family="mixed")` for N = 200, 400, 800, with horizon 4000 from N = 400), each
solver in `SOLVERS` and each configuration (the baseline, acceptance test 6's
parameters "t6" and the CLI defaults "cli", the last two in both propagation
modes) it writes one cell:

- distance, vehicles, late stops and over-capacity routes of the final
  routes, and the bin-packing bound ceil(total demand / capacity) on the
  vehicles of any feasible solution;
- for the pipeline, the coarse-node count and coarsening's stop reason;
- the median of three in-process calls of each stage time,
  `coarsen_ms`, `solve_ms` and `inflate_ms`, and the ratio of the
  pipeline's summed stage medians to the baseline's `solve_ms` median with
  the same solver.

The quality fields are deterministic; only the times are noisy. Standard
library only; the table gates nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from coarsevrp.coarsening import CoarseningParams  # noqa: E402
from coarsevrp.tuning import SOLVERS, run_pipeline, solve_baseline  # noqa: E402

import gen  # noqa: E402

SIZES = {"C101": 100, "R101": 100, "RC101": 100, "C201": 100, "R103": 100,
         "mixed200": 200, "mixed400": 400, "mixed800": 800}
CONFIGS = {"t6": {"alpha": 0.9, "beta": 0.1, "p_target": 0.3, "radius_coeff": 4.0},
           "cli": {}}
TIMES = ("coarsen_ms", "solve_ms", "inflate_ms")


def instance(name: str, n: int):
    """Table A's row `name` at `n` customers."""
    if name.startswith("mixed"):
        return gen.random_instance(7, n, family="mixed", horizon=4000.0 if n >= 400 else 400.0,
                                   name=f"mixed{n}")
    return gen.synthetic_benchmark(f"synth_{name}", n)


def cell(row: str, config: str, solver: str, propagation, inst, runs, base=None) -> dict:
    """One cell from `runs`, repeated PipelineResults of the same call; the
    ratio is to `base`, the baseline cell, and None on the baseline itself."""
    out = runs[0]
    m = out.metrics
    times = {k: statistics.median(r.timings[k] for r in runs) if k in out.timings else None
             for k in TIMES}
    stop = out.coarsening[-1].get("stop") if out.coarsening else None
    return {"row": row, "n": len(inst.customers), "config": config, "solver": solver,
            "propagation": propagation, "distance": m.total_distance,
            "vehicles": m.num_vehicles, "late": m.tw_violations,
            "over_capacity": m.capacity_violations,
            "coarse_nodes": out.coarse_graph.customer_count if out.coarse_graph else None,
            "stop": stop,
            "lb_bin": math.ceil(sum(c.demand for c in inst.customers) / inst.capacity),
            **times,
            "ratio": sum(times.values()) / base["solve_ms"] if base else None}


def table(rows, repeats: int = 3) -> list[dict]:
    """Every cell of `rows`, (name, instance) pairs, each call repeated."""
    cells = []
    for row, inst in rows:
        for solver in SOLVERS:
            runs = [solve_baseline(inst, solver) for _ in range(repeats)]
            base = cell(row, "baseline", solver, None, inst, runs)
            cells.append(base)
            for config, params in CONFIGS.items():
                for propagation in ("relaxed", "conservative"):
                    p = CoarseningParams(**params, propagation=propagation)
                    runs = [run_pipeline(inst, p, solver) for _ in range(repeats)]
                    cells.append(cell(row, config, solver, propagation, inst, runs, base))
    return cells


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    rows = [(name, instance(name, n)) for name, n in SIZES.items()]
    doc = {"repeats": 3, "python": platform.python_version(),
           "machine": platform.machine(), "cells": table(rows)}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}: {len(doc['cells'])} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
