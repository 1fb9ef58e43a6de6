"""tools/quality.py, the quality table, at toy size: its cells carry the
fields of run_pipeline's and solve_baseline's results, unchanged."""

import importlib.util
import json
import math
from pathlib import Path

from coarsevrp.coarsening import CoarseningParams
from coarsevrp.tuning import SOLVERS, run_pipeline, solve_baseline

ROOT = Path(__file__).resolve().parent.parent


def _quality():
    spec = importlib.util.spec_from_file_location("quality", ROOT / "tools" / "quality.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quality_table_at_toy_size():
    quality = _quality()
    inst = quality.instance("mixed200", 30)
    # the cells as the table's JSON file holds them
    cells = json.loads(json.dumps(quality.table([("mixed200", inst)], repeats=1)))
    # per solver: the baseline, then t6 and the CLI defaults in both modes
    assert [(c["solver"], c["config"], c["propagation"]) for c in cells] == [
        (solver, config, propagation) for solver in SOLVERS
        for config, propagation in [("baseline", None), ("t6", "relaxed"),
                                    ("t6", "conservative"), ("cli", "relaxed"),
                                    ("cli", "conservative")]]
    lb = math.ceil(sum(c.demand for c in inst.customers) / inst.capacity)
    for c in cells:
        assert c.keys() == {"row", "n", "config", "solver", "propagation", "distance",
                            "vehicles", "late", "over_capacity", "coarse_nodes", "stop",
                            "lb_bin", "coarsen_ms", "solve_ms", "inflate_ms", "ratio"}
        assert (c["row"], c["n"], c["lb_bin"]) == ("mixed200", 30, lb)
        if c["config"] == "baseline":
            out = solve_baseline(inst, c["solver"])
            assert c["coarse_nodes"] is c["stop"] is c["coarsen_ms"] is c["ratio"] is None
        else:
            params = CoarseningParams(**quality.CONFIGS[c["config"]],
                                      propagation=c["propagation"])
            out = run_pipeline(inst, params, c["solver"])
            assert c["coarse_nodes"] == out.coarse_graph.customer_count
            assert c["stop"] == out.coarsening[-1]["stop"]
            assert c["ratio"] > 0 and c["coarsen_ms"] > 0 and c["inflate_ms"] >= 0
        m = out.metrics
        assert (c["distance"], c["vehicles"], c["late"], c["over_capacity"]) == (
            m.total_distance, m.num_vehicles, m.tw_violations, m.capacity_violations)
        assert c["solve_ms"] > 0
