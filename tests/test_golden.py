"""Golden outputs: coarse graphs, merge histories and pipeline results on fixed
seeds, pinned by sha256 digest.

Each digest hashes the exact `repr` of every float involved, so a refactor of
coarsening, inflation or the travel-time rules that changes any result, even
in the last bit, fails here. Recompute a digest only for a deliberate change
of behaviour.
"""

import hashlib

import pytest

from coarsevrp.coarsening import CoarseningParams, coarsen
from coarsevrp.graph import Graph
from coarsevrp.tuning import run_pipeline

import gen

# the two coarsening modes; each id names the travel times, then the windows
MODES = [pytest.param("relaxed", id="midpoint-relaxed"),
         pytest.param("conservative", id="conservative-conservative")]

COARSEN_CASES = [(301, 40, "clustered"), (302, 70, "random"), (303, 90, "mixed")]

COARSEN_DIGESTS = {
    "relaxed":
        "92fb56f534ef96fd0c7d5c19602ff1273e738f0139ea812ef84c7853776c5307",
    "conservative":
        "96ffe13aaac724e61090252129feb31a1f463b46ed04eeafefdfb60e2a5cffd7",
}

PIPELINE_DIGESTS = {
    ("relaxed", "greedy"):
        "060c148de10a5c6efaa4fe87c61a438d9c7fb70ad6a0a8f68a83417e7c125023",
    ("relaxed", "savings"):
        "84f58b5c6af1d8f7e74f66528716119c7d80db1edb2d6b1dbb9ac41167bb5bc3",
    ("conservative", "greedy"):
        "7515256622cb730fc4d89e60355853c028fd80b290de444bedf9619b1bc77778",
    ("conservative", "savings"):
        "125bfa19c5217d2e1ceecb607d047ffb28b7e51428f5f84eb1cdca482959d6d9",
}

TRACE_DIGESTS = {
    "relaxed":
        "e1925c184de4db3f8db3bd97414688e021c00a58b9e8b74aff6b98be515ffbfc",
    "conservative":
        "d9013dfac10047f16fc5aa9174626d888e81a4cd755122ec0bb98815157edf03",
}

CLI_DEFAULTS_CONSERVATIVE_DIGEST = (
    "5eb50a952484afe7753af6c704b2e4129c43a81ad0229769ac6bf1d6f6740ff2")


def _params(propagation):
    return CoarseningParams(alpha=0.9, beta=0.1, p_target=0.3, radius_coeff=4.0,
                            propagation=propagation)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def coarsen_digest(propagation) -> str:
    lines = []
    for seed, n, family in COARSEN_CASES:
        g = Graph.from_instance(gen.random_instance(seed, n, family=family))
        cg, hist = coarsen(g, _params(propagation))
        lines.append(repr(hist))
        lines.append(repr([cg.depot, *cg.customers]))
        ids = [cg.depot.id, *cg.customer_ids()]
        lines.extend(f"{a} {b} {cg.tau(a, b)!r}" for k, a in enumerate(ids)
                     for b in ids[k + 1:])
    return _digest(lines)


def trace_digest(propagation) -> str:
    trace = []
    for seed, n, family in COARSEN_CASES:
        coarsen(Graph.from_instance(gen.random_instance(seed, n, family=family)),
                _params(propagation), trace=trace)
    return _digest(map(repr, trace))


def pipeline_digest(params, solver) -> str:
    lines = []
    for seed, n, family in COARSEN_CASES:
        out = run_pipeline(gen.random_instance(seed, n, family=family), params, solver)
        lines.append(repr([r.stops for r in out.solution.routes]))
        lines.append(repr([r.stops for r in out.coarse_solution.routes]))
        lines.append(f"{out.score!r} {out.metrics!r} {out.coarse_metrics!r}")
    return _digest(lines)


@pytest.mark.parametrize("propagation", MODES)
def test_coarse_graph_and_history_golden(propagation):
    assert coarsen_digest(propagation) == COARSEN_DIGESTS[propagation]


@pytest.mark.parametrize("propagation", MODES)
def test_coarsening_trace_golden(propagation):
    assert trace_digest(propagation) == TRACE_DIGESTS[propagation]


@pytest.mark.parametrize("solver", ["greedy", "savings"])
@pytest.mark.parametrize("propagation", MODES)
def test_pipeline_golden(propagation, solver):
    assert (pipeline_digest(_params(propagation), solver)
            == PIPELINE_DIGESTS[propagation, solver])


def test_conservative_pipeline_at_cli_defaults_golden():
    # coarsening stalls after a few merges, so nearly every node of the coarse
    # graph is a single customer
    params = CoarseningParams(propagation="conservative")
    assert pipeline_digest(params, "savings") == CLI_DEFAULTS_CONSERVATIVE_DIGEST
