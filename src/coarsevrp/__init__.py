"""coarsevrp: spatio-temporal graph-coarsening toolkit for CVRPTW heuristics.

Pipeline: parse a Solomon instance, coarsen the customer graph by merging
spatially and temporally compatible nodes, run a cheap constructive solver
on the small graph, inflate the routes back onto the original graph, repair,
and score.
"""

from .coarsening import CoarseningParams, MergeRecord, coarsen
from .evaluation import Metrics, evaluate, objective_score
from .graph import CoarseNode, Graph, Route, recompute_schedule
from .heuristics import Solution, greedy_solve, savings_solve
from .inflation import inflate, light_postprocess
from .instances import Customer, Instance, load_instance, parse_solomon, write_solomon
from .tuning import SearchSpace, TrialResult, random_search, run_baseline, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "CoarseNode", "CoarseningParams", "Customer", "Graph", "Instance",
    "MergeRecord", "Metrics", "Route",
    "SearchSpace", "Solution", "TrialResult", "coarsen",
    "evaluate", "greedy_solve", "inflate", "light_postprocess", "load_instance",
    "objective_score", "parse_solomon", "random_search", "recompute_schedule",
    "run_baseline", "run_pipeline", "savings_solve", "write_solomon",
]
