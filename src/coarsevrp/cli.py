"""Command-line interface: solve, baseline, tune, plot, report.

Exit codes: 0 success, 2 parse/validation problem, 3 I/O problem.

A command imports only what it runs: `plot` loads the SVG module, `report`
the report module, and the process pool loads with `tune --jobs` > 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .coarsening import PROPAGATION_MODES, CoarseningParams
from .instances import (DocumentError, build_solution_document, load_instance,
                        read_solution, trial_row, write_solution, write_trials_csv)
from .tuning import (SOLVERS, SearchSpace, run_campaign, run_pipeline, solve_baseline,
                     trial_solution)


def _summary_line(tag: str, metrics, score: float) -> str:
    return (f"{tag}: distance={metrics.total_distance:.2f} vehicles={metrics.num_vehicles} "
            f"duration={metrics.total_duration:.2f} tw={metrics.tw_violations} "
            f"cap={metrics.capacity_violations} feasible={metrics.feasible} "
            f"score={score:.2f}")


def _write_result(args, instance, out, tag: str, params_doc: dict, suffix: str) -> int:
    """Write a run's solution document to --out or to the instance's stem +
    suffix, then print its summary line and where it went; the document is
    written first, so a closed stdout still leaves it."""
    doc = build_solution_document(out.solution, instance, out.metrics, params_doc,
                                  seed=args.seed, timings=out.timings)
    out_path = args.out or Path(Path(args.instance).stem + suffix)
    write_solution(doc, out_path)
    print(_summary_line(tag, out.metrics, out.score))
    print(f"wrote {out_path}")
    return 0


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    params = CoarseningParams(alpha=args.alpha, beta=args.beta, p_target=args.p,
                              radius_coeff=args.radius, propagation=args.propagation)
    out = run_pipeline(instance, params, args.solver)
    if out.coarsening and out.coarsening[-1]["stop"] == "stalled":
        n0 = len(instance.customers)
        print(f"warning: coarsening stalled at {out.coarse_graph.customer_count} nodes "
              f"(started with {n0}, target {int(args.p * n0)})", file=sys.stderr)
    return _write_result(args, instance, out, instance.name,
                         {"alpha": args.alpha, "beta": args.beta, "p": args.p,
                          "radius_coeff": args.radius, "propagation": args.propagation,
                          "solver": args.solver}, ".solution.json")


def cmd_baseline(args) -> int:
    instance = load_instance(args.instance)
    return _write_result(args, instance, solve_baseline(instance, args.solver),
                         f"{instance.name} [baseline {args.solver}]",
                         {"solver": args.solver}, f".{args.solver}.baseline.json")


def _space_from(args) -> SearchSpace:
    cfg = {}
    if args.config:
        try:
            cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DocumentError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise DocumentError("config must be a JSON object")
    names = SearchSpace.__slots__
    unknown = [k for k in cfg if k not in names]
    if unknown:
        raise DocumentError(f"unknown config keys: {', '.join(unknown)} "
                            f"(known: {', '.join(names)})")
    space = SearchSpace()
    values = {}
    for name in names:
        cast = type(getattr(space, name)[0])   # float, or str for solvers
        flag = getattr(args, name)
        if flag is not None:                   # CLI flag wins
            raw = flag.split(",") if flag else []
        elif name in cfg:
            raw = cfg[name]
        else:                                  # SearchSpace's default
            continue
        if not isinstance(raw, list) or not raw:
            raise DocumentError(f"{name} must be a non-empty list")
        try:
            if flag is None:           # a config value is a JSON number, or a string for solvers
                for v in raw:
                    if isinstance(v, bool) or isinstance(v, str) != (cast is str):
                        raise TypeError(f"{v!r} is not a {cast.__name__}")
            values[name] = tuple(cast(v) for v in raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DocumentError(f"{name}: {exc}") from exc
    return SearchSpace(**values)


def cmd_tune(args) -> int:
    """Trials and both baselines of one campaign, from run_campaign. With
    --jobs > 1 the baselines run in the trials' pool, so baselines.csv's
    solve_ms is timed with the other workers busy, as every trial's is."""
    instance = load_instance(args.instance)
    space = _space_from(args)              # a bad search space exits before any trial
    best, trials, baselines = run_campaign(instance, space, args.trials, args.seed,
                                           propagation=args.propagation, jobs=args.jobs,
                                           baselines=tuple(SOLVERS))
    out_dir = Path(args.out_dir)           # made only once the campaign has run
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trials_csv(out_dir / "trials.csv",
                     [trial_row(t, instance.name, args.seed) for t in trials])
    write_trials_csv(out_dir / "baselines.csv",
                     [trial_row(b, instance.name, args.seed) for b in baselines])
    # the winning trial's own routes, metrics and timings
    doc = build_solution_document(trial_solution(instance, best), instance, best.metrics,
                                  best.params_doc(), seed=args.seed, timings=best.timings)
    write_solution(doc, out_dir / "best_solution.json")
    for b in baselines:
        print(_summary_line(f"{instance.name} [baseline {b.solver}]", b.metrics, b.score))
    print(_summary_line(
        f"{instance.name} [best trial {best.trial}: alpha={best.alpha} beta={best.beta} "
        f"p={best.p} radius={best.radius_coeff} solver={best.solver}]",
        best.metrics, best.score))
    print(f"wrote {out_dir / 'trials.csv'}, {out_dir / 'baselines.csv'}, "
          f"{out_dir / 'best_solution.json'}")
    return 0


def cmd_plot(args) -> int:
    from .plotting import render_solution_svg
    doc = read_solution(args.solution)
    svg = render_solution_svg(doc)
    out_path = args.out or Path(Path(args.solution).stem + ".svg")
    Path(out_path).write_text(svg, encoding="utf-8")
    print(f"wrote {out_path}")
    return 0


def cmd_report(args) -> int:
    """The table on stdout and, with --out, the same rows as CSV; the CSV
    is written first, so a table that stdout cannot encode still leaves it."""
    from .report import build_report, format_report, write_report_csv
    rows = build_report(args.run_dirs)
    if args.out:
        write_report_csv(args.out, rows)
    print(format_report(rows))
    if args.out:
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coarsevrp",
                                     description="Coarsen-solve-inflate toolkit for CVRPTW.")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = CoarseningParams()

    def add_instance(p):
        p.add_argument("instance", help="Solomon-format instance file")

    def add_propagation(p):
        p.add_argument("--propagation", choices=PROPAGATION_MODES, default=defaults.propagation,
                       help="relaxed widens merged time windows; conservative tightens "
                            "them and uses travel times that are an upper bound over the "
                            "members, so a coarse route with no late stop expands to one "
                            "with none (default: %(default)s)")

    def add_solver(p):
        p.add_argument("--solver", choices=tuple(SOLVERS), default="savings")

    p = sub.add_parser("solve", help="coarsen, solve, inflate one instance")
    add_instance(p)
    p.add_argument("--alpha", type=float, default=defaults.alpha)
    p.add_argument("--beta", type=float, default=defaults.beta)
    p.add_argument("--p", type=float, default=defaults.p_target)
    p.add_argument("--radius", type=float, default=defaults.radius_coeff)
    add_solver(p)
    add_propagation(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", help="solution document path")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("baseline", help="solve the uncoarsened instance")
    add_instance(p)
    add_solver(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", help="solution document path")
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("tune", help="seeded random search over coarsening parameters")
    add_instance(p)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--jobs", type=int, default=1)
    add_propagation(p)
    p.add_argument("--config", help="JSON file with the search space")
    for name in SearchSpace.__slots__:
        p.add_argument("--" + name.replace("_", "-"), help="comma-separated override")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("plot", help="render a solution document to SVG")
    p.add_argument("solution", help="solution document (JSON)")
    p.add_argument("-o", "--out", help="SVG path")
    p.set_defaults(fn=cmd_plot)

    p = sub.add_parser("report", help="aggregate tuning runs into a comparison table")
    p.add_argument("run_dirs", nargs="+", help="directories written by `tune`")
    p.add_argument("-o", "--out", help="also write the table as CSV")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:     # InstanceError, DocumentError and InflationError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
