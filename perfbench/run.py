"""End-to-end and per-module benchmark of coarsevrp's user paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. Each workload is one closed-loop client in this process calling
`coarsevrp.cli.main` the way a user calls `coarsevrp solve`, `baseline` and
`tune`, on instances generated from `--seed`. Every operation's output is
checked. `--trace 0` times the CLI operations and prints the end-to-end
metrics; `--trace 1` also replays each operation with a span around every
public call (replay.py) and prints the per-module metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md for the metric definitions and the workloads' reasons.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"

sys.path.insert(0, str(ROOT / "src"))
try:
    import coarsevrp  # noqa: E402
    from coarsevrp import cli  # noqa: E402
    from coarsevrp.graph import Graph  # noqa: E402
    from coarsevrp.instances import load_instance, write_solomon  # noqa: E402
except ImportError as exc:
    sys.exit(f"perfbench: cannot import coarsevrp from {ROOT / 'src'}: {exc}")
if Path(coarsevrp.__file__).resolve().parent != ROOT / "src" / "coarsevrp":
    sys.exit(f"perfbench: imported coarsevrp from {coarsevrp.__file__}, not this checkout")

import checks  # noqa: E402
import replay  # noqa: E402
from gen import random_instance  # noqa: E402

# Acceptance-test-6 parameters: about 220 merges over 2 rounds at n=300.
HEAVY = {"alpha": 0.9, "beta": 0.1, "p": 0.3, "radius": 4.0, "propagation": "relaxed"}
# `coarsevrp solve` defaults: with a 4000 horizon, 2 rounds find only 2-7 merges.
DEFAULTS = {"alpha": 0.5, "beta": 0.5, "p": 0.5, "radius": 1.0, "propagation": "relaxed"}

# On the solve workloads an iteration runs `solve` then `baseline` on the
# next instance of a pool of 32, cycling. On tune-parallel an iteration is
# one whole `tune` campaign on the next instance of a pool of 4, so every
# instance's campaign repeats within a run and the repeats can be compared.
WORKLOADS = {
    "coarsen-heavy": {"n": 300, "horizon": 400.0, "params": HEAVY, "solver": "savings",
                      "pool": 32},
    "coarsen-stalled": {"n": 400, "horizon": 4000.0, "params": DEFAULTS,
                        "solver": "savings", "pool": 32},
    "tune-parallel": {"n": 200, "horizon": 400.0, "campaigns": True, "pool": 4},
}
QUALITY = 8    # quality metrics come from the first 8 instances (all 4 on
               # tune-parallel), which every run completes, so they never
               # depend on how many operations fit
TOY = {"n": 24, "trials": 4}
TRIALS, TUNE_SEED, JOBS = 24, 42, 2
IMPORT_REPEATS, SETUP_REPEATS = 5, 5
# The machine's speed drifts by up to 1.7x over seconds, and the program's
# times follow those of a fixed pure-Python reference (reference_ms). Every
# end-to-end time is therefore reported at reference speed: scaled by REF_MS
# over the reference's CPU time, measured right before and right after the
# timed work, and run the way that work ran. A campaign's trials run in JOBS
# worker processes at once, so its wall and trial times are scaled by the
# reference run in JOBS processes at once. Its baselines run alone in this
# process, after the trials; they are scaled by the run's median factor for
# one process, which followed them more closely than the JOBS-process one.
REF_MS = 12.0
_REF_TABLE = {(i, j): i * j % 97 for i in range(250) for j in range(250)}
_REF_KEYS = random.Random(0).sample(list(_REF_TABLE), 15_000)
_REF_PAIRS = dict(list(_REF_TABLE.items())[:20_000])

END_TO_END = {
    "setup_s": "s", "solve_ms_p50": "ms", "solve_ms_tail": "ms",
    "baseline_ms_p50": "ms", "baseline_ms_tail": "ms", "pipeline_over_baseline": "ratio",
    "score_mean": "score", "baseline_score_mean": "score", "trials_per_s": "1/s",
    "best_score": "score", "peak_rss_mb": "MB",
}
MODULES = ("cli", "instances", "graph", "coarsening", "heuristics", "inflation",
           "evaluation", "tuning")


class Run:
    """One run's operations, their timings and check results."""

    def __init__(self, work: Path, tracer):
        self.work = work
        self.tr = tracer                    # replay.Tracer, or None when untraced
        self.attempted = 0
        self.failed = 0
        self.times = defaultdict(list)      # command -> wall ms per operation
        self.factors = defaultdict(list)    # command -> speed factor per operation
        self.trial_ms = defaultdict(list)   # instance -> per campaign, each trial's
        self.baseline_ms = defaultdict(list)  # pipeline ms and each baseline's ms,
                                            # as trials.csv and baselines.csv record them
        self.campaign_factors = defaultdict(list)  # instance -> per campaign, the
                                            # JOBS-process speed factor
        self.campaign_ms: list = []         # each campaign's wall ms at reference speed
        self.scores = defaultdict(dict)     # instance -> {"solve"|"baseline"|"best": score}
        self.replay_ms = 0.0                # traced replays of CLI operations
        self.replayed_cli_ms = 0.0          # the CLI operations they replayed
        self.ref: dict = {}                 # instance -> first campaign's outputs,
                                            # timings stripped

    def cli(self, argv: list[str]):
        """One timed CLI operation: (exit code, stdout, wall ms)."""
        self.attempted += 1
        gc.collect()   # every operation starts from a clean heap, like a fresh process
        buf = io.StringIO()

        def call():
            try:
                with contextlib.redirect_stdout(buf):
                    return cli.main(argv)
            except Exception:
                traceback.print_exc()
                return None

        rc, ms, factor = timed(call)
        self.times[argv[0]].append(ms)
        self.factors[argv[0]].append(factor)
        return rc, buf.getvalue(), ms

    def replay(self, cli_ms: float, fn, *args, **kwargs) -> None:
        """Replay the CLI operation just run, traced."""
        gc.collect()
        first = len(self.tr.spans)
        fn(self.tr, *args, **kwargs)
        self.replay_ms += self.tr.spans[first].ms
        self.replayed_cli_ms += cli_ms

    def record(self, problems: list[str]) -> bool:
        """Count the operation as failed when any check found a problem."""
        for p in problems:
            print(f"perfbench: check failed: {p}", file=sys.stderr)
        self.failed += bool(problems)
        return not problems


def _flags(params: dict, solver: str) -> list[str]:
    return ["--alpha", repr(params["alpha"]), "--beta", repr(params["beta"]),
            "--p", repr(params["p"]), "--radius", repr(params["radius"]),
            "--solver", solver, "--propagation", params["propagation"]]


def _differs(path: Path, expected: dict) -> list[str]:
    if checks.without_timings_doc(path) != expected:
        return [f"{path} differs beyond its timings"]
    return []


def _checked(rc, stdout: str, out: Path, instance, graph):
    if rc != 0:
        return [f"exit code {rc}"], math.nan
    printed = checks.printed_scores(stdout)
    return checks.check_document(out, instance, graph, printed[-1] if printed else "missing")


def solve_and_baseline(run: Run, key: int, path: Path, instance, params: dict,
                       solver: str, seed: int) -> None:
    """`coarsevrp solve` then `coarsevrp baseline` on one instance, checked."""
    graph = Graph.from_instance(instance)     # for the checks; not timed
    out = run.work / "solve.json"
    rc, stdout, ms = run.cli(["solve", str(path), *_flags(params, solver),
                              "--seed", str(seed), "--out", str(out)])
    problems, score = _checked(rc, stdout, out, instance, graph)
    if run.tr is not None and not problems:
        replayed = run.work / "replay-solve.json"
        run.replay(ms, replay.solve, path, replayed, alpha=params["alpha"],
                   beta=params["beta"], p=params["p"], radius=params["radius"],
                   solver=solver, propagation=params["propagation"], seed=seed)
        problems = _differs(replayed, checks.without_timings_doc(out))
    if run.record(problems):
        run.scores[key]["solve"] = score

    out = run.work / "baseline.json"
    rc, stdout, ms = run.cli(["baseline", str(path), "--solver", solver,
                              "--seed", str(seed), "--out", str(out)])
    problems, score = _checked(rc, stdout, out, instance, graph)
    if run.tr is not None and not problems:
        replayed = run.work / "replay-baseline.json"
        run.replay(ms, replay.baseline, path, replayed, solver=solver, seed=seed)
        problems = _differs(replayed, checks.without_timings_doc(out))
    if run.record(problems):
        run.scores[key]["baseline"] = score


def campaign(run: Run, key: int, path: Path, instance, trials: int) -> None:
    """`coarsevrp tune --jobs 2` with the default search space, checked."""
    graph = Graph.from_instance(instance)     # for the checks; not timed
    out_dir = run.work / "tune"
    before = reference_ms(JOBS)
    rc, stdout, ms = run.cli(["tune", str(path), "--trials", str(trials),
                              "--seed", str(TUNE_SEED), "--jobs", str(JOBS),
                              "--out-dir", str(out_dir)])
    factor = REF_MS / statistics.fmean((before, reference_ms(JOBS)))
    best_doc = out_dir / "best_solution.json"
    problems, _ = _checked(rc, stdout, best_doc, instance, graph)
    rows = baselines = []
    if not problems:
        problems, rows = checks.check_trial_rows(out_dir / "trials.csv")
        more, baselines = checks.check_trial_rows(out_dir / "baselines.csv")
        problems += more
    if not problems:
        # trials.csv and best_solution.json are the same in every campaign on an
        # instance, in the traced replay and in the serial trials: any --jobs
        # gives one result
        stripped = checks.without_timings_rows(rows)
        ref = run.ref.setdefault(key, (stripped, checks.without_timings_doc(best_doc)))
        if stripped != ref[0]:
            problems.append(f"{out_dir}/trials.csv differs from the first campaign's")
        problems += _differs(best_doc, ref[1])
    if run.tr is not None and not problems:
        replayed = run.work / "replay-tune"
        run.replay(ms, replay.tune, path, replayed, trials=trials, seed=TUNE_SEED,
                   jobs=JOBS)
        problems += _differs(replayed / "best_solution.json", ref[1])
        serial_csv = run.work / "serial-trials.csv"
        replay.serial_trials(run.tr, path, serial_csv, trials=trials, seed=TUNE_SEED)
        for csv_path in (replayed / "trials.csv", serial_csv):
            more, replayed_rows = checks.check_trial_rows(csv_path)
            if more or checks.without_timings_rows(replayed_rows) != ref[0]:
                problems += more or [f"{csv_path} differs from the campaign's trials.csv"]
    if run.record(problems):
        run.trial_ms[key].append([checks.pipeline_ms(r) for r in rows])
        run.baseline_ms[key].append([checks.pipeline_ms(b) for b in baselines])
        run.campaign_factors[key].append(factor)
        run.campaign_ms.append(ms * factor)
        trial_scores = [float(r["score"]) for r in rows]
        baseline_scores = [float(b["score"]) for b in baselines]
        run.scores[key] = {"solve": statistics.fmean(trial_scores),
                           "baseline": statistics.fmean(baseline_scores),
                           "best": min(trial_scores + baseline_scores)}


def iteration(run: Run, spec: dict, inputs: list, k: int, trials: int, seed: int) -> None:
    key = k % len(inputs)
    if spec.get("campaigns"):
        campaign(run, key, *inputs[key], trials)
    else:
        solve_and_baseline(run, key, *inputs[key], spec["params"], spec["solver"], seed)


# ---------------------------------------------------------------------------
# timing

def reference_ms(jobs: int = 1) -> float:
    """CPU ms of fixed pure-Python work: how fast the machine runs now.

    It mixes, in about equal parts, the kinds of work the program does:
    arithmetic, lookups scattered over a table larger than the L2 cache, and
    building a dict of tuples. Each part alone followed the program less
    closely than the mix: contention slows memory-bound work more than it
    slows the program, and arithmetic at times less.
    With jobs > 1, that many forked processes run it at once and the result
    is their mean.
    """
    if jobs > 1:
        return _reference_in_processes(jobs)
    t0 = time.thread_time()
    s = 0
    for i in range(50_000):
        s += i * i % 7
    table = _REF_TABLE
    for key in _REF_KEYS:
        s += table[key]
    swapped = {(j, i): v + 1 for (i, j), v in _REF_PAIRS.items()}
    del swapped
    return (time.thread_time() - t0) * 1e3


def _reference_in_processes(jobs: int) -> float:
    read_fd, write_fd = os.pipe()
    pids = []
    for _ in range(jobs):
        pid = os.fork()
        if pid == 0:
            try:
                os.write(write_fd, struct.pack("d", reference_ms()))
            finally:
                os._exit(0)
        pids.append(pid)
    os.close(write_fd)
    for pid in pids:
        os.waitpid(pid, 0)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    if len(data) != 8 * jobs:
        raise RuntimeError(f"reference: {len(data) // 8} of {jobs} processes reported")
    return statistics.fmean(struct.unpack(f"{jobs}d", data))


def timed(fn, *args):
    """(fn(*args), its wall ms, speed factor). A time measured during the
    call, multiplied by the factor, is that time at reference speed."""
    before = reference_ms()
    t0 = time.perf_counter()
    result = fn(*args)
    ms = (time.perf_counter() - t0) * 1e3
    return result, ms, REF_MS / statistics.fmean((before, reference_ms()))


# ---------------------------------------------------------------------------
# set-up

def make_inputs(spec: dict, seed: int, work: Path) -> list:
    """Generate and write the workload's instances; (path, instance) pairs as
    the CLI will read them back."""
    inputs = []
    for k in range(spec["pool"]):
        inst = random_instance(seed * 1000 + k, spec["n"], family="mixed",
                               horizon=spec["horizon"])
        path = work / f"{inst.name}.txt"
        path.write_text(write_solomon(inst))
        inputs.append((path, load_instance(path)))
    return inputs


def warm_up(spec: dict, work: Path) -> None:
    """One operation of each of the workload's kinds on a tiny instance."""
    inst = random_instance(0, 12, family="mixed", horizon=spec["horizon"])
    path = work / "warmup.txt"
    path.write_text(write_solomon(inst))
    if spec.get("campaigns"):
        argvs = [["tune", str(path), "--trials", "2", "--jobs", str(JOBS),
                  "--out-dir", str(work / "warmup-tune")]]
    else:
        argvs = [["baseline", str(path), "--out", str(work / "warmup-baseline.json")],
                 ["solve", str(path), *_flags(spec["params"], spec["solver"]),
                  "--out", str(work / "warmup-solve.json")]]
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                sys.exit(f"perfbench: warm-up {argv[0]} failed")


def import_seconds() -> float:
    """Time to import the CLI in a fresh interpreter, as each `coarsevrp`
    command pays it; the interpreter's own start-up is excluded."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import coarsevrp.cli; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def setup(spec: dict, seed: int, work: Path):
    """(inputs, setup_s): the median import time plus the median time of
    generating and writing the inputs and warming up, at reference speed."""
    imports = []
    for _ in range(IMPORT_REPEATS):
        seconds, _, factor = timed(import_seconds)
        imports.append(seconds * factor)
    times = []
    for _ in range(SETUP_REPEATS):
        (inputs, _), ms, factor = timed(lambda: (make_inputs(spec, seed, work),
                                                 warm_up(spec, work)))
        times.append(ms * factor / 1e3)
    return inputs, statistics.median(imports) + statistics.median(times)


# ---------------------------------------------------------------------------
# metrics

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest order statistic with 10 samples above
    it, but never below the 75th percentile, which it reaches at 41 samples.
    Below that the 75th percentile is interpolated, so the value does not
    jump when the sample count changes from run to run."""
    s = sorted(samples)
    n = len(s)
    pos = max(n - 11, 0.75 * (n - 1))
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    value = s[lo] + (s[hi] - s[lo]) * (pos - lo)
    return value, 100.0 * pos / (n - 1) if n > 1 else 100.0


def balanced(per_instance: dict) -> list[list[float]]:
    """One row per instance: each trial's (or baseline's) mean over the
    instance's campaigns, so that an instance that got one more campaign
    than another in the run does not weigh more."""
    return [[statistics.fmean(col) for col in zip(*camps)] for camps in per_instance.values()]


def end_to_end(run: Run, spec: dict, setup_s: float) -> dict:
    out = {"setup_s": setup_s}
    for cmd, ms in run.times.items():
        f = run.factors[cmd]
        print(f"# {cmd}: wall ms p50 {statistics.median(ms):.1f}; speed factor "
              f"min {min(f):.3f} p50 {statistics.median(f):.3f} max {max(f):.3f}")
    if spec.get("campaigns"):
        # the pipeline runs and baselines inside the campaigns, as they record them
        trials = balanced({key: [[ms * f for ms in camp] for camp, f in
                                 zip(camps, run.campaign_factors[key])]
                           for key, camps in run.trial_ms.items()})
        baselines = balanced(run.baseline_ms)
        factor = statistics.median(run.factors["tune"])
        samples = {"solve": [ms for row in trials for ms in row],
                   "baseline": [sum(row) * factor for row in baselines]}
        # the campaigns' own times, unscaled: the two kinds of work ran in the
        # same campaigns, and their scale factors differ in kind
        out["pipeline_over_baseline"] = (
            statistics.fmean(ms for row in balanced(run.trial_ms) for ms in row)
            / statistics.fmean(ms for row in baselines for ms in row))
        n_trials = sum(len(c) for camps in run.trial_ms.values() for c in camps)
        out["trials_per_s"] = n_trials / (sum(run.campaign_ms) / 1e3)
    else:
        samples = {cmd: [ms * f for ms, f in zip(run.times[cmd], run.factors[cmd])]
                   for cmd in ("solve", "baseline")}
        out["pipeline_over_baseline"] = sum(samples["solve"]) / sum(samples["baseline"])
        out["trials_per_s"] = len(samples["solve"]) / (sum(samples["solve"]) / 1e3)
    for cmd, ms in samples.items():
        value, pct = tail(ms)
        out[f"{cmd}_ms_p50"] = statistics.median(ms)
        out[f"{cmd}_ms_tail"] = value
        print(f"# {cmd}_ms_tail is p{pct:.1f} of {len(ms)} samples "
              f"({sum(v > value for v in ms)} above it); sorted ms: "
              + " ".join(f"{v:.0f}" for v in sorted(ms)))
    qs = [run.scores[key] for key in range(min(QUALITY, spec["pool"]))]
    out["score_mean"] = statistics.fmean(q["solve"] for q in qs)
    out["baseline_score_mean"] = statistics.fmean(q["baseline"] for q in qs)
    out["best_score"] = statistics.fmean(min(q.values()) for q in qs)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in out.items()}


def per_layer(run: Run, tr) -> dict:
    spans = tr.spans
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_ms[s.parent] += s.ms
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    per_op = defaultdict(lambda: defaultdict(float))   # span name -> op -> ms
    for i, s in enumerate(spans):
        self_ms[s.module] += s.ms - child_ms[i]
        calls[s.name] += 1
        per_op[s.name][s.op] += s.ms
    roots = {s.op: s for s in spans if s.parent is None}
    total_ms = sum(r.ms for r in roots.values())

    def op_median(*names):
        ops = defaultdict(float)
        for name in names:
            for op, ms in per_op[name].items():
                ops[op] += ms
        return statistics.median(ops.values()) if ops else 0.0

    pl = tr.pipelines
    rounds = [r for p in pl for r in p.rounds]
    candidates = sum(r["candidates"] for r in rounds)
    merges = sum(r["merges_applied"] for r in rounds)

    def mean(values):
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    def scanned(r):
        # coarsen scans every customer pair unless its trace reports otherwise
        if "pairs_scanned" in r:
            return r["pairs_scanned"]
        return r["nodes_before"] * (r["nodes_before"] - 1) // 2 if r["rho"] > 0 else 0

    coarsen_ops = per_op["coarsening.coarsen"]
    trial_ms = [roots[op].ms for op in per_op["tuning.run_trial"]]
    search_ms = sum(per_op["tuning.random_search"].values())
    m = {
        "instances.load_ms": op_median("instances.load_instance"),
        "instances.document_ms": op_median("instances.build_solution_document",
                                           "instances.write_solution"),
        "graph.build_ms": op_median("graph.from_instance"),
        "graph.tau_entries": mean(p.tau_entries for p in pl),
        "coarsening.coarsen_ms": op_median("coarsening.coarsen"),
        "coarsening.share": (sum(coarsen_ops.values())
                             / sum(roots[op].ms for op in coarsen_ops)) if coarsen_ops else 0.0,
        "coarsening.rounds": mean(len(p.rounds) for p in pl),
        "coarsening.pairs_scanned": mean(sum(scanned(r) for r in p.rounds) for p in pl),
        "coarsening.candidates": candidates / len(pl) if pl else 0.0,
        "coarsening.merges": merges / len(pl) if pl else 0.0,
        "coarsening.merge_yield": merges / candidates if candidates else 0.0,
        "coarsening.ratio": mean(p.coarse_n / p.n0 for p in pl),
        "coarsening.stalled_share": mean(p.stalled for p in pl),
        "heuristics.coarse_solve_ms": op_median("heuristics.coarse_solve"),
        "heuristics.baseline_solve_ms": op_median("heuristics.baseline_solve"),
        "inflation.inflate_ms": op_median("inflation.inflate"),
        "inflation.postprocess_ms": op_median("inflation.light_postprocess"),
        "inflation.late_before_repair": mean(p.late_before_repair for p in pl),
        "inflation.late_after_repair": mean(p.late_after_repair for p in pl),
        "inflation.split_routes": mean(p.split_routes for p in pl),
        "evaluation.evaluate_ms": op_median("evaluation.evaluate",
                                            "evaluation.objective_score"),
        "tuning.trial_ms_p50": statistics.median(trial_ms) if trial_ms else 0.0,
        "tuning.parallel_efficiency": sum(trial_ms) / (JOBS * search_ms) if search_ms else 0.0,
        "tuning.baseline_ms": op_median("tuning.run_baseline"),
        "tuning.rerun_ms": op_median("tuning.rerun"),
        "runtime.gc_collections": tr.gc_collections / len(roots),
        "runtime.gc_ms": tr.gc_ms / len(roots),
        "trace.overhead": run.replay_ms / run.replayed_cli_ms,
    }
    for mod in MODULES:
        m[f"{mod}.self_share"] = self_ms[mod] / total_ms
    stops = [p.stalled for p in pl]
    print(f"# coarsen calls: {len(pl)}, stopped stalled: {sum(stops)}, "
          f"target: {len(stops) - sum(stops)}")
    print("# self ms by module: " + ", ".join(f"{k}={v:.1f}" for k, v in
                                               sorted(self_ms.items(), key=lambda kv: -kv[1])))
    print("# calls: " + ", ".join(f"{k}={v}" for k, v in sorted(calls.items())))
    return {k: {"value": v, "unit": _layer_unit(k)} for k, v in m.items()}


def _layer_unit(name: str) -> str:
    if "_ms" in name:
        return "ms"
    if name.endswith(("share", "yield", "ratio", "efficiency", "overhead")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------

def measure(spec: dict, inputs: list, run: Run, seconds: float, trials: int,
            seed: int) -> None:
    """Iterations until `seconds` have passed and every iteration the quality
    metrics need is done."""
    needed = 1 if run.tr is not None else min(QUALITY, len(inputs))
    t0 = time.perf_counter()
    k = 0
    while k < needed or time.perf_counter() - t0 < seconds:
        try:
            iteration(run, spec, inputs, k, trials, seed)
        except Exception:
            # a check or replay that cannot run fails the operation, not the run
            traceback.print_exc()
            run.failed += 1
        k += 1
    print(f"# {k} iterations in {time.perf_counter() - t0:.1f}s; "
          f"{run.attempted} operations, {run.failed} failed")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true",
                    help="tiny instances and campaigns, for selfcheck.py")
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]
    if args.toy:
        spec = {**spec, "n": TOY["n"]}
    trials = TOY["trials"] if args.toy else TRIALS
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}{'-toy' if args.toy else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"data/solomon present={(ROOT / 'data' / 'solomon').is_dir()} "
          f"(never read: inputs are generated)")
    inputs, setup_s = setup(spec, args.seed, work)
    tr = replay.Tracer() if args.trace else None
    run = Run(work, tr)
    measure(spec, inputs, run, args.seconds, trials, args.seed)
    if tr is not None:
        tr.write(work / "spans.jsonl")
    correct = run.failed == 0
    metrics = {}
    if correct:       # failed operations leave holes the metrics cannot cover
        metrics = end_to_end(run, spec, setup_s) if tr is None else per_layer(run, tr)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
