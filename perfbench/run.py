"""qmproute solver benchmark: closed-loop serial solves, answer-checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qmproute is imported from `src/`.
One process, one `solve` at a time, no threads.  The workload seed
relabels the qubits of a fixed instance list and shuffles its order
(`suite.select`); every solve is checked with `validate`,
`compute_metrics` and the committed objective in `answers.json`.

Untraced (`--trace 0`): the picked solves are run in whole passes for about
`--seconds` seconds (at least one pass), and the end-to-end metrics are
printed.  Their times are wall times at a fixed reference machine speed
(see speed.py); the plain wall times are printed beside them.  Traced
(`--trace 1`): instance 0 of each shape (`suite.traced_picks`) is solved
in one untraced pass, then in one pass with span tracing on (see
spans.py), and the per-layer metrics are printed; this fixed amount of
work keeps every count repeatable and the span arrays small.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Per-solve records (and spans, when
traced) are written under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import suite  # noqa: E402
from spans import NO_SOLVE, Tracer  # noqa: E402
from speed import Bracket  # noqa: E402

SETUP_REPS = 7
# The tail is the highest whole percentile with at least TAIL_BEYOND
# solves beyond it in a run of TAIL_PASSES passes; a 60 s run makes more.
TAIL_BEYOND = 10
TAIL_PASSES = 5
MODULES = ("qmproute", "qmproute.bench", "qmproute.circuit", "qmproute.hardware",
           "qmproute.schedule", "qmproute.solver")
FAIL_REASONS = ("error", "timeout", "invalid", "wrong_objective")


class BenchSetupError(RuntimeError):
    pass


@dataclass
class Instance:
    pick: suite.Pick
    circuit: object
    graph: object


@dataclass
class SolveRecord:
    key: str
    wall_ms: float
    slowdown: float              # the machine's, around the solve (speed.py)
    objective: int | None = None
    ratio: float | None = None
    fail: str | None = None
    message: str = ""
    stats: dict = field(default_factory=dict)


def import_qmproute() -> dict:
    """Import qmproute afresh from this checkout's `src/`, nowhere else."""
    if not (SRC / "qmproute" / "__init__.py").is_file():
        raise BenchSetupError(f"no qmproute sources under {SRC}")
    for name in [m for m in sys.modules if m == "qmproute" or m.startswith("qmproute.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    mods = {name.rpartition(".")[2]: importlib.import_module(name) for name in MODULES}
    origin = Path(mods["qmproute"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchSetupError(f"qmproute imported from {origin}, not {SRC}")
    return mods


def build(mods: dict, picks: list[suite.Pick]) -> list[Instance]:
    """Relabelled circuits and fresh hardware graphs for the picks."""
    bench, circuit, hardware = mods["bench"], mods["circuit"], mods["hardware"]
    out = []
    for pick in picks:
        base = bench.gen_random_circuit(
            bench.InstanceSpec(pick.topology, pick.qubits, pick.depth_param, pick.seed))
        gates = tuple(circuit.GateSpec(g.id, (pick.perm[g.qubits[0]], pick.perm[g.qubits[1]]),
                                       g.duration) for g in base.gates)
        out.append(Instance(pick, circuit.Circuit(base.num_virtual_qubits, gates),
                            hardware.parse_topology(pick.topology)))
    return out


def setup(picks: list[suite.Pick],
          times: list[tuple[float, float]]) -> tuple[dict, list[Instance]]:
    """SETUP_REPS timed repetitions of: import, circuit generation, graph
    parsing.  Appends (wall seconds, machine slowdown) of each to `times`
    and returns the last repetition's modules and instances.  The cyclic
    garbage a re-import leaves behind is collected before each repetition,
    untimed, so that each one starts from a clean heap, as a first import
    does."""
    bracket = Bracket()
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = time.perf_counter()
        mods = import_qmproute()
        instances = build(mods, picks)
        wall = time.perf_counter() - t0
        times.append((wall, bracket.after_step()))
    return mods, instances


def solver_config(mods: dict, workload: suite.Workload, mode: str):
    w_depth, w_swaps = (1, 0) if workload.objective == "depth" else (0, 1)
    return mods["solver"].SolverConfig(
        w_depth=w_depth, w_swaps=w_swaps, layered=mode == "layered",
        time_limit=suite.TIME_LIMIT_S, swap_duration=suite.SWAP_DURATION)


def check(mods: dict, workload: suite.Workload, inst: Instance, result,
          rec: SolveRecord, expected) -> None:
    """Fill in rec.objective/ratio, or rec.fail with the first failed check."""
    schedule = mods["schedule"]
    if result.stats.wall_time >= suite.TIME_LIMIT_S:
        rec.fail, rec.message = "timeout", f"status {result.status}"
        return
    if result.status != "optimal" or result.schedule is None:
        rec.fail, rec.message = "invalid", f"status {result.status}, want optimal"
        return
    try:
        verdict = schedule.validate(result.schedule, inst.circuit, inst.graph)
    except ValueError as e:
        rec.fail, rec.message = "invalid", f"validate raised {e}"
        return
    if not verdict.ok:
        rec.fail, rec.message = "invalid", verdict.violation.message
        return
    m = schedule.compute_metrics(result.schedule)
    if (m.depth, m.swaps) != (result.makespan, result.swap_count):
        rec.fail = "invalid"
        rec.message = (f"metrics depth={m.depth} swaps={m.swaps} vs solver "
                       f"makespan={result.makespan} swaps={result.swap_count}")
        return
    rec.objective = m.depth if workload.objective == "depth" else m.swaps
    if rec.objective != result.objective_value:
        rec.fail = "invalid"
        rec.message = f"objective_value {result.objective_value} vs schedule {rec.objective}"
        return
    if expected is None:
        return
    rec.ratio = rec.objective / expected
    if rec.objective != expected:
        rec.fail = "wrong_objective"
        rec.message = f"objective {rec.objective}, expected {expected}"


def run_pass(mods: dict, workload: suite.Workload, instances: list[Instance],
             answers: dict, tracer: Tracer | None = None) -> list[SolveRecord]:
    """Solve every picked instance in every mode once, in order, checked."""
    solve = mods["solver"].solve
    records = []
    bracket = Bracket()
    for inst in instances:
        by_mode = {}
        for mode in workload.modes:
            key = suite.solve_key(workload, inst.pick.instance, mode)
            config = solver_config(mods, workload, mode)
            if tracer is not None:
                tracer.solve_id = len(records)
            t0 = time.perf_counter()
            try:
                result = solve(inst.circuit, inst.graph, config)
            except Exception as e:  # a crashing solve is a counted failure
                wall_ms = (time.perf_counter() - t0) * 1000
                rec = SolveRecord(key, wall_ms, bracket.after_step(),
                                  fail="error", message=f"{type(e).__name__}: {e}")
            else:
                wall_ms = (time.perf_counter() - t0) * 1000
                rec = SolveRecord(key, wall_ms, bracket.after_step(),
                                  stats=vars(result.stats).copy())
                expected = answers.get(key, {}).get("objective")
                check(mods, workload, inst, result, rec, expected)
            records.append(rec)
            by_mode[mode] = rec
        # Layering only restricts the search, so the non-layered optimum is
        # at most the layered one; the only objective check on a solve that
        # has no committed answer.
        nl, lay = by_mode.get("non-layered"), by_mode.get("layered")
        if (nl and lay and not nl.fail and not lay.fail
                and nl.objective > lay.objective):
            lay.fail = "wrong_objective"
            lay.message = f"non-layered {nl.objective} > layered {lay.objective}"
    if tracer is not None:
        tracer.solve_id = NO_SOLVE
    return records


def untraced_run(mods: dict, workload: suite.Workload, picks: list[suite.Pick],
                 instances: list[Instance], answers: dict, seconds: float,
                 setup_times: list[tuple[float, float]]) -> list[list[SolveRecord]]:
    """Whole passes while the next one is expected to end within `seconds`;
    at least one.  Each pass after the first is preceded by another timed
    set-up round, which gives it fresh modules and graphs and spreads the
    set-up samples over the run."""
    t_start = t_pass = time.perf_counter()
    passes = [run_pass(mods, workload, instances, answers)]
    while True:
        now = time.perf_counter()
        if now - t_start + (now - t_pass) > seconds:
            return passes
        t_pass = now
        mods, instances = setup(picks, setup_times)
        passes.append(run_pass(mods, workload, instances, answers))


def traced_run(mods: dict, workload: suite.Workload, picks: list[suite.Pick],
               instances: list[Instance], answers: dict):
    """One untraced pass, then one traced pass on fresh instances."""
    untraced = run_pass(mods, workload, instances, answers)
    tracer = Tracer()
    tracer.install(mods)
    try:
        traced = run_pass(mods, workload, build(mods, picks), answers, tracer)
    finally:
        tracer.uninstall()
    return tracer, untraced, traced


def percentile(sorted_values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(passes: list[list[SolveRecord]],
               setup_times: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Metrics with units, and run facts that are printed only.

    Times are at reference speed: each wall time divided by the machine's
    slowdown around it (speed.py).  Every pass solves the same instances
    with the same work, so each solve's time is its median over the
    passes; p50 and throughput are taken over these per-solve times, and
    the tail over every solve of the run."""
    def at_ref(rec):
        return rec.wall_ms / rec.slowdown

    per_solve = sorted(statistics.median(map(at_ref, group)) for group in zip(*passes))
    n = len(per_solve)
    every = [rec for recs in passes for rec in recs]
    every_ms = sorted(map(at_ref, every))
    tail_pct = 100 * (n * TAIL_PASSES - TAIL_BEYOND) // (n * TAIL_PASSES)
    tail_ms = percentile(every_ms, tail_pct)
    ratios = [rec.ratio for rec in every if rec.ratio is not None]
    wall_per_solve = [statistics.median(rec.wall_ms for rec in group) for group in zip(*passes)]
    return {
        "solve_ms_p50": (statistics.median(per_solve), "ms"),
        "solve_ms_tail": (tail_ms, "ms"),
        "solves_per_s": (n / (sum(per_solve) / 1000), "1/s"),
        "objective_ratio_gmean": (
            math.exp(statistics.fmean(math.log(r) for r in ratios)) if ratios else 0.0,
            "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(wall / slow for wall, slow in setup_times), "s"),
    }, {"tail_pct": tail_pct,
        "tail_beyond": sum(1 for ms in every_ms if ms > tail_ms),
        "solves_per_pass": n, "passes": len(passes),
        "fail_frac": sum(1 for r in every if r.fail) / len(every),
        "slowdown_median": statistics.median(r.slowdown for r in every),
        "wall_solve_ms_p50": statistics.median(wall_per_solve),
        "wall_solves_per_s": n / (sum(wall_per_solve) / 1000),
        "wall_setup_s": statistics.median(wall for wall, _ in setup_times)}


def per_layer(tracer: Tracer, untraced: list[SolveRecord],
              traced: list[SolveRecord], workload: suite.Workload) -> dict:
    t = tracer.totals()

    def get(name, what):
        return t.get(name, {}).get(what, 0)

    paths_calls = get("hardware.minimal_paths", "calls") + get("hardware.minimal_paths.miss", "calls")
    solve_ms = get("solver.solve", "ms")
    stats = {k: sum(r.stats.get(k, 0) for r in traced)
             for k in ("nodes_expanded", "nodes_inserted", "nodes_pruned",
                       "fronts_replaced")}
    bound_calls = get("solver.bound_depth" if workload.objective == "depth"
                      else "solver.bound_swaps", "calls")
    # Every solve bounds its root once; the other bound calls are children.
    children_bounded = bound_calls - len(traced)
    heap_ops = ("solver.heap.heappush", "solver.heap.heappop", "solver.heap.heapify")
    inserted = get("solver.heap.heappush", "calls")
    untraced_sps = len(untraced) / (sum(r.wall_ms for r in untraced) / 1000)
    traced_sps = len(traced) / (sum(r.wall_ms for r in traced) / 1000)
    ms, count, ratio = "ms", "count", "ratio"
    return {
        "circuit.analyze.ms": (get("circuit.analyze", "ms"), ms),
        "circuit.analyze.calls": (get("circuit.analyze", "calls"), count),
        "circuit.minimal_unscheduled.ms": (get("circuit.minimal_unscheduled", "ms"), ms),
        "circuit.minimal_unscheduled.calls": (get("circuit.minimal_unscheduled", "calls"), count),
        "hardware.parse_topology.ms": (get("hardware.parse_topology", "ms"), ms),
        "hardware.minimal_paths.ms": (get("hardware.minimal_paths", "ms")
                                      + get("hardware.minimal_paths.miss", "ms"), ms),
        "hardware.minimal_paths.calls": (paths_calls, count),
        "hardware.minimal_paths.miss_ms": (get("hardware.minimal_paths.miss", "ms"), ms),
        "hardware.minimal_paths.hit_ratio": (
            get("hardware.minimal_paths", "calls") / paths_calls if paths_calls else 0.0, ratio),
        "solver.bound_depth.self_ms": (get("solver.bound_depth", "self_ms"), ms),
        "solver.bound_depth.calls": (get("solver.bound_depth", "calls"), count),
        "solver.bound_swaps.ms": (get("solver.bound_swaps", "ms"), ms),
        "solver.bound_swaps.calls": (get("solver.bound_swaps", "calls"), count),
        "solver.heap.ms": (sum(get(op, "ms") for op in heap_ops), ms),
        "solver.heap.calls": (sum(get(op, "calls") for op in heap_ops), count),
        "solver.self.ms": (get("solver.solve", "self_ms"), ms),
        **{f"solver.{k}": (v, count) for k, v in stats.items()},
        "solver.expansions_per_s": (stats["nodes_expanded"] / (solve_ms / 1000), "1/s"),
        "solver.bound_useful_ratio": (
            inserted / children_bounded if children_bounded else 0.0, ratio),
        "schedule.validate.ms": (get("schedule.validate", "ms"), ms),
        "schedule.compute_metrics.ms": (get("schedule.compute_metrics", "ms"), ms),
        "bench.gen_random_circuit.ms": (get("bench.gen_random_circuit", "ms"), ms),
        "trace.solves_per_s": (traced_sps, "1/s"),
        "trace.slowdown": (untraced_sps / traced_sps, ratio),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qmproute solver benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=HERE / "out")
    args = ap.parse_args(argv)

    workload = suite.WORKLOADS[args.workload]
    try:
        answers = json.loads((HERE / "answers.json").read_text())
        picks = suite.select(workload, args.seed)
        if args.trace:
            picks = suite.traced_picks(picks)
        setup_times: list[tuple[float, float]] = []
        mods, instances = setup(picks, setup_times)
    except (OSError, BenchSetupError, ImportError) as e:
        print(f"benchmark setup failed: {e}", file=sys.stderr)
        return 2

    if args.trace:
        tracer, untraced, traced = traced_run(mods, workload, picks, instances, answers)
        passes = [untraced, traced]
        metrics, info = per_layer(tracer, untraced, traced, workload), {}
    else:
        tracer = None
        passes = untraced_run(mods, workload, picks, instances, answers, args.seconds,
                              setup_times)
        metrics, info = end_to_end(passes, setup_times)
    every = [r for recs in passes for r in recs]
    failed = [r for r in every if r.fail]

    tag = f"{workload.name}-s{args.seed}-t{args.trace}"
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"{tag}.json").write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "info": info, "metrics": {k: v for k, (v, _) in metrics.items()},
        "solves": [vars(r) for r in every]}, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(args.out / f"{tag}.spans")

    print(f"workload {workload.name} seed {args.seed}: {len(every)} solves, "
          f"{len(passes)} passes")
    for k, v in info.items():
        print(f"  {k:34s} {v}")
    for reason in FAIL_REASONS:
        print(f"  fail.{reason:29s} {sum(1 for r in failed if r.fail == reason)}")
    for r in failed[:10]:
        print(f"  FAILED {r.key}: {r.fail}: {r.message}")
    for k, (v, unit) in metrics.items():
        print(f"  {k:34s} {v:.6g} {unit}")
    print(json.dumps({
        "correct": not failed, "attempted": len(every), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
