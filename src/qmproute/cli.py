"""Command-line entry point.

Subcommands: solve, validate, oracle, gen, bench, report.
Exit codes: 0 success / proven optimal, 2 incumbent only (for `oracle`:
cap-exhausted, no schedule within --max-swaps), 3 validation violation,
4 usage error or bad input (an invalid option value, `report` with
neither --rmd nor --parity, a missing or malformed file), 5 the time limit
passed with no schedule.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import bench as bench_mod
from . import oracle as oracle_mod
from .circuit import circuit_to_json, parse_circuit
from .hardware import parse_graph, parse_topology
from .schedule import (DEFAULT_SWAP_DURATION, compute_metrics, parse_schedule,
                       schedule_to_json, validate)
from .solver import SolverConfig, solve

EXIT_OK = 0
EXIT_INCUMBENT = 2
EXIT_VIOLATION = 3
EXIT_USAGE = 4
EXIT_TIMEOUT = 5
SOLVE_EXIT = {"optimal": EXIT_OK, "incumbent": EXIT_INCUMBENT, "timeout": EXIT_TIMEOUT}


# --time-limit's text: seconds in ASCII digits, with an optional decimal part.
SECONDS = re.compile(r"[0-9]+(\.[0-9]+)?")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(args, record: dict):
    if args.format == "structured":
        print(json.dumps(record))
    else:
        print(" ".join(f"{k}={v}" for k, v in record.items()))


def _number(args, dest: str, rule=bench_mod.INTEGER, convert=int):
    """A numeric option's value, its text read by an ASCII rule (argparse's
    int and float also take '١٥', ' 7', '1_0' and '+3').  Read here, not as
    an argparse type, so a bad number is an `error:` like any bad value."""
    text = getattr(args, dest)
    if text is None:
        return None
    if not rule.fullmatch(text):
        raise ValueError(f"--{dest.replace('_', '-')} must match {rule.pattern}, "
                         f"got {text!r}")
    return convert(text)


def _load_graph(args):
    if args.graph is not None:
        return parse_graph(Path(args.graph).read_text())
    return parse_topology(args.topology)


def _cmd_solve(args) -> int:
    if args.objective == "combined":
        w_depth = 1 if args.w_depth is None else args.w_depth
        w_swaps = 0 if args.w_swaps is None else args.w_swaps
    elif args.w_depth is not None or args.w_swaps is not None:
        raise _UsageError("--w-depth and --w-swaps apply only to --objective combined")
    else:
        w_depth, w_swaps = bench_mod.OBJECTIVE_WEIGHTS[args.objective]
    config = SolverConfig(w_depth=w_depth, w_swaps=w_swaps, layered=args.layered,
                          beam_width=_number(args, "beam_width"),
                          time_limit=_number(args, "time_limit", SECONDS, float),
                          swap_duration=_number(args, "swap_duration"))
    circuit = parse_circuit(Path(args.circuit).read_text())
    graph = _load_graph(args)
    result = solve(circuit, graph, config)
    if result.schedule is not None and args.out:
        Path(args.out).write_text(schedule_to_json(result.schedule))
    stats = {
        "status": result.status,
        "objective_value": str(result.objective_value) if result.objective_value is not None else "",
        "makespan": result.makespan,
        "swap_count": result.swap_count,
        **vars(result.stats),
    }
    stats["wall_time"] = round(stats["wall_time"], 3)
    if args.stats:
        Path(args.stats).write_text(json.dumps(stats, indent=2))
    _emit(args, stats)
    return SOLVE_EXIT[result.status]


def _cmd_validate(args) -> int:
    circuit = parse_circuit(Path(args.circuit).read_text())
    graph = _load_graph(args)
    schedule = parse_schedule(Path(args.schedule).read_text(), circuit)
    result = validate(schedule, circuit, graph)
    if result.ok:
        m = compute_metrics(schedule)
        _emit(args, {"status": "ok", "depth": m.depth, "swaps": m.swaps,
                     "unweighted_depth": m.unweighted_depth,
                     "initial_assignment": json.dumps(result.initial_assignment)})
        return EXIT_OK
    v = result.violation
    _emit(args, {"status": "violation", "category": v.category,
                 "op_index": v.op_index, "message": v.message})
    return EXIT_VIOLATION


def _cmd_oracle(args) -> int:
    circuit = parse_circuit(Path(args.circuit).read_text())
    graph = _load_graph(args)
    config = oracle_mod.OracleConfig(max_swaps=_number(args, "max_swaps"),
                                     objective=args.objective,
                                     swap_duration=_number(args, "swap_duration"))
    try:
        result = oracle_mod.exhaustive_solve(circuit, graph, config)
    except oracle_mod.CapExhausted as e:
        _emit(args, {"status": "cap-exhausted", "message": str(e)})
        return EXIT_INCUMBENT
    if args.out:
        Path(args.out).write_text(schedule_to_json(result.schedule))
    _emit(args, {"status": "ok", "value": result.value, "cap_hit": result.cap_hit})
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = bench_mod.InstanceSpec(topology=args.topology, num_qubits=_number(args, "qubits"),
                                  depth_param=_number(args, "depth_param"),
                                  seed=_number(args, "seed"))
    bench_mod.check_instance(spec.topology, spec.num_qubits)
    circuit = bench_mod.gen_random_circuit(spec)
    text = circuit_to_json(circuit)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return EXIT_OK


def _cmd_bench(args) -> int:
    matrix = bench_mod.parse_matrix(Path(args.matrix).read_text())
    n = 0
    with open(args.out, "w", newline="") as out:
        for row in bench_mod.write_rows(bench_mod.run_matrix(matrix), out):
            n += 1
            _emit(args, {"event": "row", "instance": row.instance_id,
                         "mode": row.mode, "objective": row.objective,
                         "status": row.status})
    _emit(args, {"event": "done", "rows": n})
    return EXIT_OK


def _cmd_report(args) -> int:
    if not args.rmd and not args.parity:
        raise _UsageError("report needs --rmd or --parity")
    rows = bench_mod.rows_from_csv(Path(args.infile).read_text())
    if args.objective:
        rows = [r for r in rows if r.objective == args.objective]
    if args.rmd:
        stats = bench_mod.rmd(rows, metric=args.metric)
        _emit(args, {"metric": args.metric, **{k: (round(v, 4) if isinstance(v, float) else v)
                                               for k, v in stats.items()}})
    if args.parity:
        Path(args.parity).write_text(bench_mod.parity_export(rows, metric=args.metric))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="qmproute",
                     description="Exact and heuristic scheduling of two-qubit "
                                 "gates onto hardware connectivity graphs.")
    parser.add_argument("--format", choices=["human", "structured"], default="human",
                        help="output format; structured is line-delimited JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_opts(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--graph", help="graph file (JSON)")
        source.add_argument("--topology", help="topology spec: linear:4 | grid:2x3 | y:6")

    p = sub.add_parser("solve", help="run the branch-and-bound solver")
    p.add_argument("--circuit", required=True)
    add_graph_opts(p)
    p.add_argument("--objective", choices=[*bench_mod.OBJECTIVE_WEIGHTS, "combined"],
                   default="depth")
    p.add_argument("--w-depth", dest="w_depth",
                   help="depth weight under --objective combined (default 1): an "
                        "integer, decimal or fraction such as 1/3, read exactly")
    p.add_argument("--w-swaps", dest="w_swaps",
                   help="SWAP weight under --objective combined (default 0), read like --w-depth")
    p.add_argument("--layered", action="store_true")
    p.add_argument("--beam-width", dest="beam_width")
    p.add_argument("--time-limit", dest="time_limit", help="seconds, such as 10 or 0.5")
    p.add_argument("--swap-duration", dest="swap_duration", default=str(DEFAULT_SWAP_DURATION))
    p.add_argument("--out", help="schedule output file")
    p.add_argument("--stats", help="stats output file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("validate", help="validate a schedule file")
    p.add_argument("--circuit", required=True)
    add_graph_opts(p)
    p.add_argument("--schedule", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("oracle", help="brute-force reference solver")
    p.add_argument("--circuit", required=True)
    add_graph_opts(p)
    p.add_argument("--objective", choices=[oracle_mod.DEPTH, oracle_mod.SWAPS],
                   default=oracle_mod.DEPTH)
    p.add_argument("--max-swaps", dest="max_swaps", required=True)
    p.add_argument("--swap-duration", dest="swap_duration", default=str(DEFAULT_SWAP_DURATION))
    p.add_argument("--out", help="witness schedule output file")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="generate a seeded random circuit")
    p.add_argument("--topology", required=True)
    p.add_argument("--qubits", required=True)
    p.add_argument("--depth-param", dest="depth_param", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="run an experiment matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("report", help="aggregate a results CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--metric", choices=list(bench_mod.METRIC_COLUMNS), default="depth")
    p.add_argument("--objective", choices=list(bench_mod.OBJECTIVE_WEIGHTS), default=None)
    p.add_argument("--rmd", action="store_true")
    p.add_argument("--parity", help="parity CSV output file")
    p.set_defaults(func=_cmd_report)

    return parser


def dispatch(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
