"""Regenerate `answers.json`: the committed objective of every solve.

For each workload, instance and mode this solves the unrelabelled instance
as the benchmark does and checks it the same way (`run.check`), and
records the proven optimum.  Non-layered optima are cross-checked against the independent
brute-force oracle where it finishes within ORACLE_SECONDS.
Run from the repository root:

    python3 perfbench/make_answers.py [--out FILE]

Progress is printed as one JSON line per solve.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
import time
from pathlib import Path

import run
import suite

ORACLE_SECONDS = 20.0


class _OracleTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise _OracleTimeout


def oracle_value(oracle, circuit, graph, objective: str):
    """The oracle's optimum, or None if it does not finish in ORACLE_SECONDS."""
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, ORACLE_SECONDS)
    try:
        return oracle.oracle_fixpoint(circuit, graph, objective,
                                      swap_duration=suite.SWAP_DURATION).value
    except _OracleTimeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="regenerate perfbench/answers.json")
    ap.add_argument("--out", type=Path, default=run.HERE / "answers.json")
    args = ap.parse_args(argv)

    mods = run.import_qmproute()
    oracle = importlib.import_module("qmproute.oracle")
    answers = {}
    for workload in suite.WORKLOADS.values():
        for inst in run.build(mods, suite.select(workload, None)):
            for mode in workload.modes:
                key = suite.solve_key(workload, inst.pick.instance, mode)
                t0 = time.perf_counter()
                result = mods["solver"].solve(inst.circuit, inst.graph,
                                              run.solver_config(mods, workload, mode))
                rec = run.SolveRecord(key, (time.perf_counter() - t0) * 1000,
                                      slowdown=1.0)
                run.check(mods, workload, inst, result, rec, expected=None)
                if rec.fail:
                    raise SystemExit(f"{key}: {rec.fail}: {rec.message}")
                record = {"objective": rec.objective}
                if mode == "non-layered":
                    ref = oracle_value(oracle, inst.circuit, inst.graph, workload.objective)
                    if ref is not None and ref != rec.objective:
                        raise SystemExit(f"{key}: oracle {ref} != solver {rec.objective}")
                    record["oracle_checked"] = ref is not None
                answers[key] = record
                print(json.dumps({"key": key, "wall_ms": round(rec.wall_ms, 1),
                                  **record}), flush=True)
    args.out.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
