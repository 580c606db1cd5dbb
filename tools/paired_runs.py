"""Alternating paired benchmark runs of two checkouts, parent against change.

    python3 tools/paired_runs.py PARENT CHANGE --workload exact-depth --pairs 10 --seconds 60

Pair i runs `perfbench/run.py --trace 0` at workload seed i + 1 in each
checkout, the parent first in even pairs and the change first in odd ones,
each run from its checkout's root with its per-solve records written to a
temporary directory, so nothing under either `perfbench/` changes.  A run
whose last line does not say `"correct": true` is refused: the script stops
with exit code 1.

For every `end_to_end` metric named in the change's `BENCHMARK.json` it
prints both values of each pair, then both medians, the pairs the change
won (ties count for neither side), the distance between the parent's
quartiles, and `WORSE` where the change's median is worse than the parent's
by more than the metric's bound, as a share of the parent's median.  A
flagged metric is reported, not an error: two runs of one checkout differ
by their noise alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


class RefusedRun(Exception):
    """A benchmark run that failed or did not report itself correct."""


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metric values of one untraced run in `checkout`."""
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0", "--out", out],
            cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        last = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        last = {}
    if proc.returncode != 0 or not isinstance(last, dict) or last.get("correct") is not True:
        raise RefusedRun(f"{checkout} seed {seed}: exit {proc.returncode}, last line "
                         f"{lines[-1] if lines else '(none)'!r}\n{proc.stderr.strip()}")
    return {name: m["value"] for name, m in last["metrics"].items()}


def quartile_distance(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summary(metric: dict, parent: list, change: list) -> str:
    """One metric's line: both medians, the change's wins over the pairs,
    the parent's quartile distance and a `WORSE` flag past the bound."""
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    mp, mc = statistics.median(parent), statistics.median(change)
    worse = (mc - mp) if lower else (mp - mc)
    flag = "  WORSE" if mp and worse / abs(mp) > metric["bound"] else ""
    gain = f"{(mc - mp) / abs(mp):+.1%}" if mp else "n/a"
    return (f"{metric['name']:22s} {mp:10.5g} -> {mc:10.5g} {metric['unit']:5s} {gain:>7s}  "
            f"change won {wins}/{len(parent)}  parent IQR {quartile_distance(parent):.4g}"
            f"  bound {metric['bound']:.0%}{flag}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    names = [m["name"] for m in metrics]
    values = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = i + 1
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                values[side].append(run_once(getattr(args, side), args.workload, seed,
                                             args.seconds))
            except RefusedRun as e:
                print(f"refused run: {e}", file=sys.stderr)
                return 1
        print(f"pair {i + 1} seed {seed} ({order[0]} first)")
        for name in names:
            print(f"  {name:22s} parent {values['parent'][-1][name]:.6g}"
                  f"  change {values['change'][-1][name]:.6g}")
        sys.stdout.flush()
    print(f"{args.workload}: {args.pairs} pairs at {args.seconds:g} s, parent -> change medians")
    for m in metrics:
        print("  " + summary(m, [v[m["name"]] for v in values["parent"]],
                             [v[m["name"]] for v in values["change"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
