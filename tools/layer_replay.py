"""Replay one benchmark pass's search layers, timed and checked.

    python3 tools/layer_replay.py [--root CHECKOUT] --workload exact-depth --seed 1 --reps 5

One pass of the workload (every picked instance in every mode, as
`perfbench/run.py` solves and checks it) runs in CHECKOUT, by default the
checkout holding this script, with every `_Search.children`, `_Search.keep`
and bound call recorded with its output.  Each layer is then replayed
alone, `--reps` times with the cyclic garbage collector off: `children`
and the bound on the recorded nodes, and `keep` on the recorded children,
each solve's calls into a fresh Pareto store.  It prints the calls and
the best replay time of each layer, and exits 1 if the pass failed a
check or a replayed output differs from the recorded one.

It imports perfbench's `run` and `suite` and writes nothing: no record,
no span file, no bytecode.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

LAYERS = ("children", "keep", "bound")


class Log:
    """One pass's recorded calls: (search, node, children) per `children`
    call, (search, node, children, store, kept) per `keep` call, and
    (bound, node, key) per bound call.  `stats` holds each store's final
    pruned and replaced counts."""

    def __init__(self):
        self.children, self.keep, self.bound, self.stats = [], [], [], {}


def node_fields(node) -> tuple:
    return (node.parent, node.gate_index, node.edge, node.depth_map, node.assignment,
            node.progress, node.swap_count, node.num_scheduled, node.removed)


def record(solver, solve_all) -> tuple[Log, object]:
    """Run `solve_all()` with `solver`'s layers recorded; its result and
    the log, whose kept nodes are read after the last solve."""
    log = Log()
    search_cls, make_bound = solver._Search, solver._bound
    children, keep = search_cls.children, search_cls.keep

    def recorded_children(search, node):
        out = children(search, node)
        log.children.append((search, node, out))
        return out

    def recorded_keep(search, node, kids, store, stats):
        out = keep(search, node, kids, store, stats)
        log.keep.append((search, node, kids, store, out))
        log.stats[id(store)] = (store, stats)
        return out

    def recorded_bound(*args):
        bound = make_bound(*args)

        def wrapper(node):
            key = bound(node)
            log.bound.append((bound, node, key))
            return key
        return wrapper

    search_cls.children, search_cls.keep, solver._bound = (
        recorded_children, recorded_keep, recorded_bound)
    try:
        result = solve_all()
    finally:
        search_cls.children, search_cls.keep, solver._bound = children, keep, make_bound
    log.keep = [(s, n, kids, store, [node_fields(k) for k in out])
                for s, n, kids, store, out in log.keep]
    log.stats = {k: (store, (stats.nodes_pruned, stats.fronts_replaced))
                 for k, (store, stats) in log.stats.items()}
    return log, result


def replay(solver, log: Log, layer: str) -> tuple[float, bool]:
    """One timed replay of `layer` with the collector off: its seconds and
    whether every output equals the recorded one."""
    if layer == "keep":
        stores = {k: (None if store is None else {}, solver.SolveStats())
                  for k, (store, _) in log.stats.items()}
        calls = [(s.keep, n, kids, *stores[id(store)]) for s, n, kids, store, _ in log.keep]
    elif layer == "children":
        calls = [(s.children, n) for s, n, _ in log.children]
    else:
        calls = [(bound, n) for bound, n, _ in log.bound]
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        outs = [fn(*args) for fn, *args in calls]
        seconds = time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()
    if layer == "keep":
        same = ([[node_fields(k) for k in out] for out in outs]
                == [kept for *_, kept in log.keep]
                and all((stats.nodes_pruned, stats.fronts_replaced) == log.stats[k][1]
                        for k, (_, stats) in stores.items()))
    else:
        same = outs == [recorded for *_, recorded in getattr(log, layer)]
    return seconds, same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--reps", type=int, required=True)
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(args.root.resolve() / "perfbench"))
    import run
    import suite

    if args.workload not in suite.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(sorted(suite.WORKLOADS))}")
    workload = suite.WORKLOADS[args.workload]
    answers = json.loads((run.HERE / "answers.json").read_text())
    mods = run.import_qmproute()
    instances = run.build(mods, suite.select(workload, args.seed))
    solver = mods["solver"]
    log, records = record(solver, lambda: run.run_pass(mods, workload, instances, answers))
    failed = [r for r in records if r.fail]
    for r in failed:
        print(f"FAILED {r.key}: {r.fail}: {r.message}")
    print(f"{workload.name} seed {args.seed}: {len(records)} solves, "
          f"best of {args.reps} replays with gc off")
    differs = []
    for layer in LAYERS:
        runs = [replay(solver, log, layer) for _ in range(args.reps)]
        if not all(same for _, same in runs):
            differs.append(layer)
        print(f"  {layer:9s} {len(getattr(log, layer)):7d} calls "
              f"{min(s for s, _ in runs) * 1000:9.2f} ms")
    for layer in differs:
        print(f"DIFFERS: a replayed {layer} output is not the recorded one")
    return 1 if failed or differs else 0


if __name__ == "__main__":
    sys.exit(main())
