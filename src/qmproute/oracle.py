"""Brute-force reference solver for tiny instances.

Independent of the branch-and-bound module: enumerates every interleaving
of minimal circuit gates and SWAP insertions up to a SWAP cap, over all
placements, with only a trivial incumbent cut.  Used to certify the main
solver and to generate expected values for tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit
from .hardware import HardwareGraph
from .schedule import DEFAULT_SWAP_DURATION, SWAP, Schedule, ScheduledOp

DEPTH = "depth"
SWAPS = "swaps"
FIXPOINT_MAX_CAP = 32


class CapExhausted(RuntimeError):
    """No solution found within the SWAP cap, but capped branches were cut."""


@dataclass
class OracleConfig:
    max_swaps: int
    objective: str = DEPTH
    swap_duration: int = DEFAULT_SWAP_DURATION

    def __post_init__(self):
        if self.objective not in (DEPTH, SWAPS):
            raise ValueError(f"unknown objective {self.objective!r}")
        if min(self.max_swaps, self.swap_duration) < 0:
            raise ValueError("max_swaps and swap_duration must be >= 0")


@dataclass
class OracleResult:
    value: int
    schedule: Schedule
    cap_hit: bool    # some branch was cut by the SWAP cap; widen to confirm


def exhaustive_solve(circuit: Circuit, graph: HardwareGraph,
                     config: OracleConfig) -> OracleResult:
    if circuit.num_virtual_qubits > graph.num_nodes:
        raise ValueError("more virtual qubits than hardware nodes")
    gates = circuit.gates
    n = circuit.num_virtual_qubits
    num_nodes = graph.num_nodes
    d_s = config.swap_duration
    want_depth = config.objective == DEPTH

    # Per-qubit gate sequences; a scheduled set is a per-qubit prefix.
    per_qubit: dict[int, list[int]] = {q: [] for q in range(1, n + 1)}
    for g in gates:
        for q in g.qubits:
            per_qubit[q].append(g.id)

    best_value: list[int | None] = [None]
    best_ops: list[list | None] = [None]
    cap_hit = [False]

    occupant = [0] * (num_nodes + 1)
    placed = [0] * (n + 1)
    depth = [0] * (num_nodes + 1)
    progress = {q: 0 for q in range(1, n + 1)}
    ops: list[ScheduledOp] = []

    def minimal_gates():
        out = []
        for g in gates:
            p, q = g.qubits
            if (progress[p] < len(per_qubit[p]) and per_qubit[p][progress[p]] == g.id
                    and per_qubit[q] [progress[q]:progress[q] + 1] == [g.id]):
                out.append(g)
        return out

    def partial_cost(swaps: int) -> int:
        return max(depth[1:]) if want_depth else swaps

    def recurse(scheduled: int, swaps: int):
        if best_value[0] is not None and partial_cost(swaps) >= best_value[0]:
            return
        if scheduled == len(gates):
            value = partial_cost(swaps)
            if best_value[0] is None or value < best_value[0]:
                best_value[0] = value
                best_ops[0] = list(ops)
            return
        for g in minimal_gates():
            p, q = g.qubits
            ap, aq = placed[p], placed[q]
            if ap and aq:
                placements = [(ap, aq)] if graph.has_edge(ap, aq) else []
            elif ap:
                placements = [(ap, w) for w in graph.neighbors(ap) if not occupant[w]]
            elif aq:
                placements = [(v, aq) for v in graph.neighbors(aq) if not occupant[v]]
            else:
                placements = []
                for v, w in graph.edges:
                    if not occupant[v] and not occupant[w]:
                        placements.append((v, w))
                        placements.append((w, v))
            for v, w in placements:
                start = max(depth[v], depth[w])
                saved = (occupant[v], occupant[w], placed[p], placed[q],
                         depth[v], depth[w])
                occupant[v], occupant[w] = p, q
                placed[p], placed[q] = v, w
                depth[v] = depth[w] = start + g.duration
                progress[p] += 1
                progress[q] += 1
                ops.append(ScheduledOp(g.id, (v, w), start, g.duration))
                recurse(scheduled + 1, swaps)
                ops.pop()
                progress[p] -= 1
                progress[q] -= 1
                (occupant[v], occupant[w], placed[p], placed[q],
                 depth[v], depth[w]) = saved
        if swaps >= config.max_swaps:
            cap_hit[0] = True
            return
        for v, w in graph.edges:
            if not occupant[v] and not occupant[w]:
                continue
            start = max(depth[v], depth[w])
            saved = (occupant[v], occupant[w], depth[v], depth[w])
            ov, ow = occupant[v], occupant[w]
            occupant[v], occupant[w] = ow, ov
            if ow:
                placed[ow] = v
            if ov:
                placed[ov] = w
            depth[v] = depth[w] = start + d_s
            ops.append(ScheduledOp(SWAP, (v, w), start, d_s))
            recurse(scheduled, swaps + 1)
            ops.pop()
            occupant[v], occupant[w], depth[v], depth[w] = saved
            if ow:
                placed[ow] = w
            if ov:
                placed[ov] = v

    recurse(0, 0)
    if best_value[0] is None:
        if cap_hit[0]:
            raise CapExhausted(f"no solution within {config.max_swaps} SWAPs")
        raise RuntimeError("no feasible schedule found")  # unreachable on connected graphs
    sched_ops = sorted(best_ops[0], key=lambda op: op.start)
    return OracleResult(value=best_value[0],
                        schedule=Schedule(ops=tuple(sched_ops), swap_duration=d_s),
                        cap_hit=cap_hit[0])


def oracle_fixpoint(circuit: Circuit, graph: HardwareGraph, objective: str,
                    swap_duration: int = DEFAULT_SWAP_DURATION) -> OracleResult:
    """Re-run the oracle with SWAP caps 0, 1, ... until the optimum is
    stable across two consecutive caps (the documented acceptance procedure)."""
    prev: OracleResult | None = None
    for cap in range(FIXPOINT_MAX_CAP + 1):
        try:
            res = exhaustive_solve(circuit, graph,
                                   OracleConfig(max_swaps=cap, objective=objective,
                                                swap_duration=swap_duration))
        except CapExhausted:
            continue
        if not res.cap_hit:
            return res
        if prev is not None and prev.value == res.value:
            return res
        prev = res
    raise RuntimeError(f"oracle value did not stabilize within cap {FIXPOINT_MAX_CAP}")
