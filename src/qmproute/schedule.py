"""Schedule model, feasibility validation and metrics.

A schedule is a time-ordered list of placed operations (circuit gates or
SWAPs) on hardware edges.  Validation simulates the flow of virtual qubits
through the hardware: the first gate touching a physical node binds the
virtual qubit, which also derives the initial assignment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import jsonfile
from .circuit import Circuit
from .hardware import HardwareGraph

SWAP = 0
DEFAULT_SWAP_DURATION = 15


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class ScheduledOp:
    kind: int                # circuit gate id (> 0) or SWAP (0)
    edge: tuple[int, int]    # ordered pair of hardware nodes
    start: int
    duration: int

    @property
    def end(self) -> int:
        return self.start + self.duration

    @property
    def is_swap(self) -> bool:
        return self.kind == SWAP


@dataclass(frozen=True)
class Metrics:
    depth: int
    swaps: int
    unweighted_depth: int


@dataclass(frozen=True)
class Schedule:
    ops: tuple[ScheduledOp, ...]
    swap_duration: int


@dataclass(frozen=True)
class Violation:
    category: str    # order | assignment | routing | duration | precedence | overlap
    op_index: int
    message: str


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violation: Violation | None = None
    initial_assignment: dict[int, int] = field(default_factory=dict)


def validate(schedule: Schedule, circuit: Circuit, graph: HardwareGraph) -> ValidationResult:
    """Check a schedule against the assignment, routing, duration,
    precedence and overlap constraints; on success also return the derived
    initial assignment (virtual -> physical).  A gate op must last its
    gate's duration and a SWAP the schedule's `swap_duration`.  Ops must
    be sorted by start time; the first op that starts before its
    predecessor is an `order` violation."""
    ops = schedule.ops

    def fail(category, idx, msg):
        return ValidationResult(ok=False, violation=Violation(category, idx, msg))

    for k in range(1, len(ops)):
        if ops[k].start < ops[k - 1].start:
            return fail("order", k, f"op {k} starts at {ops[k].start}, before op "
                                    f"{k - 1} at {ops[k - 1].start}")

    occupant: dict[int, int] = {}        # physical node -> virtual qubit
    placed: dict[int, int] = {}          # virtual qubit -> physical node
    # origin[node]: the time-0 node whose content currently resides at node;
    # binding a qubit late still yields its true initial position.
    origin: dict[int, int] = {v: v for v in range(1, graph.num_nodes + 1)}
    initial: dict[int, int] = {}
    gate_start: dict[int, ScheduledOp] = {}

    for idx, op in enumerate(ops):
        v, w = op.edge
        if not graph.has_edge(v, w):
            return fail("assignment", idx,
                        f"edge ({v},{w}) does not exist in the hardware graph")
        if op.is_swap:
            if op.duration != schedule.swap_duration:
                return fail("duration", idx, f"SWAP lasts {op.duration}, not the "
                                             f"swap duration {schedule.swap_duration}")
            ov, ow = occupant.pop(v, None), occupant.pop(w, None)
            if ov is not None:
                occupant[w], placed[ov] = ov, w
            if ow is not None:
                occupant[v], placed[ow] = ow, v
            origin[v], origin[w] = origin[w], origin[v]
        else:
            if not 1 <= op.kind <= circuit.num_gates:
                return fail("routing", idx, f"unknown gate id {op.kind}")
            if op.kind in gate_start:
                return fail("routing", idx, f"gate {op.kind} scheduled twice")
            gate = circuit.gates[op.kind - 1]
            if op.duration != gate.duration:
                return fail("duration", idx, f"gate {op.kind} lasts {op.duration}, not "
                                             f"its duration {gate.duration}")
            gate_start[op.kind] = op
            p, q = gate.qubits
            bound = None
            for a, b in (((p, v), (q, w)), ((p, w), (q, v))):
                ok = True
                for virt, node in (a, b):
                    if node in occupant:
                        if occupant[node] != virt:
                            ok = False
                    elif virt in placed:
                        ok = False
                if ok:
                    bound = (a, b)
                    break
            if bound is None:
                return fail("routing", idx,
                            f"physical qubits {v} and {w} do not contain the "
                            f"virtual qubits {p} and {q} of gate {op.kind}")
            for virt, node in bound:
                if node not in occupant:
                    occupant[node] = virt
                    placed[virt] = node
                    initial[virt] = origin[node]

    missing = set(range(1, circuit.num_gates + 1)) - gate_start.keys()
    if missing:
        return fail("routing", len(ops),
                    f"circuit gates never scheduled: {sorted(missing)}")

    # Per-qubit precedence: circuit order must be respected in time.
    last_end: dict[int, tuple[int, int]] = {}
    for g in circuit.gates:
        op = gate_start[g.id]
        for q in g.qubits:
            if q in last_end:
                prev_id, prev_end = last_end[q]
                if op.start < prev_end:
                    return fail("precedence", ops.index(op),
                                f"gate {g.id} starts at {op.start} before gate "
                                f"{prev_id} ends at {prev_end} on qubit {q}")
            last_end[q] = (g.id, op.end)

    # No temporal overlap per hardware node.  The ops are sorted by start,
    # and the earlier ops on a node passed this check, so its earlier
    # positive-duration ops are disjoint and each ends by the next one's
    # start: only the last can overlap a later op.  An op of no positive
    # duration overlaps no later op.
    last: dict[int, tuple[int, int, int]] = {}     # node -> (start, end, op index)
    for idx, op in enumerate(ops):
        for node in op.edge:
            if node in last:
                s, e, j = last[node]
                if op.start < e and s < op.end:
                    return fail("overlap", idx,
                                f"ops {j} and {idx} overlap on node {node}")
        if op.end > op.start:
            for node in op.edge:
                last[node] = (op.start, op.end, idx)

    return ValidationResult(ok=True, initial_assignment=initial)


def compute_metrics(schedule: Schedule) -> Metrics:
    """Depth (makespan), SWAP count and unweighted depth.

    The unweighted depth re-times the same op sequence greedily with every
    op duration, a SWAP's included, set to 1.
    """
    depth = max((op.end for op in schedule.ops), default=0)
    swaps = sum(1 for op in schedule.ops if op.is_swap)
    free: dict[int, int] = {}
    unweighted = 0
    for op in schedule.ops:
        v, w = op.edge
        start = max(free.get(v, 0), free.get(w, 0))
        free[v] = free[w] = start + 1
        unweighted = max(unweighted, start + 1)
    return Metrics(depth=depth, swaps=swaps, unweighted_depth=unweighted)


def parse_schedule(text: str, circuit: Circuit) -> Schedule:
    """Parse a schedule file: JSON with `swap_duration` and `ops`, an array
    of `{"gate": id-or-0, "edge": [v, w], "t": start}`.  Durations are
    recovered from the circuit and swap_duration."""
    data = jsonfile.record(jsonfile.load(text, ScheduleError, "schedule"), ScheduleError,
                           "schedule file", ("swap_duration", "ops"))
    swap_duration, raw_ops = data["swap_duration"], data["ops"]
    if not jsonfile.is_int(swap_duration) or swap_duration < 0:
        raise ScheduleError(f"'swap_duration' must be a nonnegative integer, got {swap_duration!r}")
    if not isinstance(raw_ops, list):
        raise ScheduleError("'ops' must be a list")
    ops = []
    for i, item in enumerate(raw_ops):
        jsonfile.record(item, ScheduleError, f"op {i}", ("gate", "edge", "t"))
        gate, edge, t = item["gate"], item["edge"], item["t"]
        if not jsonfile.is_int(t) or t < 0:
            raise ScheduleError(f"op {i}: 't' must be a nonnegative integer, got {t!r}")
        if not jsonfile.is_int(gate):
            raise ScheduleError(f"op {i}: 'gate' must be an integer, got {gate!r}")
        if not jsonfile.is_ints(edge, 2):
            raise ScheduleError(f"op {i}: 'edge' must be a list of two integers, got {edge!r}")
        if gate == SWAP:
            d = swap_duration
        elif 1 <= gate <= circuit.num_gates:
            d = circuit.gates[gate - 1].duration
        else:
            raise ScheduleError(f"op {i}: unknown gate id {gate}")
        ops.append(ScheduledOp(kind=gate, edge=(edge[0], edge[1]), start=t, duration=d))
    return Schedule(ops=tuple(ops), swap_duration=swap_duration)


def schedule_to_json(schedule: Schedule) -> str:
    data = {
        "swap_duration": schedule.swap_duration,
        "ops": [{"gate": op.kind, "edge": list(op.edge), "t": op.start}
                for op in schedule.ops],
    }
    return json.dumps(data, indent=2)
