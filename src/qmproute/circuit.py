"""Circuit model, file parsing and static precedence analysis.

A circuit is an ordered list of two-qubit gates over virtual qubits.  Gates
on the same qubit are totally ordered by their position in the list, which
induces a partial order over all gates.  The analysis pass computes, per
gate, the layer index used by the layered search mode and the tail time
delta (minimum time from its start to circuit completion on ideal
hardware); the search's whole row at a progress vector, layered rule
included, comes from one pass over the gate list, `minimal_unscheduled`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import jsonfile

DEFAULT_GATE_DURATION = 4


class CircuitError(ValueError):
    """Raised for malformed circuit files or invalid gate data."""


@dataclass(frozen=True)
class GateSpec:
    id: int                 # 1-based position in the circuit
    qubits: tuple[int, int]  # ordered pair (p, q), p != q
    duration: int

    def __post_init__(self):
        p, q = self.qubits
        if p == q:
            raise CircuitError(f"gate {self.id}: degenerate gate ({p},{q})")
        if self.duration < 0:
            raise CircuitError(f"gate {self.id}: negative duration {self.duration}")


@dataclass(frozen=True)
class Circuit:
    num_virtual_qubits: int
    gates: tuple[GateSpec, ...]

    def __post_init__(self):
        n = self.num_virtual_qubits
        for i, g in enumerate(self.gates, start=1):
            if g.id != i:
                raise CircuitError(f"gate ids must be 1..N in order, got {g.id} at {i}")
            for q in g.qubits:
                if not 1 <= q <= n:
                    raise CircuitError(f"gate {i}: qubit {q} out of range 1..{n}")

    @property
    def num_gates(self) -> int:
        return len(self.gates)


def parse_circuit(text: str) -> Circuit:
    """Parse a circuit file.

    Format: JSON object with `num_qubits` (int) and `gates`, an array of
    objects `{"q": [p, q], "d": duration}` with 1-based qubit ids; `d` is
    optional and defaults to 4.  Unknown fields are rejected.
    """
    data = jsonfile.record(jsonfile.load(text, CircuitError, "circuit"), CircuitError,
                           "circuit file", ("num_qubits", "gates"))
    n, raw_gates = data["num_qubits"], data["gates"]
    if not jsonfile.is_int(n) or n < 1:
        raise CircuitError(f"num_qubits must be a positive integer, got {n!r}")
    if not isinstance(raw_gates, list):
        raise CircuitError("gates must be an array")
    gates = []
    for i, item in enumerate(raw_gates, start=1):
        pair = jsonfile.record(item, CircuitError, f"gate {i}", ("q",), ("d",))["q"]
        if not jsonfile.is_ints(pair, 2):
            raise CircuitError(f"gate {i}: 'q' must be a pair of integers")
        d = item.get("d", DEFAULT_GATE_DURATION)
        if not jsonfile.is_int(d):
            raise CircuitError(f"gate {i}: duration must be an integer")
        gates.append(GateSpec(id=i, qubits=(pair[0], pair[1]), duration=d))
    return Circuit(num_virtual_qubits=n, gates=tuple(gates))


def circuit_to_json(circuit: Circuit) -> str:
    data = {
        "num_qubits": circuit.num_virtual_qubits,
        "gates": [{"q": list(g.qubits), "d": g.duration} for g in circuit.gates],
    }
    return json.dumps(data, indent=2)


@dataclass(frozen=True)
class PrecedenceInfo:
    """The precedence facts the search reads, by gate id (entry 0 unused):
    layer[i] is gate i's recursive layer index (0 for a gate with no
    predecessor), delta[i] the minimum time from its start to circuit
    completion on ideal hardware."""
    gates: tuple[GateSpec, ...]
    layer: list[int]
    delta: list[int]


def analyze(circuit: Circuit) -> PrecedenceInfo:
    # A gate's direct predecessors are the last gates on its two qubits:
    # after[q] is 1 + the layer of q's last gate so far.
    layer, after = [0] * (circuit.num_gates + 1), [0] * (circuit.num_virtual_qubits + 1)
    for g in circuit.gates:
        p, q = g.qubits
        layer[g.id] = max(after[p], after[q])
        after[p] = after[q] = layer[g.id] + 1
    # Its direct successors are the next gates on its two qubits, later in
    # the list: one reverse pass, with before[q] delta of q's next gate.
    delta, before = [0] * (circuit.num_gates + 1), [0] * (circuit.num_virtual_qubits + 1)
    for g in reversed(circuit.gates):
        p, q = g.qubits
        delta[g.id] = before[p] = before[q] = g.duration + max(before[p], before[q])
    return PrecedenceInfo(gates=circuit.gates, layer=layer, delta=delta)


def minimal_unscheduled(info: PrecedenceInfo, progress, layered: bool) -> tuple:
    """The row (moves, heads, pairs, holes, hole_pairs) the search reads at `progress`,
    each qubit's number of scheduled gates (a downward-closed set of gates
    is exactly such a per-qubit prefix), from one pass over the gates in
    order counting each qubit's gates passed so far: a gate is unscheduled
    once that count reaches its qubits' progress, and next on a qubit when
    the two are equal.  moves has (gate id, p, q, duration, progress after
    it) per gate next on both its qubits (p, q), by id, the progress after
    it of the type of `progress` (a tuple or `bytes`); `layered` keeps those
    in the lowest unfinished layer, the lowest among them, since every
    predecessor of a gate in that layer is scheduled.  heads[q] is delta of
    q's next gate (0 for q = 0 and once q is done).

    A qubit is placed by its first gate and never unplaced, so it is placed
    exactly when its progress is positive, and the row knows it.  pairs has
    a row (p, q, delta[first], work_p, work_q) per pair of placed qubits
    with a gate still to run, by `first`, the pair's first unscheduled gate,
    on qubits (p, q), and a qubit's work is its gates' duration from its
    progress up to `first`.  holes lists once each, by the first such gate,
    the placed qubits with a gate still to run whose partner is unplaced,
    and hole_pairs has a row (p, delta[first], work_p, work_q) per such
    pair, by `first`, with p the placed qubit and q the unplaced one."""
    delta, seen, met, moves, pairs = info.delta, [0] * len(progress), set(), [], []
    holes, hole_pairs = {}, []
    heads, work = [0] * len(progress), [0] * len(progress)
    for g in info.gates:
        p, q = g.qubits
        if seen[p] >= progress[p]:
            if seen[p] == progress[p]:
                heads[p] = delta[g.id]
                if seen[q] == progress[q]:
                    heads[q] = delta[g.id]
                    done = list(progress)
                    done[p], done[q] = done[p] + 1, done[q] + 1
                    moves.append((g.id, p, q, g.duration, type(progress)(done)))
            elif seen[q] == progress[q]:
                heads[q] = delta[g.id]
            pair = (p, q) if p < q else (q, p)
            if pair not in met:
                met.add(pair)
                if progress[p] and progress[q]:
                    pairs.append((p, q, delta[g.id], work[p], work[q]))
                elif progress[p] or progress[q]:
                    if not progress[p]:
                        p, q = q, p
                    holes[p] = None
                    hole_pairs.append((p, delta[g.id], work[p], work[q]))
            work[p] += g.duration
            work[q] += g.duration
        seen[p] += 1
        seen[q] += 1
    if layered and moves:
        low = min(info.layer[move[0]] for move in moves)
        moves = [move for move in moves if info.layer[move[0]] == low]
    return tuple(moves), tuple(heads), tuple(pairs), tuple(holes), tuple(hole_pairs)
