"""Circuit model, file parsing and static precedence analysis.

A circuit is an ordered list of two-qubit gates over virtual qubits.  Gates
on the same qubit are totally ordered by their position in the list, which
induces a partial order over all gates.  The analysis pass precomputes the
per-qubit gate sequences, tail times (minimum time from a gate's start to
circuit completion on ideal hardware) and layer indices used by the layered
search mode.
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
    """Static analysis of a circuit's precedence structure.

    per_qubit[q] is the ordered list of gate ids acting on virtual qubit q.
    delta[i] is the minimum time from gate i's start to circuit completion.
    layer[i] is the recursive layer index (0 for gates with no predecessor).
    pos[i] maps each of gate i's qubits to its index within per_qubit[q].
    tail_sums[q][k] is the total duration of gates per_qubit[q][k:].
    pairs lists, per unordered qubit pair, (p, q, positions, ids): the ids
    of the pair's gates in circuit order and their positions on qubit p,
    so one bisect on progress[p] finds the pair's first unscheduled gate.
    """
    circuit: Circuit
    per_qubit: dict[int, list[int]]
    delta: dict[int, int]
    layer: dict[int, int]
    pos: dict[int, dict[int, int]]
    tail_sums: dict[int, list[int]]
    pairs: tuple[tuple[int, int, list[int], list[int]], ...]


def analyze(circuit: Circuit) -> PrecedenceInfo:
    per_qubit: dict[int, list[int]] = {q: [] for q in range(1, circuit.num_virtual_qubits + 1)}
    pos: dict[int, dict[int, int]] = {}
    layer: dict[int, int] = {}
    pairs: dict[frozenset, tuple[int, int, list[int], list[int]]] = {}
    for g in circuit.gates:
        # A gate's direct predecessors are the last gates on its two qubits.
        layer[g.id] = max((1 + layer[per_qubit[q][-1]] for q in g.qubits if per_qubit[q]),
                          default=0)
        pos[g.id] = {}
        for q in g.qubits:
            pos[g.id][q] = len(per_qubit[q])
            per_qubit[q].append(g.id)
        p, _, positions, ids = pairs.setdefault(frozenset(g.qubits), (*g.qubits, [], []))
        positions.append(pos[g.id][p])
        ids.append(g.id)

    # A gate's direct successors are the next gates on its two qubits; they
    # have larger ids, so one reverse pass suffices.
    delta: dict[int, int] = {}
    for g in reversed(circuit.gates):
        delta[g.id] = g.duration + max((delta[per_qubit[q][k + 1]] for q, k in pos[g.id].items()
                                        if k + 1 < len(per_qubit[q])), default=0)

    tail_sums: dict[int, list[int]] = {}
    for q, ids in per_qubit.items():
        sums = [0] * (len(ids) + 1)
        for k in range(len(ids) - 1, -1, -1):
            sums[k] = sums[k + 1] + circuit.gates[ids[k] - 1].duration
        tail_sums[q] = sums

    return PrecedenceInfo(circuit=circuit, per_qubit=per_qubit, delta=delta,
                          layer=layer, pos=pos, tail_sums=tail_sums,
                          pairs=tuple(pairs.values()))


def minimal_unscheduled(info: PrecedenceInfo, progress) -> list[int]:
    """Gate ids that are the first unscheduled gate on both of their qubits.

    `progress` maps each virtual qubit to the number of its gates already
    scheduled (a downward-closed set is exactly a per-qubit prefix).
    """
    result = []
    for g in info.circuit.gates:
        p, q = g.qubits
        if (info.pos[g.id][p] == progress[p]
                and info.pos[g.id][q] == progress[q]):
            result.append(g.id)
    return result
