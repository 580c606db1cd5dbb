"""Circuit model, file parsing and static precedence analysis.

A circuit is an ordered list of two-qubit gates over virtual qubits.  Gates
on the same qubit are totally ordered by their position in the list, which
induces a partial order over all gates.  The analysis pass precomputes the
layer indices used by the layered search mode and the tables the search
reads by per-qubit progress, among them each next gate's tail time (minimum
time from its start to circuit completion on ideal hardware).
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
    """The tables the search reads, from a static analysis of a circuit's
    precedence structure.  In the analysis, delta[i] is the minimum time
    from gate i's start to circuit completion.

    layer[i] is gate i's recursive layer index (0 for gates with no
    predecessor; entry 0 unused).

    The other tables are lists indexed by qubit (row 0 unused), then by
    the qubit's progress k, its number of scheduled gates, up to and
    including its gate count:
    tail_sums[q][k] is the total duration of q's gates from its k-th on.
    head[q][k] is delta of q's k-th gate, 0 once q is done.
    ready[q][k] is (gate id, partner qubit, the gate's position on the
    partner) for that gate, None once q is done; the gate is minimal
    exactly when the partner's progress equals that position.
    live[p][k] has an entry for each qubit pair whose first gate has p as
    its first qubit and which has a gate at position k or later on p:
    (q, delta[first], position of first on p, position of first on q),
    where `first` is the pair's first such gate and q the pair's other
    qubit.  An entry holds no k, so the rows share one tuple per gate.
    """
    layer: list[int]
    tail_sums: list[list[int]]
    head: list[list[int]]
    ready: list[list[tuple[int, int, int] | None]]
    live: list[list[list[tuple[int, int, int, int]]]]


def analyze(circuit: Circuit) -> PrecedenceInfo:
    # per_qubit[q]: the ids of q's gates in order; pos[i][q]: gate i's
    # index in per_qubit[q].
    per_qubit: dict[int, list[int]] = {q: [] for q in range(1, circuit.num_virtual_qubits + 1)}
    pos: dict[int, dict[int, int]] = {}
    layer = [0] * (circuit.num_gates + 1)
    pairs: dict[frozenset, tuple[int, int, list[int]]] = {}
    for g in circuit.gates:
        # A gate's direct predecessors are the last gates on its two qubits.
        layer[g.id] = max((1 + layer[per_qubit[q][-1]] for q in g.qubits if per_qubit[q]),
                          default=0)
        pos[g.id] = {}
        for q in g.qubits:
            pos[g.id][q] = len(per_qubit[q])
            per_qubit[q].append(g.id)
        pairs.setdefault(frozenset(g.qubits), (*g.qubits, []))[2].append(g.id)

    # A gate's direct successors are the next gates on its two qubits; they
    # have larger ids, so one reverse pass suffices.
    delta: dict[int, int] = {}
    for g in reversed(circuit.gates):
        delta[g.id] = g.duration + max((delta[per_qubit[q][k + 1]] for q, k in pos[g.id].items()
                                        if k + 1 < len(per_qubit[q])), default=0)

    tail_sums: list[list[int]] = [[0]]
    head: list[list[int]] = [[0]]
    ready: list[list[tuple[int, int, int] | None]] = [[None]]
    live: list[list[list[tuple[int, int, int, int]]]] = [[[]]]
    for q, ids in per_qubit.items():
        sums = [0] * (len(ids) + 1)
        for k in range(len(ids) - 1, -1, -1):
            sums[k] = sums[k + 1] + circuit.gates[ids[k] - 1].duration
        tail_sums.append(sums)
        head.append([delta[i] for i in ids] + [0])
        ready.append([(i, r, pos[i][r]) for i in ids for r in pos[i] if r != q] + [None])
        live.append([[] for _ in range(len(ids) + 1)])
    for p, q, ids in pairs.values():
        # Gate `first` is the pair's next from just after the one before it
        # on p up to its own position there.
        start = 0
        for first in ids:
            at_p = pos[first][p]
            entry = (q, delta[first], at_p, pos[first][q])
            for k in range(start, at_p + 1):
                live[p][k].append(entry)
            start = at_p + 1

    return PrecedenceInfo(layer=layer, tail_sums=tail_sums, head=head, ready=ready, live=live)


def minimal_unscheduled(info: PrecedenceInfo, progress) -> list[int]:
    """Gate ids, ascending, that are the first unscheduled gate on both of
    their qubits.

    `progress` maps each virtual qubit to the number of its gates already
    scheduled (a downward-closed set is exactly a per-qubit prefix).  Each
    qubit's next gate is looked up in `ready`, and kept, from its lower
    qubit, when it is the partner's next gate too.
    """
    ready, result = info.ready, []
    for q in range(1, len(ready)):
        gate = ready[q][progress[q]]
        if gate is not None:
            i, r, k = gate
            if q < r and progress[r] == k:
                result.append(i)
    result.sort()
    return result
