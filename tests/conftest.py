import json
import time

import pytest

from qmproute.bench import InstanceSpec, gen_random_circuit
from qmproute.circuit import parse_circuit
from qmproute.hardware import parse_topology
from qmproute.solver import _run, _Search


# Input that `json` fails on past its syntax: an integer too long to
# convert, and nesting past the recursion limit.  Every parser must raise
# its own error class on both.
UNDECODABLE = pytest.mark.parametrize("text", ['{"x": ' + "1" * 5000 + "}", "[" * 100000],
                                      ids=["long-integer", "deep-nesting"])


@pytest.fixture
def example_circuit():
    """Three-gate circuit on four virtual qubits used throughout the tests:
    (1,2) d=2, (3,4) d=3, (4,1) d=1."""
    return parse_circuit(json.dumps({
        "num_qubits": 4,
        "gates": [{"q": [1, 2], "d": 2}, {"q": [3, 4], "d": 3}, {"q": [4, 1], "d": 1}],
    }))


@pytest.fixture
def linear4():
    return parse_topology("linear:4")


@pytest.fixture
def y4():
    return parse_topology("y:4")


def solve_without_store(circuit, graph, config):
    """The exact search with no Pareto store, so no child is pruned: the
    reference the store's pruning must agree with."""
    return _run(_Search(circuit, graph, config), None, time.monotonic(), None)


def tiny_instances(count, seed_base=0, qubits=(3, 4), depth_params=(3, 4, 5, 6)):
    """Deterministic stream of tiny random circuits (<= 4 qubits, <= 6 gates)."""
    specs = []
    i = 0
    while len(specs) < count:
        q = qubits[i % len(qubits)]
        d = depth_params[(i // len(qubits)) % len(depth_params)]
        specs.append(InstanceSpec(topology="linear:4", num_qubits=q,
                                  depth_param=d, seed=seed_base + i))
        i += 1
    return [(s, gen_random_circuit(s)) for s in specs]


def gate_positions(circuit):
    """Gate id -> {qubit: the gate's index among that qubit's gates}, read
    off the gate list."""
    count, pos = {}, {}
    for g in circuit.gates:
        pos[g.id] = {}
        for q in g.qubits:
            pos[g.id][q] = count.get(q, 0)
            count[q] = pos[g.id][q] + 1
    return pos


def qubit_gates(circuit):
    """Qubit -> the ids of its gates in circuit order."""
    seq = {q: [] for q in range(1, circuit.num_virtual_qubits + 1)}
    for g in circuit.gates:
        for q in g.qubits:
            seq[q].append(g.id)
    return seq


def reference_delta(circuit):
    """Gate id -> the least time from the gate's start to the end of the
    circuit on ideal hardware: the makespan of the gate and every gate that
    depends on it, replayed as early as possible from the gate's start."""
    delta = {}
    for g in circuit.gates:
        ends = dict.fromkeys(g.qubits, g.duration)
        for later in circuit.gates[g.id:]:
            reached = [ends[q] for q in later.qubits if q in ends]
            if reached:
                end = max(reached) + later.duration
                for q in later.qubits:
                    ends[q] = end
        delta[g.id] = max(ends.values())
    return delta
