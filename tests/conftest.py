import json

import pytest

from qmproute.bench import InstanceSpec, gen_random_circuit
from qmproute.circuit import parse_circuit
from qmproute.hardware import parse_topology


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
