import json

import pytest

from qmproute.circuit import parse_circuit
from qmproute.hardware import HardwareGraph, parse_topology
from qmproute.oracle import (CapExhausted, OracleConfig, exhaustive_solve,
                             oracle_fixpoint)
from qmproute.schedule import validate


class TestExhaustiveSolve:
    def test_example_depth(self, example_circuit, linear4):
        r = exhaustive_solve(example_circuit, linear4,
                             OracleConfig(max_swaps=2, objective="depth"))
        assert r.value == 4

    def test_example_swaps(self, example_circuit, linear4):
        r = exhaustive_solve(example_circuit, linear4,
                             OracleConfig(max_swaps=2, objective="swaps"))
        assert r.value == 0

    def test_single_gate(self, linear4):
        c = parse_circuit(json.dumps({"num_qubits": 2,
                                      "gates": [{"q": [1, 2], "d": 7}]}))
        r = exhaustive_solve(c, linear4, OracleConfig(max_swaps=0))
        assert r.value == 7

    def test_witness_validates(self, example_circuit, linear4):
        r = exhaustive_solve(example_circuit, linear4,
                             OracleConfig(max_swaps=2, objective="depth"))
        assert validate(r.schedule, example_circuit, linear4).ok

    def test_cap_exhaustion_reported(self, linear4):
        # Two crossing gates on a line need at least one SWAP.
        c = parse_circuit(json.dumps({"num_qubits": 4, "gates": [
            {"q": [1, 2], "d": 4}, {"q": [3, 4], "d": 4},
            {"q": [1, 3], "d": 4}, {"q": [2, 4], "d": 4}]}))
        with pytest.raises(CapExhausted):
            exhaustive_solve(c, linear4, OracleConfig(max_swaps=0))

    def test_automorphism_invariance(self, example_circuit):
        forward = parse_topology("linear:4")
        reversed_line = HardwareGraph(4, [(4, 3), (3, 2), (2, 1)])
        a = exhaustive_solve(example_circuit, forward,
                             OracleConfig(max_swaps=2, objective="depth"))
        b = exhaustive_solve(example_circuit, reversed_line,
                             OracleConfig(max_swaps=2, objective="depth"))
        assert a.value == b.value


class TestOracleConfig:
    @pytest.mark.parametrize("change", [
        {"max_swaps": -1}, {"swap_duration": -5}, {"objective": "makespan"},
    ], ids=["negative-max-swaps", "negative-swap-duration", "unknown-objective"])
    def test_rejects_nonsense(self, change):
        with pytest.raises(ValueError):
            OracleConfig(**{"max_swaps": 2, **change})


class TestFixpoint:
    def test_stabilizes(self, example_circuit, linear4):
        r = oracle_fixpoint(example_circuit, linear4, "depth")
        assert r.value == 4

    def test_needs_swaps(self, linear4):
        c = parse_circuit(json.dumps({"num_qubits": 4, "gates": [
            {"q": [1, 2], "d": 4}, {"q": [3, 4], "d": 4},
            {"q": [1, 3], "d": 4}, {"q": [2, 4], "d": 4}]}))
        r = oracle_fixpoint(c, linear4, "swaps")
        assert r.value >= 1
        assert validate(r.schedule, c, linear4).ok
