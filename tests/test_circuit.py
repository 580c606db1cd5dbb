import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmproute.bench import InstanceSpec, gen_random_circuit
from qmproute.circuit import (Circuit, CircuitError, GateSpec, analyze, minimal_unscheduled,
                              parse_circuit)

from conftest import UNDECODABLE, gate_positions, qubit_gates, reference_delta


def make_circuit(n, gate_list):
    return parse_circuit(json.dumps({
        "num_qubits": n,
        "gates": [{"q": [p, q], "d": d} for (p, q, d) in gate_list],
    }))


class TestParse:
    def test_example_circuit(self, example_circuit):
        assert example_circuit.num_virtual_qubits == 4
        assert [g.qubits for g in example_circuit.gates] == [(1, 2), (3, 4), (4, 1)]
        assert [g.duration for g in example_circuit.gates] == [2, 3, 1]

    def test_empty_circuit(self):
        c = parse_circuit(json.dumps({"num_qubits": 2, "gates": []}))
        assert c.num_gates == 0

    def test_degenerate_gate(self):
        with pytest.raises(CircuitError, match="degenerate"):
            make_circuit(2, [(1, 1, 4)])

    def test_default_duration(self):
        c = parse_circuit(json.dumps({"num_qubits": 2, "gates": [{"q": [1, 2]}]}))
        assert c.gates[0].duration == 4

    def test_qubit_out_of_range(self):
        with pytest.raises(CircuitError, match="out of range"):
            make_circuit(2, [(1, 3, 4)])

    def test_negative_duration(self):
        with pytest.raises(CircuitError, match="negative"):
            make_circuit(2, [(1, 2, -1)])

    def test_unknown_field_rejected(self):
        with pytest.raises(CircuitError, match="unknown"):
            parse_circuit(json.dumps({"num_qubits": 2, "gates": [], "extra": 1}))

    def test_gates_not_an_array(self):
        with pytest.raises(CircuitError, match="gates must be an array"):
            parse_circuit(json.dumps({"num_qubits": 2, "gates": {}}))

    def test_gate_ids_in_order(self):
        # A Circuit built directly, as the generator and tests build one.
        with pytest.raises(CircuitError, match="gate ids must be 1..N in order, got 2 at 1"):
            Circuit(2, (GateSpec(2, (1, 2), 4),))

    def test_malformed_json(self):
        with pytest.raises(CircuitError, match="malformed"):
            parse_circuit("{not json")

    @UNDECODABLE
    def test_undecodable_json(self, text):
        with pytest.raises(CircuitError, match="malformed circuit file"):
            parse_circuit(text)

    @pytest.mark.parametrize("data, match", [
        ({"num_qubits": 2, "gates": [{"q": [1, 2], "d": True}]}, "duration must be an integer"),
        ({"num_qubits": 2, "gates": [{"q": [True, 2]}]}, "pair of integers"),
        ({"num_qubits": True, "gates": []}, "num_qubits"),
    ], ids=["duration", "qubit", "num_qubits"])
    def test_boolean_rejected(self, data, match):
        # JSON true is a Python bool, an int subclass: it must not read as 1.
        with pytest.raises(CircuitError, match=match):
            parse_circuit(json.dumps(data))


def deltas(info, circuit):
    """Gate id -> delta as `info.delta` holds it."""
    return {g.id: info.delta[g.id] for g in circuit.gates}


def gate_sequences(info):
    """Qubit -> the ids of its gates in order, from the gate list `info`
    keeps."""
    result = {}
    for g in info.gates:
        for q in g.qubits:
            result.setdefault(q, []).append(g.id)
    return result


class TestAnalyze:
    def test_example_delta(self, example_circuit):
        info = analyze(example_circuit)
        assert deltas(info, example_circuit) == {1: 3, 2: 4, 3: 1}

    def test_example_per_qubit(self, example_circuit):
        info = analyze(example_circuit)
        assert gate_sequences(info)[1] == [1, 3]
        assert gate_sequences(info)[4] == [2, 3]

    def test_example_layers(self, example_circuit):
        info = analyze(example_circuit)
        assert info.layer[1:] == [0, 0, 1]

    def test_single_gate(self):
        c = make_circuit(2, [(1, 2, 5)])
        info = analyze(c)
        assert deltas(info, c) == {1: 5}
        assert info.layer[1] == 0


def remaining_time(info, q, i):
    """Total duration of gates on qubit q from gate i (inclusive) onward,
    from the gate list `info` keeps."""
    return sum(g.duration for g in info.gates[i - 1:] if q in g.qubits)


def immediate_preds(circuit):
    """Gate id -> the gates just before it on each of its qubits."""
    seq = qubit_gates(circuit)
    return {i: {seq[q][k - 1] for q, k in at.items() if k}
            for i, at in gate_positions(circuit).items()}


class TestRemainingTime:
    def test_example_values(self, example_circuit):
        info = analyze(example_circuit)
        assert remaining_time(info, 1, 1) == 3   # g1 (d=2) + g3 (d=1)
        assert remaining_time(info, 4, 3) == 1   # only g3
        assert remaining_time(info, 4, 2) == 4   # g2 + g3
        assert remaining_time(info, 1, 3) == 1   # only g3

    def test_last_gate_singleton(self):
        c = make_circuit(2, [(1, 2, 7)])
        assert remaining_time(analyze(c), 1, 1) == 7

    def test_gate_not_on_qubit(self, example_circuit):
        info = analyze(example_circuit)
        # g1 acts on qubits 1 and 2 only, g3 on 4 and 1.
        assert gate_sequences(info) == {1: [1, 3], 2: [1], 3: [2], 4: [2, 3]}

    def test_immediate_preds(self, example_circuit):
        assert immediate_preds(example_circuit) == {1: set(), 2: set(), 3: {1, 2}}


class TestMinimalUnscheduled:
    """One pass gives the row the search reads: the minimal gates, each as
    (gate id, p, q, duration, progress after it), each qubit's head (delta
    of its next gate), one row (p, q, delta[first], work_p, work_q) per pair
    of placed qubits (progress > 0) with a gate still to run, the holes,
    the placed qubits with a gate still to run with an unplaced one, and one
    row (p, delta[first], work_p, work_q) per such pair, p the placed qubit.
    A progress vector is a tuple or `bytes`, as the search packs it, and each
    move's progress after it has the same type."""

    def test_root_frontier(self, example_circuit):
        # Every pair has a gate still to run, (1, 2, 3, 0, 0), (3, 4, 4, 0,
        # 0) and (4, 1, 1, 3, 2), but no qubit is placed: no pair row, no
        # hole and no hole pair.
        info = analyze(example_circuit)
        for pack in (tuple, bytes):
            assert minimal_unscheduled(info, pack((0, 0, 0, 0, 0)), False) == (
                ((1, 1, 2, 2, pack((0, 1, 1, 0, 0))), (2, 3, 4, 3, pack((0, 0, 0, 1, 1)))),
                (0, 3, 3, 4, 4), (), (), ())

    def test_after_g1(self, example_circuit):
        # Qubits 1 and 2 are placed.  (3, 4) has no placed qubit, and
        # (4, 1) makes 1 a hole: its hole pair is (1, delta[g3] = 1, no work
        # left on 1 before g3, g2's 3 on 4).
        info = analyze(example_circuit)
        for pack in (tuple, bytes):
            assert minimal_unscheduled(info, pack((0, 1, 1, 0, 0)), False) == (
                ((2, 3, 4, 3, pack((0, 1, 1, 1, 1))),), (0, 1, 0, 4, 4), (), (1,), ((1, 1, 0, 3),))

    def test_after_g1_g2(self, example_circuit):
        info = analyze(example_circuit)
        for pack in (tuple, bytes):
            assert minimal_unscheduled(info, pack((0, 1, 1, 1, 1)), False) == (
                ((3, 4, 1, 1, pack((0, 2, 1, 1, 2))),), (0, 1, 0, 0, 1), ((4, 1, 1, 0, 0),), (),
                ())

    def test_all_scheduled(self, example_circuit):
        info = analyze(example_circuit)
        assert minimal_unscheduled(info, (0, 2, 1, 1, 2), False) == ((), (0, 0, 0, 0, 0), (), (), ())

    def test_layered_keeps_the_lowest_layer(self):
        # After g1, g2 (layer 1, after g1) and g3 (layer 0) are both
        # minimal; the layered row keeps g3 alone, and its heads, pairs,
        # holes and hole pairs are the plain row's.  The pairs with a gate
        # still to run are (2, 3, 3, 0, 0) and (4, 5, 1, 0, 0); only 1 and 2
        # are placed, so neither is a pair row, 2 is a hole, and (2, 3)
        # gives the hole pair row (2, delta[g2] = 3, 0, 0).
        info = analyze(make_circuit(5, [(1, 2, 2), (2, 3, 3), (4, 5, 1)]))
        assert info.layer[1:] == [0, 1, 0]
        heads, pairs, holes = (0, 0, 3, 3, 1, 1), (), (2,)
        hole_pairs = ((2, 3, 0, 0),)
        for pack in (tuple, bytes):
            g2 = (2, 2, 3, 3, pack((0, 1, 2, 1, 0, 0)))
            g3 = (3, 4, 5, 1, pack((0, 1, 1, 0, 1, 1)))
            progress = pack((0, 1, 1, 0, 0, 0))
            assert minimal_unscheduled(info, progress, False) == ((g2, g3), heads, pairs, holes,
                                                                  hole_pairs)
            assert minimal_unscheduled(info, progress, True) == ((g3,), heads, pairs, holes,
                                                                 hole_pairs)
        # Once g3 has run, 4 and 5 are placed and (4, 5) has no gate left.
        progress = (0, 1, 1, 0, 1, 1)
        assert minimal_unscheduled(info, progress, False)[2:] == ((), (2,), hole_pairs)


def random_small_circuit(rng, n_qubits, n_gates):
    gates = []
    for _ in range(n_gates):
        p, q = rng.sample(range(1, n_qubits + 1), 2)
        gates.append((p, q, rng.randint(1, 6)))
    return make_circuit(n_qubits, gates)


def brute_force_makespan(circuit):
    """Longest path in the precedence DAG (ideal hardware makespan)."""
    best = 0
    ends = {}
    for g in circuit.gates:
        start = 0
        for q in g.qubits:
            start = max(start, ends.get(q, 0))
        end = start + g.duration
        for q in g.qubits:
            ends[q] = end
        best = max(best, end)
    return best


gate_lists = st.lists(
    st.tuples(st.sampled_from(list(itertools.permutations(range(1, 5), 2))),
              st.integers(min_value=0, max_value=8)),
    min_size=0, max_size=10)


class TestHypothesisProperties:
    @given(gate_lists)
    @settings(max_examples=80, deadline=None)
    def test_delta_dominates_every_schedule_tail(self, raw):
        c = make_circuit(4, [(p, q, d) for ((p, q), d) in raw])
        info = analyze(c)
        delta = deltas(info, c)
        assert all(delta[g.id] >= g.duration for g in c.gates)
        for j, preds in immediate_preds(c).items():
            for i in preds:
                assert delta[i] >= delta[j] + c.gates[i - 1].duration
                assert info.layer[j] >= info.layer[i] + 1

    @given(gate_lists)
    @settings(max_examples=80, deadline=None)
    def test_ideal_makespan_matches_longest_path(self, raw):
        c = make_circuit(4, [(p, q, d) for ((p, q), d) in raw])
        delta = deltas(analyze(c), c)
        preds = immediate_preds(c)
        roots = [g.id for g in c.gates if not preds[g.id]]
        assert max((delta[i] for i in roots), default=0) == brute_force_makespan(c)


class TestSearchTables:
    @given(gate_lists)
    @settings(max_examples=80, deadline=None)
    def test_tables_match_their_definitions(self, raw):
        c = make_circuit(4, [(p, q, d) for ((p, q), d) in raw])
        info = analyze(c)
        delta, preds = reference_delta(c), immediate_preds(c)
        assert info.gates == c.gates
        assert len(info.layer) == len(info.delta) == c.num_gates + 1
        for g in c.gates:
            assert info.layer[g.id] == max((info.layer[i] + 1 for i in preds[g.id]), default=0)
            assert info.delta[g.id] == delta[g.id]

    def test_analysis_memory_is_linear_in_the_gates(self):
        # Two lists by gate id, and the circuit's own gate tuple: a
        # 10,000-gate circuit on 100 qubits needs well under 2 MB.
        c = gen_random_circuit(InstanceSpec("grid:10x10", 100, 10000, 0))
        tracemalloc.start()
        try:
            info = analyze(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.gates is c.gates
        assert peak < 2_000_000


class TestProperties:
    def test_delta_bounds_and_successor_consistency(self):
        rng = random.Random(1)
        for _ in range(30):
            c = random_small_circuit(rng, 4, rng.randint(1, 8))
            delta = deltas(analyze(c), c)
            for g in c.gates:
                assert delta[g.id] >= g.duration
            for j, preds in immediate_preds(c).items():
                for i in preds:
                    assert delta[i] >= delta[j] + c.gates[i - 1].duration

    def test_longest_path_consistency(self):
        rng = random.Random(2)
        for _ in range(30):
            c = random_small_circuit(rng, 4, rng.randint(1, 8))
            delta = deltas(analyze(c), c)
            preds = immediate_preds(c)
            roots = [g.id for g in c.gates if not preds[g.id]]
            assert max((delta[i] for i in roots), default=0) == brute_force_makespan(c)

    def test_layer_monotonicity(self):
        rng = random.Random(3)
        for _ in range(30):
            c = random_small_circuit(rng, 5, rng.randint(1, 8))
            info = analyze(c)
            for j, preds in immediate_preds(c).items():
                for i in preds:
                    assert info.layer[j] >= info.layer[i] + 1

    def test_minimal_unscheduled_downward_closed(self):
        rng = random.Random(4)
        for _ in range(20):
            c = random_small_circuit(rng, 4, rng.randint(1, 6))
            info = analyze(c)
            preds = immediate_preds(c)
            # Schedule greedily through minimal gates in every DFS order,
            # checking the scheduled set stays downward-closed and each
            # move names its gate and the progress after it, of the type
            # (tuple or bytes) of the progress before it.
            def explore(progress, scheduled):
                moves = minimal_unscheduled(info, progress, False)[0]
                for i, p, q, d, after in moves:
                    assert preds[i] <= scheduled
                    assert ((p, q), d) == (c.gates[i - 1].qubits, c.gates[i - 1].duration)
                    np_ = list(progress)
                    np_[p] += 1
                    np_[q] += 1
                    assert after == type(progress)(np_)
                # The layered moves are the plain ones of the lowest layer.
                low = min((info.layer[m[0]] for m in moves), default=None)
                assert minimal_unscheduled(info, progress, True)[0] == tuple(
                    m for m in moves if info.layer[m[0]] == low)
                for i, p, q, d, after in moves[:2]:
                    explore(after, scheduled | {i})
            explore((0,) * 5, set())
            explore(bytes(5), set())
