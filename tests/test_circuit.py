import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmproute.circuit import CircuitError, analyze, minimal_unscheduled, parse_circuit

from conftest import gate_positions, qubit_gates, reference_delta


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

    def test_malformed_json(self):
        with pytest.raises(CircuitError, match="malformed"):
            parse_circuit("{not json")

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
    """Gate id -> delta as `head` holds it, the same on both of the gate's
    qubits."""
    result = {}
    for i, at in gate_positions(circuit).items():
        (result[i],) = {info.head[q][k] for q, k in at.items()}
    return result


def gate_sequences(info):
    """Qubit -> the ids of its gates in order, as `ready` lists them."""
    return {q: [entry[0] for entry in row[:-1]] for q, row in enumerate(info.ready) if q}


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


def remaining_time(info, circuit, q, i):
    """Total duration of gates on qubit q from gate i (inclusive) onward."""
    return info.tail_sums[q][gate_positions(circuit)[i][q]]


def immediate_preds(circuit):
    """Gate id -> the gates just before it on each of its qubits."""
    seq = qubit_gates(circuit)
    return {i: {seq[q][k - 1] for q, k in at.items() if k}
            for i, at in gate_positions(circuit).items()}


class TestRemainingTime:
    def test_example_values(self, example_circuit):
        info = analyze(example_circuit)
        assert remaining_time(info, example_circuit, 1, 1) == 3   # g1 (d=2) + g3 (d=1)
        assert remaining_time(info, example_circuit, 4, 3) == 1   # only g3
        assert remaining_time(info, example_circuit, 4, 2) == 4   # g2 + g3
        assert info.tail_sums[1] == [3, 1, 0]

    def test_last_gate_singleton(self):
        c = make_circuit(2, [(1, 2, 7)])
        assert remaining_time(analyze(c), c, 1, 1) == 7

    def test_gate_not_on_qubit(self, example_circuit):
        info = analyze(example_circuit)
        # g1 acts on qubits 1 and 2 only, g3 on 4 and 1, each at position 1.
        assert gate_sequences(info) == {1: [1, 3], 2: [1], 3: [2], 4: [2, 3]}
        assert info.ready[1][0] == (1, 2, 0) and info.ready[2][0] == (1, 1, 0)
        assert info.ready[4][1] == (3, 1, 1) and info.ready[1][1] == (3, 4, 1)

    def test_immediate_preds(self, example_circuit):
        assert immediate_preds(example_circuit) == {1: set(), 2: set(), 3: {1, 2}}


class TestMinimalUnscheduled:
    def test_root_frontier(self, example_circuit):
        info = analyze(example_circuit)
        assert minimal_unscheduled(info, {1: 0, 2: 0, 3: 0, 4: 0}) == [1, 2]

    def test_after_g1_g2(self, example_circuit):
        info = analyze(example_circuit)
        assert minimal_unscheduled(info, {1: 1, 2: 1, 3: 1, 4: 1}) == [3]

    def test_all_scheduled(self, example_circuit):
        info = analyze(example_circuit)
        assert minimal_unscheduled(info, {1: 2, 2: 1, 3: 1, 4: 2}) == []


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
        delta, pos, preds = reference_delta(c), gate_positions(c), immediate_preds(c)
        assert len(info.layer) == c.num_gates + 1
        for g in c.gates:
            assert info.layer[g.id] == max((info.layer[i] + 1 for i in preds[g.id]), default=0)
        first_qubit = {}                # unordered pair -> its first gate's first qubit
        for g in c.gates:
            first_qubit.setdefault(frozenset(g.qubits), g.qubits[0])
        assert len(info.head) == len(info.ready) == len(info.live) == len(info.tail_sums) == 5
        for q, ids in qubit_gates(c).items():
            assert len(info.head[q]) == len(info.ready[q]) == len(info.live[q]) == len(ids) + 1
            assert info.head[q][-1] == 0 and info.ready[q][-1] is None
            assert info.live[q][-1] == []
            assert info.tail_sums[q] == [sum(c.gates[i - 1].duration for i in ids[k:])
                                         for k in range(len(ids) + 1)]
            for k, i in enumerate(ids):
                (r,) = set(c.gates[i - 1].qubits) - {q}
                assert info.head[q][k] == delta[i]
                assert info.ready[q][k] == (i, r, pos[i][r])
            for k in range(len(ids) + 1):
                expected = []
                for pair, p in first_qubit.items():
                    if p != q:
                        continue
                    (r,) = pair - {q}
                    later = [i for i in ids[k:] if r in c.gates[i - 1].qubits]
                    if later:
                        first = later[0]
                        expected.append((r, delta[first], pos[first][q], pos[first][r]))
                assert sorted(info.live[q][k]) == sorted(expected)


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
            # checking the scheduled set stays downward-closed.
            def explore(progress, scheduled):
                frontier = minimal_unscheduled(info, progress)
                for i in frontier:
                    assert preds[i] <= scheduled
                for i in frontier[:2]:
                    p, q = c.gates[i - 1].qubits
                    np_ = dict(progress)
                    np_[p] += 1
                    np_[q] += 1
                    explore(np_, scheduled | {i})
            explore({q: 0 for q in range(1, 5)}, set())
