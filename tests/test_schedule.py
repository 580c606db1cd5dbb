import json

import pytest

from qmproute.circuit import parse_circuit
from qmproute.hardware import parse_topology
from qmproute.schedule import (SWAP, Schedule, ScheduledOp, ScheduleError,
                               compute_metrics, parse_schedule, schedule_to_json,
                               validate)


def parse_circuit_json(n, gate_list):
    return parse_circuit(json.dumps({
        "num_qubits": n,
        "gates": [{"q": q, "d": d} for (q, d) in gate_list],
    }))


def sched(ops, swap_duration=6):
    return Schedule(ops=tuple(ops), swap_duration=swap_duration)


def gate_op(circuit, gate_id, edge, start):
    return ScheduledOp(kind=gate_id, edge=edge, start=start,
                       duration=circuit.gates[gate_id - 1].duration)


def swap_op(edge, start, d=6):
    return ScheduledOp(kind=SWAP, edge=edge, start=start, duration=d)


@pytest.fixture
def s3(example_circuit):
    c = example_circuit
    return sched([gate_op(c, 1, (1, 2), 0), gate_op(c, 2, (3, 4), 0),
                  swap_op((1, 2), 2), swap_op((2, 3), 8),
                  gate_op(c, 3, (3, 4), 14)])


class TestValidate:
    def test_s1_assignment_violation(self, example_circuit, linear4):
        c = example_circuit
        s = sched([gate_op(c, 1, (1, 2), 0), gate_op(c, 2, (3, 4), 0),
                   gate_op(c, 3, (4, 1), 3)])
        r = validate(s, c, linear4)
        assert not r.ok
        assert r.violation.category == "assignment"

    def test_s2_routing_violation(self, example_circuit, linear4):
        c = example_circuit
        s = sched([gate_op(c, 1, (1, 2), 0), gate_op(c, 2, (3, 4), 0),
                   gate_op(c, 3, (3, 4), 3)])
        r = validate(s, c, linear4)
        assert not r.ok
        assert r.violation.category == "routing"

    def test_s3_feasible(self, example_circuit, linear4, s3):
        r = validate(s3, example_circuit, linear4)
        assert r.ok
        assert r.initial_assignment == {1: 1, 2: 2, 3: 3, 4: 4}

    def test_s4_corrected_zero_swap(self, example_circuit, linear4):
        # Orientation-reversed placements allow a zero-SWAP schedule with
        # makespan 4 on the linear graph.
        c = example_circuit
        s = sched([gate_op(c, 1, (2, 1), 0), gate_op(c, 2, (4, 3), 0),
                   gate_op(c, 3, (3, 2), 3)])
        r = validate(s, c, linear4)
        assert r.ok
        m = compute_metrics(s)
        assert m.depth == 4
        assert m.swaps == 0

    def test_precedence_violation(self, example_circuit, linear4):
        c = example_circuit
        s = sched([gate_op(c, 1, (2, 1), 0), gate_op(c, 2, (4, 3), 0),
                   gate_op(c, 3, (3, 2), 2)])   # g3 before g2 ends at 3
        r = validate(s, c, linear4)
        assert not r.ok
        assert r.violation.category in ("precedence", "overlap")

    def test_overlap_violation(self, example_circuit, linear4):
        c = example_circuit
        # Same routing as S3 but g3 starts one unit before the second SWAP
        # releases node 3.
        s = sched([gate_op(c, 1, (1, 2), 0), gate_op(c, 2, (3, 4), 0),
                   swap_op((1, 2), 2), swap_op((2, 3), 8),
                   gate_op(c, 3, (3, 4), 13)])
        r = validate(s, c, linear4)
        assert not r.ok
        assert r.violation.category == "overlap"

    def test_unsorted_ops_are_an_order_violation(self, example_circuit, linear4, s3):
        ops = list(s3.ops)
        ops[3], ops[4] = ops[4], ops[3]   # g3 at 14 listed before the SWAP at 8
        r = validate(sched(ops), example_circuit, linear4)
        assert not r.ok
        assert r.violation.category == "order"
        assert r.violation.op_index == 4
        assert "op 4 starts at 8, before op 3 at 14" in r.violation.message

    def test_missing_gate(self, example_circuit, linear4):
        c = example_circuit
        s = sched([gate_op(c, 1, (1, 2), 0)])
        r = validate(s, c, linear4)
        assert not r.ok
        assert r.violation.category == "routing"

    def test_zero_duration_gate_is_a_duration_violation(self):
        # Two 4-unit gates given no time at all must not yield makespan 0.
        c = parse_circuit_json(2, [([1, 2], 4), ([1, 2], 4)])
        s = sched([ScheduledOp(1, (1, 2), 0, 0), ScheduledOp(2, (1, 2), 0, 0)])
        r = validate(s, c, parse_topology("linear:2"))
        assert not r.ok
        assert r.violation.category == "duration" and r.violation.op_index == 0
        assert "gate 1 lasts 0, not its duration 4" in r.violation.message

    def test_swap_not_lasting_swap_duration_is_a_duration_violation(
            self, example_circuit, linear4, s3):
        ops = list(s3.ops)
        ops[2] = swap_op((1, 2), 2, d=5)        # the schedule's swap_duration is 6
        r = validate(sched(ops), example_circuit, linear4)
        assert not r.ok
        assert r.violation.category == "duration" and r.violation.op_index == 2
        assert "SWAP lasts 5, not the swap duration 6" in r.violation.message

    def test_late_binding_traces_initial_position(self, linear4):
        # Virtual 3 first appears on node 2 after a SWAP routed through it;
        # its initial position must be back-traced to node 3.
        c = parse_circuit_json(3, [([1, 2], 2), ([2, 3], 2)])
        s = sched([ScheduledOp(1, (1, 2), 0, 2), swap_op((2, 3), 2),
                   ScheduledOp(2, (3, 2), 8, 2)])
        r = validate(s, c, linear4)
        assert r.ok
        assert r.initial_assignment == {1: 1, 2: 2, 3: 3}
        assert len(set(r.initial_assignment.values())) == len(r.initial_assignment)

    def test_final_assignment_injective(self, example_circuit, linear4, s3):
        r = validate(s3, example_circuit, linear4)
        assert r.ok
        pos = dict(r.initial_assignment)
        for op in s3.ops:
            if op.is_swap:
                v, w = op.edge
                at_v = [q for q, n in pos.items() if n == v]
                at_w = [q for q, n in pos.items() if n == w]
                for q in at_v:
                    pos[q] = w
                for q in at_w:
                    pos[q] = v
        assert len(set(pos.values())) == len(pos)


class TestMetrics:
    def test_s3_metrics(self, s3):
        m = compute_metrics(s3)
        assert m.depth == 15
        assert m.swaps == 2
        assert m.unweighted_depth == 4

    def test_empty(self):
        m = compute_metrics(sched([]))
        assert (m.depth, m.swaps, m.unweighted_depth) == (0, 0, 0)

    def test_single_gate(self, example_circuit):
        s = sched([ScheduledOp(kind=1, edge=(1, 2), start=0, duration=4)])
        m = compute_metrics(s)
        assert (m.depth, m.swaps, m.unweighted_depth) == (4, 0, 1)


class TestScheduleFile:
    def test_roundtrip(self, example_circuit, s3):
        text = schedule_to_json(s3)
        back = parse_schedule(text, example_circuit)
        assert back == s3

    def test_durations_recovered(self, example_circuit):
        text = json.dumps({"swap_duration": 6,
                           "ops": [{"gate": 2, "edge": [3, 4], "t": 0},
                                   {"gate": 0, "edge": [1, 2], "t": 0}]})
        s = parse_schedule(text, example_circuit)
        assert s.ops[0].duration == 3
        assert s.ops[1].duration == 6

    @pytest.mark.parametrize("t", [None, -2, 0.5, True, "0"])
    def test_bad_start_time(self, example_circuit, t):
        op = {"gate": 1, "edge": [1, 2]}
        if t is not None:
            op["t"] = t
        text = json.dumps({"swap_duration": 6, "ops": [op]})
        match = "missing field 't'" if t is None else "'t' must be a nonnegative integer"
        with pytest.raises(ScheduleError, match=f"op 0: {match}"):
            parse_schedule(text, example_circuit)

    @pytest.mark.parametrize("op, match", [
        ({"gate": "x", "edge": [1, 2], "t": 0}, "'gate' must be an integer"),
        ({"gate": True, "edge": [1, 2], "t": 0}, "'gate' must be an integer"),
        ({"gate": 1, "edge": 5, "t": 0}, "'edge' must be a list of two integers"),
        ({"gate": 1, "edge": ["a", 2], "t": 0}, "'edge' must be a list of two integers"),
        ({"gate": 1, "edge": [1, 2, 3], "t": 0}, "'edge' must be a list of two integers"),
        (7, "must be a JSON object"),
    ], ids=["gate-str", "gate-bool", "edge-int", "edge-str-endpoint", "edge-three",
            "op-not-object"])
    def test_bad_op(self, example_circuit, op, match):
        text = json.dumps({"swap_duration": 6, "ops": [op]})
        with pytest.raises(ScheduleError, match=f"op 0: {match}"):
            parse_schedule(text, example_circuit)

    @pytest.mark.parametrize("swap_duration", [None, "x", -5, 1.5, True])
    def test_bad_swap_duration(self, example_circuit, swap_duration):
        text = json.dumps({"swap_duration": swap_duration,
                           "ops": [{"gate": 0, "edge": [1, 2], "t": 0},
                                   {"gate": 1, "edge": [1, 2], "t": 6}]})
        with pytest.raises(ScheduleError, match="'swap_duration' must be a nonnegative integer"):
            parse_schedule(text, example_circuit)

    def test_ops_not_a_list(self, example_circuit):
        text = json.dumps({"swap_duration": 6, "ops": {"gate": 1}})
        with pytest.raises(ScheduleError, match="'ops' must be a list"):
            parse_schedule(text, example_circuit)
