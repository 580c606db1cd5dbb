import gc
import json
import operator
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmproute import hardware, solver
from qmproute.bench import InstanceSpec, gen_random_circuit
from qmproute.circuit import Circuit, GateSpec, minimal_unscheduled, parse_circuit
from qmproute.hardware import HardwareGraph, parse_topology
from qmproute.oracle import OracleConfig, exhaustive_solve, oracle_fixpoint
from qmproute.schedule import SWAP, ScheduledOp, compute_metrics, validate
from qmproute.solver import (SolveStats, SolverConfig, SolverError, _Front,
                             _result, _run, _Search, bound_depth, bound_swaps, solve)

from conftest import gate_positions, qubit_gates, reference_delta, tiny_instances


def depth_config(**kw):
    return SolverConfig(w_depth=1, w_swaps=0, **kw)


def swaps_config(**kw):
    return SolverConfig(w_depth=0, w_swaps=1, **kw)


def combined_config(**kw):
    return SolverConfig(w_depth=1, w_swaps=10, **kw)


CONFIGS = {"depth": depth_config, "swaps": swaps_config, "combined": combined_config}


def reference_bound_depth(node, circuit, graph, swap_duration):
    """bound_depth as first written, the reference for the fast version: it
    rescans each pair's gates for the first unscheduled one and builds every
    term of the repositioning maximum, O(|path|^2) per path.  Every circuit
    fact it needs comes from the gate list, not from `analyze`."""
    gates, delta, pos = circuit.gates, reference_delta(circuit), gate_positions(circuit)
    per_qubit = qubit_gates(circuit)

    def work(q, k_from, k_to):          # q's gate durations from position k_from to k_to
        return sum(gates[i - 1].duration for i in per_qubit[q][k_from:k_to])

    pair_gates = {}
    for g in gates:
        pair_gates.setdefault(frozenset(g.qubits), []).append(g.id)
    h_q = 0
    for q in range(1, circuit.num_virtual_qubits + 1):
        a = node.assignment[q]
        dq = node.depth_map[a] if a else 0
        seq = per_qubit[q]
        frontier = node.progress[q]
        if frontier < len(seq):
            dq += delta[seq[frontier]]
        h_q = max(h_q, dq)

    d_s = swap_duration
    h_g = 0
    for ids in pair_gates.values():
        first = None
        for i in ids:
            g = gates[i - 1]
            if pos[i][g.qubits[0]] >= node.progress[g.qubits[0]]:
                first = i
                break
        if first is None:
            continue
        p, q = gates[first - 1].qubits
        ap, aq = node.assignment[p], node.assignment[q]
        if not ap or not aq:
            continue
        dqp = node.depth_map[ap]
        dqq = node.depth_map[aq]
        lam_p = work(p, node.progress[p], pos[first][p])
        lam_q = work(q, node.progress[q], pos[first][q])
        paths = graph.minimal_paths(ap, aq)
        if paths is None:
            continue
        best = None
        for path in paths:
            n_pi = len(path)
            for j in range(1, n_pi):
                terms = [dqp + lam_p + (j - 1) * d_s,
                         dqq + lam_q + (n_pi - j - 1) * d_s]
                for k in range(2, j + 1):
                    terms.append(node.depth_map[path[k - 1]] + (j + 1 - k) * d_s)
                for k in range(j + 1, n_pi):
                    terms.append(node.depth_map[path[k - 1]] + (k - j) * d_s)
                h = max(terms)
                if best is None or h < best:
                    best = h
        if best is not None:
            h_g = max(h_g, delta[first] + best)
    return max(h_q, h_g)


def reference_minimal_unscheduled(circuit, progress):
    """minimal_unscheduled by its definition, O(gates): the gates that are
    the next unscheduled gate on both of their qubits, in circuit order."""
    pos = gate_positions(circuit)
    return [g.id for g in circuit.gates
            if all(pos[g.id][q] == progress[q] for q in g.qubits)]


def reference_bound_swaps(node, circuit, graph):
    """bound_swaps as a scan over qubit pairs: the SWAPs so far plus the
    largest distance less one over placed pairs with a gate still to run."""
    pos = gate_positions(circuit)
    pair_gates = {}
    for g in circuit.gates:
        pair_gates.setdefault(frozenset(g.qubits), []).append(g)
    worst = 0
    for gates in pair_gates.values():
        p, q = gates[0].qubits
        if pos[gates[-1].id][p] < node.progress[p]:
            continue    # every gate of the pair already scheduled
        ap, aq = node.assignment[p], node.assignment[q]
        if ap and aq:
            worst = max(worst, graph.dist[ap][aq] - 1)
    return node.swap_count + worst


@st.composite
def connected_graphs(draw, max_nodes=6):
    """A random spanning tree on 4 to `max_nodes` nodes plus random extra
    edges."""
    n = draw(st.integers(4, max_nodes))
    edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    pairs = [(v, w) for v in range(1, n + 1) for w in range(v + 1, n + 1)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=4))
    return HardwareGraph(n, edges)


# A path cap of 1 on some draws exercises the pairs the depth bound must skip.
PATH_CAPS = st.sampled_from([1, hardware.MAX_PATHS_PER_PAIR])


def topologies(*specs):
    return st.sampled_from(specs).map(parse_topology)


@st.composite
def instances(draw, max_gates,
              graphs=st.one_of(topologies("linear:5", "grid:2x3", "y:6"), connected_graphs())):
    """(circuit, graph): a random circuit of 2-5 qubits and up to `max_gates`
    gates on a graph drawn from `graphs`, by default a named topology or a
    random connected graph."""
    graph = draw(graphs)
    n = draw(st.integers(2, min(5, graph.num_nodes)))
    qubit_pairs = [(p, q) for p in range(1, n + 1) for q in range(1, n + 1) if p != q]
    gates = draw(st.lists(st.tuples(st.sampled_from(qubit_pairs), st.integers(0, 8)),
                          min_size=1, max_size=max_gates))
    circuit = Circuit(n, tuple(GateSpec(i, pq, d) for i, (pq, d) in enumerate(gates, 1)))
    return circuit, graph


@st.composite
def walks(draw, graphs=None):
    """(search, nodes): a graph (drawn from `graphs` if given), a random
    circuit on it, a search in either mode, and the nodes along one random
    sequence of children from the root."""
    circuit, graph = draw(instances(max_gates=8) if graphs is None
                          else instances(max_gates=8, graphs=graphs))
    search = _Search(circuit, graph, depth_config(swap_duration=draw(st.integers(0, 20)),
                                                  layered=draw(st.booleans())))
    node = search.root()
    nodes = [node]
    for pick in draw(st.lists(st.integers(0, 10 ** 6), max_size=14)):
        children = list(search.gate_children_edges(node))
        children.extend(search.swap_children_edges(node))
        if not children:
            break
        node = search.make_child(node, *children[pick % len(children)])
        nodes.append(node)
    return search, nodes


class TestSolveBasics:
    def test_example_optimum(self, example_circuit, linear4):
        r = solve(example_circuit, linear4, depth_config())
        assert r.status == "optimal"
        assert r.objective_value == 4
        assert r.swap_count == 0
        assert validate(r.schedule, example_circuit, linear4).ok

    def test_single_gate(self, linear4):
        c = parse_circuit(json.dumps({"num_qubits": 2,
                                      "gates": [{"q": [1, 2], "d": 4}]}))
        r = solve(c, linear4, depth_config())
        assert r.objective_value == 4
        assert r.schedule.ops[0].start == 0

    def test_empty_circuit(self, linear4):
        c = parse_circuit(json.dumps({"num_qubits": 2, "gates": []}))
        r = solve(c, linear4, depth_config())
        assert r.objective_value == 0
        assert r.schedule.ops == ()

    def test_negative_swap_duration_rejected(self):
        # A negative SWAP duration would let swapping lower the depth.
        with pytest.raises(SolverError, match="swap duration"):
            depth_config(swap_duration=-5)

    @pytest.mark.parametrize("kw, match", [
        ({"swap_duration": 1.5}, "swap duration"),
        ({"swap_duration": True}, "swap duration"),
        ({"beam_width": 2.5}, "beam width"),
        ({"beam_width": True}, "beam width"),
        ({"layered": 1}, "layered"),
        ({"layered": "yes"}, "layered"),
        ({"time_limit": True}, "time limit"),
        ({"time_limit": "5"}, "time limit"),
        ({"use_pareto": 0}, "use_pareto"),
        ({"w_depth": True}, "w_depth must be an int, a Fraction or a decimal string"),
        ({"w_swaps": 0.1}, "w_swaps must be an int, a Fraction or a decimal string"),
    ], ids=["float-swap-duration", "bool-swap-duration", "float-beam-width",
            "bool-beam-width", "int-layered", "str-layered", "bool-time-limit",
            "str-time-limit", "int-use-pareto", "bool-w-depth", "float-w-swaps"])
    def test_bad_types_rejected(self, kw, match):
        # Not a raw TypeError from a comparison, a bool is not read as 1,
        # and a float weight is not taken at its binary value.
        with pytest.raises(SolverError, match=match):
            SolverConfig(**kw)

    def test_exact_weights_accepted(self):
        config = SolverConfig(w_depth="0.1", w_swaps=Fraction(1, 3), time_limit=5)
        assert (config.w_depth, config.w_swaps) == (Fraction(1, 10), Fraction(1, 3))

    def test_no_schedule_in_time_is_a_timeout(self, example_circuit, linear4):
        # The limit has passed before the root is popped.
        r = solve(example_circuit, linear4, depth_config(time_limit=1e-12))
        assert (r.status, r.schedule, r.objective_value) == ("timeout", None, None)

    def test_too_many_virtual_qubits(self, linear4):
        c = parse_circuit(json.dumps({"num_qubits": 5,
                                      "gates": [{"q": [1, 5], "d": 4}]}))
        with pytest.raises(SolverError):
            solve(c, linear4, depth_config())

    def test_objective_matches_metrics(self, example_circuit, linear4):
        r = solve(example_circuit, linear4, depth_config())
        assert compute_metrics(r.schedule).depth == r.objective_value


class TestExpand:
    def test_root_children(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, depth_config())
        root = search.root()
        gate_children = list(search.gate_children_edges(root))
        # g1 and g2 on all 3 edges, both orientations each.
        assert len(gate_children) == 12
        assert list(search.swap_children_edges(root)) == []

    def test_swap_children_when_occupied(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, depth_config())
        node = search.root()
        node = search.make_child(node, 1, (1, 2))
        node = search.make_child(node, 2, (3, 4))
        swaps = list(search.swap_children_edges(node))
        assert len(swaps) == 3   # every edge has an assigned endpoint

    def executable_node(self, config):
        """A node on linear:4 where gates 3 and 4 can both run in place:
        gate 1 put qubits 1, 2 on nodes 1, 2 and gate 2 qubits 3, 4 on 3, 4."""
        c = parse_circuit(json.dumps({"num_qubits": 4, "gates": [
            {"q": [1, 2]}, {"q": [3, 4]}, {"q": [1, 2]}, {"q": [3, 4]}]}))
        search = _Search(c, parse_topology("linear:4"), config)
        node = search.make_child(search.root(), 1, (1, 2))
        return search, search.make_child(node, 2, (3, 4))

    def test_no_swap_undoes_the_parent_swap(self, example_circuit, linear4):
        for config in (depth_config(), swaps_config(), SolverConfig(w_depth=1, w_swaps=1)):
            search = _Search(example_circuit, linear4, config)
            node = search.make_child(search.root(), 1, (1, 2))
            node = search.make_child(node, SWAP, (2, 3))
            assert (SWAP, (2, 3)) in search.swap_children_edges(node)
            assert search.children(node) == [
                c for c in [*search.gate_children_edges(node),
                            *search.swap_children_edges(node)] if c != (SWAP, (2, 3))]

    def test_swaps_objective_runs_an_executable_gate_alone(self):
        search, node = self.executable_node(swaps_config())
        assert search.children(node) == [(3, (1, 2))]   # the first of gates 3, 4

    @pytest.mark.parametrize("config", [depth_config(), SolverConfig(w_depth=1, w_swaps=1)],
                             ids=["depth", "combined"])
    def test_depth_weight_keeps_every_child(self, config):
        search, node = self.executable_node(config)
        full = [*search.gate_children_edges(node), *search.swap_children_edges(node)]
        assert full == [(3, (1, 2)), (4, (3, 4)),
                        (SWAP, (1, 2)), (SWAP, (2, 3)), (SWAP, (3, 4))]
        assert search.children(node) == full

    @given(walks())
    @settings(max_examples=100, deadline=None)
    def test_children_drop_only_dominated_ones(self, walk):
        # Every objective drops the SWAP that undoes the node's own SWAP;
        # with no depth weight, a gate child on two placed qubits (the
        # first one) is the only child.
        walker, nodes = walk
        kw = {"layered": walker.config.layered, "swap_duration": walker.config.swap_duration}
        for config in (depth_config(**kw), swaps_config(**kw),
                       SolverConfig(w_depth=1, w_swaps=1, **kw)):
            search = _Search(walker.circuit, walker.graph, config)
            for node in nodes:
                gates = list(search.gate_children_edges(node))
                undo = (SWAP, node.edge) if node.gate_index == SWAP else None
                swaps = [c for c in search.swap_children_edges(node) if c != undo]
                placed = [(i, e) for i, e in gates if all(
                    node.assignment[q] for q in search.circuit.gates[i - 1].qubits)]
                if config.w_depth == 0 and placed:
                    assert search.children(node) == placed[:1]
                else:
                    assert search.children(node) == gates + swaps

    def test_layered_filter(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, depth_config(layered=True))
        node = search.root()
        node = search.make_child(node, 1, (1, 2))
        # g2 (layer 0) still unscheduled, so g3 (layer 1) must not appear.
        ids = {i for i, _ in search.gate_children_edges(node)}
        assert 3 not in ids
        assert 2 in ids

    @given(walks())
    @settings(max_examples=150, deadline=None)
    def test_derived_state(self, walk):
        # Occupancy and the layer frontier are derived from a node's
        # assignment and progress; check them against direct definitions.
        search, nodes = walk
        info, graph, config = search.info, search.graph, search.config
        plain = _Search(search.circuit, graph, depth_config(swap_duration=config.swap_duration))
        for node in nodes:
            if config.layered:
                unscheduled = [i for q, seq in qubit_gates(search.circuit).items()
                               for i in seq[node.progress[q]:]]
                low = min((info.layer[i] for i in unscheduled), default=None)
                assert list(search.gate_children_edges(node)) == [
                    (i, e) for i, e in plain.gate_children_edges(node) if info.layer[i] == low]
            placed = {a for a in node.assignment[1:] if a}
            assert [e for _, e in search.swap_children_edges(node)] == [
                (v, w) for v, w in graph.edges if v in placed or w in placed]
            assert len(placed) == sum(1 for a in node.assignment[1:] if a)
            if node.gate_index == SWAP:
                v, w = node.edge
                moved = {v: w, w: v}
                assert node.assignment == tuple(moved.get(a, a) for a in node.parent.assignment)


class TestTryInsert:
    def make_node(self, search, depth_map, swaps=0):
        n = search.root()
        n.depth_map = depth_map
        n.swap_count = swaps
        return n

    def test_equal_dominates(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, depth_config())
        front = _Front(track_depth=True, track_swaps=False)
        stats = SolveStats()
        a = self.make_node(search, (0, 5, 5, 0, 0))
        b = self.make_node(search, (0, 5, 5, 0, 0))
        assert front.try_insert(a, stats)
        assert not front.try_insert(b, stats)
        assert stats.nodes_pruned == 1

    def test_strict_improvement_evicts(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, depth_config())
        front = _Front(track_depth=True, track_swaps=False)
        stats = SolveStats()
        old = self.make_node(search, (0, 5, 5, 0, 0))
        new = self.make_node(search, (0, 4, 5, 0, 0))
        front.try_insert(old, stats)
        assert front.try_insert(new, stats)
        assert old.removed
        assert stats.fronts_replaced == 1

    def test_incomparable_both_retained(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, depth_config())
        front = _Front(track_depth=True, track_swaps=False)
        stats = SolveStats()
        a = self.make_node(search, (0, 4, 6, 0, 0))
        b = self.make_node(search, (0, 5, 5, 0, 0))
        assert front.try_insert(a, stats)
        assert front.try_insert(b, stats)
        assert not a.removed and not b.removed

    def test_swap_dimension(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, SolverConfig(w_depth=1, w_swaps=1))
        front = _Front(track_depth=True, track_swaps=True)
        stats = SolveStats()
        a = self.make_node(search, (0, 5, 5, 0, 0), swaps=1)
        b = self.make_node(search, (0, 4, 4, 0, 0), swaps=2)
        assert front.try_insert(a, stats)
        assert front.try_insert(b, stats)   # better depth, worse swaps
        assert not a.removed

    def test_swaps_only_fewer_swaps_evicts_better_depth(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, swaps_config())
        front = _Front(track_depth=False, track_swaps=True)
        stats = SolveStats()
        old = self.make_node(search, (0, 4, 4, 0, 0), swaps=2)
        new = self.make_node(search, (0, 9, 9, 0, 0), swaps=1)
        assert front.try_insert(old, stats)
        assert front.try_insert(new, stats)   # depth is not weighed
        assert old.removed
        assert stats.fronts_replaced == 1
        assert list(front.store.values()) == [[(None, new)]]

    def test_swaps_only_equal_swaps_prunes_newcomer(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, swaps_config())
        front = _Front(track_depth=False, track_swaps=True)
        stats = SolveStats()
        first = self.make_node(search, (0, 9, 9, 0, 0), swaps=1)
        second = self.make_node(search, (0, 4, 4, 0, 0), swaps=1)
        assert front.try_insert(first, stats)
        assert not front.try_insert(second, stats)   # a tie keeps the first
        assert not first.removed
        assert stats.nodes_pruned == 1

    def test_swaps_only_one_record_per_state(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, swaps_config())
        front = _Front(track_depth=False, track_swaps=True)
        stats = SolveStats()
        import random
        rng = random.Random(11)
        for _ in range(50):
            dm = (0,) + tuple(rng.randint(0, 4) for _ in range(4))
            front.try_insert(self.make_node(search, dm, swaps=rng.randint(0, 5)), stats)
            assert all(len(records) == 1 for records in front.store.values())

    def test_mirror_image_is_one_record(self, example_circuit, linear4):
        # Gate 1 on edge (1,2) and on its mirror (4,3) under the reflection
        # v -> 5 - v: the same depths once mapped, so the mirror is pruned.
        # Without the automorphism the two states are separate records.
        search = _Search(example_circuit, linear4, depth_config())
        root = search.root()
        for automorphisms, kept in ((linear4.automorphisms(), 1), ((), 2)):
            front = _Front(track_depth=True, track_swaps=False, automorphisms=automorphisms)
            stats = SolveStats()
            a = search.make_child(root, 1, (1, 2))
            b = search.make_child(root, 1, (4, 3))
            assert front.try_insert(a, stats)
            assert front.try_insert(b, stats) == (kept == 2)
            assert sum(map(len, front.store.values())) == kept
        assert linear4.automorphisms() == [(0, 4, 3, 2, 1)]

    def test_better_mirror_image_evicts(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, depth_config())
        front = _Front(track_depth=True, track_swaps=False,
                       automorphisms=linear4.automorphisms())
        stats = SolveStats()
        old = self.make_node(search, (0, 5, 5, 0, 0))
        old.assignment = (0, 1, 2, 0, 0)
        new = self.make_node(search, (0, 0, 0, 4, 5))
        new.assignment = (0, 4, 3, 0, 0)
        assert front.try_insert(old, stats)
        assert front.try_insert(new, stats)
        assert old.removed and stats.fronts_replaced == 1
        assert list(front.store.values()) == [[((0, 5, 4, 0, 0), new)]]

    def test_state_fixed_by_an_automorphism_compares_every_frame(self):
        # On grid:2x3 (nodes 1 2 3 / 4 5 6) the left-right flip fixes the
        # middle column.  With both qubits there, a depth map and its flip
        # are the same state's; the key is attained in two frames, and the
        # newcomer is pruned in the second.
        graph = parse_topology("grid:2x3")
        circuit = Circuit(2, (GateSpec(1, (1, 2), 3),))
        search = _Search(circuit, graph, depth_config())
        front = _Front(track_depth=True, track_swaps=False,
                       automorphisms=graph.automorphisms())
        stats = SolveStats()
        a = self.make_node(search, (0, 7, 3, 0, 0, 3, 0))
        b = self.make_node(search, (0, 0, 3, 7, 0, 3, 0))
        a.assignment = b.assignment = (0, 2, 5)
        assert front.try_insert(a, stats)
        [[(a_frame, _)]] = front.store.values()
        assert not all(map(operator.le, a_frame, b.depth_map))   # not in b's own frame
        assert not front.try_insert(b, stats)
        assert stats.nodes_pruned == 1

    @given(walks(topologies("grid:2x2", "grid:3x3", "y:4", "y:7", "linear:5")))
    @settings(max_examples=100, deadline=None)
    def test_canonical_key_and_frames(self, walk):
        # The key is the least image of the assignment over the whole
        # group, and the frames are the depth map moved by each sigma that
        # attains it: node sigma[v] gets v's depth.  The node is stored in
        # the first of them, and compared in each: a record in one of them
        # prunes it, a record in any other frame of its depth map does not
        # (two permutations of one depth map are ordered only when equal).
        search, nodes = walk
        graph = search.graph
        group = [tuple(range(graph.num_nodes + 1))] + graph.automorphisms()

        def new_front():
            return _Front(track_depth=True, track_swaps=False,
                          automorphisms=graph.automorphisms())

        for node in nodes:
            images = {sigma: tuple(sigma[a] for a in node.assignment) for sigma in group}
            best = min(images.values())
            frames, expected = [], []
            for sigma in group:
                frame = [0] * len(sigma)
                for v, u in enumerate(sigma):
                    frame[u] = node.depth_map[v]
                frames.append(tuple(frame))
                if images[sigma] == best:
                    expected.append(tuple(frame))
            front = new_front()
            assert front.try_insert(node, SolveStats())
            assert front.store == {(best, node.progress): [(expected[0], node)]}
            for frame in frames:
                front = new_front()
                front.store[best, node.progress] = [(frame, search.root())]
                assert front.try_insert(node, SolveStats()) == (frame not in expected)

    def test_store_health(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, depth_config())
        front = _Front(track_depth=True, track_swaps=False)
        stats = SolveStats()
        import random
        rng = random.Random(7)
        for _ in range(50):
            dm = (0,) + tuple(rng.randint(0, 4) for _ in range(4))
            front.try_insert(self.make_node(search, dm), stats)
        for records in front.store.values():
            for a_frame, a in records:
                for b_frame, b in records:
                    if a is not b:
                        assert not all(map(operator.le, a_frame, b_frame))


class TestBounds:
    def test_root_depth_bound(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, depth_config())
        root = search.root()
        assert bound_depth(root, search.info, linear4, 15) == 4

    def test_adjacent_pair_no_swap_needed(self, linear4):
        c = parse_circuit(json.dumps({"num_qubits": 2,
                                      "gates": [{"q": [1, 2], "d": 4},
                                                {"q": [1, 2], "d": 4}]}))
        search = _Search(c, linear4, depth_config())
        node = search.make_child(search.root(), 1, (1, 2))
        # Second gate adjacent at depth 4: bound is 4 + delta(2) = 8.
        assert bound_depth(node, search.info, linear4, 15) == 8

    def test_after_g1_bound(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, depth_config())
        node = search.make_child(search.root(), 1, (1, 2))
        h = bound_depth(node, search.info, linear4, 15)
        assert h >= 2 + reference_delta(example_circuit)[3]
        assert h >= 4   # still at least the root bound for unscheduled g2

    def test_swap_bound_root(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, swaps_config())
        assert bound_swaps(search.root(), search.info, linear4) == 0

    def test_swap_bound_distance(self, linear4):
        c = parse_circuit(json.dumps({"num_qubits": 4,
                                      "gates": [{"q": [1, 2], "d": 4},
                                                {"q": [3, 4], "d": 4},
                                                {"q": [1, 4], "d": 4}]}))
        search = _Search(c, linear4, swaps_config())
        node = search.make_child(search.root(), 1, (1, 2))
        node = search.make_child(node, 2, (3, 4))
        # Virtual 1 at node 1, virtual 4 at node 4: distance 3 -> 2 SWAPs.
        assert bound_swaps(node, search.info, linear4) == 2

    def test_weighted_bound(self, example_circuit, linear4):
        config = SolverConfig(w_depth=1, w_swaps=10)
        search = _Search(example_circuit, linear4, config)
        root = search.root()
        h_d = bound_depth(root, search.info, linear4, config.swap_duration)
        h_s = bound_swaps(root, search.info, linear4)
        assert search.bound(root) == h_d + 10 * h_s

    @given(walks(), PATH_CAPS)
    @settings(max_examples=150, deadline=None)
    def test_depth_bound_matches_reference(self, walk, cap):
        search, nodes = walk
        d_s = search.config.swap_duration
        info, graph, circuit = search.info, search.graph, search.circuit
        pos = gate_positions(circuit)
        with mock.patch.object(hardware, "MAX_PATHS_PER_PAIR", cap):
            for node in nodes:
                assert (bound_depth(node, info, graph, d_s)
                        == reference_bound_depth(node, circuit, graph, d_s))
                # bound_swaps: the worst distance over every unscheduled gate.
                assert bound_swaps(node, info, graph) == node.swap_count + max(
                    (graph.dist[node.assignment[p]][node.assignment[q]] - 1
                     for g in circuit.gates for p, q in [g.qubits]
                     if pos[g.id][p] >= node.progress[p]
                     and node.assignment[p] and node.assignment[q]), default=0)

    @given(walks())
    @settings(max_examples=150, deadline=None)
    def test_tables_match_reference(self, walk):
        # The per-circuit tables answer what the O(gates) and pair scans do.
        search, nodes = walk
        info, graph, circuit = search.info, search.graph, search.circuit
        for node in nodes:
            assert (minimal_unscheduled(info, node.progress)
                    == reference_minimal_unscheduled(circuit, node.progress))
            assert bound_swaps(node, info, graph) == reference_bound_swaps(node, circuit, graph)

    def test_admissibility_at_root(self, linear4, y4):
        for graph in (linear4, y4):
            for spec, circuit in tiny_instances(8, seed_base=100):
                for config, objective in ((depth_config(), "depth"),
                                          (swaps_config(), "swaps")):
                    search = _Search(circuit, graph, config)
                    root_h = search.bound(search.root())
                    r = solve(circuit, graph, config)
                    assert r.status == "optimal"
                    assert root_h <= r.objective_value


class TestFractionalWeights:
    W_DEPTH, W_SWAPS = Fraction(1, 3), Fraction(5, 2)

    def solve_all(self, graph, scale=1, **kw):
        config = SolverConfig(w_depth=self.W_DEPTH * scale,
                              w_swaps=self.W_SWAPS * scale, **kw)
        return [solve(c, graph, config) for _, c in tiny_instances(4, seed_base=800)]

    def test_objective_is_exact(self, linear4):
        for r in self.solve_all(linear4):
            assert r.status == "optimal"
            assert isinstance(r.objective_value, Fraction)
            assert r.objective_value == (self.W_DEPTH * r.makespan
                                         + self.W_SWAPS * r.swap_count)

    def test_scaled_weights_search_the_same_nodes(self, linear4):
        for a, b in zip(self.solve_all(linear4), self.solve_all(linear4, scale=7)):
            assert b.objective_value == 7 * a.objective_value
            assert b.stats.nodes_expanded == a.stats.nodes_expanded
            assert b.stats.nodes_inserted == a.stats.nodes_inserted
            assert b.stats.nodes_pruned == a.stats.nodes_pruned

    def test_pareto_off_same_optimum(self, linear4):
        for a, b in zip(self.solve_all(linear4), self.solve_all(linear4, use_pareto=False)):
            assert a.objective_value == b.objective_value


class TestSwapsObjective:
    @given(instances(max_gates=6), st.booleans(), st.integers(0, 20))
    @example((Circuit(5, (GateSpec(1, (2, 4), 0), GateSpec(2, (2, 5), 0),
                          GateSpec(3, (5, 3), 0), GateSpec(4, (5, 1), 0),
                          GateSpec(5, (1, 2), 0))), parse_topology("linear:5")),
             False, 0)   # a state is first reached with more SWAPs than its best
    @settings(max_examples=200, deadline=None)
    def test_one_record_per_state_keeps_the_optimum(self, instance, layered, d_s):
        # The swaps-objective store compares SWAP counts only; its optimum
        # must equal the search without Pareto pruning and, on up to four
        # qubits, the (non-layered) oracle's, which bounds layered mode.
        circuit, graph = instance
        a = solve(circuit, graph, swaps_config(layered=layered, swap_duration=d_s))
        b = solve(circuit, graph, swaps_config(layered=layered, swap_duration=d_s,
                                               use_pareto=False))
        assert a.status == b.status == "optimal"
        assert a.objective_value == b.objective_value == a.swap_count
        for r in (a, b):
            assert validate(r.schedule, circuit, graph).ok
        if circuit.num_virtual_qubits <= 4:
            o = exhaustive_solve(circuit, graph, OracleConfig(
                max_swaps=a.swap_count, objective="swaps", swap_duration=d_s))
            assert o.value <= a.swap_count if layered else o.value == a.swap_count


class TestDepthObjective:
    @given(instances(max_gates=6, graphs=st.one_of(
               topologies("linear:4", "y:4", "grid:2x2"), connected_graphs(max_nodes=4))),
           st.sampled_from([0, 6, 15]), PATH_CAPS)
    @example((Circuit(4, (GateSpec(1, (1, 3), 3), GateSpec(2, (4, 2), 3),
                          GateSpec(3, (2, 3), 6), GateSpec(4, (4, 2), 5),
                          GateSpec(5, (3, 2), 5), GateSpec(6, (1, 4), 1),
                          GateSpec(7, (1, 2), 2))), parse_topology("linear:4")),
             15, hardware.MAX_PATHS_PER_PAIR)   # optimum 46; running a placed gate first gives 50
    @settings(max_examples=50, deadline=None)
    def test_matches_the_oracle(self, instance, d_s, cap):
        circuit, graph = instance
        with mock.patch.object(hardware, "MAX_PATHS_PER_PAIR", cap):
            r = solve(circuit, graph, depth_config(swap_duration=d_s))
        assert r.status == "optimal"
        assert validate(r.schedule, circuit, graph).ok
        assert r.objective_value == oracle_fixpoint(circuit, graph, "depth", d_s).value


def relabelled_graph(graph, perm):
    """`graph` with node v renamed perm[v]."""
    return HardwareGraph(graph.num_nodes, [(perm[v], perm[w]) for v, w in graph.edges])


def solve_both_ways(circuit, graph, objective, layered, **kw):
    r = solve(circuit, graph, CONFIGS[objective](layered=layered, **kw))
    assert r.status == "optimal"
    assert validate(r.schedule, circuit, graph).ok
    return r


# At most 4 qubits on 4 nodes: small enough for many solves per test.
TINY_TOPOLOGIES = topologies("linear:4", "y:4", "grid:2x2")


class TestSymmetry:
    """Metamorphic laws of the optimum, which the symmetric Pareto store
    must keep."""

    @given(instances(max_gates=6), st.sampled_from(["depth", "swaps"]), st.booleans(),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_relabelling_qubits_keeps_the_optimum(self, instance, objective, layered, rng):
        circuit, graph = instance
        n = circuit.num_virtual_qubits
        perm = [0] + rng.sample(range(1, n + 1), n)
        relabelled = Circuit(n, tuple(GateSpec(g.id, (perm[g.qubits[0]], perm[g.qubits[1]]),
                                               g.duration) for g in circuit.gates))
        a = solve_both_ways(circuit, graph, objective, layered)
        b = solve_both_ways(relabelled, graph, objective, layered)
        assert a.objective_value == b.objective_value

    @given(instances(max_gates=6), st.sampled_from(["depth", "swaps"]), st.booleans(),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_relabelling_nodes_keeps_the_optimum(self, instance, objective, layered, rng):
        circuit, graph = instance
        n = graph.num_nodes
        perm = [0] + rng.sample(range(1, n + 1), n)
        a = solve_both_ways(circuit, graph, objective, layered)
        b = solve_both_ways(circuit, relabelled_graph(graph, perm), objective, layered)
        assert a.objective_value == b.objective_value

    @given(instances(max_gates=5, graphs=topologies("grid:2x2", "y:4", "grid:2x3")),
           st.sampled_from(["depth", "swaps"]), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_symmetric_store_matches_no_store(self, instance, objective, layered):
        circuit, graph = instance
        config = depth_config if objective == "depth" else swaps_config
        a = solve_both_ways(circuit, graph, objective, layered)
        b = solve(circuit, graph, config(layered=layered, use_pareto=False))
        assert b.status == "optimal" and validate(b.schedule, circuit, graph).ok
        assert a.objective_value == b.objective_value

    @given(instances(max_gates=5, graphs=TINY_TOPOLOGIES), st.sampled_from(["depth", "swaps"]),
           st.booleans(), st.sampled_from([0, 6, 15]), st.integers(2, 4))
    @settings(max_examples=100, deadline=None)
    def test_scaling_durations_scales_only_the_depth(self, instance, objective, layered, d_s, k):
        circuit, graph = instance
        scaled = Circuit(circuit.num_virtual_qubits,
                         tuple(GateSpec(g.id, g.qubits, k * g.duration) for g in circuit.gates))
        a = solve_both_ways(circuit, graph, objective, layered, swap_duration=d_s)
        b = solve_both_ways(scaled, graph, objective, layered, swap_duration=k * d_s)
        assert b.objective_value == (k if objective == "depth" else 1) * a.objective_value

    @given(instances(max_gates=5, graphs=TINY_TOPOLOGIES), st.sampled_from(["depth", "swaps"]),
           st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_appending_a_gate_never_lowers_the_optimum(self, instance, objective, layered, data):
        circuit, graph = instance
        n = circuit.num_virtual_qubits
        p, q = data.draw(st.permutations(range(1, n + 1)))[:2]
        longer = Circuit(n, circuit.gates + (GateSpec(circuit.num_gates + 1, (p, q),
                                                      data.draw(st.integers(0, 8))),))
        a = solve_both_ways(circuit, graph, objective, layered)
        b = solve_both_ways(longer, graph, objective, layered)
        assert b.objective_value >= a.objective_value

    def test_asymmetric_graph_counts_unchanged(self):
        # A graph with no automorphism but the identity searches exactly
        # the nodes it searched before the store merged automorphic states
        # (counts measured then).
        graph = HardwareGraph(7, [(1, 4), (1, 5), (2, 3), (2, 4), (2, 7), (3, 6),
                                  (4, 5), (5, 6)])
        circuit = gen_random_circuit(InstanceSpec("linear:7", 6, 10, 0))
        for config, counts in ((depth_config(), (864, 5208, 2522, 114)),
                               (swaps_config(), (188, 1406, 230, 35))):
            s = solve(circuit, graph, config).stats
            assert (s.nodes_expanded, s.nodes_inserted, s.nodes_pruned,
                    s.fronts_replaced) == counts


class TestSearchPinned:
    """The search itself, not only its answers: a change that only makes
    the search faster must expand, insert, prune and replace exactly these
    nodes (counts recorded before the table-driven bounds and the flat
    expansion loop; the combined rows before nodes dropped the depth map
    under the swaps objective)."""

    @pytest.mark.parametrize("topology, qubits, objective, layered, value, counts", [
        ("linear:5", 5, "depth", False, 53, (62, 222, 61, 23)),
        ("linear:5", 5, "depth", True, 53, (39, 140, 33, 10)),
        ("linear:5", 5, "swaps", False, 1, (35, 76, 14, 2)),
        ("linear:5", 5, "swaps", True, 1, (27, 67, 13, 2)),
        ("grid:2x3", 6, "depth", False, 45, (158, 889, 402, 9)),
        ("grid:2x3", 6, "depth", True, 45, (118, 660, 262, 21)),
        ("grid:2x3", 6, "swaps", False, 1, (36, 204, 88, 1)),
        ("grid:2x3", 6, "swaps", True, 1, (18, 66, 72, 0)),
        ("y:6", 6, "depth", False, 64, (626, 2009, 1527, 49)),
        ("y:6", 6, "depth", True, 64, (346, 1121, 718, 45)),
        ("y:6", 6, "swaps", False, 2, (134, 455, 247, 7)),
        ("y:6", 6, "swaps", True, 2, (55, 183, 78, 4)),
        ("linear:5", 5, "combined", False, 63, (62, 204, 79, 5)),
        ("linear:5", 5, "combined", True, 63, (39, 132, 41, 2)),
    ])
    def test_counts(self, topology, qubits, objective, layered, value, counts):
        circuit = gen_random_circuit(InstanceSpec(topology, qubits, 10, 0))
        r = solve(circuit, parse_topology(topology), CONFIGS[objective](layered=layered))
        s = r.stats
        assert (r.status, r.objective_value) == ("optimal", value)
        assert (s.nodes_expanded, s.nodes_inserted, s.nodes_pruned,
                s.fronts_replaced) == counts


def reference_ops(node):
    """The ops along `node`'s path, timed from the depth maps the search
    keeps: each starts when both its nodes are free in the parent and ends
    at the child's depth there, in path order, then stably sorted by start."""
    ops = []
    while node.parent is not None:
        v, w = node.edge
        start = max(node.parent.depth_map[v], node.parent.depth_map[w])
        assert node.depth_map[v] == node.depth_map[w]
        ops.append(ScheduledOp(node.gate_index, node.edge, start, node.depth_map[v] - start))
        node = node.parent
    ops.reverse()
    ops.sort(key=lambda op: op.start)
    return ops


class TestReplayedTimes:
    """`_result` replays a path's ops from all-zero depths instead of
    reading depth maps, which only a depth weight keeps."""

    @given(walks())
    @settings(max_examples=150, deadline=None)
    def test_replay_matches_the_depth_maps(self, walk):
        search, nodes = walk
        for node in nodes:
            r = _result(search, node, SolveStats(), "incumbent")
            assert list(r.schedule.ops) == reference_ops(node)
            assert r.makespan == max(node.depth_map)
        # The same path under the other objectives: the same states and
        # schedule, with a depth map only under a depth weight.
        kw = {"layered": search.config.layered, "swap_duration": search.config.swap_duration}
        expected = _result(search, nodes[-1], SolveStats(), "incumbent")
        for config in (swaps_config(**kw), combined_config(**kw)):
            other = _Search(search.circuit, search.graph, config)
            node = other.root()
            assert node.depth_map == (None if config.w_depth == 0 else nodes[0].depth_map)
            for walked in nodes[1:]:
                node = other.make_child(node, walked.gate_index, walked.edge)
                assert ((node.assignment, node.progress, node.swap_count, node.num_scheduled)
                        == (walked.assignment, walked.progress, walked.swap_count,
                            walked.num_scheduled))
                assert node.depth_map == (None if config.w_depth == 0 else walked.depth_map)
            r = _result(other, node, SolveStats(), "incumbent")
            assert (r.schedule, r.makespan, r.swap_count) == (
                expected.schedule, expected.makespan, expected.swap_count)

    @given(instances(max_gates=6), st.sampled_from(["swaps", "combined"]), st.booleans(),
           st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_replayed_schedule_is_valid(self, instance, objective, layered, d_s):
        circuit, graph = instance
        r = solve(circuit, graph, CONFIGS[objective](layered=layered, swap_duration=d_s))
        assert r.status == "optimal"
        assert validate(r.schedule, circuit, graph).ok
        m = compute_metrics(r.schedule)
        assert (m.depth, m.swaps) == (r.makespan, r.swap_count)
        if objective == "swaps":
            assert r.objective_value == r.swap_count
        else:
            assert r.objective_value == r.makespan + 10 * r.swap_count


class TestCollector:
    """`solve` turns the cyclic garbage collector off around the search,
    which is safe only because the search makes no reference cycles."""

    @pytest.mark.parametrize("beam", [None, 2], ids=["exact", "beam2"])
    @pytest.mark.parametrize("layered", [False, True], ids=["plain", "layered"])
    @pytest.mark.parametrize("objective", ["depth", "swaps", "combined"])
    @pytest.mark.parametrize("topology, qubits", [("linear:5", 5), ("grid:2x3", 6),
                                                  ("y:6", 6)])
    def test_solve_makes_no_cycles(self, topology, qubits, objective, layered, beam):
        circuit = gen_random_circuit(InstanceSpec(topology, qubits, 10, 0))
        graph = parse_topology(topology)
        config = CONFIGS[objective](layered=layered, beam_width=beam)
        collecting = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            result = solve(circuit, graph, config)
            assert result.schedule is not None
            del result
            assert gc.collect() == 0
        finally:
            if collecting:
                gc.enable()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_solve_restores_the_collector(self, example_circuit, linear4, enabled):
        collecting = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            solve(example_circuit, linear4, depth_config())
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if collecting else gc.disable)()

    def test_collector_restored_when_the_search_raises(self, example_circuit, linear4,
                                                       monkeypatch):
        def failing_run(search, beam, t0):
            assert not gc.isenabled()
            raise RuntimeError("search failed")

        monkeypatch.setattr(solver, "_run", failing_run)
        collecting = gc.isenabled()
        gc.enable()
        try:
            with pytest.raises(RuntimeError, match="search failed"):
                solve(example_circuit, linear4, depth_config())
            assert gc.isenabled()
        finally:
            (gc.enable if collecting else gc.disable)()


class TestModesAndProperties:
    def test_layered_not_better(self, linear4):
        for spec, circuit in tiny_instances(6, seed_base=200):
            plain = solve(circuit, linear4, depth_config())
            layered = solve(circuit, linear4, depth_config(layered=True))
            assert plain.objective_value <= layered.objective_value

    def test_pruning_soundness(self, linear4):
        for spec, circuit in tiny_instances(4, seed_base=300, depth_params=(3, 4)):
            for layered in (False, True):
                a = solve(circuit, linear4, depth_config(layered=layered))
                b = solve(circuit, linear4, depth_config(layered=layered,
                                                         use_pareto=False))
                assert a.objective_value == b.objective_value

    def test_beam_returns_valid_upper_bound(self, linear4):
        for spec, circuit in tiny_instances(4, seed_base=400):
            exact = solve(circuit, linear4, depth_config())
            for width in (1, 8):
                r = solve(circuit, linear4, depth_config(beam_width=width))
                assert r.status == "incumbent"
                assert validate(r.schedule, circuit, linear4).ok
                assert r.objective_value >= exact.objective_value

    def test_dead_beam_restarts_at_twice_the_width(self, linear4):
        circuit = gen_random_circuit(InstanceSpec("linear:4", 4, 6, 11))
        # Width 1 empties its open list with no complete node ...
        assert _run(_Search(circuit, linear4, depth_config()), 1, 0.0) is None
        # ... so `solve` searches again at width 2, and returns that search.
        r = solve(circuit, linear4, depth_config(beam_width=1))
        wide = solve(circuit, linear4, depth_config(beam_width=2))
        assert r.status == "incumbent"
        assert validate(r.schedule, circuit, linear4).ok
        assert r.objective_value == wide.objective_value == 48
        assert r.schedule == wide.schedule
        counts = ("nodes_expanded", "nodes_inserted", "nodes_pruned", "fronts_replaced")
        assert ([getattr(r.stats, k) for k in counts]
                == [getattr(wide.stats, k) for k in counts])

    def test_beam_unbounded_matches_exact(self, example_circuit, linear4):
        exact = solve(example_circuit, linear4, depth_config())
        wide = solve(example_circuit, linear4, depth_config(beam_width=10000))
        assert wide.objective_value == exact.objective_value

    def test_determinism(self, linear4):
        for spec, circuit in tiny_instances(3, seed_base=500):
            a = solve(circuit, linear4, depth_config())
            b = solve(circuit, linear4, depth_config())
            assert a.schedule == b.schedule
            assert a.stats.nodes_expanded == b.stats.nodes_expanded
            assert a.stats.nodes_inserted == b.stats.nodes_inserted

    def test_solver_times_are_greedy(self, linear4):
        # Re-deriving start times as-early-as-possible from the op order
        # must reproduce the solver's recorded times exactly, and every op
        # lasts its gate's duration (a SWAP, the configured one).
        for spec, circuit in tiny_instances(5, seed_base=700):
            for config in (depth_config(), depth_config(swap_duration=6, layered=True)):
                r = solve(circuit, linear4, config)
                free = {}
                for op in r.schedule.ops:
                    v, w = op.edge
                    assert op.start == max(free.get(v, 0), free.get(w, 0))
                    assert op.duration == (config.swap_duration if op.kind == SWAP
                                           else circuit.gates[op.kind - 1].duration)
                    free[v] = free[w] = op.start + op.duration

    def test_oracle_equivalence_spotcheck(self, linear4, y4):
        for graph in (linear4, y4):
            for spec, circuit in tiny_instances(3, seed_base=600,
                                                depth_params=(3, 4)):
                for config, objective in ((depth_config(), "depth"),
                                          (swaps_config(), "swaps")):
                    r = solve(circuit, graph, config)
                    o = oracle_fixpoint(circuit, graph, objective)
                    assert r.objective_value == o.value
