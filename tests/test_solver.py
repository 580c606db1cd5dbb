import copy
import gc
import hashlib
import heapq
import itertools
import json
import operator
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qmproute import hardware, solver
from qmproute.bench import InstanceSpec, gen_random_circuit
from qmproute.circuit import (Circuit, GateSpec, PrecedenceInfo, minimal_unscheduled,
                              parse_circuit)
from qmproute.hardware import HardwareGraph, parse_topology
from qmproute.oracle import OracleConfig, exhaustive_solve, oracle_fixpoint
from qmproute.schedule import SWAP, ScheduledOp, compute_metrics, validate
from qmproute.solver import (SearchNode, SolveStats, SolverConfig, SolverError, _result, _run,
                             _Search, bound_depth, bound_swaps, solve)

from conftest import (gate_positions, qubit_gates, reference_delta, solve_without_store,
                      tiny_instances)


def depth_config(**kw):
    return SolverConfig(w_depth=1, w_swaps=0, **kw)


def swaps_config(**kw):
    return SolverConfig(w_depth=0, w_swaps=1, **kw)


def combined_config(**kw):
    return SolverConfig(w_depth=1, w_swaps=10, **kw)


CONFIGS = {"depth": depth_config, "swaps": swaps_config, "combined": combined_config}


def reference_repositioning(graph, dm, d_s, a, start_a, b, start_b):
    """The least over the minimal paths from node a to node b of the latest
    of each walker's start plus its hops and each node's depth plus the
    hops left after it, on the best edge; None if capped."""
    paths = graph.minimal_paths(a, b)
    if paths is None:
        return None
    best = None
    for path in paths:
        path = path if path[0] == a else path[::-1]    # read from a
        n_pi = len(path)
        for j in range(1, n_pi):
            terms = [start_a + (j - 1) * d_s, start_b + (n_pi - j - 1) * d_s]
            for k in range(2, j + 1):
                terms.append(dm[path[k - 1]] + (j + 1 - k) * d_s)
            for k in range(j + 1, n_pi):
                terms.append(dm[path[k - 1]] + (k - j) * d_s)
            h = max(terms)
            if best is None or h < best:
                best = h
    return best


def path_pairs(graph):
    """The unordered node pairs whose paths `graph.paths` holds."""
    return {frozenset((v, w)) for v, row in graph.paths.items() for w in row}


def reference_bound_depth(node, circuit, graph, swap_duration, holes=True):
    """bound_depth as first written, the reference for the fast version: it
    rescans each pair's gates for the first unscheduled one and builds every
    term of the repositioning maximum (`reference_repositioning`),
    O(|path|^2) per path.  A pair with one qubit placed (with `holes`)
    takes the least of that maximum over every free node, with the unplaced
    qubit starting there.  Every circuit fact it needs comes from the gate
    list, not from `analyze`."""
    gates, delta, pos = circuit.gates, reference_delta(circuit), gate_positions(circuit)
    per_qubit = qubit_gates(circuit)
    dm, d_s = node.depth_map, swap_duration

    def work(q, k_from, k_to):          # q's gate durations from position k_from to k_to
        return sum(gates[i - 1].duration for i in per_qubit[q][k_from:k_to])

    pair_gates = {}
    for g in gates:
        pair_gates.setdefault(frozenset(g.qubits), []).append(g.id)
    h_q = 0
    for q in range(1, circuit.num_virtual_qubits + 1):
        a = node.assignment[q]
        dq = dm[a] if a else 0
        seq = per_qubit[q]
        frontier = node.progress[q]
        if frontier < len(seq):
            dq += delta[seq[frontier]]
        h_q = max(h_q, dq)

    free = [f for f in range(1, graph.num_nodes + 1) if f not in node.assignment]
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
        if not node.assignment[p]:
            p, q = q, p
        ap, aq = node.assignment[p], node.assignment[q]
        if not ap:
            continue
        start_p = dm[ap] + work(p, node.progress[p], pos[first][p])
        lam_q = work(q, node.progress[q], pos[first][q])
        if aq:
            best = reference_repositioning(graph, dm, d_s, ap, start_p, aq, dm[aq] + lam_q)
        elif holes:
            meets = []
            for f in free:
                start_f = dm[f] + lam_q
                meet = reference_repositioning(graph, dm, d_s, ap, start_p, f, start_f)
                if meet is None:
                    # Capped: no earlier than either start, nor than half
                    # their sum plus the hops between the two walkers.
                    hops = graph.dist[ap][f] - 1
                    meet = max(start_p, start_f, (start_p + start_f + hops * d_s + 1) // 2)
                meets.append(meet)
            best = min(meets)
        else:
            best = None
        if best is not None:
            h_g = max(h_g, delta[first] + best)
    return max(h_q, h_g)


def reference_minimal_unscheduled(circuit, progress):
    """minimal_unscheduled by its definition, O(gates): the gates that are
    the next unscheduled gate on both of their qubits, in circuit order."""
    pos = gate_positions(circuit)
    return [g.id for g in circuit.gates
            if all(pos[g.id][q] == progress[q] for q in g.qubits)]


def nearest_free_distance(graph, assignment, v):
    """The hop distance from node v to the nearest node no qubit holds, by
    breadth-first search from v."""
    occupied, level, seen, d = set(assignment), [v], {v}, 0
    while all(u in occupied for u in level):
        level = [w for u in level for w in graph.neighbors(u) if w not in seen and not seen.add(w)]
        d += 1
    return d


def reference_gate_swaps(node, graph, p, q):
    """A lower bound on the SWAPs before a gate on qubits p and q can run,
    read off the node's assignment: their distance less one once both are
    placed, the distance less one from the placed one's node to the nearest
    free node when one is, and 0 when neither is."""
    ap, aq = node.assignment[p], node.assignment[q]
    if ap and aq:
        return graph.dist[ap][aq] - 1
    if ap or aq:
        return nearest_free_distance(graph, node.assignment, ap or aq) - 1
    return 0


def reference_bound_swaps(node, circuit, graph):
    """bound_swaps as a scan over qubit pairs: the SWAPs so far plus the
    largest `reference_gate_swaps` over pairs with a gate still to run."""
    pos = gate_positions(circuit)
    pair_gates = {}
    for g in circuit.gates:
        pair_gates.setdefault(frozenset(g.qubits), []).append(g)
    worst = 0
    for gates in pair_gates.values():
        p, q = gates[0].qubits
        if pos[gates[-1].id][p] < node.progress[p]:
            continue    # every gate of the pair already scheduled
        worst = max(worst, reference_gate_swaps(node, graph, p, q))
    return node.swap_count + worst


def reference_children(search, node):
    """Every (gate_index, edge) child of `node` by definition, in the
    search's order: each placement of each minimal unscheduled gate (in
    layered mode, of those in the lowest layer with a gate unscheduled), on
    an edge whose ends hold the gate's placed qubits or are free, then a
    SWAP on each edge with an occupied end."""
    circuit, graph, layer = search.circuit, search.graph, search.info.layer
    gates = reference_minimal_unscheduled(circuit, node.progress)
    if search.config.layered:
        unscheduled = [i for q, seq in qubit_gates(circuit).items()
                       for i in seq[node.progress[q]:]]
        low = min((layer[i] for i in unscheduled), default=None)
        gates = [i for i in gates if layer[i] == low]
    occupied = {a for a in node.assignment[1:] if a}
    children = []
    for i in gates:
        p, q = circuit.gates[i - 1].qubits
        ap, aq = node.assignment[p], node.assignment[q]
        if ap and aq:
            edges = [(ap, aq)] if aq in graph.neighbors(ap) else []
        elif ap:
            edges = [(ap, w) for w in graph.neighbors(ap) if w not in occupied]
        elif aq:
            edges = [(v, aq) for v in graph.neighbors(aq) if v not in occupied]
        else:
            edges = [e for v, w in graph.edges if v not in occupied and w not in occupied
                     for e in ((v, w), (w, v))]
        children += [(i, e) for e in edges]
    return children + [(SWAP, (v, w)) for v, w in graph.edges
                       if v in occupied or w in occupied]


def ops(search, node):
    """The (gate_index, edge) of each child state `search` lists for `node`."""
    return [state[:2] for state in search.children(node)]


def built(search, node):
    """Every child `search` lists for `node`, built with no Pareto store."""
    return search.keep(node, search.children(node), None, SolveStats())


def asymmetric(search):
    """A copy of `search` that keys its store under no automorphism, so
    only equal states share a class."""
    search = copy.copy(search)
    search.automorphisms, search.frames = [], []
    return search


def child(search, node, gate_index, edge):
    """`node`'s child by the op (gate_index, edge), built by `search`.  The
    op's state is taken from the children that a plain depth search on the
    same instance lists, which leave out only the SWAP undoing `node`'s own;
    its depth map is None when `node` has none."""
    lister = _Search(search.circuit, search.graph,
                     depth_config(swap_duration=search.config.swap_duration))
    [state] = [c for c in lister.children(node) if c[:2] == (gate_index, edge)]
    [kept] = search.keep(node, [state], None, SolveStats())
    return kept


def outcome(r):
    """(status, objective value, (expanded, inserted, pruned, replaced)) of a
    solve's result."""
    s = r.stats
    return r.status, r.objective_value, (s.nodes_expanded, s.nodes_inserted, s.nodes_pruned,
                                         s.fronts_replaced)


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
def walks(draw, graphs=None, objectives=("depth",)):
    """(search, nodes): a graph (drawn from `graphs` if given), a random
    circuit on it, a search in either mode under an objective drawn from
    `objectives`, and the nodes along one random sequence of children from
    the root, as the search builds them."""
    circuit, graph = draw(instances(max_gates=8) if graphs is None
                          else instances(max_gates=8, graphs=graphs))
    config = CONFIGS[draw(st.sampled_from(objectives))]
    search = _Search(circuit, graph, config(swap_duration=draw(st.integers(0, 20)),
                                            layered=draw(st.booleans())))
    node = search.root()
    nodes = [node]
    for pick in draw(st.lists(st.integers(0, 10 ** 6), max_size=14)):
        children = built(search, node)
        if not children:
            break
        node = children[pick % len(children)]
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
        ({"w_depth": True}, "w_depth must be an int, a Fraction or a decimal string"),
        ({"w_swaps": 0.1}, "w_swaps must be an int, a Fraction or a decimal string"),
        ({"w_depth": "1/0"}, "w_depth must be an int, a Fraction or a decimal string"),
        ({"w_swaps": "1e3"}, "w_swaps must be an int, a Fraction or a decimal string"),
        ({"w_depth": "\u0661/\u0663"}, "w_depth must be an int, a Fraction or a decimal string"),
        ({"w_swaps": "1_0"}, "w_swaps must be an int, a Fraction or a decimal string"),
        ({"w_depth": " 1/3 "}, "w_depth must be an int, a Fraction or a decimal string"),
        ({"w_swaps": "+1"}, "w_swaps must be an int, a Fraction or a decimal string"),
        ({"w_depth": ".5"}, "w_depth must be an int, a Fraction or a decimal string"),
        ({"w_swaps": "1."}, "w_swaps must be an int, a Fraction or a decimal string"),
    ], ids=["float-swap-duration", "bool-swap-duration", "float-beam-width",
            "bool-beam-width", "int-layered", "str-layered", "bool-time-limit",
            "str-time-limit", "bool-w-depth", "float-w-swaps", "zero-denominator-w-depth",
            "exponent-w-swaps", "non-ascii-w-depth", "underscore-w-swaps",
            "padded-w-depth", "signed-w-swaps", "no-integer-part-w-depth",
            "no-fraction-digits-w-swaps"])
    def test_bad_types_rejected(self, kw, match):
        # Not a raw TypeError from a comparison, a bool is not read as 1,
        # and a float weight is not taken at its binary value.
        with pytest.raises(SolverError, match=match):
            SolverConfig(**kw)

    @pytest.mark.parametrize("kw", [{"w_depth": 0, "w_swaps": 0}, {"w_depth": -1}],
                             ids=["zero-sum", "negative-w-depth"])
    def test_bad_weights_rejected(self, kw):
        with pytest.raises(SolverError, match="weights must be nonnegative with positive sum"):
            SolverConfig(**kw)

    def test_exact_weights_accepted(self):
        config = SolverConfig(w_depth="0.1", w_swaps=Fraction(1, 3), time_limit=5)
        assert (config.w_depth, config.w_swaps) == (Fraction(1, 10), Fraction(1, 3))
        config = SolverConfig(w_depth="2/06", w_swaps="12345678901234567891")
        assert (config.w_depth, config.w_swaps) == (Fraction(1, 3), 12345678901234567891)

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
        # g1 and g2 on all 3 edges, both orientations each; no SWAP.
        children = ops(search, search.root())
        assert len(children) == 12
        assert all(i != SWAP for i, _ in children)

    def test_swap_children_when_occupied(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, depth_config())
        node = search.root()
        node = child(search, node, 1, (1, 2))
        node = child(search, node, 2, (3, 4))
        swaps = [c for c in ops(search, node) if c[0] == SWAP]
        assert len(swaps) == 3   # every edge has an assigned endpoint

    def executable_node(self, config):
        """A node on linear:4 where gates 3 and 4 can both run in place:
        gate 1 put qubits 1, 2 on nodes 1, 2 and gate 2 qubits 3, 4 on 3, 4."""
        c = parse_circuit(json.dumps({"num_qubits": 4, "gates": [
            {"q": [1, 2]}, {"q": [3, 4]}, {"q": [1, 2]}, {"q": [3, 4]}]}))
        search = _Search(c, parse_topology("linear:4"), config)
        node = child(search, search.root(), 1, (1, 2))
        return search, child(search, node, 2, (3, 4))

    def test_no_swap_undoes_the_parent_swap(self, example_circuit, linear4):
        for config in (depth_config(), swaps_config(), SolverConfig(w_depth=1, w_swaps=1)):
            search = _Search(example_circuit, linear4, config)
            node = child(search, search.root(), 1, (1, 2))
            node = child(search, node, SWAP, (2, 3))
            assert (SWAP, (2, 3)) in reference_children(search, node)
            assert ops(search, node) == [
                c for c in reference_children(search, node) if c != (SWAP, (2, 3))]

    def test_swaps_objective_runs_an_executable_gate_alone(self):
        search, node = self.executable_node(swaps_config())
        assert ops(search, node) == [(3, (1, 2))]   # the first of gates 3, 4

    @pytest.mark.parametrize("config", [depth_config(), SolverConfig(w_depth=1, w_swaps=1)],
                             ids=["depth", "combined"])
    def test_depth_weight_keeps_every_child(self, config):
        search, node = self.executable_node(config)
        full = reference_children(search, node)
        assert full == [(3, (1, 2)), (4, (3, 4)),
                        (SWAP, (1, 2)), (SWAP, (2, 3)), (SWAP, (3, 4))]
        assert ops(search, node) == full

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
                full = reference_children(search, node)
                gates = [c for c in full if c[0] != SWAP]
                undo = (SWAP, node.edge) if node.gate_index == SWAP else None
                swaps = [c for c in full if c[0] == SWAP and c != undo]
                placed = [(i, e) for i, e in gates if all(
                    node.assignment[q] for q in search.circuit.gates[i - 1].qubits)]
                if config.w_depth == 0 and placed:
                    assert ops(search, node) == placed[:1]
                else:
                    assert ops(search, node) == gates + swaps

    def test_layered_filter(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, depth_config(layered=True))
        node = search.root()
        node = child(search, node, 1, (1, 2))
        # g2 (layer 0) still unscheduled, so g3 (layer 1) must not appear.
        ids = {i for i, _ in ops(search, node)}
        assert 3 not in ids
        assert 2 in ids

    @given(walks())
    @settings(max_examples=150, deadline=None)
    def test_derived_state(self, walk):
        # No two qubits share a node, and a SWAP exchanges whatever its two
        # nodes hold.  Every state is in the search's representation.
        search, nodes = walk
        for node in nodes:
            assert type(node.assignment) is type(node.progress) is search.pack
            placed = {a for a in node.assignment[1:] if a}
            assert len(placed) == sum(1 for a in node.assignment[1:] if a)
            if node.gate_index == SWAP:
                v, w = node.edge
                moved = {v: w, w: v}
                assert node.assignment == search.pack(
                    moved.get(a, a) for a in node.parent.assignment)

    @given(walks())
    @settings(max_examples=100, deadline=None)
    def test_child_states_by_definition(self, walk):
        # Each listed child state is its op applied to the node: a SWAP
        # exchanges whatever its two nodes hold, a gate puts its qubits on
        # the edge's ends and advances both; the op's nodes end at the later
        # of their depths plus its duration.  `keep` builds the node from
        # exactly that state, in the search's representation.
        search, nodes = walk
        circuit, d_s, pack = search.circuit, search.config.swap_duration, search.pack
        for node in nodes:
            states = search.children(node)
            for state, kept in zip(states, search.keep(node, states, None, SolveStats()),
                                   strict=True):
                gate_index, (v, w), dm, asg, prog, swaps, done = state
                if gate_index == SWAP:
                    moved = {v: w, w: v}
                    expected = (pack(moved.get(a, a) for a in node.assignment), node.progress,
                                node.swap_count + 1, node.num_scheduled)
                    duration = d_s
                else:
                    gate = circuit.gates[gate_index - 1]
                    placed, advanced = list(node.assignment), list(node.progress)
                    for qubit, at in zip(gate.qubits, (v, w)):
                        placed[qubit] = at
                        advanced[qubit] += 1
                    expected = (pack(placed), pack(advanced), node.swap_count,
                                node.num_scheduled + 1)
                    duration = gate.duration
                depths = list(node.depth_map)
                depths[v] = depths[w] = max(depths[v], depths[w]) + duration
                assert (asg, prog, swaps, done) == expected
                assert type(asg) is type(prog) is pack
                assert dm == tuple(depths)
                assert (kept.parent, kept.gate_index, kept.edge, kept.depth_map, kept.assignment,
                        kept.progress, kept.swap_count, kept.num_scheduled) == (
                    node, gate_index, (v, w), dm, asg, prog, swaps, done)


class TestTryInsert:
    """The Pareto store, as `_Search.keep` tries to insert each child."""

    def offer(self, search, store, stats, depth_map, swaps=0, assignment=None,
              symmetric=False):
        """Offer `store` a child of the root in this state, listed as
        `_Search.children` lists one, keyed under the graph's automorphisms
        when `symmetric` and under none otherwise: the node built for it,
        or None if the store prunes it.  `assignment` is given as a tuple
        and packed as the search packs states."""
        root = search.root()
        asg = root.assignment if assignment is None else search.pack(assignment)
        state = (1, (1, 2), depth_map, asg, root.progress, swaps, 1)
        kept = (search if symmetric else asymmetric(search)).keep(root, [state], store, stats)
        return kept[0] if kept else None

    def test_equal_dominates(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, depth_config())
        store, stats = {}, SolveStats()
        assert self.offer(search, store, stats, (0, 5, 5, 0, 0))
        assert not self.offer(search, store, stats, (0, 5, 5, 0, 0))
        assert stats.nodes_pruned == 1

    def test_strict_improvement_evicts(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, depth_config())
        store, stats = {}, SolveStats()
        old = self.offer(search, store, stats, (0, 5, 5, 0, 0))
        assert self.offer(search, store, stats, (0, 4, 5, 0, 0))
        assert old.removed
        assert stats.fronts_replaced == 1

    def test_incomparable_both_retained(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, depth_config())
        store, stats = {}, SolveStats()
        a = self.offer(search, store, stats, (0, 4, 6, 0, 0))
        b = self.offer(search, store, stats, (0, 5, 5, 0, 0))
        assert a and b
        assert not a.removed and not b.removed

    def test_swap_dimension(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, SolverConfig(w_depth=1, w_swaps=1))
        store, stats = {}, SolveStats()
        a = self.offer(search, store, stats, (0, 5, 5, 0, 0), swaps=1)
        assert a
        assert self.offer(search, store, stats, (0, 4, 4, 0, 0), swaps=2)   # better depth, worse swaps
        assert not a.removed

    def test_swaps_only_fewer_swaps_evicts_better_depth(self, example_circuit, linear4):
        # Under the swaps objective nodes carry no depth map: depth is not
        # weighed, and a class's record is the node itself.
        search = _Search(example_circuit, linear4, swaps_config())
        store, stats = {}, SolveStats()
        old = self.offer(search, store, stats, None, swaps=2)
        new = self.offer(search, store, stats, None, swaps=1)
        assert old and new
        assert old.removed
        assert stats.fronts_replaced == 1
        assert list(store.values()) == [new]

    def test_swaps_only_equal_swaps_prunes_newcomer(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, swaps_config())
        store, stats = {}, SolveStats()
        first = self.offer(search, store, stats, None, swaps=1)
        assert first
        assert not self.offer(search, store, stats, None, swaps=1)   # a tie keeps the first
        assert not first.removed
        assert stats.nodes_pruned == 1

    def test_swaps_only_one_record_per_state(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, swaps_config())
        store, stats = {}, SolveStats()
        rng = random.Random(11)
        for _ in range(50):
            self.offer(search, store, stats, None, swaps=rng.randint(0, 5))
            assert all(isinstance(record, SearchNode) for record in store.values())

    def test_mirror_image_is_one_record(self, example_circuit, linear4):
        # Gate 1 on edge (1,2) and on its mirror (4,3) under the reflection
        # v -> 5 - v: the same depths once mapped, so the mirror is pruned.
        # Without the automorphism the two states are separate records.
        search = _Search(example_circuit, linear4, depth_config())
        root = search.root()
        states = {state[:2]: state for state in search.children(root)}
        a, b = (states[op] for op in ((1, (1, 2)), (1, (4, 3))))
        for keeper, kept in ((search, 1), (asymmetric(search), 2)):
            store, stats = {}, SolveStats()
            assert keeper.keep(root, [a], store, stats)
            assert bool(keeper.keep(root, [b], store, stats)) == (kept == 2)
            assert sum(map(len, store.values())) == kept
        assert linear4.automorphisms() == [(0, 4, 3, 2, 1)]

    def test_better_mirror_image_evicts(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, depth_config())
        store, stats = {}, SolveStats()
        old = self.offer(search, store, stats, (0, 5, 5, 0, 0), assignment=(0, 1, 2, 0, 0),
                         symmetric=True)
        new = self.offer(search, store, stats, (0, 0, 0, 4, 5), assignment=(0, 4, 3, 0, 0),
                         symmetric=True)
        assert old and new
        assert old.removed and stats.fronts_replaced == 1
        assert list(store.values()) == [[((0, 5, 4, 0, 0), new)]]

    @given(walks(topologies("grid:2x2", "grid:3x3", "y:4", "y:7", "linear:5")))
    @settings(max_examples=100, deadline=None)
    def test_canonical_key_and_frames(self, walk):
        # The key is the least image of the assignment over the whole
        # group, and the node's frame is its depth map moved by the first
        # sigma (the identity first) that attains it: node sigma[v] gets
        # v's depth.  The node is stored and compared in that frame alone:
        # a record in a frame of its depth map prunes it exactly when that
        # frame equals the stored one (two permutations of one depth map
        # are ordered only when equal).  A node is offered as the state
        # its parent's children list; the root, which is no child, as its
        # own state.  The key is the least image and the progress as one
        # object, packed as the search packs states.
        search, nodes = walk
        graph = search.graph
        group = [tuple(range(graph.num_nodes + 1))] + graph.automorphisms()

        for node in nodes:
            images = [tuple(sigma[a] for a in node.assignment) for sigma in group]
            best = min(images)
            frames = []
            for sigma in group:
                frame = [0] * len(sigma)
                for v, u in enumerate(sigma):
                    frame[u] = node.depth_map[v]
                frames.append(tuple(frame))
            stored = frames[images.index(best)]
            if node.parent is None:
                parent, state = search.root(), (None, None, node.depth_map, node.assignment,
                                                node.progress, 0, 0)
            else:
                parent = node.parent
                [state] = [c for c in search.children(parent)
                           if c[:2] == (node.gate_index, node.edge)]
            store = {}
            [kept] = search.keep(parent, [state], store, SolveStats())
            assert (kept.assignment, kept.depth_map) == (node.assignment, node.depth_map)
            key = search.pack(best) + node.progress
            assert store == {key: [(stored, kept)]}
            for frame in frames:
                store = {key: [(frame, search.root())]}
                assert bool(search.keep(parent, [state], store, SolveStats())) == (
                    frame != stored)

    def test_store_health(self, example_circuit, linear4):
        # A class's vectors, the SWAP count last when it is weighed, are
        # an antichain.
        for config in (depth_config(), SolverConfig(w_depth=1, w_swaps=1)):
            search = _Search(example_circuit, linear4, config)
            store, stats = {}, SolveStats()
            rng = random.Random(7)
            for _ in range(50):
                dm = (0,) + tuple(rng.randint(0, 4) for _ in range(4))
                self.offer(search, store, stats, dm, swaps=rng.randint(0, 3))
            for records in store.values():
                for a_frame, a in records:
                    assert a_frame == a.depth_map + ((a.swap_count,) if config.w_swaps else ())
                    for b_frame, b in records:
                        if a is not b:
                            assert not all(map(operator.le, a_frame, b_frame))

    @pytest.mark.parametrize("config", [depth_config(), SolverConfig(w_depth=1, w_swaps=1)],
                             ids=["depth", "combined"])
    def test_one_pass_matches_two_passes(self, example_circuit, linear4, config):
        # `keep` writes an absent class at once, and otherwise scans its
        # class twice: for a record no worse than the child, and only if
        # none, for the records it evicts.  Here the definition asks both
        # of a copy of the class taken before the offer: is some record no
        # worse than the child?  Then, if not, which records is the child
        # no worse than?  (0,1,2,0,0) and its mirror (0,4,3,0,0) are one
        # class, keyed by the first and the progress; the mirror's depths
        # are read reversed.
        search = _Search(example_circuit, linear4, config)
        store, stats = {}, SolveStats()
        key = search.pack((0, 1, 2, 0, 0)) + search.root().progress
        rng = random.Random(21)
        pruned = replaced = 0
        for _ in range(300):
            dm = (0,) + tuple(rng.randint(0, 4) for _ in range(4))
            swaps = rng.randint(0, 3)
            asg = rng.choice([(0, 1, 2, 0, 0), (0, 4, 3, 0, 0)])
            vector = dm if asg == (0, 1, 2, 0, 0) else (0,) + dm[:0:-1]
            if config.w_swaps:
                vector += (swaps,)
            records = list(store.get(key, ()))
            dominated = any(all(map(operator.le, r_vector, vector)) for r_vector, _ in records)
            evicted = [] if dominated else [r for r_vector, r in records
                                            if all(map(operator.le, vector, r_vector))]
            node = self.offer(search, store, stats, dm, swaps=swaps, assignment=asg,
                              symmetric=True)
            assert (node is None) == dominated
            for _, r in records:
                assert r.removed == any(r is e for e in evicted)
            if dominated:
                assert store[key] == records
            else:
                assert store[key] == [record for record in records
                                      if not any(record[1] is e for e in evicted)] + [(vector, node)]
            pruned += dominated
            replaced += bool(evicted)
            assert (stats.nodes_pruned, stats.fronts_replaced) == (pruned, replaced)
        assert pruned and replaced and len(store[key]) > 1


class TestBounds:
    def test_root_depth_bound(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, depth_config())
        root = search.root()
        assert bound_depth(root, search.rows[root.progress], linear4, 15) == 4

    def test_adjacent_pair_no_swap_needed(self, linear4):
        c = parse_circuit(json.dumps({"num_qubits": 2,
                                      "gates": [{"q": [1, 2], "d": 4},
                                                {"q": [1, 2], "d": 4}]}))
        search = _Search(c, linear4, depth_config())
        node = child(search, search.root(), 1, (1, 2))
        # Second gate adjacent at depth 4: bound is 4 + delta(2) = 8.
        assert bound_depth(node, search.rows[node.progress], linear4, 15) == 8

    def test_after_g1_bound(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, depth_config())
        node = child(search, search.root(), 1, (1, 2))
        h = bound_depth(node, search.rows[node.progress], linear4, 15)
        assert h >= 2 + reference_delta(example_circuit)[3]
        assert h >= 4   # still at least the root bound for unscheduled g2

    def test_hole_term_walks_from_the_free_node(self):
        # Qubit 5 on node 5 (depth 24) has g3 (delta 4) still to run with
        # qubit 4, unplaced, and node 1, at the other end of linear:5, is
        # the only free node.  A walker from node 1 at 0 waits for nodes 2
        # and 3 (depths 5 and 17) and reaches node 3 at 24, so the two meet
        # no earlier than 24 + d_s = 31: the hole term is 35, above the
        # qubit and pair terms' 29.  A SWAP child's bound leaves it out.
        circuit = Circuit(5, tuple(GateSpec(i, pq, d) for i, (pq, d) in enumerate(
            [((1, 5), 5), ((3, 2), 3), ((4, 5), 4), ((1, 3), 5)], 1)))
        graph = parse_topology("linear:5")
        search = _Search(circuit, graph, depth_config(swap_duration=7))
        node = SearchNode(None, 2, (4, 3), (0, 0, 5, 17, 24, 24), search.pack((0, 2, 3, 4, 0, 5)),
                          search.pack((0, 1, 1, 1, 0, 1)), 0, 2)
        row = search.rows[node.progress]
        assert row[4] == ((5, 4, 0, 0),)
        assert (bound_depth(node, row, graph, 7)
                == reference_bound_depth(node, circuit, graph, 7) == search.bound(node) == 35)
        node.gate_index = SWAP
        assert (bound_depth(node, row, graph, 7)
                == reference_bound_depth(node, circuit, graph, 7, holes=False)
                == search.bound(node) == 29)

    @pytest.mark.parametrize("topology, cap, placed, depth_map, bound", [
        # Node 1, next to qubit 1's node 2, is busy until 3.  Node 5 is 3
        # hops away, past nodes 3 and 4 at depth 0: a walker from it meets
        # qubit 1 on edge (3, 4) at 2, and the scan must go on to it.
        ("linear:5", hardware.MAX_PATHS_PER_PAIR, (2, 3, 4), (0, 3, 0, 0, 0, 0), 6),
        # Node 4 is the only free node, 2 hops from qubit 1's node 1 over
        # two minimal paths: one SWAP first, a meet at 2.  With the paths
        # capped, the least meet by hops: half a SWAP, 1.
        ("grid:2x2", hardware.MAX_PATHS_PER_PAIR, (1, 2, 3), (0, 0, 0, 0, 0), 6),
        ("grid:2x2", 1, (1, 2, 3), (0, 0, 0, 0, 0), 5),
    ])
    def test_hole_term_scans_the_free_nodes(self, topology, cap, placed, depth_map, bound):
        # States built directly, at SWAP duration 2: qubits 1, 3 and 4 on
        # the nodes `placed`, and g3 (delta 4) still to run on qubit 1 and
        # qubit 2, unplaced, so that the qubit terms give 4.
        circuit = Circuit(4, (GateSpec(1, (1, 3), 0), GateSpec(2, (3, 4), 0),
                              GateSpec(3, (1, 2), 4)))
        graph = parse_topology(topology)
        search = _Search(circuit, graph, depth_config(swap_duration=2))
        (a1, a3, a4) = placed
        node = SearchNode(None, 2, (a3, a4), depth_map, search.pack((0, a1, 0, a3, a4)),
                          search.pack((0, 1, 0, 2, 1)), 0, 2)
        row = search.rows[node.progress]
        with mock.patch.object(hardware, "MAX_PATHS_PER_PAIR", cap):
            assert bound_depth(node, row, graph, 2) == reference_bound_depth(
                node, circuit, graph, 2) == bound
            node.gate_index = SWAP
            assert bound_depth(node, row, graph, 2) == 4

    def test_swap_bound_root(self, example_circuit, linear4):
        search = _Search(example_circuit, linear4, swaps_config())
        root = search.root()
        assert bound_swaps(root, search.rows[root.progress], linear4) == 0

    def test_swap_bound_distance(self, linear4):
        c = parse_circuit(json.dumps({"num_qubits": 4,
                                      "gates": [{"q": [1, 2], "d": 4},
                                                {"q": [3, 4], "d": 4},
                                                {"q": [1, 4], "d": 4}]}))
        search = _Search(c, linear4, swaps_config())
        node = child(search, search.root(), 1, (1, 2))
        node = child(search, node, 2, (3, 4))
        # Virtual 1 at node 1, virtual 4 at node 4: distance 3 -> 2 SWAPs.
        assert bound_swaps(node, search.rows[node.progress], linear4) == 2

    def test_weighted_bound(self, example_circuit, linear4):
        config = SolverConfig(w_depth=1, w_swaps=10)
        search = _Search(example_circuit, linear4, config)
        root = search.root()
        row = search.rows[root.progress]
        h_d = bound_depth(root, row, linear4, config.swap_duration)
        h_s = bound_swaps(root, row, linear4)
        assert search.bound(root) == h_d + 10 * h_s
        # `_bound` skips a zero weight's term: the combined, depth-only and
        # swaps-only weights each give the weighted sum of the bounds, at
        # the root and two levels below it.
        depth_only, swaps_only = (solver._bound(search.rows, linear4, config.swap_duration, *w)
                                  for w in ((3, 0), (0, 7)))
        nodes = [root, *(g for c in built(search, root) for g in built(search, c))]
        swap_terms = []
        for node in nodes:
            row = search.rows[node.progress]
            h_d = bound_depth(node, row, linear4, config.swap_duration)
            h_s = bound_swaps(node, row, linear4)
            assert (search.bound(node), depth_only(node), swaps_only(node)) == (
                h_d + 10 * h_s, 3 * h_d, 7 * h_s)
            swap_terms.append(h_s)
        assert len(nodes) > 10 and any(swap_terms)

    def test_path_cache_keys_each_pair_once(self, monkeypatch):
        # The depth bound asks for pairs in both orders; `paths` holds one
        # list per unordered pair under both orders, so each unordered pair
        # is enumerated once.
        graph = parse_topology("grid:3x3")
        asked = []
        minimal_paths = HardwareGraph.minimal_paths

        def recording(g, v, w):
            asked.append((v, w))
            return minimal_paths(g, v, w)

        monkeypatch.setattr(HardwareGraph, "minimal_paths", recording)
        circuit = gen_random_circuit(InstanceSpec("grid:3x3", 6, 8, 0))
        assert solve(circuit, graph, depth_config()).status == "optimal"
        assert any(v > w for v, w in asked) and any(v < w for v, w in asked)
        pairs = [frozenset(k) for k in asked]
        assert len(set(pairs)) == len(pairs) and path_pairs(graph) == set(pairs)
        assert all(graph.paths[v][w] is graph.paths[w][v]
                   for v, row in graph.paths.items() for w in row)

    @given(st.one_of(topologies("grid:3x3", "y:8"), connected_graphs(max_nodes=8)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_least_meet_is_the_least_repositioning(self, graph, data):
        # Either orientation of the pair gives the same meet, and that meet
        # is the reference's least repositioning maximum over the same
        # paths; at `bar` -1 no path meets early enough to stop the scan.
        n = graph.num_nodes
        a, b = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        dm = (0, *data.draw(st.lists(st.integers(0, 60), min_size=n, max_size=n)))
        start_a, start_b, d_s = (data.draw(st.integers(0, 60)), data.draw(st.integers(0, 60)),
                                 data.draw(st.integers(0, 20)))
        meet = solver._least_meet(graph, dm, a, b, start_a, start_b, d_s, -1)
        assert meet == solver._least_meet(graph, dm, b, a, start_b, start_a, d_s, -1)
        assert meet == reference_repositioning(graph, dm, d_s, a, start_a, b, start_b)
        # A capped pair has no meet: the enumeration of a fresh copy of the
        # graph stops at its second path.
        if len(graph.minimal_paths(a, b)) >= 2:
            capped = HardwareGraph(n, graph.edges)
            with mock.patch.object(hardware, "MAX_PATHS_PER_PAIR", 1):
                assert solver._least_meet(capped, dm, a, b, start_a, start_b, d_s, -1) is None

    # Graphs of up to 9 nodes, so that a placed qubit often has free nodes
    # several hops away, over several minimal paths.
    @given(walks(graphs=st.one_of(topologies("linear:5", "grid:2x3", "y:6", "grid:3x3", "y:8"),
                                  connected_graphs(max_nodes=8))), PATH_CAPS)
    @settings(max_examples=150, deadline=None)
    def test_depth_bound_matches_reference(self, walk, cap):
        search, nodes = walk
        d_s = search.config.swap_duration
        rows, graph, circuit = search.rows, search.graph, search.circuit
        pos = gate_positions(circuit)
        with mock.patch.object(hardware, "MAX_PATHS_PER_PAIR", cap):
            for node in nodes:
                row = rows[node.progress]
                assert bound_depth(node, row, graph, d_s) == reference_bound_depth(
                    node, circuit, graph, d_s, holes=node.gate_index != SWAP)
                # bound_swaps: the worst term over every unscheduled gate.
                assert bound_swaps(node, row, graph) == node.swap_count + max(
                    (reference_gate_swaps(node, graph, p, q)
                     for g in circuit.gates for p, q in [g.qubits]
                     if pos[g.id][p] >= node.progress[p]), default=0)

    @given(walks())
    @settings(max_examples=150, deadline=None)
    def test_tables_match_reference(self, walk):
        # The per-circuit tables answer what the O(gates) and pair scans do.
        search, nodes = walk
        info, graph, circuit = search.info, search.graph, search.circuit
        for node in nodes:
            assert ([move[0] for move in minimal_unscheduled(info, node.progress, False)[0]]
                    == reference_minimal_unscheduled(circuit, node.progress))
            assert (bound_swaps(node, search.rows[node.progress], graph)
                    == reference_bound_swaps(node, circuit, graph))

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

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_swaps_bound_admissible_inside(self, data):
        # Inside the tree, where the hole term applies: a node with a qubit
        # still unplaced and a gate on it left, on a path, cycle, star,
        # complete graph or random tree with free nodes to spare.  Its bound is at most the SWAP count of the best
        # completion of it, from the store-less search rooted there.  A
        # 3-node graph is left out: with fewer qubits than nodes its one
        # qubit pair is placed by the first gate.
        n = data.draw(st.integers(4, 5))
        line = [(v - 1, v) for v in range(2, n + 1)]
        edges = data.draw(st.sampled_from([
            line, line + [(n, 1)], [(1, v) for v in range(2, n + 1)],
            list(itertools.combinations(range(1, n + 1), 2)), None]))
        if edges is None:       # a random tree
            edges = [(data.draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
        graph = HardwareGraph(n, edges)
        k = data.draw(st.integers(3, n - 1))
        gates = data.draw(st.lists(st.sampled_from(list(itertools.permutations(range(1, k + 1), 2))),
                                   min_size=2, max_size=6))
        circuit = Circuit(k, tuple(GateSpec(i, pq, 4) for i, pq in enumerate(gates, 1)))
        search = _Search(circuit, graph, swaps_config(layered=data.draw(st.booleans())))
        node, inside = search.root(), []
        for pick in data.draw(st.lists(st.integers(0, 10 ** 6), max_size=8)):
            children = built(search, node)
            if not children:
                break
            node = children[pick % len(children)]
            if node.num_scheduled < len(gates) and any(
                    not node.progress[q] for g in gates for q in g):
                inside.append(node)
        assume(inside)
        node = data.draw(st.sampled_from(inside))
        search.root = lambda: node
        best = _run(search, None, time.monotonic(), None)
        assert best.status == "optimal"
        assert bound_swaps(node, search.rows[node.progress], graph) <= best.swap_count

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_depth_and_combined_bounds_admissible_inside(self, data):
        # As above under a depth weight, alone and with a SWAP weight, with
        # varied gate and SWAP durations: an interior node's scaled bound is
        # at most the objective of its best completion.  A SWAP duration of
        # 0 is left out: a store-less search can then take free SWAPs for a
        # long time.
        n = data.draw(st.integers(4, 5))
        line = [(v - 1, v) for v in range(2, n + 1)]
        edges = data.draw(st.sampled_from([
            line, line + [(n, 1)], [(1, v) for v in range(2, n + 1)],
            list(itertools.combinations(range(1, n + 1), 2)), None]))
        if edges is None:       # a random tree
            edges = [(data.draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
        graph = HardwareGraph(n, edges)
        k = data.draw(st.integers(3, n))
        pairs = st.sampled_from(list(itertools.permutations(range(1, k + 1), 2)))
        gates = data.draw(st.lists(st.tuples(pairs, st.integers(1, 5)), min_size=2, max_size=6))
        circuit = Circuit(k, tuple(GateSpec(i, pq, d) for i, (pq, d) in enumerate(gates, 1)))
        config = data.draw(st.sampled_from([depth_config, lambda **kw: SolverConfig(
            w_depth=1, w_swaps=Fraction(1, 2), **kw)]))
        search = _Search(circuit, graph, config(swap_duration=data.draw(st.integers(1, 6)),
                                                layered=data.draw(st.booleans())))
        node, inside = search.root(), []
        for pick in data.draw(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=8)):
            children = built(search, node)
            node = children[pick % len(children)]
            if node.num_scheduled == len(gates):
                break
            inside.append(node)
        node = data.draw(st.sampled_from(inside))     # the root's children are all inside
        search.root = lambda: node
        best = _run(search, None, time.monotonic(), None)
        assert best.status == "optimal"
        assert search.bound(node) <= search.scale * best.objective_value


class TestProgressMemos:
    """What a progress vector alone decides is derived once per search,
    from one pass over the gate list, and kept in one memo (`_Search.rows`):
    its moves, heads, pair rows and holes."""

    @given(walks(objectives=tuple(CONFIGS)))
    @settings(max_examples=150, deadline=None)
    def test_rows_match_their_definitions(self, walk):
        search, nodes = walk
        circuit, info = search.circuit, search.info
        delta, pos, per_qubit = reference_delta(circuit), gate_positions(circuit), qubit_gates(circuit)
        for node in nodes:
            prog = node.progress
            search.children(node)
            # The minimal gates (in layered mode, of the lowest layer with a
            # gate unscheduled), each with the progress after it.
            gates = reference_minimal_unscheduled(circuit, prog)
            if search.config.layered:
                low = min((info.layer[i] for q, seq in per_qubit.items() for i in seq[prog[q]:]),
                          default=None)
                gates = [i for i in gates if info.layer[i] == low]
            moves = []
            for i in gates:
                gate, after = circuit.gates[i - 1], list(prog)
                for q in gate.qubits:
                    after[q] += 1
                moves.append((i, *gate.qubits, gate.duration, search.pack(after)))
            row = search.rows[prog]
            assert row[0] == tuple(moves)

            def work(q, to):            # q's gate durations from its progress to position `to`
                return sum(circuit.gates[i - 1].duration for i in per_qubit[q][prog[q]:to])

            _, heads, pairs, holes, hole_pairs = row
            assert heads == (0, *(delta[seq[prog[q]]] if prog[q] < len(seq) else 0
                                  for q, seq in per_qubit.items()))
            # A qubit is placed exactly when it has run a gate.
            assert [a > 0 for a in node.assignment] == [k > 0 for k in prog]
            # One row per qubit pair with a gate still to run, in the order
            # of `first`, the pair's first unscheduled gate, with (p, q) the
            # qubit order of `first`; the row keeps the placed pairs.  The
            # holes are the placed qubits of the pairs with one qubit
            # placed, once each, in the same order, and the hole pairs are
            # those pairs, placed qubit first.
            firsts = {}                 # unordered pair -> its first unscheduled gate
            for g in circuit.gates:
                if pos[g.id][g.qubits[0]] >= prog[g.qubits[0]]:
                    firsts.setdefault(frozenset(g.qubits), g.id)
            expected, expected_holes, expected_hole_pairs = [], {}, []
            for first in sorted(firsts.values()):
                p, q = circuit.gates[first - 1].qubits
                if prog[p] and prog[q]:
                    expected.append((p, q, delta[first], work(p, pos[first][p]),
                                     work(q, pos[first][q])))
                elif prog[p] or prog[q]:
                    if not prog[p]:
                        p, q = q, p
                    expected_holes[p] = None
                    expected_hole_pairs.append((p, delta[first], work(p, pos[first][p]),
                                                work(q, pos[first][q])))
            assert pairs == tuple(expected)
            assert holes == tuple(expected_holes)
            assert hole_pairs == tuple(expected_hole_pairs)
            # No pair row holds an unplaced qubit, the holes are exactly the
            # placed qubits with an unscheduled gate on an unplaced one, and
            # there is a hole pair for each such unordered pair.
            assert all(prog[p] and prog[q] for p, q, *_ in pairs)
            placed_unplaced = {(p, q) for g in circuit.gates for p, q in (g.qubits, g.qubits[::-1])
                               if pos[g.id][p] >= prog[p] and prog[p] and not prog[q]}
            assert set(holes) == {p for p, _ in placed_unplaced}
            assert len(hole_pairs) == len(placed_unplaced)

    @given(walks(objectives=tuple(CONFIGS)))
    @settings(max_examples=100, deadline=None)
    def test_a_filled_memo_answers_as_a_fresh_one(self, walk):
        # `search` lists and bounds every child along the walk first, so
        # each node's rows come from whichever node had its progress
        # first; a fresh search derives them from the node itself.
        search, nodes = walk
        for node in nodes:
            for kid in built(search, node):
                search.bound(kid)
        for node in reversed(nodes):
            fresh = _Search(search.circuit, search.graph, search.config)
            assert search.children(node) == fresh.children(node)
            assert search.bound(node) == fresh.bound(node)

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_a_memo_belongs_to_one_search(self, reverse):
        # One Circuit object, solved layered and not, at two SWAP
        # durations: each solve searches exactly as it does alone.
        circuit = gen_random_circuit(InstanceSpec("linear:5", 5, 10, 0))
        graph = parse_topology("linear:5")
        runs = [(True, 15, 53, (20, 85, 14, 2)), (False, 15, 53, (29, 122, 23, 5)),
                (True, 6, 44, (15, 64, 9, 0)), (False, 6, 44, (25, 114, 13, 2))]
        for layered, d_s, value, counts in reversed(runs) if reverse else runs:
            r = solve(circuit, graph, depth_config(layered=layered, swap_duration=d_s))
            assert outcome(r) == ("optimal", value, counts)


class TestFractionalWeights:
    W_DEPTH, W_SWAPS = Fraction(1, 3), Fraction(5, 2)

    def solve_all(self, graph, scale=1, run=solve):
        config = SolverConfig(w_depth=self.W_DEPTH * scale, w_swaps=self.W_SWAPS * scale)
        return [run(c, graph, config) for _, c in tiny_instances(4, seed_base=800)]

    def test_objective_is_exact(self, linear4):
        for r in self.solve_all(linear4):
            assert r.status == "optimal"
            assert isinstance(r.objective_value, Fraction)
            assert r.objective_value == (self.W_DEPTH * r.makespan
                                         + self.W_SWAPS * r.swap_count)

    def test_scaled_weights_search_the_same_nodes(self, linear4):
        for a, b in zip(self.solve_all(linear4), self.solve_all(linear4, scale=7)):
            assert b.objective_value == 7 * a.objective_value
            assert outcome(b)[2] == outcome(a)[2]

    def test_pareto_off_same_optimum(self, linear4):
        for a, b in zip(self.solve_all(linear4),
                        self.solve_all(linear4, run=solve_without_store)):
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
        b = solve_without_store(circuit, graph, swaps_config(layered=layered, swap_duration=d_s))
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

# A 6-node star and a 6-cycle, where many children are fixed by a
# nontrivial automorphism and so attain their class key in more than one
# frame; built per draw, so no test shares their caches.
STAR6_EDGES = [(1, i) for i in range(2, 7)]
SYMMETRIC_GRAPHS = st.sampled_from([STAR6_EDGES, [(i, i % 6 + 1) for i in range(1, 7)]]).map(
    lambda edges: HardwareGraph(6, edges))


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

    @given(instances(max_gates=5, graphs=st.one_of(topologies("grid:2x2", "y:4", "grid:2x3"),
                                                   SYMMETRIC_GRAPHS)),
           st.sampled_from(["depth", "swaps", "combined"]), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_symmetric_store_matches_no_store(self, instance, objective, layered):
        circuit, graph = instance
        a = solve_both_ways(circuit, graph, objective, layered)
        b = solve_without_store(circuit, graph, CONFIGS[objective](layered=layered))
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
        # A graph with no automorphism but the identity, where the store
        # keys each state by itself: the search with no symmetry to merge.
        graph = HardwareGraph(7, [(1, 4), (1, 5), (2, 3), (2, 4), (2, 7), (3, 6),
                                  (4, 5), (5, 6)])
        circuit = gen_random_circuit(InstanceSpec("linear:7", 6, 10, 0))
        for config, counts in ((depth_config(), (632, 3916, 1937, 77)),
                               (swaps_config(), (101, 778, 114, 15))):
            assert outcome(solve(circuit, graph, config))[2] == counts


def exact_search(monkeypatch, byte_max, circuit, graph, config):
    """The `outcome` of a solve with the byte limit at `byte_max`, and the
    sha256 of the (key, -num_scheduled, swap_count, insert count) tuples it
    pushes on its open list.  The pinned instances keep their states in
    bytes at the default limit, and in tuples at 0, where none fits; both
    must run the same search."""
    monkeypatch.setattr(solver, "BYTE_MAX", byte_max)
    assert _Search(circuit, graph, config).pack is (bytes if byte_max else tuple)
    pushed = []

    def heappush(heap, entry):
        pushed.append(entry[:4])
        heapq.heappush(heap, entry)

    monkeypatch.setattr(solver, "heapq", SimpleNamespace(heappush=heappush,
                                                         heappop=heapq.heappop))
    result = outcome(solve(circuit, graph, config))
    return (*result, hashlib.sha256(repr(pushed).encode()).hexdigest())


STAR_HEAP_DIGEST = "df898df5a59d75f938d9d2502990ffa7d19eef525d3306cbcc367ee7e7940d67"


def pinned_solve(topology, qubits, config):
    """The `outcome` of a solve of the seed-0 random circuit with depth
    parameter 10."""
    circuit = gen_random_circuit(InstanceSpec(topology, qubits, 10, 0))
    return outcome(solve(circuit, parse_topology(topology), config))


def rows(table, objectives):
    """The rows of `objectives` in a pinned table as pytest params: each its
    key's inputs and then its value and counts, which pytest's ids show."""
    return [(*key, value, counts) for key, (value, counts) in table.items()
            if key[2] in objectives]


def pinned(table):
    """A pinned table as pytest params, each its key's inputs and then its
    expected values, with an id built from the key alone (as in
    `grid:2x3-6-swaps-layered`), so that re-recording a row keeps its id."""
    params = []
    for key, expected in table.items():
        topology, qubits, objective, layered, *width = key
        name = [topology, str(qubits), objective, "layered" if layered else "plain", *map(str, width)]
        params.append(pytest.param(*key, *expected, id="-".join(name)))
    return params


# The exact search: (topology, qubits, objective, layered) -> (optimum,
# (expanded, inserted, pruned, replaced), sha256 of the pushed heap entries
# as `exact_search` gives it).
EXACT_ROWS = {
    ("linear:5", 5, "depth", False): (
        53, (29, 122, 23, 5), "d2cfe62704eada0f7729e9d838125a968be67c4f4ec0440e8d199753e0d45da4"),
    ("linear:5", 5, "depth", True): (
        53, (20, 85, 14, 2), "7d0411343635c091216fafada5ec24e69b521a979f090a7e1a9a1ad14e40597b"),
    ("linear:5", 5, "swaps", False): (
        1, (16, 39, 6, 1), "2336f4e9d6cbe004d7b86488c692e96691dd458f19c2b55f0c879d6d876385a6"),
    ("linear:5", 5, "swaps", True): (
        1, (14, 37, 6, 1), "d711bfabe2c9b386ac4302471b168c93b9054a7fef05829d298e6f9e33ce6051"),
    ("grid:2x3", 6, "depth", False): (
        45, (118, 703, 306, 11), "4fed936044a095db56f489824d5dca2c21f40ee48a4931b17c4a0b46d1ff0d49"),
    ("grid:2x3", 6, "depth", True): (
        45, (86, 495, 207, 14), "e6e1a07c09990204064d3458a533fbf1dbea555706b4607b0126f25cd76c87b7"),
    ("grid:2x3", 6, "swaps", False): (
        1, (27, 149, 61, 1), "3649d525dd26fbc1db406f4afb686551997283c247944916175f031ecc00f186"),
    ("grid:2x3", 6, "swaps", True): (
        1, (18, 66, 72, 0), "696869bb5786ec2d9d1479e305047ada0e636ccab35cf1365c3b7523879586da"),
    ("y:6", 6, "depth", False): (
        64, (504, 1643, 1257, 58), "795f1e36c68fe9d38d118d500fb30687f8d5badc1156a1287be0bae62ea34872"),
    ("y:6", 6, "depth", True): (
        64, (303, 978, 638, 45), "447d5451bc0bc8afd2afb3762c222c73a21d5f3b551796190d8b2cfb219208c6"),
    ("y:6", 6, "swaps", False): (
        2, (60, 250, 96, 12), "a56bda8bb024185e1cb65b6fae7e3d6559691dfbb1f3d2093b2f17094e696d3b"),
    ("y:6", 6, "swaps", True): (
        2, (38, 129, 79, 6), "04eb2deedd8a78144fa12fed99b855a1730ae40755c1fdde6a9b1806c57ff5d2"),
    ("linear:5", 5, "combined", False): (
        63, (29, 120, 25, 3), "58c12d5c2cc3c94cf6aade781983ed83a7e9af59dddc3e14e98554996961b558"),
    ("linear:5", 5, "combined", True): (
        63, (20, 85, 14, 2), "cb312994ffe32f12473e7b0b5243522423e4af825c2602c196a87c27ea6b54d0"),
    ("grid:2x3", 6, "combined", False): (
        59, (108, 642, 330, 4), "62af4338c4db033be7a8d538dc4732c0e88c45af445e69e42410e0f6e6aac3ae"),
    ("grid:2x3", 6, "combined", True): (
        59, (62, 366, 151, 5), "ff6a335a45e851394ef3fbd88facfc58670bab5769811b9fd040d66cf2a3baf4"),
    ("y:6", 6, "combined", False): (
        84, (240, 877, 597, 15), "34d83378fc84bc2ae29921f5e9dbc0e8c623b26dc0f42774e98c08436f08e4a4"),
    ("y:6", 6, "combined", True): (
        84, (116, 461, 206, 16), "860893dbc1f1322e66b6d030ba1c576550208fa5b2ab0ff3d68a597227119bd7"),
}

# The beam search: (topology, qubits, objective, layered, width) ->
# (incumbent value, (expanded, inserted, pruned, replaced)).
BEAM_ROWS = {
    ("linear:5", 5, "depth", False, 1): (89, (14, 56, 5, 0)),
    ("linear:5", 5, "depth", False, 2): (85, (22, 80, 16, 0)),
    ("linear:5", 5, "depth", False, 8): (53, (29, 122, 23, 5)),
    ("linear:5", 5, "depth", True, 1): (89, (14, 57, 5, 0)),
    ("linear:5", 5, "depth", True, 2): (53, (15, 68, 10, 0)),
    ("linear:5", 5, "depth", True, 8): (53, (20, 85, 14, 2)),
    ("linear:5", 5, "swaps", False, 1): (5, (15, 42, 7, 0)),
    ("linear:5", 5, "swaps", False, 2): (1, (16, 39, 6, 1)),
    ("linear:5", 5, "swaps", False, 8): (1, (16, 39, 6, 1)),
    ("linear:5", 5, "swaps", True, 1): (11, (21, 62, 6, 0)),
    ("linear:5", 5, "swaps", True, 2): (1, (14, 37, 6, 1)),
    ("linear:5", 5, "swaps", True, 8): (1, (14, 37, 6, 1)),
    ("linear:5", 5, "combined", False, 1): (251, (20, 75, 12, 0)),
    ("linear:5", 5, "combined", False, 2): (79, (19, 83, 9, 1)),
    ("linear:5", 5, "combined", False, 8): (63, (26, 111, 23, 2)),
    ("linear:5", 5, "combined", True, 1): (204, (18, 69, 9, 0)),
    ("linear:5", 5, "combined", True, 2): (79, (16, 68, 9, 1)),
    ("linear:5", 5, "combined", True, 8): (63, (20, 85, 14, 2)),
    ("grid:2x3", 6, "depth", False, 1): (45, (12, 104, 24, 0)),
    ("grid:2x3", 6, "depth", False, 2): (45, (15, 128, 26, 0)),
    ("grid:2x3", 6, "depth", False, 8): (45, (43, 310, 101, 1)),
    ("grid:2x3", 6, "depth", True, 1): (137, (25, 159, 38, 0)),
    ("grid:2x3", 6, "depth", True, 2): (85, (30, 197, 45, 0)),
    ("grid:2x3", 6, "depth", True, 8): (50, (55, 339, 118, 2)),
    ("grid:2x3", 6, "swaps", False, 1): (1, (11, 52, 21, 0)),
    ("grid:2x3", 6, "swaps", False, 2): (1, (12, 59, 23, 0)),
    ("grid:2x3", 6, "swaps", False, 8): (1, (26, 147, 54, 1)),
    ("grid:2x3", 6, "swaps", True, 1): (1, (11, 46, 22, 0)),
    ("grid:2x3", 6, "swaps", True, 2): (1, (12, 53, 25, 0)),
    ("grid:2x3", 6, "swaps", True, 8): (1, (18, 66, 72, 0)),
    ("grid:2x3", 6, "combined", False, 1): (59, (11, 99, 22, 0)),
    ("grid:2x3", 6, "combined", False, 2): (59, (14, 123, 24, 0)),
    ("grid:2x3", 6, "combined", False, 8): (59, (38, 299, 83, 1)),
    ("grid:2x3", 6, "combined", True, 1): (59, (11, 88, 22, 0)),
    ("grid:2x3", 6, "combined", True, 2): (59, (14, 108, 27, 1)),
    ("grid:2x3", 6, "combined", True, 8): (59, (28, 176, 82, 1)),
}

# The exact search stopped by its clock after as many turns of its loop as
# the exact row of the same key expands: (topology, qubits, objective,
# layered) -> (status, incumbent value, (expanded, inserted, pruned, replaced)).
TIME_LIMITED_ROWS = {
    ("linear:5", 5, "depth", False): ("incumbent", 53, (29, 122, 23, 5)),
    ("linear:5", 5, "depth", True): ("incumbent", 53, (20, 85, 14, 2)),
    ("linear:5", 5, "swaps", False): ("incumbent", 1, (16, 39, 6, 1)),
    ("linear:5", 5, "swaps", True): ("incumbent", 1, (14, 37, 6, 1)),
    ("linear:5", 5, "combined", False): ("incumbent", 63, (29, 120, 25, 3)),
    ("linear:5", 5, "combined", True): ("incumbent", 63, (20, 85, 14, 2)),
    ("grid:2x3", 6, "depth", False): ("incumbent", 45, (118, 703, 306, 11)),
    ("grid:2x3", 6, "depth", True): ("incumbent", 45, (86, 495, 207, 14)),
    ("grid:2x3", 6, "swaps", False): ("incumbent", 1, (27, 149, 61, 1)),
    ("grid:2x3", 6, "swaps", True): ("incumbent", 1, (18, 66, 72, 0)),
    ("grid:2x3", 6, "combined", False): ("incumbent", 59, (108, 642, 330, 4)),
    ("grid:2x3", 6, "combined", True): ("incumbent", 59, (62, 366, 151, 5)),
    ("y:6", 6, "depth", False): ("timeout", None, (481, 1564, 1214, 57)),
    ("y:6", 6, "depth", True): ("timeout", None, (275, 887, 583, 43)),
    ("y:6", 6, "swaps", False): ("timeout", None, (59, 249, 96, 12)),
    ("y:6", 6, "swaps", True): ("incumbent", 2, (38, 129, 79, 6)),
    ("y:6", 6, "combined", False): ("timeout", None, (239, 871, 597, 15)),
    ("y:6", 6, "combined", True): ("timeout", None, (114, 448, 206, 16)),
}


class TestSearchPinned:
    """The search itself, not only its answers: a change that only makes
    the search faster must expand, insert, prune and replace exactly the
    nodes of these tables, one per kind of search (exact, beam and
    time-limited).  The exact rows also pin the sequence of heap entries
    pushed, so that a reordering with equal counts fails too, and run under
    both state representations."""

    @pytest.mark.parametrize("topology, qubits, objective, layered, value, counts, digest",
                             pinned(EXACT_ROWS))
    @pytest.mark.parametrize("byte_max", [solver.BYTE_MAX, 0], ids=["bytes", "tuples"])
    def test_counts(self, monkeypatch, topology, qubits, objective, layered, value, counts,
                    digest, byte_max):
        circuit = gen_random_circuit(InstanceSpec(topology, qubits, 10, 0))
        assert exact_search(monkeypatch, byte_max, circuit, parse_topology(topology),
                            CONFIGS[objective](layered=layered)) == ("optimal", value, counts, digest)

    @pytest.mark.parametrize("byte_max", [solver.BYTE_MAX, 0], ids=["bytes", "tuples"])
    def test_symmetric_star_counts(self, monkeypatch, byte_max):
        # A 6-node star, where a child is often fixed by a nontrivial
        # automorphism: the store compares it in the first frame attaining
        # its class key only.
        circuit = gen_random_circuit(InstanceSpec("linear:6", 5, 10, 0))
        assert exact_search(monkeypatch, byte_max, circuit, HardwareGraph(6, STAR6_EDGES),
                            depth_config()) == ("optimal", 76, (278, 771, 644, 10), STAR_HEAP_DIGEST)

    @pytest.mark.parametrize("topology, qubits, objective, layered, width, value, counts",
                             rows(BEAM_ROWS, ["depth"]))
    def test_beam_counts(self, topology, qubits, objective, layered, width, value, counts):
        # The depth rows, whose bound never calls bound_swaps.
        config = CONFIGS[objective](layered=layered, beam_width=width)
        assert pinned_solve(topology, qubits, config) == ("incumbent", value, counts)

    @pytest.mark.parametrize("topology, qubits, objective, layered, width, value, counts",
                             rows(BEAM_ROWS, ["swaps", "combined"]))
    def test_beam_counts_with_holes(self, topology, qubits, objective, layered, width, value,
                                    counts):
        # The swaps and combined rows, whose bound_swaps reads the holes.
        config = CONFIGS[objective](layered=layered, beam_width=width)
        assert pinned_solve(topology, qubits, config) == ("incumbent", value, counts)

    @pytest.mark.parametrize("topology, qubits, objective, layered, status, value, counts",
                             pinned(TIME_LIMITED_ROWS))
    def test_time_limited_incumbent(self, monkeypatch, topology, qubits, objective, layered,
                                    status, value, counts):
        # A clock that ticks once per reading stops the search after as many
        # turns of its loop as the exact run expands: the run ends on the
        # incumbent it holds, or on no schedule at all.
        _, (limit, *_), _ = EXACT_ROWS[topology, qubits, objective, layered]
        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=itertools.count().__next__))
        config = CONFIGS[objective](layered=layered, time_limit=limit)
        assert pinned_solve(topology, qubits, config) == (status, value, counts)

    @pytest.mark.parametrize("layered", [False, True], ids=["plain", "layered"])
    @pytest.mark.parametrize("objective", ["depth", "swaps", "combined"])
    @pytest.mark.parametrize("topology, qubits", [("linear:5", 5), ("grid:2x3", 6),
                                                  ("y:6", 6)])
    def test_traced_names_are_called(self, monkeypatch, topology, qubits, objective, layered):
        # perfbench times the search's layers by wrapping these module
        # globals; a search that bypassed one would empty its metric.  The
        # minimal gates are derived once per distinct progress vector of a
        # bounded node; every expanded node was bounded first.
        calls, expanded_progress, bounded_progress = Counter(), [], set()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                if name != "minimal_unscheduled":
                    bounded_progress.add(args[0].progress)
                return fn(*args)
            return wrapper

        def children(search, node):
            expanded_progress.append(node.progress)
            return listing(search, node)

        for name in ("minimal_unscheduled", "bound_depth", "bound_swaps"):
            monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
        listing = _Search.children
        monkeypatch.setattr(_Search, "children", children)
        config = CONFIGS[objective](layered=layered)
        _, _, (expanded, inserted, _, _) = pinned_solve(topology, qubits, config)
        assert len(expanded_progress) == expanded
        assert set(expanded_progress) <= bounded_progress
        assert calls == Counter({"minimal_unscheduled": len(bounded_progress),
                                 "bound_depth": inserted if config.w_depth else 0,
                                 "bound_swaps": inserted if config.w_swaps else 0})

    @pytest.mark.parametrize("objective", ["depth", "swaps", "combined"])
    def test_one_pass_over_the_gates_per_vector(self, monkeypatch, objective):
        # A solve iterates over the gate list once per distinct progress
        # vector of a bounded node (every expanded node was bounded first),
        # whichever of the bound and the child listing asks for it first.
        passes, vectors = [0], set()

        class CountedGates(tuple):
            def __iter__(self):
                passes[0] += 1
                return super().__iter__()

        def counted(circuit):
            info = analyze(circuit)
            return PrecedenceInfo(CountedGates(info.gates), info.layer, info.delta)

        def recording(fn):
            def wrapper(node, *args):
                vectors.add(node.progress)
                return fn(node, *args)
            return wrapper

        analyze = solver.analyze
        monkeypatch.setattr(solver, "analyze", counted)
        for name in ("bound_depth", "bound_swaps"):
            monkeypatch.setattr(solver, name, recording(getattr(solver, name)))
        assert pinned_solve("grid:2x3", 6, CONFIGS[objective]())[0] == "optimal"
        assert passes[0] == len(vectors) > 1


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
                node = child(other, node, walked.gate_index, walked.edge)
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


class TestWideStates:
    """Inputs whose states do not fit in bytes, more than 255 nodes or more
    than 255 gates on one qubit, are searched with tuple states."""

    def check(self, circuit, graph, config, makespan, swaps):
        assert _Search(circuit, graph, config).pack is tuple
        r = solve(circuit, graph, config)
        assert (r.status, r.makespan, r.swap_count) == ("optimal", makespan, swaps)
        assert validate(r.schedule, circuit, graph).ok
        m = compute_metrics(r.schedule)
        assert (m.depth, m.swaps) == (makespan, swaps)

    @pytest.mark.parametrize("config", [depth_config(), depth_config(layered=True),
                                        swaps_config()], ids=["depth", "layered", "swaps"])
    def test_more_than_255_nodes(self, config):
        # Qubits 2, 1, 3, 4 on four nodes in a row run the three gates in
        # two steps of 4 with no SWAP, and gate 3 waits for gates 1 and 2.
        circuit = parse_circuit(json.dumps({"num_qubits": 4, "gates": [
            {"q": [1, 2]}, {"q": [3, 4]}, {"q": [1, 3]}]}))
        self.check(circuit, parse_topology("linear:300"), config, 8, 0)

    def test_more_than_255_gates_on_a_qubit(self):
        # One pair's gates run one after another: the makespan is the sum
        # of their durations.
        circuit = Circuit(2, tuple(GateSpec(i, (1, 2), 4) for i in range(1, 301)))
        self.check(circuit, parse_topology("linear:2"), depth_config(), 1200, 0)


class TestCompleteNodes:
    """At a complete node the bound is the objective, so the search takes
    a complete child's heap key as its objective."""

    @given(walks(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_bound_is_the_objective(self, walk, rng):
        search, nodes = walk
        circuit, graph, node = search.circuit, search.graph, nodes[-1]
        # Walk on to a complete node, taking a gate child whenever there is one.
        while node.num_scheduled < circuit.num_gates:
            children = built(search, node)
            node = rng.choice([c for c in children if c.gate_index != SWAP] or children)
        kw = {"layered": search.config.layered, "swap_duration": search.config.swap_duration}
        for config in (depth_config(**kw), swaps_config(**kw), combined_config(**kw),
                       SolverConfig(w_depth=Fraction(1, 3), w_swaps=Fraction(5, 2), **kw)):
            other = _Search(circuit, graph, config)
            r = _result(other, node, SolveStats(), "optimal")
            objective = config.w_depth * r.makespan + config.w_swaps * r.swap_count
            assert other.bound(node) == other.scale * objective
            assert r.objective_value == objective
        assert validate(r.schedule, circuit, graph).ok
        m = compute_metrics(r.schedule)
        assert (m.depth, m.swaps) == (r.makespan, r.swap_count)


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
            del result, graph
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
        def failing_run(search, beam, t0, store):
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


class TestDenseGraph:
    def test_small_circuit_allocates_only_what_the_search_reaches(self):
        # On the complete graph K_50 (1,225 edges, 32 automorphisms kept) a
        # 3-gate circuit routes with no SWAP in 3 expansions.  Per-edge
        # tables of num_nodes + 1 entries built up front, one per edge and
        # automorphism, peak at 22 MB here; the solve itself at 3-5 MB.
        n = 50
        graph = HardwareGraph(n, itertools.combinations(range(1, n + 1), 2))
        circuit = Circuit(4, tuple(GateSpec(i, pq, 4)
                                   for i, pq in enumerate([(1, 2), (3, 4), (1, 3)], 1)))
        tracemalloc.start()
        try:
            result = solve(circuit, graph, swaps_config())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.status, result.objective_value) == ("optimal", 0)
        assert peak < 10_000_000

    @pytest.mark.parametrize("topology, most_pairs", [("grid:6x6", 34), ("linear:64", 123)])
    def test_depth_bound_enumerates_few_paths_on_large_hardware(self, topology, most_pairs):
        # The same circuit under the depth objective, where the hole term
        # could enumerate the chordless paths to every free node.  Path
        # enumeration does not read the clock, so the guard counts the
        # unordered node pairs in `paths`, not time: no more than the search
        # without the hole term enumerated (34 and 123).
        graph = parse_topology(topology)
        circuit = Circuit(4, tuple(GateSpec(i, pq, 4)
                                   for i, pq in enumerate([(1, 2), (3, 4), (1, 3)], 1)))
        result = solve(circuit, graph, depth_config())
        assert (result.status, result.objective_value) == ("optimal", 8)
        assert len(path_pairs(graph)) <= most_pairs


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
                b = solve_without_store(circuit, linear4, depth_config(layered=layered))
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
        assert _run(_Search(circuit, linear4, depth_config()), 1, 0.0, {}) is None
        # ... so `solve` searches again at width 2, and returns that search.
        r = solve(circuit, linear4, depth_config(beam_width=1))
        wide = solve(circuit, linear4, depth_config(beam_width=2))
        assert validate(r.schedule, circuit, linear4).ok
        assert outcome(r) == outcome(wide)
        assert outcome(r)[:2] == ("incumbent", 48)
        assert r.schedule == wide.schedule

    def test_beam_unbounded_matches_exact(self, example_circuit, linear4):
        exact = solve(example_circuit, linear4, depth_config())
        wide = solve(example_circuit, linear4, depth_config(beam_width=10000))
        assert wide.objective_value == exact.objective_value

    def test_determinism(self, linear4):
        for spec, circuit in tiny_instances(3, seed_base=500):
            a = solve(circuit, linear4, depth_config())
            b = solve(circuit, linear4, depth_config())
            assert a.schedule == b.schedule
            assert outcome(a) == outcome(b)

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
