import itertools
import time
import tracemalloc
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from qmproute import hardware
from qmproute.circuit import Circuit, GateSpec
from qmproute.hardware import (AUTOMORPHISM_CAP, HardwareError, HardwareGraph,
                               parse_graph, parse_topology)
from qmproute.schedule import Schedule, ScheduledOp, validate

from conftest import UNDECODABLE


def as_nx(graph):
    g = nx.Graph()
    g.add_nodes_from(range(1, graph.num_nodes + 1))
    g.add_edges_from(graph.edges)
    return g


def naive_chordless_paths(graph, v, w):
    """Oracle: all simple paths, filtered by the no-chord condition."""
    g = as_nx(graph)
    out = []
    for path in nx.all_simple_paths(g, v, w):
        chord = any(g.has_edge(path[i], path[j])
                    for i in range(len(path))
                    for j in range(i + 2, len(path)))
        if not chord:
            out.append(tuple(path))
    return sorted(out)


class TestTopologies:
    def test_linear(self):
        g = parse_topology("linear:4")
        assert g.edges == ((1, 2), (2, 3), (3, 4))

    def test_y4_is_star(self):
        g = parse_topology("y:4")
        degrees = sorted(len(g.neighbors(v)) for v in range(1, 5))
        assert degrees == [1, 1, 1, 3]
        assert len(g.neighbors(1)) == 3   # node 1 is the center

    def test_y6_arms(self):
        g = parse_topology("y:6")
        assert len(g.edges) == 5
        assert len(g.neighbors(1)) == 3

    def test_grid_2x3(self):
        g = parse_topology("grid:2x3")
        assert len(g.edges) == 7
        assert max(len(g.neighbors(v)) for v in range(1, 7)) == 3

    def test_invalid_sizes(self):
        with pytest.raises(HardwareError):
            parse_topology("linear:1")
        with pytest.raises(HardwareError):
            parse_topology("y:3")
        with pytest.raises(HardwareError, match="grid dimensions must be positive"):
            parse_topology("grid:0x3")
        with pytest.raises(HardwareError, match="linear spec takes a single size"):
            parse_topology("linear:4x5")

    def test_edges_match_their_definitions(self):
        # Row-major grid neighbours; a line; y's three arms, each a chain
        # off the center holding every third node from 2, 3 and 4 on.
        def arms(n):
            for start in (2, 3, 4):
                chain = [1, *range(start, n + 1, 3)]
                yield from zip(chain, chain[1:])
        specs = [(f"linear:{n}", [(i, i + 1) for i in range(1, n)]) for n in range(2, 40)]
        specs += [(f"y:{n}", arms(n)) for n in range(4, 40)]
        specs += [(f"grid:{r}x{c}", [(r_ * c + k, r_ * c + k + 1) for r_ in range(r)
                                     for k in range(1, c)]
                   + [(v, v + c) for v in range(1, (r - 1) * c + 1)])
                  for r in range(1, 9) for c in range(1, 9) if r * c > 1]
        for spec, edges in specs:
            assert parse_topology(spec).edges == tuple(sorted(edges)), spec

    def test_parse_topology(self):
        assert parse_topology("linear:4").num_nodes == 4
        assert parse_topology("grid:2x3").num_nodes == 6
        assert parse_topology("y:6").num_nodes == 6
        with pytest.raises(HardwareError):
            parse_topology("ring:5")
        with pytest.raises(HardwareError):
            parse_topology("grid:6")
        # Sizes are ASCII digits and the spec is the whole string: no
        # Arabic-Indic four, no trailing newline.
        for spec in ("linear:\u0664", "grid:\u0662x\u0663", "linear:4\n"):
            with pytest.raises(HardwareError, match="bad topology spec"):
                parse_topology(spec)


class TestDistances:
    def test_linear_endpoints(self):
        g = parse_topology("linear:4")
        assert g.dist[1][4] == 3

    def test_y4_leaf_to_leaf(self):
        g = parse_topology("y:4")
        assert g.dist[2][3] == 2

    def test_identity(self):
        g = parse_topology("grid:2x3")
        assert all(g.dist[v][v] == 0 for v in range(1, 7))

    def test_symmetry_and_triangle(self):
        g = parse_topology("grid:2x3")
        for v, w, u in itertools.product(range(1, 7), repeat=3):
            assert g.dist[v][w] == g.dist[w][v]
            assert g.dist[v][w] <= g.dist[v][u] + g.dist[u][w]

    def test_rows_are_lists(self):
        g = parse_topology("y:6")
        assert len(g.dist) == 7 and all(type(row) is list for row in g.dist)
        assert g.dist[4] == [-1, 1, 2, 2, 0, 3, 3]

    def test_disconnected_rejected(self):
        with pytest.raises(HardwareError, match="connected"):
            HardwareGraph(4, [(1, 2), (3, 4)])

    @pytest.mark.parametrize("num_nodes, edges, match", [
        (0, [], "graph needs at least one node"),
        (2, [(1, 1), (1, 2)], "self-loop at node 1"),
        (2, [(1, 3)], r"edge \(1,3\) out of range"),
        # Enough edges for the count check; the BFS from node 1 misses node 4.
        (4, [(1, 2), (2, 3), (1, 3)], "hardware graph must be connected"),
    ], ids=["no-nodes", "self-loop", "out-of-range", "unreached-node"])
    def test_bad_graph_rejected(self, num_nodes, edges, match):
        with pytest.raises(HardwareError, match=match):
            HardwareGraph(num_nodes, edges)

    def test_no_table_until_a_bound_reads_it(self):
        # Edges, validation and automorphisms read adjacency only: on a
        # 3,000-node line the table would hold 9 million entries.
        circuit = Circuit(4, (GateSpec(1, (1, 2), 4), GateSpec(2, (3, 4), 4),
                              GateSpec(3, (1, 3), 4)))
        schedule = Schedule(ops=(ScheduledOp(1, (2, 1), 0, 4), ScheduledOp(2, (3, 4), 0, 4),
                                 ScheduledOp(3, (2, 3), 4, 4)), swap_duration=1)
        tracemalloc.start()
        try:
            g = parse_topology("linear:3000")
            assert all(g.has_edge(v, w) and g.has_edge(w, v) for v, w in g.edges)
            assert validate(schedule, circuit, g).ok
            assert g.automorphisms() == [(0,) + tuple(range(3000, 0, -1))]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000     # mostly the automorphism search's 3,000 levels
        assert "dist" not in vars(g)
        assert g.dist is g.dist and g.dist[1][3000] == 2999


class TestHasEdge:
    @pytest.mark.parametrize("spec", ["linear:4", "grid:2x3", "y:6"])
    def test_matches_the_edge_list(self, spec):
        g = parse_topology(spec)
        for v, w in itertools.product(range(1, g.num_nodes + 1), repeat=2):
            assert g.has_edge(v, w) == ((min(v, w), max(v, w)) in g.edges)

    @pytest.mark.parametrize("outside", [0, -1, 5])
    def test_no_edge_off_the_graph(self, outside):
        # -1 would read dist's last row, 0 its empty row 0, 5 past its end.
        g = parse_topology("linear:4")
        for v in range(-1, 6):
            assert not g.has_edge(outside, v) and not g.has_edge(v, outside)


@st.composite
def small_connected_graphs(draw):
    """A random spanning tree on 1 to 7 nodes plus any extra edges, up to the
    complete graph, whose 7! automorphisms pass the cap."""
    n = draw(st.integers(1, 7))
    edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    pairs = [(v, w) for v in range(1, n + 1) for w in range(v + 1, n + 1)]
    if pairs:
        edges += draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return HardwareGraph(n, edges)


def assert_nearest_first(g):
    """nearest[v] lists every node but v once, in nondecreasing hop
    distance from v (by networkx), and is kept."""
    for v in range(1, g.num_nodes + 1):
        order, d = g.nearest[v], nx.single_source_shortest_path_length(as_nx(g), v)
        assert sorted(order) == [w for w in range(1, g.num_nodes + 1) if w != v]
        assert all(d[a] <= d[b] for a, b in zip(order, order[1:]))
        assert g.nearest[v] is order


class TestNearestFirst:
    @pytest.mark.parametrize("spec", ["linear:7", "grid:3x4", "grid:1x5", "y:8", "y:4"])
    def test_standard_topologies(self, spec):
        assert_nearest_first(parse_topology(spec))

    @given(small_connected_graphs())
    @settings(max_examples=100, deadline=None)
    def test_random_graphs(self, g):
        assert_nearest_first(g)


class TestMinimalPaths:
    def test_unique_path_in_tree(self):
        g = parse_topology("linear:4")
        assert g.minimal_paths(1, 4) == [(1, 2, 3, 4)]

    def test_2x2_grid_diagonal(self):
        g = parse_topology("grid:2x2")
        paths = g.minimal_paths(1, 4)
        assert len(paths) == 2
        assert all(len(p) == 3 for p in paths)

    def test_one_entry_per_unordered_pair(self):
        for g in (parse_topology("grid:2x3"), parse_topology("y:6")):
            for v in range(1, g.num_nodes + 1):
                for w in range(1, g.num_nodes + 1):
                    if v == w:
                        continue
                    paths = g.minimal_paths(v, w)
                    # Either order is a hit on the one list, from the lower node.
                    assert g.minimal_paths(w, v) is paths
                    assert g.paths[v][w] is g.paths[w][v] is paths
                    assert all(p[0] == min(v, w) and p[-1] == max(v, w) for p in paths)

    @pytest.mark.parametrize("builder", [
        lambda: parse_topology("linear:5"),
        lambda: parse_topology("grid:2x3"),
        lambda: parse_topology("grid:2x4"),
        lambda: parse_topology("y:6"),
        lambda: HardwareGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3)]),
    ])
    def test_matches_naive_enumeration(self, builder):
        g = builder()
        for v in range(1, g.num_nodes + 1):
            for w in range(v + 1, g.num_nodes + 1):
                assert g.minimal_paths(v, w) == naive_chordless_paths(g, v, w)

    @given(small_connected_graphs(), st.sampled_from([1, 3, 10000]))
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_enumeration_on_random_graphs(self, g, cap):
        with mock.patch.object(hardware, "MAX_PATHS_PER_PAIR", cap):
            for v in range(1, g.num_nodes + 1):
                for w in range(v + 1, g.num_nodes + 1):
                    naive = naive_chordless_paths(g, v, w)
                    assert g.minimal_paths(v, w) == (naive if len(naive) <= cap else None)

    def test_long_path_needs_no_recursion(self):
        g = parse_topology("linear:1100")
        assert g.minimal_paths(1, 1100) == [tuple(range(1, 1101))]

    def test_every_path_chordless_and_at_least_distance(self):
        g = parse_topology("grid:2x3")
        for v in range(1, 7):
            for w in range(v + 1, 7):
                for p in g.minimal_paths(v, w):
                    assert len(p) - 1 >= g.dist[v][w]
                    for i in range(len(p) - 1):
                        assert g.has_edge(p[i], p[i + 1])
                    assert len(set(p)) == len(p)

    def test_dist_equals_min_path_length(self):
        g = parse_topology("grid:2x3")
        for v in range(1, 7):
            for w in range(v + 1, 7):
                assert g.dist[v][w] == min(len(p) - 1 for p in g.minimal_paths(v, w))

    def test_same_endpoints_rejected(self):
        with pytest.raises(HardwareError, match="distinct"):
            parse_topology("linear:4").minimal_paths(2, 2)

    def test_cap_returns_none(self, monkeypatch):
        monkeypatch.setattr(hardware, "MAX_PATHS_PER_PAIR", 1)
        g = HardwareGraph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert g.minimal_paths(1, 3) is None
        assert g.minimal_paths(3, 1) is None
        g = HardwareGraph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert g.minimal_paths(3, 1) is None
        assert g.minimal_paths(1, 3) is None


def assert_automorphisms(g):
    """Every returned permutation is a distinct non-identity automorphism in
    the documented tuple form."""
    autos = g.automorphisms()
    identity = tuple(range(g.num_nodes + 1))
    assert len(set(autos)) == len(autos) <= AUTOMORPHISM_CAP
    for sigma in autos:
        assert sigma != identity and sigma[0] == 0
        assert sorted(sigma) == list(identity)
        assert sorted(tuple(sorted((sigma[v], sigma[w]))) for v, w in g.edges) == list(g.edges)
    return autos


class TestAutomorphisms:
    @pytest.mark.parametrize("spec, group_size", [
        ("linear:5", 2), ("grid:2x3", 4), ("grid:2x2", 8), ("grid:3x3", 8),
        ("y:4", 6), ("y:7", 6), ("y:6", 2),
    ])
    def test_group_sizes(self, spec, group_size):
        # The sizes count the identity, which the list leaves out.
        assert len(assert_automorphisms(parse_topology(spec))) == group_size - 1

    @given(small_connected_graphs())
    @settings(max_examples=100, deadline=None)
    def test_matches_networkx(self, g):
        group = sum(1 for _ in GraphMatcher(as_nx(g), as_nx(g)).isomorphisms_iter())
        assert len(assert_automorphisms(g)) == min(group - 1, AUTOMORPHISM_CAP)

    def test_star_stops_at_the_cap(self):
        # The star's group has 9! elements.
        g = HardwareGraph(10, [(10, v) for v in range(1, 10)])
        t0 = time.perf_counter()
        autos = assert_automorphisms(g)
        assert time.perf_counter() - t0 < 1.0
        assert len(autos) == AUTOMORPHISM_CAP

    def test_asymmetric_graph_has_none(self):
        g = HardwareGraph(7, [(1, 4), (1, 5), (2, 3), (2, 4), (2, 7), (3, 6), (4, 5), (5, 6)])
        assert g.automorphisms() == []

    @pytest.mark.parametrize("spec, autos", [
        ("linear:5", [(0, 5, 4, 3, 2, 1)]),
        ("grid:2x3", [(0, 3, 2, 1, 6, 5, 4), (0, 4, 5, 6, 1, 2, 3), (0, 6, 5, 4, 3, 2, 1)]),
        ("grid:3x3", [(0, 1, 4, 7, 2, 5, 8, 3, 6, 9), (0, 3, 2, 1, 6, 5, 4, 9, 8, 7),
                      (0, 3, 6, 9, 2, 5, 8, 1, 4, 7), (0, 7, 4, 1, 8, 5, 2, 9, 6, 3),
                      (0, 7, 8, 9, 4, 5, 6, 1, 2, 3), (0, 9, 6, 3, 8, 5, 2, 7, 4, 1),
                      (0, 9, 8, 7, 6, 5, 4, 3, 2, 1)]),
        ("y:6", [(0, 1, 3, 2, 4, 6, 5)]),
    ])
    def test_lists_are_pinned(self, spec, autos):
        # Recorded when the BFS order came from a dict of dicts' insertion
        # order, so a change to how `dist` is stored cannot reorder them.
        assert parse_topology(spec).automorphisms() == autos

    def test_computed_on_first_call_and_cached(self):
        # Building a graph must not pay for the search.
        g = parse_topology("grid:3x3")
        assert g._automorphisms is None
        assert g.automorphisms() is g.automorphisms()


class TestGraphFile:
    def test_roundtrip(self):
        g = parse_graph('{"num_nodes": 3, "edges": [[1, 2], [2, 3]]}')
        assert g.num_nodes == 3
        assert g.edges == ((1, 2), (2, 3))

    def test_unknown_field(self):
        with pytest.raises(HardwareError, match="unknown"):
            parse_graph('{"num_nodes": 2, "edges": [[1, 2]], "x": 1}')

    @UNDECODABLE
    def test_undecodable_json(self, text):
        with pytest.raises(HardwareError, match="malformed graph file"):
            parse_graph(text)

    @pytest.mark.parametrize("text, match", [
        ('{"num_nodes": true, "edges": []}', "num_nodes must be int"),
        ('{"num_nodes": 2, "edges": [[true, 2]]}', "bad edge entry"),
        ('{"num_nodes": 2, "edges": [["a", 2]]}', "bad edge entry"),
    ], ids=["boolean-num-nodes", "boolean-endpoint", "string-endpoint"])
    def test_non_integer_rejected(self, text, match):
        with pytest.raises(HardwareError, match=match):
            parse_graph(text)

    def test_under_connected_file_rejected_before_allocating_per_node(self):
        # A connected graph needs num_nodes - 1 edges; a short file naming a
        # million nodes and no edges is refused before any per-node table.
        tracemalloc.start()
        try:
            with pytest.raises(HardwareError, match="connected"):
                parse_graph('{"num_nodes": 1000000, "edges": []}')
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
