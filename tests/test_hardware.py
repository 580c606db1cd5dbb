import itertools
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from qmproute.hardware import (AUTOMORPHISM_CAP, HardwareError, HardwareGraph,
                               build_topology, parse_graph, parse_topology)


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
        g = build_topology("linear", 4)
        assert g.edges == ((1, 2), (2, 3), (3, 4))

    def test_y4_is_star(self):
        g = build_topology("y", 4)
        degrees = sorted(len(g.neighbors(v)) for v in range(1, 5))
        assert degrees == [1, 1, 1, 3]
        assert len(g.neighbors(1)) == 3   # node 1 is the center

    def test_y6_arms(self):
        g = build_topology("y", 6)
        assert len(g.edges) == 5
        assert len(g.neighbors(1)) == 3

    def test_grid_2x3(self):
        g = build_topology("grid", (2, 3))
        assert len(g.edges) == 7
        assert max(len(g.neighbors(v)) for v in range(1, 7)) == 3

    def test_invalid_sizes(self):
        with pytest.raises(HardwareError):
            build_topology("linear", 1)
        with pytest.raises(HardwareError):
            build_topology("y", 3)

    def test_parse_topology(self):
        assert parse_topology("linear:4").num_nodes == 4
        assert parse_topology("grid:2x3").num_nodes == 6
        assert parse_topology("y:6").num_nodes == 6
        with pytest.raises(HardwareError):
            parse_topology("ring:5")
        with pytest.raises(HardwareError):
            parse_topology("grid:6")


class TestDistances:
    def test_linear_endpoints(self):
        g = build_topology("linear", 4)
        assert g.dist[1][4] == 3

    def test_y4_leaf_to_leaf(self):
        g = build_topology("y", 4)
        assert g.dist[2][3] == 2

    def test_identity(self):
        g = build_topology("grid", (2, 3))
        assert all(g.dist[v][v] == 0 for v in range(1, 7))

    def test_symmetry_and_triangle(self):
        g = build_topology("grid", (2, 3))
        for v, w, u in itertools.product(range(1, 7), repeat=3):
            assert g.dist[v][w] == g.dist[w][v]
            assert g.dist[v][w] <= g.dist[v][u] + g.dist[u][w]

    def test_disconnected_rejected(self):
        with pytest.raises(HardwareError, match="connected"):
            HardwareGraph(4, [(1, 2), (3, 4)])


class TestMinimalPaths:
    def test_unique_path_in_tree(self):
        g = build_topology("linear", 4)
        assert g.minimal_paths(1, 4) == [(1, 2, 3, 4)]

    def test_2x2_grid_diagonal(self):
        g = build_topology("grid", (2, 2))
        paths = g.minimal_paths(1, 4)
        assert len(paths) == 2
        assert all(len(p) == 3 for p in paths)

    def test_reverse_orientation_derived(self):
        for g in (build_topology("grid", (2, 3)), build_topology("y", 6)):
            for v in range(1, g.num_nodes + 1):
                for w in range(1, g.num_nodes + 1):
                    if v == w:
                        continue
                    fwd = g.minimal_paths(v, w)
                    rev = g.minimal_paths(w, v)
                    assert sorted(tuple(reversed(p)) for p in fwd) == sorted(rev)
                    # A repeated call is a cache hit on either orientation.
                    assert g.minimal_paths(v, w) is fwd
                    assert g.minimal_paths(w, v) is rev

    @pytest.mark.parametrize("builder", [
        lambda: build_topology("linear", 5),
        lambda: build_topology("grid", (2, 3)),
        lambda: build_topology("grid", (2, 4)),
        lambda: build_topology("y", 6),
        lambda: HardwareGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3)]),
    ])
    def test_matches_naive_enumeration(self, builder):
        g = builder()
        for v in range(1, g.num_nodes + 1):
            for w in range(v + 1, g.num_nodes + 1):
                assert g.minimal_paths(v, w) == naive_chordless_paths(g, v, w)

    def test_every_path_chordless_and_at_least_distance(self):
        g = build_topology("grid", (2, 3))
        for v in range(1, 7):
            for w in range(v + 1, 7):
                for p in g.minimal_paths(v, w):
                    assert len(p) - 1 >= g.dist[v][w]
                    for i in range(len(p) - 1):
                        assert g.has_edge(p[i], p[i + 1])
                    assert len(set(p)) == len(p)

    def test_dist_equals_min_path_length(self):
        g = build_topology("grid", (2, 3))
        for v in range(1, 7):
            for w in range(v + 1, 7):
                assert g.dist[v][w] == min(len(p) - 1 for p in g.minimal_paths(v, w))

    def test_same_endpoints_rejected(self):
        with pytest.raises(HardwareError, match="distinct"):
            build_topology("linear", 4).minimal_paths(2, 2)

    def test_cap_returns_none(self):
        g = HardwareGraph(4, [(1, 2), (2, 3), (3, 4), (4, 1)], max_paths_per_pair=1)
        assert g.minimal_paths(1, 3) is None
        assert g.minimal_paths(3, 1) is None
        g = HardwareGraph(4, [(1, 2), (2, 3), (3, 4), (4, 1)], max_paths_per_pair=1)
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

    def test_computed_on_first_call_and_cached(self):
        # Building a graph must not pay for the search.
        g = build_topology("grid", (3, 3))
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

    @pytest.mark.parametrize("text, match", [
        ('{"num_nodes": true, "edges": []}', "num_nodes must be int"),
        ('{"num_nodes": 2, "edges": [[true, 2]]}', "bad edge entry"),
        ('{"num_nodes": 2, "edges": [["a", 2]]}', "bad edge entry"),
    ], ids=["boolean-num-nodes", "boolean-endpoint", "string-endpoint"])
    def test_non_integer_rejected(self, text, match):
        with pytest.raises(HardwareError, match=match):
            parse_graph(text)
