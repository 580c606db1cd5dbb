"""Hardware connectivity graphs.

Provides the standard topologies used in the benchmarks (linear, grid, Y),
hop distances, each node's nodes nearest first, enumeration of
minimal (chordless) paths between node pairs, kept in a per-node table
with one list per unordered pair, and the graph's automorphisms.
A path is minimal when no subset of its nodes can be removed and still
leave a valid path, i.e. no hardware edge joins two non-consecutive path
nodes.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import Iterator

from . import jsonfile

# Most automorphisms `HardwareGraph.automorphisms` returns.  Each one costs
# the Pareto store a tuple per child, and a star's group is n!.
AUTOMORPHISM_CAP = 32

# Most chordless paths `HardwareGraph.minimal_paths` enumerates for one pair.
MAX_PATHS_PER_PAIR = 10000


class HardwareError(ValueError):
    pass


class HardwareGraph:
    """Undirected connected graph over nodes 1..num_nodes.

    Immutable after construction except the distance table, the per-node
    tables `nearest` and `paths` and the automorphism list, filled lazily
    and idempotently; none refers back to the graph, so it makes no cycle.
    """

    def __init__(self, num_nodes: int, edges):
        if num_nodes < 1:
            raise HardwareError("graph needs at least one node")
        self.num_nodes = num_nodes
        canon = set()
        for v, w in edges:
            if v == w:
                raise HardwareError(f"self-loop at node {v}")
            if not (1 <= v <= num_nodes and 1 <= w <= num_nodes):
                raise HardwareError(f"edge ({v},{w}) out of range")
            canon.add((min(v, w), max(v, w)))
        if len(canon) < num_nodes - 1:     # before any per-node allocation
            raise HardwareError("hardware graph must be connected")
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(canon))
        self._adj: dict[int, list[int]] = {v: [] for v in range(1, num_nodes + 1)}
        for v, w in self.edges:         # sorted, so every list comes out sorted
            self._adj[v].append(w)
            self._adj[w].append(v)
        self._hops = list(range(num_nodes + 1))
        if len(_bfs(self._adj, self._hops, 1)[0]) != num_nodes:
            raise HardwareError("hardware graph must be connected")
        self.nearest = _Nearest(self._adj, self._hops)
        self.paths: dict[int, dict[int, list | None]] = {}     # paths[v][w]: minimal_paths(v, w)
        self._automorphisms: list[tuple[int, ...]] | None = None

    def neighbors(self, v: int) -> list[int]:
        return self._adj[v]

    def has_edge(self, v: int, w: int) -> bool:
        return w in self._adj.get(v, ())

    @functools.cached_property
    def dist(self) -> list[list[int]]:
        """Hop distances: `dist[v][w]` for nodes v, w (row 0 empty, column 0
        -1).  Built on the first read, one BFS per node; only the search's
        bounds read it, so building, validating against or generating for a
        graph costs no O(n^2) table."""
        return [[]] + [_bfs(self._adj, self._hops, s)[1] for s in range(1, self.num_nodes + 1)]

    def minimal_paths(self, v: int, w: int):
        """All chordless simple paths between v and w as node tuples from
        min(v, w) to max(v, w), in lexicographic order.

        Returns None if the enumeration exceeded MAX_PATHS_PER_PAIR.  A
        lower bound must never use a truncated set, which could raise it
        and break admissibility: `solver._least_meet` returns None for such
        a pair, and each depth-bound term falls back to a value that needs
        no paths.
        Each unordered pair is enumerated once, into `paths` under both
        orders, so a repeated call in either order returns the same object.
        """
        try:
            return self.paths[v][w]
        except KeyError:
            if v == w:
                raise HardwareError("minimal_paths requires distinct endpoints") from None
        found = self._enumerate_chordless(*((v, w) if v < w else (w, v)))
        self.paths.setdefault(v, {})[w] = self.paths.setdefault(w, {})[v] = found
        return found

    def automorphisms(self) -> list[tuple[int, ...]]:
        """Non-identity node permutations that preserve adjacency, at most
        AUTOMORPHISM_CAP of them, in a fixed order.

        Each is a tuple `sigma` over 0..num_nodes with `sigma[v]` the image of
        node v and `sigma[0] == 0`, so `sigma[a]` maps an assignment entry
        (0 = unassigned) too.  Found by backtracking over the nodes in BFS
        order from node 1: a node's candidate images are the unused nodes of
        its degree whose used neighbours are exactly the images of its mapped
        neighbours, tried in increasing order.  So a complete map preserves
        every edge and non-edge, and the maps come out in lexicographic order
        of their images along the BFS order.  Computed on the first call,
        cached.
        """
        if self._automorphisms is None:
            self._automorphisms = self._find_automorphisms()
        return self._automorphisms

    def _find_automorphisms(self) -> list[tuple[int, ...]]:
        n, adj = self.num_nodes, self._adj
        order = _bfs(adj, self._hops, 1)[0]
        image, used = [0] * (n + 1), [False] * (n + 1)
        identity = tuple(range(n + 1))
        found: list[tuple[int, ...]] = []

        def candidates(k):          # runs on the first `next`, with order[:k] mapped
            v = order[k]
            deg, images = len(adj[v]), sorted(image[m] for m in adj[v] if image[m])
            # Past node 1 v's BFS parent is mapped; a candidate neighbours each image.
            for u in (adj[images[0]] if images else range(1, n + 1)):
                au = adj[u]
                if not used[u] and len(au) == deg and [x for x in au if used[x]] == images:
                    yield u

        # Iterative depth-first search: levels[k] yields order[k]'s images.
        levels = [candidates(0)]
        while levels:
            k = len(levels) - 1
            v = order[k]
            if image[v]:
                used[image[v]] = False
                image[v] = 0
            u = next(levels[-1], None)
            if u is None:
                levels.pop()
                continue
            image[v] = u
            used[u] = True
            if k + 1 < n:
                levels.append(candidates(k + 1))
            elif tuple(image) != identity:
                found.append(tuple(image))
                if len(found) == AUTOMORPHISM_CAP:
                    break
        return found

    def _enumerate_chordless(self, v: int, w: int):
        """Depth-first search with a stack of neighbour iterators, so a long
        path costs no recursion.  touch[u] counts the path nodes adjacent to
        u: a neighbour x of the last node extends the path without a chord
        exactly when touch[x] == 1 and x is off the path.  The path being
        chordless, the only path node next to the last is the one before it,
        whose count is 2 unless it is v.  Over sorted adjacency lists, with no
        path run past w, the paths come out in lexicographic order."""
        adj = self._adj
        results: list[tuple[int, ...]] = []
        path = [v]
        touch = [0] * (self.num_nodes + 1)
        for y in adj[v]:
            touch[y] += 1
        stack = [iter(adj[v])]
        while stack:
            for x in stack[-1]:
                if touch[x] != 1 or x == v:
                    continue
                if x == w:
                    results.append(tuple(path) + (w,))
                    if len(results) > MAX_PATHS_PER_PAIR:
                        return None
                    continue
                path.append(x)
                for y in adj[x]:
                    touch[y] += 1
                stack.append(iter(adj[x]))
                break
            else:
                stack.pop()
                x = path.pop()
                for y in adj[x]:
                    touch[y] -= 1
        return results


def _bfs(adj: dict[int, list[int]], hops: list[int], s: int) -> tuple[list[int], list[int]]:
    """The nodes in BFS order from s over the sorted adjacency lists, and
    the row of hop distances from s (-1 at index 0), each one of the shared
    ints in `hops` (0..|V|), so a long line's table costs a pointer an entry."""
    d = [-1] * len(hops)
    d[s] = 0
    order = [s]
    for v in order:                 # the queue grows while it is read
        dw = hops[d[v] + 1]
        for w in adj[v]:
            if d[w] < 0:
                d[w] = dw
                order.append(w)
    return order, d


class _Nearest(dict):
    """`HardwareGraph.nearest[v]`: v's other nodes in BFS order, found on first read."""

    def __init__(self, adj: dict[int, list[int]], hops: list[int]):
        self.adj, self.hops = adj, hops

    def __missing__(self, v: int) -> tuple[int, ...]:
        order = self[v] = tuple(_bfs(self.adj, self.hops, v)[0][1:])
        return order


_TOPOLOGY_RE = re.compile(r"(linear|grid|y):([0-9]+)(?:x([0-9]+))?")


def topology_edges(spec: str) -> tuple[int, Iterator[tuple[int, int]]]:
    """(num_nodes, edges) of a standard topology's descriptor, the edges made lazily.

    linear:n, n >= 2: path graph 1-2-...-n.
    grid:RxC: 4-neighbor lattice, row-major node ids.
    y:n, n >= 4: node 1 is the center; the remaining nodes are distributed
       round-robin over three arms, each arm a chain off the center (y:4 is
       the 3-star).
    """
    m = _TOPOLOGY_RE.fullmatch(spec)
    if not m:
        raise HardwareError(f"bad topology spec {spec!r}")
    kind, n, b = m.group(1), int(m.group(2)), m.group(3)
    if kind == "grid":
        if b is None:
            raise HardwareError("grid spec must be grid:RxC")
        rows, cols = n, int(b)
        if rows < 1 or cols < 1:
            raise HardwareError("grid dimensions must be positive")
        # Row-major ids: v has a right neighbour unless it ends a row, and a
        # lower one unless it is in the last row.
        return rows * cols, itertools.chain(
            ((v, v + 1) for v in range(1, rows * cols + 1) if v % cols),
            ((v, v + cols) for v in range(1, (rows - 1) * cols + 1)))
    if b is not None:
        raise HardwareError(f"{kind} spec takes a single size")
    if kind == "linear":
        if n < 2:
            raise HardwareError("linear topology needs n >= 2")
        return n, ((i, i + 1) for i in range(1, n))
    if n < 4:
        raise HardwareError("y topology needs n >= 4")
    # Node v >= 2 is on arm (v - 2) % 3, after v - 3 on that arm or the center.
    return n, ((max(v - 3, 1), v) for v in range(2, n + 1))


def parse_topology(spec: str) -> HardwareGraph:
    """The graph of a topology descriptor (`topology_edges`)."""
    return HardwareGraph(*topology_edges(spec))


def parse_graph(text: str) -> HardwareGraph:
    """Parse a graph file: JSON with `num_nodes` and `edges` ([v, w] pairs)."""
    data = jsonfile.record(jsonfile.load(text, HardwareError, "graph"), HardwareError,
                           "graph file", ("num_nodes", "edges"))
    n, edges = data["num_nodes"], data["edges"]
    if not jsonfile.is_int(n) or not isinstance(edges, list):
        raise HardwareError("num_nodes must be int and edges a list")
    pairs = []
    for e in edges:
        if not jsonfile.is_ints(e, 2):
            raise HardwareError(f"bad edge entry {e!r}")
        pairs.append((e[0], e[1]))
    return HardwareGraph(n, pairs)
