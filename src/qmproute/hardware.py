"""Hardware connectivity graphs.

Provides the standard topologies used in the benchmarks (linear, grid, Y),
all-pairs hop distances, enumeration of minimal (chordless) paths
between node pairs, cached per ordered pair, and the graph's automorphisms.
A path is minimal when no subset of its nodes can be removed and still
leave a valid path, i.e. no hardware edge joins two non-consecutive path
nodes.
"""

from __future__ import annotations

import re

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

    Immutable after construction except the minimal-path and automorphism
    caches, which are filled lazily and idempotently.
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
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(canon))
        self._adj: dict[int, list[int]] = {v: [] for v in range(1, num_nodes + 1)}
        for v, w in self.edges:
            self._adj[v].append(w)
            self._adj[w].append(v)
        for v in self._adj:
            self._adj[v].sort()
        self.dist = self._all_pairs_distance()
        self._path_cache: dict[tuple[int, int], list[tuple[int, ...]] | None] = {}
        self._automorphisms: list[tuple[int, ...]] | None = None

    def neighbors(self, v: int) -> list[int]:
        return self._adj[v]

    def has_edge(self, v: int, w: int) -> bool:
        n = self.num_nodes      # range first: a schedule's -1 must not read dist[-1]
        return 1 <= v <= n and 1 <= w <= n and self.dist[v][w] == 1

    def _all_pairs_distance(self) -> list[list[int]]:
        """Hop distances by BFS from every node: `dist[v][w]` for nodes v, w
        (row and column 0 unused).  One list per row, each entry one of the
        shared ints in `hops`, keeps a long line's table at a pointer an entry."""
        n, adj = self.num_nodes, self._adj
        hops = list(range(n + 1))
        dist: list[list[int]] = [[]]
        for s in range(1, n + 1):
            d = [-1] * (n + 1)
            d[s] = 0
            queue = [s]
            for v in queue:             # the queue grows while it is read
                dw = hops[d[v] + 1]
                for w in adj[v]:
                    if d[w] < 0:
                        d[w] = dw
                        queue.append(w)
            if len(queue) != n:
                raise HardwareError("hardware graph must be connected")
            dist.append(d)
        return dist

    def minimal_paths(self, v: int, w: int):
        """All chordless simple paths from v to w as node tuples.

        Returns None if the enumeration exceeded MAX_PATHS_PER_PAIR; callers
        using the result inside a lower bound must then skip the pair
        (truncating the set would raise the bound and break admissibility).
        Both orientations are cached, so a repeated call returns the same
        object and allocates nothing.
        """
        try:
            return self._path_cache[v, w]
        except KeyError:
            pass
        if v == w:
            raise HardwareError("minimal_paths requires distinct endpoints")
        lo, hi = min(v, w), max(v, w)
        paths = self._enumerate_chordless(lo, hi)
        self._path_cache[lo, hi] = paths
        self._path_cache[hi, lo] = (None if paths is None
                                    else [tuple(reversed(p)) for p in paths])
        return self._path_cache[v, w]

    def automorphisms(self) -> list[tuple[int, ...]]:
        """Non-identity node permutations that preserve every hop distance,
        at most AUTOMORPHISM_CAP of them, in a fixed order.

        Each is a tuple `sigma` over 0..num_nodes with `sigma[v]` the image of
        node v and `sigma[0] == 0`, so `sigma[a]` maps an assignment entry
        (0 = unassigned) too.  Found by backtracking over the nodes in BFS
        order from node 1: a node's candidate images are the unused nodes of
        its degree, adjacent to its BFS parent's image, whose distances to
        every node mapped so far agree.  Computed on the first call, cached.
        """
        if self._automorphisms is None:
            self._automorphisms = self._find_automorphisms()
        return self._automorphisms

    def _find_automorphisms(self) -> list[tuple[int, ...]]:
        n, dist, adj = self.num_nodes, self.dist, self._adj
        order, parent = [1], {1: 0}     # BFS order from node 1, BFS tree parents
        for v in order:
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    order.append(w)
        image = [0] * (n + 1)
        used = [False] * (n + 1)
        identity = tuple(range(n + 1))
        found: list[tuple[int, ...]] = []

        def candidates(k):
            v = order[k]
            dv, mapped = dist[v], order[:k]
            pool = range(1, n + 1) if k == 0 else adj[image[parent[v]]]
            for u in pool:
                du = dist[u]
                if (not used[u] and len(adj[u]) == len(adj[v])
                        and all(du[image[m]] == dv[m] for m in mapped)):
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
        whose count is 2 unless it is v."""
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
        results.sort()
        return results


_TOPOLOGY_RE = re.compile(r"^(linear|grid|y):(\d+)(?:x(\d+))?$")


def parse_topology(spec: str) -> HardwareGraph:
    """Parse a topology descriptor into one of the standard topologies.

    linear:n, n >= 2: path graph 1-2-...-n.
    grid:RxC: 4-neighbor lattice, row-major node ids.
    y:n, n >= 4: node 1 is the center; the remaining nodes are distributed
       round-robin over three arms, each arm a chain off the center (y:4 is
       the 3-star).
    """
    m = _TOPOLOGY_RE.match(spec)
    if not m:
        raise HardwareError(f"bad topology spec {spec!r}")
    kind, n, b = m.group(1), int(m.group(2)), m.group(3)
    if kind == "grid":
        if b is None:
            raise HardwareError("grid spec must be grid:RxC")
        rows, cols = n, int(b)
        if rows < 1 or cols < 1:
            raise HardwareError("grid dimensions must be positive")
        def node(r, c):
            return r * cols + c + 1
        edges = []
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    edges.append((node(r, c), node(r, c + 1)))
                if r + 1 < rows:
                    edges.append((node(r, c), node(r + 1, c)))
        return HardwareGraph(rows * cols, edges)
    if b is not None:
        raise HardwareError(f"{kind} spec takes a single size")
    if kind == "linear":
        if n < 2:
            raise HardwareError("linear topology needs n >= 2")
        return HardwareGraph(n, [(i, i + 1) for i in range(1, n)])
    if n < 4:
        raise HardwareError("y topology needs n >= 4")
    arms: list[list[int]] = [[], [], []]
    for i, v in enumerate(range(2, n + 1)):
        arms[i % 3].append(v)
    edges = []
    for arm in arms:
        prev = 1
        for v in arm:
            edges.append((prev, v))
            prev = v
    return HardwareGraph(n, edges)


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
