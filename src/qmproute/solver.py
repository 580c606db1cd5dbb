"""Branch-and-bound search for the qubit mapping problem.

Best-first tree search over partial schedules.  Each node schedules one
more operation (a minimal circuit gate or a SWAP) on a hardware edge, as
early as possible.  Nodes whose (assignment, progress) states are equal up
to an automorphism of the hardware graph are kept in one Pareto front; a
node no better than a stored one on every coordinate the objective gives
positive weight (the per-node depth vector, the SWAP count) is pruned.
This is sound because a state's completions depend only on its assignment
and progress: an automorphism sigma maps every completion of a state to
one of its image, with the same SWAP count and the depth vector permuted
by sigma, so the store compares depth vectors in one frame per class
(`_Front`).  Any set of automorphisms is sound, since each merge is
justified by one of them; `HardwareGraph.automorphisms` caps the set,
which only limits how much is merged.  An unweighted coordinate can never
make a node's best completion worse; when minimizing SWAPs alone each
class keeps one record, its lowest SWAP count.  Two dominance rules drop
children before they are built (`_Search.children`): no SWAP undoes its
parent's SWAP, and with no weight on depth a gate that can run where its
qubits stand is the only child.  An admissible lower bound drives the
expansion order, so the first complete node popped is optimal.  A beam
width converts the search into a heuristic.
"""

from __future__ import annotations

import gc
import heapq
import math
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .circuit import Circuit, PrecedenceInfo, analyze, minimal_unscheduled
from .hardware import HardwareGraph
from .schedule import DEFAULT_SWAP_DURATION, SWAP, Schedule, ScheduledOp


class SolverError(ValueError):
    pass


@dataclass
class SolverConfig:
    w_depth: Fraction = Fraction(1)
    w_swaps: Fraction = Fraction(0)
    layered: bool = False
    beam_width: int | None = None       # None = exact search
    time_limit: float | None = None     # seconds
    swap_duration: int = DEFAULT_SWAP_DURATION
    use_pareto: bool = True

    def __post_init__(self):
        for name in ("w_depth", "w_swaps"):
            # A float is refused: 0.1 is 3602879701896397 / 2**55, and that
            # denominator would scale every heap key.
            weight = getattr(self, name)
            try:
                if isinstance(weight, (bool, float)):
                    raise TypeError
                setattr(self, name, Fraction(weight))
            except (TypeError, ValueError):
                raise SolverError(f"{name} must be an int, a Fraction or a decimal string, "
                                  f"got {weight!r}") from None
        if self.w_depth < 0 or self.w_swaps < 0 or self.w_depth + self.w_swaps == 0:
            raise SolverError("weights must be nonnegative with positive sum")
        # `type(x) is int`: a bool is an int subclass, but not a width.
        if self.beam_width is not None and (type(self.beam_width) is not int
                                            or self.beam_width < 1):
            raise SolverError(f"beam width must be an integer >= 1, got {self.beam_width!r}")
        if type(self.swap_duration) is not int or self.swap_duration < 0:
            raise SolverError(f"swap duration must be an integer >= 0, "
                              f"got {self.swap_duration!r}")
        if type(self.layered) is not bool:
            raise SolverError(f"layered must be a bool, got {self.layered!r}")
        if type(self.use_pareto) is not bool:
            raise SolverError(f"use_pareto must be a bool, got {self.use_pareto!r}")
        if self.time_limit is not None and (
                isinstance(self.time_limit, bool)
                or not isinstance(self.time_limit, (int, float))
                or not self.time_limit > 0):
            raise SolverError(f"time limit must be a positive number of seconds, "
                              f"got {self.time_limit!r}")


class SearchNode:
    __slots__ = ("parent", "gate_index", "edge", "depth_map", "assignment",
                 "progress", "swap_count", "num_scheduled", "removed")

    def __init__(self, parent, gate_index, edge, depth_map, assignment,
                 progress, swap_count, num_scheduled):
        self.parent = parent
        self.gate_index = gate_index
        self.edge = edge
        # Tuple over nodes 1..|V| (index 0 stays 0); None when depth has no weight.
        self.depth_map = depth_map
        self.assignment = assignment        # tuple over qubits 1..n, 0 = unassigned
        self.progress = progress            # tuple over qubits 1..n
        self.swap_count = swap_count
        self.num_scheduled = num_scheduled
        self.removed = False


@dataclass
class SolveStats:
    nodes_expanded: int = 0
    nodes_inserted: int = 0
    nodes_pruned: int = 0
    fronts_replaced: int = 0
    wall_time: float = 0.0


@dataclass
class SolveResult:
    schedule: Schedule | None
    objective_value: Fraction | None
    status: str                 # optimal | incumbent | timeout (no schedule)
    stats: SolveStats = field(default_factory=SolveStats)
    makespan: int | None = None
    swap_count: int | None = None


def bound_depth(node: SearchNode, info: PrecedenceInfo, graph: HardwareGraph,
                swap_duration: int) -> int:
    """Admissible lower bound on the achievable makespan from this node.

    The largest of two kinds of term.  A qubit's: its node's depth plus
    delta of its next gate.  A placed pair's: delta of its next shared gate
    `first` plus the earliest time that gate can start, once each qubit has
    done its work before `first` and the two have met on an edge of some
    minimal path between their nodes.

    A pair on adjacent nodes is skipped: its term is delta[first] +
    max(start_p, start_q), which is at most the larger of the two qubits'
    terms, since delta along p's chain is at least p's work before `first`
    plus delta[first].  A pair's paths are scanned only until its term can
    no longer exceed the running maximum.
    """
    dm, asg, progress = node.depth_map, node.assignment, node.progress
    h = 0
    for a, k, row in zip(asg, progress, info.head):
        t = dm[a] + row[k]              # dm[0] == 0: an unplaced qubit's node
        if t > h:
            h = t

    d_s, dist, tail_sums = swap_duration, graph.dist, info.tail_sums
    for ap, k, row, tail_p in zip(asg, progress, info.live, tail_sums):
        if not ap:
            continue
        # p's depth plus all its remaining work: p's finish with no wait.
        near, finish_p = dist[ap], dm[ap] + tail_p[k]
        for q, delta_first, at_p, at_q in row[k]:
            aq = asg[q]
            if not aq or near[aq] == 1:
                continue
            paths = graph.minimal_paths(ap, aq)
            if paths is None:
                continue  # enumeration capped; skipping keeps the bound admissible
            # Each wire's depth plus its circuit work before `first`.
            start_p = finish_p - tail_p[at_p]
            tail_q = tail_sums[q]
            start_q = dm[aq] + tail_q[progress[q]] - tail_q[at_q]
            bar = h - delta_first       # the term raises h only above this
            best = None
            for path in paths:
                # The gate runs on edge e = (path[e], path[e+1]) once p has
                # swapped forward to path[e] and q back to path[e+1].  p's
                # earliest arrival L(e) is a prefix maximum of node depth +
                # d_s per hop, q's R(e) the matching suffix maximum, so L
                # only grows with e (d_s >= 0) and R only shrinks.  Two
                # pointers close in on one edge m, each step moving the side
                # that arrives earlier.  The left one leaves edge e only when
                # L(e) < R(j) <= R(e+1), so L(e+1) <= R(e); the right one
                # leaves e only when R(e) <= L(i) <= L(e-1), so R(e-1) <= L(e).
                # Every edge left of m thus starts no earlier than R(m-1) >=
                # max(L(m), R(m)), every edge right of m no earlier than
                # L(m+1) >= max(L(m), R(m)): the least start is at m.
                i, j = 0, len(path) - 2
                left, right = start_p, start_q
                while i < j:
                    if left < right:
                        i += 1
                        x = dm[path[i]]
                        left = (left if left > x else x) + d_s
                    else:
                        x = dm[path[j]]
                        j -= 1
                        right = (right if right > x else x) + d_s
                h_path = left if left > right else right
                if h_path <= bar:
                    break
                if best is None or h_path < best:
                    best = h_path
            else:
                h = delta_first + best
    return h


def bound_swaps(node: SearchNode, info: PrecedenceInfo, graph: HardwareGraph) -> int:
    """Admissible lower bound on the total SWAP count from this node: the
    SWAPs made so far plus, over placed pairs with a gate still to run,
    the largest distance less one."""
    asg, dist, worst = node.assignment, graph.dist, 0
    for ap, k, row in zip(asg, node.progress, info.live):
        if ap:
            near = dist[ap]
            for entry in row[k]:
                aq = asg[entry[0]]
                if aq and near[aq] - 1 > worst:
                    worst = near[aq] - 1
    return node.swap_count + worst


class _Search:
    def __init__(self, circuit: Circuit, graph: HardwareGraph, config: SolverConfig):
        if circuit.num_virtual_qubits > graph.num_nodes:
            raise SolverError("more virtual qubits than hardware nodes")
        self.circuit = circuit
        self.graph = graph
        self.config = config
        self.info = analyze(circuit)
        # Integer weights: both scaled by the LCM of their denominators, so
        # bounds and objectives are ints and heap keys compare ints.
        self.scale = math.lcm(config.w_depth.denominator, config.w_swaps.denominator)
        self.w_depth = int(config.w_depth * self.scale)
        self.w_swaps = int(config.w_swaps * self.scale)

    def bound(self, node: SearchNode) -> int:
        """Lower bound on the objective, times `scale`."""
        h = 0
        if self.w_depth:
            h += self.w_depth * bound_depth(node, self.info, self.graph,
                                            self.config.swap_duration)
        if self.w_swaps:
            h += self.w_swaps * bound_swaps(node, self.info, self.graph)
        return h

    def objective(self, node: SearchNode) -> int:
        """Exact objective of a complete node, times `scale`."""
        h = self.w_swaps * node.swap_count
        if self.w_depth:
            h += self.w_depth * max(node.depth_map)
        return h

    def root(self) -> SearchNode:
        """The empty schedule.  Nodes carry a depth map only when depth has
        a weight: nothing else reads it, and `_result` replays the times."""
        n = self.circuit.num_virtual_qubits
        return SearchNode(parent=None, gate_index=None, edge=None,
                          depth_map=(0,) * (self.graph.num_nodes + 1) if self.w_depth else None,
                          assignment=(0,) * (n + 1), progress=(0,) * (n + 1),
                          swap_count=0, num_scheduled=0)

    def make_child(self, node: SearchNode, gate_index: int, edge) -> SearchNode:
        v, w = edge
        asg, prog, swaps = node.assignment, node.progress, node.swap_count
        if gate_index == SWAP:
            # The qubits (if any) at v and w trade places.
            moved = list(asg)
            if v in asg:
                moved[asg.index(v)] = w
            if w in asg:
                moved[asg.index(w)] = v
            asg, swaps, scheduled = tuple(moved), swaps + 1, node.num_scheduled
            duration = self.config.swap_duration
        else:
            gate = self.circuit.gates[gate_index - 1]
            p, q = gate.qubits
            if asg[p] != v or asg[q] != w:
                moved = list(asg)
                moved[p], moved[q] = v, w
                asg = tuple(moved)
            prog = list(prog)
            prog[p] += 1
            prog[q] += 1
            prog, scheduled = tuple(prog), node.num_scheduled + 1
            duration = gate.duration
        dm = node.depth_map
        if dm is not None:
            dm = list(dm)
            dm[v] = dm[w] = (dm[v] if dm[v] > dm[w] else dm[w]) + duration
            dm = tuple(dm)
        return SearchNode(node, gate_index, edge, dm, asg, prog, swaps, scheduled)

    def gate_children_edges(self, node: SearchNode) -> list:
        """(gate_index, edge) placements for minimal unscheduled gates.
        Layered mode keeps the lowest unfinished layer: the lowest layer among
        minimal gates, since all predecessors of its gates are scheduled."""
        gates = minimal_unscheduled(self.info, node.progress)
        if self.config.layered and gates:
            layer = self.info.layer
            low = min(layer[i] for i in gates)
            gates = [i for i in gates if layer[i] == low]
        asg, graph, circuit_gates = node.assignment, self.graph, self.circuit.gates
        busy = set(asg)     # occupied nodes (plus 0, never a node)
        children = []
        for i in gates:
            p, q = circuit_gates[i - 1].qubits
            ap, aq = asg[p], asg[q]
            if ap and aq:
                if graph.has_edge(ap, aq):
                    children.append((i, (ap, aq)))
            elif ap:
                children += [(i, (ap, w)) for w in graph.neighbors(ap) if w not in busy]
            elif aq:
                children += [(i, (v, aq)) for v in graph.neighbors(aq) if v not in busy]
            else:
                for v, w in graph.edges:
                    if v not in busy and w not in busy:
                        children += ((i, (v, w)), (i, (w, v)))
        return children

    def swap_children_edges(self, node: SearchNode) -> list:
        busy = set(node.assignment)
        return [(SWAP, (v, w)) for v, w in self.graph.edges if v in busy or w in busy]

    def children(self, node: SearchNode) -> list:
        """The (gate_index, edge) children the search expands: the gate and
        SWAP children above, less two kinds that some kept child dominates.

        - With no weight on depth, a gate whose qubits are both placed (so
          on adjacent nodes) is the only child.  A gate moves no qubit, so
          it can be moved to the front of any completion without changing
          its SWAP count, and in layered mode it is already in the lowest
          unfinished layer.  Under a depth weight the rule is unsound:
          running the ready gate first can delay a longer chain.
        - No SWAP undoes the node's own SWAP: that child has the
          grandparent's state, a depth vector no lower and two more SWAPs.
        """
        gates = self.gate_children_edges(node)
        if not self.w_depth:
            asg, circuit_gates = node.assignment, self.circuit.gates
            for child in gates:
                p, q = circuit_gates[child[0] - 1].qubits
                if asg[p] and asg[q]:
                    return [child]
        undo = (SWAP, node.edge) if node.gate_index == SWAP else None
        return gates + [move for move in self.swap_children_edges(node) if move != undo]


class _Front:
    """Pareto store: class key -> non-dominated records, compared on the
    depth map and the SWAP count, each only if the objective weighs it.

    A state's class key is the lexicographic minimum of (sigma . assignment,
    progress) over the identity and the given automorphisms.  A record is
    `(frame, node)`: the node's depth map mapped by one sigma that attains
    the key (`frame[sigma[v]] == depth_map[v]`), None when depth is not
    tracked.  When several sigma attain the key (the state is fixed by a
    nontrivial automorphism), a newcomer is compared in each of their
    frames.  Given the whole group, a record then dominates a newcomer
    exactly when some automorphism maps the newcomer's state onto the
    record's and the record's depth map is no worse than the mapped one,
    whatever sigma the record was stored under.  With no automorphisms the
    key is the state and the frame its depth map.
    """

    def __init__(self, track_depth: bool, track_swaps: bool, automorphisms=()):
        self.track_depth = track_depth
        self.track_swaps = track_swaps
        # Each sigma with a getter of its inverse, which reads a depth map
        # into sigma's frame: frame[u] = depth_map[sigma^-1[u]].
        self.maps = []
        for sigma in automorphisms:
            inverse = [0] * len(sigma)
            for v, u in enumerate(sigma):
                inverse[u] = v
            self.maps.append((sigma, operator.itemgetter(*inverse)))
        self.store: dict = {}

    def try_insert(self, node: SearchNode, stats: SolveStats) -> bool:
        """Store `node` under its class key unless a record of the class
        dominates it (no worse on every tracked coordinate), and evict the
        records it dominates.  The record keeps the depth map in the frame
        of the first sigma attaining the key (the identity first)."""
        asg = node.assignment
        best, winners = asg, [None]                 # None: the identity
        # An itemgetter of one index returns the item, not a 1-tuple; with
        # no qubits there is one state anyway.
        if self.maps and len(asg) > 1:
            images_of = operator.itemgetter(*asg)   # sigma -> sigma . assignment
            for sigma, frame_of in self.maps:
                image = images_of(sigma)
                if image < best:
                    best, winners = image, [frame_of]
                elif image == best:
                    winners.append(frame_of)
        key = (best, node.progress)
        records = self.store.get(key, ())
        swaps = node.swap_count
        if not self.track_depth:
            # SWAP counts alone (track_swaps): one record, the class's lowest.
            if records:
                if records[0][1].swap_count <= swaps:
                    stats.nodes_pruned += 1
                    return False
                records[0][1].removed = True
                stats.fronts_replaced += 1
            self.store[key] = [(None, node)]
            return True

        dm = node.depth_map
        frames = [dm if frame_of is None else frame_of(dm) for frame_of in winners]
        track_swaps, le = self.track_swaps, operator.le
        for r_frame, r in records:          # a record no worse prunes the node
            if not track_swaps or r.swap_count <= swaps:
                for frame in frames:
                    if all(map(le, r_frame, frame)):
                        stats.nodes_pruned += 1
                        return False
        kept = []
        for record in records:              # records no better are evicted
            if not track_swaps or swaps <= record[1].swap_count:
                for frame in frames:
                    if all(map(le, frame, record[0])):
                        record[1].removed = True
                        break
                else:
                    kept.append(record)
            else:
                kept.append(record)
        if len(kept) < len(records):
            stats.fronts_replaced += 1
        kept.append((frames[0], node))
        self.store[key] = kept
        return True


def solve(circuit: Circuit, graph: HardwareGraph, config: SolverConfig | None = None) -> SolveResult:
    """Solve the mapping problem; exact unless a beam width or time limit cuts
    the search.  In beam mode a dead-ended search is deterministically
    restarted with twice the beam width until a solution is found.

    The cyclic garbage collector is off while the search runs, and back on
    afterwards if it was on before.  The search makes no reference cycles
    (a node points only to its parent), so reference counting frees every
    pruned node; the collector would only rescan the live tree as it grows.
    Other threads' cyclic garbage waits until the solve returns."""
    config = config or SolverConfig()
    t0 = time.monotonic()
    search = _Search(circuit, graph, config)
    beam = config.beam_width
    collecting = gc.isenabled()
    gc.disable()
    try:
        while (result := _run(search, beam, t0)) is None:
            beam *= 2
    finally:
        if collecting:
            gc.enable()
    result.stats.wall_time = time.monotonic() - t0
    return result


def _run(search: _Search, beam: int | None, t0: float) -> SolveResult | None:
    """One search at beam width `beam` (None: exact); None when a beam's
    open list empties with no complete node.  Heap entries are (bound,
    -num_scheduled, swap_count, counter, node): the unique counter decides
    every tie before the node."""
    config = search.config
    stats = SolveStats()
    front = _Front(track_depth=config.w_depth > 0, track_swaps=config.w_swaps > 0,
                   automorphisms=search.graph.automorphisms())
    try_insert = front.try_insert if config.use_pareto else None
    children, make_child, bound = search.children, search.make_child, search.bound
    time_limit = config.time_limit
    root = search.root()
    counter = 1
    open_heap = [(bound(root), 0, 0, counter, root)]
    front.try_insert(root, stats)
    stats.nodes_inserted += 1
    num_gates = search.circuit.num_gates
    incumbent: SearchNode | None = None
    incumbent_obj: int | None = None

    while open_heap:
        if time_limit is not None and time.monotonic() - t0 > time_limit:
            break
        node = heapq.heappop(open_heap)[4]
        if node.removed:
            continue
        if node.num_scheduled == num_gates:
            return _result(search, node, stats, "incumbent" if beam else "optimal")
        stats.nodes_expanded += 1
        for gate_index, edge in children(node):
            child = make_child(node, gate_index, edge)
            if child.num_scheduled == num_gates:
                obj = search.objective(child)
                if incumbent_obj is None or obj < incumbent_obj:
                    incumbent, incumbent_obj = child, obj
            # Only Pareto survivors are bounded: a pruned child needs no key.
            if try_insert is None or try_insert(child, stats):
                stats.nodes_inserted += 1
                counter += 1
                heapq.heappush(open_heap, (bound(child), -child.num_scheduled,
                                           child.swap_count, counter, child))
        if beam is not None:
            alive = [e for e in open_heap if not e[4].removed]
            if len(alive) > beam:
                # A sorted list is already a heap.
                alive.sort()
                for e in alive[beam:]:
                    e[4].removed = True
                open_heap = alive[:beam]

    if incumbent is not None:
        return _result(search, incumbent, stats, "incumbent")
    if beam is not None and not open_heap:
        return None     # the beam died, not the clock: `solve` widens it
    return SolveResult(schedule=None, objective_value=None, status="timeout", stats=stats)


def _result(search: _Search, node: SearchNode, stats: SolveStats, status: str) -> SolveResult:
    """The schedule along `node`'s path.  Its ops are replayed in path order,
    each as early as possible from all-zero depths, which gives exactly the
    depth maps the search keeps under a depth weight."""
    path = []
    cur = node
    while cur.parent is not None:
        path.append(cur)
        cur = cur.parent
    gates, swap_duration = search.circuit.gates, search.config.swap_duration
    depth = [0] * (search.graph.num_nodes + 1)
    ops = []
    for cur in reversed(path):
        v, w = cur.edge
        start = max(depth[v], depth[w])
        duration = swap_duration if cur.gate_index == SWAP else gates[cur.gate_index - 1].duration
        depth[v] = depth[w] = start + duration
        ops.append(ScheduledOp(kind=cur.gate_index, edge=cur.edge, start=start,
                               duration=duration))
    ops.sort(key=lambda op: op.start)
    schedule = Schedule(ops=tuple(ops), swap_duration=swap_duration)
    return SolveResult(schedule=schedule,
                       objective_value=Fraction(search.objective(node), search.scale),
                       status=status,
                       stats=stats,
                       makespan=max(depth),
                       swap_count=node.swap_count)
