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

import heapq
import math
import operator
import time
from bisect import bisect_left
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
        self.w_depth = Fraction(self.w_depth)
        self.w_swaps = Fraction(self.w_swaps)
        if self.w_depth < 0 or self.w_swaps < 0 or self.w_depth + self.w_swaps == 0:
            raise SolverError("weights must be nonnegative with positive sum")
        if self.beam_width is not None and self.beam_width < 1:
            raise SolverError("beam width must be >= 1")
        if self.swap_duration < 0:
            raise SolverError("swap duration must be >= 0")
        if self.time_limit is not None and not self.time_limit > 0:
            raise SolverError(f"time limit must be a positive number of seconds, "
                              f"got {self.time_limit!r}")


class SearchNode:
    __slots__ = ("parent", "gate_index", "edge", "depth_map", "assignment",
                 "progress", "swap_count", "num_scheduled", "removed", "frame")

    def __init__(self, parent, gate_index, edge, depth_map, assignment,
                 progress, swap_count, num_scheduled):
        self.parent = parent
        self.gate_index = gate_index
        self.edge = edge
        self.depth_map = depth_map          # tuple over nodes 1..|V| (index 0 unused)
        self.assignment = assignment        # tuple over qubits 1..n, 0 = unassigned
        self.progress = progress            # tuple over qubits 1..n
        self.swap_count = swap_count
        self.num_scheduled = num_scheduled
        self.removed = False
        self.frame = None                   # depth map in its Pareto class's frame


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
    """Admissible lower bound on the achievable makespan from this node."""
    dm, asg, progress, delta = node.depth_map, node.assignment, node.progress, info.delta
    h = 0
    for q, seq in info.per_qubit.items():
        a = asg[q]
        dq = dm[a] if a else 0
        frontier = progress[q]
        if frontier < len(seq):
            dq += delta[seq[frontier]]
        if dq > h:
            h = dq

    d_s = swap_duration
    pos, tail_sums = info.pos, info.tail_sums
    for p, q, positions, ids in info.pairs:
        k = bisect_left(positions, progress[p])
        if k == len(positions):
            continue
        ap, aq = asg[p], asg[q]
        if not ap or not aq:
            continue
        paths = graph.minimal_paths(ap, aq)
        if paths is None:
            continue  # enumeration capped; skipping keeps the bound admissible
        first = ids[k]
        # Each wire's depth plus its circuit work before this gate (from the
        # frontier gate up to, excluding, this gate).
        start_p = dm[ap] + tail_sums[p][progress[p]] - tail_sums[p][pos[first][p]]
        start_q = dm[aq] + tail_sums[q][progress[q]] - tail_sums[q][pos[first][q]]
        best = None
        for path in paths:
            # The gate runs on edge e = (path[e], path[e+1]) once p has swapped
            # forward to path[e] and q back to path[e+1].  right[e] is q's
            # earliest arrival: a suffix maximum of node depth + d_s per hop;
            # `left` is p's, the matching prefix maximum.  The start time
            # max(left, right[e]) is minimal where `left` overtakes right[e]:
            # `left` only grows with e (d_s >= 0) and right[e] only shrinks.
            last = len(path) - 2
            right = [start_q] * (last + 1)
            for e in range(last - 1, -1, -1):
                x, r = dm[path[e + 1]], right[e + 1]
                right[e] = (r if r > x else x) + d_s
            left = start_p
            h_path = left if left > right[0] else right[0]
            for e in range(1, last + 1):
                if left >= right[e - 1]:
                    break
                x = dm[path[e]]
                left = (left if left > x else x) + d_s
                t = left if left > right[e] else right[e]
                if t < h_path:
                    h_path = t
            if best is None or h_path < best:
                best = h_path
        if delta[first] + best > h:
            h = delta[first] + best
    return h


def bound_swaps(node: SearchNode, info: PrecedenceInfo, graph: HardwareGraph) -> int:
    """Admissible lower bound on the total SWAP count from this node."""
    worst = 0
    for p, q, positions, _ in info.pairs:
        if positions[-1] < node.progress[p]:
            continue  # every gate of the pair already scheduled
        ap, aq = node.assignment[p], node.assignment[q]
        if ap and aq:
            worst = max(worst, graph.dist[ap][aq] - 1)
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
        return self.w_depth * max(node.depth_map) + self.w_swaps * node.swap_count

    def root(self) -> SearchNode:
        n = self.circuit.num_virtual_qubits
        return SearchNode(parent=None, gate_index=None, edge=None,
                          depth_map=(0,) * (self.graph.num_nodes + 1),
                          assignment=(0,) * (n + 1), progress=(0,) * (n + 1),
                          swap_count=0, num_scheduled=0)

    def make_child(self, node: SearchNode, gate_index: int, edge) -> SearchNode:
        v, w = edge
        start = max(node.depth_map[v], node.depth_map[w])
        dm = list(node.depth_map)
        asg = list(node.assignment)
        if gate_index == SWAP:
            # The qubits (if any) at v and w trade places.
            if v in node.assignment:
                asg[node.assignment.index(v)] = w
            if w in node.assignment:
                asg[node.assignment.index(w)] = v
            dm[v] = dm[w] = start + self.config.swap_duration
            return SearchNode(node, SWAP, edge, tuple(dm), tuple(asg), node.progress,
                              node.swap_count + 1, node.num_scheduled)
        gate = self.circuit.gates[gate_index - 1]
        p, q = gate.qubits
        asg[p], asg[q] = v, w
        prog = list(node.progress)
        prog[p] += 1
        prog[q] += 1
        dm[v] = dm[w] = start + gate.duration
        return SearchNode(node, gate_index, edge, tuple(dm), tuple(asg), tuple(prog),
                          node.swap_count, node.num_scheduled + 1)

    def gate_children_edges(self, node: SearchNode):
        """Yield (gate_index, edge) placements for minimal unscheduled gates.
        Layered mode keeps the lowest unfinished layer: the lowest layer among
        minimal gates, since all predecessors of its gates are scheduled."""
        gates = minimal_unscheduled(self.info, node.progress)
        if self.config.layered and gates:
            layer = self.info.layer
            low = min(layer[i] for i in gates)
            gates = [i for i in gates if layer[i] == low]
        busy = set(node.assignment)     # occupied nodes (plus 0, never a node)
        for i in gates:
            p, q = self.circuit.gates[i - 1].qubits
            ap, aq = node.assignment[p], node.assignment[q]
            if ap and aq:
                if self.graph.has_edge(ap, aq):
                    yield i, (ap, aq)
            elif ap:
                for w in self.graph.neighbors(ap):
                    if w not in busy:
                        yield i, (ap, w)
            elif aq:
                for v in self.graph.neighbors(aq):
                    if v not in busy:
                        yield i, (v, aq)
            else:
                for v, w in self.graph.edges:
                    if v not in busy and w not in busy:
                        yield i, (v, w)
                        yield i, (w, v)

    def swap_children_edges(self, node: SearchNode):
        busy = set(node.assignment)
        for v, w in self.graph.edges:
            if v in busy or w in busy:
                yield SWAP, (v, w)

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
        gates = list(self.gate_children_edges(node))
        if not self.w_depth:
            asg = node.assignment
            for i, edge in gates:
                p, q = self.circuit.gates[i - 1].qubits
                if asg[p] and asg[q]:
                    return [(i, edge)]
        undo = node.edge if node.gate_index == SWAP else None
        gates.extend(c for c in self.swap_children_edges(node) if c[1] != undo)
        return gates


class _Front:
    """Pareto store: class key -> non-dominated records, compared on the
    depth map and the SWAP count, each only if the objective weighs it.

    A state's class key is the lexicographic minimum of (sigma . assignment,
    progress) over the identity and the given automorphisms; a record's
    depth map is stored mapped by one sigma that attains it (its `frame`,
    `frame[sigma[v]] == depth_map[v]`).  When several sigma attain the key
    (the state is fixed by a nontrivial automorphism), a newcomer is
    compared in each of their frames.  Given the whole group, a record then
    dominates a newcomer exactly when some automorphism maps the newcomer's
    state onto the record's and the record's depth map is no worse than the
    mapped one, whatever sigma the record was stored under.  With no automorphisms the key is the state and
    the frame its depth map.
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

    def canonical(self, node: SearchNode):
        """The node's class key, and its depth map in every frame that
        attains the key (`(None,)` when depth is not tracked)."""
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
        if not self.track_depth:
            return (best, node.progress), (None,)
        dm = node.depth_map
        return (best, node.progress), [dm if frame_of is None else frame_of(dm)
                                       for frame_of in winners]

    def dominates(self, swaps_a: int, frame_a, swaps_b: int, frame_b) -> bool:
        """Whether (swaps_a, frame_a) is no worse than (swaps_b, frame_b) on
        every tracked coordinate, both frames of one class."""
        if self.track_swaps and swaps_a > swaps_b:
            return False
        return not self.track_depth or all(map(operator.le, frame_a, frame_b))

    def try_insert(self, node: SearchNode, stats: SolveStats) -> bool:
        key, frames = self.canonical(node)
        records = self.store.setdefault(key, [])
        swaps, dominates = node.swap_count, self.dominates
        for r in records:
            for frame in frames:
                if dominates(r.swap_count, r.frame, swaps, frame):
                    stats.nodes_pruned += 1
                    return False
        kept = []
        for r in records:
            for frame in frames:
                if dominates(swaps, frame, r.swap_count, r.frame):
                    r.removed = True
                    break
            else:
                kept.append(r)
        if len(kept) < len(records):
            stats.fronts_replaced += 1
        node.frame = frames[0]
        kept.append(node)
        self.store[key] = kept
        return True


def solve(circuit: Circuit, graph: HardwareGraph, config: SolverConfig | None = None) -> SolveResult:
    """Solve the mapping problem; exact unless a beam width or time limit cuts
    the search.  In beam mode a dead-ended search is deterministically
    restarted with twice the beam width until a solution is found."""
    config = config or SolverConfig()
    t0 = time.monotonic()
    search = _Search(circuit, graph, config)
    beam = config.beam_width
    while (result := _run(search, beam, t0)) is None:
        beam *= 2
    result.stats.wall_time = time.monotonic() - t0
    return result


def _run(search: _Search, beam: int | None, t0: float) -> SolveResult | None:
    """One search at beam width `beam` (None: exact); None when a beam's
    open list empties with no complete node."""
    config = search.config
    stats = SolveStats()
    front = _Front(track_depth=config.w_depth > 0, track_swaps=config.w_swaps > 0,
                   automorphisms=search.graph.automorphisms())
    root = search.root()
    counter = 0

    def entry(node: SearchNode):
        nonlocal counter
        counter += 1
        return (search.bound(node), -node.num_scheduled, node.swap_count, counter, node)

    open_heap = [entry(root)]
    front.try_insert(root, stats)
    stats.nodes_inserted += 1
    num_gates = search.circuit.num_gates
    incumbent: SearchNode | None = None
    incumbent_obj: int | None = None

    while open_heap:
        if config.time_limit is not None and time.monotonic() - t0 > config.time_limit:
            break
        _, _, _, _, node = heapq.heappop(open_heap)
        if node.removed:
            continue
        if node.num_scheduled == num_gates:
            return _result(search, node, stats, "incumbent" if beam else "optimal")
        stats.nodes_expanded += 1
        for gate_index, edge in search.children(node):
            child = search.make_child(node, gate_index, edge)
            if child.num_scheduled == num_gates:
                obj = search.objective(child)
                if incumbent_obj is None or obj < incumbent_obj:
                    incumbent, incumbent_obj = child, obj
            # Only Pareto survivors are bounded: a pruned child needs no key.
            if not config.use_pareto or front.try_insert(child, stats):
                stats.nodes_inserted += 1
                heapq.heappush(open_heap, entry(child))
        if beam is not None:
            alive = [e for e in open_heap if not e[4].removed]
            if len(alive) > beam:
                # The unique counter decides every tie before the node, and
                # a sorted list is already a heap.
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
    """The schedule along `node`'s path; each op starts when both of its
    nodes are free in the parent and ends at the child's depth there."""
    ops = []
    cur = node
    while cur.parent is not None:
        v, w = cur.edge
        start = max(cur.parent.depth_map[v], cur.parent.depth_map[w])
        ops.append(ScheduledOp(kind=cur.gate_index, edge=cur.edge,
                               start=start, duration=cur.depth_map[v] - start))
        cur = cur.parent
    ops.reverse()
    ops.sort(key=lambda op: op.start)
    schedule = Schedule(ops=tuple(ops), swap_duration=search.config.swap_duration)
    return SolveResult(schedule=schedule,
                       objective_value=Fraction(search.objective(node), search.scale),
                       status=status,
                       stats=stats,
                       makespan=max(node.depth_map),
                       swap_count=node.swap_count)
