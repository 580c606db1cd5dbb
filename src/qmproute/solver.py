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
(`_Search.keep`).  Any set of automorphisms is sound, since each merge is
justified by one of them; `HardwareGraph.automorphisms` caps the set,
which only limits how much is merged.  An unweighted coordinate can never
make a node's best completion worse; when minimizing SWAPs alone each
class keeps one record, the node with its lowest SWAP count.
`_Search.children` lists a node's children in one pass, each as its state,
the assignment and progress packed into `bytes` when every entry fits in a
byte (a SWAP child and each automorphism image is one `bytes.translate`),
and `_Search.keep` probes the store with each, under one key object, and
builds a node only for a child the store keeps.  What a progress vector alone
decides, its row, comes whole from one `minimal_unscheduled` pass over the
gate list the first time a node needs it, and the memo `_Rows` keeps it,
so the many nodes that share a progress vector share its row.  Two
dominance rules drop children before they are listed: no SWAP undoes its
parent's SWAP, and with no weight on depth a gate that can run where its
qubits stand is the only child.  An admissible lower bound drives the
expansion order, so the first complete node popped is optimal; at a
complete node the bound is the objective, so the heap key also ranks
incumbents.  A child's key is never below its parent's, which lets a SWAP
child skip the depth bound's hole term, the costly part: its progress, and
so its hole pairs, are its parent's.  A beam width converts the search into
a heuristic.
"""

from __future__ import annotations

import gc
import heapq
import math
import operator
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .circuit import Circuit, PrecedenceInfo, analyze, minimal_unscheduled
from .hardware import HardwareGraph
from .schedule import DEFAULT_SWAP_DURATION, SWAP, Schedule, ScheduledOp


# A weight given as text: ASCII digits with an optional decimal part or a
# nonzero denominator.  Fraction alone also takes '١/٣', ' 1/3 ', '1_0' and
# '1e3', and expands '1e999999999' into an integer of a billion digits.
WEIGHT = re.compile(r"[0-9]+(\.[0-9]+|/0*[1-9][0-9]*)?")


# The largest entry a packed state holds: a state is `bytes` when no node
# number and no qubit's gate count exceeds it, and tuples otherwise.
BYTE_MAX = 255


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

    def __post_init__(self):
        for name in ("w_depth", "w_swaps"):
            # A float is refused: 0.1 is 3602879701896397 / 2**55, and that
            # denominator would scale every heap key.
            weight = getattr(self, name)
            if not (WEIGHT.fullmatch(weight) if isinstance(weight, str)
                    else isinstance(weight, (int, Fraction)) and not isinstance(weight, bool)):
                raise SolverError(f"{name} must be an int, a Fraction or a decimal string "
                                  f"such as 2, 0.1 or 1/3, got {weight!r}")
            setattr(self, name, Fraction(weight))
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
        # Over qubits 1..n (index 0 stays 0), in the search's representation:
        # `bytes` when every entry fits in a byte, else a tuple (`_Search.pack`).
        self.assignment = assignment        # node per qubit, 0 = unassigned
        self.progress = progress            # gates scheduled per qubit
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


def bound_depth(node: SearchNode, row: tuple, graph: HardwareGraph,
                swap_duration: int, holes: bool = True) -> int:
    """Admissible lower bound on the achievable makespan from this node.

    The largest of three kinds of term.  A qubit's: its node's depth plus
    delta of its next gate.  A placed pair's: delta of its next shared gate
    `first` plus the earliest time that gate can start, once each qubit has
    done its work before `first` and the two have met on an edge of some
    minimal path between their nodes.  A hole pair's, a placed qubit p on
    node a with a gate still to run with an unplaced qubit q (left out
    when `holes` is false): delta of `first` plus the least such meet
    (`_least_meet`) over the free nodes f, of p from a, starting at
    start_p = dm[a] + work_p, and of a walker from f, starting at start_f =
    dm[f] + work_q.  Every circuit fact in the terms is in `row`, the node's
    progress vector's entry in `_Rows`, whose pairs are the placed ones
    only.

    The hole term is admissible.  q will be placed on a node free at that
    moment, and a free node moves only by SWAPs, one hop each, waiting for
    the nodes it enters, as a qubit does.  Follow the free node q is placed
    on back to now: it is some free node f, and the ops from f to `first`'s
    edge, the SWAPs that carry the free node and then q, and q's gates
    before `first`, run one after another, as the pair term's walker does.
    Counting q's work at the start of the walk only lowers the meet.  A
    free node exists while q is unplaced, since `_Search` refuses more
    qubits than nodes.

    Two walkers k hops apart meet no earlier than either start, nor than
    half the sum of their starts and k - 1 hops, since between them they
    make at least k - 1 SWAPs.  At k = 1 that is the meet itself, with no
    path enumerated, and it stands in for the meet at a free node whose
    paths the enumeration caps.

    A pair on adjacent nodes is skipped: its term is delta[first] +
    max(start_p, start_q), which is at most the larger of the two qubits'
    terms, since delta along p's chain is at least p's work before `first`
    plus delta[first].  A term is worked out only until it can no longer
    exceed the running maximum: a pair's paths, and a hole pair's free
    nodes, nearest first, until one meets early enough.  The scan passes a
    free node whose least meet by hops reaches the least meet found so far,
    and stops at the first whose bound at depth 0 does, since that bound
    holds for every node as far or farther.
    """
    dm, asg = node.depth_map, node.assignment
    heads, pairs = row[1], row[2]
    h = 0
    for a, head in zip(asg, heads):
        t = dm[a] + head                # dm[0] == 0: an unplaced qubit's node
        if t > h:
            h = t

    d_s, dist = swap_duration, graph.dist
    for p, q, delta_first, work_p, work_q in pairs:
        ap, aq = asg[p], asg[q]
        if dist[ap][aq] == 1:
            continue
        paths = graph.minimal_paths(ap, aq)
        if paths is None:
            continue  # enumeration capped; skipping keeps the bound admissible
        # Each wire's depth plus its circuit work before `first`.
        start_p, start_q = dm[ap] + work_p, dm[aq] + work_q
        if ap > aq:         # paths run from the lower node; the meet is symmetric
            start_p, start_q = start_q, start_p
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

    for p, delta_first, work_p, work_q in row[4] if holes else ():
        a = asg[p]
        start_p, bar, best = dm[a] + work_p, h - delta_first, None
        reach, dist_a = start_p + work_q - d_s, dist[a]
        for f in graph.nearest_first(a):
            if f in asg:        # occupied: `in` scans a `bytes` or tuple state in C
                continue
            k, start_f = dist_a[f], dm[f] + work_q
            if k == 1:
                meet = start_p if start_p > start_f else start_f
            else:
                if best is not None and (reach + k * d_s + 1) // 2 >= best:
                    break       # nor can any free node farther away
                least = (reach + dm[f] + k * d_s + 1) // 2
                if start_f > least:
                    least = start_f
                if start_p > least:
                    least = start_p
                if best is not None and least >= best:
                    continue
                paths = graph.minimal_paths(a, f)
                if paths is None:
                    meet = least
                elif a < f:
                    meet = _least_meet(paths, dm, start_p, start_f, d_s, bar)
                else:
                    meet = _least_meet(paths, dm, start_f, start_p, d_s, bar)
            if meet <= bar:
                best = None     # the term cannot raise h
                break
            if best is None or meet < best:
                best = meet
        if best is not None:
            h = delta_first + best
    return h


def _least_meet(paths, dm, start_lo: int, start_hi: int, swap_duration: int, bar: int) -> int:
    """The least over `paths` (node tuples, each from the same end) of the
    earliest time two walkers meet on one of the path's edges, the one
    starting at its first node at time `start_lo`, the other at its last
    node at `start_hi`, each waiting for every node it enters and taking
    `swap_duration` per hop; or the first such meet no later than `bar`.
    It is the pair term's two-pointer loop in `bound_depth`, whose comment
    gives the argument; that loop stays inline, as it runs for most bounds
    and a call per pair costs it about 3%."""
    d_s, best = swap_duration, None
    for path in paths:
        i, j = 0, len(path) - 2
        left, right = start_lo, start_hi
        while i < j:
            if left < right:
                i += 1
                x = dm[path[i]]
                left = (left if left > x else x) + d_s
            else:
                x = dm[path[j]]
                j -= 1
                right = (right if right > x else x) + d_s
        meet = left if left > right else right
        if meet <= bar:
            return meet
        if best is None or meet < best:
            best = meet
    return best


def bound_swaps(node: SearchNode, row: tuple, graph: HardwareGraph) -> int:
    """Admissible lower bound on the total SWAP count from this node: the
    SWAPs made so far plus the largest of two kinds of term, each a distance
    less one.  A placed pair's with a gate still to run (the pairs of `row`,
    as `bound_depth` reads them): the distance between its nodes.  A hole's,
    a placed qubit p with a gate still to run with an unplaced qubit q (the
    holes of `row`): the distance from p's node to the nearest free node.

    The hole term is admissible: take as potential the distance from p's
    node to q's once q is placed, and to the nearest free node before.  A
    SWAP moves p, or another qubit and with it possibly a free node, one hop
    (a SWAP of p onto a free node leaves the potential at 1), so it lowers
    the potential by at most 1.  Placing a qubit only takes free nodes, and
    q is placed on a node free at that moment, so no placement lowers it.
    The gate needs distance 1, so at least the potential less one SWAPs
    remain.  A free node exists while q is unplaced, since `_Search`
    refuses more qubits than nodes.
    """
    asg, dist, worst = node.assignment, graph.dist, 0
    for pair in row[2]:
        d = dist[asg[pair[0]]][asg[pair[1]]] - 1
        if d > worst:
            worst = d
    for p in row[3]:
        a = asg[p]
        for h in graph.nearest_first(a):
            if h not in asg:    # a free node: `in` scans a `bytes` or tuple state in C
                break
        d = dist[a][h] - 1
        if d > worst:
            worst = d
    return node.swap_count + worst


class _Rows(dict):
    """Per progress vector, its `minimal_unscheduled` row, made on its first
    request, by `children` or the bound; a known vector is one lookup."""

    def __init__(self, info: PrecedenceInfo, layered: bool):
        super().__init__()
        self.info, self.layered = info, layered

    def __missing__(self, progress) -> tuple:
        row = self[progress] = minimal_unscheduled(self.info, progress, self.layered)
        return row


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
        # A state's assignment and progress are `bytes` when every entry
        # fits in a byte, else tuples: `pack` builds one from its entries,
        # and `permute(asg, table)` reads each entry a of `asg` at table[a],
        # one `bytes.translate` when packed.  A node table spans 0..|V|,
        # and every byte value when packed, as `translate` needs.
        most = max(Counter(q for g in circuit.gates for q in g.qubits).values(), default=0)
        if graph.num_nodes <= BYTE_MAX and most <= BYTE_MAX:
            self.pack, self.permute, self.width = bytes, bytes.translate, 256
        else:
            self.pack, self.permute, self.width = tuple, _permute, graph.num_nodes + 1
        # The graph's automorphisms as node tables, and for each sigma the
        # getter of its inverse (the nodes sorted by image), which reads a
        # depth map into sigma's frame: frame[u] = depth_map[sigma^-1[u]].
        automorphisms = graph.automorphisms()
        self.automorphisms = [self.pack(sigma + tuple(range(len(sigma), self.width)))
                              for sigma in automorphisms]
        self.frame_of = [operator.itemgetter(*sorted(range(len(sigma)), key=sigma.__getitem__))
                         for sigma in automorphisms]
        # Per edge, its transposition as a node table, built the first time
        # the edge's SWAP is listed (only edges next to an occupied node
        # ever are): a node's assignment permuted by it is the SWAP child's.
        self.transpositions = [None] * len(graph.edges)
        self.rows = _Rows(self.info, config.layered)
        self.bound = _bound(self.rows, graph, config.swap_duration, self.w_depth, self.w_swaps)

    def root(self) -> SearchNode:
        """The empty schedule.  Nodes carry a depth map only when depth has
        a weight: nothing else reads it, and `_result` replays the times."""
        zeros = self.pack([0] * (self.circuit.num_virtual_qubits + 1))
        return SearchNode(parent=None, gate_index=None, edge=None,
                          depth_map=(0,) * (self.graph.num_nodes + 1) if self.w_depth else None,
                          assignment=zeros, progress=zeros, swap_count=0, num_scheduled=0)

    def children(self, node: SearchNode) -> list:
        """The children the search expands, in one pass, each as its state:
        (gate_index, edge, depth_map, assignment, progress, swap_count,
        num_scheduled), the assignment and progress in the search's
        representation (`pack`) and the depth map a tuple.  They are each
        placement of each minimal unscheduled gate, then a SWAP on each edge
        with an occupied end, whose assignment is the node's permuted by the
        edge's transposition (`transpositions`).  The minimal gates
        and the progress after each are the moves of the node's progress
        vector in `rows`.  Two kinds that some kept child dominates are left
        out:

        - With no weight on depth, a gate whose qubits are both placed (so
          on adjacent nodes) is the only child.  A gate moves no qubit, so
          it can be moved to the front of any completion without changing
          its SWAP count, and in layered mode it is already in the lowest
          unfinished layer.  Under a depth weight the rule is unsound:
          running the ready gate first can delay a longer chain.
        - No SWAP undoes the node's own SWAP: that child has the
          grandparent's state, a depth vector no lower and two more SWAPs.
        """
        asg, prog, dm = node.assignment, node.progress, node.depth_map
        moves = self.rows[prog][0]
        graph, pack = self.graph, self.pack
        swaps, scheduled = node.swap_count, node.num_scheduled
        busy = set(asg)     # occupied nodes (plus 0, never a node)
        children = []
        for i, p, q, duration, done in moves:
            ap, aq = asg[p], asg[q]
            if ap and aq:
                edges = [(ap, aq)] if graph.has_edge(ap, aq) else ()
            elif ap:
                edges = [(ap, w) for w in graph.neighbors(ap) if w not in busy]
            elif aq:
                edges = [(v, aq) for v in graph.neighbors(aq) if v not in busy]
            else:
                edges = [e for v, w in graph.edges if v not in busy and w not in busy
                         for e in ((v, w), (w, v))]
            for edge in edges:
                v, w = edge
                deeper = dm
                if dm is not None:
                    deeper = list(dm)
                    deeper[v] = deeper[w] = (dm[v] if dm[v] > dm[w] else dm[w]) + duration
                    deeper = tuple(deeper)
                if ap and aq:
                    if not self.w_depth:
                        return [(i, edge, deeper, asg, done, swaps, scheduled + 1)]
                    moved = asg
                else:
                    moved = list(asg)
                    moved[p], moved[q] = v, w
                    moved = pack(moved)
                children.append((i, edge, deeper, moved, done, swaps, scheduled + 1))
        undo = node.edge if node.gate_index == SWAP else None
        d_s, taus, permute = self.config.swap_duration, self.transpositions, self.permute
        for index, edge in enumerate(graph.edges):
            v, w = edge
            if (v in busy or w in busy) and edge != undo:
                tau = taus[index]
                if tau is None:
                    tau = list(range(self.width))
                    tau[v], tau[w] = w, v
                    tau = taus[index] = pack(tau)
                deeper = dm
                if dm is not None:
                    deeper = list(dm)
                    deeper[v] = deeper[w] = (dm[v] if dm[v] > dm[w] else dm[w]) + d_s
                    deeper = tuple(deeper)
                children.append((SWAP, edge, deeper, permute(asg, tau), prog, swaps + 1, scheduled))
        return children

    def keep(self, node: SearchNode, children, store: dict | None, stats: SolveStats) -> list:
        """The children of `node`, states as `children` lists them, that the
        Pareto store `store` keeps, built as `SearchNode`s in order; every
        one when `store` is None.  No node is built for a pruned child.

        The store maps a class key to the class's non-dominated records.  A
        state's class key is one object, `best + progress`: `best` is the
        lexicographic minimum of sigma . assignment over the identity and
        the automorphisms (`bytes` order the packed images as the tuples of
        their entries), and every assignment of a search has one length.
        Under a depth weight a class holds a list of records `(vector,
        node)`: the depth map read into the frame of the first sigma
        attaining the key (`frame[sigma[v]] == depth_map[v]`), the identity
        first, then the SWAP count if the objective weighs it.  A child is
        compared in that one frame, entry by entry.  A record stored under
        sigma_A that is no worse than a child read under sigma_B holds the
        child's state moved by sigma_A^-1 . sigma_B, so each prune is
        justified by one automorphism; a state fixed by a nontrivial
        automorphism may attain the key in other frames too, and comparing
        in one of them only prunes less, as `AUTOMORPHISM_CAP` does.

        A class's vectors are an antichain (a child is stored only if no
        record is no worse, and evicts those no better), so one pass decides
        a child.  The first record no worse than it prunes it, and no record
        before was marked `removed`: r1 no better than the child ahead of r2
        no worse would give r2 <= r1.  If none prunes it, the child is kept
        and the records no better than it are marked and dropped.  With SWAP
        counts alone a class holds one record, the node with the lowest
        count, as itself.
        """
        if store is None:
            return [SearchNode(node, *child) for child in children]
        automorphisms, frame_of, permute = self.automorphisms, self.frame_of, self.permute
        w_swaps, le = self.w_swaps, operator.le
        kept = []
        for child in children:
            _, _, dm, asg, prog, swaps, _ = child
            if dm is None:
                best = asg
                for table in automorphisms:
                    image = permute(asg, table)
                    if image < best:
                        best = image
                key = best + prog
                record = store.get(key)
                if record is not None:
                    if record.swap_count <= swaps:
                        stats.nodes_pruned += 1
                        continue
                    record.removed = True
                    stats.fronts_replaced += 1
                child = store[key] = SearchNode(node, *child)
                kept.append(child)
                continue
            # The key's least image, and the getter of the first sigma
            # attaining it (None: the identity).
            best, to_frame = asg, None
            for table, getter in zip(automorphisms, frame_of):
                image = permute(asg, table)
                if image < best:
                    best, to_frame = image, getter
            vector = dm if to_frame is None else to_frame(dm)
            if w_swaps:
                vector += (swaps,)
            key = best + prog
            records = store.get(key, ())
            survivors = []
            for record in records:
                if all(map(le, record[0], vector)):     # no worse: prunes the child
                    stats.nodes_pruned += 1
                    break
                if all(map(le, vector, record[0])):     # no better: evicted
                    record[1].removed = True
                else:
                    survivors.append(record)
            else:
                if len(survivors) < len(records):
                    stats.fronts_replaced += 1
                child = SearchNode(node, *child)
                survivors.append((vector, child))
                store[key] = survivors
                kept.append(child)
        return kept


def _permute(state: tuple, table: tuple) -> tuple:
    """`bytes.translate` for a tuple state: each entry a read at table[a]."""
    return tuple(map(table.__getitem__, state))


def _bound(rows: _Rows, graph: HardwareGraph, swap_duration: int, w_depth: int, w_swaps: int):
    """The search's lower bound on the objective, times its scale, as a
    function of a node: the weighted bounds for the objective's positive
    weights, both read from the node's one row in `rows`.  A SWAP child's
    depth bound leaves out the hole term: its progress, and so its hole
    pairs, are its parent's, and `_run` floors its key at its parent's
    instead.  It refers to no `_Search`, so a search holding it makes no
    reference cycle."""
    def bound(node):
        row = rows[node.progress]
        return ((w_depth and w_depth * bound_depth(node, row, graph, swap_duration,
                                                   node.gate_index != SWAP))
                + (w_swaps and w_swaps * bound_swaps(node, row, graph)))
    return bound


def solve(circuit: Circuit, graph: HardwareGraph, config: SolverConfig | None = None) -> SolveResult:
    """Solve the mapping problem; exact unless a beam width or time limit cuts
    the search.  In beam mode a dead-ended search is deterministically
    restarted with twice the beam width until a solution is found.  This
    ends, since a beam always has its Pareto store and so each run inserts
    finitely many nodes.

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
        while (result := _run(search, beam, t0, {})) is None:
            beam *= 2
    finally:
        if collecting:
            gc.enable()
    result.stats.wall_time = time.monotonic() - t0
    return result


def _run(search: _Search, beam: int | None, t0: float,
         store: dict | None) -> SolveResult | None:
    """One search at beam width `beam` (None: exact) with the empty Pareto
    store `store` (None: no store, every child kept); None when a beam's
    open list empties with no complete node.  Heap entries are (key,
    -num_scheduled, swap_count, insert count, node): the count of nodes
    inserted so far is unique per entry and decides every tie before the
    node.  A child's key is its bound floored at its parent's key
    (pathmax): every completion of the child is one of the parent, so the
    parent's key bounds the child's too.  A beam trim keeps the `beam`
    least live entries, sorted (a sorted list is a heap).  A complete
    node's bound is its objective: with every qubit done, `bound_depth` is
    the deepest node holding a qubit, the makespan (an op leaves a qubit on
    a node as deep as any it makes, and no depth falls), and `bound_swaps`
    is the SWAP count; the floor, a lower bound on that objective, leaves
    it.  So the incumbent is the first kept complete child with the least
    key; a pruned one is no better than the kept complete record that
    pruned it."""
    config = search.config
    stats = SolveStats()
    children, keep, bound = search.children, search.keep, search.bound
    deadline = math.inf if config.time_limit is None else t0 + config.time_limit
    # The root is not stored: no other node has its empty state.
    root = search.root()
    stats.nodes_inserted += 1
    open_heap = [(bound(root), 0, 0, stats.nodes_inserted, root)]
    num_gates = search.circuit.num_gates
    incumbent: SearchNode | None = None
    incumbent_key: int | None = None

    while open_heap:
        if time.monotonic() > deadline:
            break
        node_key, _, _, _, node = heapq.heappop(open_heap)
        if node.removed:
            continue
        if node.num_scheduled == num_gates:
            return _result(search, node, stats, "incumbent" if beam else "optimal")
        stats.nodes_expanded += 1
        # Only Pareto survivors are built and bounded: a pruned child needs no key.
        for child in keep(node, children(node), store, stats):
            stats.nodes_inserted += 1
            key = bound(child)
            if key < node_key:
                key = node_key
            if child.num_scheduled == num_gates and (incumbent is None
                                                     or key < incumbent_key):
                incumbent, incumbent_key = child, key
            heapq.heappush(open_heap, (key, -child.num_scheduled,
                                       child.swap_count, stats.nodes_inserted, child))
        if beam is not None and len(open_heap) > beam:
            open_heap = sorted(e for e in open_heap if not e[4].removed)[:beam]

    if incumbent is not None:
        return _result(search, incumbent, stats, "incumbent")
    if beam is not None and not open_heap:
        return None     # the beam died, not the clock: `solve` widens it
    return SolveResult(schedule=None, objective_value=None, status="timeout", stats=stats)


def _result(search: _Search, node: SearchNode, stats: SolveStats, status: str) -> SolveResult:
    """The schedule along `node`'s path and its objective.  Its ops are
    replayed in path order, each as early as possible from all-zero depths,
    which gives exactly the depth maps the search keeps under a depth
    weight."""
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
    config, makespan = search.config, max(depth)
    return SolveResult(schedule=schedule,
                       objective_value=config.w_depth * makespan + config.w_swaps * node.swap_count,
                       status=status,
                       stats=stats,
                       makespan=makespan,
                       swap_count=node.swap_count)
