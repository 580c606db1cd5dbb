"""In-memory span tracing around calls into qmproute's public functions.

`Tracer.install` swaps timing wrappers in for module attributes; the code
under test is not edited.  A span is (name, start, end, parent span, solve
id), kept in flat arrays so a traced run of a few million calls stays
small, and written out by `Tracer.dump` when the run ends.
"""

from __future__ import annotations

import json
import time
import weakref
from array import array
from pathlib import Path

NO_PARENT = -1
NO_SOLVE = -1


class _HeapShim:
    """Stands in for the `heapq` module inside `qmproute.solver`."""

    def __init__(self, tracer: "Tracer", heapq_module):
        for op in ("heappush", "heappop", "heapify"):
            setattr(self, op, tracer.wrap(f"solver.heap.{op}", getattr(heapq_module, op)))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.solve = array("i")
        self._stack: list[int] = []
        self.solve_id = NO_SOLVE
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """`fn` recording one span per call."""
        nid = self._id(name)
        clock = time.perf_counter_ns
        stack = self._stack
        names, starts, ends = self.name, self.start, self.end
        parents, solves = self.parent, self.solve

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else NO_PARENT)
            solves.append(self.solve_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, mods) -> None:
        """Wrap the public entry points of each measured layer.

        `mods` maps short names to the imported qmproute modules.  The
        solver's own references are wrapped where it imported them, so the
        spans sit at the layer boundaries the search actually crosses.
        """
        solver, hardware, bench, schedule = (
            mods["solver"], mods["hardware"], mods["bench"], mods["schedule"])
        for attr, name in (("analyze", "circuit.analyze"),
                           ("minimal_unscheduled", "circuit.minimal_unscheduled"),
                           ("bound_depth", "solver.bound_depth"),
                           ("bound_swaps", "solver.bound_swaps"),
                           ("solve", "solver.solve")):
            self.patch(solver, attr, self.wrap(name, getattr(solver, attr)))
        self.patch(solver, "heapq", _HeapShim(self, solver.heapq))
        self.patch(hardware, "parse_topology",
                   self.wrap("hardware.parse_topology", hardware.parse_topology))
        self.patch(bench, "gen_random_circuit",
                   self.wrap("bench.gen_random_circuit", bench.gen_random_circuit))
        for attr in ("validate", "compute_metrics"):
            self.patch(schedule, attr,
                       self.wrap(f"schedule.{attr}", getattr(schedule, attr)))

        # First request for a pair on a graph: the path cache misses.
        seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        inner = self.wrap("hardware.minimal_paths", hardware.HardwareGraph.minimal_paths)
        miss_inner = self.wrap("hardware.minimal_paths.miss",
                               hardware.HardwareGraph.minimal_paths)

        def minimal_paths(graph, v, w):
            pairs = seen.setdefault(graph, set())
            key = (min(v, w), max(v, w))
            if key in pairs:
                return inner(graph, v, w)
            pairs.add(key)
            return miss_inner(graph, v, w)

        self.patch(hardware.HardwareGraph, "minimal_paths", minimal_paths)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- derived numbers ---------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed ms, and self ms (duration minus the
        time covered by its direct child spans)."""
        n = len(self.start)
        starts, ends, parents, names = self.start, self.end, self.parent, self.name
        child_ns = array("q", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p != NO_PARENT:
                child_ns[p] += ends[i] - starts[i]
        ns = [[0, 0, 0] for _ in self.names]
        for i in range(n):
            acc = ns[names[i]]
            d = ends[i] - starts[i]
            acc[0] += 1
            acc[1] += d
            acc[2] += d - child_ns[i]
        return {name: {"calls": calls, "ms": total / 1e6, "self_ms": own / 1e6}
                for name, (calls, total, own) in zip(self.names, ns)}

    def dump(self, path: Path) -> None:
        """Write the spans as a JSON header plus one raw array per field."""
        fields = {"name": self.name, "start_ns": self.start, "end_ns": self.end,
                  "parent": self.parent, "solve": self.solve}
        header = {"names": self.names, "spans": len(self.start),
                  "fields": {k: {"typecode": a.typecode, "file": f"{path.name}.{k}"}
                             for k, a in fields.items()}}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(header, indent=1) + "\n")
        for k, a in fields.items():
            with open(path.parent / f"{path.name}.{k}", "wb") as f:
                a.tofile(f)
