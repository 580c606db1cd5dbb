"""The benchmark's traced run wraps solver and hardware names by attribute
(`perfbench/spans.py`).  A refactor that deletes or renames one of them
fails here, instead of crashing the traced benchmark run."""

import heapq
import importlib.util
from pathlib import Path

from qmproute import bench, hardware, schedule, solver
from qmproute.bench import InstanceSpec, gen_random_circuit
from qmproute.hardware import parse_topology

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_solve_crosses_every_wrapped_name():
    tracer = load_spans().Tracer()
    tracer.install({"solver": solver, "hardware": hardware, "bench": bench,
                    "schedule": schedule})
    try:
        circuit = gen_random_circuit(InstanceSpec("linear:5", 5, 10, 0))
        result = solver.solve(circuit, parse_topology("linear:5"),
                              solver.SolverConfig(w_depth=1, w_swaps=0))
    finally:
        tracer.uninstall()
    assert result.status == "optimal"
    totals = tracer.totals()
    for name in ("solver.solve", "circuit.analyze", "circuit.minimal_unscheduled",
                 "solver.bound_depth", "hardware.minimal_paths.miss",
                 "solver.heap.heappush", "solver.heap.heappop"):
        assert totals[name]["calls"] > 0, name
    assert solver.heapq is heapq
