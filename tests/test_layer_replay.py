"""`tools/layer_replay.py`: one pass recorded and each layer replayed."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from qmproute import solver
from qmproute.bench import InstanceSpec, gen_random_circuit
from qmproute.hardware import parse_topology

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("layer_replay", ROOT / "tools" / "layer_replay.py")
layer_replay = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(layer_replay)


def test_a_pass_replays_alike():
    proc = subprocess.run([sys.executable, "tools/layer_replay.py", "--workload", "exact-swaps",
                           "--seed", "1", "--reps", "1"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("exact-swaps seed 1: 42 solves")
    assert [line.split()[0] for line in lines[1:]] == list(layer_replay.LAYERS)


def test_a_changed_output_is_caught():
    circuit = gen_random_circuit(InstanceSpec("grid:2x3", 6, 8, 0))
    graph = parse_topology("grid:2x3")
    log, result = layer_replay.record(solver, lambda: solver.solve(circuit, graph))
    assert result.status == "optimal"
    assert all(layer_replay.replay(solver, log, layer)[1] for layer in layer_replay.LAYERS)
    assert all(len(getattr(log, layer)) > 10 for layer in layer_replay.LAYERS)
    bound, node, key = log.bound[-1]
    log.bound[-1] = (bound, node, key + 1)
    i = next(i for i, call in enumerate(log.keep) if call[-1])
    search, node, kids, store, kept = log.keep[i]
    log.keep[i] = (search, node, kids, store, kept[:-1])
    search, node, kids = log.children[0]
    log.children[0] = (search, node, kids[1:])
    assert not any(layer_replay.replay(solver, log, layer)[1] for layer in layer_replay.LAYERS)
