"""Determinism checks for the benchmark, on a small subset of each workload.

Run from the repository root (kept out of the default test collection
because it solves real instances, about 30 s):

    python3 -m pytest -q perfbench/determinism_check.py
"""

from __future__ import annotations

import json

import pytest

import run
import suite

ANSWERS = json.loads((run.HERE / "answers.json").read_text())
# Workload -> number of its cheapest shape's instances to run.
SUBSET = {"exact-depth": 3, "exact-swaps": 2}


def traced_metrics(name: str, seed: int) -> tuple[dict, list]:
    workload = suite.WORKLOADS[name]
    cheapest = workload.shapes[0][:3]
    picks = [p for p in suite.select(workload, seed) if p.shape == cheapest]
    picks = sorted(picks, key=lambda p: p.seed)[:SUBSET[name]]
    mods = run.import_qmproute()
    tracer, untraced, traced = run.traced_run(
        mods, workload, picks, run.build(mods, picks), ANSWERS)
    assert not [r for r in untraced + traced if r.fail]
    metrics = {k: v for k, (v, _) in run.per_layer(tracer, untraced, traced, workload).items()}
    return metrics, sorted((r.key, r.objective) for r in traced)


@pytest.mark.parametrize("name", sorted(suite.WORKLOADS))
def test_counts_and_objectives_repeat(name):
    """Two traced runs of one seed, and a run of another seed (relabelled
    circuits), agree on every count and every objective."""
    runs = [traced_metrics(name, seed) for seed in (1, 1, 2)]
    counted = [{k: v for k, v in m.items()
                if k.endswith(".calls") or k.startswith("solver.nodes_")
                or k == "solver.fronts_replaced"}
               for m, _ in runs]
    assert counted[0] == counted[1] == counted[2]
    assert runs[0][1] == runs[1][1]
    assert [o for _, o in runs[0][1]] == [o for _, o in runs[2][1]]


def test_exact_swaps_bypasses_the_depth_bound():
    metrics, _ = traced_metrics("exact-swaps", 1)
    assert metrics["solver.bound_depth.calls"] == 0
    assert metrics["hardware.minimal_paths.calls"] == 0
    assert metrics["solver.bound_swaps.calls"] > 0
