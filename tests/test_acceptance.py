"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report lines.
"""

import json
import sys

import pytest

from qmproute.bench import InstanceSpec, gen_random_circuit, rmd, rows_to_csv, run_matrix
from qmproute.circuit import parse_circuit
from qmproute.hardware import parse_topology
from qmproute.oracle import oracle_fixpoint
from qmproute.schedule import (SWAP, Schedule, ScheduledOp, compute_metrics,
                               validate)
from qmproute.solver import SolverConfig, _Search, solve


def report(criterion, ok, detail=""):
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.stderr)
    assert ok, line


EXAMPLE = {"num_qubits": 4, "gates": [{"q": [1, 2], "d": 2},
                                      {"q": [3, 4], "d": 3},
                                      {"q": [4, 1], "d": 1}]}


def example_circuit():
    return parse_circuit(json.dumps(EXAMPLE))


def depth_config(**kw):
    return SolverConfig(w_depth=1, w_swaps=0, **kw)


def swaps_config(**kw):
    return SolverConfig(w_depth=0, w_swaps=1, **kw)


def criterion3_instances():
    """50 tiny instances (<= 4 virtual qubits, <= 6 gates), alternating
    between the linear-4 and y-4 hardware graphs."""
    graphs = {"linear:4": parse_topology("linear:4"),
              "y:4": parse_topology("y:4")}
    out = []
    for i in range(50):
        topo = "linear:4" if i % 2 == 0 else "y:4"
        qubits = 3 if i % 4 in (1, 2) else 4
        depth_param = 3 + i % 4
        spec = InstanceSpec(topo, qubits, depth_param, seed=7000 + i)
        out.append((spec, gen_random_circuit(spec), graphs[topo]))
    return out


_INSTANCES = criterion3_instances()
_EXACT_OPTIMA = {}   # (index, objective) -> exact optimum, filled by criterion 3


def test_criterion_1_worked_example_validator():
    c = example_circuit()
    g = parse_topology("linear:4")
    d = {1: 2, 2: 3, 3: 1}

    def gate(i, edge, t):
        return ScheduledOp(i, edge, t, d[i])

    s1 = Schedule((gate(1, (1, 2), 0), gate(2, (3, 4), 0), gate(3, (4, 1), 3)), 6)
    s2 = Schedule((gate(1, (1, 2), 0), gate(2, (3, 4), 0), gate(3, (3, 4), 3)), 6)
    s3 = Schedule((gate(1, (1, 2), 0), gate(2, (3, 4), 0),
                   ScheduledOp(SWAP, (1, 2), 2, 6), ScheduledOp(SWAP, (2, 3), 8, 6),
                   gate(3, (3, 4), 14)), 6)
    r1 = validate(s1, c, g)
    r2 = validate(s2, c, g)
    r3 = validate(s3, c, g)
    m3 = compute_metrics(s3)
    ok = (not r1.ok and r1.violation.category == "assignment"
          and not r2.ok and r2.violation.category == "routing"
          and r3.ok and m3.depth == 15 and m3.swaps == 2)
    report(1, ok, f"S1={r1.violation.category}, S2={r2.violation.category}, "
                  f"S3 depth={m3.depth} swaps={m3.swaps}")


def test_criterion_2_worked_example_solver():
    c = example_circuit()
    g = parse_topology("linear:4")
    r = solve(c, g, depth_config())
    valid = validate(r.schedule, c, g).ok
    oracle_value = oracle_fixpoint(c, g, "depth").value
    ok = (r.status == "optimal" and r.objective_value == 4 == oracle_value
          and r.swap_count == 0 and valid)
    report(2, ok, f"objective={r.objective_value}, swaps={r.swap_count}, "
                  f"oracle={oracle_value}, valid={valid}")


def test_criterion_3_oracle_equivalence():
    checked = 0
    for idx, (spec, circuit, graph) in enumerate(_INSTANCES):
        for objective, cfg in (("depth", depth_config), ("swaps", swaps_config)):
            exact = solve(circuit, graph, cfg())
            assert exact.status == "optimal"
            oracle = oracle_fixpoint(circuit, graph, objective)
            assert exact.objective_value == oracle.value, (spec, objective)
            _EXACT_OPTIMA[(idx, objective)] = exact.objective_value
            layered = solve(circuit, graph, cfg(layered=True))
            layered_ref = solve(circuit, graph, cfg(layered=True, use_pareto=False))
            assert layered.objective_value == layered_ref.objective_value, (spec, objective)
            checked += 2
    report(3, checked == 200, f"{checked}/200 combinations matched")


def test_criterion_4_admissibility():
    checked = 0
    for spec, circuit, graph in _INSTANCES:
        for cfg in (depth_config, swaps_config):
            for layered in (False, True):
                config = cfg(layered=layered)
                search = _Search(circuit, graph, config)
                root_h = search.bound(search.root())
                r = solve(circuit, graph, config)
                assert r.status == "optimal"
                assert root_h <= r.objective_value, (spec, layered)
                checked += 1
    report(4, True, f"h(root) <= optimum on {checked} instance/config pairs")


def test_criterion_5_pruning_soundness():
    checked = 0
    for spec, circuit, graph in _INSTANCES[:20]:
        for layered in (False, True):
            with_pruning = solve(circuit, graph, depth_config(layered=layered))
            without = solve(circuit, graph,
                            depth_config(layered=layered, use_pareto=False))
            assert with_pruning.objective_value == without.objective_value, (spec, layered)
            checked += 1
    report(5, True, f"pruned == unpruned optimum on {checked} runs")


def test_criterion_6_layered_superset_and_rmd():
    matrix = {
        "instances": [
            {"topology": "linear:4", "qubits": 4, "depth_param": 6,
             "seeds": list(range(20))},
            {"topology": "y:4", "qubits": 4, "depth_param": 6,
             "seeds": list(range(20))},
        ],
        "modes": ["non-layered", "layered"],
        "objectives": ["swaps"],
        "time_limit": 60,
    }
    rows = list(run_matrix(matrix))
    by_instance = {}
    for row in rows:
        by_instance.setdefault(row.instance_id, {})[row.mode] = row
    violations = 0
    for modes in by_instance.values():
        nl, lay = modes.get("non-layered"), modes.get("layered")
        if nl and lay and nl.status == "optimal" and lay.status == "optimal":
            if nl.swaps > lay.swaps:
                violations += 1
    linear_rows = [r for r in rows if r.topology == "linear:4"]
    y_rows = [r for r in rows if r.topology == "y:4"]
    rmd_linear = rmd(linear_rows, "swaps")["RMD"]
    rmd_y = rmd(y_rows, "swaps")["RMD"]
    overall = rmd(rows, "swaps")["RMD"]
    # Directional check RMD(y) >= RMD(linear) is reported but non-blocking.
    report(6, violations == 0 and overall >= 0,
           f"violations={violations}, RMD={overall:.2f}%, "
           f"RMD(linear)={rmd_linear:.2f}%, RMD(y)={rmd_y:.2f}%, "
           f"directional={'ok' if rmd_y >= rmd_linear else 'NOT observed'}")


def test_criterion_7_layering_gap_exists():
    graph = parse_topology("linear:4")
    found = None
    for seed in range(100):
        spec = InstanceSpec("linear:4", 4, 8, seed=seed)
        circuit = gen_random_circuit(spec)
        nl = solve(circuit, graph, depth_config())
        lay = solve(circuit, graph, depth_config(layered=True))
        if nl.objective_value < lay.objective_value:
            found = (spec.instance_id, nl.objective_value, lay.objective_value)
            break
    report(7, found is not None,
           f"instance {found[0]}: non-layered {found[1]} < layered {found[2]}"
           if found else "no gap found in 100 instances")


def test_criterion_8_beam_mode_sanity():
    widths = (1, 8, 64)
    monotone = 0
    total = 0
    for idx, (spec, circuit, graph) in enumerate(_INSTANCES):
        exact = _EXACT_OPTIMA.get((idx, "depth"))
        if exact is None:
            exact = solve(circuit, graph, depth_config()).objective_value
        values = []
        for width in widths:
            r = solve(circuit, graph, depth_config(beam_width=width))
            assert r.schedule is not None, (spec, width)
            assert validate(r.schedule, circuit, graph).ok, (spec, width)
            assert r.objective_value >= exact, (spec, width)
            values.append(r.objective_value)
        total += 1
        if all(a >= b for a, b in zip(values, values[1:])):
            monotone += 1
    frac = monotone / total
    report(8, frac >= 0.9, f"monotone in beam width on {monotone}/{total} instances")


def test_criterion_9_bench_determinism():
    matrix = {
        "instances": [{"topology": "linear:4", "qubits": 4, "depth_param": 4,
                       "seeds": [1, 2, 3]}],
        "modes": ["non-layered", "layered"],
        "objectives": ["depth", "swaps"],
        "time_limit": 30,
    }

    def strip_wall_time(csv_text):
        lines = csv_text.strip().splitlines()
        header = lines[0].split(",")
        keep = [i for i, col in enumerate(header) if col != "wall_time_ms"]
        return ["\n".join(",".join(line.split(",")[i] for i in keep)
                          for line in lines)]

    a = strip_wall_time(rows_to_csv(run_matrix(matrix)))
    b = strip_wall_time(rows_to_csv(run_matrix(matrix)))
    report(9, a == b, "identical CSVs modulo wall-time")
