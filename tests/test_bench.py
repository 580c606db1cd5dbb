import json
import time
import tracemalloc

import pytest

from qmproute import bench, hardware
from qmproute.bench import (CSV_COLUMNS, BenchError, InstanceSpec, ResultRow, _pairs,
                            gen_random_circuit, parity_export, parse_matrix, rmd,
                            rows_from_csv, rows_to_csv, run_matrix)
from qmproute.solver import SolveResult

from conftest import UNDECODABLE


def spec(seed=1, qubits=4, depth_param=3, topology="linear:4"):
    return InstanceSpec(topology=topology, num_qubits=qubits,
                        depth_param=depth_param, seed=seed)


class TestGenerator:
    def test_gate_count_matches_depth_param(self):
        c = gen_random_circuit(spec(depth_param=5))
        assert c.num_gates == 5

    def test_durations_at_least_ecr(self):
        for s in range(10):
            c = gen_random_circuit(spec(seed=s, depth_param=6))
            assert all(g.duration >= 4 for g in c.gates)

    def test_deterministic(self):
        a = gen_random_circuit(spec(seed=42))
        b = gen_random_circuit(spec(seed=42))
        assert a == b

    def test_seeds_differ(self):
        a = gen_random_circuit(spec(seed=1, depth_param=6))
        b = gen_random_circuit(spec(seed=2, depth_param=6))
        assert a != b

    def test_folding_sums_both_wires(self):
        # Across many seeds some gate must fold singles from both wires,
        # giving durations above 4; none may exceed 4 + 2*2 accumulations
        # per wire per round unless singles piled up over skipped rounds.
        seen_folded = False
        for s in range(20):
            c = gen_random_circuit(spec(seed=s, depth_param=6))
            seen_folded = seen_folded or any(g.duration > 4 for g in c.gates)
        assert seen_folded

    def test_invalid_specs(self):
        with pytest.raises(BenchError):
            gen_random_circuit(spec(qubits=1))
        with pytest.raises(BenchError):
            gen_random_circuit(spec(depth_param=0))


def make_rows(values, objective="depth"):
    """values: list of (instance_id, mode, depth, status); a depth of None
    leaves every metric empty."""
    rows = []
    for iid, mode, depth, status in values:
        swaps = None if depth is None else 0
        rows.append(ResultRow(iid, "linear:4", 4, 3, 0, mode, objective,
                              depth, swaps, depth, status, 1))
    return rows


class TestRmd:
    def test_formula(self):
        rows = make_rows([("a", "layered", 10, "optimal"),
                          ("a", "non-layered", 8, "optimal"),
                          ("b", "layered", 10, "optimal"),
                          ("b", "non-layered", 10, "optimal")])
        stats = rmd(rows, "depth")
        assert stats["N_S"] == 2
        assert stats["RMD"] == pytest.approx(10.0)
        assert stats["RMD_neq"] == pytest.approx(20.0)
        assert stats["N_eq"] == 1

    def test_all_equal(self):
        rows = make_rows([("a", "layered", 5, "optimal"),
                          ("a", "non-layered", 5, "optimal")])
        stats = rmd(rows, "depth")
        assert stats["RMD"] == 0.0
        assert stats["N_eq"] == stats["N_S"] == 1

    def test_single_pair(self):
        rows = make_rows([("a", "layered", 5, "optimal"),
                          ("a", "non-layered", 4, "optimal")])
        stats = rmd(rows, "depth")
        assert stats["RMD"] == pytest.approx(20.0)
        assert stats["RMD_neq"] == pytest.approx(20.0)

    def test_timeout_pairs_excluded(self):
        rows = make_rows([("a", "layered", 10, "timeout"),
                          ("a", "non-layered", 8, "optimal"),
                          ("b", "layered", 10, "optimal"),
                          ("b", "non-layered", 8, "optimal")])
        stats = rmd(rows, "depth")
        assert stats["N_S"] == 1

    def test_eq_plus_neq_partition(self):
        rows = make_rows([("a", "layered", 10, "optimal"),
                          ("a", "non-layered", 8, "optimal"),
                          ("b", "layered", 7, "optimal"),
                          ("b", "non-layered", 7, "optimal"),
                          ("c", "layered", 9, "optimal"),
                          ("c", "non-layered", 6, "optimal")])
        stats = rmd(rows, "depth")
        assert stats["N_eq"] + 2 == stats["N_S"]


    def test_pairs_stay_within_one_objective(self):
        depth_runs = make_rows([("i1", "non-layered", 20, "optimal"),
                                ("i1", "layered", 24, "optimal")])
        swaps_runs = make_rows([("i1", "non-layered", 40, "optimal"),
                                ("i1", "layered", 44, "optimal")], objective="swaps")
        expected = [("i1", 20, 24), ("i1", 40, 44)]
        assert _pairs(depth_runs + swaps_runs, "depth") == expected
        assert _pairs(swaps_runs[::-1] + depth_runs[::-1], "depth") == expected
        assert _pairs(depth_runs, "depth") == [("i1", 20, 24)]
        # A run with only one mode has no pair.
        assert _pairs(depth_runs[:1] + swaps_runs, "depth") == [("i1", 40, 44)]

    def test_zero_layered_value_counted_apart(self):
        # A layered optimum of 0 under a non-layered 3 cannot come from
        # consistent optima; the pair is counted apart, not divided by.
        rows = make_rows([("a", "layered", 0, "optimal"),
                          ("a", "non-layered", 3, "optimal"),
                          ("b", "layered", 10, "optimal"),
                          ("b", "non-layered", 8, "optimal")])
        stats = rmd(rows, "depth")
        assert (stats["N"], stats["N_S"], stats["excluded_zero"]) == (2, 1, 1)
        assert stats["RMD"] == pytest.approx(20.0)

    def test_unknown_metric_rejected(self):
        with pytest.raises(BenchError, match="unknown metric 'bogus'"):
            rmd(make_rows([]), "bogus")


class TestParityExport:
    def test_rows_out(self):
        rows = make_rows([("a", "layered", 10, "optimal"),
                          ("a", "non-layered", 8, "optimal"),
                          ("b", "layered", 7, "optimal"),
                          ("b", "non-layered", 7, "optimal")])
        text = parity_export(rows, "depth")
        lines = text.strip().splitlines()
        assert lines[0] == "non_layered,layered"
        assert lines[1:] == ["8,10", "7,7"]

    def test_empty(self):
        assert parity_export([], "depth").strip() == "non_layered,layered"


CSV_HEADER = ",".join(CSV_COLUMNS)
CSV_ROW = "a,linear:4,4,3,1,layered,depth,10,0,10,optimal,1"


class TestMatrix:
    def matrix(self, seeds=(1, 2), time_limit=10):
        return {
            "instances": [{"topology": "linear:4", "qubits": 4,
                           "depth_param": 3, "seeds": list(seeds)}],
            "modes": ["non-layered", "layered"],
            "objectives": ["depth"],
            "time_limit": time_limit,
        }

    def test_row_count(self):
        rows = list(run_matrix(self.matrix()))
        assert len(rows) == 4   # 2 instances x 2 modes x 1 objective

    def test_crashed_solve_is_an_error(self, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr(bench, "solve", crash)
        rows = list(run_matrix(self.matrix()))
        assert [r.status for r in rows] == ["error"] * 4
        assert all(r.depth is None and r.swaps is None for r in rows)

    def test_no_schedule_is_a_timeout(self, monkeypatch):
        def give_up(*args, **kwargs):
            return SolveResult(schedule=None, objective_value=None, status="timeout")
        monkeypatch.setattr(bench, "solve", give_up)
        assert [r.status for r in run_matrix(self.matrix())] == ["timeout"] * 4

    def test_csv_roundtrip(self):
        rows = list(run_matrix(self.matrix()))
        text = rows_to_csv(rows)
        assert rows_from_csv(text) == rows

    @pytest.mark.parametrize("status", ["optimal", "incumbent", "timeout", "error"])
    def test_csv_reads_every_status(self, status):
        depth = 10 if status in ("optimal", "incumbent") else None
        rows = make_rows([("a", "layered", depth, status)])
        assert rows_from_csv(rows_to_csv(rows)) == rows

    @pytest.mark.parametrize("text, message", [
        (CSV_HEADER.rsplit(",", 1)[0] + "\n" + CSV_ROW.rsplit(",", 1)[0],
         "must have the columns"),
        ("", "must have the columns"),
        (CSV_HEADER + "\n" + CSV_ROW.replace("optimal", "none"), "line 2: status must be one of"),
        (CSV_HEADER + "\n" + CSV_ROW.rsplit(",", 1)[0], "line 2: want 12 fields"),
        (CSV_HEADER + "\n" + CSV_ROW + ",7", "line 2: want 12 fields"),
        (CSV_HEADER + "\n" + CSV_ROW.replace("layered", "sideways"),
         "line 2: mode must be one of"),
        (CSV_HEADER + "\n" + CSV_ROW.replace("depth", "combined"),
         "line 2: objective must be one of"),
        (CSV_HEADER + "\n" + CSV_ROW + "\n" + CSV_ROW.replace(",10,0,", ",ten,0,"),
         "line 3: column 'depth' must be an integer, got 'ten'"),
        (CSV_HEADER + "\n" + CSV_ROW.replace(",4,3,1,", ",4,3,1.5,"),
         "line 2: column 'seed' must be an integer, got '1.5'"),
        (CSV_HEADER + "\n" + CSV_ROW.rsplit(",", 1)[0] + ",",
         "line 2: column 'wall_time_ms' must be an integer, got ''"),
        (CSV_HEADER + "\n" + CSV_ROW.replace(",10,0,10,", ",\u0661\u0660,0,10,"),
         "line 2: column 'depth' must be an integer, got '\u0661\u0660'"),
        (CSV_HEADER + "\n" + CSV_ROW.replace(",10,0,10,", ",1_0,0,10,"),
         "line 2: column 'depth' must be an integer, got '1_0'"),
        (CSV_HEADER + "\n" + CSV_ROW.replace(",4,3,1,", ",4,3, 7,"),
         "line 2: column 'seed' must be an integer, got ' 7'"),
        (CSV_HEADER + "\n" + CSV_ROW.replace(",4,3,1,", ",4,3,+7,"),
         "line 2: column 'seed' must be an integer, got '\\+7'"),
        (CSV_HEADER + "\n" + CSV_ROW + "\n" + CSV_ROW.replace(",10,0,10,", ",,0,10,"),
         "line 3: column 'depth' must be set for status optimal"),
        (CSV_HEADER + "\n" + CSV_ROW.replace(",0,10,optimal,", ",0,,incumbent,"),
         "line 2: column 'unweighted_depth' must be set for status incumbent"),
        (CSV_HEADER + "\n" + CSV_ROW.replace("optimal", "timeout"),
         "line 2: column 'depth' must be empty for status timeout"),
        (CSV_HEADER + "\n" + CSV_ROW.replace(",10,0,10,optimal,", ",,0,,error,"),
         "line 2: column 'swaps' must be empty for status error"),
        (CSV_HEADER + "\n" + CSV_ROW + "\n" + CSV_ROW.replace("10,0,10,optimal", "11,0,11,optimal"),
         "line 3: a second row for the run a,depth,layered"),
    ], ids=["missing-column", "empty", "unknown-status", "short-row", "long-row",
            "unknown-mode", "unknown-objective", "non-integer-depth", "float-seed",
            "empty-wall-time", "arabic-indic-depth", "underscore-depth", "spaced-seed",
            "plus-seed", "optimal-without-depth", "incumbent-without-unweighted",
            "timeout-with-metrics", "error-with-swaps", "repeated-run"])
    def test_rows_from_csv_rejects(self, text, message):
        assert rows_from_csv(CSV_HEADER + "\n" + CSV_ROW + "\n")
        with pytest.raises(BenchError, match=message):
            rows_from_csv(text + "\n")

    def test_determinism_excluding_wall_time(self):
        def strip(rows):
            return [(r.instance_id, r.mode, r.objective, r.depth, r.swaps,
                     r.unweighted_depth, r.status) for r in rows]
        assert strip(run_matrix(self.matrix())) == strip(run_matrix(self.matrix()))

    def test_rmd_nonnegative_on_real_runs(self):
        rows = run_matrix(self.matrix(seeds=range(5)))
        assert rmd(rows, "depth")["RMD"] >= 0

    @pytest.mark.parametrize("change", [
        {"seeds": None}, {"topology": None}, {"qubits": None}, {"depth_param": None},
        {"bogus": 1},
        {"qubits": "4"}, {"qubits": True}, {"qubits": 4.0}, {"depth_param": False},
        {"depth_param": [3]}, {"topology": 4},
        {"seeds": 1}, {"seeds": [1, "2"]}, {"seeds": [True]}, {"seeds": [1.5]},
        {"topology": "ring:4"}, {"topology": "linear:1"}, {"qubits": 5}, {"qubits": 1},
        {"depth_param": 0},
    ], ids=["no-seeds", "no-topology", "no-qubits", "no-depth-param", "unknown-field",
            "qubits-str", "qubits-bool", "qubits-float", "depth-param-bool",
            "depth-param-list", "topology-int", "seeds-int", "seeds-str-item",
            "seeds-bool-item", "seeds-float-item", "topology-unknown-kind",
            "topology-too-small", "qubits-exceed-nodes", "qubits-one", "depth-param-zero"])
    def test_parse_matrix_rejects_bad_instance(self, change):
        entry = {**self.matrix()["instances"][0], **change}
        entry = {k: v for k, v in entry.items() if v is not None}
        with pytest.raises(BenchError, match="instance 0: "):
            parse_matrix(json.dumps({**self.matrix(), "instances": [entry]}))

    @UNDECODABLE
    def test_parse_matrix_rejects_undecodable_json(self, text):
        with pytest.raises(BenchError, match="malformed matrix file"):
            parse_matrix(text)

    def test_parse_matrix_accepts_valid(self):
        assert parse_matrix(json.dumps(self.matrix())) == self.matrix()

    def test_parse_matrix_accepts_optional_fields(self):
        matrix = {**self.matrix(time_limit=2.5), "swap_duration": 0}
        assert parse_matrix(json.dumps(matrix)) == matrix

    @pytest.mark.parametrize("change", [
        {"modes": ["layred"]}, {"modes": "layered"},
        {"objectives": ["depht"]}, {"objectives": "depth"},
        {"time_limit": "x"}, {"time_limit": 0}, {"time_limit": -1.5}, {"time_limit": True},
        {"swap_duration": "x"}, {"swap_duration": -1}, {"swap_duration": 1.5},
        {"swap_duration": True}, {"instances": {}},
    ], ids=["mode-misspelt", "modes-str", "objective-misspelt", "objectives-str",
            "time-limit-str", "time-limit-zero", "time-limit-negative", "time-limit-bool",
            "swap-duration-str", "swap-duration-negative", "swap-duration-float",
            "swap-duration-bool", "instances-object"])
    def test_parse_matrix_rejects_bad_field(self, change):
        (key,) = change
        with pytest.raises(BenchError, match=f"'{key}' must be"):
            parse_matrix(json.dumps({**self.matrix(), **change}))

    @pytest.mark.parametrize("instances, message", [
        ([{"seeds": [1, 1]}], "instance 0: run linear:4-q4-d3-s1 is listed twice"),
        ([{"seeds": [1, 2]}, {"seeds": [3, 2]}],
         "instance 1: run linear:4-q4-d3-s2 is listed twice"),
    ], ids=["seed-twice", "seed-in-two-entries"])
    def test_parse_matrix_rejects_a_repeated_run(self, instances, message):
        # A run solved twice would leave `report` two rows to choose from.
        entry = self.matrix()["instances"][0]
        matrix = {**self.matrix(), "instances": [{**entry, **i} for i in instances]}
        with pytest.raises(BenchError, match=message):
            parse_matrix(json.dumps(matrix))
        # The same seeds under another depth parameter are other runs.
        matrix = {**self.matrix(), "instances": [entry, {**entry, "depth_param": 4}]}
        assert parse_matrix(json.dumps(matrix)) == matrix

    def test_check_instance_builds_no_graph(self, monkeypatch):
        def build(*args):
            raise AssertionError("a HardwareGraph was built")
        monkeypatch.setattr(hardware.HardwareGraph, "__init__", build)
        bench.check_instance("linear:3000", 4)
        with pytest.raises(BenchError, match="3001 qubits exceed 3000 nodes"):
            bench.check_instance("linear:3000", 3001)
        with pytest.raises(BenchError, match="linear topology needs n >= 2"):
            bench.check_instance("linear:1", 2)

    @pytest.mark.parametrize("topology", ["grid:100000x100000", "linear:300000000",
                                          "y:1000000000"])
    def test_check_instance_on_a_huge_topology(self, topology):
        # A node count makes no edge: the check takes no time or memory
        # that grows with the graph.
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            bench.check_instance(topology, 4)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 1_000_000

    def test_parse_matrix_rejects_unknown(self):
        with pytest.raises(BenchError):
            parse_matrix(json.dumps({"instances": [], "modes": [],
                                     "objectives": [], "bogus": 1}))
