import dataclasses
import json
from fractions import Fraction

import pytest

from qmproute import bench, cli
from qmproute.bench import CSV_COLUMNS, rows_from_csv, rows_to_csv, run_matrix
from qmproute.cli import dispatch
from qmproute.solver import SolveResult, SolveStats, solve


@pytest.fixture
def example_files(tmp_path, example_circuit):
    from qmproute.circuit import circuit_to_json
    circuit_file = tmp_path / "circuit.json"
    circuit_file.write_text(circuit_to_json(example_circuit))
    return tmp_path, circuit_file


# One valid document per input format; each test breaks one of them.
VALID_FILES = {
    "circuit": {"num_qubits": 4, "gates": [{"q": [1, 2]}]},
    "graph": {"num_nodes": 4, "edges": [[1, 2], [2, 3], [3, 4]]},
    "schedule": {"swap_duration": 6, "ops": []},
    "matrix": {"instances": [], "modes": ["layered"], "objectives": ["depth"]},
}


def write_schedule(tmp_path, ops, swap_duration=6):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps({"swap_duration": swap_duration, "ops": ops}))
    return path


class TestValidateCommand:
    def test_s1_assignment_exit_3(self, example_files, capsys):
        tmp_path, circuit_file = example_files
        sched = write_schedule(tmp_path, [
            {"gate": 1, "edge": [1, 2], "t": 0},
            {"gate": 2, "edge": [3, 4], "t": 0},
            {"gate": 3, "edge": [4, 1], "t": 3}])
        code = dispatch(["validate", "--circuit", str(circuit_file),
                         "--topology", "linear:4", "--schedule", str(sched)])
        assert code == 3
        assert "assignment" in capsys.readouterr().out

    def test_s3_ok(self, example_files, capsys):
        tmp_path, circuit_file = example_files
        sched = write_schedule(tmp_path, [
            {"gate": 1, "edge": [1, 2], "t": 0},
            {"gate": 2, "edge": [3, 4], "t": 0},
            {"gate": 0, "edge": [1, 2], "t": 2},
            {"gate": 0, "edge": [2, 3], "t": 8},
            {"gate": 3, "edge": [3, 4], "t": 14}])
        code = dispatch(["validate", "--circuit", str(circuit_file),
                         "--topology", "linear:4", "--schedule", str(sched)])
        assert code == 0
        out = capsys.readouterr().out
        assert "depth=15" in out and "swaps=2" in out


    def test_bad_op_exit_4(self, example_files, capsys):
        tmp_path, circuit_file = example_files
        sched = write_schedule(tmp_path, [{"gate": "x", "edge": [1, 2], "t": 0}])
        code = dispatch(["validate", "--circuit", str(circuit_file),
                         "--topology", "linear:4", "--schedule", str(sched)])
        assert code == 4
        assert capsys.readouterr().err.startswith("error: op 0: 'gate'")


    @pytest.mark.parametrize("topology, edge", [
        ("linear:4", [-1, 3]), ("grid:2x2", [-1, 2]), ("linear:4", [0, 1]), ("linear:4", [4, 5]),
    ])
    def test_edge_off_the_graph_exit_3(self, example_files, capsys, topology, edge):
        # -1 must not read as the last node, nor 0 or 5 as any node.
        tmp_path, circuit_file = example_files
        sched = write_schedule(tmp_path, [{"gate": 1, "edge": edge, "t": 0}])
        code = dispatch(["validate", "--circuit", str(circuit_file),
                         "--topology", topology, "--schedule", str(sched)])
        assert code == 3
        assert "assignment" in capsys.readouterr().out

    def test_unsorted_ops_exit_3(self, example_files, capsys):
        tmp_path, circuit_file = example_files
        sched = write_schedule(tmp_path, [
            {"gate": 2, "edge": [3, 4], "t": 2},
            {"gate": 1, "edge": [1, 2], "t": 0}])
        code = dispatch(["--format", "structured", "validate", "--circuit", str(circuit_file),
                         "--topology", "linear:4", "--schedule", str(sched)])
        assert code == 3
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["category"] == "order" and out["op_index"] == 1


class TestSolveCommand:
    def test_trivial_solve_exit_0(self, example_files, tmp_path):
        _, circuit_file = example_files
        out = tmp_path / "out.json"
        code = dispatch(["solve", "--circuit", str(circuit_file),
                         "--topology", "linear:4", "--objective", "depth",
                         "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["ops"]

    def test_beam_exit_2(self, example_files, tmp_path):
        _, circuit_file = example_files
        code = dispatch(["solve", "--circuit", str(circuit_file),
                         "--topology", "linear:4", "--beam-width", "4"])
        assert code == 2

    @pytest.mark.parametrize("flags, objective", [
        (["--objective", "swaps"], lambda m, s: s),
        (["--objective", "combined", "--w-depth", "0.5", "--w-swaps", "3"],
         lambda m, s: Fraction(m, 2) + 3 * s),
    ])
    def test_objective_weights(self, example_files, tmp_path, flags, objective):
        _, circuit_file = example_files
        stats = tmp_path / "stats.json"
        code = dispatch(["solve", "--circuit", str(circuit_file), "--topology", "linear:4",
                         "--stats", str(stats), *flags])
        assert code == 0
        s = json.loads(stats.read_text())
        assert Fraction(s["objective_value"]) == objective(s["makespan"], s["swap_count"])

    def test_stats_keys_are_the_result_then_solve_stats(self, example_files, tmp_path):
        _, circuit_file = example_files
        stats = tmp_path / "stats.json"
        assert dispatch(["solve", "--circuit", str(circuit_file), "--topology", "linear:4",
                         "--stats", str(stats)]) == 0
        s = json.loads(stats.read_text())
        assert list(s)[:4] == ["status", "objective_value", "makespan", "swap_count"]
        assert list(s)[4:] == [f.name for f in dataclasses.fields(SolveStats)]
        assert s["wall_time"] == round(s["wall_time"], 3)

    @pytest.mark.parametrize("status, code", [("optimal", 0), ("incumbent", 2), ("timeout", 5)])
    def test_status_sets_exit_code(self, example_files, monkeypatch, capsys, status, code):
        _, circuit_file = example_files
        real_solve = solve

        def fake_solve(circuit, graph, config):
            if status == "timeout":
                return SolveResult(schedule=None, objective_value=None, status=status)
            return dataclasses.replace(real_solve(circuit, graph, config), status=status)
        monkeypatch.setattr(cli, "solve", fake_solve)
        assert dispatch(["--format", "structured", "solve", "--circuit", str(circuit_file),
                         "--topology", "linear:4"]) == code
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["status"] == status and "proven_optimal" not in out

    def test_timeout_is_one_word_for_solve_and_bench(self, tmp_path, capsys):
        circuit_file = tmp_path / "c.json"
        assert dispatch(["gen", "--topology", "grid:3x3", "--qubits", "9",
                         "--depth-param", "30", "--seed", "0", "--out", str(circuit_file)]) == 0
        assert dispatch(["--format", "structured", "solve", "--circuit", str(circuit_file),
                         "--topology", "grid:3x3", "--time-limit", "0.1"]) == 5
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["status"] == "timeout" and out["makespan"] is None
        matrix_file = tmp_path / "matrix.json"
        matrix_file.write_text(json.dumps({
            "instances": [{"topology": "grid:3x3", "qubits": 9, "depth_param": 30,
                           "seeds": [0]}],
            "modes": ["non-layered"], "objectives": ["depth"], "time_limit": 0.1}))
        results = tmp_path / "results.csv"
        assert dispatch(["bench", "--matrix", str(matrix_file), "--out", str(results)]) == 0
        header, row = results.read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["status"] == "timeout"

    def test_solved_schedule_validates_via_cli(self, example_files, tmp_path):
        _, circuit_file = example_files
        out = tmp_path / "out.json"
        dispatch(["solve", "--circuit", str(circuit_file),
                  "--topology", "linear:4", "--out", str(out)])
        code = dispatch(["validate", "--circuit", str(circuit_file),
                         "--topology", "linear:4", "--schedule", str(out)])
        assert code == 0


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert dispatch(["solve", "--bogus"]) == 4

    def test_unknown_subcommand(self):
        assert dispatch(["frobnicate"]) == 4

    def test_missing_graph(self, example_files):
        _, circuit_file = example_files
        assert dispatch(["solve", "--circuit", str(circuit_file)]) == 4

    @pytest.mark.parametrize("circuit, flags", [
        (None, ["--topology", "linear:4", "--swap-duration", "-5"]),
        (None, ["--topology", "linear:4", "--beam-width", "0"]),
        (None, ["--topology", "linear:1"]),
        ("missing.json", ["--topology", "linear:4"]),
        ("malformed.json", ["--topology", "linear:4"]),
        (None, ["--topology", "linear:4", "--time-limit", "0"]),
        (None, ["--topology", "linear:4", "--time-limit", "-1"]),
        (None, ["--topology", "linear:4", "--time-limit", "nan"]),
    ], ids=["negative-swap-duration", "zero-beam-width", "one-node-topology",
            "missing-file", "malformed-json", "zero-time-limit", "negative-time-limit",
            "nan-time-limit"])
    def test_bad_input_is_a_usage_error(self, example_files, capsys, circuit, flags):
        tmp_path, circuit_file = example_files
        (tmp_path / "malformed.json").write_text("{not json")
        path = tmp_path / circuit if circuit else circuit_file
        assert dispatch(["solve", "--circuit", str(path), *flags]) == 4
        assert capsys.readouterr().err.startswith("error: ")


    @pytest.mark.parametrize("objective, flag", [
        ("depth", "--w-depth"), ("depth", "--w-swaps"), ("swaps", "--w-depth"),
        ("swaps", "--w-swaps"),
    ])
    def test_weights_need_combined(self, example_files, capsys, objective, flag):
        _, circuit_file = example_files
        assert dispatch(["solve", "--circuit", str(circuit_file), "--topology", "linear:4",
                         "--objective", objective, flag, "5"]) == 4
        assert "only to --objective combined" in capsys.readouterr().err

    @pytest.mark.parametrize("topology, qubits, message", [
        ("bogus", "4", "bad topology spec 'bogus'"),
        ("linear:3", "9", "9 qubits exceed 3 nodes"),
    ], ids=["unknown-topology", "qubits-exceed-nodes"])
    def test_gen_checks_topology(self, tmp_path, capsys, topology, qubits, message):
        out = tmp_path / "c.json"
        assert dispatch(["gen", "--topology", topology, "--qubits", qubits,
                         "--depth-param", "3", "--seed", "0", "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n", "results CSV must have the columns"),
        (",".join(CSV_COLUMNS) + "\ni,linear:4,4,3,1,layered,depth,8,0,3,none,5\n",
         "status must be one of"),
        (",".join(CSV_COLUMNS) + "\ni,linear:4,4,3,1,sideways,depth,8,0,3,optimal,5\n",
         "line 2: mode must be one of"),
        (",".join(CSV_COLUMNS) + "\ni,linear:4,4,3,1,layered,combined,8,0,3,optimal,5\n",
         "line 2: objective must be one of"),
        (",".join(CSV_COLUMNS) + "\ni,linear:4,4,3,1,layered,depth,8,x,3,optimal,5\n",
         "line 2: column 'swaps' must be an integer, got 'x'"),
        (",".join(CSV_COLUMNS) + "\ni,linear:4,4,3,1,non-layered,depth,,0,3,optimal,5"
                                 "\ni,linear:4,4,3,1,layered,depth,12,0,3,optimal,5\n",
         "line 2: column 'depth' must be set for status optimal"),
        (",".join(CSV_COLUMNS) + "\ni,linear:4,4,3,1,layered,depth,8,0,3,timeout,5\n",
         "line 2: column 'depth' must be empty for status timeout"),
    ], ids=["wrong-columns", "unknown-status", "unknown-mode", "unknown-objective",
            "non-integer-field", "optimal-without-metrics", "timeout-with-metrics"])
    def test_report_checks_csv(self, tmp_path, capsys, text, message):
        path = tmp_path / "results.csv"
        path.write_text(text)
        assert dispatch(["report", "--in", str(path), "--rmd"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("fmt", list(VALID_FILES))
    @pytest.mark.parametrize("case", ["non-json", "not-object", "unknown-field",
                                      "missing-field"])
    def test_bad_file_is_a_usage_error(self, tmp_path, capsys, fmt, case):
        doc = VALID_FILES[fmt]
        first = next(iter(doc))
        bad, expected = {
            "non-json": ("{not json", f"malformed {fmt} file"),
            "not-object": ("[1, 2]", "must be a JSON object"),
            "unknown-field": (json.dumps({**doc, "bogus": 1}), "unknown fields"),
            "missing-field": (json.dumps({k: v for k, v in doc.items() if k != first}),
                              f"missing field {first!r}"),
        }[case]
        paths = {name: tmp_path / f"{name}.json" for name in VALID_FILES}
        for name, path in paths.items():
            path.write_text(bad if name == fmt else json.dumps(VALID_FILES[name]))
        if fmt == "matrix":
            argv = ["bench", "--matrix", str(paths["matrix"]),
                    "--out", str(tmp_path / "out.csv")]
        else:
            argv = ["validate", "--circuit", str(paths["circuit"]),
                    "--graph", str(paths["graph"]), "--schedule", str(paths["schedule"])]
        assert dispatch(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expected in err

    @pytest.mark.parametrize("fmt, text, token", [
        ("matrix", '{"instances": [], "modes": ["layered"], "objectives": ["depth"], '
                   '"time_limit": Infinity}', "Infinity"),
        ("matrix", '{"instances": [], "modes": ["layered"], "objectives": ["depth"], '
                   '"time_limit": -Infinity}', "-Infinity"),
        ("circuit", '{"num_qubits": 2, "gates": [{"q": [1, 2], "d": NaN}]}', "NaN"),
    ], ids=["matrix-infinity", "matrix-minus-infinity", "circuit-nan"])
    def test_non_json_number_is_a_usage_error(self, tmp_path, capsys, fmt, text, token):
        path = tmp_path / f"{fmt}.json"
        path.write_text(text)
        if fmt == "matrix":
            argv = ["bench", "--matrix", str(path), "--out", str(tmp_path / "out.csv")]
        else:
            argv = ["solve", "--circuit", str(path), "--topology", "linear:4"]
        assert dispatch(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed {fmt} file: {token} is not a JSON number")

    @pytest.mark.parametrize("entry", [
        {"topology": "linear:4", "qubits": 4, "depth_param": 3},
        {"topology": "linear:4", "qubits": True, "depth_param": 3, "seeds": [1]},
        {"topology": "linear:4", "qubits": 4, "depth_param": 3, "seeds": ["1"]},
        {"topology": "linear:4", "qubits": 5, "depth_param": 3, "seeds": [1]},
    ], ids=["missing-seeds", "bool-qubits", "str-seed", "more-qubits-than-nodes"])
    def test_bad_matrix_entry_is_a_usage_error(self, tmp_path, capsys, entry):
        matrix_file = tmp_path / "matrix.json"
        matrix_file.write_text(json.dumps({"instances": [entry], "modes": ["layered"],
                                           "objectives": ["depth"]}))
        assert dispatch(["bench", "--matrix", str(matrix_file),
                         "--out", str(tmp_path / "out.csv")]) == 4
        assert capsys.readouterr().err.startswith("error: instance 0: ")


class TestPipeline:
    def test_gen_solve_oracle_agree(self, tmp_path, capsys):
        circuit_file = tmp_path / "c.json"
        assert dispatch(["gen", "--topology", "linear:4", "--qubits", "3",
                         "--depth-param", "3", "--seed", "9",
                         "--out", str(circuit_file)]) == 0
        assert dispatch(["--format", "structured", "solve",
                         "--circuit", str(circuit_file),
                         "--topology", "linear:4"]) == 0
        solve_out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert dispatch(["--format", "structured", "oracle",
                         "--circuit", str(circuit_file),
                         "--topology", "linear:4", "--max-swaps", "3"]) == 0
        oracle_out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert int(solve_out["objective_value"]) == oracle_out["value"]

    def test_bench_and_report(self, tmp_path, capsys):
        matrix_file = tmp_path / "matrix.json"
        matrix_file.write_text(json.dumps({
            "instances": [{"topology": "linear:4", "qubits": 4,
                           "depth_param": 3, "seeds": [1, 2]}],
            "modes": ["non-layered", "layered"],
            "objectives": ["depth"],
            "time_limit": 10,
        }))
        results = tmp_path / "results.csv"
        assert dispatch(["bench", "--matrix", str(matrix_file),
                         "--out", str(results)]) == 0
        parity = tmp_path / "parity.csv"
        assert dispatch(["report", "--in", str(results), "--metric", "depth",
                         "--rmd", "--parity", str(parity)]) == 0
        assert "RMD" in capsys.readouterr().out
        assert parity.read_text().startswith("non_layered,layered")

    def test_interrupted_bench_keeps_finished_rows(self, tmp_path, monkeypatch):
        # Each row is on disk once its solve ends: a run stopped during the
        # second solve leaves the header and the first row, as the writer
        # would write them.
        matrix = {"instances": [{"topology": "linear:4", "qubits": 4,
                                 "depth_param": 3, "seeds": [1]}],
                  "modes": ["non-layered", "layered"], "objectives": ["depth"]}
        matrix_file = tmp_path / "matrix.json"
        matrix_file.write_text(json.dumps(matrix))
        expected = rows_to_csv(list(run_matrix(matrix))[:1])
        real_solve, calls = bench.solve, []

        def solve_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(bench, "solve", solve_once)
        results = tmp_path / "results.csv"
        with pytest.raises(KeyboardInterrupt):
            dispatch(["bench", "--matrix", str(matrix_file), "--out", str(results)])
        text = results.read_text()
        assert len(rows_from_csv(text)) == 1

        def without_wall_time(csv_text):
            return [line.rsplit(",", 1)[0] for line in csv_text.splitlines()]
        assert without_wall_time(text) == without_wall_time(expected)
        assert without_wall_time(text)[0] == ",".join(CSV_COLUMNS[:-1])
