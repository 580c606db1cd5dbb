"""`tools/paired_runs.py` against fake checkouts whose `perfbench/run.py`
prints fixed metrics."""

import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "paired_runs", Path(__file__).resolve().parents[1] / "tools" / "paired_runs.py")
paired_runs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(paired_runs)

METRICS = [{"name": "solve_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
           {"name": "solves_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]

FAKE_RUN = """\
import json, sys
from pathlib import Path
args = sys.argv[1:]
seed = args[args.index("--seed") + 1]
assert args[args.index("--trace") + 1] == "0"
root = Path(__file__).resolve().parents[1]
with open(root.parent / "log.txt", "a") as log:
    log.write(f"{{root.name}} {{seed}}\\n")
print("workload fake")
print(json.dumps({{"correct": {correct}, "attempted": 1, "failed": 0, "metrics": {{
    "solve_ms_p50": {{"value": {p50}, "unit": "ms"}},
    "solves_per_s": {{"value": {rate}, "unit": "1/s"}}}}}}))
"""


def checkout(root: Path, name: str, p50: float, rate: float, correct: bool = True) -> Path:
    path = root / name
    (path / "perfbench").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    (path / "perfbench" / "run.py").write_text(
        FAKE_RUN.format(correct=correct, p50=p50, rate=rate))
    return path


def test_pairs_alternate_and_summarise(tmp_path, capsys):
    parent = checkout(tmp_path, "parent", p50=5.0, rate=170.0)
    change = checkout(tmp_path, "change", p50=4.0, rate=180.0)
    args = [str(parent), str(change), "--workload", "w", "--pairs", "3", "--seconds", "1"]
    assert paired_runs.main(args) == 0
    assert (tmp_path / "log.txt").read_text().split("\n") == [
        "parent 1", "change 1", "change 2", "parent 2", "parent 3", "change 3", ""]
    out = capsys.readouterr().out
    assert "change won 3/3" in out and "WORSE" not in out
    assert not list(parent.glob("perfbench/out*"))


def test_a_run_not_correct_is_refused(tmp_path, capsys):
    parent = checkout(tmp_path, "parent", p50=5.0, rate=170.0)
    change = checkout(tmp_path, "change", p50=4.0, rate=180.0, correct=False)
    args = [str(parent), str(change), "--workload", "w", "--pairs", "2", "--seconds", "1"]
    assert paired_runs.main(args) == 1
    assert "refused run" in capsys.readouterr().err


@pytest.mark.parametrize("metric, parent, change, flagged", [
    (METRICS[0], [4.0, 4.0], [5.1, 5.1], True),
    (METRICS[0], [4.0, 4.0], [4.9, 4.9], False),
    (METRICS[1], [100.0, 100.0], [74.0, 74.0], True),
    (METRICS[1], [100.0, 100.0], [76.0, 76.0], False),
])
def test_worse_past_the_bound_is_flagged(metric, parent, change, flagged):
    assert ("WORSE" in paired_runs.summary(metric, parent, change)) == flagged
