"""Seeded instance generation, experiment matrix and report metrics.

Circuits are generated natively with a seeded RNG (Python's `random`
module, Mersenne Twister, stable across platforms): each round draws a
uniformly random two-qubit gate preceded by 0-2 single-qubit ops per
involved wire.  Single-qubit ops are folded into the duration of the next
two-qubit gate touching their wire (ECR base 4, +1 per folded single op,
summed over both wires); trailing singles are dropped.
"""

from __future__ import annotations

import csv
import io
import random
import re
import time
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, TextIO

from . import jsonfile
from .circuit import Circuit, GateSpec
from .hardware import HardwareError, parse_topology, topology_edges
from .schedule import DEFAULT_SWAP_DURATION, compute_metrics
from .solver import SolverConfig, solve

ECR_DURATION = 4
SINGLE_DURATION = 1
# An integer in the results CSV or a CLI option: ASCII digits, since int()
# also takes '١٥', ' 7', '1_0' and '+3'.
INTEGER = re.compile("-?[0-9]+")


class BenchError(ValueError):
    pass


@dataclass(frozen=True)
class InstanceSpec:
    topology: str        # e.g. "linear:4", "grid:2x3", "y:6"
    num_qubits: int
    depth_param: int     # number of two-qubit gate rounds emitted
    seed: int

    @property
    def instance_id(self) -> str:
        return f"{self.topology}-q{self.num_qubits}-d{self.depth_param}-s{self.seed}"


# A row's status: the solver's own word, or `error` when the solve raised.
# Rows with a schedule fill in every metric; the others leave them empty.
STATUSES = ("optimal", "incumbent", "timeout", "error")


@dataclass
class ResultRow:
    instance_id: str
    topology: str
    qubits: int
    depth_param: int
    seed: int
    mode: str           # layered | non-layered
    objective: str      # depth | swaps
    depth: int | None
    swaps: int | None
    unweighted_depth: int | None
    status: str         # one of STATUSES
    wall_time_ms: int


CSV_COLUMNS = [f.name for f in fields(ResultRow)]


def gen_random_circuit(spec: InstanceSpec) -> Circuit:
    if spec.num_qubits < 2:
        raise BenchError("need at least 2 qubits")
    if spec.depth_param < 1:
        raise BenchError("depth_param must be >= 1")
    rng = random.Random(spec.seed)
    pending = [0] * (spec.num_qubits + 1)   # folded single-op count per wire
    gates = []
    for _ in range(spec.depth_param):
        p = rng.randrange(1, spec.num_qubits + 1)
        q = rng.randrange(1, spec.num_qubits)
        if q >= p:
            q += 1
        for wire in (p, q):
            pending[wire] += rng.randrange(3) * SINGLE_DURATION
        d = ECR_DURATION + pending[p] + pending[q]
        pending[p] = pending[q] = 0
        gates.append(GateSpec(id=len(gates) + 1, qubits=(p, q), duration=d))
    return Circuit(num_virtual_qubits=spec.num_qubits, gates=tuple(gates))


MODES = ("non-layered", "layered")
OBJECTIVE_WEIGHTS = {"depth": (1, 0), "swaps": (0, 1)}   # (w_depth, w_swaps)
DEFAULT_TIME_LIMIT = 30.0


def parse_matrix(text: str) -> dict:
    """Matrix file: JSON with `instances` (list of {topology, qubits,
    depth_param, seeds}), `modes`, `objectives`, and optional `time_limit`
    (seconds) and `swap_duration`.  Everything is checked before a solve,
    and each run (topology, qubits, depth_param, seed) is listed once."""
    data = jsonfile.record(jsonfile.load(text, BenchError, "matrix"), BenchError,
                           "matrix file", ("instances", "modes", "objectives"),
                           ("time_limit", "swap_duration"))
    # A tuple, not the dict: `[1] in dict` raises TypeError on the unhashable item.
    for key, allowed in (("modes", MODES), ("objectives", tuple(OBJECTIVE_WEIGHTS))):
        if not isinstance(data[key], list) or not all(v in allowed for v in data[key]):
            raise BenchError(f"{key!r} must be a list drawn from {list(allowed)}, got {data[key]!r}")
    t = data.get("time_limit", DEFAULT_TIME_LIMIT)
    if type(t) not in (int, float) or not t > 0:
        raise BenchError(f"'time_limit' must be a positive number of seconds, got {t!r}")
    d = data.get("swap_duration", DEFAULT_SWAP_DURATION)
    if not jsonfile.is_int(d) or d < 0:
        raise BenchError(f"'swap_duration' must be a nonnegative integer, got {d!r}")
    if not isinstance(data["instances"], list):
        raise BenchError("'instances' must be a list")
    runs = set()
    for i, entry in enumerate(data["instances"]):
        where = f"instance {i}"
        jsonfile.record(entry, BenchError, where, ("topology", "qubits", "depth_param", "seeds"))
        if not isinstance(entry["topology"], str):
            raise BenchError(f"{where}: 'topology' must be a string")
        for key, low in (("qubits", 2), ("depth_param", 1)):
            if not jsonfile.is_int(entry[key]) or entry[key] < low:
                raise BenchError(f"{where}: {key!r} must be an integer >= {low}, "
                                 f"got {entry[key]!r}")
        if not jsonfile.is_ints(entry["seeds"]):
            raise BenchError(f"{where}: 'seeds' must be a list of integers, got {entry['seeds']!r}")
        try:
            check_instance(entry["topology"], entry["qubits"])
        except BenchError as e:
            raise BenchError(f"{where}: {e}") from e
        for seed in entry["seeds"]:
            run = InstanceSpec(entry["topology"], entry["qubits"], entry["depth_param"], seed)
            if run in runs:
                raise BenchError(f"{where}: run {run.instance_id} is listed twice")
            runs.add(run)
    return data


def check_instance(topology: str, num_qubits: int) -> None:
    """Raise BenchError unless `topology` parses and `num_qubits` fit its
    nodes; no graph is built."""
    try:
        nodes = topology_edges(topology)[0]
    except HardwareError as e:
        raise BenchError(str(e)) from e
    if num_qubits > nodes:
        raise BenchError(f"{num_qubits} qubits exceed {nodes} nodes")


def run_matrix(matrix: dict) -> Iterator[ResultRow]:
    """Solve every instance, seed, objective and mode in that order, yielding
    each row as its solve ends.  The seeds of an instance share one graph."""
    time_limit = matrix.get("time_limit", DEFAULT_TIME_LIMIT)
    swap_duration = matrix.get("swap_duration", DEFAULT_SWAP_DURATION)
    for entry in matrix["instances"]:
        graph = parse_topology(entry["topology"])
        for seed in entry["seeds"]:
            spec = InstanceSpec(topology=entry["topology"], num_qubits=entry["qubits"],
                                depth_param=entry["depth_param"], seed=seed)
            circuit = gen_random_circuit(spec)
            for objective in matrix["objectives"]:
                for mode in matrix["modes"]:
                    w_depth, w_swaps = OBJECTIVE_WEIGHTS[objective]
                    config = SolverConfig(w_depth=w_depth, w_swaps=w_swaps,
                                          layered=mode == "layered", time_limit=time_limit,
                                          swap_duration=swap_duration)
                    t0 = time.monotonic()
                    try:
                        result = solve(circuit, graph, config)
                        status, schedule = result.status, result.schedule
                    except Exception:
                        status, schedule = "error", None
                    ms = int((time.monotonic() - t0) * 1000)
                    metrics = (None, None, None)
                    if schedule is not None:
                        m = compute_metrics(schedule)
                        metrics = (m.depth, m.swaps, m.unweighted_depth)
                    yield ResultRow(spec.instance_id, spec.topology, spec.num_qubits,
                                    spec.depth_param, spec.seed, mode, objective,
                                    *metrics, status, ms)


def write_rows(rows: Iterable[ResultRow], out: TextIO) -> Iterator[ResultRow]:
    """Write the CSV header to `out`, then each row as it arrives, flushed,
    and yield the row once it is written (csv writes None as an empty field)."""
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([getattr(row, c) for c in CSV_COLUMNS])
        out.flush()
        yield row


def rows_to_csv(rows: Iterable[ResultRow]) -> str:
    buf = io.StringIO()
    for _ in write_rows(rows, buf):
        pass
    return buf.getvalue()


def rows_from_csv(text: str) -> list[ResultRow]:
    """Rows of a results CSV; BenchError unless it has exactly the
    CSV_COLUMNS header, a field for every column, a known status, mode and
    objective, metrics set exactly when the status has a schedule, an
    integer, written as -?[0-9]+, wherever ResultRow holds one, and one row
    per run (instance_id, objective, mode)."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != CSV_COLUMNS:
        raise BenchError(f"results CSV must have the columns {','.join(CSV_COLUMNS)}, "
                         f"got {','.join(reader.fieldnames or [])}")
    rows, runs = [], set()
    for rec in reader:
        where = f"results CSV line {reader.line_num}"
        if None in rec or None in rec.values():
            raise BenchError(f"{where}: want {len(CSV_COLUMNS)} fields")
        for key, allowed in (("status", STATUSES), ("mode", MODES),
                             ("objective", tuple(OBJECTIVE_WEIGHTS))):
            if rec[key] not in allowed:
                raise BenchError(f"{where}: {key} must be one of {list(allowed)}, "
                                 f"got {rec[key]!r}")
        scheduled = rec["status"] in ("optimal", "incumbent")
        for key in ("depth", "swaps", "unweighted_depth"):
            if (rec[key] != "") != scheduled:
                raise BenchError(f"{where}: column {key!r} must be "
                                 f"{'set' if scheduled else 'empty'} for status {rec['status']}")

        def num(key, optional=False):
            if optional and rec[key] == "":
                return None
            if not INTEGER.fullmatch(rec[key]):
                raise BenchError(f"{where}: column {key!r} must be an integer, "
                                 f"got {rec[key]!r}")
            return int(rec[key])
        rows.append(ResultRow(rec["instance_id"], rec["topology"], num("qubits"),
                              num("depth_param"), num("seed"), rec["mode"],
                              rec["objective"], num("depth", True), num("swaps", True),
                              num("unweighted_depth", True), rec["status"],
                              num("wall_time_ms")))
        run = (rec["instance_id"], rec["objective"], rec["mode"])
        if run in runs:
            raise BenchError(f"{where}: a second row for the run {','.join(run)}")
        runs.add(run)
    return rows


# A report metric's name, and the ResultRow column it reads.
METRIC_COLUMNS = {"depth": "depth", "swaps": "swaps", "unweighted": "unweighted_depth"}


def _pairs(rows: list[ResultRow], metric: str):
    """Per-run (instance id, non-layered value, layered value) pairs where
    both runs are proven optimal, sorted by instance id then objective.  A
    run is paired only with the layered run of its own objective."""
    if metric not in METRIC_COLUMNS:
        raise BenchError(f"unknown metric {metric!r}")
    column = METRIC_COLUMNS[metric]
    by_run: dict[tuple[str, str], dict[str, ResultRow]] = {}
    for row in rows:
        by_run.setdefault((row.instance_id, row.objective), {})[row.mode] = row
    pairs = []
    for iid, objective in sorted(by_run):
        modes = by_run[iid, objective]
        nl, lay = modes.get("non-layered"), modes.get("layered")
        if nl is None or lay is None:
            continue
        if nl.status != "optimal" or lay.status != "optimal":
            continue
        pairs.append((iid, getattr(nl, column), getattr(lay, column)))
    return pairs


def rmd(rows: list[ResultRow], metric: str = "depth") -> dict:
    """Relative mean deviation over instance pairs solved to optimality in
    both modes: mean of (layered - non_layered) / layered, as a percentage.
    RMD_neq restricts to pairs with differing values.  Pairs with a zero
    layered value are excluded and counted separately."""
    pairs = _pairs(rows, metric)
    devs = []
    n_eq = 0
    excluded = 0
    for _, y_nl, y_l in pairs:
        if y_l == y_nl:
            n_eq += 1
            devs.append(0.0)
        elif y_l == 0:
            excluded += 1   # cannot divide; impossible for consistent optima
        else:
            devs.append((y_l - y_nl) / y_l)
    n_s = len(pairs) - excluded
    neq_devs = [d for d in devs if d != 0]
    return {
        "N": len(pairs),
        "N_S": n_s,
        "N_eq": n_eq,
        "excluded_zero": excluded,
        "RMD": 100.0 * sum(devs) / n_s if n_s else 0.0,
        "RMD_neq": 100.0 * sum(neq_devs) / len(neq_devs) if neq_devs else 0.0,
    }


def parity_export(rows: list[ResultRow], metric: str = "depth") -> str:
    """Two-column CSV (non_layered, layered) of paired optimal values."""
    pairs = _pairs(rows, metric)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["non_layered", "layered"])
    for _, y_nl, y_l in pairs:
        writer.writerow([y_nl, y_l])
    return buf.getvalue()
