"""Workload definitions shared by the benchmark and its answer generator.

A workload is a list of shapes (topology, qubits, gate rounds, instance
count), an objective and the solve modes; every solve is exact.  Shape
instances are `gen_random_circuit` seeds 0..count-1 at SWAP duration 15;
their answers are committed in `answers.json`.

The workload seed relabels the virtual qubits of every instance with a
seeded permutation and shuffles the run order.  Relabelling gives each
seed different circuits with the same optimum, so every seed is checked
against the committed answers, and the search does the same work on every
seed, so a run's figures do not depend on which seed it drew.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SWAP_DURATION = 15
# Hang guard only: the slowest solve takes about 1 s.
TIME_LIMIT_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    objective: str                       # depth | swaps
    modes: tuple[str, ...]               # non-layered | layered
    shapes: tuple[tuple[str, int, int, int], ...]


# Instance counts keep one pass at 4-7 s on a 2-core box at the commit
# that defined the benchmark, so a 60 s run makes seven or more passes
# and every solve is timed that many times (see `run.end_to_end`).  Cheap
# shapes get most of the instances: they give the tail percentile enough
# solves beyond it, and no single heavy instance dominates a pass.
WORKLOADS = {
    w.name: w for w in (
        Workload("exact-depth", "depth", ("non-layered", "layered"),
                 (("linear:5", 5, 10, 16), ("y:6", 6, 10, 1),
                  ("grid:2x3", 6, 10, 3), ("grid:2x3", 6, 12, 2),
                  ("linear:6", 6, 12, 1))),
        Workload("exact-swaps", "swaps", ("non-layered", "layered"),
                 (("linear:5", 5, 12, 8), ("grid:2x3", 6, 12, 6),
                  ("y:6", 6, 12, 6), ("linear:7", 7, 14, 1))),
    )
}


@dataclass(frozen=True)
class Pick:
    topology: str
    qubits: int
    depth_param: int
    seed: int                    # gen_random_circuit seed
    perm: tuple[int, ...]        # virtual qubit q becomes perm[q]; perm[0] = 0

    @property
    def instance(self) -> str:
        return f"{self.topology}-q{self.qubits}-d{self.depth_param}-s{self.seed}"

    @property
    def shape(self) -> tuple[str, int, int]:
        return (self.topology, self.qubits, self.depth_param)


def solve_key(workload: Workload, instance: str, mode: str) -> str:
    return f"{workload.name}/{instance}/{mode}"


def select(workload: Workload, seed: int | None) -> list[Pick]:
    """The instances a workload seed runs, in run order.  Seed None gives
    the unrelabelled instances in definition order."""
    rng = random.Random(f"{workload.name}:{seed}")
    picks = []
    for topology, qubits, depth_param, count in workload.shapes:
        for s in range(count):
            perm = list(range(1, qubits + 1))
            if seed is not None:
                rng.shuffle(perm)
            picks.append(Pick(topology, qubits, depth_param, s, (0, *perm)))
    if seed is not None:
        rng.shuffle(picks)
    return picks


def traced_picks(picks: list[Pick]) -> list[Pick]:
    """The traced run's instances: instance 0 of each shape, relabelled as
    the seed says, so the traced work is the same on every seed."""
    return [pick for pick in picks if pick.seed == 0]
