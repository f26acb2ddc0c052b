"""Workload definitions and input generation.

Every input is derived from the benchmark's ``--seed``; the program only
ever receives the generated configs and data files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WIDE_CUTS = (1, 2, 5, 10, 20, 50, 100, 1000, 10000)


@dataclass(frozen=True)
class Study:
    """A run_experiment block shape: sizes (20, 300), h = 0.5, default
    alpha.  ``reps`` replications per size make one timed block."""

    pi: float
    cuts: tuple[int, ...] | None
    reps: int
    canonical_seed: int | None = None
    sizes: tuple[int, ...] = (20, 300)
    h: float = 0.5

    def partition(self, ph):
        if self.cuts is None:
            return ph.default_partition()
        return ph.parse_cuts(",".join(map(str, self.cuts)))

    def config(self, ph, seed: int, reps: int | None = None):
        return ph.ExperimentConfig(pi=self.pi, sizes=self.sizes,
                                   reps=reps or self.reps, h_values=(self.h,),
                                   seed=seed, partition=self.partition(ph))

    def canonical(self, ph):
        """The fixed block whose rows golden.json records."""
        return self.config(ph, self.canonical_seed, reps=3)

    def cli_args(self) -> list[str]:
        return ["--cuts", ",".join(map(str, self.cuts))] if self.cuts else []


STUDIES = {
    # ~14 ms per replication on 2 cores: 5 reps per size keeps a block near
    # 0.14 s, so a 30 s run times ~200 blocks.
    "study": Study(pi=1.0, cuts=None, reps=5, canonical_seed=1001),
    # ~84 ms per replication: one rep per size keeps a block near 0.17 s.
    "study_wide_cuts": Study(pi=0.0, cuts=WIDE_CUTS, reps=1, canonical_seed=1002),
}

# The cli workload's data and its simulate-layer probe block (select never
# reaches simulate, so that layer is measured on a study block of the same
# data shape: Poisson(4), n = 300, default cells).
CLI_STUDY = Study(pi=1.0, cuts=None, reps=4, sizes=(300,))
CLI_FILES = 4
CLI_N = 300
CLI_MIN_CALLS = 100  # p90 needs at least ten samples beyond it
CLI_CANONICAL_SEED = 2024

WHY = {
    "study": "The paper's own traffic: run_experiment on Poisson(4) data at "
             "n in {20, 300}, h = 0.5, 8 default cells; time splits across "
             "models, divergence, asymptotics and simulate.",
    "study_wide_cuts": "The same study on geometric data with heavy-tail cuts up "
                       "to 10000, so cell probabilities dominate and the "
                       "empty-cell penalty branch runs; a cell-kernel change "
                       "shows here.",
    "cli": "Fresh-interpreter phdsel select calls on 300-observation files: "
           "start-up and import dominate, so a fit-layer change should show "
           "no change here.",
}


def block_seeds(seed: int):
    """Endless, reproducible stream of run_experiment seeds."""
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(0, 2**31 - 1))


def mixture_data(pi: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Poisson(4) with probability pi, else geometric(0.2) on {1, 2, ...}."""
    first = rng.poisson(4.0, n)
    second = rng.geometric(0.2, n)
    return np.where(rng.random(n) < pi, first, second)


def write_data(path: str, values: np.ndarray) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(str(int(v)) for v in values) + "\n")
    return path
