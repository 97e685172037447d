"""The benchmark's workloads: which ldmcap command each one runs, and with which flags.

Every workload runs on the bundled iris data (C=3).  Its inputs are chosen by
the ldmcap ``--seed`` flag, which picks the holdout points and every label
permutation.  Each run measures a workload's whole panel of seeds, in an
order the benchmark seed sets, and checks one held-out seed that the
benchmark seed picks.  The outputs of every seed are checked against a
stored reference.

Why a fixed panel: the input alone moves the wall time (on the wide
workloads the Dirichlet fit's iteration count varies by about 12% from one
holdout to the next), so runs on different inputs would differ by that much.
Every run measures the same two-seed panel, which keeps that variation out
of the run-to-run spread.  Each CLI run is kept to one to three seconds, so
a run holds a dozen or more of them and each panel seed several.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seeds never measured: each run checks and times one of them on its own.
HELD_OUT_SEEDS = tuple(range(1000, 1008))

SIX_FAMILIES = (
    "knn:k=10",
    "gaussian_nb",
    "decision_tree",
    "random_forest",
    "qda",
    "adaboost",
)
CHEAP_FAMILIES = ("knn:k=10", "gaussian_nb", "qda")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "compare" or "ldm"
    specs: tuple[str, ...]
    holdout: int
    k: int
    repeats: int
    trials: int  # recorder trials; the ldm command runs none
    panel: int  # measured ldmcap seeds are 0 .. panel-1; a run covers all of them
    why: str

    @property
    def panel_seeds(self) -> tuple[int, ...]:
        return tuple(range(self.panel))

    @property
    def fits(self) -> int:
        """Classifier fits one CLI run performs: specs x (trials + K x repeats)."""
        return len(self.specs) * (self.trials + self.k * self.repeats)

    def flags(self) -> dict:
        return {
            "command": self.command,
            "specs": list(self.specs),
            "holdout": self.holdout,
            "k": self.k,
            "repeats": self.repeats,
            "trials": self.trials,
            "panel_seeds": list(self.panel_seeds),
            "fits_per_cli_run": self.fits,
        }

    def argv(self, cli_seed: int, out_dir: str) -> list[str]:
        args = [self.command]
        for spec in self.specs:
            args += ["--spec", spec]
        args += [
            "--holdout", str(self.holdout),
            "--k", str(self.k),
            "--repeats", str(self.repeats),
            "--seed", str(cli_seed),
            "--out", out_dir,
        ]
        if self.trials:
            args += ["--trials", str(self.trials)]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compare-six",
            command="compare",
            specs=SIX_FAMILIES,
            holdout=5,
            k=10,
            repeats=2,
            trials=10,
            panel=2,
            why="six-family compare at N'=5 (243 labelings): classifier fits dominate",
        ),
        Workload(
            name="compare-wide",
            command="compare",
            specs=CHEAP_FAMILIES,
            holdout=9,
            k=10,
            repeats=1,
            trials=20,
            panel=2,
            why="cheap families at N'=9 (19,683 labelings), no artifacts: "
            "Dirichlet fit, entropy and matrix memory dominate",
        ),
        Workload(
            name="ldm-wide",
            command="ldm",
            specs=("knn:k=10", "gaussian_nb"),
            holdout=8,
            k=30,
            repeats=1,
            trials=0,
            panel=2,
            why="ldm at N'=8 writing CSV, PGM and JSON artifacts: the matrix writer dominates",
        ),
    )
}
