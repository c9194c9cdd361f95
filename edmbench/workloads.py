"""The three workloads: their inputs, invocations and output checks.

A workload writes its inputs from the seed, then names one round of CLI
invocations. Invocation j of a round writes its outputs under ``op<j>/``
of the work directory, which is emptied before each invocation; every
round repeats the same invocations, so every round must write the same
bytes. ``check`` inspects the outputs of one invocation against the
numpy computations in :mod:`checks`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

RANK = 3
HELIX = {"turns": 3.0, "radius": 0.3, "pitch": 0.3}


@dataclass
class Outcome:
    """What the checks found in one invocation's outputs."""

    problems: list[str]
    cycles: int = 0
    stresses: list[float] = field(default_factory=list)


def op_dir(work: Path, j: int) -> Path:
    return work / f"op{j}"


def check_outputs(wl, j: int, out: Path) -> Outcome:
    """``wl.check``, with missing or unreadable outputs as a problem."""
    try:
        return wl.check(j, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Outcome([f"outputs missing or unreadable: "
                        f"{type(exc).__name__}: {exc}"])


def noisy_observation(n: int, sigma2: float, key: int):
    """True helix EDM and one Gaussian observation of it (symmetric,
    hollow), drawn from a stream keyed by (key, n)."""
    truth = checks.squared_distances(checks.helix(n, **HELIX))
    rng = np.random.default_rng([key, n])
    iu = np.triu_indices(n, k=1)
    noise = np.zeros((n, n))
    noise[iu] = rng.normal(0.0, math.sqrt(sigma2), size=iu[0].size)
    return truth, truth + noise + noise.T


def write_matrix_csv(path: Path, a: np.ndarray) -> None:
    """Square matrix as CSV at 17 significant digits, which read back
    exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in a:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


class SimHelix100:
    """``simulate`` on the 0.3 helix at three noise levels. Level j runs
    with the program's ``--seed`` 3*seed + j, which keys its noise
    streams: with one seed for all levels, every level would scale the
    same standard normal draws."""

    name = "sim-helix100"
    n = 100
    sigma2 = (0.05, 0.25, 0.5)
    # Cycles per fit vary by about 10% between noise draws; 6 replicates
    # per level average that over 18 independent fits, so the work of a
    # run changes by about 2% from seed to seed.
    reps = 6
    fits_per_op = reps

    def prepare(self, work: Path, seed: int) -> list[list[str]]:
        return [
            ["simulate", "--helix", str(self.n),
             "--helix-radius", repr(HELIX["radius"]),
             "--helix-pitch", repr(HELIX["pitch"]),
             "--noise", "gaussian", "--sigma2", repr(s2),
             "--sigma", repr(math.sqrt(s2)), "--rank", str(RANK),
             "--reps", str(self.reps), "--seed", str(3 * seed + j),
             "--out", str(op_dir(work, j) / "report.json")]
            for j, s2 in enumerate(self.sigma2)]

    def check(self, j: int, out: Path) -> Outcome:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        return Outcome(
            problems=checks.sim_report_problems(report, self.n, self.sigma2[j],
                                                self.reps),
            cycles=sum(r["cycles"] for r in report["replicates"]),
            stresses=list(report["methods"]["shrinkage"]["stresses"]))


class EstimateN200:
    """``estimate`` over a penalty grid on one observation of the helix.

    The observation is one fixed noise draw; the seed permutes its 200
    objects. A fit's cycle count varies by about 10% from one noise draw
    to the next (2369 to 2974 cycles over the grid for four draws), and a
    run has time for one observation, so a seed-drawn observation would
    make the spread across seeds larger than any bound a time may have.
    A permutation changes the input file and the order of every floating
    point operation, but not the problem, so the work stays the same.
    """

    name = "estimate-n200"
    n = 200
    sigma2 = 0.25
    noise_key = 0
    grid = (0.5, 1.0, 2.0)  # multiples of lambda* = 4 sigma (sqrt(n) + 1)
    fits_per_op = len(grid)

    def _inputs(self):
        truth, x = noisy_observation(self.n, self.sigma2, self.noise_key)
        p = np.random.default_rng([self.seed, self.n]).permutation(self.n)
        return truth[np.ix_(p, p)], x[np.ix_(p, p)]

    def prepare(self, work: Path, seed: int) -> list[list[str]]:
        self.seed = seed
        path = work / f"x{self.n}.csv"
        write_matrix_csv(path, self._inputs()[1])
        lam_star = 4.0 * math.sqrt(self.sigma2) * (math.sqrt(self.n) + 1.0)
        self.lams = [f * lam_star for f in self.grid]
        return [["estimate", "--input", str(path),
                 "--lambda-grid", ",".join(repr(lam) for lam in self.lams),
                 "--rank", str(RANK), "--out", str(op_dir(work, 0) / "est")]]

    def check(self, j: int, out: Path) -> Outcome:
        truth, x = self._inputs()
        fits = {}
        for diag_path in sorted(out.glob("est_lam*.diag.json")):
            diag = json.loads(diag_path.read_text(encoding="utf-8"))
            fits[diag["lambda"]] = (str(diag_path)[:-len(".diag.json")], diag)
        if sorted(fits) != sorted(self.lams):
            return Outcome([f"output sets for lambda {sorted(fits)}, "
                            f"expected {self.lams}"])
        outcome = Outcome([])
        for lam in self.lams:
            prefix, diag = fits[lam]
            d_hat = checks.read_csv_matrix(prefix + ".dhat.csv")
            problems = checks.estimate_problems(
                x, lam, d_hat, checks.read_csv_matrix(prefix + ".khat.csv"),
                checks.read_csv_matrix(prefix + ".embedding.csv"), RANK)
            if not diag["converged"]:
                problems.append(f"lambda {lam!r}: not converged")
            outcome.problems += problems
            outcome.cycles += diag["cycles"]
            outcome.stresses.append(checks.rel_diff(d_hat, truth))
        return outcome


class MdsN1000:
    """``mds`` on one observation of the 1000-point helix; the seed draws
    the noise, which leaves the work of classical scaling unchanged."""

    name = "mds-n1000"
    n = 1000
    sigma2 = 0.25
    fits_per_op = 1

    def prepare(self, work: Path, seed: int) -> list[list[str]]:
        self.seed = seed
        path = work / f"x{self.n}.csv"
        write_matrix_csv(path, noisy_observation(self.n, self.sigma2, seed)[1])
        return [["mds", "--input", str(path), "--rank", str(RANK),
                 "--out", str(op_dir(work, 0) / "mds")]]

    def check(self, j: int, out: Path) -> Outcome:
        truth, x = noisy_observation(self.n, self.sigma2, self.seed)
        d_r = checks.read_csv_matrix(out / "mds.dhat_r.csv")
        problems = checks.mds_problems(
            x, d_r, checks.read_csv_matrix(out / "mds.embedding.csv"), RANK)
        return Outcome(problems, 0, [checks.rel_diff(d_r, truth)])


WORKLOADS = {w.name: w for w in (SimHelix100, EstimateN200, MdsN1000)}
