"""Replicated noise experiments comparing shrinkage against classical MDS.

The protocol per replicate: draw a noisy observation of the true
squared-distance matrix, fit the distance-shrinkage estimator and the
rank-r classical-scaling baseline, and score both by Kruskal stress
against the truth (shrinkage is scored on its full estimate, the baseline
on its rank-r implied EDM). Replicates use independent keyed RNG streams,
so a report is a pure function of its configuration.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import (
    EdmMatrix,
    Embedding,
    SymHollowMatrix,
    _built,
    _distances_from_coords,
    check_int,
    check_nonnegative,
    kruskal_stress,
)
from .fileio import dumps_json
from .noise import NoiseModel, add_noise
from .projection import (NotConvergedError, SolverConfig, _centered_eigh,
                         _project_from)
from .shrinkage import _check_rank, _mds_fit, recommended_lambda


@dataclass(frozen=True)
class SimConfig:
    """Experiment configuration.

    Exactly one of ``lam`` (the penalty, used as-is) or ``sigma`` (noise
    standard deviation, mapped through the recommended penalty rule) must
    be given.
    """

    reps: int
    seed: int
    noise: NoiseModel
    rank_r: int = 3
    lam: float | None = None
    sigma: float | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        for name in ("reps", "seed", "rank_r"):
            check_int(name, getattr(self, name))
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.rank_r < 1:
            raise ValueError("rank_r must be at least 1")
        if (self.lam is None) == (self.sigma is None):
            raise ValueError("give exactly one of lam or sigma")

    def penalty(self, n: int) -> float:
        if self.lam is not None:
            return self.lam
        return recommended_lambda(n, self.sigma)


@dataclass(frozen=True)
class MethodStats:
    """Aggregate stress for one method over the included replicates."""

    stresses: tuple[float, ...]
    mean: float
    sem: float


@dataclass(frozen=True)
class ReplicateRecord:
    """Per-replicate outcome. stress fields are None when excluded."""

    index: int
    shrinkage_stress: float | None
    mds_stress: float
    cycles: int
    converged: bool


@dataclass(frozen=True)
class StressReport:
    """Everything one experiment produced, ready for serialization."""

    n: int
    lam: float
    eta: float
    config: dict
    shrinkage: MethodStats
    classical_mds: MethodStats
    replicates: tuple[ReplicateRecord, ...]
    failed: tuple[int, ...]


def _stats(values: list[float]) -> MethodStats:
    if not values:
        return MethodStats(stresses=(), mean=math.nan, sem=math.nan)
    arr = np.asarray(values)
    mean = float(arr.mean())
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return MethodStats(stresses=tuple(float(v) for v in values), mean=mean, sem=sem)


def helix_coords(
    n: int, turns: float = 3.0, radius: float = 0.3, pitch: float = 0.3
) -> np.ndarray:
    """Points along a circular helix, a bundled stand-in geometry of dim 3.

    ``pitch`` is the height gained per turn. Useful when no real structure
    file is at hand; the resulting EDM has embedding dimension 3. The
    default scale keeps squared distances small relative to the noise
    levels used in the bundled experiments, the regime where shrinkage
    pays off most clearly. Raises ValueError where a coordinate is not
    finite: a parameter is not, or the angles or heights overflow.
    """
    if n < 2:
        raise ValueError("need at least 2 points")
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.linspace(0.0, 2.0 * np.pi * turns, n)
        coords = np.column_stack((radius * np.cos(t), radius * np.sin(t),
                                  pitch * t / (2.0 * np.pi)))
    if not np.isfinite(coords).all():
        raise ValueError(f"helix coordinates must be finite, got turns "
                         f"{turns!r}, radius {radius!r}, pitch {pitch!r}")
    return coords


def run_experiment(truth, cfg: SimConfig) -> StressReport:
    """Run ``cfg.reps`` noisy replicates against a true distance matrix.

    ``truth`` is an EdmMatrix or an (n, k) coordinate array. Each
    replicate yields one ``ReplicateRecord``; ``failed`` and both methods'
    aggregates are computed from those records afterwards. A replicate
    whose shrinkage fit fails to converge is recorded, counted in
    ``failed`` and excluded from both methods' aggregates. The result is
    deterministic for a fixed configuration and independent of replicate
    execution order.

    One eigendecomposition of J X J per replicate gives both the
    baseline's coordinates, as ``classical_mds`` computes them, and the
    start of the shrinkage fit: the replicate makes the projection call
    of ``distance_shrinkage`` itself, started from that spectrum, the
    dual point z = 0 of every penalty, where ``distance_shrinkage``
    starts cold. The baseline is scored on the distances of its
    coordinates, which form an EDM by construction, so it needs no
    certificate. The fit is certified from the eigenpairs its projection
    ends on. The truth is not certified: an experiment reads only its
    entries, and truth given as coordinates becomes the squared distances
    of the centered coordinates. So an experiment makes no ``eigvalsh``.

    Each replicate runs in a call of its own, and keeps its observation,
    spectrum and fit no longer: once the baseline has read the spectrum,
    the fit's stream of dual points takes it over and drops it before the
    fit's first evaluation (``projection._points``), the dual point the
    fit closed on is let go of as it is returned, and the fit once
    scored. So every eigendecomposition runs beside the truth's
    entries, not its kernel, the observation, with no shrunk copy of it,
    and no eigenbasis but its own.
    """
    d_true = SymHollowMatrix(_built(  # read-only, shared
        truth.entries if isinstance(truth, EdmMatrix) else
        _distances_from_coords(Embedding.from_points(truth).coords)))
    n = d_true.n
    lam = cfg.penalty(n)
    _check_rank(cfg.rank_r, n)
    check_nonnegative("lam", lam)

    records = [_replicate(d_true, cfg, lam, rep) for rep in range(cfg.reps)]
    included = [r for r in records if r.converged]
    return StressReport(
        n=n,
        lam=float(lam),
        eta=float(lam / (2 * n)),
        config={"lambda" if k == "lam" else k: v
                for k, v in asdict(cfg).items()},
        shrinkage=_stats([r.shrinkage_stress for r in included]),
        classical_mds=_stats([r.mds_stress for r in included]),
        replicates=tuple(records),
        failed=tuple(r.index for r in records if not r.converged),
    )


def _replicate(d_true: SymHollowMatrix, cfg: SimConfig, lam: float,
               rep: int) -> ReplicateRecord:
    """Replicate ``rep`` of ``run_experiment``, whose observation, spectrum
    and fit die with this call."""
    x = add_noise(d_true, cfg.noise, cfg.seed, replicate=rep)
    spectrum = _centered_eigh(x.entries)
    mds_coords = _mds_fit(*spectrum, cfg.rank_r).embedding.coords
    mds_stress = kruskal_stress(
        SymHollowMatrix(_built(_distances_from_coords(mds_coords))), d_true)
    # the spectrum of J X J is the dual point z = 0 of every penalty; the
    # start holds the only reference to it, and the fit's stream pops it
    start = [(np.zeros(x.n), *spectrum)]
    del spectrum
    try:
        # the closing dual point is let go of as it is returned
        d_hat, diag = _project_from(x, lam / (2 * x.n), cfg.solver, start)[:2]
    except NotConvergedError as exc:
        stress, cycles = None, exc.diagnostics.cycles
    else:
        stress = kruskal_stress(d_hat, d_true)
        cycles = diag.cycles
    return ReplicateRecord(
        index=rep, shrinkage_stress=stress, mds_stress=mds_stress,
        cycles=cycles, converged=stress is not None)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _report_payload(report: StressReport) -> dict:
    def method(stats: MethodStats) -> dict:
        empty = not stats.stresses
        return {
            "mean": None if empty else stats.mean,
            "sem": None if empty else stats.sem,
            "stresses": list(stats.stresses),
        }

    return {
        "n": report.n,
        "lambda": report.lam,
        "eta": report.eta,
        "config": report.config,
        "methods": {
            "shrinkage": method(report.shrinkage),
            "classical_mds": method(report.classical_mds),
        },
        "replicates": [asdict(r) for r in report.replicates],
        "failed": list(report.failed),
    }


def report_json(report: StressReport) -> str:
    """Deterministic JSON text for a report (floats at 17 digits)."""
    return dumps_json(_report_payload(report))


def report_csv(report: StressReport) -> str:
    """CSV text: one row per (method, replicate).

    Columns are method,replicate,stress,cycles,converged; a failed
    shrinkage replicate carries stress ``nan``. A shrinkage row's cycles
    counts the evaluations of the projection's dual, one
    eigendecomposition each; the one eigendecomposition that its
    replicate shares with the baseline, which gives the fit its start,
    is not among them (see ``ProjectionDiagnostics``). The baseline is
    direct (no iteration), so its cycles are 0 and converged is always
    true.
    """
    lines = ["method,replicate,stress,cycles,converged"]
    for r in report.replicates:
        stress = "nan" if r.shrinkage_stress is None else format(
            r.shrinkage_stress, ".17g")
        lines.append(
            f"shrinkage,{r.index},{stress},{r.cycles},{str(r.converged).lower()}")
    for r in report.replicates:
        lines.append(
            f"classical_mds,{r.index},{format(r.mds_stress, '.17g')},0,true")
    return "\n".join(lines) + "\n"
