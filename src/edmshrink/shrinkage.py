"""The distance-shrinkage estimator and the classical-scaling baseline.

Given noisy squared-distance observations X, the shrinkage estimator
subtracts a constant eta = lambda / (2n) from every off-diagonal entry and
projects the result onto the EDM cone. The outcome solves

    minimize over EDMs M:   (1/2) ||X - M||_F^2 + lambda * trace(-J M J / 2)

so the trace penalty on the implied kernel is equivalent to uniform
distance shrinkage: pulling points toward lower-dimensional configurations.

Penalties differ only by the offset -eta (11^T - I), and that offset
shifts the projection's dual without changing its spectrum: at the dual
point y of penalty eta, the input of penalty eta + c has

    (A - c (11^T - I)) + Diag(y - c 1) = (A + Diag y) - c 11^T,

and J 1 = 0, so Pi_C1 of it is Pi_C1(A + Diag y) - c 11^T, from the
eigenpairs already computed. ``shrinkage_path`` uses this to fit a grid
of penalties in ascending order, each started from the last dual point of
the one before. Each fit still stops and is certified on its own
tolerance, so a path fit agrees with ``distance_shrinkage`` of the same
penalty to within that tolerance, not bit for bit; the first fit of a
path is the same computation as ``distance_shrinkage``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .core import (
    EdmMatrix,
    Embedding,
    MinTraceKernel,
    SymHollowMatrix,
    center_gram,
    edm_from_coords,
    eigh_descending,
)
from .projection import (
    ProjectionDiagnostics,
    SolverConfig,
    _project_from,
    project_edm_cone,
)


@dataclass(frozen=True)
class ShrinkageFit:
    """Result of one shrink-and-project fit.

    Stores what the fit computed: d_hat, the estimated EDM, the penalty
    lam and the projection's diagnostics. k_hat, the minimum-trace kernel
    of d_hat, and eta = lam / (2n), the per-entry shrinkage applied
    before projection, are read from those.
    """

    d_hat: EdmMatrix
    lam: float
    diagnostics: ProjectionDiagnostics

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")

    @property
    def k_hat(self) -> MinTraceKernel:
        return self.d_hat.kernel

    @property
    def eta(self) -> float:
        return self.lam / (2 * self.d_hat.n)


@dataclass(frozen=True)
class RankTruncatedFit:
    """Centered coordinates of embedding dimension r, with their EDM.

    Stores only the embedding; r is its number of columns. The rank-r EDM
    d_hat_r is built from the coordinates and certified each time it is
    read, so a caller that needs only the coordinates (``estimate``
    writes nothing else) never pays for the n x n matrix or its spectrum.
    """

    embedding: Embedding

    @property
    def r(self) -> int:
        return self.embedding.k

    @property
    def d_hat_r(self) -> EdmMatrix:
        d = edm_from_coords(self.embedding)
        if d.embed_dim > self.r:
            raise ValueError("truncated EDM exceeds the requested rank")
        return d


def check_penalty(lam: float) -> None:
    """Raise ValueError unless the penalty ``lam`` is finite and >= 0."""
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and nonnegative, got {lam!r}")


def _shrunk(x: SymHollowMatrix, eta: float) -> np.ndarray:
    """The observations with eta subtracted from every off-diagonal entry."""
    return x.entries - eta * (1.0 - np.eye(x.n))


def distance_shrinkage(
    x: SymHollowMatrix, lam: float, cfg: SolverConfig | None = None
) -> ShrinkageFit:
    """Shrink all observed squared distances by lam/(2n), then project.

    Every off-diagonal entry of ``x`` is reduced by eta = lam / (2n)
    (entries may go negative; the projection handles them) and the result
    is projected onto the EDM cone. The fit minimizes
    (1/2)||X - M||_F^2 + lam * trace(-J M J / 2) over EDMs M.

    Raises ValueError for a penalty that is negative or not finite, and
    NotConvergedError if the projection does not converge.
    """
    check_penalty(lam)
    d_hat, diag = project_edm_cone(_shrunk(x, lam / (2 * x.n)), cfg)
    return ShrinkageFit(d_hat=d_hat, lam=lam, diagnostics=diag)


def shrinkage_path(
    x: SymHollowMatrix, lams: Iterable[float], cfg: SolverConfig | None = None
) -> Iterator[ShrinkageFit]:
    """Fits of ``distance_shrinkage`` for each penalty, in ascending order.

    Each fit after the first starts from the last dual point of the one
    before it, shifted to its own penalty (see the module docstring), so
    it needs fewer eigendecompositions than a fit from y = 0. The first
    fit is exactly ``distance_shrinkage(x, min(lams), cfg)``; every later
    fit meets the same stopping rule and certificate as its single fit
    and agrees with it to within the solver tolerance.

    Every penalty is checked before the first fit: a negative or
    non-finite one raises ValueError here, before iteration starts. The
    fits are computed one at a time as the iterator is advanced, and a
    fit that does not converge raises NotConvergedError from it.
    """
    lams = list(lams)
    for lam in lams:
        check_penalty(lam)
    return _walk_path(x, sorted(lams), cfg)


def _walk_path(x: SymHollowMatrix, lams: list[float],
               cfg: SolverConfig | None) -> Iterator[ShrinkageFit]:
    point, eta_prev = None, 0.0
    for lam in lams:
        eta = lam / (2 * x.n)
        start = None if point is None else point.shifted(eta - eta_prev)
        d_hat, diag, point = _project_from(_shrunk(x, eta), cfg, start)
        eta_prev = eta
        yield ShrinkageFit(d_hat=d_hat, lam=lam, diagnostics=diag)


def objective_value(m: EdmMatrix, x: SymHollowMatrix, lam: float) -> float:
    """Penalized least-squares objective (1/2)||X - M||_F^2 + lam tr(-JMJ/2)."""
    if m.n != x.n:
        raise ValueError(f"size mismatch: {m.n} vs {x.n}")
    fit = 0.5 * float(np.sum((x.entries - m.entries) ** 2))
    return fit + lam * float(np.trace(center_gram(m.entries)))


def _check_sigma(sigma: float) -> None:
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma!r}")


def recommended_lambda(n: int, sigma: float) -> float:
    """Penalty level 4 sigma (sqrt(n) + 1) for i.i.d. noise of std dev sigma.

    With high probability this dominates twice the spectral norm of the
    noise matrix, which is what the estimator's risk bound requires.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    _check_sigma(sigma)
    return 4.0 * sigma * (np.sqrt(n) + 1.0)


def risk_bound(n: int, sigma: float, r: int) -> float:
    """High-probability bound 36 n sigma^2 (r + 1) on ||d_hat - D||_F^2.

    Valid for the recommended penalty when the true EDM has embedding
    dimension r and the noise has mean zero, variance sigma^2 and light
    tails.
    """
    if n < 2 or r < 1:
        raise ValueError("need n >= 2 and r >= 1")
    _check_sigma(sigma)
    return 36.0 * n * sigma**2 * (r + 1)


def _rank_r_fit(kernel: np.ndarray, r: int) -> RankTruncatedFit:
    """Top-r eigen-truncation of a (near) centered kernel, as coordinates.

    Coordinates are centered exactly, and the fit's distance matrix is
    built from them when read, so the two stay consistent to machine
    precision even when the input kernel is degenerate.
    """
    vals, vecs = eigh_descending(kernel)
    kept = np.clip(vals[:r], 0.0, None)
    return RankTruncatedFit(
        embedding=Embedding.from_points(vecs[:, :r] * np.sqrt(kept)))


def truncate_rank(fit: ShrinkageFit, r: int) -> RankTruncatedFit:
    """Best rank-r distance approximation of a fit, with coordinates.

    Keeps the top r eigenpairs of the fitted kernel (negative eigenvalues
    clipped to zero) and maps back to distances; among all EDMs of
    embedding dimension at most r this minimizes ||J (d_hat - M) J||_F.
    """
    n = fit.d_hat.n
    if not 1 <= r <= n - 1:
        raise ValueError(f"rank r must satisfy 1 <= r <= {n - 1}, got {r}")
    return _rank_r_fit(fit.k_hat.entries, r)


def classical_mds(x: SymHollowMatrix, r: int) -> RankTruncatedFit:
    """Classical scaling baseline: eigen-truncate -J X J / 2 at rank r.

    Negative eigenvalues are clipped to zero before coordinates are
    extracted, the standard handling for inputs that are not themselves
    EDMs. No shrinkage is applied.
    """
    n = x.n
    if not 1 <= r <= n - 1:
        raise ValueError(f"rank r must satisfy 1 <= r <= {n - 1}, got {r}")
    return _rank_r_fit(center_gram(x.entries), r)
