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

The same fact makes a constant dual start free: the input A of penalty
eta has J A J = J X J + eta J, so one spectrum of J X J gives the
minimizer of theta(c 1), where a cold fit starts, for every eta (see the
``projection`` module docstring). Every fit runs in one loop over the
penalties, which takes that spectrum as an option and then starts its
first fit there; ``simulate`` passes the spectrum of -J X J / 2 that
classical MDS decomposes anyway, so one eigendecomposition per replicate
serves both methods. A fit keeps the eigenpairs of its projection's last
evaluation, which are those of its kernel, and ``truncate_rank`` reads
the coordinates off them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .core import (
    EdmMatrix,
    Embedding,
    MinTraceKernel,
    SymHollowMatrix,
    _lead_positive,
    center_gram,
    check_nonnegative,
    edm_from_coords,
    eigh_descending,
)
from .projection import (
    ProjectionDiagnostics,
    SolverConfig,
    _constant_start,
    _project_from,
)


@dataclass(frozen=True)
class ShrinkageFit:
    """Result of one shrink-and-project fit.

    Stores what the fit computed: d_hat, the estimated EDM, the penalty
    lam, the projection's diagnostics, and spectrum, the descending
    eigenpairs of the kernel of d_hat read off the projection's last
    eigendecomposition (see the ``projection`` module docstring). k_hat,
    the minimum-trace kernel of d_hat, and eta = lam / (2n), the
    per-entry shrinkage applied before projection, are read from those.
    """

    d_hat: EdmMatrix
    lam: float
    diagnostics: ProjectionDiagnostics
    spectrum: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)

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
    return next(shrinkage_path(x, [lam], cfg))


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
        check_nonnegative("lam", lam)
    return _walk_path(x, sorted(lams), cfg)


def _walk_path(
    x: SymHollowMatrix, lams: list[float], cfg: SolverConfig | None,
    spectrum: tuple[np.ndarray, np.ndarray] | None = None,
) -> Iterator[ShrinkageFit]:
    """The fits of the checked, ascending penalties ``lams``.

    Each fit after the first starts from the last dual point of the one
    before. The first starts cold, or, given ``spectrum``, the descending
    eigenpairs (mu, vecs) of center_gram(x) from ``eigh_descending``, at
    the best constant dual point read off -2 mu, which ascends through
    the spectrum of J X J, with no eigendecomposition; when those
    eigenvectors do not split off the ones vector, it starts cold. A fit
    snapped to zero keeps kernel eigenvalues 0.
    """
    point, eta_prev = None, 0.0
    for lam in lams:
        eta = lam / (2 * x.n)
        a = _shrunk(x, eta)
        if point is not None:
            point = point.shifted(eta - eta_prev)
        elif spectrum is not None:
            point = _constant_start(a, -2.0 * spectrum[0], spectrum[1], eta)
        d_hat, diag, point = _project_from(a, cfg, point)
        kernel = (np.maximum(-0.5 * point.vals, 0.0) if d_hat.entries.any()
                  else np.zeros_like(point.vals))
        eta_prev = eta
        yield ShrinkageFit(d_hat, lam, diag, (kernel, point.vecs))


def objective_value(m: EdmMatrix, x: SymHollowMatrix, lam: float) -> float:
    """Penalized least-squares objective (1/2)||X - M||_F^2 + lam tr(-JMJ/2)."""
    if m.n != x.n:
        raise ValueError(f"size mismatch: {m.n} vs {x.n}")
    fit = 0.5 * float(np.sum((x.entries - m.entries) ** 2))
    return fit + lam * float(np.trace(center_gram(m.entries)))


def recommended_lambda(n: int, sigma: float) -> float:
    """Penalty level 4 sigma (sqrt(n) + 1) for i.i.d. noise of std dev sigma.

    With high probability this dominates twice the spectral norm of the
    noise matrix, which is what the estimator's risk bound requires.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    check_nonnegative("sigma", sigma)
    return 4.0 * sigma * (np.sqrt(n) + 1.0)


def risk_bound(n: int, sigma: float, r: int) -> float:
    """High-probability bound 36 n sigma^2 (r + 1) on ||d_hat - D||_F^2.

    Valid for the recommended penalty when the true EDM has embedding
    dimension r and the noise has mean zero, variance sigma^2 and light
    tails.
    """
    if n < 2 or r < 1:
        raise ValueError("need n >= 2 and r >= 1")
    check_nonnegative("sigma", sigma)
    return 36.0 * n * sigma**2 * (r + 1)


def _check_rank(r: int, n: int) -> None:
    if not 1 <= r <= n - 1:
        raise ValueError(f"rank r must satisfy 1 <= r <= {n - 1}, got {r}")


def _top_r_fit(vals: np.ndarray, vecs: np.ndarray, r: int) -> RankTruncatedFit:
    """Top-r eigen-truncation of a (near) centered kernel, as coordinates.

    ``vals`` and ``vecs`` are the kernel's descending eigenpairs, with the
    sign convention of ``eigh_descending``. A column clipped to zero
    holds 0, not -0. Coordinates are centered exactly, and the fit's
    distance matrix is built from them when read, so the two stay
    consistent to machine precision even when the kernel is degenerate.
    """
    kept = np.clip(vals[:r], 0.0, None)
    return RankTruncatedFit(
        embedding=Embedding.from_points(vecs[:, :r] * np.sqrt(kept) + 0.0))


def truncate_rank(fit: ShrinkageFit, r: int) -> RankTruncatedFit:
    """Best rank-r distance approximation of a fit, with coordinates.

    Keeps the top r eigenpairs of the fitted kernel and maps back to
    distances; among all EDMs of embedding dimension at most r this
    minimizes ||J (d_hat - M) J||_F. It reads them off
    ``ShrinkageFit.spectrum`` and makes no eigendecomposition.
    """
    _check_rank(r, fit.d_hat.n)
    vals, vecs = fit.spectrum
    return _top_r_fit(vals, _lead_positive(vecs[:, :r]), r)


def classical_mds(x: SymHollowMatrix, r: int) -> RankTruncatedFit:
    """Classical scaling baseline: eigen-truncate -J X J / 2 at rank r.

    Negative eigenvalues are clipped to zero before coordinates are
    extracted, the standard handling for inputs that are not themselves
    EDMs. No shrinkage is applied.
    """
    _check_rank(r, x.n)
    return _top_r_fit(*eigh_descending(center_gram(x.entries)), r)
