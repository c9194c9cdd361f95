"""The distance-shrinkage estimator and the classical-scaling baseline.

Given noisy squared-distance observations X, the shrinkage estimator
subtracts a constant eta = lambda / (2n) from every off-diagonal entry and
projects the result onto the EDM cone. The outcome solves

    minimize over EDMs M:   (1/2) ||X - M||_F^2 + lambda * trace(-J M J / 2)

so the trace penalty on the implied kernel is equivalent to uniform
distance shrinkage: pulling points toward lower-dimensional configurations.

A penalty is one scalar of the projection's dual, not a shrunk copy of
X: every fit projects X itself, with eta passed as a number. At the dual
point y of the shrunk input A = X - eta (11^T - I),

    A + Diag y = X + Diag z - eta 11^T,    z = y + eta 1,

and J 1 = 0, so the eigenpairs of J (A + Diag y) J are those of
J (X + Diag z) J, whatever eta is (see the ``projection`` module
docstring). ``shrinkage_path`` uses this to fit a grid of penalties in
ascending order, each started from the last dual point z of the one
before, as it is. Each fit still stops and is certified on its own
tolerance, so a path fit agrees with ``distance_shrinkage`` of the same
penalty to within that tolerance, not bit for bit; the first fit of a
path is the same computation as ``distance_shrinkage``.

The same fact makes a spectrum of J X J serve every penalty: it is the
dual point z = 0, with no eigendecomposition. Every fit runs in one loop
over the penalties, which takes such a start as an option; ``simulate``
passes the spectrum of J X J that classical MDS reads anyway, so one
eigendecomposition per replicate serves both methods. The loop keeps a
start's eigenbasis only until it hands it to the projection, which lets
go of it, and of each point's, once the Newton step from there is
solved, so one eigenbasis, beside X and the block that ``eigh`` reads,
is alive at each eigendecomposition. A fit's EDM keeps the factor of its
kernel that certified it, principal axes read off the eigenpairs its
projection closed on, and ``truncate_rank`` takes the coordinates from
its leading columns.
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
    _lead_positive,
    check_nonnegative,
    edm_from_coords,
)
from .projection import (
    ProjectionDiagnostics,
    SolverConfig,
    _centered_eigh,
    _project_from,
)


@dataclass(frozen=True)
class ShrinkageFit:
    """Result of one shrink-and-project fit.

    Stores what the fit computed: d_hat, the estimated EDM, the penalty
    lam and the projection's diagnostics. d_hat keeps, as
    ``EdmMatrix.factor``, the n x s factor V sqrt(mu) of its kernel by
    its descending eigenpairs, read off the projection's last
    eigendecomposition (see the ``projection`` module docstring), with no
    column when d_hat is zero. A Weyl bound against it certified d_hat,
    so the fit made no ``eigvalsh``. k_hat, the minimum-trace kernel of
    d_hat, and eta = lam / (2n), the per-entry shrinkage applied before
    projection, are read from those.
    """

    d_hat: EdmMatrix
    lam: float
    diagnostics: ProjectionDiagnostics

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
    writes nothing else) never pays for the n x n matrix. Its certificate
    reads the coordinates, not an n x n spectrum: they are principal
    axes, so the diagonal of their r x r Gram matrix bounds it with no
    eigensolver (see ``core``). The certificate's factor is those r
    columns, so its embedding dimension is at most r.
    """

    embedding: Embedding

    @property
    def d_hat_r(self) -> EdmMatrix:
        return edm_from_coords(self.embedding)


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
    start: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None,
) -> Iterator[ShrinkageFit]:
    """The fits of the checked, ascending penalties ``lams``.

    Each fit projects X itself, its penalty eta = lam / (2n) one scalar of
    the projection's dual, whose variable z keeps the eigenpairs of
    J (X + Diag z) J at every penalty (see the module docstring). So each
    fit after the first starts from the last dual point of the one before,
    as it is. The first starts cold, at z = eta 1, or at ``start``, a
    one-element list [(z, vals, vecs)] with the eigenpairs of a point that
    the caller holds: ``simulate`` passes those of J X J, from
    ``_centered_eigh``, as the point z = 0. No start needs an
    eigendecomposition, and the projection moves each along the ones
    vector, to the best constant dual point, before its first Newton step.

    The walk keeps between fits only the last dual point, with its
    eigenbasis, and the fit it yielded until it is resumed. It hands each
    start over to the projection, which pops it and lets go of it at its
    first evaluation (``projection._project_from``): a caller that keeps
    neither the start it passed nor a yielded fit runs each fit beside no
    eigenbasis but its own.
    """
    for lam in lams:
        d_hat, diag, last = _project_from(x, lam / (2 * x.n), cfg, start)
        start = [(last.z, last.vals, last.vecs)]
        yield ShrinkageFit(d_hat, lam, diag)
        # the next fit runs beside no eigenbasis of this one but its start
        del d_hat, last


def objective_value(m: EdmMatrix, x: SymHollowMatrix, lam: float) -> float:
    """Penalized least-squares objective (1/2)||X - M||_F^2 + lam tr(-JMJ/2)."""
    if m.n != x.n:
        raise ValueError(f"size mismatch: {m.n} vs {x.n}")
    fit = 0.5 * float(np.sum((x.entries - m.entries) ** 2))
    return fit + lam * m.kernel.trace()


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
    # a product, not ** 2, so that overflow gives inf and not OverflowError
    return 36.0 * n * (sigma * sigma) * (r + 1)


def _check_rank(r: int, n: int) -> None:
    if not 1 <= r <= n - 1:
        raise ValueError(f"rank r must satisfy 1 <= r <= {n - 1}, got {r}")


def _top_r_fit(f: np.ndarray, r: int) -> RankTruncatedFit:
    """Top-r eigen-truncation of a (near) centered kernel, as coordinates.

    ``f`` is a factor V sqrt(mu) of the kernel by its descending
    eigenpairs; its first r columns, with the sign convention of
    ``core._lead_positive``, are the coordinates, zero past its last, and
    a zero holds 0, not -0. Coordinates are centered exactly, and the fit's
    distance matrix is built from them when read, so the two stay
    consistent to machine precision even when the kernel is degenerate.
    """
    coords = np.zeros((f.shape[0], r))
    f = f[:, :r]
    coords[:, :f.shape[1]] = _lead_positive(f) + 0.0
    return RankTruncatedFit(embedding=Embedding.from_points(coords))


def truncate_rank(fit: ShrinkageFit, r: int) -> RankTruncatedFit:
    """Best rank-r distance approximation of a fit, with coordinates.

    Keeps the top r eigenpairs of the fitted kernel and maps back to
    distances; among all EDMs of embedding dimension at most r this
    minimizes ||J (d_hat - M) J||_F. It reads the first r columns of
    the certifying factor ``fit.d_hat.factor`` up to ``embed_dim``, zero
    past it, and makes no eigendecomposition.
    """
    _check_rank(r, fit.d_hat.n)
    return _top_r_fit(fit.d_hat.factor[:, :fit.d_hat.embed_dim], r)


def classical_mds(x: SymHollowMatrix, r: int) -> RankTruncatedFit:
    """Classical scaling baseline: eigen-truncate -J X J / 2 at rank r.

    Negative eigenvalues are clipped to zero before coordinates are
    extracted, the standard handling for inputs that are not themselves
    EDMs. No shrinkage is applied.
    """
    _check_rank(r, x.n)
    return _mds_fit(*_centered_eigh(x.entries), r)


def _mds_fit(vals: np.ndarray, vecs: np.ndarray, r: int) -> RankTruncatedFit:
    """Classical scaling at rank r from the ascending eigenpairs (vals,
    vecs) of J X J; (-vals / 2, vecs) descend through -J X J / 2."""
    mu = np.clip(-0.5 * vals[:r], 0.0, None)
    return _top_r_fit(vecs[:, :r] * np.sqrt(mu), r)
