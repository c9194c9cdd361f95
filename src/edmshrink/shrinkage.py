"""The distance-shrinkage estimator and the classical-scaling baseline.

Given noisy squared-distance observations X, the shrinkage estimator
subtracts a constant eta = lambda / (2n) from every off-diagonal entry and
projects the result onto the EDM cone. The outcome solves

    minimize over EDMs M:   (1/2) ||X - M||_F^2 + lambda * trace(-J M J / 2)

so the trace penalty on the implied kernel is equivalent to uniform
distance shrinkage: pulling points toward lower-dimensional configurations.
"""

from __future__ import annotations

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
    min_trace_kernel,
)
from .projection import DykstraConfig, ProjectionDiagnostics, project_edm_cone


@dataclass(frozen=True)
class ShrinkageFit:
    """Result of one shrink-and-project fit.

    d_hat is the estimated EDM, k_hat its minimum-trace kernel, and
    eta = lam / (2n) the per-entry shrinkage that was applied before
    projection.
    """

    d_hat: EdmMatrix
    k_hat: MinTraceKernel
    lam: float
    eta: float
    diagnostics: ProjectionDiagnostics

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.eta != self.lam / (2 * self.d_hat.n):
            raise ValueError("eta must equal lam / (2n) exactly")


@dataclass(frozen=True)
class RankTruncatedFit:
    """An EDM constrained to embedding dimension at most r, with coordinates."""

    r: int
    d_hat_r: EdmMatrix
    embedding: Embedding

    def __post_init__(self):
        if self.d_hat_r.embed_dim > self.r:
            raise ValueError("truncated EDM exceeds the requested rank")
        if self.embedding.k != self.r:
            raise ValueError("embedding must have exactly r columns")


def distance_shrinkage(
    x: SymHollowMatrix, lam: float, cfg: DykstraConfig | None = None
) -> ShrinkageFit:
    """Shrink all observed squared distances by lam/(2n), then project.

    Every off-diagonal entry of ``x`` is reduced by eta = lam / (2n)
    (entries may go negative; the projection handles them) and the result
    is projected onto the EDM cone. The fit minimizes
    (1/2)||X - M||_F^2 + lam * trace(-J M J / 2) over EDMs M.

    Raises NotConvergedError if the projection does not converge.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    n = x.n
    eta = lam / (2 * n)
    shrunk = x.entries - eta * (1.0 - np.eye(n))
    d_hat, diag = project_edm_cone(shrunk, cfg)
    return ShrinkageFit(
        d_hat=d_hat,
        k_hat=min_trace_kernel(d_hat),
        lam=lam,
        eta=eta,
        diagnostics=diag,
    )


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
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    return 4.0 * sigma * (np.sqrt(n) + 1.0)


def risk_bound(n: int, sigma: float, r: int) -> float:
    """High-probability bound 36 n sigma^2 (r + 1) on ||d_hat - D||_F^2.

    Valid for the recommended penalty when the true EDM has embedding
    dimension r and the noise has mean zero, variance sigma^2 and light
    tails.
    """
    if n < 2 or r < 1:
        raise ValueError("need n >= 2 and r >= 1")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    return 36.0 * n * sigma**2 * (r + 1)


def _rank_r_fit(kernel: np.ndarray, r: int) -> RankTruncatedFit:
    """Top-r eigen-truncation of a (near) centered kernel, as EDM + coords.

    Coordinates are centered exactly and the distance matrix is built and
    certified from them, so the coordinates and the distance matrix stay
    consistent to machine precision even when the input kernel is
    degenerate.
    """
    vals, vecs = eigh_descending(kernel)
    kept = np.clip(vals[:r], 0.0, None)
    coords = Embedding.from_points(vecs[:, :r] * np.sqrt(kept))
    return RankTruncatedFit(r=r, d_hat_r=edm_from_coords(coords), embedding=coords)


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


def spectral_norm(a) -> float:
    """Spectral norm of a symmetric matrix: its largest |eigenvalue|."""
    return float(np.abs(np.linalg.eigvalsh(np.asarray(a, dtype=float))).max())
