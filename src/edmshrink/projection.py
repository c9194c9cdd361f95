"""Projection onto the cone of Euclidean distance matrices.

The EDM cone is the intersection of two closed convex cones of symmetric
matrices:

  C1 = { M : J M J is negative semidefinite },  J = I - 11^T/n
  C2 = { M : diag(M) = 0 }

Both admit closed-form projections. C2 zeroes the diagonal. For C1,
M -> J M J is an orthogonal projector on symmetric matrices, so only the
part J A J of an input A is constrained, and the projection removes its
positive spectrum (Hayden and Wells, Linear Algebra Appl. 109, 1988):

  Pi_C1(A) = A - Pi_PSD(J A J),   with J A J = -2 center_gram(A).

Dykstra's alternating projection algorithm combines the two into the
exact projection onto the intersection (plain alternation would only find
some point in it). It carries a correction increment for C1 only. C2 is a
linear subspace, and the increment Dykstra would keep for it, the part of
the iterate that the C2 projection removes, is a diagonal matrix, which
lies in the orthogonal complement of C2. Adding it back before the next C2
projection changes only the diagonal that projection zeroes, so it never
alters an iterate (Boyle and Dykstra, 1986; Gaffke and Mathar, 1989).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EdmMatrix,
    SymHollowMatrix,
    _as_square,
    center_gram,
    certify_edm,
    symmetrize,
)


class NotConvergedError(RuntimeError):
    """Dykstra iteration hit the cycle limit before meeting tolerances.

    Carries the final :class:`ProjectionDiagnostics` in ``diagnostics``.
    """

    def __init__(self, message: str, diagnostics: "ProjectionDiagnostics"):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class DykstraConfig:
    """Stopping rules for the alternating projection iteration.

    tol is relative: the cycle-to-cycle iterate change must fall below
    tol * max(1, ||input||_F). feas_tol bounds both feasibility residuals
    (absolute) and is also the clipping threshold applied to stray
    negative off-diagonal entries of the final iterate.
    """

    tol: float = 1e-9
    max_cycles: int = 5000
    feas_tol: float = 1e-7

    def __post_init__(self):
        if self.tol <= 0 or self.feas_tol <= 0 or self.max_cycles <= 0:
            raise ValueError("all DykstraConfig fields must be positive")


@dataclass(frozen=True)
class ProjectionDiagnostics:
    """Convergence record of one Dykstra run.

    c1_residual is the largest eigenvalue of J X J on the centered plane
    (the orthogonal complement of the ones vector), clipped at zero, for
    the final iterate X; c2_residual is the largest diagonal magnitude of
    the final C1-feasible iterate before the closing hollowing step.
    """

    cycles: int
    delta_last: float
    c1_residual: float
    c2_residual: float
    converged: bool

    def __post_init__(self):
        if self.c1_residual < 0 or self.c2_residual < 0:
            raise ValueError("residuals must be nonnegative")


def project_c1(a) -> np.ndarray:
    """Projection onto C1 = { M : J M J negative semidefinite }.

    Subtracts the positive part of J a J from the input and symmetrizes:
    the eigenpairs of J a J = -2 center_gram(a) with positive eigenvalues
    are exactly what violates the constraint. ``center_gram`` validates
    ``a`` and symmetrizes its own result, so an asymmetric input projects
    as its symmetric part does.
    """
    vals, vecs = np.linalg.eigh(-2.0 * center_gram(a))
    return symmetrize(a - (vecs * np.maximum(vals, 0.0)) @ vecs.T)


def project_c2(a) -> np.ndarray:
    """Projection onto hollow matrices: zero the diagonal."""
    out = _as_square(a).copy()
    np.fill_diagonal(out, 0.0)
    return out


def _c1_residual(x: np.ndarray) -> float:
    """Largest eigenvalue of J x J = -2 center_gram(x), clipped at 0."""
    return max(-2.0 * float(np.linalg.eigvalsh(center_gram(x))[0]), 0.0)


def project_edm_cone(
    a, cfg: DykstraConfig | None = None
) -> tuple[EdmMatrix, ProjectionDiagnostics]:
    """Frobenius-nearest Euclidean distance matrix to a symmetric input.

    Runs Dykstra's alternating projections between C1 and C2, keeping the
    correction increment of C1 that makes the limit the true projection
    onto the intersection. C2, the hollow matrices, is a linear subspace
    and needs no increment (see the module docstring). A cycle is

        s = Pi_C1(x + p),   p = x + p - s,   x = Pi_C2(s);

    iteration stops once the cycle-to-cycle change is below
    tol * max(1, ||a||_F) and both feasibility residuals are below
    feas_tol, or raises :class:`NotConvergedError` at max_cycles.

    The returned matrix is exactly hollow; off-diagonal entries in
    [-feas_tol, 0) are clipped to zero, and an iterate that is zero to
    within feas_tol is snapped to the zero matrix before certification.

    Parameters
    ----------
    a : array or SymHollowMatrix
        Symmetric input; hollowness is not required.
    cfg : DykstraConfig, optional
        Stopping rules; defaults are suitable for O(1)-scale inputs.

    Returns
    -------
    (EdmMatrix, ProjectionDiagnostics)
    """
    if isinstance(a, SymHollowMatrix):
        a = a.entries
    a = _as_square(a)
    if np.abs(a - a.T).max() > 0.0:
        a = symmetrize(a)
    if cfg is None:
        cfg = DykstraConfig()
    scale = max(1.0, float(np.linalg.norm(a)))

    x = a.copy()
    p = np.zeros_like(a)
    delta = np.inf
    converged = False
    cycles = 0

    for cycles in range(1, cfg.max_cycles + 1):
        s = project_c1(x + p)
        p = x + p - s
        x_new = project_c2(s)
        delta = float(np.linalg.norm(x_new - x))
        x = x_new
        if delta <= cfg.tol * scale:
            # the C2 residual is free; the C1 residual costs a spectrum
            c2_res = float(np.abs(s.diagonal()).max())
            if c2_res <= cfg.feas_tol:
                c1_res = _c1_residual(x)
                if c1_res <= cfg.feas_tol:
                    converged = True
                    break

    if not converged:
        c2_res = float(np.abs(s.diagonal()).max())
        c1_res = _c1_residual(x)
    diag = ProjectionDiagnostics(
        cycles=cycles,
        delta_last=delta,
        c1_residual=c1_res,
        c2_residual=c2_res,
        converged=converged,
    )
    if not converged:
        raise NotConvergedError(
            f"no convergence in {cfg.max_cycles} cycles "
            f"(delta {delta:.3e}, residuals {c1_res:.3e}/{c2_res:.3e})",
            diag)

    out = x.copy()
    np.copyto(out, 0.0, where=(out < 0) & (out >= -cfg.feas_tol))
    if np.abs(out).max() <= cfg.feas_tol:
        out = np.zeros_like(out)
    if out.min() < 0:
        raise NotConvergedError(
            f"converged iterate has off-diagonal {out.min():.3e} "
            f"below -feas_tol", diag)

    hollow = SymHollowMatrix(out)
    try:
        return certify_edm(hollow, 1e-8), diag
    except ValueError:
        pass
    # When the iterate sits near the cone boundary (e.g. a projection that
    # is almost the zero matrix), eigenvalue noise that is tiny in absolute
    # terms can be large relative to the spectrum. Feasibility was enforced
    # absolutely, so accept an absolute defect consistent with the achieved
    # residuals and record the correspondingly wider relative certificate.
    vals = np.linalg.eigvalsh(center_gram(out))
    neg = max(0.0, float(-vals[0]))
    if neg > 2.0 * max(c1_res, cfg.feas_tol) or vals[-1] <= 0.0:
        raise NotConvergedError(
            f"iterate is too far from the cone to certify (absolute "
            f"eigenvalue defect {neg:.3e})", diag)
    gamma_scale = float(np.abs(vals).max())
    cert = max(1e-8, 2.0 * neg / gamma_scale)
    if cert >= 0.5:
        raise NotConvergedError(
            "iterate spectrum is dominated by numerical noise", diag)
    return certify_edm(hollow, cert), diag


# ---------------------------------------------------------------------------
# exact three-point analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dim3Analysis:
    """Closed-form projection analysis for three objects.

    For a hollow symmetric 3x3 input with off-diagonal values
    (x12, x13, x23), write s for their sum and

        delta_x = sqrt(2 [ (x12-x13)^2 + (x12-x23)^2 + (x13-x23)^2 ]).

    alpha1 = (s + delta_x)/3 and alpha2 = (s - delta_x)/3 are the
    eigenvalues of -J X J on the centered plane (its third eigenvalue, on
    the ones vector, is 0), and the embedding dimension of the projection
    is 2, 1 or 0 according to whether s exceeds delta_x, lies in
    (-delta_x/2, delta_x], or is smaller.

    Shrinking all off-diagonals by a constant eta lowers s by 3 eta while
    leaving delta_x unchanged, so the projection's dimension drops at two
    thresholds: eta_to_dim1 = (s - delta_x)/3 and
    eta_to_dim0 = (2 s + delta_x)/6.
    """

    delta_x: float
    alpha1: float
    alpha2: float
    dim: int
    eta_to_dim1: float
    eta_to_dim0: float

    def __post_init__(self):
        if self.alpha1 < self.alpha2:
            raise ValueError("alpha1 must be >= alpha2")
        if self.eta_to_dim1 > self.eta_to_dim0:
            raise ValueError("eta_to_dim1 must be <= eta_to_dim0")


def _classify_dim3(s: float, delta: float) -> int:
    # knife-edge s == delta (within 1e-9 relative) resolves to the lower dim
    edge = 1e-9 * abs(s)
    if s > delta + edge:
        return 2
    if s > -delta / 2.0 + edge:
        return 1
    return 0


def analyze_dim3(x: SymHollowMatrix) -> Dim3Analysis:
    """Exact projection dimension and shrinkage thresholds for n = 3."""
    if x.n != 3:
        raise ValueError(f"analysis requires n = 3, got n = {x.n}")
    x12, x13, x23 = (float(x.entries[0, 1]), float(x.entries[0, 2]),
                     float(x.entries[1, 2]))
    s = x12 + x13 + x23
    delta = float(np.sqrt(
        2.0 * ((x12 - x13) ** 2 + (x12 - x23) ** 2 + (x13 - x23) ** 2)))
    return Dim3Analysis(
        delta_x=delta,
        alpha1=(s + delta) / 3.0,
        alpha2=(s - delta) / 3.0,
        dim=_classify_dim3(s, delta),
        eta_to_dim1=(s - delta) / 3.0,
        eta_to_dim0=(2.0 * s + delta) / 6.0,
    )
