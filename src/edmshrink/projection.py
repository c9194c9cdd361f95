"""Projection onto the cone of Euclidean distance matrices.

The EDM cone is the intersection of two closed convex cones of symmetric
matrices:

  C1 = { M : J M J is negative semidefinite },  J = I - 11^T/n
  C2 = { M : diag(M) = 0 }

C1 has a closed-form projection. M -> J M J is an orthogonal projector on
symmetric matrices, so only the part J A J of an input A is constrained,
and the projection removes its positive spectrum (Hayden and Wells,
Linear Algebra Appl. 109, 1988):

  Pi_C1(A) = A - Pi_PSD(J A J).

C2 is the linear subspace of hollow matrices, so the nearest EDM to A,

  minimize (1/2) ||M - A||_F^2  over M in C1 with diag(M) = 0,

has one multiplier per diagonal entry. Its dual is the smooth convex
problem in n variables (Malick, SIAM J. Matrix Anal. Appl. 26, 2004)

  minimize theta(y) = (1/2) ||Pi_C1(A + Diag y)||_F^2,
  grad theta(y) = diag Pi_C1(A + Diag y),

and M* = Pi_C1(A + Diag y*) at its minimizer. The gradient is strongly
semismooth, and a generalized Hessian of theta is read off the
eigenpairs of J (A + Diag y) J, so a semismooth Newton method converges
quadratically (Qi, SIAM J. Matrix Anal. Appl. 34, 2013). The Newton
systems are solved by conjugate gradients on Hessian-vector products of
O(n^2 k) work, where k is the smaller of the counts of positive and
non-positive eigenvalues of J (A + Diag y) J.

Every eigendecomposition leaves out the ones vector, whose eigenvalue in
J B J is 0. The reflector H = I - v v^T / (n + sqrt(n)), v = 1 +
sqrt(n) e_n, sends 1 to -sqrt(n) e_n (Hayden and Wells), so J B J =
H [C 0; 0 0] H for the leading (n - 1) x (n - 1) block C of H B H, and
each eigenpair (l, q) of C gives the eigenpair (l, H [q; 0]) of J B J.
The n - 1 eigenvalues l ascend; the eigenvectors V are orthonormal and
orthogonal to 1.

Every dual point is read off the non-positive eigenpairs, with no M. At
B = A + Diag y, J B J has the non-positive part N = V_N diag(l_N) V_N^T,
and M = Pi_C1(B) = (B - J B J) + N. B - J B J has the entries
r_i + r_j - mean(r) for the row means r of B and is orthogonal to N, so
with c = r - mean(r) / 2,

  theta(y) = (1/2) (||B - J B J||_F^2 + sum l_N^2)
           = n ||c||^2 + (sum c)^2 + (1/2) sum l_N^2,
  grad theta(y) = diag M = 2 c + (V_N o V_N) l_N.

Each term of theta is the square of a part of M, so theta rounds by
about n eps ||B||_F ||M||_F, however much of B the projection removes,
where (1/2) (||B||_F^2 - sum of the positive l^2) would round by
eps ||B||_F^2. An evaluation of theta costs one eigendecomposition of C
and no more.

Moves along the ones vector come free: J V = V, so J (B + t I) J =
J B J + t J has the eigenpairs (l + t, V) for every t, and theta(y + t 1)
is a strictly convex, piecewise quadratic function of t alone. Each
point that the solver arrives at, short of its stopping rule, moves to
the minimizer along that line before its Newton step, in O(n^2) work. At
y = 0 that is the best constant dual point, where a cold fit starts. A
line point's eigenvalues are shifted, not computed, so the solver stops
only at a point it evaluated or at its start: a line point that meets
the rule is evaluated once, and that evaluation does not move again.

The solver closes on an exact EDM, that of its certifying factor. At
the point y it stops at, g = diag M, so X = M - (g 1^T + 1 g^T) / 2 is
hollow with J X J = N: the EDM of the factor f = V_N sqrt(-l_N / 2),
built from f with no M. The objective is 1-strongly convex, so the
nearest EDM X* has (1/2) ||X - X*||_F^2 <= (1/2) ||X - A||_F^2 -
((1/2) ||A||_F^2 - theta(y)), the duality gap of X at y, and f certifies
X by a Weyl bound, with no further eigendecomposition (see ``core``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    EdmMatrix,
    SymHollowMatrix,
    _as_square,
    _built,
    _distances_from_coords,
    certify_edm,
    check_int,
    check_tol,
    symmetrize,
)

# Newton-CG constants. The system (H + eps I) d = -g is solved to the
# relative residual min(CG_RTOL, |g| / ||A||_F) with eps = min(REG_MAX,
# |g| / ||A||_F), both shrinking with the gradient for quadratic convergence.
CG_RTOL = 1e-2
CG_MAX_ITER = 200
REG_MAX = 1e-2
# Backtracking line search: a step t d is accepted on the Armijo decrease
# theta(y + t d) <= theta(y) + ARMIJO t g.d, or when it halves |g|, since
# near the optimum the decrease of theta falls below its rounding error.
ARMIJO = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 30


class NotConvergedError(RuntimeError):
    """The projection stopped without a certified result: it hit its
    evaluation limit or accepted no step before |g| <= tol * ||A||_F.

    Carries the final :class:`ProjectionDiagnostics` in ``diagnostics``.
    """

    def __init__(self, message: str, diagnostics: "ProjectionDiagnostics"):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rules of the EDM projection (its dual Newton solver).

    tol is relative: the dual gradient diag Pi_C1(A + Diag y), which is
    the diagonal the hollow constraint removes, must fall below
    tol * ||A||_F in Euclidean norm. The rule is free of units, so
    scaling the input by c > 0 scales the result by c. max_cycles caps
    the evaluations of the dual function, one eigendecomposition each.
    """

    tol: float = 1e-9
    max_cycles: int = 5000

    def __post_init__(self):
        check_tol("tol", self.tol)
        check_int("max_cycles", self.max_cycles)
        if not self.max_cycles > 0:
            raise ValueError(
                f"max_cycles must be positive, got {self.max_cycles!r}")


@dataclass(frozen=True)
class ProjectionDiagnostics:
    """Convergence record of one EDM projection.

    cycles counts the evaluations of the dual function that this
    projection made, one eigendecomposition each, and delta_last is the
    Euclidean norm of its last Newton step (0 if it took none). A move
    along the ones vector costs nothing (see the module docstring), and
    neither does a start whose eigenpairs the caller holds: the point a
    ``simulate`` replicate reads off the spectrum it shares with
    classical MDS, or the previous fit's last point along a penalty path
    (``shrinkage_path``). gap is the duality gap (1/2) ||X - A||_F^2 -
    ((1/2) ||A||_F^2 - theta(y)) at the last dual point y of the matrix X
    that is returned, with theta(y) = (1/2) ||M||_F^2 = n ||c||^2 +
    (sum c)^2 + (1/2) sum l_N^2, the formula of every dual point (see the
    module docstring); it bounds (1/2) ||X - X*||_F^2 for the nearest
    EDM X*. X is the EDM of its certifying factor
    V_N sqrt(-l_N / 2), or, once converged, the zero matrix, whose gap is
    theta(y), when that is no larger or no eigenvalue lies below
    rounding. It is >= 0 up to rounding. c2_residual is the largest
    magnitude max|g| of the diagonal that the closing step removes.
    """

    cycles: int
    delta_last: float
    gap: float
    c2_residual: float
    converged: bool


def project_c1(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projection onto C1 = { M : J M J negative semidefinite }.

    The positive part P of J a J is exactly what violates the
    constraint, so the projection is M = a - P; ``eigh`` reads one
    triangle of J a J. An asymmetric input projects as its symmetric part
    does. The result is symmetric up to rounding. A fit forms no M: its
    theta = (1/2) ||M||_F^2 = (1/2) (||a - J a J||_F^2 + sum l_N^2), and
    M - (g 1^T + 1 g^T) / 2 is the EDM of its certifying factor.

    Returns the projection together with the n - 1 ascending eigenpairs
    of J a J off the ones vector (:func:`_centered_eigh`).
    """
    a = _as_square(a)
    if not np.array_equal(a, a.T):
        a = symmetrize(a)
    vals, vecs = _centered_eigh(a)
    pos = vals > 0.0
    w = vecs[:, pos]
    return a - (w * vals[pos]) @ w.T, vals, vecs


def _centered_eigh(a: np.ndarray, y: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The n - 1 ascending eigenpairs of J B J, B = a + Diag y, that leave
    out the ones vector: one ``eigh`` of the leading block C of H B H (see
    the module docstring), and O(n^2) work besides.

    H B H = B - v w^T - w v^T with u = B v, c = 1 / (n + sqrt(n)) and
    w = c u - (c^2 / 2) (v . u) v, and v is 1 on C. An eigenvector q of C
    lifts to H [q; 0] = [q - c s 1; -s / sqrt(n)] with s = 1 . q.
    """
    n = a.shape[0]
    y = np.zeros(n) if y is None else y
    root = np.sqrt(n)
    c = 1.0 / (n + root)
    u = a.sum(axis=1) + root * a[:, -1] + y
    u[-1] += root * y[-1]
    w = c * u[:-1]
    w -= 0.5 * c * c * (u.sum() + root * u[-1])
    block = a[:-1, :-1] - w
    block -= w[:, None]
    block.flat[::n] += y[:-1]
    vals, q = np.linalg.eigh(block)
    s = q.sum(axis=0)
    vecs = np.empty((n, n - 1))
    np.subtract(q, c * s, out=vecs[:-1])
    vecs[-1] = s / -root
    return vals, vecs


def _newton_system(vals: np.ndarray, vecs: np.ndarray, eps: float):
    """Regularized generalized Hessian H + eps I of theta at y.

    With B = A + Diag y and J B J = V diag(l) V^T over the n - 1
    eigenpairs orthogonal to the ones vector (ascending l), an
    element of the generalized Jacobian of h -> diag Pi_C1(B + Diag h) is

        H h = h - diag L(J Diag(h) J),   L(X) = V (Omega o V^T X V) V^T,

    the derivative of Pi_PSD at J B J: Omega_ij is 1 where l_i, l_j > 0,
    0 where both are <= 0, and l_i / (l_i - l_j) where l_i > 0 >= l_j.
    Let S be the smaller side of that sign split. On the positive side,
    diag L(X) = 2 diag(V_S W V^T) with W = Omega_S o (V_S^T X V), the S
    rows of Omega with the S x S block halved. Otherwise L(X) = X - L'(X),
    where L' is the derivative of the projection onto the NSD matrices
    and has the same form on the non-positive side, with Omega_ij =
    l_i / (l_i - l_j) for l_i <= 0 < l_j. Either way a product costs
    O(n^2 |S|). The ones vector, with eigenvalue 0, drops out of every
    term: J Diag(h) J has no component along it.

    Returns the product h -> (H + eps I) h and the diagonal of H + eps I,
    the preconditioner of the conjugate gradients.
    """
    n = vecs.shape[0]
    pos = vals > 0.0
    positive_side = 2 * np.count_nonzero(pos) <= n
    side = pos if positive_side else ~pos
    lam_s = vals[side]
    omega = np.full((lam_s.size, vals.size), 0.5)
    omega[:, ~side] = lam_s[:, None] / (lam_s[:, None] - vals[~side])
    v_s = vecs[:, side]

    # diag(V_S W V^T) is the row sums of (V W^T) o V_S: no n x n temporary
    def side_diag(h):
        w = omega * ((v_s * h[:, None]).T @ vecs)
        return 2.0 * np.einsum("ij,ij->i", vecs @ w.T, v_s)

    v2 = vecs * vecs
    diag = 2.0 * np.einsum("ij,ij->i", v2 @ omega.T, v2[:, side])
    if positive_side:
        return (lambda h: (1.0 + eps) * h - side_diag(h),
                np.maximum(1.0 - diag, 0.0) + eps)
    # diag(J Diag(h) J) = (1 - 2/n) h + sum(h) / n^2
    return (lambda h: (2.0 / n + eps) * h - h.sum() / n**2 + side_diag(h),
            np.maximum((2.0 - 1.0 / n) / n + diag, 0.0) + eps)


def _cg(apply, precond: np.ndarray, b: np.ndarray, rtol: float) -> np.ndarray:
    """Conjugate gradients for apply(x) = b from x = 0, with the diagonal
    preconditioner ``precond``, to the relative residual ``rtol``."""
    x = np.zeros_like(b)
    r = b.copy()
    z = r / precond
    p = z.copy()
    rz = float(r @ z)
    stop = rtol * float(np.linalg.norm(b))
    for _ in range(CG_MAX_ITER):
        q = apply(p)
        pq = float(p @ q)
        if pq <= 0.0:
            break
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        if np.linalg.norm(r) <= stop:
            break
        z = r / precond
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    return x


class _DualPoint(NamedTuple):
    """The dual at y: theta(y), its gradient g = diag Pi_C1(A + Diag y),
    and the n - 1 ascending eigenpairs (vals, vecs) of J (A + Diag y) J
    orthogonal to the ones vector that they are read off. A line point's
    vals are shifted, not computed, and a point whose Newton step is being
    tried holds neither (None)."""

    y: np.ndarray
    g: np.ndarray
    theta: float
    vals: np.ndarray
    vecs: np.ndarray


def _dual_point(a: np.ndarray, y: np.ndarray, vals: np.ndarray,
                vecs: np.ndarray) -> _DualPoint:
    """theta and its gradient at y, read off the non-positive part
    (l_N, V_N) of the ascending eigenpairs (vals, vecs) of J B J,
    B = A + Diag y, and the row means r of B, in O(n^2) work:
    c = r - mean(r) / 2, theta = n ||c||^2 + (sum c)^2 + (1/2) sum l_N^2
    and g = 2 c + (V_N o V_N) l_N (see the module docstring)."""
    k = int(np.searchsorted(vals, 0.0))
    w, lam = vecs[:, :k], vals[:k]
    c = a.mean(axis=1) + y / y.size
    c -= 0.5 * c.mean()
    # products, not ** 2, so that overflow gives inf and not OverflowError
    theta = (y.size * float(c @ c) + float(np.square(c.sum()))
             + 0.5 * float(lam @ lam))
    return _DualPoint(y, 2.0 * c + np.square(w) @ lam, theta, vals, vecs)


def _evaluate(a: np.ndarray, y: np.ndarray) -> _DualPoint:
    """theta and its gradient at y: one eigh, of the block of
    J (A + Diag y) J orthogonal to the ones vector."""
    return _dual_point(a, y, *_centered_eigh(a, y))


def _line_step(pt: _DualPoint, a: np.ndarray) -> _DualPoint:
    """The minimizer of theta along pt.y + t 1, read off pt's eigenpairs.

    ``pt`` has the n - 1 ascending eigenpairs (l, V) of J B J,
    B = A + Diag y, orthogonal to the ones vector. Each l_i moves to
    l_i + t with the same eigenvector (see the module docstring), so with
    tr B = tr A + sum y, the slope of theta(y + t 1) is
    tr B + n t - sum_i max(l_i + t, 0). It is bounded above by the linear
    tr B + n t - sum_{i <= k} (l_i + t) over the k largest l_i. Each of
    those n bounds has its root at or below t*, and the one whose k
    eigenvalues are positive at t* has its root at t*, so
    t* = max_k (S_k - tr B) / (n - k), with S_k the sum of the k largest
    l_i, for k = 0, ..., n - 1.

    Returns the line point at y + t* 1, eigenvalues l + t*, read off by
    the formula of every dual point, in O(n^2).
    """
    n = pt.y.size
    trace_b = float(np.trace(a)) + float(pt.y.sum())
    sums = np.concatenate(([0.0], np.cumsum(pt.vals[::-1])))
    t = float(np.max((sums - trace_b) / (n - np.arange(n))))
    return _dual_point(a, pt.y + t, pt.vals + t, pt.vecs)


def project_edm_cone(
    a, cfg: SolverConfig | None = None
) -> tuple[EdmMatrix, ProjectionDiagnostics]:
    """Frobenius-nearest Euclidean distance matrix to a symmetric input.

    ``a`` is an array or SymHollowMatrix, not necessarily hollow, and
    ``cfg`` holds the stopping rules. Returns the certified EDM, which
    keeps its certifying factor, and the projection's diagnostics.

    Minimizes the dual theta(y) = (1/2) ||Pi_C1(A + Diag y)||_F^2 by
    semismooth Newton-CG (see the module docstring), from y = 0. Before
    each Newton step it moves, with no eigendecomposition, to the
    minimizer of theta along the ones vector. The step solves
    (H + eps I) d = -g by conjugate gradients, with g = grad theta and H
    a generalized Hessian, then backtracks along d. Iteration stops at
    an evaluated point with |g| <= tol * ||a||_F, or raises
    :class:`NotConvergedError` at max_cycles evaluations of theta or when
    no step along d is accepted. Every test is relative to ||a||_F, so
    projecting c * a gives c times the projection of a for any c > 0.

    The result is the EDM X of the module docstring, built from its
    certifying factor f with any distance that rounding leaves negative
    clipped to zero, or the zero matrix where that is certified as well
    (see :class:`ProjectionDiagnostics`). f certifies X by a Weyl bound at
    cert_tol = max(1e-8, 2 e / mu), for the top eigenvalue mu of f f^T and
    a bound e on the rounding of X's kernel and of the certificate, and
    ``eigvalsh`` runs only where that bound cannot decide the PSD test or
    the embedding dimension. The EDM keeps f, with no column when it is
    the zero matrix, as ``EdmMatrix.factor``.
    """
    return _project_from(a, cfg)[:2]


def _project_from(
    a, cfg: SolverConfig | None = None,
    start: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None,
) -> tuple[EdmMatrix, ProjectionDiagnostics, _DualPoint]:
    """:func:`project_edm_cone` started at the dual point y of this input
    instead of at y = 0, returning the dual point it closed on too.

    ``start`` is a one-element list of (y, vals, vecs), with the n - 1
    ascending eigenpairs of J (A + Diag y) J off the ones vector that the
    caller already holds, so it costs no evaluation, and a fit whose start
    meets the stopping rule makes no eigendecomposition. The fit pops the
    start, so a caller that keeps no other reference hands its eigenbasis
    over. A line point that meets the rule is evaluated once before it is
    accepted. A fit closes on the last point it evaluated, or on its start
    if it evaluated none, so that X and the certificate read a computed
    spectrum: the factor V sqrt(-l / 2) of its eigenpairs over its
    negative eigenvalues l, or no column when the zero matrix is returned,
    which the EDM keeps without a copy.

    One eigenbasis is alive at a time. A point keeps its eigenpairs only
    until its Newton direction is solved, and the start's go with it, and
    a failed trial is let go of before the next is evaluated, so each
    ``eigh`` runs beside ``a``, the block it reads and what the caller
    holds. ``a`` is let go of before the certificate, whose kernel, built
    by ``center_gram``, then sets the fit's peak beside the closing EDM and
    the closing eigenbasis, which is returned.
    """
    a = _as_square(a.entries if isinstance(a, SymHollowMatrix) else a)
    if a.shape[0] < 2:
        raise ValueError("need at least 2 objects")
    if not np.array_equal(a, a.T):
        a = symmetrize(a)
    if cfg is None:
        cfg = SolverConfig()
    scale = float(np.linalg.norm(a))
    floor = cfg.tol * scale

    def arrive(pt: _DualPoint) -> _DualPoint:
        # a start or an accepted step, short of the rule, moves once along
        # the ones vector; a line point that meets the rule is evaluated
        # in the loop, and that evaluation does not move, so a rounding
        # disagreement at the rule cannot make the two alternate
        return (pt if np.linalg.norm(pt.g) <= floor
                else _line_step(pt, a))

    if start is None:
        last, cycles = _evaluate(a, np.zeros(a.shape[0])), 1
    else:
        last, cycles = _dual_point(a, *start.pop()), 0
    # last is the point last evaluated, or the start: the fit closes on it
    pt = arrive(last)
    delta = 0.0
    converged = stalled = False

    while True:
        gnorm = float(np.linalg.norm(pt.g))
        if gnorm <= floor and pt is last:
            converged = True
            break
        if cycles >= cfg.max_cycles:
            break
        if gnorm <= floor:
            # a line point meets the rule: stop only once evaluated
            y, pt, last = pt.y, None, None
            pt = last = _evaluate(a, y)
            cycles += 1
            continue
        rel = gnorm / scale
        d = _cg(*_newton_system(pt.vals, pt.vecs, min(REG_MAX, rel)), -pt.g,
                min(CG_RTOL, rel))
        # the step needs only y, g and theta: let go of the eigenbasis that
        # pt shares with last, so that each evaluation runs beside no other
        pt, last = pt._replace(vals=None, vecs=None), None
        slope = float(pt.g @ d)
        if not slope < 0.0:
            d, slope = -pt.g, -gnorm * gnorm
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            # trial holds an eigenbasis too: pt's, or a failed step's
            trial = last = None
            trial = last = _evaluate(a, pt.y + t * d)
            cycles += 1
            if (trial.theta <= pt.theta + ARMIJO * t * slope
                    or np.linalg.norm(trial.g) <= 0.5 * gnorm):
                pt = arrive(trial)
                delta = t * float(np.linalg.norm(d))
                break
            if cycles >= cfg.max_cycles:
                break
            t *= BACKTRACK
        else:
            stalled = True
            break

    pt, theta = last, last.theta
    neg = pt.vals < 0.0
    factor = pt.vecs[:, neg] * np.sqrt(-0.5 * pt.vals[neg])
    out = _distances_from_coords(factor)
    # (1/2) ||X - A||^2 - ((1/2) ||A||^2 - theta), with no n x n temporary
    gap = 0.5 * float(np.vdot(out, out)) - float(np.vdot(out, a)) + theta
    # the rest reads no input: let go of it before the certificate's n x n
    # kernel and residual
    n, a = a.shape[0], None
    # the eigenvalues of J B J, read off B = A + Diag y, round by about
    # n eps (||B||_F + ||P||_F) <= n eps (||M||_F + 2 ||P||_F)
    eps = np.finfo(float).eps
    psd = float(np.linalg.norm(np.maximum(pt.vals, 0.0)))
    if converged and (theta <= gap or -pt.vals[0] <= n * eps * (
            np.sqrt(2.0 * theta) + 2.0 * psd)):
        # the zero matrix has gap theta at y: no larger than X's, or X is
        # zero but for that rounding
        out, gap, factor = np.zeros_like(out), theta, np.empty((n, 0))
    diag = ProjectionDiagnostics(cycles, delta, gap,
                                 float(np.abs(pt.g).max()), converged)
    if not converged:
        reason = ("no accepted step" if stalled
                  else f"no convergence in {cfg.max_cycles} cycles")
        raise NotConvergedError(
            f"{reason} (gradient {float(np.linalg.norm(pt.g)):.3e}, "
            f"bound tol * ||A||_F = {floor:.3e})", diag)

    cert_tol = 1e-8
    if factor.size:
        # e bounds the certificate's rounding, 2 (n + s) eps ||f||_F^2, and
        # X's off the EDM of f: s eps ||f||_F^2 from f f^T, n-fold on its
        # diagonal, and a few eps ||X||_F <= 4 sqrt(n) eps ||f||_F^2
        s = factor.shape[1]
        e = 2.0 * (n + s + np.sqrt(n) * (s + 8)) * eps * float(
            np.vdot(factor, factor))
        cert_tol = max(cert_tol, 2.0 * e / (-0.5 * float(pt.vals[0])))
    return certify_edm(_built(out), cert_tol, _built(factor)), diag, pt


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


def _classify_dim3(s: float, delta: float) -> int:
    # knife-edge s == delta (within 1e-9 relative) resolves to the lower dim
    edge = 1e-9 * abs(s)
    if s > delta + edge:
        return 2
    if s > -delta / 2.0 + edge:
        return 1
    return 0


def analyze_dim3(x: SymHollowMatrix) -> Dim3Analysis:
    """Exact projection dimension and shrinkage thresholds for n = 3.

    delta_x squares the differences of the entries, and those squares
    overflow or underflow wherever the differences are far from 1, even
    when the entries themselves are not: nearly equal entries near 2**-490
    differ by about 2**-542, whose square flushes to zero. So the entries
    are analysed at 2**(2j) times their scale, with the largest |x_ij| in
    [1/2, 2), and every result is scaled back by two factors of 2**-j.
    Both steps are exact for normal values. Squares are products, which
    are correctly rounded, not ``** 2``, whose libm pow misrounds about
    one square in 1,300, and sqrt commutes with an even power of two; an
    entry that could round or flush at the new scale is below half an
    ulp of the largest, where it changes no result. Every field of
    2**(2k) x is therefore 2**(2k) times that of x while both stay normal.
    """
    if x.n != 3:
        raise ValueError(f"analysis requires n = 3, got n = {x.n}")
    x12, x13, x23 = (float(x.entries[0, 1]), float(x.entries[0, 2]),
                     float(x.entries[1, 2]))
    # frexp(0.0) is (0.0, 0), so an all-zero input keeps j = 0
    j = -(math.frexp(max(abs(x12), abs(x13), abs(x23)))[1] // 2)
    x12, x13, x23 = (math.ldexp(v, 2 * j) for v in (x12, x13, x23))
    # two factors of 2**-j, each a double, where 2**(-2j) may not be one
    back = 2.0**-j
    s = x12 + x13 + x23
    d12, d13, d23 = x12 - x13, x12 - x23, x13 - x23
    delta = float(np.sqrt(2.0 * (d12 * d12 + d13 * d13 + d23 * d23)))
    return Dim3Analysis(
        delta_x=delta * back * back,
        alpha1=(s + delta) / 3.0 * back * back,
        alpha2=(s - delta) / 3.0 * back * back,
        dim=_classify_dim3(s, delta),
        eta_to_dim1=(s - delta) / 3.0 * back * back,
        eta_to_dim0=(2.0 * s + delta) / 6.0 * back * back,
    )
