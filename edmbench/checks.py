"""Checks of edmshrink outputs against computations made with numpy alone.

Nothing here imports edmshrink. Each check recomputes what the program
should have produced, or a certificate that it did, and returns a list of
problems: an empty list means the output is right.
"""

from __future__ import annotations

import math

import numpy as np

# Relative eigenvalue tolerance of the Schoenberg EDM test.
EDM_TOL = 1e-8
# KKT residuals relative to ||X||_F: a converged fit reaches about 1e-9,
# a fit made at a penalty 2% off about 1e-3.
KKT_TOL = 1e-6
# Relative Frobenius agreement of a matrix with its recomputation.
MATCH_TOL = 1e-8


def helix(n: int, turns: float = 3.0, radius: float = 0.3,
          pitch: float = 0.3) -> np.ndarray:
    """n points on a circular helix; ``pitch`` is the height per turn."""
    t = np.linspace(0.0, 2.0 * np.pi * turns, n)
    return np.column_stack(
        (radius * np.cos(t), radius * np.sin(t), pitch * t / (2.0 * np.pi)))


def squared_distances(p: np.ndarray) -> np.ndarray:
    """Matrix of squared Euclidean distances between the rows of ``p``."""
    g = p @ p.T
    sq = g.diagonal()
    d = sq[:, None] + sq[None, :] - 2.0 * g
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return np.maximum(d, 0.0)


def centered_gram(d: np.ndarray) -> np.ndarray:
    """-J d J / 2 with J = I - 11^T/n, by explicit matrix products."""
    n = d.shape[0]
    j = np.eye(n) - 1.0 / n
    b = -0.5 * (j @ d @ j)
    return (b + b.T) / 2.0


def rank_r_distances(gram: np.ndarray, r: int) -> np.ndarray:
    """Squared distances of the top-r eigen-truncation of a Gram matrix,
    negative eigenvalues clipped to zero."""
    vals, vecs = np.linalg.eigh(gram)
    top = np.argsort(vals)[::-1][:r]
    return squared_distances(vecs[:, top] * np.sqrt(np.clip(vals[top], 0.0, None)))


def rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = float(np.linalg.norm(b))
    return float(np.linalg.norm(a - b)) / (scale if scale > 0.0 else 1.0)


def read_csv_matrix(path) -> np.ndarray:
    """A CSV written by edmshrink: '#' header line, comma-separated floats."""
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def edm_problems(d: np.ndarray, tol: float = EDM_TOL) -> list[str]:
    """Hollow, symmetric, non-negative, and -JdJ/2 PSD within ``tol``."""
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        return [f"not a square matrix: shape {d.shape}"]
    problems = []
    if np.any(d.diagonal() != 0.0):
        problems.append("diagonal is not zero")
    if not np.array_equal(d, d.T):
        problems.append("not symmetric")
    if d.min() < 0.0:
        problems.append(f"negative squared distance {d.min():.3e}")
    vals = np.linalg.eigvalsh(centered_gram(d))
    if vals[0] < -tol * max(vals[-1], 0.0):
        problems.append(f"not an EDM: eigenvalue {vals[0]:.3e} of -JDJ/2 "
                        f"against largest {vals[-1]:.3e}")
    return problems


def kkt_residuals(x: np.ndarray, d_hat: np.ndarray, lam: float) -> tuple[float, float]:
    """Dual infeasibility and complementarity of a fit, relative to ||X||_F.

    D_hat solves min over EDMs M of (1/2)||X - M||^2 + lam tr(-JMJ/2) iff
    G = D_hat - X + eta(11^T - I), off the diagonal and zero on it, with
    eta = lam/(2n), lies in the dual of the EDM cone and <G, D_hat> = 0.
    That dual cone is the set of G whose Laplacian Diag(G1) - G is PSD,
    because <G, D> = 2 <Diag(G1) - G, K> for the EDM D of any kernel K.
    """
    n = x.shape[0]
    g = d_hat - x + lam / (2.0 * n) * (1.0 - np.eye(n))
    np.fill_diagonal(g, 0.0)
    laplacian = np.diag(g.sum(axis=1)) - g
    scale = float(np.linalg.norm(x))
    dual = max(0.0, -float(np.linalg.eigvalsh(laplacian)[0])) / scale
    comp = abs(float(np.sum(g * d_hat))) / scale**2
    return dual, comp


def kkt_problems(x: np.ndarray, d_hat: np.ndarray, lam: float,
                 tol: float = KKT_TOL) -> list[str]:
    dual, comp = kkt_residuals(x, d_hat, lam)
    if dual <= tol and comp <= tol:
        return []
    return [f"KKT certificate fails at lambda {lam!r}: dual residual "
            f"{dual:.3e}, complementarity {comp:.3e} (tolerance {tol:.0e})"]


def _embedding_problems(coords: np.ndarray, n: int, r: int,
                        d_r: np.ndarray) -> list[str]:
    if coords.shape != (n, r):
        return [f"embedding has shape {coords.shape}, expected {(n, r)}"]
    problems = []
    scale = float(np.abs(coords).max())
    if float(np.abs(coords.sum(axis=0)).max()) > 1e-9 * n * max(scale, 1e-300):
        problems.append("embedding columns are not centered")
    err = rel_diff(squared_distances(coords), d_r)
    if err > MATCH_TOL:
        problems.append(f"embedding distances differ from the rank-{r} "
                        f"distances by {err:.3e}")
    return problems


def estimate_problems(x: np.ndarray, lam: float, d_hat: np.ndarray,
                      k_hat: np.ndarray, coords: np.ndarray, r: int) -> list[str]:
    """One fit of ``edmshrink estimate``: D_hat, K_hat and the embedding."""
    problems = edm_problems(d_hat)
    if problems:
        return problems
    kernel = centered_gram(d_hat)
    err = rel_diff(k_hat, kernel)
    if err > MATCH_TOL:
        problems.append(f"K_hat differs from -J D_hat J/2 by {err:.3e}")
    problems += _embedding_problems(coords, x.shape[0], r,
                                    rank_r_distances(kernel, r))
    problems += kkt_problems(x, d_hat, lam)
    return problems


def mds_problems(x: np.ndarray, d_r: np.ndarray, coords: np.ndarray,
                 r: int) -> list[str]:
    """``edmshrink mds``: D_r is the rank-r classical scaling of X."""
    reference = rank_r_distances(centered_gram(x), r)
    err = rel_diff(d_r, reference)
    problems = []
    if err > MATCH_TOL:
        problems.append(f"D_r differs from the rank-{r} classical scaling "
                        f"by {err:.3e}")
    return problems + _embedding_problems(coords, x.shape[0], r, d_r)


def sim_report_problems(report: dict, n: int, sigma2: float,
                        reps: int) -> list[str]:
    """One ``edmshrink simulate --sigma`` report at noise variance sigma2."""
    problems = []
    lam = 4.0 * math.sqrt(sigma2) * (math.sqrt(n) + 1.0)
    if report["n"] != n:
        problems.append(f"report n {report['n']} != {n}")
    if not math.isclose(report["lambda"], lam, rel_tol=1e-12):
        problems.append(f"lambda {report['lambda']!r} != 4 sigma (sqrt(n)+1) "
                        f"= {lam!r}")
    if not math.isclose(report["eta"], lam / (2 * n), rel_tol=1e-12):
        problems.append(f"eta {report['eta']!r} != lambda/(2n)")
    reps_seen = report["replicates"]
    if len(reps_seen) != reps:
        problems.append(f"{len(reps_seen)} replicates reported, {reps} asked")
    bad = [r["index"] for r in reps_seen if not r["converged"]]
    if bad or report["failed"]:
        problems.append(f"replicates did not converge: {bad or report['failed']}")
    shrink = report["methods"]["shrinkage"]["mean"]
    mds = report["methods"]["classical_mds"]["mean"]
    if shrink is None or mds is None or not shrink < mds:
        problems.append(f"mean shrinkage stress {shrink} is not below mean "
                        f"MDS stress {mds} at sigma2 {sigma2}")
    return problems
