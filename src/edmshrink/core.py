"""Core matrix types and transforms for squared-distance geometry.

Every matrix of "distances" in this package holds SQUARED Euclidean
distances: an n x n Euclidean distance matrix (EDM) D has entries
d_ij = ||p_i - p_j||^2 for some point configuration p_1, ..., p_n.

The two transforms at the heart of everything:

  distances_from_kernel(K)  maps a Gram (kernel) matrix K to the distance
                            matrix d_ij = k_ii + k_jj - 2 k_ij.
  min_trace_kernel(D)       maps an EDM back to the unique minimum-trace
                            kernel -J D J / 2, where J = I - 11^T/n.

Composing them round-trips: distances_from_kernel(min_trace_kernel(D)) == D
for every hollow symmetric D. The minimum-trace kernel is the Gram matrix
of the centered point configuration realizing D and has the all-ones
vector in its null space.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


class TruncationWarning(UserWarning):
    """Raised when an eigen-truncation discards non-negligible spectrum."""


# ---------------------------------------------------------------------------
# array helpers
# ---------------------------------------------------------------------------

def _as_square(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square 2-D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flags.writeable = False
    return a


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Exactly symmetric part (a + a.T) / 2."""
    return (a + a.T) / 2.0


def centering_matrix(n: int) -> np.ndarray:
    """J = I - 11^T/n, the projector onto the complement of the ones vector."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def center_gram(d: np.ndarray) -> np.ndarray:
    """Double-centered Gram matrix -J d J / 2, computed via row/column means.

    For an EDM input this is the minimum-trace kernel of the configuration;
    for arbitrary symmetric input it is the classical-scaling B matrix.
    """
    d = _as_square(d)
    row = d.mean(axis=1, keepdims=True)
    col = d.mean(axis=0, keepdims=True)
    b = -0.5 * (d - row - col + d.mean())
    return symmetrize(b)


def eigh_descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric eigendecomposition with a reproducible convention.

    Eigenvalues are sorted descending; each eigenvector is unit norm with
    its first component of magnitude > 1e-12 made positive, so repeated
    runs produce identical factors.
    """
    vals, vecs = np.linalg.eigh(symmetrize(a))
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            vecs[:, j] = -col
    return vals, vecs


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymHollowMatrix:
    """Symmetric matrix with zero diagonal, in squared-distance units.

    Observed dissimilarities and candidate distance matrices live here.
    Symmetry and hollowness are exact; use :meth:`from_array` to clean up
    inputs that are symmetric only within a tolerance.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = _as_square(self.entries)
        if a.shape[0] < 2:
            raise ValueError("need at least 2 objects")
        if not np.array_equal(a, a.T):
            raise ValueError("matrix is not exactly symmetric; "
                             "use SymHollowMatrix.from_array to symmetrize")
        if np.any(a.diagonal() != 0.0):
            raise ValueError("diagonal must be exactly zero")
        object.__setattr__(self, "entries", _frozen(a))

    @classmethod
    def from_array(cls, entries, tol: float = 1e-9) -> "SymHollowMatrix":
        """Build from an array that is symmetric and hollow within ``tol``.

        Symmetry is restored by averaging with the transpose and the
        diagonal is zeroed; deviations beyond ``tol`` (absolute) are
        rejected.
        """
        a = _as_square(entries)
        if np.abs(a - a.T).max() > tol:
            raise ValueError(f"asymmetry exceeds tolerance {tol}")
        if a.shape[0] and np.abs(a.diagonal()).max() > tol:
            raise ValueError(f"diagonal magnitude exceeds tolerance {tol}")
        a = symmetrize(a)
        np.fill_diagonal(a, 0.0)
        return cls(a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _psd_rank(vals: np.ndarray, tol: float) -> tuple[bool, int]:
    """PSD test and rank of an ascending spectrum, relative to its top.

    PSD holds iff every eigenvalue is >= -tol * max(gamma_max, 0); the rank
    counts eigenvalues > tol * gamma_max (zero when gamma_max <= 0).
    """
    top = vals[-1]
    ok = bool(vals[0] >= -tol * max(top, 0.0))
    if top <= 0.0:
        return ok, 0
    return ok, int(np.count_nonzero(vals > tol * top))


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric positive semidefinite (Gram) matrix.

    ``rank`` counts the eigenvalues above ``psd_tol`` times the largest,
    from the same spectrum that the PSD test reads.
    """

    entries: np.ndarray
    psd_tol: float = 1e-8
    rank: int = field(init=False, compare=False)

    def __post_init__(self):
        a = _as_square(self.entries)
        if not np.array_equal(a, a.T):
            raise ValueError("kernel matrix must be exactly symmetric")
        if self.psd_tol <= 0:
            raise ValueError("psd_tol must be positive")
        vals = np.linalg.eigvalsh(a)
        ok, rank = _psd_rank(vals, self.psd_tol)
        if not ok:
            raise ValueError(
                f"matrix is not PSD within tolerance: min eigenvalue "
                f"{vals[0]:.3e} vs largest {vals[-1]:.3e}")
        object.__setattr__(self, "entries", _frozen(a))
        object.__setattr__(self, "rank", rank)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries))


@dataclass(frozen=True)
class MinTraceKernel(KernelMatrix):
    """Kernel with the smallest trace among all kernels sharing its EDM.

    Equivalently the Gram matrix of a centered configuration: the all-ones
    vector lies in the null space, K 1 = 0.
    """

    def __post_init__(self):
        super().__post_init__()
        row_sums = np.abs(self.entries.sum(axis=1))
        tr = self.trace()
        if row_sums.size and row_sums.max() > self.psd_tol * max(tr, 0.0):
            raise ValueError(
                f"row sums not zero: max |K 1| = {row_sums.max():.3e} "
                f"vs trace {tr:.3e}")


@dataclass(frozen=True)
class Embedding:
    """Centered point coordinates, n rows by k columns, in distance units."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 2:
            raise ValueError(f"coordinates must be 2-D, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coordinates must be finite")
        scale = np.abs(c).max() if c.size else 0.0
        if c.size and np.abs(c.sum(axis=0)).max() > 1e-10 * max(scale, 1e-300):
            raise ValueError("coordinates are not centered; "
                             "use Embedding.from_points to center them")
        object.__setattr__(self, "coords", _frozen(c))

    @classmethod
    def from_points(cls, points) -> "Embedding":
        """Center arbitrary point coordinates (distances are unaffected)."""
        c = np.asarray(points, dtype=float)
        if c.ndim != 2:
            raise ValueError(f"coordinates must be 2-D, got shape {c.shape}")
        return cls(c - c.mean(axis=0, keepdims=True))

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def k(self) -> int:
        return self.coords.shape[1]


@dataclass(frozen=True)
class EdmMatrix:
    """A SymHollowMatrix certified, within tolerance, to be an EDM.

    Certification is the Schoenberg test: D is an EDM exactly when its
    minimum-trace kernel -J D J / 2 is PSD. The type runs that test once,
    by building ``kernel`` at ``psd_tol = cert_tol``, and reads
    ``embed_dim`` -- the rank of the kernel at threshold ``cert_tol``, i.e.
    the smallest dimension admitting a realizing point configuration --
    from the same spectrum.
    """

    base: SymHollowMatrix
    cert_tol: float = 1e-8
    kernel: MinTraceKernel = field(init=False, repr=False, compare=False)
    embed_dim: int = field(init=False)

    def __post_init__(self):
        if self.cert_tol <= 0:
            raise ValueError("cert_tol must be positive")
        d = self.base.entries
        off = d[~np.eye(self.base.n, dtype=bool)]
        if off.size and off.min() < -self.cert_tol:
            raise ValueError(f"negative squared distance {off.min():.3e}")
        try:
            kernel = MinTraceKernel(entries=center_gram(d), psd_tol=self.cert_tol)
        except ValueError as exc:
            raise ValueError(f"matrix is not an EDM within cert_tol: {exc}") from None
        if kernel.rank > self.base.n - 1:
            raise ValueError("embedding dimension cannot exceed n - 1")
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "embed_dim", kernel.rank)

    @property
    def entries(self) -> np.ndarray:
        return self.base.entries

    @property
    def n(self) -> int:
        return self.base.n


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def distances_from_kernel(k: KernelMatrix) -> SymHollowMatrix:
    """Squared distances d_ij = k_ii + k_jj - 2 k_ij implied by a kernel.

    Total on symmetric input; when the kernel is PSD the result is an EDM.
    """
    a = k.entries
    diag = a.diagonal()
    d = diag[:, None] + diag[None, :] - 2.0 * a
    d = symmetrize(d)
    np.fill_diagonal(d, 0.0)
    return SymHollowMatrix(d)


def similarity_to_dissimilarity(s) -> SymHollowMatrix:
    """Convert a symmetric similarity matrix to dissimilarity scores.

    x_ij = s_ii + s_jj - 2 s_ij. Unlike :func:`distances_from_kernel`,
    no PSD requirement: the output need not be an EDM (alignment-score
    matrices typically are not).
    """
    a = _as_square(s)
    if not np.array_equal(a, a.T):
        raise ValueError("similarity matrix must be symmetric")
    diag = a.diagonal()
    x = diag[:, None] + diag[None, :] - 2.0 * a
    x = symmetrize(x)
    np.fill_diagonal(x, 0.0)
    return SymHollowMatrix(x)


def is_edm(m: SymHollowMatrix, tol: float = 1e-8) -> tuple[bool, int]:
    """Test EDM membership and report the embedding dimension.

    Parameters
    ----------
    m : SymHollowMatrix
        Candidate matrix of squared distances.
    tol : float
        Relative eigenvalue tolerance: membership requires every
        eigenvalue of -J m J / 2 to be >= -tol * (largest eigenvalue).

    Returns
    -------
    (bool, int)
        Membership flag and the rank of -J m J / 2 at the same threshold
        (meaningful as an embedding dimension only when the flag is true).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _psd_rank(np.linalg.eigvalsh(center_gram(m.entries)), tol)


def certify_edm(m: SymHollowMatrix, tol: float = 1e-8) -> EdmMatrix:
    """Wrap a hollow symmetric matrix as an EdmMatrix, or raise ValueError."""
    return EdmMatrix(base=m, cert_tol=tol)


def min_trace_kernel(d: EdmMatrix) -> MinTraceKernel:
    """The unique minimum-trace kernel -J D J / 2 realizing an EDM.

    The result is PSD with zero row sums, and
    distances_from_kernel(min_trace_kernel(D)) reproduces D. It is the
    kernel that certified ``d``, so no spectrum is computed here.
    """
    return d.kernel


def extract_embedding(k: MinTraceKernel, r: int, tol: float = 1e-8) -> Embedding:
    """Coordinates from the top-r eigenpairs of a minimum-trace kernel.

    coords = U_r diag(sqrt(g_1), ..., sqrt(g_r)) with eigenvalues sorted
    descending and negative eigenvalues clipped to zero. Warns (without
    failing) when the discarded eigenvalue g_{r+1} exceeds tol * g_1,
    signaling truncation error.
    """
    n = k.n
    if not 1 <= r <= n - 1:
        raise ValueError(f"rank r must satisfy 1 <= r <= {n - 1}, got {r}")
    vals, vecs = eigh_descending(k.entries)
    if vals[0] > 0 and r < n and vals[r] > tol * vals[0]:
        warnings.warn(
            f"truncation to rank {r} discards eigenvalue {vals[r]:.3e} "
            f"(> {tol:.1e} of the leading {vals[0]:.3e})",
            TruncationWarning, stacklevel=2)
    coords = vecs[:, :r] * np.sqrt(np.clip(vals[:r], 0.0, None))
    return Embedding.from_points(coords)


def gram_matrix(e: Embedding) -> MinTraceKernel:
    """Gram matrix P P^T of a centered embedding (a minimum-trace kernel)."""
    k = symmetrize(e.coords @ e.coords.T)
    return MinTraceKernel(entries=k, psd_tol=1e-8)


def edm_from_coords(p, cert_tol: float = 1e-8) -> EdmMatrix:
    """Squared pairwise distances of a point configuration, as an EDM.

    Accepts an Embedding or a plain (n, k) coordinate array; distances are
    translation invariant so centering is not required.
    """
    coords = p.coords if isinstance(p, Embedding) else np.asarray(p, dtype=float)
    if coords.ndim != 2:
        raise ValueError(f"coordinates must be 2-D, got shape {coords.shape}")
    g = coords @ coords.T
    sq = g.diagonal()
    d = sq[:, None] + sq[None, :] - 2.0 * g
    d = symmetrize(d)
    np.clip(d, 0.0, None, out=d)  # roundoff can leave tiny negatives
    np.fill_diagonal(d, 0.0)
    return certify_edm(SymHollowMatrix(d), cert_tol)


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------

def average_squared_loss(a: SymHollowMatrix, b: SymHollowMatrix) -> float:
    """Averaged squared error over pairs: 2/(n(n-1)) * sum_{i<j} (a_ij-b_ij)^2.

    For hollow symmetric inputs this equals ||A - B||_F^2 / (n(n-1)).
    """
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    n = a.n
    diff = a.entries - b.entries
    iu = np.triu_indices(n, k=1)
    return 2.0 * float(np.sum(diff[iu] ** 2)) / (n * (n - 1))


def kruskal_stress(est: SymHollowMatrix, truth: SymHollowMatrix) -> float:
    """Relative Frobenius error ||est - truth||_F / ||truth||_F."""
    if est.n != truth.n:
        raise ValueError(f"size mismatch: {est.n} vs {truth.n}")
    denom = float(np.linalg.norm(truth.entries))
    if denom == 0.0:
        raise ZeroDivisionError("reference matrix is all zeros")
    return float(np.linalg.norm(est.entries - truth.entries)) / denom
