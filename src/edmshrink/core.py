"""Core matrix types and transforms for squared-distance geometry.

Every matrix of "distances" in this package holds SQUARED Euclidean
distances: an n x n Euclidean distance matrix (EDM) D has entries
d_ij = ||p_i - p_j||^2 for some point configuration p_1, ..., p_n.

Two maps connect distances and kernels (Gram matrices):

  d_ij = g_ii + g_jj - 2 g_ij   sends a Gram-like matrix G to distances;
                                it backs similarity_to_dissimilarity and
                                edm_from_coords.
  center_gram(D) = -J D J / 2   sends an EDM to its unique minimum-trace
                                kernel, where J = I - 11^T/n.

The first undoes the second: for every hollow symmetric D the distances of
-J D J / 2 are D again. D is an EDM exactly when -J D J / 2 is PSD
(Schoenberg). ``EdmMatrix`` is the ``SymHollowMatrix`` that passed that
test: it runs it once and keeps the kernel as ``EdmMatrix.kernel``, a
``MinTraceKernel``, so an EDM goes wherever a hollow symmetric matrix
does. That kernel is the Gram matrix of the centered point configuration
realizing D and has the all-ones vector in its null space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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


def check_tol(name: str, value: float) -> None:
    """Raise ValueError unless the tolerance ``value`` is finite and > 0.

    A NaN or infinite tolerance would pass every comparison against it
    and accept any input.
    """
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def check_nonnegative(name: str, value: float) -> None:
    """Raise ValueError unless ``value`` is finite and >= 0."""
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(
            f"{name} must be finite and nonnegative, got {value!r}")


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Exactly symmetric part (a + a.T) / 2."""
    return (a + a.T) / 2.0


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
    return vals[::-1].copy(), _lead_positive(vecs[:, ::-1])


def _lead_positive(vecs: np.ndarray) -> np.ndarray:
    """Unit eigenvectors with the sign convention of ``eigh_descending``:
    a copy of ``vecs`` with each column's first component of magnitude
    > 1e-12 made positive."""
    # every column is a unit vector, so each has an entry above 1e-12
    big = np.abs(vecs) > 1e-12
    if not big.size:
        return vecs.copy()
    lead = vecs[big.argmax(axis=0), np.arange(big.shape[1])]
    return np.where(lead < 0, -vecs, vecs)


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
        check_tol("tol", tol)
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
class MinTraceKernel:
    """Kernel with the smallest trace among all kernels sharing its EDM.

    Equivalently the Gram matrix of a centered configuration: a symmetric
    PSD matrix with the all-ones vector in its null space, K 1 = 0. Both
    conditions are checked at ``psd_tol``, relative to the largest
    eigenvalue and to the trace. ``rank`` counts the eigenvalues above
    ``psd_tol`` times the largest, from the same spectrum that the PSD
    test reads.
    """

    entries: np.ndarray
    psd_tol: float = 1e-8
    rank: int = field(init=False, compare=False)

    def __post_init__(self):
        a = _as_square(self.entries)
        if not np.array_equal(a, a.T):
            raise ValueError("kernel matrix must be exactly symmetric")
        check_tol("psd_tol", self.psd_tol)
        vals = np.linalg.eigvalsh(a)
        ok, rank = _psd_rank(vals, self.psd_tol)
        if not ok:
            raise ValueError(
                f"matrix is not PSD within tolerance: min eigenvalue "
                f"{vals[0]:.3e} vs largest {vals[-1]:.3e}")
        row_sums = np.abs(a.sum(axis=1))
        tr = float(np.trace(a))
        if row_sums.size and row_sums.max() > self.psd_tol * max(tr, 0.0):
            raise ValueError(
                f"row sums not zero: max |K 1| = {row_sums.max():.3e} "
                f"vs trace {tr:.3e}")
        object.__setattr__(self, "entries", _frozen(a))
        object.__setattr__(self, "rank", rank)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries))


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
class EdmMatrix(SymHollowMatrix):
    """A SymHollowMatrix certified, within tolerance, to be an EDM.

    Certification is the Schoenberg test: D is an EDM exactly when its
    minimum-trace kernel -J D J / 2 is PSD. The type runs that test once,
    by building ``kernel`` at ``psd_tol = cert_tol``, and reads
    ``embed_dim`` -- the rank of the kernel at threshold ``cert_tol``, i.e.
    the smallest dimension admitting a realizing point configuration --
    from the same spectrum. Entries are squared distances, so a negative
    one is rejected unless it is within ``cert_tol`` of the largest.
    """

    cert_tol: float = 1e-8
    kernel: MinTraceKernel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        check_tol("cert_tol", self.cert_tol)
        off = self.entries[~np.eye(self.n, dtype=bool)]
        if off.size and off.min() < -self.cert_tol * max(off.max(), 0.0):
            raise ValueError(f"negative squared distance {off.min():.3e}")
        try:
            kernel = MinTraceKernel(entries=center_gram(self.entries),
                                    psd_tol=self.cert_tol)
        except ValueError as exc:
            raise ValueError(f"matrix is not an EDM within cert_tol: {exc}") from None
        if kernel.rank > self.n - 1:
            raise ValueError("embedding dimension cannot exceed n - 1")
        object.__setattr__(self, "kernel", kernel)

    @property
    def embed_dim(self) -> int:
        return self.kernel.rank


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def _distances_from_gram(g: np.ndarray) -> np.ndarray:
    """Squared distances d_ij = g_ii + g_jj - 2 g_ij, exactly symmetric and
    hollow."""
    diag = g.diagonal()
    d = symmetrize(diag[:, None] + diag[None, :] - 2.0 * g)
    np.fill_diagonal(d, 0.0)
    return d


def similarity_to_dissimilarity(s) -> SymHollowMatrix:
    """Convert a symmetric similarity matrix to dissimilarity scores.

    x_ij = s_ii + s_jj - 2 s_ij. No PSD requirement: the output is an EDM
    exactly when ``s`` is PSD on the complement of the ones vector, and
    alignment-score matrices typically are not.
    """
    a = _as_square(s)
    if not np.array_equal(a, a.T):
        raise ValueError("similarity matrix must be symmetric")
    return SymHollowMatrix(_distances_from_gram(a))


def certify_edm(m: SymHollowMatrix, tol: float = 1e-8) -> EdmMatrix:
    """Certify ``m`` as an EdmMatrix, or raise ValueError."""
    return EdmMatrix(m.entries, tol)


def edm_from_coords(p, cert_tol: float = 1e-8) -> EdmMatrix:
    """Squared pairwise distances of a point configuration, as an EDM.

    Accepts an Embedding or a plain (n, k) coordinate array; distances are
    translation invariant so centering is not required.
    """
    coords = p.coords if isinstance(p, Embedding) else np.asarray(p, dtype=float)
    if coords.ndim != 2:
        raise ValueError(f"coordinates must be 2-D, got shape {coords.shape}")
    return EdmMatrix(_distances_from_coords(coords), cert_tol)


def _distances_from_coords(coords: np.ndarray) -> np.ndarray:
    """Squared pairwise distances of (n, k) coordinates, without the
    certificate of :func:`edm_from_coords`."""
    d = _distances_from_gram(coords @ coords.T)
    np.clip(d, 0.0, None, out=d)  # roundoff can leave tiny negatives
    return d


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
