"""Core matrix types and transforms for squared-distance geometry.

Every matrix of "distances" in this package holds SQUARED Euclidean
distances: an n x n Euclidean distance matrix (EDM) D has entries
d_ij = ||p_i - p_j||^2 for some point configuration p_1, ..., p_n.

Two maps connect distances and kernels (Gram matrices):

  d_ij = g_ii + g_jj - 2 g_ij   sends a Gram-like matrix G to distances;
                                it backs similarity_to_dissimilarity,
                                edm_from_coords and every fit's EDM.
  center_gram(D) = -J D J / 2   sends an EDM to its unique minimum-trace
                                kernel, where J = I - 11^T/n.

The first undoes the second: for every hollow symmetric D the distances of
-J D J / 2 are D again. D is an EDM exactly when -J D J / 2 is PSD
(Schoenberg). ``EdmMatrix`` is the ``SymHollowMatrix`` that passed that
test: it runs it once and keeps the kernel as ``EdmMatrix.kernel``, a
``MinTraceKernel``, so an EDM goes wherever a hollow symmetric matrix
does. That kernel is the Gram matrix of the centered point configuration
realizing D and has the all-ones vector in its null space.

The test reads the kernel's spectrum. A caller that holds a factor F of
the kernel, K ~ F F^T, passes it on, and the spectrum is bounded instead
of computed. By Weyl's inequality every eigenvalue of K lies within
||K - F F^T||_F of one of F F^T, whose nonzero eigenvalues are those of
the small Gram matrix G = F^T F, and those lie within ||G - Diag G||_F of
diag G. Where F's columns are orthogonal, as for the eigenpairs a fit
keeps, that costs one n x n x s product and no eigensolver; otherwise,
as for point coordinates, one s x s ``eigvalsh`` of G gives them. A bound
that cannot decide the PSD test or the rank, because an eigenvalue lies
within it of the rank threshold, falls back to ``eigvalsh`` of K.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

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


def _frobenius(a: np.ndarray) -> float:
    """||a||_F, finite wherever it is a double. Where the sum of squares
    overflows, the entries are scaled by a power of two first, which is
    exact, so the norm is the same float as numpy's wherever numpy's is
    finite."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
        if norm == np.inf:
            e = np.frexp(max(float(a.max()), -float(a.min())))[1]
            norm = float(np.ldexp(np.linalg.norm(np.ldexp(a, -e)), e))
    return norm


class _Built(np.ndarray):
    """An array that the library built for one of its types to keep, and
    to which it holds no other reference. The type keeps it read-only as
    is, where it copies an array from a caller, who could still write
    through it or make it writeable again."""


def _built(a: np.ndarray) -> np.ndarray:
    """``a`` marked as :class:`_Built`, to be kept without a copy."""
    return a.view(_Built)


def _frozen(given, a: np.ndarray) -> np.ndarray:
    """``a``, the array validated from ``given``, read-only: a copy,
    unless ``given`` is ``_built``."""
    if not isinstance(given, _Built):
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


def check_int(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer and not a bool.

    A float such as 1.5 would pass a range check and fail, or be
    truncated, where it is used as a count; True would pass as 1.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Exactly symmetric part (a + a.T) / 2, in one new array.

    Where a + a.T overflows from finite entries, both are at least
    2**970 in magnitude, so their halves are exact and a/2 + a.T/2 is the
    correctly rounded (a + a.T) / 2, which is finite. Elsewhere the sum
    is halved, as halving first would round subnormal entries.
    """
    with np.errstate(over="ignore"):
        s = a + a.T
    s /= 2.0
    if not (np.isfinite(s.max(initial=0.0))
            and np.isfinite(s.min(initial=0.0))):
        half = a / 2.0
        np.add(half, half.T, out=s, where=np.isinf(s))
    return s


# Tolerance of symmetrize_within, relative to max|a|: scale-free.
SYMMETRY_RTOL = 1e-9


def symmetrize_within(a: np.ndarray, hollow: bool = True) -> np.ndarray:
    """(a + a.T) / 2 of a square array that is symmetric within
    SYMMETRY_RTOL times max|a|, with the diagonal, which must then vanish
    within that bound, zeroed when ``hollow``; larger deviations raise
    ValueError. max|a| is read as max(max a, -min a), and |a - a.T| is
    taken in place, so at most one n x n temporary is alive beside ``a``."""
    tol = SYMMETRY_RTOL * max(float(a.max(initial=0.0)),
                              -float(a.min(initial=0.0)))
    with np.errstate(over="ignore"):  # an infinite skew is rejected below
        skew = a - a.T
    np.abs(skew, out=skew)
    if skew.max(initial=0.0) > tol:
        raise ValueError(f"asymmetry exceeds tolerance {tol:.3e}")
    del skew
    a = symmetrize(a)
    if hollow:
        if np.abs(a.diagonal()).max(initial=0.0) > tol:
            raise ValueError(f"diagonal magnitude exceeds tolerance {tol:.3e}")
        np.fill_diagonal(a, 0.0)
    return a


def center_gram(d: np.ndarray) -> np.ndarray:
    """Double-centered Gram matrix -J d J / 2, computed via row/column means.

    For an EDM input this is the minimum-trace kernel of the configuration;
    for arbitrary symmetric input it is the classical-scaling B matrix.
    """
    d = _as_square(d)
    row = d.mean(axis=1, keepdims=True)
    col = d.mean(axis=0, keepdims=True)
    # -0.5 (d - row - col + mean d), in place, in the same order
    b = d - row
    b -= col
    b += d.mean()
    b *= -0.5
    return symmetrize(b)


def _lead_positive(vecs: np.ndarray) -> np.ndarray:
    """Columns with a reproducible sign: a copy of ``vecs`` with each
    column's first component of magnitude > 1e-12 times the column's norm
    made positive, so repeated runs give identical factors and a column
    scaled by c > 0 keeps the sign its unit vector gets."""
    big = np.abs(vecs) > 1e-12 * np.linalg.norm(vecs, axis=0)
    if not big.size:
        return vecs.copy()
    lead = vecs[big.argmax(axis=0), np.arange(big.shape[1])]
    return np.where(lead < 0, -vecs, vecs)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SymHollowMatrix:
    """Symmetric matrix with zero diagonal, in squared-distance units.

    Observed dissimilarities and candidate distance matrices live here.
    Symmetry and hollowness are exact; use :meth:`from_array` to clean up
    inputs that are symmetric only within a tolerance.

    ``entries`` is read-only. An array from the caller is copied, so that
    writing to it later leaves the matrix as it was; one that the library
    builds for the matrix and drops (the symmetrized input of
    ``from_array``, a loaded file, the closing EDM of a projection) is
    kept without the copy.
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
        object.__setattr__(self, "entries", _frozen(self.entries, a))

    @classmethod
    def from_array(cls, entries) -> "SymHollowMatrix":
        """Build from an array that is symmetric and hollow within
        SYMMETRY_RTOL of its largest magnitude.

        Symmetry is restored by averaging with the transpose and the
        diagonal is zeroed; larger deviations are rejected.
        """
        return cls(_built(symmetrize_within(_as_square(entries))))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _weyl_rank(spectrum: np.ndarray, err: float, tol: float) -> int | None:
    """The rank, certified PSD, of every spectrum within ``err`` of
    ``spectrum``: a spectrum with top t is PSD when no eigenvalue is below
    -tol max(t, 0), and its rank counts those above tol t, 0 when t <= 0.

    Each eigenvalue may move by err, so the top one lies in [top - err,
    top + err] and the rank threshold in the bracket [tol (top - err),
    tol (top + err)]. Every such spectrum passes the PSD test when the
    lowest value, less err, is >= -tol (top - err), and shares one rank
    when no value lies within err of the bracket. Returns that rank, or
    None when either fails; at err = 0 the zero spectrum has rank 0.
    """
    top, low = float(spectrum.max()), float(spectrum.min())
    if not top - err > 0.0:
        return 0 if err == 0.0 and top == low == 0.0 else None
    floor = tol * (top - err)
    above = spectrum - err > tol * (top + err)
    if low - err < -floor or not np.all(above | (spectrum + err <= floor)):
        return None
    return int(np.count_nonzero(above))


def _factor_rank(k: np.ndarray, f: np.ndarray, tol: float) -> int | None:
    """Rank of the symmetric ``k`` at ``tol``, certified PSD as by
    ``_weyl_rank``, from a factor ``f`` with k ~ f f^T.

    The nonzero spectrum of f f^T (n x n) is that of g = f^T f (s x s),
    read off diag g within ||g - Diag g||_F, or else off ``eigvalsh`` of
    g; f f^T has a zero eigenvalue more when s < n. Every eigenvalue of k
    lies within ||k - f f^T||_F of that spectrum, and the products round
    by at most (n + s) eps ||f||_F^2 each. Returns None when f has more
    columns than rows or a non-finite entry, or when neither spectrum
    decides (``_weyl_rank``).
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[0] != k.shape[0]:
        raise ValueError(f"factor must be 2-D with {k.shape[0]} rows, "
                         f"got shape {f.shape}")
    n, s = f.shape
    if s > n or not np.all(np.isfinite(f)):
        return None
    g = f.T @ f
    resid = f @ f.T
    resid -= k
    err = _frobenius(resid) + (
        2 * (n + s) * np.finfo(float).eps * float(np.trace(g)))
    zero = np.zeros(int(s < n))
    mu = g.diagonal()
    rank = _weyl_rank(np.concatenate((mu, zero)),
                      err + _frobenius(g - np.diag(mu)), tol)
    if rank is None:
        rank = _weyl_rank(np.concatenate((np.linalg.eigvalsh(g), zero)),
                          err, tol)
    return rank


@dataclass(frozen=True, eq=False)
class MinTraceKernel:
    """Kernel with the smallest trace among all kernels sharing its EDM.

    Equivalently the Gram matrix of a centered configuration: a symmetric
    PSD matrix with the all-ones vector in its null space, K 1 = 0. Both
    conditions are checked at ``psd_tol``, relative to the largest
    eigenvalue and to the trace. ``rank`` counts the eigenvalues above
    ``psd_tol`` times the largest, from the same spectrum that the PSD
    test reads.

    Given ``factor``, an n x s array F with K ~ F F^T, the PSD test and
    the rank are certified from F by a Weyl bound (see the module
    docstring): it passes K only when every spectrum within the bound
    passes, the exact one of K among them, and only when they share one
    rank. Otherwise, and without ``factor``, they are read off
    ``eigvalsh``.

    ``entries`` is read-only: a copy of an array from the caller, or, for
    the kernel that ``EdmMatrix`` builds with ``center_gram``, that array
    itself.
    """

    entries: np.ndarray
    psd_tol: float = 1e-8
    rank: int = field(init=False)
    factor: InitVar[np.ndarray | None] = None

    def __post_init__(self, factor):
        a = _as_square(self.entries)
        if not np.array_equal(a, a.T):
            raise ValueError("kernel matrix must be exactly symmetric")
        check_tol("psd_tol", self.psd_tol)
        rank = None if factor is None else _factor_rank(a, factor, self.psd_tol)
        if rank is None:
            vals = np.linalg.eigvalsh(a)
            rank = _weyl_rank(vals, 0.0, self.psd_tol)
            if rank is None:
                raise ValueError(
                    f"matrix is not PSD within tolerance: min eigenvalue "
                    f"{vals[0]:.3e} vs largest {vals[-1]:.3e}")
        row_sums = np.abs(a.sum(axis=1))
        tr = float(np.trace(a))
        if row_sums.size and row_sums.max() > self.psd_tol * max(tr, 0.0):
            raise ValueError(
                f"row sums not zero: max |K 1| = {row_sums.max():.3e} "
                f"vs trace {tr:.3e}")
        object.__setattr__(self, "entries", _frozen(self.entries, a))
        object.__setattr__(self, "rank", rank)

    def trace(self) -> float:
        return float(np.trace(self.entries))


@dataclass(frozen=True, eq=False)
class Embedding:
    """Centered point coordinates, n rows by k columns, in distance units.

    ``coords`` is read-only: a copy of the array given, or the centered
    array that ``from_points`` builds for it, kept as is."""

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
        object.__setattr__(self, "coords", _frozen(self.coords, c))

    @classmethod
    def from_points(cls, points) -> "Embedding":
        """The embedding of arbitrary (n, k) point coordinates, centered
        (distances are unaffected): the one reader of raw coordinates.

        The column means are taken off twice: points offset by s keep a
        mean of about n ulp(s) after one pass, which the second removes.
        The passes run with no floating-point warning, and the centered
        array is kept without a copy. A point that is not finite raises
        ValueError ("coordinates must be finite"), and so do finite points
        whose column sums or centered values overflow a double. An array
        with no entries has nothing to center.
        """
        p = np.asarray(points, dtype=float)
        if not p.size:  # np.mean of no values warns
            return cls(p)
        with np.errstate(over="ignore", invalid="ignore"):
            c = p - p.mean(axis=0)
            c -= c.mean(axis=0)
        if not np.isfinite(c).all() and np.isfinite(p).all():
            raise ValueError("coordinates too large: centering overflows "
                             "a double")
        return cls(_built(c))

    @property
    def k(self) -> int:
        return self.coords.shape[1]


@dataclass(frozen=True, eq=False)
class EdmMatrix(SymHollowMatrix):
    """A SymHollowMatrix certified, within tolerance, to be an EDM.

    Certification is the Schoenberg test: D is an EDM exactly when its
    minimum-trace kernel -J D J / 2 is PSD. The type runs that test once,
    by building ``kernel`` at ``psd_tol = cert_tol``, and reads
    ``embed_dim`` -- the rank of the kernel at threshold ``cert_tol``, i.e.
    the smallest dimension admitting a realizing point configuration --
    from the same spectrum. Entries are squared distances, so a negative
    one is rejected unless it is within ``cert_tol`` of the largest.

    ``factor``, an n x s array F whose F F^T approximates the kernel, is
    passed to it: the test is then certified from F by a Weyl bound, and
    by ``eigvalsh`` of the kernel only where that bound cannot decide it.
    The matrix keeps F, read-only, or None when none was given. ``entries``
    and ``factor`` are copied or kept as ``SymHollowMatrix`` keeps
    ``entries``; the kernel, which the type builds itself, is never copied.
    """

    cert_tol: float = 1e-8
    kernel: MinTraceKernel = field(init=False, repr=False)
    factor: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        super().__post_init__()
        factor = self.factor
        if factor is not None:
            factor = _frozen(factor, np.asarray(factor, dtype=float))
            object.__setattr__(self, "factor", factor)
        check_tol("cert_tol", self.cert_tol)
        # the diagonal is exactly 0, so it decides neither bound
        low = float(self.entries.min())
        if low < -self.cert_tol * max(float(self.entries.max()), 0.0):
            raise ValueError(f"negative squared distance {low:.3e}")
        try:
            kernel = MinTraceKernel(_built(center_gram(self.entries)),
                                    self.cert_tol, factor)
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

@np.errstate(over="ignore", invalid="ignore")
def _distances_from_gram(g: np.ndarray) -> np.ndarray:
    """Squared distances d_ij = g_ii + g_jj - 2 g_ij of a symmetric ``g``,
    hollow, in the buffer of ``g``: a fit's EDM, from f f^T for its
    certifying factor f, whose theta = (1/2) (||B - J B J||_F^2 +
    sum l_N^2) needs no n x n array either (see ``projection``). A
    distance outside the range of a double is left inf or nan, with no
    warning, for the type that keeps it to reject as not finite."""
    diag = g.diagonal().copy()
    g *= -2.0
    # (g_ii + g_jj) first, for symmetry; no n x n temporary
    for i in range(0, g.shape[0], 64):
        g[i:i + 64] += diag[i:i + 64, None] + diag
    np.fill_diagonal(g, 0.0)
    return g


def similarity_to_dissimilarity(s) -> SymHollowMatrix:
    """Convert a symmetric similarity matrix to dissimilarity scores.

    x_ij = s_ii + s_jj - 2 s_ij. No PSD requirement: the output is an EDM
    exactly when ``s`` is PSD on the complement of the ones vector, and
    alignment-score matrices typically are not.
    """
    a = _as_square(s)
    if not np.array_equal(a, a.T):
        raise ValueError("similarity matrix must be symmetric")
    return SymHollowMatrix(_built(_distances_from_gram(a.copy())))


def certify_edm(m: SymHollowMatrix | np.ndarray, tol: float = 1e-8,
                factor: np.ndarray | None = None) -> EdmMatrix:
    """Certify ``m`` as an EdmMatrix, or raise ValueError.

    ``m`` may also be a plain array, which is validated as a
    SymHollowMatrix once, by the EdmMatrix built from it. Given
    ``factor``, an n x s array F with F F^T close to the kernel
    -J m J / 2, the certificate is a Weyl bound from F, and ``eigvalsh``
    of the kernel runs only where that bound cannot decide it (see
    ``EdmMatrix``). The EDM keeps a read-only copy of F as ``factor``.
    """
    return EdmMatrix(m.entries if isinstance(m, SymHollowMatrix) else m, tol,
                     factor)


def edm_from_coords(p) -> EdmMatrix:
    """Squared pairwise distances of a point configuration, as an EDM.

    Accepts an Embedding or a plain (n, k) coordinate array, which goes
    through ``Embedding.from_points`` and is centered there: the Gram
    product rounds relative to the coordinates' magnitude, not their
    spread. The kernel of the result is P P^T for the centered
    coordinates P, which certify it from the k x k spectrum of P^T P
    instead of an n x n one.
    """
    coords = (p if isinstance(p, Embedding) else Embedding.from_points(p)).coords
    return EdmMatrix(_built(_distances_from_coords(coords)), factor=coords)


@np.errstate(over="ignore")
def _distances_from_coords(coords: np.ndarray) -> np.ndarray:
    """Squared pairwise distances of centered (n, k) coordinates, without
    the certificate of :func:`edm_from_coords`, not finite where they
    overflow (see :func:`_distances_from_gram`)."""
    d = _distances_from_gram(coords @ coords.T)
    np.clip(d, 0.0, None, out=d)  # roundoff can leave tiny negatives
    return d


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------

def average_squared_loss(a: SymHollowMatrix, b: SymHollowMatrix) -> float:
    """Averaged squared error over pairs, ||A - B||_F^2 / (n(n-1)).

    For hollow symmetric inputs this is 2/(n(n-1)) * sum_{i<j} (a_ij-b_ij)^2.
    """
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    n = a.n
    return float(np.sum((a.entries - b.entries) ** 2)) / (n * (n - 1))


def kruskal_stress(est: SymHollowMatrix, truth: SymHollowMatrix) -> float:
    """Relative Frobenius error ||est - truth||_F / ||truth||_F, with
    norms that do not overflow where they are doubles (``_frobenius``)."""
    if est.n != truth.n:
        raise ValueError(f"size mismatch: {est.n} vs {truth.n}")
    denom = _frobenius(truth.entries)
    if denom == 0.0:
        raise ZeroDivisionError("reference matrix is all zeros")
    return _frobenius(est.entries - truth.entries) / denom
