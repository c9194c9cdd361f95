"""Core types, transforms and metrics."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edmshrink import (
    EdmMatrix,
    Embedding,
    MinTraceKernel,
    SymHollowMatrix,
    average_squared_loss,
    center_gram,
    certify_edm,
    classical_mds,
    distance_shrinkage,
    edm_from_coords,
    helix_coords,
    kruskal_stress,
    similarity_to_dissimilarity,
)
from edmshrink.core import _lead_positive, symmetrize
from edmshrink.projection import _centered_eigh

from conftest import (
    centering,
    eig_counts,
    random_cloud,
    random_edm,
    random_hollow,
    rigid_motion,
)


def hollow(rows) -> SymHollowMatrix:
    return SymHollowMatrix(np.array(rows, dtype=float))


D0_3 = hollow([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


# entries that halve inexactly (subnormals) and pairs whose sum overflows
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))


class TestSymmetrize:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(n=st.integers(1, 5), data=st.data())
    def test_sum_kept_where_finite_and_never_overflows(self, n, data):
        a = np.array(data.draw(st.lists(EDGE_FLOATS, min_size=n * n,
                                        max_size=n * n))).reshape(n, n)
        with np.errstate(over="ignore"):
            want = (a + a.T) / 2.0
        got = symmetrize(a)
        finite = np.isfinite(want)
        # bit for bit where (a + a.T) / 2 is finite, -0.0 and subnormals too
        assert np.array_equal(got[finite].view(np.uint64),
                              want[finite].view(np.uint64))
        # elsewhere the exact half-sum, correctly rounded, which is finite
        for i, j in zip(*np.nonzero(~finite)):
            half = (Fraction(a[i, j]) + Fraction(a[j, i])) / 2
            assert got[i, j] == float(half)
        assert np.isfinite(got).all()


class TestTypes:
    def test_sym_hollow_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            SymHollowMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_sym_hollow_rejects_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            SymHollowMatrix(np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_sym_hollow_rejects_n1(self):
        with pytest.raises(ValueError, match="at least 2"):
            SymHollowMatrix(np.zeros((1, 1)))

    def test_from_array_symmetrizes_within_tol(self):
        a = np.array([[1e-11, 1.0], [1.0 + 1e-11, -1e-11]])
        m = SymHollowMatrix.from_array(a)
        assert m.entries[0, 1] == m.entries[1, 0]
        assert m.entries[0, 0] == 0.0

    def test_from_array_rejects_beyond_tol(self):
        a = np.array([[0.0, 1.0], [1.1, 0.0]])
        with pytest.raises(ValueError, match="asymmetry"):
            SymHollowMatrix.from_array(a)

    def test_entries_immutable(self):
        m = hollow([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            m.entries[0, 1] = 2.0

    def test_kernel_rejects_indefinite(self):
        with pytest.raises(ValueError, match="PSD"):
            MinTraceKernel(np.array([[-1.0, 1.0], [1.0, -1.0]]))

    def test_min_trace_rejects_uncentered(self):
        with pytest.raises(ValueError, match="row sums"):
            MinTraceKernel(np.eye(2))

    def test_embedding_requires_centering(self):
        with pytest.raises(ValueError, match="centered"):
            Embedding(np.array([[1.0], [2.0]]))
        e = Embedding.from_points(np.array([[1.0], [2.0]]))
        assert np.allclose(e.coords, [[-0.5], [0.5]])


class TestIdentityEquality:
    """The domain types hold arrays, so they compare and hash by identity:
    an element-wise ``==`` has no single truth value."""

    @pytest.mark.parametrize("build", [
        lambda: hollow([[0, 1], [1, 0]]),
        lambda: certify_edm(hollow([[0, 1], [1, 0]])),
        lambda: MinTraceKernel(centering(2) / 2.0),
        lambda: Embedding(np.array([[-0.5], [0.5]])),
    ], ids=["SymHollowMatrix", "EdmMatrix", "MinTraceKernel", "Embedding"])
    def test_compare_and_hash_by_identity(self, build):
        m, twin = build(), build()
        assert (m == twin) is False
        assert m == m
        assert len({m, twin, m}) == 2

    def test_fit_equals_itself(self):
        fit = distance_shrinkage(D0_3, 0.1)
        assert fit == fit


class TestOwnership:
    """A type keeps a read-only copy of an array from its caller, so that
    writing to that array afterwards leaves the type's entries as they
    were."""

    @pytest.mark.parametrize("build, rows", [
        (SymHollowMatrix, [[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
        (EdmMatrix, [[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
        (MinTraceKernel, centering(3) / 2.0),
    ], ids=["SymHollowMatrix", "EdmMatrix", "MinTraceKernel"])
    def test_copies_a_writeable_caller_array(self, build, rows):
        a = np.array(rows, dtype=float)
        m = build(a)
        want = a.copy()
        a[0, 1] = a[1, 0] = 5.0
        assert np.array_equal(m.entries, want)
        assert not m.entries.flags.writeable
        assert not np.shares_memory(m.entries, a)


BAD_TOLS = [np.nan, np.inf, 0.0, -1e-8]
VIOLATOR = [[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]]


class TestToleranceValidation:
    """Every tolerance must be finite and positive: a NaN or infinite one
    passes every comparison against it, so it would certify a triangle
    violator as an EDM."""

    @pytest.mark.parametrize("bad", BAD_TOLS)
    @pytest.mark.parametrize("build", [
        lambda tol: certify_edm(hollow(VIOLATOR), tol),
        lambda tol: EdmMatrix(np.array(VIOLATOR), cert_tol=tol),
        lambda tol: MinTraceKernel(-centering(3) / 2.0, psd_tol=tol),
    ], ids=["certify_edm", "EdmMatrix", "MinTraceKernel"])
    def test_rejects(self, build, bad):
        with pytest.raises(ValueError, match="must be finite and positive"):
            build(bad)


class TestDistancesFromKernel:
    """d_ij = k_ii + k_jj - 2 k_ij on kernels, the one distance formula."""

    def test_identity_kernel(self):
        out = similarity_to_dissimilarity(np.eye(2))
        assert np.array_equal(out.entries, [[0.0, 2.0], [2.0, 0.0]])

    def test_rank_one_kernel(self):
        k = MinTraceKernel(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.array_equal(similarity_to_dissimilarity(k.entries).entries,
                              [[0.0, 4.0], [4.0, 0.0]])

    def test_zero_kernel(self):
        out = similarity_to_dissimilarity(np.zeros((3, 3)))
        assert np.array_equal(out.entries, np.zeros((3, 3)))

    def test_leaves_the_callers_array_unchanged(self, rng):
        # distances are built in the buffer they are given, here a copy of
        # the caller's array, over more rows than one block of the build
        s = rng.normal(size=(150, 150))
        s = (s + s.T) / 2.0
        before = s.copy()
        out = similarity_to_dissimilarity(s)
        assert np.array_equal(s, before)
        assert not np.shares_memory(out.entries, s)
        diag = s.diagonal()
        want = (diag[:, None] + diag) - 2.0 * s
        np.fill_diagonal(want, 0.0)
        assert np.array_equal(out.entries, want)


class TestMinTraceKernel:
    def test_two_point_value(self):
        # direct evaluation of -J D J / 2 by hand
        k = certify_edm(hollow([[0, 4], [4, 0]])).kernel
        assert np.allclose(k.entries, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-14)

    def test_zero_matrix(self):
        d = certify_edm(hollow([[0, 0], [0, 0]]))
        assert np.array_equal(d.kernel.entries, np.zeros((2, 2)))

    def test_equilateral_is_half_centering(self):
        # J D0 J = -J so the kernel is J/2: diagonal 1/3, off-diagonal -1/6
        k = certify_edm(D0_3).kernel
        assert np.allclose(k.entries, centering(3) / 2.0, atol=1e-14)
        assert k.trace() == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_reproduces_edm(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, min(n, 5)))
            d = random_edm(rng, n, k)
            back = similarity_to_dissimilarity(d.kernel.entries)
            assert np.allclose(back.entries, d.entries,
                               rtol=1e-10, atol=1e-12 * d.entries.max())

    def test_null_vector_property(self, rng):
        for _ in range(20):
            d = random_edm(rng, int(rng.integers(3, 15)), 3)
            k = d.kernel
            assert np.abs(k.entries.sum(axis=1)).max() <= 1e-10 * k.trace()

    def test_minimum_trace_among_preimage(self, rng):
        # competitors are Gram matrices of translated configurations
        for _ in range(10):
            n = int(rng.integers(3, 10))
            p = random_cloud(rng, n, 3)
            d = edm_from_coords(p)
            t0 = d.kernel.trace()
            for _ in range(20):
                c = rng.normal(size=3)
                shifted = p + c[None, :]
                m = shifted @ shifted.T
                assert np.allclose(
                    similarity_to_dissimilarity((m + m.T) / 2).entries,
                    d.entries, rtol=1e-8, atol=1e-10)
                slack = np.trace(m) - t0
                assert slack >= -1e-10 * max(t0, 1.0)
                if slack <= 1e-8:
                    assert np.linalg.norm(shifted.sum(axis=0)) <= 1e-8

    def test_trace_identity(self, rng):
        # trace(R(T(M))) = trace(M) - 1^T M 1 / n for PSD M
        for _ in range(20):
            n = int(rng.integers(2, 10))
            a = rng.normal(size=(n, n))
            m = a @ a.T
            m = (m + m.T) / 2.0
            got = certify_edm(similarity_to_dissimilarity(m)).kernel.trace()
            want = np.trace(m) - m.sum() / n
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


class TestIsEdm:
    """The Schoenberg test as certify_edm runs it: membership by raising,
    the embedding dimension as ``embed_dim``."""

    def test_two_points(self):
        assert certify_edm(hollow([[0, 1], [1, 0]])).embed_dim == 1

    def test_triangle_violator(self):
        # alpha2 = (12 - 18)/3 = -2 < 0
        with pytest.raises(ValueError, match="not an EDM"):
            certify_edm(hollow([[0, 1, 10], [1, 0, 1], [10, 1, 0]]))

    def test_equilateral(self):
        assert certify_edm(D0_3).embed_dim == 2

    def test_zero_matrix_dimension_zero(self):
        assert certify_edm(hollow(np.zeros((4, 4)))).embed_dim == 0

    def test_array_certifies_as_its_matrix(self, rng):
        d = random_edm(rng, 8, 3).entries
        from_array, from_matrix = certify_edm(d), certify_edm(SymHollowMatrix(d))
        assert np.array_equal(from_array.entries, from_matrix.entries)
        assert from_array.embed_dim == from_matrix.embed_dim == 3

    @pytest.mark.parametrize("rows, match", [
        ([[0, 1], [2, 0]], "not exactly symmetric"),
        ([[1, 1], [1, 0]], "diagonal must be exactly zero"),
    ])
    def test_array_is_validated(self, rows, match):
        with pytest.raises(ValueError, match=match):
            certify_edm(np.array(rows, dtype=float))

    def test_line_of_three(self):
        d = edm_from_coords(np.array([[0.0], [1.0], [2.0]]))
        assert d.embed_dim == 1
        assert d.entries[0, 2] == pytest.approx(4.0)
        assert d.entries[0, 1] == pytest.approx(1.0)
        assert d.entries[1, 2] == pytest.approx(1.0)


def with_coincident_pair(rel: float) -> np.ndarray:
    """Squared distances of 6 points in the plane whose first two
    coincide, with their zero entry replaced by ``rel`` times the largest."""
    p = np.random.default_rng(5).normal(size=(6, 2))
    p[1] = p[0]
    d = edm_from_coords(p).entries.copy()
    d[0, 1] = d[1, 0] = rel * d.max()
    return d


class TestNegativeEntries:
    """A negative squared distance is rejected relative to the largest
    entry, so certification does not depend on the units of distance."""

    SCALES = [10.0**e for e in range(-8, 9)]

    def test_rounding_size_entry_accepted_at_every_scale(self):
        d = with_coincident_pair(-1e-10)
        dims = {certify_edm(hollow(c * d)).embed_dim for c in self.SCALES}
        assert dims == {2}

    @pytest.mark.parametrize("c", SCALES)
    def test_large_negative_entry_rejected_at_every_scale(self, c):
        with pytest.raises(ValueError, match="negative squared distance"):
            certify_edm(hollow(c * with_coincident_pair(-1e-3)))


class TestEmbeddingExtraction:
    """Coordinates from the top eigenpairs of a minimum-trace kernel, as
    classical_mds extracts them from an EDM."""

    def test_two_point_coords(self):
        # kernel [[1, -1], [-1, 1]], eigenpair (2, (1,-1)/sqrt(2)):
        # coordinates are +-1 up to sign
        e = classical_mds(hollow([[0, 4], [4, 0]]), 1).embedding
        assert np.allclose(np.abs(e.coords.ravel()), [1.0, 1.0])
        assert e.coords[0, 0] * e.coords[1, 0] == pytest.approx(-1.0)

    def test_zero_kernel(self):
        e = classical_mds(hollow(np.zeros((3, 3))), 2).embedding
        assert np.array_equal(e.coords, np.zeros((3, 2)))

    def test_full_rank_round_trip(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 12))
            d = random_edm(rng, n, int(rng.integers(1, 4)))
            e = classical_mds(d, n - 1).embedding
            back = edm_from_coords(e)
            assert np.allclose(back.entries, d.entries,
                               rtol=1e-8, atol=1e-10 * max(d.entries.max(), 1))


class TestEdmFromCoords:
    def test_two_points(self):
        d = edm_from_coords(np.array([[0.0], [1.0]]))
        assert np.array_equal(d.entries, [[0.0, 1.0], [1.0, 0.0]])

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
           k=st.integers(1, 3), shift=st.floats(0.0, 8.0))
    def test_translation_invariance(self, seed, n, k, shift):
        # a rotated and translated cloud, shifted by up to 1e8, has the
        # distances of the cloud up to the rounding r of its coordinates:
        # each moves by at most 2 sqrt(k) r, so d_ij by about
        # 4 sqrt(k) r sqrt(d_ij), as the coordinates are centered before
        # their Gram product
        rng = np.random.default_rng(seed)
        p = random_cloud(rng, n, k)
        moved, r = rigid_motion(rng, p, 10.0**shift)
        want = edm_from_coords(p).entries
        got = edm_from_coords(moved)
        assert got.embed_dim == edm_from_coords(p).embed_dim
        bound = 8 * np.sqrt(k) * r * np.sqrt(want.max()) + 1e-14 * want.max()
        assert np.abs(got.entries - want).max() <= bound

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
           k=st.integers(1, 3), shift=st.floats(0.0, 8.0))
    def test_from_points_centers_any_offset(self, seed, n, k, shift):
        # points rotated and translated by up to 1e8 are centered to
        # rounding, so the Embedding check accepts them, and keep the
        # distances of the cloud as edm_from_coords of the array does
        rng = np.random.default_rng(seed)
        p = random_cloud(rng, n, k)
        moved, r = rigid_motion(rng, p, 10.0**shift)
        e = Embedding.from_points(moved)
        assert np.abs(e.coords.sum(axis=0)).max() <= (
            4 * n * np.finfo(float).eps * np.abs(e.coords).max())
        want = edm_from_coords(p).entries
        got = edm_from_coords(e)
        assert np.array_equal(got.entries, edm_from_coords(moved).entries)
        bound = 8 * np.sqrt(k) * r * np.sqrt(want.max()) + 1e-14 * want.max()
        assert np.abs(got.entries - want).max() <= bound

    @pytest.mark.parametrize("shift", [0.0, 1e4, 1e6, 1e8])
    def test_offset_coordinates_certify_from_their_gram(self, shift):
        # the centered coordinates are a factor of the kernel to rounding
        # at any offset, so the k x k spectrum of their Gram decides it
        with eig_counts() as calls:
            d = edm_from_coords(helix_coords(100) + shift)
        assert calls.shapes == [("eigvalsh", (3, 3))]
        assert d.embed_dim == 3

    def test_embed_dim_bounded_by_k(self, rng):
        for k in (1, 2, 3):
            d = edm_from_coords(random_cloud(rng, 10, k))
            assert d.embed_dim <= k

    @pytest.mark.parametrize("points, message", [
        ([[0.0, 0.0], [np.inf, 1.0]], "coordinates must be finite"),
        ([[0.0, 0.0], [np.nan, 1.0]], "coordinates must be finite"),
        # the column sum, then a centered value, past the largest double
        ([[1e308], [1e308]], "centering overflows a double"),
        ([[1.7e308], [-1.7e308], [-1.7e308]], "centering overflows a double"),
    ])
    def test_points_out_of_range_raise_without_warning(self, points,
                                                       message):
        # the suite raises warnings as errors, so a RuntimeWarning of the
        # centering would fail this before ValueError
        with pytest.raises(ValueError, match=message):
            edm_from_coords(points)
        with pytest.raises(ValueError, match=message):
            Embedding.from_points(np.array(points))

    @pytest.mark.parametrize("shape", [(0, 2), (0, 0), (1, 2)])
    def test_fewer_than_two_points_raise_without_warning(self, shape):
        # the mean of no rows warns "Mean of empty slice", which the suite
        # raises as an error before ValueError
        with pytest.raises(ValueError, match="need at least 2 objects"):
            edm_from_coords(np.zeros(shape))


class TestMetrics:
    def test_loss_zero_on_equal(self, rng):
        m = random_hollow(rng, 5)
        assert average_squared_loss(m, m) == 0.0

    def test_loss_single_pair(self):
        a = hollow([[0, 3], [3, 0]])
        b = hollow([[0, 1], [1, 0]])
        assert average_squared_loss(a, b) == pytest.approx(4.0)

    def test_loss_matches_frobenius(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 12))
            a, b = random_hollow(rng, n), random_hollow(rng, n)
            want = np.linalg.norm(a.entries - b.entries) ** 2 / (n * (n - 1))
            assert average_squared_loss(a, b) == pytest.approx(want, rel=1e-12)

    def test_loss_size_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            average_squared_loss(random_hollow(rng, 3), random_hollow(rng, 4))

    def test_stress_zero_and_one(self, rng):
        t = random_edm(rng, 6, 2)
        zero = SymHollowMatrix(np.zeros((6, 6)))
        assert kruskal_stress(t, t) == 0.0
        assert kruskal_stress(zero, t) == pytest.approx(1.0)

    @pytest.mark.parametrize("scale", [1.0, 1e154, 1e300])
    def test_stress_where_the_sum_of_squares_overflows(self, scale):
        # ||truth||_F of entries past 1e154 squares past the largest
        # double; the stress is still the ratio of two doubles
        truth = hollow([[0, scale], [scale, 0]])
        est = hollow([[0, 2 * scale], [2 * scale, 0]])
        assert kruskal_stress(est, truth) == 1.0
        assert kruskal_stress(hollow(np.zeros((2, 2))), truth) == 1.0

    def test_stress_rejects_zero_reference(self):
        zero = hollow(np.zeros((3, 3)))
        with pytest.raises(ZeroDivisionError):
            kruskal_stress(zero, zero)

    def test_stress_loss_consistency(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 10))
            est, truth = random_hollow(rng, n), random_hollow(rng, n)
            stress = kruskal_stress(est, truth)
            loss = average_squared_loss(est, truth)
            lhs = stress**2 * np.linalg.norm(truth.entries) ** 2
            assert lhs == pytest.approx(n * (n - 1) * loss, rel=1e-10)


class TestSimilarityConversion:
    def test_basic_formula(self):
        s = np.array([[5.0, 3.0], [3.0, 5.0]])
        assert similarity_to_dissimilarity(s).entries[0, 1] == pytest.approx(4.0)

    def test_diagonal_similarity(self):
        s = np.diag([2.0, 3.0, 4.0])
        x = similarity_to_dissimilarity(s)
        assert x.entries[0, 1] == pytest.approx(5.0)
        assert x.entries[0, 2] == pytest.approx(6.0)
        assert x.entries[1, 2] == pytest.approx(7.0)

    def test_psd_similarity_gives_edm(self, rng):
        a = rng.normal(size=(6, 4))
        s = a @ a.T
        certify_edm(similarity_to_dissimilarity((s + s.T) / 2.0))

    def test_non_psd_similarity_need_not_be_edm(self):
        s = np.array([[0.0, 4.0, 0.0], [4.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        x = similarity_to_dissimilarity(s)
        with pytest.raises(ValueError):
            certify_edm(x)


def lead_positive_loop(vecs):
    """The column-by-column sign convention that _lead_positive vectorises."""
    vecs = vecs.copy()
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            vecs[:, j] = -col
    return vecs


def _rotated(t):
    # eigenvectors (cos t, sin t) and (-sin t, cos t): with t = 1e-14 the
    # second one leads with an entry below 1e-12
    c, s = np.cos(t), np.sin(t)
    q = np.eye(4)
    q[:2, :2] = [[c, -s], [s, c]]
    return q @ np.diag([4.0, 3.0, 2.0, 1.0]) @ q.T


_SIGN_CASES = {
    "random7": lambda rng: rng.normal(size=(7, 7)),
    "random40": lambda rng: rng.normal(size=(40, 40)),
    "zeros": lambda rng: np.zeros((5, 5)),
    "identity": lambda rng: np.eye(5),
    "ones": lambda rng: np.ones((6, 6)),
    "diagonal": lambda rng: np.diag([0.0, 0.0, -1.0, 2.0]),
    "tiny_lead": lambda rng: _rotated(1e-14),
    "tiny_lead_negated": lambda rng: -_rotated(1e-14),
    "tiny_lead_quarter_turn": lambda rng: _rotated(np.pi / 2 + 1e-14),
    "one_by_one": lambda rng: np.array([[-3.0]]),
    "empty": lambda rng: np.zeros((0, 0)),
}


class TestEighContract:
    """The spectrum that classical scaling reads, -J a J / 2 by the
    eigenpairs of ``_centered_eigh``, with the sign convention of
    ``_lead_positive``."""

    def test_descending_and_deterministic_sign(self, rng):
        a = rng.normal(size=(7, 7))
        a = (a + a.T) / 2.0
        vals, vecs = _centered_eigh(a)
        mu, vecs = -0.5 * vals, _lead_positive(vecs)
        assert np.all(np.diff(mu) <= 1e-12)
        for j in range(6):
            nz = np.flatnonzero(np.abs(vecs[:, j]) > 1e-12)
            assert vecs[nz[0], j] > 0
        assert np.allclose(vecs @ np.diag(mu) @ vecs.T, center_gram(a),
                           atol=1e-12)

    @pytest.mark.parametrize("case", sorted(_SIGN_CASES))
    def test_sign_matches_loop_exactly(self, rng, case):
        # the eigenvectors of a itself, whose cases pin the leading-entry
        # threshold, and those of J a J off the ones vector
        a = _SIGN_CASES[case](rng)
        a = (a + a.T) / 2.0
        spectra = [np.linalg.eigh(a)[1][:, ::-1]]
        if a.size:
            spectra.append(_centered_eigh(a)[1])
        for vecs in spectra:
            got, want = _lead_positive(vecs), lead_positive_loop(vecs)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)
SCALES = st.floats(-8.0, 8.0).map(lambda e: 10.0**e)


def outcome(entries, tol, factor=None):
    """What certify_edm decides: "rejected", or the certified EDM's
    embed_dim, cert_tol, entries and kernel entries."""
    try:
        d = certify_edm(entries, tol, factor)
    except ValueError:
        return "rejected"
    return (d.embed_dim, d.cert_tol, d.entries.tobytes(),
            d.kernel.entries.tobytes())


def kernel_basis(k: int, n: int = 8) -> np.ndarray:
    """k orthonormal columns orthogonal to the ones vector, seeded."""
    z = np.random.default_rng(11).normal(size=(n, k))
    q, _ = np.linalg.qr(np.column_stack((np.ones(n), z)))
    return q[:, 1:]


def edm_of_spectrum(gammas, v: np.ndarray) -> np.ndarray:
    """Squared distances of the kernel V diag(gammas) V^T."""
    k = (v * gammas) @ v.T
    return similarity_to_dissimilarity((k + k.T) / 2.0).entries


class TestFactoredCertificate:
    """Given a factor F of the kernel, certify_edm bounds the kernel's
    spectrum by Weyl's inequality instead of computing it, and decides
    what eigvalsh of the kernel decides; where the bound cannot decide, it
    runs that eigvalsh."""

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), c=SCALES)
    def test_fits_match_eigvalsh(self, seed, n, c):
        # a fit is certified from the eigenpairs its projection ends on
        rng = np.random.default_rng(seed)
        a = rng.normal(loc=1.0, size=(n, n))
        a = c * (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        fit = distance_shrinkage(SymHollowMatrix(a), c * float(rng.uniform(0, n)))
        d = fit.d_hat
        assert outcome(d.entries, d.cert_tol) == (
            d.embed_dim, d.cert_tol, d.entries.tobytes(),
            d.kernel.entries.tobytes())

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
           k=st.integers(1, 14), dup=st.integers(0, 11), c=SCALES)
    def test_clouds_match_eigvalsh(self, seed, n, k, dup, c):
        # random clouds with their first dup + 1 points coincident, k up to
        # and past n - 1
        p = np.random.default_rng(seed).normal(scale=c, size=(n, k))
        p[:dup + 1] = p[0]
        d = edm_from_coords(p)
        assert outcome(d.entries, 1e-8) == (
            d.embed_dim, d.cert_tol, d.entries.tobytes(),
            d.kernel.entries.tobytes())

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12),
           k=st.integers(1, 4), noise=st.floats(-16.0, 0.0))
    def test_perturbed_clouds_match_eigvalsh(self, seed, n, k, noise):
        # distances of a cloud, perturbed by 10**noise of their largest,
        # with the cloud as the factor: accepted and rejected alike
        rng = np.random.default_rng(seed)
        p = random_cloud(rng, n, k)
        d = edm_from_coords(p).entries
        e = rng.normal(size=(n, n))
        e = (e + e.T) / 2
        np.fill_diagonal(e, 0.0)
        x = d + 10.0**noise * d.max() * e
        assert outcome(x, 1e-8, p) == outcome(x, 1e-8)

    def test_orthogonal_factor_needs_no_eigensolver(self):
        v = kernel_basis(3)
        d = edm_of_spectrum([4.0, 2.0, 1.0], v)
        with eig_counts() as calls:
            got = certify_edm(d, 1e-8, v * np.sqrt([4.0, 2.0, 1.0]))
        assert got.embed_dim == 3
        assert calls == {"eigh": 0, "eigvalsh": 0}

    def test_zero_matrix_from_empty_factor(self):
        with eig_counts() as calls:
            got = certify_edm(np.zeros((5, 5)), 1e-8, np.zeros((5, 0)))
        assert got.embed_dim == 0
        assert calls == {"eigh": 0, "eigvalsh": 0}

    def test_rotated_factor_reads_its_gram_spectrum(self):
        # F = V sqrt(G) Q for a rotation Q: F F^T is the kernel, but the
        # diagonal of F^T F puts 1.5e-8 where the spectrum has 0.5e-8,
        # across the threshold 1e-8; its off-diagonal part says so, and
        # the 2 x 2 spectrum of F^T F decides
        gammas = np.array([1.0, 0.5e-8])
        v = kernel_basis(2)
        d = edm_of_spectrum(gammas, v)
        s = 1e-4
        q = np.array([[np.sqrt(1 - s * s), -s], [s, np.sqrt(1 - s * s)]])
        with eig_counts() as calls:
            got = certify_edm(d, 1e-8, (v * np.sqrt(gammas)) @ q)
        assert got.embed_dim == certify_edm(d, 1e-8).embed_dim == 1
        assert calls.shapes == [("eigvalsh", (2, 2))]

    def test_rank_one_perturbed_factor_falls_back(self):
        # an extra column carries 1e-3 of the top eigenvalue that the
        # kernel does not have
        gammas = [4.0, 2.0, 1.0, 0.0]
        v = kernel_basis(4)
        d = edm_of_spectrum(gammas, v)
        factor = v * np.sqrt([4.0, 2.0, 1.0, 1e-3 * 4.0])
        with eig_counts() as calls:
            got = outcome(d, 1e-8, factor)
        assert got == outcome(d, 1e-8)
        assert got[0] == 3
        assert calls.shapes == [("eigvalsh", (4, 4)), ("eigvalsh", (8, 8))]

    @pytest.mark.parametrize("true, claimed", [(0.7e-8, 1.3e-8),
                                               (1.3e-8, 0.7e-8)])
    def test_eigenvalue_near_threshold_falls_back(self, true, claimed):
        # the factor misstates an eigenvalue by 0.6e-8, across the
        # threshold 1e-8 of the top eigenvalue 1: the bound passes the PSD
        # test, but the eigenvalue lies within it of the rank bracket
        v = kernel_basis(3)
        d = edm_of_spectrum([1.0, 0.5, true], v)
        factor = v * np.sqrt([1.0, 0.5, claimed])
        with eig_counts() as calls:
            got = outcome(d, 1e-8, factor)
        assert got == outcome(d, 1e-8)
        assert got[0] == (2 if true < 1e-8 else 3)
        assert calls.shapes[-1] == ("eigvalsh", (8, 8))

    @pytest.mark.parametrize("misstate", ["absolute", "positive part"])
    def test_non_edm_with_misstated_factor_is_rejected(self, rng, misstate):
        # a factor whose F F^T is |K| or the PSD part of K claims a PSD
        # kernel that a non-EDM does not have
        x = np.abs(random_hollow(rng, 9, scale=2.0).entries)
        vals, vecs = np.linalg.eigh(center_gram(x))
        assert vals[0] < -1e-3 * vals[-1]
        if misstate == "absolute":
            factor = vecs * np.sqrt(np.abs(vals))
        else:
            factor = vecs[:, vals > 0] * np.sqrt(vals[vals > 0])
        with pytest.raises(ValueError, match="not an EDM"):
            certify_edm(x, 1e-8, factor)

    @pytest.mark.parametrize("factor", [np.ones(8), np.ones((7, 2))],
                             ids=["1-D", "wrong rows"])
    def test_malformed_factor_is_rejected(self, factor):
        d = edm_of_spectrum([3.0, 1.0], kernel_basis(2))
        with pytest.raises(ValueError, match="factor must be 2-D with 8 rows"):
            certify_edm(d, 1e-8, factor)

    def test_non_finite_factor_falls_back(self):
        v = kernel_basis(2)
        d = edm_of_spectrum([3.0, 1.0], v)
        factor = v * np.sqrt([3.0, 1.0])
        factor[0, 0] = np.nan
        with eig_counts() as calls:
            assert certify_edm(d, 1e-8, factor).embed_dim == 2
        assert calls.shapes[-1] == ("eigvalsh", (8, 8))

    def test_edm_keeps_a_read_only_copy_of_its_factor(self):
        v = kernel_basis(2)
        d = edm_of_spectrum([3.0, 1.0], v)
        factor = v * np.sqrt([3.0, 1.0])
        got = certify_edm(d, 1e-8, factor=factor)
        assert np.array_equal(got.factor, factor)
        assert not got.factor.flags.writeable
        with pytest.raises(ValueError):
            got.factor[0, 0] = 1.0
        kept = got.factor.copy()
        factor[:] = 0.0
        assert np.array_equal(got.factor, kept)
        assert certify_edm(d, 1e-8).factor is None

    def test_fit_keeps_the_factor_that_certified_it(self):
        # the projection hands its factor over, and truncate_rank reads it
        x = SymHollowMatrix(edm_of_spectrum([3.0, 1.0, 0.5], kernel_basis(3)))
        d = distance_shrinkage(x, 0.1).d_hat
        assert not d.factor.flags.writeable
        assert d.factor.shape[0] == 8 and d.factor.shape[1] >= d.embed_dim
        assert np.allclose(d.factor @ d.factor.T, d.kernel.entries,
                           rtol=0.0, atol=1e-12)

    def test_kernel_takes_a_factor(self):
        v = kernel_basis(2)
        k = center_gram(edm_of_spectrum([3.0, 1.0], v))
        with eig_counts() as calls:
            got = MinTraceKernel(k, 1e-8, v * np.sqrt([3.0, 1.0]))
        assert got.rank == MinTraceKernel(k, 1e-8).rank == 2
        assert calls == {"eigh": 0, "eigvalsh": 0}


def plane_kernel(gammas) -> np.ndarray:
    """The 3 x 3 kernel with spectrum ``gammas`` on the centered plane."""
    v = kernel_basis(len(gammas), n=3)
    k = (v * gammas) @ v.T
    return (k + k.T) / 2.0


UNIT_PAIR = np.array([[1.0, -1.0], [-1.0, 1.0]])


@pytest.mark.parametrize("k, rank", [
    (np.zeros((2, 2)), 0),
    (-UNIT_PAIR, None),
    (plane_kernel([-1e-9, 1.0]), 1),
    (plane_kernel([-1e-7, 1.0]), None),
    (5e-324 * UNIT_PAIR, 1),
], ids=["zero", "non-positive top", "within tol", "beyond tol", "subnormal"])
def test_kernel_psd_test_and_rank(k, rank):
    # eigvalsh decides at psd_tol 1e-8 relative to the top eigenvalue; the
    # subnormal spectrum [0, 1e-323] has a threshold that underflows to 0
    if rank is None:
        with pytest.raises(ValueError, match="not PSD"):
            MinTraceKernel(k)
    else:
        assert MinTraceKernel(k).rank == rank
