"""Core types, transforms and metrics."""

import numpy as np
import pytest

from edmshrink import (
    EdmMatrix,
    Embedding,
    MinTraceKernel,
    SymHollowMatrix,
    average_squared_loss,
    certify_edm,
    classical_mds,
    edm_from_coords,
    kruskal_stress,
    similarity_to_dissimilarity,
)
from edmshrink.core import eigh_descending

from conftest import centering, random_cloud, random_edm, random_hollow


def hollow(rows) -> SymHollowMatrix:
    return SymHollowMatrix(np.array(rows, dtype=float))


D0_3 = hollow([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


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
        m = SymHollowMatrix.from_array(a, tol=1e-9)
        assert m.entries[0, 1] == m.entries[1, 0]
        assert m.entries[0, 0] == 0.0

    def test_from_array_rejects_beyond_tol(self):
        a = np.array([[0.0, 1.0], [1.1, 0.0]])
        with pytest.raises(ValueError, match="asymmetry"):
            SymHollowMatrix.from_array(a, tol=1e-9)

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


BAD_TOLS = [np.nan, np.inf, 0.0, -1e-8]
VIOLATOR = [[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]]


class TestToleranceValidation:
    """Every tolerance must be finite and positive: a NaN or infinite one
    passes every comparison against it, so it would certify a triangle
    violator as an EDM or load any asymmetric matrix."""

    @pytest.mark.parametrize("bad", BAD_TOLS)
    @pytest.mark.parametrize("build", [
        lambda tol: certify_edm(hollow(VIOLATOR), tol),
        lambda tol: EdmMatrix(np.array(VIOLATOR), cert_tol=tol),
        lambda tol: MinTraceKernel(-centering(3) / 2.0, psd_tol=tol),
        lambda tol: edm_from_coords(np.array([[0.0], [1.0]]), cert_tol=tol),
        lambda tol: SymHollowMatrix.from_array(
            np.array([[0.0, 1.0], [5.0, 0.0]]), tol=tol),
    ], ids=["certify_edm", "EdmMatrix", "MinTraceKernel", "edm_from_coords",
            "from_array"])
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

    def test_translation_invariance(self, rng):
        p = rng.normal(size=(6, 3))
        d1 = edm_from_coords(p)
        d2 = edm_from_coords(p + np.array([5.0, -2.0, 11.0]))
        assert np.allclose(d1.entries, d2.entries, atol=1e-9)

    def test_embed_dim_bounded_by_k(self, rng):
        for k in (1, 2, 3):
            d = edm_from_coords(random_cloud(rng, 10, k))
            assert d.embed_dim <= k


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


def eigh_descending_loop(a):
    """The column-by-column sign convention that eigh_descending vectorises."""
    vals, vecs = np.linalg.eigh((a + a.T) / 2.0)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            vecs[:, j] = -col
    return vals, vecs


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
    def test_descending_and_deterministic_sign(self, rng):
        a = rng.normal(size=(7, 7))
        a = (a + a.T) / 2.0
        vals, vecs = eigh_descending(a)
        assert np.all(np.diff(vals) <= 1e-12)
        for j in range(7):
            nz = np.flatnonzero(np.abs(vecs[:, j]) > 1e-12)
            assert vecs[nz[0], j] > 0
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T, a, atol=1e-12)

    @pytest.mark.parametrize("case", sorted(_SIGN_CASES))
    def test_sign_matches_loop_exactly(self, rng, case):
        a = _SIGN_CASES[case](rng)
        a = (a + a.T) / 2.0
        vals, vecs = eigh_descending(a)
        ref_vals, ref_vecs = eigh_descending_loop(a)
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(vecs, ref_vecs)
        assert np.array_equal(np.signbit(vecs), np.signbit(ref_vecs))
