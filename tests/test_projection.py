"""Cone projections: the closed-form C1 projection (checked against the Householder block form), Dykstra, and 3-point analytics."""

import numpy as np
import pytest

from edmshrink import (
    DykstraConfig,
    NotConvergedError,
    SymHollowMatrix,
    analyze_dim3,
    center_gram,
    centering_matrix,
    certify_edm,
    project_c1,
    project_c2,
    project_edm_cone,
)

from conftest import random_edm, random_hollow


def hollow(rows) -> SymHollowMatrix:
    return SymHollowMatrix(np.array(rows, dtype=float))


def householder_reference(n: int) -> np.ndarray:
    """Q = I - v v^T / (n + sqrt(n)), v = [1, ..., 1, 1 + sqrt(n)].

    The symmetric reflection sending the ones vector to -sqrt(n) e_n; under
    conjugation by Q the centered plane is the leading (n-1) x (n-1) block.
    """
    v = np.ones(n)
    v[-1] = 1.0 + np.sqrt(n)
    return np.eye(n) - np.outer(v, v) / (n + np.sqrt(n))


def householder_block_projection(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """C1 projection in the Householder block form (Glunt et al., 1990).

    Clips the positive eigenvalues of the leading block of Q a Q and
    leaves its last row and column untouched.
    """
    b = q @ a @ q
    vals, vecs = np.linalg.eigh(b[:-1, :-1])
    b[:-1, :-1] = (vecs * np.minimum(vals, 0.0)) @ vecs.T
    return q @ b @ q


def random_symmetric(rng, n, scale=3.0) -> np.ndarray:
    a = rng.normal(size=(n, n), scale=scale)
    return (a + a.T) / 2


class TestHouseholder:
    """The closed form of project_c1 against the Householder block form."""

    def test_three_point_closed_form(self, rng):
        s3 = np.sqrt(3.0)
        q = np.array([
            [2 + s3, -1, -(1 + s3)],
            [-1, 2 + s3, -(1 + s3)],
            [-(1 + s3), -(1 + s3), -(1 + s3)],
        ]) / (3 + s3)
        assert np.allclose(householder_reference(3), q, atol=1e-14)
        for _ in range(10):
            a = random_symmetric(rng, 3)
            want = householder_block_projection(a, q)
            assert np.abs(project_c1(a) - want).max() <= (
                1e-12 * np.linalg.norm(a))

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 40])
    def test_involution(self, rng, n):
        q = householder_reference(n)
        assert np.abs(q @ q - np.eye(n)).max() <= 1e-12
        # Q is its own inverse, so conjugating back recovers the projection
        for _ in range(5):
            a = random_symmetric(rng, n)
            want = householder_block_projection(a, q)
            assert np.abs(project_c1(a) - want).max() <= (
                1e-12 * np.linalg.norm(a))

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 40])
    def test_sends_ones_to_last_axis(self, rng, n):
        q = householder_reference(n)
        image = q @ np.ones(n)
        want = np.zeros(n)
        want[-1] = -np.sqrt(n)
        assert np.abs(image - want).max() <= 1e-12
        # the projection leaves the ones axis, the last row and column of
        # Q a Q, untouched
        for _ in range(5):
            a = random_symmetric(rng, n)
            moved = q @ (a - project_c1(a)) @ q
            assert np.abs(moved[-1, :]).max() <= 1e-12 * np.linalg.norm(a)


class TestProjectC1Moreau:
    """Moreau decomposition A = P + (A - P) of the C1 projection P.

    C1 is the polar cone of { M : M PSD, M 1 = 0 }, so A - P must lie in
    that cone and be orthogonal to P; with JPJ NSD this characterizes P.
    """

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 40])
    def test_decomposition(self, rng, n):
        j = centering_matrix(n)
        for _ in range(5):
            a = rng.normal(size=(n, n), scale=3.0)
            a = (a + a.T) / 2
            p = project_c1(a)
            r = a - p
            tol = 1e-10 * np.linalg.norm(a)
            assert np.linalg.eigvalsh(j @ p @ j)[-1] <= tol
            assert np.linalg.eigvalsh(r)[0] >= -tol
            assert np.abs(r @ np.ones(n)).max() <= tol
            assert abs(float(np.sum(p * r))) <= tol * np.linalg.norm(a)


class TestProjectC1:
    def test_edm_is_fixed_point(self, rng):
        d = random_edm(rng, 8, 3)
        out = project_c1(d.entries)
        assert np.abs(out - d.entries).max() <= 1e-10 * max(d.entries.max(), 1)

    def test_centering_matrix_clips_to_zero_block(self):
        # Q J Q has identity leading block, which is clipped entirely
        out = project_c1(centering_matrix(3))
        jj = centering_matrix(3)
        assert np.abs(jj @ out @ jj).max() <= 1e-12

    def test_negative_centering_unchanged(self):
        j = centering_matrix(3)
        assert np.abs(project_c1(-j) - (-j)).max() <= 1e-12

    def test_idempotent(self, rng):
        for _ in range(10):
            a = rng.normal(size=(6, 6))
            once = project_c1(a)
            twice = project_c1(once)
            assert np.abs(twice - once).max() <= 1e-10

    def test_output_in_c1(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 12))
            a = rng.normal(size=(n, n), scale=3.0)
            out = project_c1(a)
            j = centering_matrix(n)
            vals = np.linalg.eigvalsh((j @ out @ j + (j @ out @ j).T) / 2)
            assert vals[-1] <= 1e-10 * max(np.abs(vals).max(), 1.0)


class TestProjectC2:
    def test_identity_to_zero(self):
        assert np.array_equal(project_c2(np.eye(3)), np.zeros((3, 3)))

    def test_hollow_unchanged(self, rng):
        m = random_hollow(rng, 5)
        assert np.array_equal(project_c2(m.entries), m.entries)

    def test_example(self):
        out = project_c2(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 1.0], [1.0, 0.0]])


class TestProjectEdmCone:
    def test_edm_fixed_point(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 15))
            d = random_edm(rng, n, int(rng.integers(1, 4)))
            out, diag = project_edm_cone(d.entries)
            assert diag.converged
            norm = np.linalg.norm(d.entries)
            assert np.linalg.norm(out.entries - d.entries) <= 1e-8 * max(norm, 1e-12)

    def test_two_point_closed_form(self):
        out, _ = project_edm_cone(np.array([[0.0, -3.0], [-3.0, 0.0]]))
        assert np.array_equal(out.entries, np.zeros((2, 2)))
        assert out.embed_dim == 0

    def test_triangle_violator_projects_to_line(self):
        # sum 12, spread 18: the classification puts this strictly inside
        # the dim-1 band (-9 < 12 <= 18)
        x = hollow([[0, 1, 10], [1, 0, 1], [10, 1, 0]])
        out, _ = project_edm_cone(x)
        assert out.embed_dim == 1
        assert analyze_dim3(x).dim == 1

    def test_accepts_non_hollow_input(self):
        out, _ = project_edm_cone(np.array([[5.0, 1.0], [1.0, 5.0]]))
        assert np.allclose(out.entries, [[0.0, 1.0], [1.0, 0.0]], atol=1e-8)

    def test_not_converged_carries_diagnostics(self, rng):
        x = random_hollow(rng, 8, scale=4.0)
        cfg = DykstraConfig(tol=1e-12, max_cycles=2, feas_tol=1e-12)
        with pytest.raises(NotConvergedError) as exc:
            project_edm_cone(x, cfg)
        assert exc.value.diagnostics.cycles == 2
        assert not exc.value.diagnostics.converged

    def test_residuals_within_feas_tol(self, rng):
        cfg = DykstraConfig()
        for _ in range(15):
            n = int(rng.integers(2, 12))
            x = random_hollow(rng, n, scale=2.0)
            _, diag = project_edm_cone(x, cfg)
            assert diag.converged
            assert diag.c1_residual <= cfg.feas_tol
            assert diag.c2_residual <= cfg.feas_tol

    def test_kolmogorov_criterion(self, rng):
        # the projection P(A) satisfies <M - P(A), A - P(A)> <= 0 for EDMs M
        for _ in range(15):
            n = int(rng.integers(3, 10))
            a = random_hollow(rng, n, scale=2.0).entries
            proj, _ = project_edm_cone(a)
            for _ in range(10):
                m = random_edm(rng, n, 2, scale=rng.uniform(0.3, 3.0))
                lhs = float(np.sum((m.entries - proj.entries) * (a - proj.entries)))
                bound = 1e-6 * np.linalg.norm(a) * np.linalg.norm(
                    m.entries - proj.entries)
                assert lhs <= bound

    def test_non_expansive(self, rng):
        cfg = DykstraConfig()
        for _ in range(15):
            n = int(rng.integers(3, 10))
            a = random_hollow(rng, n, scale=2.0).entries
            b = random_hollow(rng, n, scale=2.0).entries
            pa, _ = project_edm_cone(a, cfg)
            pb, _ = project_edm_cone(b, cfg)
            lhs = np.linalg.norm(pa.entries - pb.entries)
            assert lhs <= np.linalg.norm(a - b) + 2 * cfg.feas_tol


class TestDim3Analysis:
    def test_equilateral(self):
        a = analyze_dim3(hollow([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
        assert a.delta_x == 0.0
        assert a.alpha1 == pytest.approx(1.0)
        assert a.alpha2 == pytest.approx(1.0)
        assert a.dim == 2
        assert a.eta_to_dim1 == pytest.approx(1.0)
        assert a.eta_to_dim0 == pytest.approx(1.0)

    def test_collinear(self):
        # squared distances of points 0, 1, 2 on a line
        a = analyze_dim3(hollow([[0, 1, 4], [1, 0, 1], [4, 1, 0]]))
        assert a.delta_x == pytest.approx(6.0)
        assert a.dim == 1

    def test_spread_example(self):
        a = analyze_dim3(hollow([[0, 1, 1], [1, 0, 10], [1, 10, 0]]))
        assert a.delta_x == pytest.approx(18.0)
        assert a.alpha1 == pytest.approx(10.0)
        assert a.alpha2 == pytest.approx(-2.0)
        assert a.dim == 1

    def test_rejects_wrong_size(self, rng):
        with pytest.raises(ValueError, match="n = 3"):
            analyze_dim3(random_hollow(rng, 4))

    def test_alpha_identities(self, rng):
        for _ in range(50):
            x = random_hollow(rng, 3, scale=3.0)
            a = analyze_dim3(x)
            s = x.entries[0, 1] + x.entries[0, 2] + x.entries[1, 2]
            assert a.alpha1 + a.alpha2 == pytest.approx(2 * s / 3, abs=1e-12)
            assert a.alpha1 >= a.alpha2
            assert a.eta_to_dim1 <= a.eta_to_dim0
            # alphas are the eigenvalues of -J X J on the centered plane:
            # drop the eigenpair along the ones vector
            j = centering_matrix(3)
            vals, vecs = np.linalg.eigh(-(j @ x.entries @ j))
            ones_axis = np.argmax(np.abs(vecs.sum(axis=0)))
            vals = np.delete(vals, ones_axis)
            assert vals[1] == pytest.approx(a.alpha1, abs=1e-10)
            assert vals[0] == pytest.approx(a.alpha2, abs=1e-10)

    def test_matches_dykstra_dimension(self, rng):
        checked = 0
        while checked < 25:
            x = random_hollow(rng, 3, scale=2.0)
            a = analyze_dim3(x)
            gaps = (abs(a.alpha1), abs(a.alpha2),
                    abs(a.eta_to_dim1), abs(a.eta_to_dim0))
            if min(gaps) < 1e-6:  # knife-edge, excluded
                continue
            out, _ = project_edm_cone(x)
            assert out.embed_dim == a.dim
            checked += 1

    def test_shrinkage_threshold_sweep(self, rng):
        # dimension along the shrinkage path is non-increasing and drops
        # exactly at the two analytic thresholds
        d0 = 1.0 - np.eye(3)
        for _ in range(8):
            p = rng.normal(size=(3, 2))
            x = certify_edm(SymHollowMatrix(
                ((lambda g: g.diagonal()[:, None] + g.diagonal()[None, :] - 2 * g)
                 (p @ p.T) * (1 - np.eye(3)))))
            a = analyze_dim3(x.base)
            assert a.dim == 2 or a.delta_x == pytest.approx(0.0)
            etas = np.linspace(0.0, a.eta_to_dim0 * 1.5, 12)
            margin = 1e-6
            prev_dim = 3
            for eta in etas:
                if (abs(eta - a.eta_to_dim1) < margin
                        or abs(eta - a.eta_to_dim0) < margin):
                    continue
                out, _ = project_edm_cone(x.entries - eta * d0)
                if eta < a.eta_to_dim1:
                    want = 2
                elif eta < a.eta_to_dim0:
                    want = 1
                else:
                    want = 0
                assert out.embed_dim == want
                assert out.embed_dim <= prev_dim
                prev_dim = out.embed_dim

    def test_projection_characterization_of_center(self, rng):
        # sanity on the analytic eigenvalues: -J X J / 2 has spectrum
        # {alpha1/2, alpha2/2} on the centered plane plus 0 on the ones axis
        for _ in range(20):
            x = random_hollow(rng, 3, scale=2.0)
            a = analyze_dim3(x)
            got = np.sort(np.linalg.eigvalsh(center_gram(x.entries)))
            want = np.sort([a.alpha1 / 2, a.alpha2 / 2, 0.0])
            assert np.allclose(got, want, atol=1e-10)
