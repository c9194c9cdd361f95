"""Cone projections: the closed-form C1 projection (checked against the
Householder block form), the EDM projection (checked against a Dykstra
reference), and 3-point analytics."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edmshrink import (
    NotConvergedError,
    SolverConfig,
    SymHollowMatrix,
    analyze_dim3,
    center_gram,
    certify_edm,
    edm_from_coords,
    project_edm_cone,
)
from edmshrink import projection
from edmshrink.core import _distances_from_coords
from edmshrink.projection import (_centered_eigh, _dual_point, _evaluate,
                                  _line_step, _newton_system, _project_from,
                                  project_c1)
from edmshrink.shrinkage import distance_shrinkage

from conftest import (centering, eig_counts, random_cloud, random_edm,
                      random_hollow)


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


def dykstra_reference(a: np.ndarray, tol: float) -> np.ndarray:
    """Nearest EDM to a symmetric ``a`` by Dykstra's alternating projections.

    The reference oracle for project_edm_cone (Gaffke and Mathar, 1989):
    alternate the C1 and C2 projections, keeping the correction increment
    p of C1 only, since C2 is a subspace (Boyle and Dykstra, 1986). A cycle
    is s = Pi_C1(x + p), p = x + p - s, x = Pi_C2(s), where Pi_C2 zeroes
    the diagonal; the loop stops once a cycle moves x by at most
    tol * max(1, ||a||_F).
    """
    x = a.copy()
    p = np.zeros_like(a)
    stop = tol * max(1.0, np.linalg.norm(a))
    for _ in range(1_000_000):
        s = project_c1(x + p)[0]
        p = x + p - s
        np.fill_diagonal(s, 0.0)
        if np.linalg.norm(s - x) <= stop:
            return s
        x = s
    raise AssertionError("Dykstra reference did not converge")


def norm2(a: np.ndarray) -> float:
    """||a||_F^2, so that (1/2) norm2(M) is theta at M = Pi_C1(B)."""
    return float(np.vdot(a, a))


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
            assert np.abs(project_c1(a)[0] - want).max() <= (
                1e-12 * np.linalg.norm(a))

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 40])
    def test_involution(self, rng, n):
        q = householder_reference(n)
        assert np.abs(q @ q - np.eye(n)).max() <= 1e-12
        # Q is its own inverse, so conjugating back recovers the projection
        for _ in range(5):
            a = random_symmetric(rng, n)
            want = householder_block_projection(a, q)
            assert np.abs(project_c1(a)[0] - want).max() <= (
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
            moved = q @ (a - project_c1(a)[0]) @ q
            assert np.abs(moved[-1, :]).max() <= 1e-12 * np.linalg.norm(a)


class TestCenteredEigh:
    """The eigenpairs of J B J off the ones vector, lifted from the leading
    block of H B H: orthonormal, orthogonal to 1, and reproducing J B J.
    Bounds are 4 n eps where the reflection adds to the rounding of
    ``eigh``, whose own eigenvectors are orthonormal only within 2 n eps
    at n = 4."""

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(n=st.integers(2, 40), scale=st.floats(-8.0, 8.0).map(
        lambda e: 10.0**e), seed=st.integers(0, 2**32 - 1),
        shifted=st.booleans())
    def test_lifted_eigenpairs(self, n, scale, seed, shifted):
        gen = np.random.default_rng(seed)
        a = random_symmetric(gen, n, scale)
        y = gen.normal(size=n, scale=scale) if shifted else None
        b = a if y is None else a + np.diag(y)
        vals, vecs = _centered_eigh(a, y)
        eps = np.finfo(float).eps
        assert vals.shape == (n - 1,) and vecs.shape == (n, n - 1)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.abs(vecs.T @ vecs - np.eye(n - 1)).max() <= 4 * n * eps
        assert np.abs(vecs.sum(axis=0)).max() / np.sqrt(n) <= n * eps
        j = centering(n)
        assert np.linalg.norm((vecs * vals) @ vecs.T - j @ b @ j) <= (
            4 * n * eps * np.linalg.norm(b))

    def test_one_object(self):
        # no eigenpair: project_c1 returns its input, and the EDM
        # projection rejects it as SymHollowMatrix does
        m, vals, vecs = project_c1(np.array([[2.5]]))
        assert np.array_equal(m, [[2.5]])
        assert vals.shape == (0,) and vecs.shape == (1, 0)
        with pytest.raises(ValueError, match="need at least 2 objects"):
            project_edm_cone(np.array([[0.0]]))


class TestProjectC1Moreau:
    """Moreau decomposition A = P + (A - P) of the C1 projection P.

    C1 is the polar cone of { M : M PSD, M 1 = 0 }, so A - P must lie in
    that cone and be orthogonal to P; with JPJ NSD this characterizes P.
    """

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 40])
    def test_decomposition(self, rng, n):
        j = centering(n)
        for _ in range(5):
            a = rng.normal(size=(n, n), scale=3.0)
            a = (a + a.T) / 2
            p = project_c1(a)[0]
            r = a - p
            tol = 1e-10 * np.linalg.norm(a)
            assert np.linalg.eigvalsh(j @ p @ j)[-1] <= tol
            assert np.linalg.eigvalsh(r)[0] >= -tol
            assert np.abs(r @ np.ones(n)).max() <= tol
            assert abs(float(np.sum(p * r))) <= tol * np.linalg.norm(a)


class TestProjectC1:
    def test_edm_is_fixed_point(self, rng):
        d = random_edm(rng, 8, 3)
        out = project_c1(d.entries)[0]
        assert np.abs(out - d.entries).max() <= 1e-10 * max(d.entries.max(), 1)

    def test_centering_matrix_clips_to_zero_block(self):
        # Q J Q has identity leading block, which is clipped entirely
        out = project_c1(centering(3))[0]
        jj = centering(3)
        assert np.abs(jj @ out @ jj).max() <= 1e-12

    def test_negative_centering_unchanged(self):
        j = centering(3)
        assert np.abs(project_c1(-j)[0] - (-j)).max() <= 1e-12

    def test_idempotent(self, rng):
        for _ in range(10):
            a = rng.normal(size=(6, 6))
            once = project_c1(a)[0]
            twice = project_c1(once)[0]
            assert np.abs(twice - once).max() <= 1e-10

    def test_returns_spectrum_of_jaj(self, rng):
        for n in (2, 5, 12):
            a = random_symmetric(rng, n)
            _, vals, vecs = project_c1(a)
            j = centering(n)
            assert np.all(np.diff(vals) >= 0)
            assert np.abs((vecs * vals) @ vecs.T - j @ a @ j).max() <= (
                1e-12 * np.linalg.norm(a))

    def test_output_in_c1(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 12))
            a = rng.normal(size=(n, n), scale=3.0)
            out = project_c1(a)[0]
            j = centering(n)
            vals = np.linalg.eigvalsh((j @ out @ j + (j @ out @ j).T) / 2)
            assert vals[-1] <= 1e-10 * max(np.abs(vals).max(), 1.0)


class TestNewtonSystem:
    """The generalized Hessian of the dual against finite differences of its
    gradient y -> diag Pi_C1(A + Diag y), on either side of the split
    between the positive and non-positive eigenvalues of J A J."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("n", [4, 15, 30])
    def test_matches_finite_differences(self, rng, sign, n):
        a = sign * random_edm(rng, n, 3).entries + random_symmetric(rng, n, 0.3)
        y = rng.normal(size=n)

        def grad(y):
            return project_c1(a + np.diag(y))[0].diagonal()

        _, vals, vecs = project_c1(a + np.diag(y))
        eps = 1e-3
        hess, diag = _newton_system(vals, vecs, eps)
        full = np.array([hess(e) for e in np.eye(n)])
        assert np.abs(np.diag(full) - diag).max() <= 1e-12
        for _ in range(3):
            h = rng.normal(size=n)
            step = 1e-6
            fd = (grad(y + step * h) - grad(y - step * h)) / (2 * step)
            assert np.abs(hess(h) - eps * h - fd).max() <= 1e-6 * np.linalg.norm(h)


def dual_point_of_kind(kind: str, rng, n: int):
    """An input X at the penalty eta = 1.5, a dual point z of it of each
    kind the solver visits, and that point as y = z - eta 1 of the shrunk
    A = X - eta (11^T - I), whose C1 projection it describes: evaluated, a
    warm start from the last point of another penalty, the start read off
    a spectrum of J X J, and a line point."""
    x = random_edm(rng, n, 3).entries + random_symmetric(rng, n, 0.3)
    eta = 1.5
    z = rng.normal(size=n)
    if kind == "evaluated":
        pt = _evaluate(x, eta, z)
    elif kind == "line":
        pt = _line_step(_evaluate(x, eta, z), x, eta)
    elif kind == "warm":
        other = _evaluate(x, 0.0, z)
        pt = _dual_point(x, eta, z, other.vals, other.vecs)
    else:
        pt = _dual_point(x, eta, np.zeros(n), *_centered_eigh(x))
    return x - eta * (1.0 - np.eye(n)), pt.z - eta, pt


class TestDualPointFormula:
    """theta and its gradient, read off the eigenpairs of every kind of
    dual point, against (1/2) ||M||_F^2 and diag M of the C1 projection
    M = Pi_C1(A + Diag y)."""

    @pytest.mark.parametrize("kind", ["evaluated", "warm", "spectrum", "line"])
    @pytest.mark.parametrize("n", [3, 12, 30])
    def test_matches_project_c1(self, rng, n, kind):
        a, y, pt = dual_point_of_kind(kind, rng, n)
        m = project_c1(a + np.diag(y))[0]
        scale = np.linalg.norm(m)
        assert abs(pt.theta - 0.5 * scale**2) <= 1e-12 * scale**2
        assert np.abs(pt.g - m.diagonal()).max() <= 1e-12 * scale

    @pytest.mark.parametrize("big", [1e3, 1e6, 1e8])
    @pytest.mark.parametrize("n", [5, 20, 40])
    def test_rounds_relative_to_m(self, rng, n, big):
        # a centred PSD kernel that Pi_C1 removes, at big times the EDM
        # that stays: theta rounds by n eps ||B||_F ||M||_F, where
        # (1/2) (||B||_F^2 - sum of the positive l^2) rounds by
        # eps ||B||_F^2
        p = random_cloud(rng, n, 3)
        a = big * (p @ p.T) + random_edm(rng, n, 3).entries
        y = rng.normal(size=n)
        pt = _evaluate(a, 0.0, y)
        b = a + np.diag(y)
        m = project_c1(b)[0]
        eps = np.finfo(float).eps
        bound = 8 * n * eps * np.linalg.norm(b) * np.linalg.norm(m)
        assert abs(pt.theta - 0.5 * norm2(m)) <= bound


class TestClosingEdm:
    """An evaluated dual point and the close it gives, against the
    formation they replace: M = Pi_C1(A + Diag y) from ``project_c1``,
    theta = (1/2) ||M||_F^2, g = diag M, and the hollow M - (g 1^T +
    1 g^T) / 2, which is the EDM of the factor V_N sqrt(-l_N / 2)."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(n=st.integers(2, 40), exponent=st.floats(-8.0, 8.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_formed_projection(self, n, exponent, seed):
        gen = np.random.default_rng(seed)
        scale = 10.0**exponent
        # entries off centre, so the mean of the row means counts
        a = random_symmetric(gen, n, scale) + gen.uniform(-2.0, 2.0) * scale
        y = gen.normal(scale=scale, size=n)
        pt = _evaluate(a, 0.0, y)
        neg = pt.vals < 0.0
        x = _distances_from_coords(
            pt.vecs[:, neg] * np.sqrt(-0.5 * pt.vals[neg]))
        m = project_c1(a + np.diag(y))[0]
        g = m.diagonal()
        want = m - (g[:, None] + g) / 2.0
        # M and the eigenpairs both round by a few n eps ||A + Diag y||_F
        size = np.linalg.norm(a + np.diag(y))
        tol = 8 * n * np.finfo(float).eps * size
        assert np.abs(x - want).max() <= tol
        assert abs(pt.theta - 0.5 * norm2(m)) <= tol * size
        assert np.abs(pt.g - g).max() <= tol
        assert np.array_equal(x, x.T) and not x.diagonal().any()


class TestShiftedDualPoint:
    """The penalty as one scalar of the dual: the point z of X at the
    penalty c is the point z - c 1 of the shrunk X - c (11^T - I), with
    the eigenpairs of the point z of X at any other penalty, so a fit
    starts from another's last point with no eigendecomposition."""

    @pytest.mark.parametrize("c", [-2.5, 0.1, 3.0])
    @pytest.mark.parametrize("n", [3, 12, 30])
    def test_matches_fresh_evaluation(self, rng, n, c):
        a = random_edm(rng, n, 3).entries + random_symmetric(rng, n, 0.3)
        z = rng.normal(size=n)
        pt = _evaluate(a, 0.0, z)
        shifted = a - c * (1.0 - np.eye(n))
        moved = _dual_point(a, c, z, pt.vals, pt.vecs)
        fresh = _evaluate(shifted, 0.0, z - c)
        scale = np.linalg.norm(project_c1(shifted + np.diag(z - c))[0])
        assert np.abs(moved.g - fresh.g).max() <= 1e-12 * scale
        assert abs(moved.theta - fresh.theta) <= 1e-12 * scale**2
        assert np.abs(moved.vals - fresh.vals).max() <= 1e-12 * scale


def golden_section_min(f, lo: float, hi: float, iters: int = 120) -> float:
    """Minimizer of a convex f on [lo, hi] by golden-section search."""
    inv = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo + (1.0 - inv) * (hi - lo), lo + inv * (hi - lo)
    fa, fb = f(a), f(b)
    for _ in range(iters):
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = lo + (1.0 - inv) * (hi - lo)
            fa = f(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + inv * (hi - lo)
            fb = f(b)
    return (lo + hi) / 2.0


def constant_start(x, eta, vals, vecs):
    """The line step from the point z = 0 of a spectrum of J X J: the best
    constant dual point at the penalty eta, as a fit from that spectrum
    reaches it."""
    z = np.zeros(x.shape[0])
    return _line_step(_dual_point(x, eta, z, vals, vecs), x, eta)


class TestConstantStart:
    """The best constant dual point y = c* 1, read off one spectrum of
    J X J: J (A + c I) J = J A J + c J, so it needs no eigendecomposition
    of its own."""

    @pytest.mark.parametrize("n", [2, 3, 7, 20])
    def test_matches_brute_force_minimizer(self, rng, n):
        for _ in range(3):
            # a nonzero diagonal puts tr A into the slope of theta(c 1)
            a = random_symmetric(rng, n)
            zero = _evaluate(a, 0.0, np.zeros(n))
            start = _line_step(zero, a, 0.0)
            c = float(start.z[0])
            width = float(np.linalg.norm(a))
            brute = golden_section_min(
                lambda t: _evaluate(a, 0.0, np.full(n, t)).theta,
                c - width, c + width)
            assert abs(brute - c) <= 1e-6 * width
            # the shifted spectrum gives the point a fresh eigh gives
            fresh = _evaluate(a, 0.0, start.z)
            assert np.abs(start.g - fresh.g).max() <= 1e-12 * width
            assert abs(start.theta - fresh.theta) <= 1e-12 * width**2
            assert np.abs(np.sort(start.vals) - fresh.vals).max() <= (
                1e-12 * width)

    def test_start_meeting_the_rule_is_decomposed_once(self, rng):
        # the nearest EDM to D - 2 I is D, at the constant dual point
        # y = 2 * ones: the fit evaluates y = 0, moves to that point for
        # free, and closes there, on the shifted spectrum
        d = random_edm(rng, 10, 3)
        with eig_counts() as calls:
            out, diag = project_edm_cone(d.entries - 2.0 * np.eye(10))
        assert calls["eigh"] == diag.cycles == 1 and diag.delta_last == 0.0
        assert np.abs(out.entries - d.entries).max() <= 1e-12 * np.abs(
            d.entries).max()

    @pytest.mark.parametrize("n", [3, 12, 30])
    def test_spectrum_of_unshrunk_input(self, rng, n):
        # the spectrum of J X J serves X at every penalty eta, as the point
        # z = 0, which is y = -eta 1 of X shrunk by eta
        x = random_hollow(rng, n, scale=2.0).entries
        for eta in (0.0, 0.4, 1.5):
            a = x - eta * (1.0 - np.eye(n))
            mine = _line_step(_evaluate(a, 0.0, np.zeros(n)), a, 0.0)
            shared = constant_start(x, eta, *_centered_eigh(x))
            width = np.linalg.norm(a)
            assert abs(shared.z[0] - eta - mine.z[0]) <= 1e-12 * width
            assert np.abs(shared.g - mine.g).max() <= 1e-12 * width
            assert abs(shared.theta - mine.theta) <= 1e-12 * width**2

    @pytest.mark.parametrize("seed", range(20))
    def test_never_above_theta_at_zero(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 30))
        a = random_hollow(gen, n, scale=float(gen.uniform(0.1, 10.0))).entries
        a = a - float(gen.uniform(-1.0, 1.0)) * (1.0 - np.eye(n))
        zero = _evaluate(a, 0.0, np.zeros(n))
        start = _line_step(zero, a, 0.0)
        assert _evaluate(a, 0.0, start.z).theta <= zero.theta

    @pytest.mark.parametrize("x", [
        np.zeros((5, 5)),
        edm_from_coords(np.arange(6.0)[:, None]).entries,
        edm_from_coords(np.sqrt(np.arange(9.0))[:, None]).entries,
    ], ids=["zero", "line6", "line9"])
    @pytest.mark.parametrize("lam", [0.0, 3.0])
    def test_repeated_zero_eigenvalue_starts_cold(self, x, lam):
        # 0 is a repeated eigenvalue of J X J, but the shared spectrum
        # leaves out the ones vector, so the fit line-steps from it as from
        # any other start: X is an EDM, so at lam = 0 the start meets the
        # rule, and at lam = 3 the zero matrix, six points at 0..5 and
        # nine at sqrt(k) take 0, 3 and 3 evaluations (a cold fit 1, 4, 4):
        # the zero matrix's line point meets the rule and closes the fit
        x = SymHollowMatrix(x)
        vals, vecs = _centered_eigh(x.entries)
        assert np.abs(vecs.sum(axis=0)).max() <= 1e-14 * x.n
        with eig_counts() as calls:
            d_hat, diag, _ = _project_from(x, lam / (2 * x.n), None,
                                           [(np.zeros(x.n), vals, vecs)])
        cold = distance_shrinkage(x, lam)
        assert diag.converged
        cycles = {5: 0, 6: 3, 9: 3}[x.n] if lam else 0
        assert calls["eigh"] == diag.cycles == cycles
        assert cold.diagnostics.cycles == ({5: 1, 6: 4, 9: 4}[x.n]
                                           if lam else 1)
        want = dykstra_reference(x.entries - lam / (2 * x.n)
                                 * (1.0 - np.eye(x.n)), 1e-12)
        tol = 1e-8 * max(np.linalg.norm(x.entries), 1.0)
        assert np.linalg.norm(d_hat.entries - want) <= tol
        assert np.linalg.norm(d_hat.entries - cold.d_hat.entries) <= tol
        if lam == 0.0:
            assert np.linalg.norm(d_hat.entries - x.entries) <= tol

    @pytest.mark.parametrize("a", [
        *(np.array(rows) for rows in (
            [[0.0, -3.0], [-3.0, 0.0]], [[0.0, 3.0], [3.0, 0.0]],
            [[5.0, 1.0], [1.0, 5.0]], [[5.0, -1.0], [-1.0, 5.0]])),
        *(random_edm(np.random.default_rng(5), 10, 3).entries
          - c * np.eye(10) for c in (0.5, 2.0, 10.0)),
    ], ids=["two_collapse", "two_edm", "two_diagonal", "two_diagonal_collapse",
            "edm_less_0.5", "edm_less_2", "edm_less_10"])
    def test_line_point_meeting_the_rule_closes_the_fit(self, a):
        # two points with equal diagonal entries, and D - c I, are fitted
        # at a constant dual point: a cold fit evaluates y = 0, moves along
        # the ones vector to the optimum for free, and closes there on the
        # shifted spectrum, or at y = 0 itself where that meets the rule
        with eig_counts() as calls:
            out, diag = project_edm_cone(a)
        assert calls["eigh"] == diag.cycles == 1
        assert diag.converged and diag.delta_last == 0.0
        want = dykstra_reference(a, 1e-12)
        tol = 1e-8 * max(np.linalg.norm(a), 1.0)
        assert np.linalg.norm(out.entries - want) <= tol


class TestLineStep:
    """The move of a dual point y to the minimizer of theta along y + t 1,
    read off the eigenpairs of J (A + Diag y) J with no eigendecomposition."""

    @pytest.mark.parametrize("hollow", [False, True])
    @pytest.mark.parametrize("n", [2, 5, 17, 40])
    def test_matches_evaluation(self, rng, n, hollow):
        for _ in range(3):
            a = random_symmetric(rng, n)
            if hollow:
                np.fill_diagonal(a, 0.0)
            y = rng.normal(size=n)
            line = _line_step(_evaluate(a, 0.0, y), a, 0.0)
            t = float(line.z[0] - y[0])
            assert np.allclose(line.z - y, t, rtol=0.0, atol=1e-15 * abs(t))
            fresh = _evaluate(a, 0.0, line.z)
            # both round relative to B = A + Diag y, which can be far
            # larger than M when most of B is removed
            b = np.linalg.norm(a + np.diag(line.z))
            assert abs(line.theta - fresh.theta) <= 1e-12 * 0.5 * b**2
            assert np.abs(line.g - fresh.g).max() <= 1e-12 * b

    @pytest.mark.parametrize("n", [2, 5, 17])
    def test_minimizes_theta_along_ones(self, rng, n):
        for _ in range(3):
            a = random_symmetric(rng, n)
            line = _line_step(_evaluate(a, 0.0, rng.normal(size=n)), a, 0.0)
            here = _evaluate(a, 0.0, line.z).theta
            for delta in (1e-3, 1e-1, 1.0):
                for sign in (-1.0, 1.0):
                    moved = _evaluate(a, 0.0, line.z + sign * delta).theta
                    assert moved >= here * (1.0 - 1e-14)

    def test_not_converged_at_a_line_point(self, rng):
        # at max_cycles the fit holds a line point, whose eigenvalues are
        # shifted, not computed: the diagnostics describe the last point
        # it evaluated
        x = random_hollow(rng, 8, scale=4.0)
        cfg = SolverConfig(tol=1e-12, max_cycles=2)
        lines, evaluated = [], []

        def line_step(pt, a, eta):
            lines.append(_line_step(pt, a, eta))
            return lines[-1]

        def evaluate(a, eta, z):
            evaluated.append(_evaluate(a, eta, z))
            return evaluated[-1]

        with mock.patch.object(projection, "_line_step", line_step), \
                mock.patch.object(projection, "_evaluate", evaluate), \
                pytest.raises(NotConvergedError) as exc:
            project_edm_cone(x, cfg)
        diag = exc.value.diagnostics
        assert len(evaluated) == diag.cycles == 2
        assert len(lines) == 2 and lines[-1] is not None
        assert np.all(np.isfinite([diag.delta_last, diag.gap,
                                   diag.c2_residual]))
        assert diag.delta_last > 0.0
        assert diag.c2_residual == np.abs(evaluated[-1].g).max()
        half = 0.5 * np.linalg.norm(x.entries) ** 2
        assert -1e-12 * half <= diag.gap < half


class TestDykstraReference:
    """project_edm_cone against the Dykstra oracle run at a tight tolerance."""

    @pytest.mark.parametrize("n", range(2, 21))
    def test_matches_dykstra(self, rng, n):
        for _ in range(3):
            # hollow, mostly positive entries, so the projection is not 0
            a = rng.normal(loc=1.0, size=(n, n)) * rng.uniform(0.1, 10.0)
            a = (a + a.T) / 2
            np.fill_diagonal(a, 0.0)
            want = dykstra_reference(a, 1e-12)
            got, diag = project_edm_cone(a)
            assert diag.converged
            assert np.linalg.norm(got.entries - want) <= (
                1e-6 * np.linalg.norm(want))


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
        cfg = SolverConfig(tol=1e-12, max_cycles=2)
        with pytest.raises(NotConvergedError) as exc:
            project_edm_cone(x, cfg)
        assert exc.value.diagnostics.cycles == 2
        assert not exc.value.diagnostics.converged
        # the closing EDM is feasible at any dual point: weak duality
        half = 0.5 * np.linalg.norm(x.entries) ** 2
        assert -1e-12 * half <= exc.value.diagnostics.gap < half

    @staticmethod
    def rejecting_every_trial(evaluated):
        """``_evaluate``, with every point after the first lying above the
        point it steps from, in theta and in |g|, which is at most
        ||M||_F = sqrt(2 theta) <= sqrt(2 theta_0) at any point the fit
        holds; each point goes into ``evaluated``."""
        def evaluate(a, eta, z):
            pt = _evaluate(a, eta, z)
            if evaluated:
                first = evaluated[0]
                pt = pt._replace(theta=first.theta + 1.0, g=np.full(
                    pt.g.size, np.sqrt(2.0 * first.theta) + 1.0))
            evaluated.append(pt)
            return pt

        return evaluate

    def test_no_accepted_step_says_so(self, rng):
        # every trial is rejected: backtracking runs out with cycles to
        # spare, and the fit closes on its last trial
        x = random_hollow(rng, 8, scale=4.0)
        cfg = SolverConfig()
        evaluated = []
        with mock.patch.object(projection, "_evaluate",
                               self.rejecting_every_trial(evaluated)), \
                pytest.raises(NotConvergedError,
                              match="no accepted step") as exc:
            project_edm_cone(x, cfg)
        diag = exc.value.diagnostics
        assert len(evaluated) == diag.cycles == 1 + projection.MAX_BACKTRACKS
        assert diag.cycles < cfg.max_cycles
        assert not diag.converged and diag.delta_last == 0.0
        assert np.all(np.isfinite([diag.gap, diag.c2_residual]))
        assert diag.c2_residual == np.abs(evaluated[-1].g).max()

    def test_backtracking_stops_at_max_cycles(self, rng):
        # every trial is rejected, and the evaluations run out before
        # backtracking does: the fit stops at max_cycles, not after
        # MAX_BACKTRACKS trials, and closes on its last trial
        x = random_hollow(rng, 8, scale=4.0)
        cfg = SolverConfig(max_cycles=5)
        evaluated = []
        with mock.patch.object(projection, "_evaluate",
                               self.rejecting_every_trial(evaluated)), \
                pytest.raises(NotConvergedError,
                              match="no convergence in 5 cycles") as exc:
            project_edm_cone(x, cfg)
        diag = exc.value.diagnostics
        assert len(evaluated) == diag.cycles == 5 < projection.MAX_BACKTRACKS
        assert not diag.converged and diag.delta_last == 0.0
        assert diag.c2_residual == np.abs(evaluated[-1].g).max()

    @pytest.mark.parametrize("field", ["tol"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_config_rejects_bad_tolerance(self, field, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            SolverConfig(**{field: bad})

    @pytest.mark.parametrize("bad", [1.5, 2.0, True])
    def test_config_rejects_non_integer_max_cycles(self, bad):
        with pytest.raises(ValueError, match="max_cycles must be an integer"):
            SolverConfig(max_cycles=bad)

    def test_config_accepts_numpy_integer_max_cycles(self):
        assert SolverConfig(max_cycles=np.int64(7)).max_cycles == 7

    def test_residuals_within_feas_tol(self, rng):
        # the diagonal removed is max|g| <= |g| <= tol * ||A||_F, and the
        # closing step keeps J X J = J M J, so J X J has no eigenvalue above
        # rounding
        cfg = SolverConfig()
        for _ in range(15):
            n = int(rng.integers(2, 12))
            x = random_hollow(rng, n, scale=2.0)
            out, diag = project_edm_cone(x, cfg)
            assert diag.converged
            scale = np.linalg.norm(x.entries)
            assert diag.c2_residual <= cfg.tol * scale
            j = centering(n)
            assert np.linalg.eigvalsh(j @ out.entries @ j)[-1] <= 1e-14 * scale

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
        cfg = SolverConfig()
        for _ in range(15):
            n = int(rng.integers(3, 10))
            a = random_hollow(rng, n, scale=2.0).entries
            b = random_hollow(rng, n, scale=2.0).entries
            pa, _ = project_edm_cone(a, cfg)
            pb, _ = project_edm_cone(b, cfg)
            lhs = np.linalg.norm(pa.entries - pb.entries)
            slack = 2 * cfg.tol * max(np.linalg.norm(a), np.linalg.norm(b))
            assert lhs <= np.linalg.norm(a - b) + slack


class TestCertificateRounding:
    """A fit just short of collapsing to a point has a tiny spectrum: the
    zero matrix is returned where it lies within the rounding of the
    eigenvalues, of size eps (||A + Diag y||_F + ||P||_F), and otherwise
    the EDM of the factor must pass its certificate with rank 1."""

    def test_near_collapse_sweep(self):
        gen = np.random.default_rng(7)
        for t in range(80):
            size = 10.0 ** gen.uniform(-3.0, 3.0)
            if t % 2:
                x = edm_from_coords(gen.normal(size=(3, 2)) * size)
            else:
                a = np.abs(gen.normal(size=(3, 3))) * size
                a = (a + a.T) / 2.0
                np.fill_diagonal(a, 0.0)
                x = SymHollowMatrix(a)
            eta0 = analyze_dim3(x).eta_to_dim0
            for k in range(5, 12):
                fit = distance_shrinkage(x, 6.0 * eta0 * (1.0 - 10.0**-k))
                assert fit.d_hat.embed_dim == int(fit.d_hat.entries.any())


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
            j = centering(3)
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
            a = analyze_dim3(x)
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

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(u=st.one_of(
        st.lists(st.integers(-2**24, 2**24), min_size=3, max_size=3),
        st.lists(st.integers(-8, 8).map(lambda k: 1.0 + k * 2.0**-52),
                 min_size=3, max_size=3)),
           a=st.integers(-480, 485), b=st.integers(-480, 485))
    def test_power_of_two_equivariance(self, u, a, b):
        # x = 2**(2a) u and 2**(2b) u across the whole double range, for
        # integers |u_ij| <= 2**24 and for entries within 8 ulps of 1,
        # whose differences square to about 2**-104 times the scale: every
        # result scales by exactly 2**(2(b - a)) and the dimension stays
        def at(k):
            m = np.zeros((3, 3))
            m[0, 1], m[0, 2], m[1, 2] = (math.ldexp(v, 2 * k) for v in u)
            return analyze_dim3(SymHollowMatrix(m + m.T))

        x, y = at(a), at(b)
        assert y.dim == x.dim
        for name in ("delta_x", "alpha1", "alpha2", "eta_to_dim1",
                     "eta_to_dim0"):
            assert getattr(y, name) == math.ldexp(getattr(x, name),
                                                  2 * (b - a)), name

    def test_nearly_equal_tiny_entries_keep_delta(self):
        # (x12 - x13)**2 = 2**-1084 flushes to zero unscaled; near 1 the
        # same entries give delta_x = 2**-51, so here it is 2**-541
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 2] = 2.0**-490
        m[0, 2] = 2.0**-490 * (1.0 + 2.0**-52)
        assert analyze_dim3(SymHollowMatrix(m + m.T)).delta_x == 2.0**-541

    def test_projection_characterization_of_center(self, rng):
        # sanity on the analytic eigenvalues: -J X J / 2 has spectrum
        # {alpha1/2, alpha2/2} on the centered plane plus 0 on the ones axis
        for _ in range(20):
            x = random_hollow(rng, 3, scale=2.0)
            a = analyze_dim3(x)
            got = np.sort(np.linalg.eigvalsh(center_gram(x.entries)))
            want = np.sort([a.alpha1 / 2, a.alpha2 / 2, 0.0])
            assert np.allclose(got, want, atol=1e-10)
