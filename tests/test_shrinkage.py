"""Shrinkage estimator, rank truncation, classical-scaling baseline, bounds."""

import json
import tracemalloc
from collections import deque
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edmshrink import (
    MinTraceKernel,
    NoiseModel,
    SolverConfig,
    SymHollowMatrix,
    add_noise,
    analyze_dim3,
    center_gram,
    certify_edm,
    classical_mds,
    distance_shrinkage,
    edm_from_coords,
    fileio,
    helix_coords,
    kruskal_stress,
    objective_value,
    recommended_lambda,
    risk_bound,
    shrinkage_path,
    similarity_to_dissimilarity,
    truncate_rank,
)
from edmshrink import shrinkage
from edmshrink.cli import main
from edmshrink.core import _lead_positive
from edmshrink.simulate import SimConfig, run_experiment

from conftest import (
    eig_counts,
    random_cloud,
    random_edm,
    random_hollow,
    spectral_norm,
    traced_at_eigh,
    traced_peak,
)


def hollow(rows) -> SymHollowMatrix:
    return SymHollowMatrix(np.array(rows, dtype=float))


EQUILATERAL = hollow([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


class TestDistanceShrinkage:
    def test_zero_penalty_fixes_edm(self, rng):
        d = random_edm(rng, 9, 3)
        fit = distance_shrinkage(d, 0.0)
        norm = np.linalg.norm(d.entries)
        assert np.linalg.norm(fit.d_hat.entries - d.entries) <= 1e-8 * norm
        assert fit.eta == 0.0

    def test_equilateral_collapses_at_full_shrinkage(self):
        # eta = lam/(2n) = 1 reaches the dim-0 threshold of the unit triangle
        fit = distance_shrinkage(EQUILATERAL, 6.0)
        assert np.array_equal(fit.d_hat.entries, np.zeros((3, 3)))
        assert fit.d_hat.embed_dim == 0

    def test_interior_eta_gives_line(self):
        x = hollow([[0, 1, 1], [1, 0, 10], [1, 10, 0]])
        a = analyze_dim3(x)
        eta = 0.5 * (max(a.eta_to_dim1, 0.0) + a.eta_to_dim0)
        fit = distance_shrinkage(x, 2 * 3 * eta)
        assert fit.d_hat.embed_dim == 1

    def test_rejects_negative_penalty(self, rng):
        with pytest.raises(ValueError):
            distance_shrinkage(random_hollow(rng, 4), -1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_rejects_non_finite_penalty(self, rng, lam):
        with pytest.raises(ValueError, match="lam must be finite"):
            distance_shrinkage(random_hollow(rng, 4), lam)

    def test_fit_internal_consistency(self, rng):
        for _ in range(5):
            x = random_hollow(rng, 8, scale=2.0)
            lam = float(rng.uniform(0.0, 5.0))
            fit = distance_shrinkage(x, lam)
            assert fit.eta == lam / 16.0
            back = similarity_to_dissimilarity(fit.k_hat.entries)
            scale = max(np.abs(fit.d_hat.entries).max(), 1e-12)
            assert np.abs(back.entries - fit.d_hat.entries).max() <= 1e-10 * scale
            assert np.allclose(fit.k_hat.entries,
                               center_gram(fit.d_hat.entries), atol=1e-14)

    def test_kernel_row_sums_vanish(self, rng):
        for _ in range(5):
            x = random_hollow(rng, 7, scale=2.0)
            fit = distance_shrinkage(x, float(rng.uniform(0.0, 3.0)))
            tr = fit.k_hat.trace()
            if tr > 0:
                assert np.abs(fit.k_hat.entries.sum(axis=1)).max() <= 1e-9 * tr


class TestPermutationEquivariance:
    """Relabelling the objects relabels the fit: the fit of P X P^T is
    P D_hat P^T, with the same embedding dimension."""

    @staticmethod
    def assert_equivariant(x, lam, rng):
        fit = distance_shrinkage(x, lam)
        for _ in range(2):
            p = rng.permutation(x.n)
            moved = distance_shrinkage(
                SymHollowMatrix(x.entries[np.ix_(p, p)]), lam)
            want = fit.d_hat.entries[np.ix_(p, p)]
            err = np.linalg.norm(moved.d_hat.entries - want)
            assert err <= 1e-9 * np.linalg.norm(want)
            assert moved.d_hat.embed_dim == fit.d_hat.embed_dim

    def test_random_hollow(self, rng):
        for n in (5, 12, 30):
            self.assert_equivariant(random_hollow(rng, n, scale=2.0),
                                    float(rng.uniform(0.0, 3.0)), rng)

    def test_noisy_helix(self, rng):
        n, sigma2 = 40, 0.25
        d = edm_from_coords(helix_coords(n))
        x = add_noise(d, NoiseModel("gaussian", sigma2), seed=0)
        self.assert_equivariant(x, recommended_lambda(n, np.sqrt(sigma2)), rng)


@lru_cache(maxsize=None)
def helix_observation(rep: int) -> SymHollowMatrix:
    """Replicate ``rep`` of the n=40 helix at sigma^2 = 0.25, seed 0."""
    d = edm_from_coords(helix_coords(40))
    return add_noise(d, NoiseModel("gaussian", 0.25), seed=0, replicate=rep)


def half_norm2(x: SymHollowMatrix, lam: float) -> float:
    """(1/2) ||A||_F^2 of the projection's input A = X - eta (11^T - I)."""
    a = x.entries - lam / (2 * x.n) * (1.0 - np.eye(x.n))
    return 0.5 * float(np.vdot(a, a))


def assert_gap_small(fit, x: SymHollowMatrix) -> float:
    """The fit's duality gap is >= 0 up to rounding and at most 1e-10 of
    (1/2) ||A||_F^2; returns that half squared norm."""
    half = half_norm2(x, fit.lam)
    assert -1e-12 * half <= fit.diagnostics.gap <= 1e-10 * half
    return half


SCALES = st.floats(-8.0, 8.0).map(lambda e: 10.0**e)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


class TestScaleEquivariance:
    """Scaling the data and the penalty scales the fit: the fit of
    (c X, c lam) is c D_hat for every c > 0, with the same embedding
    dimension, since every tolerance of the solver is relative."""

    @staticmethod
    def assert_equivariant(x, lam, c):
        fit = distance_shrinkage(x, lam)
        x_c = SymHollowMatrix(c * x.entries)
        scaled = distance_shrinkage(x_c, c * lam)
        want = c * fit.d_hat.entries
        err = np.linalg.norm(scaled.d_hat.entries - want)
        assert err <= 1e-8 * np.linalg.norm(want)
        assert scaled.d_hat.embed_dim == fit.d_hat.embed_dim
        half = assert_gap_small(fit, x)
        assert_gap_small(scaled, x_c)
        gap, gap_c = fit.diagnostics.gap, scaled.diagnostics.gap
        assert abs(gap_c - c**2 * gap) <= 1e-12 * c**2 * half
        return scaled

    @PROPERTY
    @given(rep=st.integers(0, 4), factor=st.sampled_from([0.5, 1.0, 2.0]),
           c=SCALES)
    def test_noisy_helix(self, rep, factor, c):
        lam = factor * recommended_lambda(40, 0.5)
        x = helix_observation(rep)
        scaled = self.assert_equivariant(x, lam, c)
        assert scaled.d_hat.cert_tol == 1e-8
        # the gap of 1.02 d_hat at the same dual point is far from zero
        x_c = SymHollowMatrix(c * x.entries)
        a = x_c.entries - scaled.eta * (1.0 - np.eye(x.n))
        d = scaled.d_hat.entries
        off = scaled.diagnostics.gap + 0.5 * (
            np.linalg.norm(1.02 * d - a)**2 - np.linalg.norm(d - a)**2)
        assert off > 1e-6 * half_norm2(x_c, scaled.lam)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), c=SCALES)
    def test_random_hollow(self, seed, n, c):
        rng = np.random.default_rng(seed)
        # mostly positive entries, so that most fits are not zero
        a = rng.normal(loc=1.0, size=(n, n))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        self.assert_equivariant(SymHollowMatrix(a), float(rng.uniform(0, n)), c)

    @PROPERTY
    @given(value=st.floats(0.1, 10.0), sign=st.sampled_from([-1.0, 1.0]),
           c=SCALES)
    def test_two_points(self, value, sign, c):
        # the nearest EDM to [[0, x], [x, 0]] keeps max(x, 0)
        x = sign * value
        scaled = self.assert_equivariant(hollow([[0, x], [x, 0]]), 0.0, c)
        want = c * max(x, 0.0)
        assert abs(scaled.d_hat.entries[0, 1] - want) <= 1e-12 * c * value
        assert scaled.d_hat.embed_dim == (1 if x > 0 else 0)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), c=SCALES)
    def test_three_points(self, seed, c):
        x = random_hollow(np.random.default_rng(seed), 3, scale=2.0)
        info = analyze_dim3(x)
        gaps = (abs(info.alpha1), abs(info.alpha2),
                abs(info.eta_to_dim1), abs(info.eta_to_dim0))
        assume(min(gaps) >= 1e-6)  # knife edge, excluded
        scaled = self.assert_equivariant(x, 0.0, c)
        assert scaled.d_hat.embed_dim == info.dim


def mostly_positive_hollow(seed: int, n: int) -> SymHollowMatrix:
    """Random symmetric hollow matrix whose entries are mostly positive, so
    that most of its fits are not zero."""
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=1.0, size=(n, n))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    return SymHollowMatrix(a)


def assert_fit_is(got, want, c=1.0, p=None, rtol=1e-9):
    """``got`` is the fit ``want`` scaled by c, with its objects in the
    order p: penalty times c, entries within rtol in relative Frobenius
    norm, and the same embedding dimension."""
    assert got.lam == pytest.approx(c * want.lam, rel=1e-15)
    target = c * want.d_hat.entries
    if p is not None:
        target = target[np.ix_(p, p)]
    err = np.linalg.norm(got.d_hat.entries - target)
    assert err <= rtol * np.linalg.norm(target)
    assert got.d_hat.embed_dim == want.d_hat.embed_dim


def grid_of(seed: int, n: int) -> list[float]:
    """Three distinct penalties in [0, n), in no particular order."""
    return [float(v) for v in np.random.default_rng([seed, 1]).uniform(0, n, 3)]


class TestGapBoundsDistance:
    """The objective is 1-strongly convex, so the gap reported for the
    returned matrix X bounds (1/2) ||X - X*||_F^2 at every tolerance,
    including when X is the zero matrix; X* is read off a tol 1e-12 fit
    up to that fit's own gap."""

    @PROPERTY
    @given(n=st.integers(3, 30), rep=st.integers(0, 3),
           factor=st.floats(0.25, 4.0), c=SCALES,
           tol=st.floats(-12.0, -1.0).map(lambda e: 10.0**e))
    def test_noisy_helix(self, n, rep, factor, c, tol):
        d = edm_from_coords(helix_coords(n))
        noisy = add_noise(d, NoiseModel("gaussian", 0.25), seed=1,
                          replicate=rep)
        x = SymHollowMatrix(c * noisy.entries)
        lam = c * factor * recommended_lambda(n, 0.5)
        fit = distance_shrinkage(x, lam, SolverConfig(tol=tol))
        best = distance_shrinkage(x, lam, SolverConfig(tol=1e-12))
        gap, best_gap = fit.diagnostics.gap, best.diagnostics.gap
        half = half_norm2(x, lam)
        assert -1e-12 * half <= gap and -1e-12 * half <= best_gap
        dist = np.linalg.norm(fit.d_hat.entries - best.d_hat.entries)
        bound = np.sqrt(2 * max(gap, 0.0)) + np.sqrt(2 * max(best_gap, 0.0))
        assert dist <= bound + 1e-7 * np.sqrt(half)


class TestPermutationProperty:
    """Permutation equivariance of single and path fits over random
    inputs: the fits of P X P^T are the fits of X, permuted."""

    @staticmethod
    def permuted(x: SymHollowMatrix, seed: int):
        p = np.random.default_rng([seed, 2]).permutation(x.n)
        return p, SymHollowMatrix(x.entries[np.ix_(p, p)])

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30))
    def test_distance_shrinkage(self, seed, n):
        x = mostly_positive_hollow(seed, n)
        lam = grid_of(seed, n)[0]
        p, moved = self.permuted(x, seed)
        fit, moved_fit = distance_shrinkage(x, lam), distance_shrinkage(moved, lam)
        assert_fit_is(moved_fit, fit, p=p)
        # the gap is invariant: permuting A permutes X and keeps theta
        half = assert_gap_small(fit, x)
        assert abs(moved_fit.diagnostics.gap - fit.diagnostics.gap) <= (
            1e-12 * half)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30))
    def test_shrinkage_path(self, seed, n):
        x = mostly_positive_hollow(seed, n)
        grid = grid_of(seed, n)
        p, moved = self.permuted(x, seed)
        fits = list(shrinkage_path(x, grid))
        moved_fits = list(shrinkage_path(moved, grid))
        assert [f.lam for f in fits] == sorted(grid)
        for got, want in zip(moved_fits, fits):
            assert_fit_is(got, want, p=p)
            half = assert_gap_small(want, x)
            assert abs(got.diagnostics.gap - want.diagnostics.gap) <= (
                1e-12 * half)


def assert_gaps_scale(got, x_c, want, x, c):
    """Both fits have small gaps, and the fit of (c X, c lam) has c^2
    times the gap of the fit of (X, lam)."""
    half = assert_gap_small(want, x)
    assert_gap_small(got, x_c)
    assert abs(got.diagnostics.gap - c**2 * want.diagnostics.gap) <= (
        1e-12 * c**2 * half)


class TestPathScaleEquivariance:
    """The path of (c X, c grid) is c times the path of (X, grid): the
    shift between penalties scales with them, and every stopping test is
    relative."""

    @PROPERTY
    @given(rep=st.integers(0, 4), c=SCALES)
    def test_noisy_helix(self, rep, c):
        x = helix_observation(rep)
        grid = [f * recommended_lambda(40, 0.5) for f in (0.5, 1.0, 2.0)]
        x_c = SymHollowMatrix(c * x.entries)
        scaled = shrinkage_path(x_c, [c * lam for lam in grid])
        for got, want in zip(scaled, shrinkage_path(x, grid)):
            assert_fit_is(got, want, c, rtol=1e-8)
            assert got.d_hat.cert_tol == 1e-8
            assert_gaps_scale(got, x_c, want, x, c)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), c=SCALES)
    def test_random_hollow(self, seed, n, c):
        x = mostly_positive_hollow(seed, n)
        grid = grid_of(seed, n)
        x_c = SymHollowMatrix(c * x.entries)
        scaled = shrinkage_path(x_c, [c * lam for lam in grid])
        for got, want in zip(scaled, shrinkage_path(x, grid)):
            assert_fit_is(got, want, c, rtol=1e-8)
            assert_gaps_scale(got, x_c, want, x, c)


def kkt_residuals(x: SymHollowMatrix, d_hat: np.ndarray, lam: float):
    """Dual infeasibility and complementarity of a fit, relative to ||X||_F.

    D_hat solves the penalized problem iff G = D_hat - X + eta (11^T - I),
    with a zero diagonal, has a PSD Laplacian Diag(G1) - G (G lies in the
    dual of the EDM cone) and <G, D_hat> = 0.
    """
    n = x.n
    g = d_hat - x.entries + lam / (2.0 * n) * (1.0 - np.eye(n))
    np.fill_diagonal(g, 0.0)
    laplacian = np.diag(g.sum(axis=1)) - g
    scale = np.linalg.norm(x.entries)
    dual = max(0.0, -float(np.linalg.eigvalsh(laplacian)[0])) / scale
    return dual, abs(float(np.sum(g * d_hat))) / scale**2


class TestKktCertificate:
    """Each fit satisfies the optimality conditions of the penalized problem
    to 1e-9 of ||X||_F."""

    @pytest.mark.parametrize("n", [5, 20, 60])
    def test_noisy_edm(self, rng, n):
        d = random_edm(rng, n, 3, scale=2.0)
        for rep, factor in enumerate((0.0, 0.5, 1.0, 2.0)):
            x = add_noise(d, NoiseModel("gaussian", 0.25), seed=3,
                          replicate=rep)
            lam = factor * recommended_lambda(n, 0.5)
            dual, comp = kkt_residuals(x, distance_shrinkage(x, lam).d_hat.entries,
                                       lam)
            assert dual <= 1e-9 and comp <= 1e-9

    def test_noisy_helix(self):
        n, sigma2 = 40, 0.25
        d = edm_from_coords(helix_coords(n))
        lam = recommended_lambda(n, np.sqrt(sigma2))
        for rep in range(3):
            x = add_noise(d, NoiseModel("gaussian", sigma2), seed=0,
                          replicate=rep)
            dual, comp = kkt_residuals(
                x, distance_shrinkage(x, lam).d_hat.entries, lam)
            assert dual <= 1e-9 and comp <= 1e-9


class TestObjective:
    def test_zero_at_truth_without_penalty(self, rng):
        d = random_edm(rng, 6, 2)
        assert objective_value(d, d, 0.0) == 0.0

    def test_zero_estimate(self, rng):
        x = random_hollow(rng, 5)
        zero = certify_edm(SymHollowMatrix(np.zeros((5, 5))))
        want = 0.5 * np.linalg.norm(x.entries) ** 2
        assert objective_value(zero, x, 3.0) == pytest.approx(want)

    @pytest.mark.filterwarnings("error")
    def test_where_the_sum_of_squares_overflows(self):
        # two squares of 1.2e154 sum past the largest double, but half
        # their sum, 1.44e308, is a double; half of two of 1e160 is not
        zero = certify_edm(SymHollowMatrix(np.zeros((2, 2))))
        x = SymHollowMatrix(-1.2e154 * (1.0 - np.eye(2)))
        assert objective_value(zero, x, 1.0) == pytest.approx(1.44e308,
                                                              rel=1e-15)
        x = SymHollowMatrix(1e160 * (1.0 - np.eye(2)))
        assert objective_value(zero, x, 1.0) == np.inf

    def test_trace_term_nonnegative_for_edms(self, rng):
        for _ in range(10):
            d = random_edm(rng, 6, 3)
            base = objective_value(d, d, 0.0)
            with_penalty = objective_value(d, d, 2.0)
            assert with_penalty >= base

    def test_fit_beats_random_competitors(self, rng):
        for _ in range(5):
            n = int(rng.integers(4, 10))
            x = random_hollow(rng, n, scale=2.0)
            lam = float(rng.uniform(0.1, 2.0))
            fit = distance_shrinkage(x, lam)
            f_hat = objective_value(fit.d_hat, x, lam)
            for _ in range(20):
                m = random_edm(rng, n, int(rng.integers(1, 4)),
                               scale=rng.uniform(0.2, 2.0))
                f_m = objective_value(m, x, lam)
                assert f_hat <= f_m + 1e-6 * (1.0 + abs(f_m))

    def test_size_mismatch(self, rng):
        with pytest.raises(ValueError):
            objective_value(random_edm(rng, 4, 2), random_hollow(rng, 5), 1.0)


class TestEdmMatrixInput:
    """An EdmMatrix is a SymHollowMatrix: it goes into every function that
    takes observations and gives the results of its entries."""

    @pytest.mark.parametrize("n", [3, 9])
    def test_same_results_as_its_entries(self, rng, n):
        d, other = random_edm(rng, n, 2), random_edm(rng, n, 2)
        plain = SymHollowMatrix(d.entries)
        assert isinstance(d, SymHollowMatrix)
        assert d.embed_dim == d.kernel.rank
        got, want = distance_shrinkage(d, 0.5), distance_shrinkage(plain, 0.5)
        assert np.array_equal(got.d_hat.entries, want.d_hat.entries)
        for got, want in zip(shrinkage_path(d, [0.5, 2.0]),
                             shrinkage_path(plain, [0.5, 2.0]), strict=True):
            assert np.array_equal(got.d_hat.entries, want.d_hat.entries)
        assert kruskal_stress(d, other) == kruskal_stress(plain, other)
        assert kruskal_stress(other, d) == kruskal_stress(other, plain)
        if n == 3:
            assert analyze_dim3(d) == analyze_dim3(plain)


class TestPenaltyAndBound:
    def test_reference_values(self):
        assert recommended_lambda(100, 1.0) == pytest.approx(44.0)
        assert recommended_lambda(5, 0.0) == 0.0
        assert recommended_lambda(91, np.sqrt(0.05)) == pytest.approx(
            9.427, abs=1e-3)

    def test_bound_values(self):
        assert risk_bound(50, 0.5, 3) == pytest.approx(1800.0)
        assert risk_bound(50, 0.0, 3) == 0.0
        # linear growth in r
        diffs = np.diff([risk_bound(10, 1.0, r) for r in range(1, 6)])
        assert np.allclose(diffs, diffs[0])

    def test_bound_overflows_to_inf(self):
        # a square that overflows gives inf, as everywhere in the package
        assert risk_bound(10, 1e200, 3) == np.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            recommended_lambda(1, 1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma"):
                recommended_lambda(10, bad)
        with pytest.raises(ValueError):
            risk_bound(10, -1.0, 2)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma"):
                risk_bound(10, bad, 2)


class TestTruncateRank:
    def test_low_rank_fit_unchanged(self, rng):
        d = random_edm(rng, 8, 2)
        fit = distance_shrinkage(d, 0.0)
        tr = truncate_rank(fit, 3)
        scale = max(np.abs(fit.d_hat.entries).max(), 1e-12)
        assert np.abs(tr.d_hat_r.entries - fit.d_hat.entries).max() <= 1e-8 * scale

    def test_rank_one_of_two_eigenvalues(self, rng):
        # kernel 3 u1 u1^T + 1 u2 u2^T truncates to 3 u1 u1^T
        u1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        u2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6)
        k = 3 * np.outer(u1, u1) + np.outer(u2, u2)
        k = (k + k.T) / 2
        d = certify_edm(similarity_to_dissimilarity(MinTraceKernel(k).entries))
        fit = distance_shrinkage(d, 0.0)
        tr = truncate_rank(fit, 1)
        want = similarity_to_dissimilarity(MinTraceKernel(
            (lambda a: (a + a.T) / 2)(3 * np.outer(u1, u1))).entries)
        assert np.allclose(tr.d_hat_r.entries, want.entries, atol=1e-7)

    def test_embedding_reproduces_truncated_edm(self, rng):
        for _ in range(5):
            x = random_hollow(rng, 9, scale=2.0)
            fit = distance_shrinkage(x, 0.5)
            tr = truncate_rank(fit, 3)
            back = edm_from_coords(tr.embedding)
            scale = max(np.abs(tr.d_hat_r.entries).max(), 1e-12)
            assert np.abs(back.entries - tr.d_hat_r.entries).max() <= 1e-10 * scale
            assert tr.d_hat_r.embed_dim <= 3
            assert tr.embedding.coords.shape[1] == 3

    def test_minimizes_centered_error(self, rng):
        # Eckart-Young in the doubly-centered metric
        for _ in range(5):
            x = random_hollow(rng, 8, scale=2.0)
            fit = distance_shrinkage(x, 0.3)
            r = 2
            tr = truncate_rank(fit, r)
            best = np.linalg.norm(
                center_gram(fit.d_hat.entries - tr.d_hat_r.entries))
            for _ in range(20):
                m = random_edm(rng, 8, r, scale=rng.uniform(0.2, 2.0))
                other = np.linalg.norm(
                    center_gram(fit.d_hat.entries - m.entries))
                assert best <= other + 1e-9

    def test_zero_fit_truncates_to_zero(self, rng, tmp_path):
        # negative observations project to a tiny matrix, snapped to zero:
        # its coordinates are exactly 0, written as 0 and never as -0
        for n in range(3, 13):
            a = -np.abs(random_hollow(rng, n).entries)
            fit = distance_shrinkage(SymHollowMatrix(a), 1.0)
            assert not fit.d_hat.entries.any()
            coords = truncate_rank(fit, 2).embedding.coords
            assert np.array_equal(coords, np.zeros((n, 2)))
            fileio.save_embedding(coords, tmp_path / "fit.csv")
            assert (tmp_path / "fit.csv").read_text() == (
                "# squared-distance convention; centered coordinates\n"
                + "0,0\n" * n)

    def test_matches_eigh_of_the_kernel(self, rng):
        # the kept factor gives the coordinates, signs included, that the
        # top eigenpairs of k_hat give where its spectrum is well separated
        for _ in range(5):
            fit = distance_shrinkage(random_edm(rng, 10, 5), 0.1)
            got = truncate_rank(fit, 3).embedding.coords
            vals, vecs = np.linalg.eigh(fit.k_hat.entries)
            vals, vecs = vals[::-1], _lead_positive(vecs[:, ::-1])
            assert np.diff(vals[:4]).max() < -1e-3 * vals[0]
            want = vecs[:, :3] * np.sqrt(vals[:3])
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_pads_past_the_embedding_dimension(self, rng):
        # a shrunk planar cloud has embed_dim 2, though its factor may
        # carry the ones vector at a rounding-level eigenvalue; the
        # columns past embed_dim are 0, never -0
        for _ in range(5):
            fit = distance_shrinkage(random_edm(rng, 10, 2), 0.5)
            assert fit.d_hat.embed_dim == 2
            pad = truncate_rank(fit, 5).embedding.coords[:, 2:]
            assert not pad.any() and not np.signbit(pad).any()

    def test_rank_validation(self, rng):
        fit = distance_shrinkage(random_hollow(rng, 5), 0.0)
        with pytest.raises(ValueError):
            truncate_rank(fit, 0)
        with pytest.raises(ValueError):
            truncate_rank(fit, 5)


class TestClassicalMds:
    def test_recovers_exact_low_rank(self, rng):
        for k in (1, 2, 3):
            d = random_edm(rng, 9, k)
            fit = classical_mds(d, 3)
            norm = np.linalg.norm(d.entries)
            assert np.linalg.norm(fit.d_hat_r.entries - d.entries) <= 1e-8 * norm

    def test_equilateral_rank_two(self):
        fit = classical_mds(EQUILATERAL, 2)
        assert np.allclose(fit.d_hat_r.entries, EQUILATERAL.entries, atol=1e-10)

    def test_non_edm_input_is_handled(self, rng):
        x = random_hollow(rng, 7, scale=2.0)
        fit = classical_mds(x, 3)
        assert fit.d_hat_r.embed_dim <= 3

    def test_rank_validation(self, rng):
        with pytest.raises(ValueError):
            classical_mds(random_hollow(rng, 5), 5)


class TestRankBound:
    """d_hat_r is certified against its r columns as the factor, so its
    embedding dimension is at most r with no check of its own."""

    @staticmethod
    def observation(rng, kind: str) -> SymHollowMatrix:
        # a random cloud of n - 1 dimensions, whose fits the truncation
        # cuts at every r
        n = 9
        if kind == "random":
            return random_edm(rng, n, n - 1)
        if kind == "rank-1":
            return random_edm(rng, n, 1)
        return SymHollowMatrix(np.zeros((n, n)))

    @pytest.mark.parametrize("kind", ["random", "rank-1", "all-zero"])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_embed_dim_at_most_r(self, rng, kind, r):
        x = self.observation(rng, kind)
        for fit in (classical_mds(x, r),
                    truncate_rank(distance_shrinkage(x, 0.1), r)):
            assert fit.embedding.coords.shape[1] == r
            assert fit.d_hat_r.embed_dim <= r
            if kind == "random":
                assert fit.d_hat_r.embed_dim == r


class TestEigensolverCalls:
    """One eigh per evaluation of the projection's dual, and no n x n
    spectrum for a certification: a fit is certified from the eigenpairs
    its projection ends on, and coordinates from their k x k Gram."""

    def test_converged_fit(self, rng):
        d = random_edm(rng, 30, 3, scale=3.0)
        x = add_noise(d, NoiseModel("gaussian", 0.25), seed=5, replicate=0)
        with eig_counts() as calls:
            fit = distance_shrinkage(x, recommended_lambda(30, 0.5))
        assert fit.diagnostics.converged
        assert fit.d_hat.cert_tol == 1e-8
        assert calls["eigh"] == fit.diagnostics.cycles
        assert fit.diagnostics.cycles <= 30
        assert calls["eigvalsh"] == 0
        assert set(calls.shapes) == {("eigh", (29, 29))}

    def test_unit_helix_fits_certify_tightly(self):
        # n = 40 helix at sigma^2 = 0.25: every fit is certified at the
        # tight EDM tolerance, from its factor with no eigvalsh
        n, sigma2 = 40, 0.25
        d = edm_from_coords(helix_coords(n))
        lam = recommended_lambda(n, np.sqrt(sigma2))
        for rep in range(5):
            x = add_noise(d, NoiseModel("gaussian", sigma2), seed=0,
                          replicate=rep)
            for factor in (0.5, 1.0, 2.0):
                with eig_counts() as calls:
                    fit = distance_shrinkage(x, factor * lam)
                assert fit.d_hat.cert_tol == 1e-8
                assert calls["eigvalsh"] == 0

    def test_classical_mds(self, rng):
        # the rank-r EDM is built and certified when it is read; its
        # coordinates are principal axes, whose orthogonal columns bound
        # the spectrum with no eigvalsh
        x = random_hollow(rng, 12, scale=2.0)
        with eig_counts() as calls:
            classical_mds(x, 3).d_hat_r
        assert calls == {"eigh": 1, "eigvalsh": 0}
        assert calls.shapes == [("eigh", (11, 11))]

    def test_fit_snapped_to_zero(self, rng):
        # a penalty that collapses the fit certifies the zero matrix from
        # a factor with no column
        x = random_hollow(rng, 12, scale=2.0)
        with eig_counts() as calls:
            fit = distance_shrinkage(x, 1e6)
        assert not fit.d_hat.entries.any() and fit.d_hat.embed_dim == 0
        assert calls == {"eigh": fit.diagnostics.cycles, "eigvalsh": 0}

    def test_truncate_rank(self, rng):
        # coordinates alone: the eigenpairs the fit kept from its
        # projection, no eigendecomposition and no certification
        fit = distance_shrinkage(random_hollow(rng, 12, scale=2.0), 0.5)
        with eig_counts() as calls:
            truncate_rank(fit, 3)
        assert calls == {"eigh": 0, "eigvalsh": 0}

    @pytest.mark.parametrize("reps", [1, 3])
    def test_simulate_shares_one_spectrum_per_replicate(self, reps):
        # per replicate: one eigh for the baseline and the fit's start and
        # the fit's evaluations, whose last one certifies it; the truth,
        # built from coordinates, is not certified
        cfg = SimConfig(reps=reps, seed=3, noise=NoiseModel("gaussian", 0.25),
                        sigma=0.5)
        with eig_counts() as calls:
            report = run_experiment(helix_coords(40), cfg)
        cycles = sum(r.cycles for r in report.replicates)
        assert not report.failed
        assert calls == {"eigh": cycles + reps, "eigvalsh": 0}
        assert set(calls.shapes) == {("eigh", (39, 39))}

    def test_estimate_invocation_certifies_once(self, rng, tmp_path):
        # one estimate --lambda run: the projection's eighs, which also
        # give the coordinates and certify the fit
        d = random_edm(rng, 30, 3, scale=3.0)
        x = add_noise(d, NoiseModel("gaussian", 0.25), seed=5, replicate=0)
        path, out = tmp_path / "x.csv", tmp_path / "fit"
        fileio.save_square_matrix(x.entries, path)
        with eig_counts() as calls:
            assert main(["estimate", "--input", str(path), "--lambda",
                         str(recommended_lambda(30, 0.5)),
                         "--out", str(out)]) == 0
        cycles = json.loads((tmp_path / "fit.diag.json").read_text())["cycles"]
        assert cycles >= 1
        assert calls == {"eigh": cycles, "eigvalsh": 0}


class TestShrinkagePath:
    def test_dimension_monotone_with_breakpoints(self, rng):
        # dimension along lambda is non-increasing with drops at
        # 2n * eta_to_dim1 and 2n * eta_to_dim0
        for _ in range(5):
            p = rng.normal(size=(3, 2))
            d = edm_from_coords(p - p.mean(0))
            a = analyze_dim3(d)
            lam1, lam0 = 6 * a.eta_to_dim1, 6 * a.eta_to_dim0
            prev = 2
            for lam in np.linspace(0.0, lam0 * 1.4, 10):
                if min(abs(lam - lam1), abs(lam - lam0)) < 1e-6:
                    continue
                fit = distance_shrinkage(d, float(lam))
                if lam < lam1:
                    want = 2
                elif lam < lam0:
                    want = 1
                else:
                    want = 0
                assert fit.d_hat.embed_dim == want
                assert fit.d_hat.embed_dim <= prev
                prev = fit.d_hat.embed_dim

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 20),
           k=st.integers(1, 3), sigma=st.floats(0.0, 1.0))
    def test_dimension_never_rises_along_the_path(self, seed, n, k, sigma):
        rng = np.random.default_rng(seed)
        noise = rng.normal(scale=sigma, size=(n, n))
        noise = (noise + noise.T) / 2.0
        np.fill_diagonal(noise, 0.0)
        x = edm_from_coords(random_cloud(rng, n, k)).entries + noise
        # the fit is zero exactly when n eta I dominates J (Diag(X 1) - X) J
        # off the ones vector, eta = lambda / (2n): from lambda = 2 top on.
        # The grid runs to 1.2 times that.
        j = np.eye(n) - 1.0 / n
        top = np.linalg.eigvalsh(j @ (np.diag(x.sum(axis=1)) - x) @ j)[-1]
        grid = np.linspace(0.0, 2.4 * max(top, 0.0), 20).tolist()
        dims = [fit.d_hat.embed_dim
                for fit in shrinkage_path(SymHollowMatrix(x), grid)]
        assert dims[-1] == 0
        assert all(b <= a for a, b in zip(dims, dims[1:])), dims

    def test_penalty_dominates_noise_spectral_norm(self, rng):
        # the recommended penalty exceeds twice the spectral norm of the
        # noise in nearly all replicates once n is moderately large
        n, sigma2 = 50, 0.25
        d = edm_from_coords(random_cloud(rng, n, 3))
        lam = recommended_lambda(n, np.sqrt(sigma2))
        hits = 0
        for rep in range(100):
            x = add_noise(d, NoiseModel("gaussian", sigma2), seed=77, replicate=rep)
            if lam >= 2.0 * spectral_norm(x.entries - d.entries):
                hits += 1
        assert hits >= 95


class TestWarmStartedPath:
    """``shrinkage_path`` fits ascending penalties, each started from the
    last dual point of the fit before it; every fit is certified on its
    own and agrees with its single fit to within the solver tolerance."""

    LAM_STAR = recommended_lambda(40, 0.5)
    FACTORS = (0.5, 1.0, 2.0)

    def test_first_fit_is_the_single_fit(self):
        x = helix_observation(0)
        grid = [f * self.LAM_STAR for f in (2.0, 0.5, 1.0)]
        first = next(shrinkage_path(x, grid))
        single = distance_shrinkage(x, min(grid))
        assert first.lam == min(grid) and first.eta == single.eta
        assert np.array_equal(first.d_hat.entries, single.d_hat.entries)
        assert np.array_equal(first.k_hat.entries, single.k_hat.entries)
        assert first.diagnostics == single.diagnostics

    @pytest.mark.parametrize("rep", range(5))
    def test_helix_fits_match_cold_fits(self, rep):
        x = helix_observation(rep)
        grid = [f * self.LAM_STAR for f in self.FACTORS]
        path = shrinkage_path(x, grid[::-1])
        for i, lam in enumerate(grid):
            with eig_counts() as calls:
                fit = next(path)
            cold = distance_shrinkage(x, lam)
            assert fit.lam == lam
            assert fit.diagnostics.converged
            want = cold.d_hat.entries
            err = np.linalg.norm(fit.d_hat.entries - want)
            assert err <= 1e-7 * np.linalg.norm(want)
            assert fit.d_hat.embed_dim == cold.d_hat.embed_dim
            assert fit.d_hat.cert_tol == 1e-8
            dual, comp = kkt_residuals(x, fit.d_hat.entries, lam)
            assert dual <= 1e-9 and comp <= 1e-9
            assert calls == {"eigh": fit.diagnostics.cycles, "eigvalsh": 0}
            if i:
                assert fit.diagnostics.cycles < cold.diagnostics.cycles
        assert next(path, None) is None

    def test_evaluations_per_fit_are_pinned(self):
        # every point the fit arrives at moves first, for free, to the
        # minimizer of theta along the ones vector; without that move
        # these grids take 7, 4, 5 and 6, 4, 5 evaluations
        got = []
        for rep in (2, 4):
            x = helix_observation(rep)
            grid = [f * self.LAM_STAR for f in self.FACTORS]
            with eig_counts() as calls:
                fits = list(shrinkage_path(x, grid))
            cycles = [f.diagnostics.cycles for f in fits]
            assert calls == {"eigh": sum(cycles), "eigvalsh": 0}
            got.append(cycles)
        assert got == [[6, 4, 4], [6, 4, 4]]

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_rejects_bad_penalty_before_any_fit(self, bad):
        with eig_counts() as calls:
            with pytest.raises(ValueError, match="lam must be finite"):
                shrinkage_path(helix_observation(0), [1.0, 2.0, bad])
        assert calls == {"eigh": 0, "eigvalsh": 0}

    def test_met_stopping_rule_takes_no_evaluation(self):
        # a repeated penalty starts at the converged point of its copy
        x = helix_observation(0)
        first, again = shrinkage_path(x, [self.LAM_STAR] * 2)
        assert again.diagnostics.cycles == 0
        assert again.diagnostics.delta_last == 0.0
        assert np.array_equal(again.d_hat.entries, first.d_hat.entries)


class TestFitWorkingSet:
    """A fit keeps read-only arrays of its own, and a path holds no fit
    that its caller has let go of."""

    def test_fit_arrays_are_read_only_and_unshared(self):
        x = helix_observation(0)
        lam = recommended_lambda(x.n, 0.5)
        for fit in shrinkage_path(x, [0.5 * lam, lam]):
            d, k = fit.d_hat.entries, fit.k_hat.entries
            assert not d.flags.writeable and not k.flags.writeable
            for a, b in ((d, x.entries), (k, x.entries), (d, k)):
                assert not np.shares_memory(a, b)

    @staticmethod
    def path_of_two(n):
        """``shrinkage_path`` over 0.5 lam* and lam* on the n-point noisy
        helix, input included, as a call; and the bytes of one n x n array."""
        d = edm_from_coords(helix_coords(n))
        obs = add_noise(d, NoiseModel("gaussian", 0.25), seed=0).entries
        lam = recommended_lambda(n, 0.5)

        def fit():
            x = SymHollowMatrix(obs)
            deque(shrinkage_path(x, [0.5 * lam, lam]), maxlen=0)

        return fit, obs.nbytes

    def test_path_peak_stays_under_six_arrays(self):
        # about 5.3 n x n float64 arrays at the peak, in the certificate's
        # center_gram kernel of the closing EDM: the input, the closing
        # EDM, the kernel's two steps and the closing eigenbasis, which the
        # path keeps for the next start. Holding one more n x n array, such
        # as a shrunk copy of the input, through the certificate, or the
        # previous fit's or the start's eigenbasis through the fit, reads
        # about 6.3
        fit, array = self.path_of_two(200)
        assert traced_peak(fit) < 6.0 * array

    def test_one_eigenbasis_alive_at_each_eigh(self):
        # at every eigendecomposition only the input and the block that
        # eigh reads are alive, about 2.05 n x n arrays: the penalty is a
        # scalar of the dual, so no fit holds a shrunk copy of the input,
        # which read 3.05; holding the eigenbasis of the start, of the
        # previous fit or of the point whose Newton step is being tried
        # reads about 3.06
        fit, array = self.path_of_two(200)
        live = traced_at_eigh(fit)
        assert live and max(live) < 2.5 * array

    def test_estimate_peaks_in_a_fit_not_in_the_writer(self, tmp_path):
        # One estimate over two penalties at n = 600, traced as a whole,
        # peaks under 5.7 n x n arrays. Each fit (_project_from) peaks at
        # about 5.1, in the certificate's kernel beside the input, the
        # closing EDM and eigenbasis, and the CSV writer at about 5.4: it
        # enters with about 4.1 alive (the input, d_hat, k_hat and the
        # eigenbasis kept for the next start) and, streaming by row blocks,
        # adds about 1.3 more, where its whole-triangle table added 2.7 and
        # peaked at 6.8. A fit handed a shrunk copy of the input, which its
        # caller (here the wrapper below) may hold through the certificate,
        # peaked at about 6.1
        n = 600
        d = edm_from_coords(helix_coords(n))
        path = tmp_path / "x.csv"
        fileio.save_square_matrix(
            add_noise(d, NoiseModel("gaussian", 0.25), seed=0).entries, path)
        lam = float(recommended_lambda(n, 0.5))
        project = shrinkage._project_from
        between, fits = [], []

        def traced_fit(*args, **kwargs):
            between.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            try:
                return project(*args, **kwargs)
            finally:
                fits.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()

        argv = ["estimate", "--input", str(path), "--lambda-grid",
                f"{0.5 * lam!r},{lam!r}",
                "--out", str(tmp_path / "est")]
        with mock.patch.object(shrinkage, "_project_from", traced_fit):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                between.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(fits) == 2
        assert max(between + fits) < 5.7 * 8 * n * n
