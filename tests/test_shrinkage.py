"""Shrinkage estimator, rank truncation, classical-scaling baseline, bounds."""

from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest

from edmshrink import (
    MinTraceKernel,
    NoiseModel,
    SymHollowMatrix,
    add_noise,
    analyze_dim3,
    center_gram,
    certify_edm,
    classical_mds,
    distance_shrinkage,
    distances_from_kernel,
    edm_from_coords,
    min_trace_kernel,
    objective_value,
    recommended_lambda,
    risk_bound,
    spectral_norm,
    truncate_rank,
)

from conftest import random_cloud, random_edm, random_hollow


def hollow(rows) -> SymHollowMatrix:
    return SymHollowMatrix(np.array(rows, dtype=float))


EQUILATERAL = hollow([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


class TestDistanceShrinkage:
    def test_zero_penalty_fixes_edm(self, rng):
        d = random_edm(rng, 9, 3)
        fit = distance_shrinkage(d.base, 0.0)
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

    def test_fit_internal_consistency(self, rng):
        for _ in range(5):
            x = random_hollow(rng, 8, scale=2.0)
            lam = float(rng.uniform(0.0, 5.0))
            fit = distance_shrinkage(x, lam)
            assert fit.eta == lam / 16.0
            back = distances_from_kernel(fit.k_hat)
            scale = max(np.abs(fit.d_hat.entries).max(), 1e-12)
            assert np.abs(back.entries - fit.d_hat.entries).max() <= 1e-10 * scale
            assert np.allclose(fit.k_hat.entries,
                               min_trace_kernel(fit.d_hat).entries, atol=1e-14)

    def test_kernel_row_sums_vanish(self, rng):
        for _ in range(5):
            x = random_hollow(rng, 7, scale=2.0)
            fit = distance_shrinkage(x, float(rng.uniform(0.0, 3.0)))
            tr = fit.k_hat.trace()
            if tr > 0:
                assert np.abs(fit.k_hat.entries.sum(axis=1)).max() <= 1e-9 * tr


class TestObjective:
    def test_zero_at_truth_without_penalty(self, rng):
        d = random_edm(rng, 6, 2)
        assert objective_value(d, d.base, 0.0) == 0.0

    def test_zero_estimate(self, rng):
        x = random_hollow(rng, 5)
        zero = certify_edm(SymHollowMatrix(np.zeros((5, 5))))
        want = 0.5 * np.linalg.norm(x.entries) ** 2
        assert objective_value(zero, x, 3.0) == pytest.approx(want)

    def test_trace_term_nonnegative_for_edms(self, rng):
        for _ in range(10):
            d = random_edm(rng, 6, 3)
            base = objective_value(d, d.base, 0.0)
            with_penalty = objective_value(d, d.base, 2.0)
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

    def test_validation(self):
        with pytest.raises(ValueError):
            recommended_lambda(1, 1.0)
        with pytest.raises(ValueError):
            risk_bound(10, -1.0, 2)


class TestTruncateRank:
    def test_low_rank_fit_unchanged(self, rng):
        d = random_edm(rng, 8, 2)
        fit = distance_shrinkage(d.base, 0.0)
        tr = truncate_rank(fit, 3)
        scale = max(np.abs(fit.d_hat.entries).max(), 1e-12)
        assert np.abs(tr.d_hat_r.entries - fit.d_hat.entries).max() <= 1e-8 * scale

    def test_rank_one_of_two_eigenvalues(self, rng):
        # kernel 3 u1 u1^T + 1 u2 u2^T truncates to 3 u1 u1^T
        u1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        u2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6)
        k = 3 * np.outer(u1, u1) + np.outer(u2, u2)
        k = (k + k.T) / 2
        d = certify_edm(distances_from_kernel(MinTraceKernel(k)))
        fit = distance_shrinkage(d.base, 0.0)
        tr = truncate_rank(fit, 1)
        want = distances_from_kernel(MinTraceKernel(
            (lambda a: (a + a.T) / 2)(3 * np.outer(u1, u1))))
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
            assert tr.embedding.k == 3

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
            fit = classical_mds(d.base, 3)
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


@contextmanager
def eig_counts():
    """Counts of numpy.linalg.eigh and eigvalsh calls made inside the block."""
    calls = {"eigh": 0, "eigvalsh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with ExitStack() as patches:
        for name in calls:
            patches.enter_context(mock.patch.object(
                np.linalg, name, counted(name, getattr(np.linalg, name))))
        yield calls


class TestEigensolverCalls:
    """One eigh per Dykstra cycle, one spectrum per certification."""

    def test_converged_fit(self, rng):
        d = random_edm(rng, 30, 3, scale=3.0)
        x = add_noise(d, NoiseModel("gaussian", 0.25), seed=5, replicate=0)
        with eig_counts() as calls:
            fit = distance_shrinkage(x, recommended_lambda(30, 0.5))
        assert fit.diagnostics.converged
        assert fit.d_hat.cert_tol == 1e-8
        assert calls["eigh"] == fit.diagnostics.cycles
        assert calls["eigvalsh"] <= 2

    def test_classical_mds(self, rng):
        x = random_hollow(rng, 12, scale=2.0)
        with eig_counts() as calls:
            classical_mds(x, 3)
        assert calls == {"eigh": 1, "eigvalsh": 1}


class TestSpectralNorm:
    def test_matches_eigh(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 30))
            a = rng.normal(size=(n, n))
            a = (a + a.T) / 2
            want = np.abs(np.linalg.eigvalsh(a)).max()
            assert spectral_norm(a) == pytest.approx(want, rel=1e-4)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0


class TestShrinkagePath:
    def test_dimension_monotone_with_breakpoints(self, rng):
        # dimension along lambda is non-increasing with drops at
        # 2n * eta_to_dim1 and 2n * eta_to_dim0
        for _ in range(5):
            p = rng.normal(size=(3, 2))
            d = edm_from_coords(p - p.mean(0))
            a = analyze_dim3(d.base)
            lam1, lam0 = 6 * a.eta_to_dim1, 6 * a.eta_to_dim0
            prev = 2
            for lam in np.linspace(0.0, lam0 * 1.4, 10):
                if min(abs(lam - lam1), abs(lam - lam0)) < 1e-6:
                    continue
                fit = distance_shrinkage(d.base, float(lam))
                if lam < lam1:
                    want = 2
                elif lam < lam0:
                    want = 1
                else:
                    want = 0
                assert fit.d_hat.embed_dim == want
                assert fit.d_hat.embed_dim <= prev
                prev = fit.d_hat.embed_dim

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
