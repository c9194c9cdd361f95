"""Noise models: moments, determinism and stream independence."""

import numpy as np
import pytest

from edmshrink import NoiseModel, SymHollowMatrix, add_noise, certify_edm
from edmshrink.noise import pair_stream

from conftest import random_edm


def simplex_edm(n, value):
    """Regular simplex: all squared distances equal to ``value``."""
    return certify_edm(SymHollowMatrix(value * (1.0 - np.eye(n))))


class TestNoiseModel:
    def test_gaussian_requires_sigma2(self):
        with pytest.raises(ValueError):
            NoiseModel("gaussian")
        with pytest.raises(ValueError):
            NoiseModel("gaussian", -1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma2"):
                NoiseModel("gaussian", bad)

    def test_gamma_takes_no_parameter(self):
        with pytest.raises(ValueError):
            NoiseModel("gamma", 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            NoiseModel("poisson", 1.0)


class TestGaussian:
    def test_zero_variance_limit(self, rng):
        d = random_edm(rng, 8, 3)
        x = add_noise(d, NoiseModel("gaussian", 0.0), seed=1)
        assert np.array_equal(x.entries, d.entries)

    def test_sample_moments(self):
        # n = 460 gives 105570 pairs
        n, sigma2 = 460, 0.7
        d = simplex_edm(n, 5.0)
        x = add_noise(d, NoiseModel("gaussian", sigma2), seed=9)
        iu = np.triu_indices(n, k=1)
        eps = (x.entries - d.entries)[iu]
        assert eps.size >= 1e5
        assert abs(eps.mean()) <= 4 * np.sqrt(sigma2) / np.sqrt(eps.size)
        assert abs(eps.var(ddof=1) - sigma2) <= 0.05 * sigma2

    def test_negative_entries_permitted(self):
        d = simplex_edm(12, 0.01)
        x = add_noise(d, NoiseModel("gaussian", 4.0), seed=3)
        assert x.entries.min() < 0  # estimator is expected to cope

    def test_output_symmetric_hollow(self, rng):
        d = random_edm(rng, 9, 2)
        x = add_noise(d, NoiseModel("gaussian", 1.0), seed=4)
        assert np.array_equal(x.entries, x.entries.T)
        assert np.all(x.entries.diagonal() == 0.0)


class TestGamma:
    def test_sample_moments_match_distance(self):
        n, value = 460, 2.0
        d = simplex_edm(n, value)
        x = add_noise(d, NoiseModel("gamma"), seed=8)
        iu = np.triu_indices(n, k=1)
        draws = x.entries[iu]
        assert draws.size >= 1e5
        assert abs(draws.mean() - value) <= 0.05 * value
        assert abs(draws.var(ddof=1) - value) <= 0.05 * value

    def test_zero_distance_rejected(self, rng):
        p = np.array([[0.0], [0.0], [1.0]])  # duplicate points
        from edmshrink import edm_from_coords

        d = edm_from_coords(p)
        with pytest.raises(ValueError, match="positive"):
            add_noise(d, NoiseModel("gamma"), seed=1)


class TestStreams:
    def test_deterministic_per_key(self, rng):
        d = random_edm(rng, 10, 3)
        model = NoiseModel("gaussian", 0.5)
        a = add_noise(d, model, seed=123, replicate=7)
        b = add_noise(d, model, seed=123, replicate=7)
        assert np.array_equal(a.entries, b.entries)

    def test_replicates_differ(self, rng):
        d = random_edm(rng, 10, 3)
        model = NoiseModel("gaussian", 0.5)
        a = add_noise(d, model, seed=123, replicate=0)
        b = add_noise(d, model, seed=123, replicate=1)
        assert not np.array_equal(a.entries, b.entries)

    def test_order_independent(self, rng):
        # drawing replicate 5 first or last makes no difference
        d = random_edm(rng, 10, 3)
        model = NoiseModel("gaussian", 0.5)
        direct = add_noise(d, model, seed=11, replicate=5)
        for r in (2, 0, 9):
            add_noise(d, model, seed=11, replicate=r)
        again = add_noise(d, model, seed=11, replicate=5)
        assert np.array_equal(direct.entries, again.entries)

    def test_negative_seed_accepted(self, rng):
        d = random_edm(rng, 5, 2)
        x = add_noise(d, NoiseModel("gaussian", 1.0), seed=-17)
        assert np.isfinite(x.entries).all()

    def test_negative_replicate_rejected(self):
        with pytest.raises(ValueError):
            pair_stream(0, -1)
