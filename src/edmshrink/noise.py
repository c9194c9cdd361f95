"""Measurement-noise models for squared-distance observations.

Each replicate draws from an independent Philox stream (a counter-based
64-bit generator with documented jump-ahead) keyed by (seed, replicate),
so replicates can run in any order, or in parallel, and reproduce exactly.
Within a stream, the pairs (i, j) with i < j consume draws in row-major
order of the upper triangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SymHollowMatrix, _built

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class NoiseModel:
    """Additive Gaussian noise, or Gamma-distributed observations.

    gaussian: x_ij = d_ij + N(0, sigma2); entries may go negative and the
    estimator is expected to cope. sigma2 = 0 is permitted only as a
    degenerate smoke-test mode.

    gamma: x_ij ~ Gamma(shape=d_ij, rate=1), so mean and variance both
    equal d_ij; there is no free parameter and every true off-diagonal
    distance must be strictly positive.
    """

    kind: str
    sigma2: float | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "gamma"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.sigma2 is None or not (np.isfinite(self.sigma2)
                                           and self.sigma2 >= 0):
                raise ValueError("gaussian noise requires a finite sigma2 >= 0, "
                                 f"got {self.sigma2!r}")
        elif self.sigma2 is not None:
            raise ValueError("gamma noise takes no parameter")


def pair_stream(seed: int, replicate: int) -> np.random.Generator:
    """Philox generator keyed by (seed, replicate).

    Distinct keys give statistically independent streams; the Philox
    counter advances one position per draw, so consuming pair values in
    row-major upper-triangle order fixes each pair's position in the
    stream.
    """
    if replicate < 0:
        raise ValueError("replicate index must be nonnegative")
    key = (int(seed) & _MASK64, int(replicate))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def add_noise(
    d: SymHollowMatrix, model: NoiseModel, seed: int, replicate: int = 0
) -> SymHollowMatrix:
    """Noisy observation of a true squared-distance matrix.

    Draws one value per pair i < j from the (seed, replicate) stream,
    mirrors it below the diagonal and keeps the diagonal exactly zero.
    """
    n = d.n
    iu = np.triu_indices(n, k=1)
    true_vals = d.entries[iu]
    rng = pair_stream(seed, replicate)
    if model.kind == "gaussian":
        vals = true_vals + rng.normal(0.0, np.sqrt(model.sigma2), size=true_vals.size)
    else:
        if np.any(true_vals <= 0.0):
            raise ValueError(
                "gamma noise requires strictly positive off-diagonal "
                "distances (zero distance has no Gamma(0, 1) observation)")
        vals = rng.gamma(shape=true_vals, scale=1.0)
    x = np.zeros((n, n))
    x[iu] = vals
    x = x + x.T
    return SymHollowMatrix(_built(x))
