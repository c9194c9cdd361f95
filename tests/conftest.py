"""Shared generators for randomized checks.

The independent oracle for most properties is direct construction:
random centered point clouds give exact EDMs of known embedding
dimension without going through any transform under test.
"""

import tracemalloc
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest

from edmshrink import EdmMatrix, SymHollowMatrix, edm_from_coords


def centering(n):
    """J = I - 11^T/n, the projector onto the complement of the ones vector."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def spectral_norm(a):
    """||a||_2 of a symmetric matrix: its largest |eigenvalue|."""
    return float(np.abs(np.linalg.eigvalsh(a)).max())


def random_cloud(rng, n, k, scale=1.0):
    """Centered Gaussian points, the oracle generator for exact EDMs."""
    p = rng.normal(scale=scale, size=(n, k))
    return p - p.mean(axis=0, keepdims=True)


def rigid_motion(rng, p, shift):
    """p rotated by a random orthogonal matrix and translated by a random
    vector of largest entry ``shift``, with the per-coordinate rounding
    eps (|p| + shift) of the moved points."""
    q, _ = np.linalg.qr(rng.normal(size=(p.shape[1],) * 2))
    t = rng.uniform(-1.0, 1.0, size=p.shape[1])
    t *= shift / np.abs(t).max()
    moved = p @ q + t
    return moved, np.finfo(float).eps * (np.abs(p).max() + shift)


def random_edm(rng, n, k, scale=1.0) -> EdmMatrix:
    return edm_from_coords(random_cloud(rng, n, k, scale))


def random_hollow(rng, n, scale=1.0) -> SymHollowMatrix:
    """Random symmetric hollow matrix, entries of either sign."""
    a = rng.normal(scale=scale, size=(n, n))
    a = (a + a.T) / 2.0
    np.fill_diagonal(a, 0.0)
    return SymHollowMatrix(a)


class EigCalls(dict):
    """Calls per eigensolver name; ``shapes`` lists (name, input shape) for
    each call in order, and compares no part of the dict."""

    def __init__(self):
        super().__init__(eigh=0, eigvalsh=0)
        self.shapes = []


@contextmanager
def eig_counts():
    """Counts of numpy.linalg.eigh and eigvalsh calls made inside the block,
    with the shape of each call's input."""
    calls = EigCalls()

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            calls[name] += 1
            calls.shapes.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)
        return wrapper

    with ExitStack() as patches:
        for name in calls:
            patches.enter_context(mock.patch.object(
                np.linalg, name, counted(name, getattr(np.linalg, name))))
        yield calls


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc traces while ``fn()`` runs, counting
    only what it allocates; tracing stops even if ``fn`` raises."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_at_eigh(fn) -> list[int]:
    """The bytes that tracemalloc traces as current at each
    numpy.linalg.eigh call that ``fn()`` makes, counting only what it
    allocates. eigh allocates its LAPACK workspace outside tracemalloc, so
    a traced peak cannot see what lives beside it; these readings can."""
    live = []
    eigh = np.linalg.eigh

    def reading(a, *args, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        return eigh(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "eigh", reading):
        tracemalloc.start()
        try:
            fn()
        finally:
            tracemalloc.stop()
    return live


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
