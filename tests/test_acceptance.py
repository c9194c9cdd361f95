"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Criterion 7 needs a real 1PJE structure file; point the
EDMSHRINK_1PJE environment variable at it, otherwise that criterion is
skipped with a recorded reason.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from edmshrink import (
    NoiseModel,
    SimConfig,
    SymHollowMatrix,
    add_noise,
    analyze_dim3,
    center_gram,
    certify_edm,
    distance_shrinkage,
    edm_from_coords,
    fileio,
    helix_coords,
    objective_value,
    project_edm_cone,
    recommended_lambda,
    risk_bound,
    run_experiment,
    similarity_to_dissimilarity,
    truncate_rank,
)


@contextmanager
def criterion(num, desc):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL ({time.time() - start:5.1f}s) {desc}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS ({time.time() - start:5.1f}s) {desc}")


def centered_cloud(rng, n, k, scale=1.0):
    p = rng.normal(scale=scale, size=(n, k))
    return p - p.mean(axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# 1: projection fixed points
# ---------------------------------------------------------------------------

def test_criterion_01_projection_fixed_points():
    with criterion(1, "projection fixes 200 random EDMs to 1e-8 relative"):
        rng = np.random.default_rng(101)
        start = time.time()
        for case in range(200):
            n = int(rng.integers(2, 21))
            k = int(rng.integers(1, 4))
            d = edm_from_coords(centered_cloud(rng, n, k))
            out, diag = project_edm_cone(d.entries)
            assert diag.converged
            err = np.linalg.norm(out.entries - d.entries)
            assert err <= 1e-8 * max(np.linalg.norm(d.entries), 1e-12), \
                f"case {case}: n={n} k={k} err={err:.3e}"
        assert time.time() - start < 10.0


# ---------------------------------------------------------------------------
# 2: three-point closed form
# ---------------------------------------------------------------------------

def _projected_dim(entries):
    out, _ = project_edm_cone(entries)
    return out.embed_dim


def _bisect_transition(x, d0, lo, hi, above_dim):
    """Smallest eta where the projected dimension drops below above_dim."""
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if _projected_dim(x - mid * d0) >= above_dim:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_02_three_point_closed_form():
    with criterion(2, "the EDM projection matches the n=3 classification "
                      "and thresholds"):
        rng = np.random.default_rng(202)
        start = time.time()

        checked = 0
        while checked < 200:
            a = rng.normal(scale=2.0, size=(3, 3))
            a = (a + a.T) / 2.0
            np.fill_diagonal(a, 0.0)
            x = SymHollowMatrix(a)
            info = analyze_dim3(x)
            gaps = (abs(info.alpha1), abs(info.alpha2),
                    abs(info.eta_to_dim1), abs(info.eta_to_dim0))
            if min(gaps) < 1e-6:  # knife edge, excluded
                continue
            assert _projected_dim(x.entries) == info.dim
            checked += 1

        d0 = 1.0 - np.eye(3)
        for _ in range(12):
            p = centered_cloud(rng, 3, 2)
            d = edm_from_coords(p)
            info = analyze_dim3(d.base)
            if info.eta_to_dim1 < 1e-3:  # nearly collinear triangle
                continue
            hi = info.eta_to_dim0 * 1.5
            t1 = _bisect_transition(d.entries, d0, 0.0, hi, above_dim=2)
            t0 = _bisect_transition(d.entries, d0, t1, hi, above_dim=1)
            assert abs(t1 - info.eta_to_dim1) <= 1e-6, (t1, info.eta_to_dim1)
            assert abs(t0 - info.eta_to_dim0) <= 1e-6, (t0, info.eta_to_dim0)
        assert time.time() - start < 5.0


# ---------------------------------------------------------------------------
# 3: minimum trace
# ---------------------------------------------------------------------------

def test_criterion_03_minimum_trace():
    with criterion(3, "minimum-trace kernel beats every translated competitor"):
        rng = np.random.default_rng(303)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            k = int(rng.integers(1, 4))
            p = centered_cloud(rng, n, k)
            d = edm_from_coords(p)
            t0 = d.kernel.trace()
            for _ in range(100):
                c = rng.normal(scale=rng.uniform(0.0, 3.0), size=k)
                shifted = p + c[None, :]
                assert np.trace(shifted @ shifted.T) >= t0 - 1e-10 * max(t0, 1.0)

        # trace identity on random PSD matrices
        for _ in range(50):
            n = int(rng.integers(2, 12))
            a = rng.normal(size=(n, n))
            m = a @ a.T
            m = (m + m.T) / 2.0
            got = certify_edm(similarity_to_dissimilarity(m)).kernel.trace()
            want = np.trace(m) - m.sum() / n
            assert abs(got - want) <= 1e-10 * max(abs(want), 1.0)

        # fitted kernels keep the ones vector in their null space
        for _ in range(10):
            n = int(rng.integers(4, 12))
            a = rng.normal(scale=1.5, size=(n, n))
            a = (a + a.T) / 2.0
            np.fill_diagonal(a, 0.0)
            fit = distance_shrinkage(SymHollowMatrix(a), float(rng.uniform(0, 2)))
            tr = fit.k_hat.trace()
            if tr > 0:
                assert np.abs(fit.k_hat.entries.sum(axis=1)).max() <= 1e-9 * tr


# ---------------------------------------------------------------------------
# 4: optimality of the fit
# ---------------------------------------------------------------------------

def test_criterion_04_optimality():
    with criterion(4, "fit objective beats 100 random EDM competitors x20"):
        rng = np.random.default_rng(404)
        for _ in range(20):
            n = int(rng.integers(4, 16))
            a = rng.normal(scale=2.0, size=(n, n))
            a = (a + a.T) / 2.0
            np.fill_diagonal(a, 0.0)
            x = SymHollowMatrix(a)
            lam = float(rng.uniform(0.0, 3.0))
            fit = distance_shrinkage(x, lam)
            f_hat = objective_value(fit.d_hat, x, lam)
            for _ in range(100):
                m = edm_from_coords(centered_cloud(
                    rng, n, int(rng.integers(1, 4)), scale=rng.uniform(0.2, 2.5)))
                f_m = objective_value(m, x, lam)
                assert f_hat <= f_m + 1e-6 * (1.0 + abs(f_m))


# ---------------------------------------------------------------------------
# 5 and 6: risk bounds
# ---------------------------------------------------------------------------

N_BOUND, R_BOUND, SIGMA2_BOUND = 50, 3, 0.25


@pytest.fixture(scope="module")
def bound_replicates():
    """100 seeded shrinkage fits at n=50 for the two bound criteria."""
    rng = np.random.default_rng(505)
    d = edm_from_coords(centered_cloud(rng, N_BOUND, 3))
    sigma = np.sqrt(SIGMA2_BOUND)
    lam = recommended_lambda(N_BOUND, sigma)
    model = NoiseModel("gaussian", SIGMA2_BOUND)
    full_errors = []
    centered_errors = []
    for rep in range(100):
        x = add_noise(d, model, seed=606, replicate=rep)
        fit = distance_shrinkage(x, lam)
        full_errors.append(float(np.sum((fit.d_hat.entries - d.entries) ** 2)))
        tr = truncate_rank(fit, R_BOUND)
        diff = tr.d_hat_r.entries - d.entries
        # ||J A J||_F^2 = 4 ||(-J A J / 2)||_F^2
        centered_errors.append(float(4.0 * np.sum(center_gram(diff) ** 2)))
    return lam, full_errors, centered_errors


def test_criterion_05_full_matrix_risk_bound(bound_replicates):
    with criterion(5, "||Dhat-D||_F^2 <= 36 n sigma^2 (r+1) in >=95/100"):
        start = time.time()
        _, full_errors, _ = bound_replicates
        bound = risk_bound(N_BOUND, np.sqrt(SIGMA2_BOUND), R_BOUND)
        hits = sum(1 for e in full_errors if e <= bound)
        assert hits >= 95, f"{hits}/100 within {bound}"
        assert time.time() - start < 300.0


def test_criterion_06_truncated_risk_bound(bound_replicates):
    with criterion(6, "||J(Dhat_r-D)J||_F^2 <= 54 n^2 eta^2 (r+1) in >=95/100"):
        lam, _, centered_errors = bound_replicates
        eta = lam / (2 * N_BOUND)
        bound = 54.0 * N_BOUND**2 * eta**2 * (R_BOUND + 1)
        hits = sum(1 for e in centered_errors if e <= bound)
        assert hits >= 95, f"{hits}/100 within {bound}"


# ---------------------------------------------------------------------------
# 7: protein structure study (needs user-supplied coordinates)
# ---------------------------------------------------------------------------

TABLE_SHRINK = {0.05: 0.010, 0.25: 0.024, 0.5: 0.035}
TABLE_MDS = {0.05: 0.078, 0.25: 0.185, 0.5: 0.301}


def test_criterion_07_protein_structure_study():
    path = os.environ.get("EDMSHRINK_1PJE", "")
    if not path:
        print("ACCEPTANCE 07 SKIP protein study: set EDMSHRINK_1PJE to the "
              "1PJE structure file (PDB format) to enable")
        pytest.skip("EDMSHRINK_1PJE not set; 1PJE coordinates are a "
                    "user-supplied input")
    with criterion(7, "published stress table reproduced within +-50%"):
        start = time.time()
        coords = fileio.load_coords(path, "pdb")
        assert coords.shape[0] == 91, f"expected 91 atoms, got {coords.shape[0]}"
        d = edm_from_coords(coords)
        for sigma2 in (0.05, 0.25, 0.5):
            cfg = SimConfig(reps=100, seed=707, rank_r=3,
                            noise=NoiseModel("gaussian", sigma2),
                            sigma=float(np.sqrt(sigma2)))
            rep = run_experiment(d, cfg)
            assert not rep.failed
            assert 0.5 * TABLE_SHRINK[sigma2] <= rep.shrinkage.mean \
                <= 1.5 * TABLE_SHRINK[sigma2], (sigma2, rep.shrinkage.mean)
            assert 0.5 * TABLE_MDS[sigma2] <= rep.classical_mds.mean \
                <= 1.5 * TABLE_MDS[sigma2], (sigma2, rep.classical_mds.mean)
            for r in rep.replicates:
                assert r.shrinkage_stress < r.mds_stress
        assert time.time() - start < 900.0


# ---------------------------------------------------------------------------
# 8: synthetic dominance fallback and size scaling
# ---------------------------------------------------------------------------

def test_criterion_08_synthetic_dominance_and_scaling():
    with criterion(8, "helix dominance across the noise grid plus n-scaling"):
        d = edm_from_coords(helix_coords(100))
        ratios = {}
        for sigma2 in (0.05, 0.25, 0.5):
            cfg = SimConfig(reps=50, seed=808, rank_r=3,
                            noise=NoiseModel("gaussian", sigma2),
                            sigma=float(np.sqrt(sigma2)))
            rep = run_experiment(d, cfg)
            assert not rep.failed
            assert rep.shrinkage.mean < rep.classical_mds.mean, (
                sigma2, rep.shrinkage.mean, rep.classical_mds.mean)
            ratios[sigma2] = rep.classical_mds.mean / rep.shrinkage.mean
        assert ratios[0.5] > ratios[0.05], ratios

        # larger problems estimate better at the same noise level
        means = {}
        for n, reps in ((75, 8), (300, 4)):
            cfg = SimConfig(reps=reps, seed=809, rank_r=3,
                            noise=NoiseModel("gaussian", 0.25),
                            sigma=float(np.sqrt(0.25)))
            rep = run_experiment(edm_from_coords(helix_coords(n)), cfg)
            assert not rep.failed
            means[n] = rep.shrinkage.mean
        assert means[300] < means[75], means


# ---------------------------------------------------------------------------
# 9: gamma noise robustness
# ---------------------------------------------------------------------------

def test_criterion_09_gamma_noise():
    with criterion(9, "gamma-noise replicates all converge and dominate MDS"):
        d = edm_from_coords(helix_coords(100))
        iu = np.triu_indices(100, k=1)
        # gamma variance equals the true distance, so use the mean distance
        # as the plug-in noise level for the penalty
        sigma_bar = float(np.sqrt(d.entries[iu].mean()))
        cfg = SimConfig(reps=20, seed=909, rank_r=3, noise=NoiseModel("gamma"),
                        sigma=sigma_bar)
        rep = run_experiment(d, cfg)
        assert not rep.failed
        assert all(r.converged for r in rep.replicates)
        assert rep.shrinkage.mean < rep.classical_mds.mean


# ---------------------------------------------------------------------------
# 10: byte-identical reports
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    with criterion(10, "identical simulate invocations give identical bytes"):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["simulate", "--helix", "20", "--sigma2", "0.1",
                 "--noise", "gaussian", "--reps", "3", "--seed", "4242",
                 "--sigma", "0.31622776601683794", "--rank", "3",
                 "--out-format", "json"]
        # pytest's pythonpath setting does not reach a child process
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        for out in (out_a, out_b):
            proc = subprocess.run(
                [sys.executable, "-m", "edmshrink.cli", *flags,
                 "--out", str(out)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        bytes_a, bytes_b = out_a.read_bytes(), out_b.read_bytes()
        assert bytes_a == bytes_b
        json.loads(bytes_a)  # and it is valid JSON
