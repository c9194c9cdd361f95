"""Experiment harness: protocol, aggregation, determinism, serialization."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edmshrink import (
    NoiseModel,
    SimConfig,
    SolverConfig,
    add_noise,
    classical_mds,
    distance_shrinkage,
    edm_from_coords,
    helix_coords,
    kruskal_stress,
    recommended_lambda,
    report_csv,
    report_json,
    run_experiment,
)

from conftest import rigid_motion, traced_at_eigh


def small_cfg(**kw):
    base = dict(reps=3, seed=5, noise=NoiseModel("gaussian", 0.1),
                rank_r=2, sigma=np.sqrt(0.1))
    base.update(kw)
    return SimConfig(**base)


@pytest.fixture(scope="module")
def truth():
    gen = np.random.default_rng(42)
    p = gen.normal(size=(12, 2))
    return edm_from_coords(p - p.mean(0))


class TestSimConfig:
    def test_requires_exactly_one_penalty_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            SimConfig(reps=1, seed=0, noise=NoiseModel("gaussian", 1.0))
        with pytest.raises(ValueError, match="exactly one"):
            SimConfig(reps=1, seed=0, noise=NoiseModel("gaussian", 1.0),
                      lam=1.0, sigma=1.0)

    def test_reps_positive(self):
        with pytest.raises(ValueError):
            SimConfig(reps=0, seed=0, noise=NoiseModel("gaussian", 1.0), lam=1.0)

    @pytest.mark.parametrize("field, bad", [
        ("reps", 1.5), ("reps", True), ("rank_r", 2.5), ("rank_r", 3.0),
        ("seed", 1.5), ("seed", False)])
    def test_integer_fields(self, field, bad):
        # a float count passed the range checks and failed, or was
        # truncated, inside run_experiment
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            small_cfg(**{field: bad})

    def test_numpy_integers_accepted(self):
        cfg = small_cfg(reps=np.int64(2), seed=np.int32(4), rank_r=np.int64(2))
        assert (cfg.reps, cfg.seed, cfg.rank_r) == (2, 4, 2)


class TestHelix:
    def test_shape_and_dimension(self):
        coords = helix_coords(50)
        assert coords.shape == (50, 3)
        assert edm_from_coords(coords).embed_dim == 3

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            helix_coords(1)

    @pytest.mark.parametrize("geometry", [
        {"turns": np.inf}, {"turns": np.nan}, {"radius": -np.inf},
        {"pitch": np.nan}, {"turns": 1e308}, {"pitch": 1e308},
    ])
    def test_coordinates_out_of_range_raise_without_warning(self, geometry):
        # a parameter that is not finite, or angles or heights past the
        # largest double, warned under the suite's -W error before
        with pytest.raises(ValueError, match="helix coordinates must be "
                                             "finite"):
            helix_coords(10, **geometry)


class TestRunExperiment:
    def test_noiseless_smoke(self, truth):
        cfg = small_cfg(noise=NoiseModel("gaussian", 0.0), lam=0.0, sigma=None)
        rep = run_experiment(truth, cfg)
        assert rep.shrinkage.mean <= 1e-8
        assert rep.classical_mds.mean <= 1e-8
        assert not rep.failed

    def test_noiseless_unpenalized_fit_needs_no_evaluation(self, truth):
        # the shared spectrum's start of an EDM at lam = 0 is the EDM's own
        # dual point, which meets the stopping rule as it stands
        cfg = small_cfg(noise=NoiseModel("gaussian", 0.0), lam=0.0, sigma=None)
        rep = run_experiment(truth, cfg)
        assert all(r.cycles == 0 for r in rep.replicates)
        assert max(r.shrinkage_stress for r in rep.replicates) < 1e-12

    def test_accepts_coordinates(self):
        rep = run_experiment(helix_coords(10), small_cfg())
        assert rep.n == 10

    def test_lambda_from_sigma(self, truth):
        rep = run_experiment(truth, small_cfg())
        want = 4 * np.sqrt(0.1) * (np.sqrt(12) + 1)
        assert rep.lam == pytest.approx(want)
        assert rep.eta == pytest.approx(rep.lam / 24)

    def test_aggregates_match_replicates(self, truth):
        rep = run_experiment(truth, small_cfg(reps=5))
        vals = [r.shrinkage_stress for r in rep.replicates if r.converged]
        assert rep.shrinkage.mean == pytest.approx(np.mean(vals))
        assert rep.shrinkage.sem == pytest.approx(
            np.std(vals, ddof=1) / np.sqrt(len(vals)))

    def test_deterministic(self, truth):
        a = run_experiment(truth, small_cfg(reps=4))
        b = run_experiment(truth, small_cfg(reps=4))
        assert a == b
        assert report_json(a) == report_json(b)

    def test_matches_the_separate_methods(self):
        # one shared spectrum per replicate: the baseline is the same
        # computation as classical_mds, and the fit, started at the best
        # constant dual point, agrees with distance_shrinkage to the solver
        # tolerance with fewer evaluations
        d = edm_from_coords(helix_coords(40))
        cfg = SimConfig(reps=5, seed=0, noise=NoiseModel("gaussian", 0.25),
                        rank_r=3, sigma=0.5)
        report = run_experiment(d, cfg)
        lam = recommended_lambda(40, 0.5)
        assert report.lam == lam
        for rec in report.replicates:
            x = add_noise(d, cfg.noise, cfg.seed, replicate=rec.index)
            mds = classical_mds(x, cfg.rank_r).d_hat_r
            assert rec.mds_stress == kruskal_stress(mds, d)
            cold = distance_shrinkage(x, lam)
            want = kruskal_stress(cold.d_hat, d)
            assert abs(rec.shrinkage_stress - want) <= 1e-8 * want
            assert rec.cycles < cold.diagnostics.cycles

    def test_failed_replicates_recorded_and_excluded(self, truth):
        # cycle budget of 1 cannot converge on noisy input
        strangled = SolverConfig(tol=1e-12, max_cycles=1)
        rep = run_experiment(truth, small_cfg(solver=strangled))
        assert len(rep.failed) == 3
        assert rep.shrinkage.stresses == ()
        assert all(not r.converged for r in rep.replicates)
        # mds stress still recorded per replicate
        assert all(r.mds_stress > 0 for r in rep.replicates)


class TestWorkingSet:
    def test_one_eigenbasis_alive_at_each_eigh(self):
        # at every eigendecomposition, shared or the fit's, only the truth's
        # entries, the observation and the block that eigh reads are alive,
        # about 3.2 n x n arrays at n = 100: the fit holds no shrunk copy of
        # the observation, which read 4.2; keeping the truth's kernel, or
        # the start's eigenbasis through the fit, reads about 4.2, and the
        # previous replicate's observation and spectrum about 5.1
        n = 100
        cfg = SimConfig(reps=4, seed=1, noise=NoiseModel("gaussian", 0.25),
                        sigma=0.5)
        coords = helix_coords(n)
        run_experiment(coords, cfg)  # imports what it loads lazily
        live = traced_at_eigh(lambda: run_experiment(coords, cfg))
        assert live and max(live) < 3.6 * 8 * n * n


class TestRigidMotion:
    @settings(max_examples=20, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1), shift=st.floats(0.0, 8.0))
    def test_stresses_invariant(self, seed, shift):
        # truth rotated and shifted by up to 1e8: both methods' stresses
        # move by a small multiple of the relative rounding of the true
        # distances, plus the solver tolerance
        p = helix_coords(20)
        moved, _ = rigid_motion(np.random.default_rng(seed), p, 10.0**shift)
        d, d_moved = edm_from_coords(p), edm_from_coords(moved)
        rounding = (np.linalg.norm(d_moved.entries - d.entries)
                    / np.linalg.norm(d.entries))
        cfg = small_cfg(reps=2, rank_r=3)
        want, got = run_experiment(p, cfg), run_experiment(moved, cfg)
        assert not want.failed and not got.failed
        for a, b in zip(want.replicates, got.replicates):
            for field in ("shrinkage_stress", "mds_stress"):
                assert abs(getattr(a, field) - getattr(b, field)) <= (
                    10 * rounding + cfg.solver.tol)


class TestSerialization:
    def test_json_round_trip(self, truth):
        rep = run_experiment(truth, small_cfg())
        back = json.loads(report_json(rep))
        assert back["methods"]["shrinkage"]["mean"] == rep.shrinkage.mean
        assert back["methods"]["classical_mds"]["sem"] == rep.classical_mds.sem
        assert back["config"]["reps"] == 3
        assert [r["cycles"] for r in back["replicates"]] == [
            r.cycles for r in rep.replicates]

    def test_csv_layout(self, truth):
        rep = run_experiment(truth, small_cfg(reps=1))
        rows = list(csv.DictReader(io.StringIO(report_csv(rep))))
        assert len(rows) == 2  # one per method for the single replicate
        assert {r["method"] for r in rows} == {"shrinkage", "classical_mds"}
        for row in rows:
            assert set(row) == {"method", "replicate", "stress", "cycles",
                                "converged"}
            float(row["stress"])  # parses

    def test_csv_failed_replicate_is_nan(self, truth):
        strangled = SolverConfig(tol=1e-12, max_cycles=1)
        rep = run_experiment(truth, small_cfg(reps=1, solver=strangled))
        rows = list(csv.DictReader(io.StringIO(report_csv(rep))))
        shrink_row = next(r for r in rows if r["method"] == "shrinkage")
        assert shrink_row["stress"] == "nan"
        assert shrink_row["converged"] == "false"

    def test_float_precision_survives_round_trip(self, truth):
        rep = run_experiment(truth, small_cfg())
        back = json.loads(report_json(rep))
        got = back["replicates"][0]["shrinkage_stress"]
        assert got == rep.replicates[0].shrinkage_stress
