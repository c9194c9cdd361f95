"""The benchmark's output checks accept right answers and reject wrong ones.

    python3 -m pytest edmbench

Right answers come from edmshrink itself on small helices; wrong ones are
the same computations at a perturbed penalty or a lower rank.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from edmshrink.core import SymHollowMatrix  # noqa: E402
from edmshrink.shrinkage import classical_mds, distance_shrinkage, truncate_rank  # noqa: E402
from edmshrink.noise import NoiseModel  # noqa: E402
from edmshrink.simulate import SimConfig, report_json, run_experiment  # noqa: E402
from workloads import noisy_observation  # noqa: E402

N = 40
SIGMA2 = 0.25
# The solver's feasibility tolerance is absolute (1e-7). On the unit-scale
# n=40 helix that leaves eigenvalue defects of 2e-8 to 8e-8 of the largest
# eigenvalue, above the EDM check's relative 1e-8, which the n=200 fits of
# the benchmark meet at 5e-9. Scaling the observation (and the penalty)
# by 100 gives fits the check must accept.
SCALE = 100.0


@pytest.fixture(scope="module")
def observed():
    _, x = noisy_observation(N, SIGMA2, 7)
    lam = 4.0 * math.sqrt(SIGMA2) * (math.sqrt(N) + 1.0)
    return SCALE * x, SCALE * lam


@pytest.fixture(scope="module")
def fit(observed):
    x, lam = observed
    return distance_shrinkage(SymHollowMatrix(x), lam)


def test_kkt_accepts_the_fit(observed, fit):
    x, lam = observed
    assert checks.kkt_problems(x, fit.d_hat.entries, lam) == []


@pytest.mark.parametrize("factor", [1.02, 0.98])
def test_kkt_rejects_a_fit_at_a_penalty_two_percent_off(observed, factor):
    x, lam = observed
    wrong = distance_shrinkage(SymHollowMatrix(x), factor * lam)
    assert checks.kkt_problems(x, wrong.d_hat.entries, lam)


def test_estimate_check_accepts_the_fit(observed, fit):
    x, lam = observed
    coords = truncate_rank(fit, 3).embedding.coords
    assert checks.estimate_problems(x, lam, fit.d_hat.entries,
                                    fit.k_hat.entries, coords, 3) == []


def test_estimate_check_rejects_wrong_kernel_and_embedding(observed, fit):
    x, lam = observed
    coords = truncate_rank(fit, 3).embedding.coords
    d, k = fit.d_hat.entries, fit.k_hat.entries
    assert checks.estimate_problems(x, lam, d, 1.001 * k, coords, 3)
    assert checks.estimate_problems(x, lam, d, k, coords[:, :2], 3)
    two = np.column_stack([truncate_rank(fit, 2).embedding.coords, np.zeros(N)])
    assert checks.estimate_problems(x, lam, d, k, two, 3)


def test_edm_check_rejects_non_edms(fit):
    d = fit.d_hat.entries
    assert checks.edm_problems(d) == []
    violator = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]])
    assert checks.edm_problems(violator)
    asym = d.copy()
    asym[0, 1] += 1e-3
    assert checks.edm_problems(asym)
    hollow_broken = d.copy()
    hollow_broken[0, 0] = 1e-3
    assert checks.edm_problems(hollow_broken)


def test_mds_check_accepts_rank_3_and_rejects_rank_2(observed):
    x, _ = observed
    three = classical_mds(SymHollowMatrix(x), 3)
    two = classical_mds(SymHollowMatrix(x), 2)
    coords = three.embedding.coords
    assert checks.mds_problems(x, three.d_hat_r.entries, coords, 3) == []
    assert checks.mds_problems(x, two.d_hat_r.entries, coords, 3)
    padded = np.column_stack([two.embedding.coords, np.zeros(N)])
    assert checks.mds_problems(x, three.d_hat_r.entries, padded, 3)
    assert checks.mds_problems(x, three.d_hat_r.entries, coords + 1.0, 3)


@pytest.fixture(scope="module")
def report():
    cfg = SimConfig(reps=2, seed=3, noise=NoiseModel("gaussian", SIGMA2),
                    sigma=math.sqrt(SIGMA2))
    return json.loads(report_json(run_experiment(checks.helix(N), cfg)))


def test_sim_check_accepts_the_report(report):
    assert checks.sim_report_problems(report, N, SIGMA2, 2) == []


def test_sim_check_rejects_wrong_reports(report):
    def tampered(**changes):
        r = json.loads(json.dumps(report))
        for key, value in changes.items():
            r[key] = value
        return r

    assert checks.sim_report_problems(tampered(), N, SIGMA2 * 1.01, 2)
    assert checks.sim_report_problems(tampered(eta=report["eta"] * 1.001), N, SIGMA2, 2)
    assert checks.sim_report_problems(tampered(failed=[1]), N, SIGMA2, 2)
    unconverged = tampered()
    unconverged["replicates"][0]["converged"] = False
    assert checks.sim_report_problems(unconverged, N, SIGMA2, 2)
    swapped = tampered()
    methods = swapped["methods"]
    methods["shrinkage"], methods["classical_mds"] = (methods["classical_mds"],
                                                      methods["shrinkage"])
    assert checks.sim_report_problems(swapped, N, SIGMA2, 2)


def test_benchmark_json_lists_the_runner_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == table
