"""The public surface: every exported name resolves, and every function the
benchmark's tracer patches by name still exists and runs on the fit path."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import edmshrink
from edmshrink import cli, fileio, projection, shrinkage

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "edmbench"))
import tracing  # noqa: E402

from conftest import random_hollow  # noqa: E402


def test_all_names_resolve():
    assert len(set(edmshrink.__all__)) == len(edmshrink.__all__)
    for name in edmshrink.__all__:
        assert hasattr(edmshrink, name), name


@pytest.mark.parametrize("make", [tracing.Tracer, tracing.EigCounter])
def test_benchmark_patches_install(make):
    make().install().close()


def test_fit_path_calls_traced_names(rng):
    # project_edm_cone returns the certifying factor on its EDM, but not
    # the dual point a path resumes from, so the fit path bypasses it, and
    # the solver reads its dual points off eigenpairs, not project_c1;
    # both are called on their own to see that their patches run
    tracer = tracing.Tracer()
    with tracer.install():
        x = random_hollow(rng, 6)
        fit = shrinkage.distance_shrinkage(x, 0.5)
        shrinkage.truncate_rank(fit, 2)
        projection.project_edm_cone(x)
        projection.project_c1(x.entries)
    seen = set(tracer.totals())
    for name in ("shrinkage.distance_shrinkage", "shrinkage.truncate_rank",
                 "projection.project_edm_cone", "projection.project_c1",
                 "core.certify_edm", "core.center_gram", "linalg.eigh"):
        assert name in seen, name


def test_path_calls_traced_names(rng):
    # grid fits bypass distance_shrinkage and project_edm_cone, but still
    # decompose and certify through the traced functions
    tracer = tracing.Tracer()
    with tracer.install():
        fits = list(shrinkage.shrinkage_path(random_hollow(rng, 6), [0.5, 1.0]))
    assert len(fits) == 2
    seen = set(tracer.totals())
    for name in ("core.certify_edm", "linalg.eigh"):
        assert name in seen, name


def test_traced_estimate_records_written_sizes(tmp_path):
    # the tracer reads the path of save_square_matrix(a, path, header=...)
    # as its second positional argument and records the written file's size
    x = random_hollow(np.random.default_rng(3), 12)
    fileio.save_square_matrix(x.entries, tmp_path / "x.csv")
    tracer = tracing.Tracer()
    with tracer.install():
        assert cli.main(["estimate", "--input", str(tmp_path / "x.csv"),
                         "--lambda-grid", "0.5,1", "--rank", "2",
                         "--out", str(tmp_path / "f")]) == 0
    recorded = sorted(nbytes for name, *_, nbytes in tracer.spans
                      if name == "fileio.save_square_matrix")
    written = sorted(path.stat().st_size for path in tmp_path.glob("f_lam*.csv")
                     if not path.name.endswith(".embedding.csv"))
    assert len(written) == 4
    assert recorded == written


def test_cli_import_loads_no_heavy_modules():
    # every invocation pays for what importing the CLI loads
    heavy = ("scipy", "numpy.random", "concurrent", "multiprocessing",
             "asyncio", "unittest")
    src = str(Path(edmshrink.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, edmshrink.cli; print(*sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert not set(heavy) & set(proc.stdout.split())
