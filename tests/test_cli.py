"""Command line surface: subcommands, outputs, exit codes."""

import json

import numpy as np
import pytest

from edmshrink import (
    NoiseModel,
    SolverConfig,
    add_noise,
    distance_shrinkage,
    edm_from_coords,
    fileio,
    helix_coords,
    recommended_lambda,
)
from edmshrink.cli import _solver_config, build_parser, main


@pytest.fixture
def noisy_matrix(tmp_path):
    gen = np.random.default_rng(1)
    d = edm_from_coords(gen.normal(size=(8, 3)))
    x = d.entries + 0.0  # exact EDM is fine as "observed" input
    path = tmp_path / "x.csv"
    fileio.save_square_matrix(x, path)
    return path


class TestEstimate:
    def test_writes_outputs(self, noisy_matrix, tmp_path):
        out = tmp_path / "fit"
        code = main(["estimate", "--input", str(noisy_matrix),
                     "--lambda", "0.5", "--out", str(out)])
        assert code == 0
        d = fileio.load_square_matrix(f"{out}.dhat.csv")
        assert d.shape == (8, 8)
        k = fileio.load_square_matrix(f"{out}.khat.csv", hollow=False)
        assert k.shape == (8, 8)
        emb = (tmp_path / "fit.embedding.csv").read_text().splitlines()
        assert emb[0].startswith("# squared-distance convention")
        assert len(emb) == 9
        diag = json.loads((tmp_path / "fit.diag.json").read_text())
        assert diag["converged"] is True
        assert diag["lambda"] == 0.5

    def test_sigma_maps_to_penalty(self, noisy_matrix, tmp_path):
        out = tmp_path / "fit"
        assert main(["estimate", "--input", str(noisy_matrix),
                     "--sigma", "0.1", "--out", str(out)]) == 0
        diag = json.loads((tmp_path / "fit.diag.json").read_text())
        assert diag["lambda"] == pytest.approx(0.4 * (np.sqrt(8) + 1))

    def test_lambda_grid_loops(self, noisy_matrix, tmp_path):
        out = tmp_path / "fit"
        assert main(["estimate", "--input", str(noisy_matrix),
                     "--lambda-grid", "0.1,0.5", "--out", str(out)]) == 0
        assert (tmp_path / "fit_lam0.1.dhat.csv").exists()
        assert (tmp_path / "fit_lam0.5.dhat.csv").exists()

    def test_one_value_lambda_grid_is_suffixed(self, noisy_matrix, tmp_path):
        # a grid of one value still writes one set per value, suffixed
        assert main(["estimate", "--input", str(noisy_matrix),
                     "--lambda-grid", "0.5", "--out", str(tmp_path / "g")]) == 0
        assert sorted(path.name for path in tmp_path.glob("g*")) == [
            f"g_lam0.5.{suffix}" for suffix in
            ("dhat.csv", "diag.json", "embedding.csv", "khat.csv")]

    def test_lambda_grid_keeps_close_penalties_apart(self, noisy_matrix, tmp_path):
        out = tmp_path / "fit"
        assert main(["estimate", "--input", str(noisy_matrix),
                     "--lambda-grid", "1234567,1234568", "--out", str(out)]) == 0
        lams = sorted(json.loads(path.read_text())["lambda"]
                      for path in tmp_path.glob("fit_lam*.diag.json"))
        assert lams == [1234567.0, 1234568.0]

    def test_lambda_grid_order_does_not_matter(self, noisy_matrix, tmp_path):
        # the grid is fitted in ascending order whatever order it is given in
        sets = {}
        for name, grid in (("a", "2,0.5,1"), ("b", "0.5,1,2")):
            (tmp_path / name).mkdir()
            assert main(["estimate", "--input", str(noisy_matrix),
                         "--lambda-grid", grid,
                         "--out", str(tmp_path / name / "fit")]) == 0
            sets[name] = {path.name: path.read_bytes()
                          for path in (tmp_path / name).iterdir()}
        assert len(sets["a"]) == 12
        assert sets["a"] == sets["b"]

    def test_smallest_grid_penalty_matches_single_fit(self, noisy_matrix,
                                                      tmp_path):
        assert main(["estimate", "--input", str(noisy_matrix),
                     "--lambda-grid", "1,0.5,2",
                     "--out", str(tmp_path / "grid")]) == 0
        assert main(["estimate", "--input", str(noisy_matrix),
                     "--lambda", "0.5", "--out", str(tmp_path / "one")]) == 0
        for suffix in ("dhat.csv", "khat.csv", "embedding.csv", "diag.json"):
            assert ((tmp_path / f"grid_lam0.5.{suffix}").read_bytes()
                    == (tmp_path / f"one.{suffix}").read_bytes()), suffix

    def test_lambda_grid_keeps_fits_before_non_convergence(
            self, noisy_matrix, tmp_path, capsys):
        # lambda 0 fits the exact EDM in one evaluation; lambda 3 needs more
        # than two, so the grid stops there with exit code 3
        code = main(["estimate", "--input", str(noisy_matrix),
                     "--lambda-grid", "6,0,3", "--max-cycles", "2",
                     "--out", str(tmp_path / "f")])
        assert code == 3
        assert "no convergence in 2 cycles" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.glob("f*")) == [
            f"f_lam0.0.{suffix}" for suffix in
            ("dhat.csv", "diag.json", "embedding.csv", "khat.csv")]

    def test_lambda_grid_rejects_repeats(self, noisy_matrix, tmp_path):
        code = main(["estimate", "--input", str(noisy_matrix),
                     "--lambda-grid", "0.5,0.5", "--out", str(tmp_path / "f")])
        assert code == 2
        assert not list(tmp_path.glob("f*"))

    @pytest.mark.parametrize("grid", ["1.0,nan", "1.0,inf", "1.0,-1"])
    def test_lambda_grid_rejects_bad_penalty_before_any_fit(
            self, noisy_matrix, tmp_path, capsys, grid):
        code = main(["estimate", "--input", str(noisy_matrix),
                     "--lambda-grid", grid, "--out", str(tmp_path / "f")])
        assert code == 2
        assert "lam must be finite and nonnegative" in capsys.readouterr().err
        assert not list(tmp_path.glob("f*"))

    @pytest.mark.parametrize("argv", [
        ["estimate", "--lambda", "0.5", "--rank", "0"],
        ["estimate", "--lambda-grid", "0.1,0.5", "--rank", "-1"],
        ["mds", "--rank", "0"],
    ])
    def test_bad_rank_writes_no_files(self, noisy_matrix, tmp_path, capsys,
                                      argv):
        code = main([*argv, "--input", str(noisy_matrix),
                     "--out", str(tmp_path / "f")])
        assert code == 2
        assert "--rank must be at least 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("f*"))

    def test_needs_exactly_one_penalty(self, noisy_matrix, tmp_path):
        code = main(["estimate", "--input", str(noisy_matrix),
                     "--out", str(tmp_path / "f")])
        assert code == 2

    def test_missing_file_is_input_error(self, tmp_path):
        code = main(["estimate", "--input", str(tmp_path / "absent.csv"),
                     "--lambda", "1", "--out", str(tmp_path / "f")])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--tol"])
    def test_non_finite_tolerance_is_input_error(self, noisy_matrix, tmp_path,
                                                 flag):
        code = main(["estimate", "--input", str(noisy_matrix),
                     "--lambda", "0.5", flag, "nan",
                     "--out", str(tmp_path / "f")])
        assert code == 2

    def test_coarse_tolerance_keeps_the_fit(self, tmp_path):
        # at tol 0.03 the fit's largest entry is below tol * ||A||_F, which
        # once snapped it to zero although the zero matrix is far from the
        # optimum; the written matrix is within its reported gap of a
        # tight fit
        d = edm_from_coords(helix_coords(20))
        x = add_noise(d, NoiseModel("gaussian", 0.25), seed=1, replicate=1)
        lam = 2.0 * float(recommended_lambda(20, 0.5))
        fileio.save_square_matrix(x.entries, tmp_path / "x.csv")
        out = tmp_path / "fit"
        assert main(["estimate", "--input", str(tmp_path / "x.csv"),
                     "--lambda", repr(lam), "--tol", "0.03",
                     "--out", str(out)]) == 0
        written = fileio.load_square_matrix(f"{out}.dhat.csv")
        gap = json.loads((tmp_path / "fit.diag.json").read_text())["gap"]
        best = distance_shrinkage(x, lam, SolverConfig(tol=1e-12)).d_hat
        assert written.any() and best.embed_dim == 2
        dist = 0.5 * np.linalg.norm(written - best.entries) ** 2
        assert dist <= gap + 1e-12 * np.linalg.norm(x.entries) ** 2
        assert 0.5 * np.linalg.norm(best.entries) ** 2 > 10 * gap

    def test_non_convergence_exit_code(self, noisy_matrix, tmp_path):
        code = main(["estimate", "--input", str(noisy_matrix),
                     "--lambda", "3.0", "--tol", "1e-15", "--max-cycles", "2",
                     "--out", str(tmp_path / "f")])
        assert code == 3


@pytest.mark.parametrize("argv", [
    ["estimate", "--input", "x.csv", "--lambda", "1", "--out", "f"],
    ["simulate", "--helix", "10", "--sigma", "0.5"],
])
def test_solver_defaults_are_solver_config(argv):
    assert _solver_config(build_parser().parse_args(argv)) == SolverConfig()


class TestSimulate:
    def test_helix_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["simulate", "--helix", "12", "--sigma2", "0.05",
                     "--noise", "gaussian", "--reps", "2", "--seed", "9",
                     "--sigma", "0.223", "--rank", "2",
                     "--out", str(out), "--out-format", "json"])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["n"] == 12
        assert len(rep["replicates"]) == 2

    def test_byte_identical_reports(self, tmp_path):
        args = ["simulate", "--helix", "10", "--sigma2", "0.1",
                "--reps", "2", "--seed", "3", "--sigma", "0.316",
                "--out-format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_helix_geometry_defaults_to_helix_coords(self, tmp_path):
        args = ["simulate", "--helix", "12", "--sigma2", "0.05", "--reps", "1",
                "--seed", "2", "--sigma", "0.223", "--out-format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--helix-turns", "3", "--helix-radius", "0.3",
                            "--helix-pitch", "0.3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_coordinate_file_input(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("\n".join(
            ",".join(str(v) for v in row) for row in helix_coords(6)) + "\n")
        out = tmp_path / "r.csv"
        code = main(["simulate", "--input", str(path), "--format", "csv",
                     "--sigma2", "0.05", "--reps", "1", "--seed", "1",
                     "--sigma", "0.223", "--rank", "2",
                     "--out", str(out), "--out-format", "csv"])
        assert code == 0
        assert out.read_text().startswith("method,replicate")

    def test_negative_xyz_atom_count_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "p.xyz"
        path.write_text("-1\ncomment\nC 0 0 0\nC 1 0 0\nC 0 1 0\n")
        code = main(["simulate", "--input", str(path), "--format", "xyz",
                     "--sigma2", "0.05", "--reps", "1", "--sigma", "0.223",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "atom count -1" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_rank_capped_at_n_minus_one(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["simulate", "--helix", "3", "--sigma2", "0.05",
                     "--reps", "1", "--sigma", "0.223",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["rank_r"] == 2

    def test_rejects_both_inputs(self, tmp_path):
        code = main(["simulate", "--helix", "5", "--input", "x.csv",
                     "--sigma2", "0.1", "--sigma", "0.3"])
        assert code == 2

    def test_gamma_rejects_sigma2(self, capsys):
        code = main(["simulate", "--helix", "5", "--noise", "gamma",
                     "--sigma2", "0.1", "--sigma", "0.3", "--reps", "1"])
        assert code == 2
        assert "gamma noise takes no parameter" in capsys.readouterr().err

    def test_gaussian_requires_sigma2(self):
        code = main(["simulate", "--helix", "5", "--sigma", "0.3"])
        assert code == 2


class TestOutOrStdout:
    # each command writes the same bytes to --out as to stdout without it
    @pytest.mark.parametrize("args", [
        ["simulate", "--helix", "8", "--sigma2", "0.05", "--reps", "2",
         "--seed", "4", "--sigma", "0.223", "--out-format", "json"],
        ["simulate", "--helix", "8", "--sigma2", "0.05", "--reps", "2",
         "--seed", "4", "--sigma", "0.223", "--out-format", "csv"],
        ["dim3", "--input", "x.csv"],
    ], ids=["simulate-json", "simulate-csv", "dim3"])
    def test_stdout_matches_file(self, args, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x.csv").write_text("0,1,2\n1,0,1.5\n2,1.5,0\n")
        assert main(args + ["--out", "out"]) == 0
        assert capsys.readouterr().out == ""
        assert main(args) == 0
        written = (tmp_path / "out").read_bytes()
        assert written
        assert capsys.readouterr().out.encode("utf-8") == written


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestResultsOutsideTheDoubleRange:
    """Finite input whose result is not a double exits 2, raises nothing
    and leaves no file of the output set it rejects. numpy's overflow
    warnings on the way are not part of that contract."""

    @pytest.mark.parametrize("scale", [1e153, 1e154])
    def test_scaled_cloud_writes_no_set(self, tmp_path, capsys, scale):
        # at 1e153 the gap is inf; at 1e154 the dual's theta overflows
        cloud = np.random.default_rng(0).normal(size=(8, 3))
        path = tmp_path / "x.csv"
        fileio.save_square_matrix(scale * edm_from_coords(cloud).entries, path)
        assert main(["estimate", "--input", str(path), "--lambda",
                     repr(0.5 * scale), "--out", str(tmp_path / "fit")]) == 2
        assert "'gap'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    def test_grid_keeps_the_sets_before_the_rejected_one(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("0,1\n1,0\n")
        assert main(["estimate", "--input", str(path), "--lambda-grid",
                     "0,1e300", "--out", str(tmp_path / "fit")]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"fit_lam0.0.{ext}"
            for ext in ("dhat.csv", "diag.json", "embedding.csv", "khat.csv")
        ] + ["x.csv"]

    def test_dim3_names_the_field(self, tmp_path, capsys):
        # delta_x is 4e308, above the largest double
        path = tmp_path / "x.csv"
        path.write_text("0,1e308,1e308\n1e308,0,-1e308\n1e308,-1e308,0\n")
        assert main(["dim3", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert "'delta_x'" in captured.err and not captured.out


class TestOtherCommands:
    def test_mds_outputs(self, noisy_matrix, tmp_path):
        out = tmp_path / "mds"
        assert main(["mds", "--input", str(noisy_matrix), "--rank", "3",
                     "--out", str(out)]) == 0
        d = fileio.load_square_matrix(f"{out}.dhat_r.csv")
        assert d.shape == (8, 8)

    def test_mds_reads_byte_order_mark(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"\xef\xbb\xbf0,1\n1,0\n")
        out = tmp_path / "mds"
        assert main(["mds", "--input", str(path), "--rank", "1",
                     "--out", str(out)]) == 0
        d = fileio.load_square_matrix(f"{out}.dhat_r.csv")
        assert d[0, 1] == pytest.approx(1.0, rel=1e-12)

    def test_dim3_json(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("0,1,1\n1,0,1\n1,1,0\n")
        assert main(["dim3", "--input", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dim"] == 2
        assert out["eta_to_dim0"] == 1.0

    def test_dim3_huge_entry(self, tmp_path, capsys):
        # (1e200 - 1)**2 overflows; the analysis runs at a power-of-two
        # scale near 1 and scales its results back
        path = tmp_path / "x.csv"
        path.write_text("0,1e200,1\n1e200,0,1\n1,1,0\n")
        assert main(["dim3", "--input", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["delta_x"] == 2e200
        assert out["dim"] == 1

    def test_dim3_entries_near_the_largest_double(self, tmp_path, capsys):
        # 1e308 + 1e308 overflows; the symmetric part of finite entries is
        # formed without overflow, so the input is analysed, not rejected
        path = tmp_path / "x.csv"
        path.write_text("0,1e308,1e308\n1e308,0,1e308\n1e308,1e308,0\n")
        assert main(["dim3", "--input", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert all(np.isfinite(v) for v in out.values())
        assert out["delta_x"] == 0.0 and out["alpha1"] == 1e308

    def test_dim3_wrong_size(self, noisy_matrix):
        assert main(["dim3", "--input", str(noisy_matrix)]) == 2

    def test_convert(self, tmp_path):
        spath = tmp_path / "s.csv"
        spath.write_text("5,3\n3,5\n")
        out = tmp_path / "x.csv"
        assert main(["convert", "--input", str(spath), "--out", str(out)]) == 0
        x = fileio.load_square_matrix(out)
        assert x[0, 1] == 4.0
