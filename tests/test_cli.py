"""Command line surface: subcommands, outputs, exit codes."""

import io
import json
import tempfile
from contextlib import redirect_stderr
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

    def test_memory_error_exits_2_and_removes_the_grid(self, tmp_path,
                                                       capsys):
        # eigh runs out of memory in the fit of lambda 10, once the sets of
        # lambda 0.1 and 1 are written, with no message, as Python's own
        # MemoryError has none. No allocation really fails
        d = edm_from_coords(np.random.default_rng(0).normal(size=(12, 3)))
        path = tmp_path / "x.csv"
        fileio.save_square_matrix(
            add_noise(d, NoiseModel("gaussian", 0.25), seed=0).entries, path)
        eigh = np.linalg.eigh

        def short_of_memory(*args, **kwargs):
            if saved.call_count == 4:
                raise MemoryError
            return eigh(*args, **kwargs)

        with mock.patch.object(fileio, "save_square_matrix",
                               wraps=fileio.save_square_matrix) as saved, \
                mock.patch.object(np.linalg, "eigh", short_of_memory):
            code = main(["estimate", "--input", str(path), "--lambda-grid",
                         "0.1,1,10", "--out", str(tmp_path / "f")])
        assert code == 2
        assert [Path(c.args[1]).name for c in saved.call_args_list] == [
            f"f_lam{lam}.{name}.csv" for lam in ("0.1", "1.0")
            for name in ("dhat", "khat")]
        assert capsys.readouterr().err == "error: MemoryError\n"
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


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
    and leaves no file of the output set it rejects, nor of a grid's sets
    written before it. numpy's overflow warnings on the way are not part
    of that contract."""

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

    def test_grid_removes_the_sets_before_the_rejected_one(self, tmp_path):
        # the set of lambda 0 is written before lambda 1e300 is rejected
        path = tmp_path / "x.csv"
        path.write_text("0,1\n1,0\n")
        assert main(["estimate", "--input", str(path), "--lambda-grid",
                     "0,1e300", "--out", str(tmp_path / "fit")]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    def test_dim3_names_the_field(self, tmp_path, capsys):
        # delta_x is 4e308, above the largest double
        path = tmp_path / "x.csv"
        path.write_text("0,1e308,1e308\n1e308,0,-1e308\n1e308,-1e308,0\n")
        assert main(["dim3", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert "'delta_x'" in captured.err and not captured.out


class TestExtremeScales:
    """Input at the edges of the double range, with every warning an error
    (the suite's default): each command exits with its documented code and
    writes no file of a set it rejects, and numpy warns of no overflow."""

    # squared distances of three points on a line, at 0, 1 and 2
    LINE = [[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]]
    # squared distances of a triangle with sides 1, sqrt(2) and sqrt(1.5)
    TRIANGLE = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]]

    def test_tiny_edm_is_rejected_not_fitted_as_zero(self, tmp_path,
                                                     capsys):
        # at 1e-310 every square underflows, and the fit read the zero
        # matrix, certified, with exit 0
        path = tmp_path / "x.csv"
        fileio.save_square_matrix(1e-310 * np.array(self.LINE), path)
        assert main(["estimate", "--input", str(path), "--lambda", "0",
                     "--out", str(tmp_path / "fit")]) == 2
        assert "2**-500" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    def test_cloud_at_1e_minus_150_fits(self, tmp_path):
        cloud = np.random.default_rng(0).normal(size=(8, 3))
        d = edm_from_coords(cloud)
        fits = []
        for c in (1.0, 1e-150):
            path = tmp_path / f"x{c!r}.csv"
            fileio.save_square_matrix(c * d.entries, path)
            out = tmp_path / f"fit{c!r}"
            assert main(["estimate", "--input", str(path), "--lambda",
                         repr(0.5 * c), "--out", str(out)]) == 0
            fits.append(fileio.load_square_matrix(f"{out}.dhat.csv") / c)
        assert fits[0].any()
        assert np.abs(fits[1] - fits[0]).max() <= 1e-12 * fits[0].max()

    def test_mds_near_the_largest_double(self, tmp_path):
        # the factored certificate's residual norm is taken at a power of
        # two scale where its squares would overflow
        path = tmp_path / "x.csv"
        fileio.save_square_matrix(1e300 * np.array(self.TRIANGLE), path)
        out = tmp_path / "mds"
        assert main(["mds", "--input", str(path), "--out", str(out)]) == 0
        d = fileio.load_square_matrix(f"{out}.dhat_r.csv")
        want = 1e300 * np.array(self.TRIANGLE)
        assert np.abs(d - want).max() <= 1e-12 * want.max()
        assert (tmp_path / "mds.embedding.csv").exists()

    def test_estimate_near_the_largest_double(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        fileio.save_square_matrix(1e300 * np.array(self.TRIANGLE), path)
        assert main(["estimate", "--input", str(path), "--lambda", "0",
                     "--out", str(tmp_path / "fit")]) == 2
        assert "'gap'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    def test_convert_similarities_near_the_largest_double(self, tmp_path,
                                                          capsys):
        path = tmp_path / "s.csv"
        fileio.save_square_matrix(
            1e308 * np.array([[1.0, -1, 1], [-1, 1, -1], [1, -1, 1]]), path)
        assert main(["convert", "--input", str(path),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "finite" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]

    def test_simulate_helix_of_huge_radius(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--helix", "10", "--helix-radius", "1e200",
                     "--sigma2", "1", "--lambda", "1", "--reps", "1",
                     "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


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

    def test_dim3_wrong_size(self, noisy_matrix, capsys):
        # analyze_dim3 alone checks the size; the CLI names the file
        assert main(["dim3", "--input", str(noisy_matrix)]) == 2
        assert capsys.readouterr().err == (
            f"error: {noisy_matrix}: analysis requires n = 3, got n = 8\n")

    def test_dim3_reads_crlf_line_endings(self, tmp_path, capsys):
        # spreadsheet exports end lines with \r\n
        text = "# squared distances\n0,1,4\n1,0,1\n4,1,0\n"
        for name, end in (("lf.csv", "\n"), ("crlf.csv", "\r\n")):
            (tmp_path / name).write_bytes(text.replace("\n", end).encode())
            assert main(["dim3", "--input", str(tmp_path / name)]) == 0
        lf, crlf = capsys.readouterr().out.split("}\n", 1)
        assert lf + "}\n" == crlf

    def test_convert(self, tmp_path):
        spath = tmp_path / "s.csv"
        spath.write_text("5,3\n3,5\n")
        out = tmp_path / "x.csv"
        assert main(["convert", "--input", str(spath), "--out", str(out)]) == 0
        x = fileio.load_square_matrix(out)
        assert x[0, 1] == 4.0


ATOM = "{:<6}{:5d}  CA  ALA A{:4d}    {:8.3f}{:8.3f}{:8.3f}  1.00  0.00\n"


class TestUndecodableInput:
    """A byte that is not UTF-8 exits 2 naming its file and line, and
    writes no file."""

    CASES = {
        # name: (file suffix, text with the byte on ``line``, line, argv)
        "estimate": (
            "csv", "# header\n0,1,4\n1,0,\xff1\n4,1,0\n", 3,
            ["estimate", "--lambda", "1", "--out", "{out}"]),
        "simulate-csv": (
            "csv", "0,0,0\n1,0,0\n\n0,\xff1,0\n", 4,
            ["simulate", "--format", "csv", "--sigma2", "0.05",
             "--sigma", "0.2", "--reps", "1", "--out", "{out}"]),
        "simulate-xyz": (
            "xyz", "3\nthree atoms \xff\nC 0 0 0\nC 1 0 0\nC 0 1 0\n", 2,
            ["simulate", "--format", "xyz", "--sigma2", "0.05",
             "--sigma", "0.2", "--reps", "1", "--out", "{out}"]),
        "simulate-pdb": (
            "pdb", ATOM.format("ATOM", 1, 1, 0, 0, 0)
            + ATOM.format("ATOM", 2, 2, 1, 0, 0)
            + ATOM.format("ATOM", 3, 3, 0, 1, 0).replace("ALA", "AL\xff"), 3,
            ["simulate", "--format", "pdb", "--sigma2", "0.05",
             "--sigma", "0.2", "--reps", "1", "--out", "{out}"]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_names_file_and_line(self, tmp_path, capsys, case):
        suffix, text, line, argv = self.CASES[case]
        path = tmp_path / f"in.{suffix}"
        path.write_bytes(text.encode("latin-1"))
        out = tmp_path / "out" / "fit"
        out.parent.mkdir()
        argv = [a.format(out=out) for a in argv] + ["--input", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:{line}: byte 0xff is not UTF-8\n")
        assert not any(out.parent.iterdir())


# Matrix-CSV tokens: finite doubles over the whole range, and one token
# in 16 a non-finite value, a value past the range or a word no float
# parses; ``RARELY`` is true one time in five.
WORDS = ["abc", "1.2.3", "e5", "--1", ""]
TOKENS = st.integers(0, 15).flatmap(
    lambda k: st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400",
                               *WORDS]) if k == 0 else
    st.floats(allow_nan=False, allow_infinity=False).map(repr))
RARELY = st.integers(0, 4).map(lambda k: k == 0)


def first_line_at_fault(lines: list[str], bad: int | None) -> int | None:
    """The line the reader must name: the first that holds a byte that is
    not UTF-8, a word among its tokens, or a '#' below a data row; None
    where no line is at fault."""
    seen_row = False
    for no, line in enumerate(lines, start=1):
        if no - 1 == bad:
            return no
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            if seen_row:
                return no
        elif any(token in WORDS for token in text.split(",")):
            return no
        else:
            seen_row = True
    return None


@st.composite
def matrix_csv(draw):
    """(file bytes, line the reader must name or None, n) of a matrix CSV:
    n rows of drawn tokens, mostly symmetric and hollow, rarely made
    ragged, among blank lines and '#' lines above and, rarely, below,
    with LF, CRLF or CR endings, a byte-order mark or not, and rarely a
    byte that is not UTF-8."""
    n = draw(st.integers(1, 4) if draw(RARELY) else st.integers(2, 4))
    cells = [[draw(TOKENS) for _ in range(n)] for _ in range(n)]
    if not draw(RARELY):
        for i in range(n):
            cells[i][i] = "0"
            for j in range(i):
                cells[i][j] = cells[j][i]
    for _ in range(draw(st.integers(1, 2)) if draw(RARELY) else 0):
        row = cells[draw(st.integers(0, n - 1))]
        if row and draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(TOKENS))
    lines = ["# above"] * draw(st.integers(0, 2))
    for row in cells:
        lines += [" "] * draw(st.integers(0, 1)) + [",".join(row)]
    lines += [""] * draw(st.integers(0, 1))
    if draw(RARELY):
        lines.append("# below")
    encoded = [line.encode() for line in lines]
    bad = None
    if draw(RARELY):
        bad = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(encoded[bad])))
        byte = draw(st.sampled_from([b"\xff", b"\xfe", b"\x80", b"\xc3"]))
        encoded[bad] = encoded[bad][:at] + byte + encoded[bad][at:]
    end = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    data = end.join(encoded) + draw(st.sampled_from([end, b""]))
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    return data, first_line_at_fault(lines, bad), n


COMMAND_ARGS = {
    "estimate": ["--lambda", "1", "--out", "{out}/fit"],
    "mds": ["--rank", "2", "--out", "{out}/fit"],
    "convert": ["--out", "{out}/fit.csv"],
    "dim3": ["--out", "{out}/fit.json"],
}


OVERFLOWING_ROWS = b"0,0,0,0\n0,0,0,0\n0,0,0,6e307\n0,0,6e307,0\n"


def assert_certified_edm(dhat_csv: Path, diag_json: Path) -> None:
    """The Schoenberg test that ``estimate`` certifies, recomputed with
    numpy alone from the files it wrote: -J D J / 2 has no eigenvalue
    below -cert_tol times its largest. D is first scaled by a power of
    two, which is exact and leaves the test as it is, so that the
    products stay inside the range of a double."""
    d = np.loadtxt(dhat_csv, delimiter=",", comments="#", ndmin=2)
    cert_tol = json.loads(diag_json.read_text())["cert_tol"]
    top = np.abs(d).max()
    if top > 0.0:
        d = np.ldexp(d, -np.frexp(top)[1])
    j = np.eye(len(d)) - 1.0 / len(d)
    vals = np.linalg.eigvalsh(-0.5 * (j @ d @ j))
    assert vals[0] >= -cert_tol * max(vals[-1], 0.0)


def read_points(fmt: str, lines: list[str]) -> list[list[float]] | None:
    """The points of a coordinate file's lines as its documented format
    reads them, or None where a line cannot be read: csv rows of
    comma-separated floats; xyz records of whitespace-separated floats
    after an optional element symbol, below a count line and a comment
    line where the first line holds one token; pdb ATOM records of model
    1, x, y and z in columns 31-38, 39-46 and 47-54."""
    points = []
    try:
        if fmt == "csv":
            points = [[float(t) for t in line.split(",")]
                      for line in lines if line.strip()]
        elif fmt == "xyz":
            records = [line.split() for line in lines]
            body = [r for r in records if r]
            if len(body[0]) == 1:
                count = int(body[0][0])
                start = records.index(body[0]) + 2
                body = [r for r in records[start:] if r]
                if count < 1 or len(body) < count:
                    return None
                body = body[:count]
            for toks in body:
                try:
                    float(toks[0])
                except ValueError:
                    toks = toks[1:]  # an element symbol
                if not toks:
                    return None
                points.append([float(t) for t in toks])
        else:
            model = 1
            for line in lines:
                if line.startswith("MODEL"):
                    model = int(line.split()[1])
                elif line.startswith("ENDMDL"):
                    model += 1
                elif line.startswith("ATOM") and model == 1:
                    points.append([float(line[c:c + 8])
                                   for c in (30, 38, 46)])
    except (ValueError, IndexError):
        return None
    return points


# coordinates as pdb files write them, %8.3f
PDB_FIELDS = st.floats(-9999.0, 9999.0).map(lambda v: f"{v:.3f}")


def pdb_atom(tokens: list[str]) -> str:
    """An ATOM record with the coordinate text ``tokens``, each right
    aligned in its 8 columns, or spilling past them where it is longer."""
    return ("ATOM      1  CA  GLY A   1    " + "".join(t.rjust(8) for t in tokens)
            + "  1.00  0.00           C")


@st.composite
def coords_file(draw):
    """(format option, file text, whether the reader must reject the text)
    of a ``simulate --input`` file: n points of k drawn tokens (for pdb
    also coordinates that fit their 8 columns), rarely fewer than 2
    points or a ragged row, as csv, as xyz with a count line (rarely
    wrong) and element symbols or as a bare table, or as pdb ATOM
    records, rarely inside MODEL records beside a second model and a
    HETATM record of other tokens, which the reader skips."""
    fmt = draw(st.sampled_from(["csv", "xyz", "bare", "pdb"]))
    n = draw(st.integers(0, 1) if draw(RARELY) else st.integers(2, 5))
    k = 3 if fmt == "pdb" else draw(st.integers(1, 3))
    tokens = st.one_of(TOKENS, PDB_FIELDS) if fmt == "pdb" else TOKENS
    points = [[draw(tokens) for _ in range(k)] for _ in range(n)]
    if points and draw(RARELY):
        row = points[draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(TOKENS))
    if fmt == "csv":
        lines = [",".join(p) for p in points]
    elif fmt == "bare":
        lines = [" ".join(p) for p in points]
    elif fmt == "xyz":
        count = n + (draw(st.integers(-1, 1)) if draw(RARELY) else 0)
        lines = [str(count), draw(st.sampled_from(["comment", ""]))] + [
            " ".join(["C", *p]) for p in points]
    else:
        lines = [pdb_atom(p) for p in points]
        if draw(RARELY):
            other = [draw(TOKENS) for _ in range(3)]
            lines = (["MODEL        1", *lines, "HETATM" + pdb_atom(other)[6:],
                      "ENDMDL", "MODEL        2", pdb_atom(other), "ENDMDL"])
    found = read_points("xyz" if fmt == "bare" else fmt, lines)
    rejected = (found is None or len(found) < 2
                or len({len(p) for p in found}) != 1
                or not np.all(np.isfinite(found)))
    return ("xyz" if fmt == "bare" else fmt,
            "\n".join(lines) + "\n", rejected)


# Option values as text: one in five a double from the whole range, nan
# and inf included, one in five a special value, and the rest an ordinary
# value, so that many draws, each of several options, fit and exit 0.
# Hypothesis draws the ends of a range, and the ends of a list, more often
# than the rest, so the rarer choices sit in the middle.
FLOAT_TEXT = st.integers(0, 4).flatmap(
    lambda k: st.floats().map(repr) if k == 1 else
    st.sampled_from(["0", "-0", "-1", "nan", "inf", "-inf", "1e400",
                     "-1e400", "1e-400"]) if k == 2 else
    st.floats(1e-3, 10.0).map(repr))
# integers: one in four 0, negative or huge, the rest from 1 to 6
INT_TEXT = st.integers(0, 3).flatmap(
    lambda k: st.sampled_from([0, -1, -3, 2**31, 2**63, 10**30, -(10**30)])
    if k == 1 else st.integers(1, 6)).map(str)
ONE_IN_FIVE = st.integers(0, 4).map(lambda k: k == 2)
ESTIMATE_PENALTIES = [("lambda",), ("sigma",), ("lambda-grid",), (),
                      ("lambda", "lambda-grid"), ("lambda",), ("sigma",),
                      ("lambda-grid",)]
# a noisy 5-point observation, which every estimate and mds draw reads
VALID_5X5 = add_noise(
    edm_from_coords(np.random.default_rng(4).normal(size=(5, 3))),
    NoiseModel(kind="gaussian", sigma2=0.1), seed=5).entries


@st.composite
def option_argv(draw):
    """(command, argv) of estimate or mds on ``{tmp}/in.csv``, or of
    simulate --helix N for N in 0..12, writing under ``{tmp}/out``, with
    drawn option values passed as --opt=value, so that a leading minus
    reads as a value. A grid is drawn as text with empty tokens, repeats
    and any float text. Where --tol is below 1e-12, --max-cycles is at
    most 50, so that no draw runs thousands of evaluations."""
    command = draw(st.sampled_from(["estimate", "mds", "simulate"]))
    argv = [command]

    def option(opt, values, absent=st.booleans()):
        if not draw(absent):
            argv.append(f"--{opt}={draw(values)}")

    option("rank", INT_TEXT)
    if command == "mds":
        return command, argv + ["--input={tmp}/in.csv",
                                "--out={tmp}/out/fit"]
    if command == "estimate":
        argv += ["--input={tmp}/in.csv", "--out={tmp}/out/fit"]
        penalties = draw(st.sampled_from(ESTIMATE_PENALTIES))
    else:
        fmt = draw(st.sampled_from(["json", "csv"]))
        helix = draw(st.sampled_from([*range(2, 8), 0, 1, *range(8, 13)]))
        argv += [f"--helix={helix}",
                 f"--reps={draw(st.sampled_from([1, 2, 0, -1, 3]))}",
                 f"--out-format={fmt}", f"--out={{tmp}}/out/report.{fmt}"]
        for opt in ("helix-turns", "helix-radius", "helix-pitch"):
            option(opt, FLOAT_TEXT)
        if draw(ONE_IN_FIVE):
            argv.append("--noise=gamma")
        option("sigma2", FLOAT_TEXT, ONE_IN_FIVE)
        option("seed", INT_TEXT)
        penalties = draw(st.sampled_from([("lambda",), ("sigma",)]))
    for opt in penalties:
        if opt == "lambda-grid":
            tokens = draw(st.lists(FLOAT_TEXT, min_size=1, max_size=4))
            if draw(ONE_IN_FIVE):
                tokens.insert(draw(st.integers(0, len(tokens))), "")
            if draw(ONE_IN_FIVE):
                tokens.append(draw(st.sampled_from(tokens)))
            argv.append(f"--lambda-grid={','.join(tokens)}")
        else:
            option(opt, FLOAT_TEXT, st.just(False))
    tol = None if draw(st.booleans()) else draw(FLOAT_TEXT)
    if tol is not None:
        argv.append(f"--tol={tol}")
    if tol is not None and float(tol) < 1e-12:
        argv.append(f"--max-cycles={draw(st.integers(-3, 50))}")
    else:
        option("max-cycles", INT_TEXT)
    return command, argv


def assert_finite_output(file: Path) -> None:
    """Every number that a command wrote to ``file`` is finite: a JSON
    diagnostics file or report, a simulate CSV report, whose failed
    shrinkage replicates carry stress nan as documented, or a numeric CSV
    below its ``#`` header."""
    text = file.read_text()
    if file.suffix == ".json":
        def floats(v):  # an int, such as a huge seed, is finite
            if isinstance(v, dict):
                v = list(v.values())
            if isinstance(v, list):
                return [x for item in v for x in floats(item)]
            return [v] if isinstance(v, float) else []
        assert np.all(np.isfinite(floats(json.loads(text))))
    elif text.startswith("method,"):
        for row in text.splitlines()[1:]:
            _, _, stress, cycles, converged = row.split(",")
            assert np.isfinite(float(stress)) or converged == "false"
            assert int(cycles) >= 0
    else:
        values = [float(token) for line in text.splitlines()
                  if not line.startswith("#") for token in line.split(",")]
        assert values and np.all(np.isfinite(values))


class TestExitContract:
    """Whatever the matrix CSV, coordinate file or option values, each
    command exits 0, 2 or, for estimate, 3, with no uncaught exception
    and warnings raised as errors; exit 2 says ``error:``, names the file
    and the line at fault, if one is, and leaves no file; exit 0 writes
    only finite values, and estimate's dhat passes the EDM test it
    certifies."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(case=matrix_csv(), command=st.sampled_from(sorted(COMMAND_ARGS)))
    # rows that sum past the largest double; their centered eigenproblem
    # overflowed into nan, with an invalid-value warning
    @example(case=(OVERFLOWING_ROWS, None, 4), command="estimate")
    @example(case=(OVERFLOWING_ROWS, None, 4), command="mds")
    # a - a.T past the largest double, with an overflow warning
    @example(case=(b"0,1.7976931348623157e+308\n-1e292,0\n", None, 2),
             command="convert")
    def test_matrix_csv(self, case, command):
        data, line, n = case
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "in.csv", Path(tmp) / "out"
            path.write_bytes(data)
            out.mkdir()
            argv = [command, "--input", str(path)] + [
                a.format(out=out) for a in COMMAND_ARGS[command]]
            err = io.StringIO()
            with redirect_stderr(err):
                code = main(argv)
            written = sorted(out.iterdir())
            assert code in ((0, 2, 3) if command == "estimate" else (0, 2))
            if line is not None:
                assert code == 2
                assert err.getvalue().startswith(f"error: {path}:{line}: ")
            if n < 2:  # one row at most
                assert code == 2
                assert err.getvalue().startswith(f"error: {path}")
            if code == 2:
                assert err.getvalue().startswith("error:")
                assert not written
            if code == 0:
                assert written
                for file in written:
                    if file.suffix == ".csv":
                        values = [float(token)
                                  for text in file.read_text().splitlines()
                                  if not text.startswith("#")
                                  for token in text.split(",")]
                        assert np.all(np.isfinite(values))
                if command == "estimate":
                    assert_certified_edm(out / "fit.dhat.csv",
                                         out / "fit.diag.json")

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(case=coords_file())
    # a point at inf centered into inf - inf, and two points at 1e308
    # whose column sum overflows: each warned, a traceback under -W error
    @example(case=("csv", "0,0,0\n1,inf,0\n", True))
    @example(case=("csv", "1e308,0\n1e308,1\n", False))
    # distances near 1e154, whose stress norms squared past the largest
    # double, with an overflow warning
    @example(case=("csv", "0.0\n9.736915275439742e+76\n", False))
    def test_coordinate_file(self, case):
        fmt, text, rejected = case
        with tempfile.TemporaryDirectory() as tmp:
            path, report = Path(tmp) / "in.txt", Path(tmp) / "report.json"
            path.write_text(text)
            err = io.StringIO()
            with redirect_stderr(err):
                code = main(["simulate", "--input", str(path), "--format",
                             fmt, "--sigma2", "0.01", "--sigma", "0.1",
                             "--reps", "1", "--out", str(report)])
            assert code in (0, 2)
            if rejected:
                assert code == 2
                assert err.getvalue().startswith(f"error: {path}")
            if code == 2:
                assert err.getvalue().startswith("error:")
                assert not report.exists()
            else:
                assert json.loads(report.read_text())["replicates"]

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(case=option_argv())
    # an infinite radius times sin 0, with an invalid-value warning
    @example(case=("simulate", ["simulate", "--helix=2", "--reps=1",
                                "--out={tmp}/out/report.json",
                                "--helix-radius=inf", "--sigma2=1",
                                "--lambda=1"]))
    # a grid whose largest penalty overflows the fit's gap, rejected after
    # the set of the smaller one was written
    @example(case=("estimate", ["estimate", "--input={tmp}/in.csv",
                                "--out={tmp}/out/fit",
                                "--lambda-grid=1.2919518136489e+300,"
                                "1.3874022173941887",
                                "--tol=5.215957153541516", "--max-cycles=5"]))
    def test_option_values(self, case):
        command, argv = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            fileio.save_square_matrix(VALID_5X5, tmp / "in.csv")
            out = tmp / "out"
            out.mkdir()
            err = io.StringIO()
            with redirect_stderr(err):
                code = main([a.format(tmp=tmp) for a in argv])
            written = sorted(out.iterdir())
            assert code in ((0, 2, 3) if command == "estimate" else (0, 2))
            if code != 0:
                assert err.getvalue().startswith("error:")
            if code == 2:
                assert not written
            if code == 0:
                assert written
                for file in written:
                    assert_finite_output(file)
                    if file.name.endswith(".dhat.csv"):
                        assert_certified_edm(file, file.with_name(
                            file.name.replace(".dhat.csv", ".diag.json")))
