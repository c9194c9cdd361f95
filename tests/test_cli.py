"""Command line surface: subcommands, outputs, exit codes."""

import json

import numpy as np
import pytest

from edmshrink import edm_from_coords, fileio, helix_coords
from edmshrink.cli import main


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

    def test_lambda_grid_keeps_close_penalties_apart(self, noisy_matrix, tmp_path):
        out = tmp_path / "fit"
        assert main(["estimate", "--input", str(noisy_matrix),
                     "--lambda-grid", "1234567,1234568", "--out", str(out)]) == 0
        lams = sorted(json.loads(path.read_text())["lambda"]
                      for path in tmp_path.glob("fit_lam*.diag.json"))
        assert lams == [1234567.0, 1234568.0]

    def test_lambda_grid_rejects_repeats(self, noisy_matrix, tmp_path):
        code = main(["estimate", "--input", str(noisy_matrix),
                     "--lambda-grid", "0.5,0.5", "--out", str(tmp_path / "f")])
        assert code == 2
        assert not list(tmp_path.glob("f*"))

    def test_needs_exactly_one_penalty(self, noisy_matrix, tmp_path):
        code = main(["estimate", "--input", str(noisy_matrix),
                     "--out", str(tmp_path / "f")])
        assert code == 2

    def test_missing_file_is_input_error(self, tmp_path):
        code = main(["estimate", "--input", str(tmp_path / "absent.csv"),
                     "--lambda", "1", "--out", str(tmp_path / "f")])
        assert code == 2

    def test_non_convergence_exit_code(self, noisy_matrix, tmp_path):
        code = main(["estimate", "--input", str(noisy_matrix),
                     "--lambda", "3.0", "--tol", "1e-15",
                     "--feas-tol", "1e-15", "--max-cycles", "2",
                     "--out", str(tmp_path / "f")])
        assert code == 3


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
        assert main(args + ["--helix-radius", "0.3", "--helix-pitch", "0.3",
                            "--out", str(b)]) == 0
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

    def test_rejects_both_inputs(self, tmp_path):
        code = main(["simulate", "--helix", "5", "--input", "x.csv",
                     "--sigma2", "0.1", "--sigma", "0.3"])
        assert code == 2

    def test_gaussian_requires_sigma2(self):
        code = main(["simulate", "--helix", "5", "--sigma", "0.3"])
        assert code == 2


class TestOtherCommands:
    def test_mds_outputs(self, noisy_matrix, tmp_path):
        out = tmp_path / "mds"
        assert main(["mds", "--input", str(noisy_matrix), "--rank", "3",
                     "--out", str(out)]) == 0
        d = fileio.load_square_matrix(f"{out}.dhat_r.csv")
        assert d.shape == (8, 8)

    def test_dim3_json(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("0,1,1\n1,0,1\n1,1,0\n")
        assert main(["dim3", "--input", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dim"] == 2
        assert out["eta_to_dim0"] == 1.0

    def test_dim3_wrong_size(self, noisy_matrix):
        assert main(["dim3", "--input", str(noisy_matrix)]) == 2

    def test_convert(self, tmp_path):
        spath = tmp_path / "s.csv"
        spath.write_text("5,3\n3,5\n")
        out = tmp_path / "x.csv"
        assert main(["convert", "--input", str(spath), "--out", str(out)]) == 0
        x = fileio.load_square_matrix(out)
        assert x[0, 1] == 4.0
