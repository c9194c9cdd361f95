"""File formats: matrix CSV, coordinate loaders, deterministic JSON."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edmshrink import SymHollowMatrix, fileio, g17

from conftest import traced_peak


class TestSquareMatrixCsv:
    def test_round_trip(self, tmp_path, rng):
        a = rng.normal(size=(5, 5))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        path = tmp_path / "m.csv"
        fileio.save_square_matrix(a, path)
        back = fileio.load_square_matrix(path)
        assert np.array_equal(back, a)

    @pytest.mark.parametrize("kwargs, first", [
        ({}, "# squared-distance convention\n"),
        ({"header": ""}, ""),
    ])
    def test_exact_bytes(self, tmp_path, kwargs, first):
        a = [[0.0, -0.0, 5e-324], [1e300, 2.0**60, 1 / 3], [-1 / 3, 1.5, -2.0]]
        path = tmp_path / "m.csv"
        fileio.save_square_matrix(a, path, **kwargs)
        assert path.read_bytes() == (
            first
            + "0,-0,4.9406564584124654e-324\n"
            "1.0000000000000001e+300,1.152921504606847e+18,0.33333333333333331\n"
            "-0.33333333333333331,1.5,-2\n").encode()

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_rejects_non_finite(self, tmp_path, token):
        path = tmp_path / "m.csv"
        path.write_text(f"0,{token}\n{token},0\n")
        with pytest.raises(ValueError, match="non-finite entries"):
            fileio.load_square_matrix(path)

    def test_header_line_optional(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1,0\n")
        assert fileio.load_square_matrix(path)[0, 1] == 1.0

    def test_symmetrizes_within_tolerance(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1.0000000001\n1,0\n")
        m = fileio.load_square_matrix(path)
        assert m[0, 1] == m[1, 0]

    def test_rejects_asymmetry(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,2\n1,0\n")
        with pytest.raises(ValueError, match="asymmetry"):
            fileio.load_square_matrix(path)

    @pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e6, 1e12])
    def test_symmetry_tolerance_is_relative(self, tmp_path, scale):
        # a 6-point EDM at any scale: one ulp of asymmetry at (0, 1) loads,
        # and 1e-6 of the largest entry is rejected, from a file and from
        # an array alike
        p = np.arange(12.0).reshape(6, 2) ** 1.5
        d = ((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2) * scale
        path = tmp_path / "m.csv"
        for bump, ok in ((np.spacing(d[0, 1]), True), (1e-6 * d.max(), False)):
            a = d.copy()
            a[0, 1] += bump
            fileio.save_square_matrix(a, path)
            if ok:
                m = fileio.load_dissimilarity(path).entries
                assert m[0, 1] == m[1, 0] and m[0, 1] in (d[0, 1], a[0, 1])
                assert np.array_equal(
                    SymHollowMatrix.from_array(a).entries, m)
                continue
            with pytest.raises(ValueError, match="asymmetry"):
                fileio.load_dissimilarity(path)
            with pytest.raises(ValueError, match="asymmetry"):
                SymHollowMatrix.from_array(a)

    def test_rejects_nonzero_diagonal_in_hollow_mode(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n2,1\n")
        with pytest.raises(ValueError, match="diagonal"):
            fileio.load_square_matrix(path, hollow=True)
        loaded = fileio.load_square_matrix(path, hollow=False)
        assert loaded[0, 0] == 1.0

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1,0,3\n")
        with pytest.raises(ValueError, match="columns"):
            fileio.load_square_matrix(path)

    def test_reports_line_numbers(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1,zap\n")
        with pytest.raises(ValueError, match="m.csv:2"):
            fileio.load_square_matrix(path)

    @pytest.mark.parametrize("text", ["0,1\n1,0\n", "# header\n0,1\n1,0\n"],
                             ids=["bare", "header"])
    def test_skips_byte_order_mark(self, tmp_path, text):
        # spreadsheet CSV exports begin with a UTF-8 byte-order mark
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert np.array_equal(fileio.load_square_matrix(path),
                              [[0.0, 1.0], [1.0, 0.0]])

    def test_peak_memory_stays_near_two_arrays(self, tmp_path):
        # the parsed rows, then one |a - a.T| beside the matrix, then the
        # symmetrized copy: about 2.0 n x n arrays at n = 600, where 4.0
        # were alive when the row list outlived the stack
        n = 600
        a = np.random.default_rng(600).normal(size=(n, n))
        a = np.triu(a, 1)
        a += a.T
        path = tmp_path / "m.csv"
        fileio.save_square_matrix(a, path)
        peak = traced_peak(lambda: fileio.load_dissimilarity(path))
        assert peak <= 2.5 * a.nbytes

    def test_header_only_at_top(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n# nope\n1,0\n")
        with pytest.raises(ValueError, match="header"):
            fileio.load_square_matrix(path)


# extremes of %.17g: the longest output, the smallest subnormal, the
# largest magnitudes, and both zeros, which only their bits tell apart
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 1.7976931348623157e308,
                  -1.7976931348623157e308, -2.2250738585072014e-308]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def written_matrices(draw):
    """Square or n x r float64 arrays whose entries come from a small
    pool, so that many repeat; square ones may be exactly symmetric and
    hollow, as the fitted matrices are."""
    kind = draw(st.sampled_from(["general", "symmetric_hollow", "coords"]))
    n = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 4)) if kind == "coords" else n
    pool = draw(st.lists(FLOATS, min_size=1,
                         max_size=draw(st.sampled_from([3, 60]))))
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=n * cols, max_size=n * cols))
    a = np.array(pool)[np.array(picks, dtype=np.intp)].reshape(n, cols)
    if kind == "symmetric_hollow":
        # mirror by selection, not by addition, which would turn -0.0
        # into 0.0
        a = np.where(np.triu(np.ones((n, n), dtype=bool)), a, a.T)
        np.fill_diagonal(a, 0.0)
    return a


def savetxt_bytes(a, header) -> bytes:
    """The oracle: what np.savetxt writes at the writer's settings."""
    fh = io.StringIO()
    np.savetxt(fh, a, fmt="%.17g", delimiter=",", header=header, comments="")
    return fh.getvalue().encode("utf-8")


class TestWriterMatchesSavetxt:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(a=written_matrices(), default_header=st.booleans())
    @example(a=np.array([[0.0, -0.0], [-0.0, 0.0]]), default_header=True)
    # symmetric by value, not by bits: a writer that tests symmetry by
    # value would write the upper triangle's 0 below the diagonal too
    @example(a=np.array([[0.0, 0.0, 1.5], [-0.0, 0.0, 2.0], [1.5, 2.0, 0.0]]),
             default_header=False)
    def test_same_bytes(self, tmp_path_factory, a, default_header):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        if default_header:
            fileio.save_square_matrix(a, path)
            want = savetxt_bytes(a, fileio.SQUARED_CONVENTION)
        else:
            fileio.save_square_matrix(a, path, header="")
            want = savetxt_bytes(a, "")
        assert path.read_bytes() == want
        fileio.save_embedding(a, path)
        assert path.read_bytes() == savetxt_bytes(a, fileio.EMBEDDING_HEADER)

    @pytest.mark.parametrize("kind", ["symmetric_hollow_130", "coords_3000",
                                      "integer_ties_200"])
    def test_same_bytes_across_format_blocks(self, tmp_path, kind):
        # The property above stays inside one row block; these span
        # several: an 8,515-value triangle, 9,000 coordinates, and an
        # integer-valued matrix whose triangle repeats 1,560 values
        rng = np.random.default_rng(130)
        if kind == "symmetric_hollow_130":
            a = rng.normal(size=(130, 130)) * 10.0 ** rng.integers(
                -20, 20, size=(130, 130))
            a = np.triu(a, 1)
            a += a.T
        elif kind == "coords_3000":
            a = rng.normal(size=(3000, 3))
        else:
            a = rng.integers(0, 1560, size=(200, 200)).astype(float)
            a = np.triu(a, 1)
            a += a.T
        path = tmp_path / "m.csv"
        fileio.save_square_matrix(a, path)
        assert path.read_bytes() == savetxt_bytes(a, fileio.SQUARED_CONVENTION)
        fileio.save_embedding(a, path)
        assert path.read_bytes() == savetxt_bytes(a, fileio.EMBEDDING_HEADER)

    @staticmethod
    def symmetric(n, seed, values=None):
        """A random n x n matrix, symmetric bit for bit and hollow, drawn
        from ``values`` if given."""
        rng = np.random.default_rng(seed)
        if values is None:
            a = rng.normal(size=(n, n))
        else:
            a = rng.choice(np.asarray(values, dtype=float), size=(n, n))
        a = np.triu(a, 1)
        return a + a.T

    @staticmethod
    def assert_same_bytes(a, path):
        fileio.save_square_matrix(a, path)
        assert path.read_bytes() == savetxt_bytes(a, fileio.SQUARED_CONVENTION)

    # the largest n whose symmetric matrix the writer takes in one row block
    ONE_BLOCK = max(n for n in range(1, 200)
                    if len(fileio._row_blocks(n, n, True)) == 1)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_same_bytes_at_the_first_block_edge(self, tmp_path, offset):
        # one block, one exactly full, and a second block of one row
        n = self.ONE_BLOCK + offset
        assert len(fileio._row_blocks(n, n, True)) == (2 if offset > 0 else 1)
        self.assert_same_bytes(self.symmetric(n, n), tmp_path / "m.csv")

    def test_same_bytes_symmetric_by_value_only(self, tmp_path):
        # 0.0 above the diagonal and -0.0 below it: symmetric by value, not
        # by bits, so every row is formatted in full, over several blocks
        a = self.symmetric(150, 150, [0.0, 1.5, 2.0, -1 / 3])
        lower = np.tril(a == 0.0, -1)
        a[lower] = -0.0
        assert len(fileio._row_blocks(150, 150, False)) > 1
        self.assert_same_bytes(a, tmp_path / "m.csv")

    def test_same_bytes_all_zero(self, tmp_path):
        self.assert_same_bytes(np.zeros((300, 300)), tmp_path / "m.csv")

    @pytest.mark.parametrize("values", [
        np.arange(10.0),
        # a few values each block shares with the last, and many it does not
        np.concatenate([np.arange(40.0), np.linspace(0.1, 1e-3, 2000)]),
    ], ids=["ten_integers", "shared_and_new"])
    def test_same_bytes_with_repeats_across_blocks(self, tmp_path, values):
        a = self.symmetric(300, 300, values)
        assert len(fileio._row_blocks(300, 300, True)) > 4
        self.assert_same_bytes(a, tmp_path / "m.csv")

    def test_peak_memory_stays_a_small_multiple(self, tmp_path):
        # The writer runs six times per estimate-n200 invocation. Streaming
        # by row blocks, it keeps the text of the values right of the
        # rows written so far until the rows below them take it, at most
        # about n^2 / 4 values of 24 bytes (0.75x a.nbytes), beside one
        # block's dedup and formatting of about 2,048 values at n = 200
        # and n^2 / 32 from n = 256. It peaks at about 1.68x at n = 200
        # and 1.33x at n = 1000, where its whole-triangle table of
        # distinct values took 4.2x and 2.6x.
        rng = np.random.default_rng(7)
        for n, bound in ((200, 1.75), (1000, 1.4)):
            a = rng.normal(size=(n, n))
            a = (a + a.T) / 2.0
            np.fill_diagonal(a, 0.0)
            peak = traced_peak(
                lambda: fileio.save_square_matrix(a, tmp_path / "m.csv"))
            assert peak <= bound * a.nbytes, n


def percent_17g(x) -> list[bytes]:
    """The formatter's oracle: CPython's own %.17g, one value at a time."""
    return [b"%.17g" % v for v in np.asarray(x, dtype=float).tolist()]


class TestFormat17g:
    """The writer's vectorised %.17g against CPython's."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(values=st.lists(FLOATS, max_size=40))
    def test_matches_percent(self, values):
        x = np.array(values, dtype=float)
        assert fileio._format_17g(x).tolist() == percent_17g(x)

    def test_random_bit_patterns(self):
        # every exponent and sign, unsorted, in many blocks
        rng = np.random.default_rng(20241018)
        bits = rng.integers(0, 2**64, size=120_000, dtype=np.uint64)
        x = bits.view(np.float64)
        x = x[np.isfinite(x)]
        assert x.size > 100_000
        assert fileio._format_17g(x).tolist() == percent_17g(x)

    @pytest.mark.parametrize("value", [
        # ties at the 17th digit, which round half to even
        2251799813685246.25, 2251799813685247.75,
        # a tie where 10**(16 - k) is not a double: 3 * 2**-24
        1.78813934326171875e-07,
        # power-of-ten edges, where log10 and the rounding change decade
        1e16, 1e17, 99999999999999984.0, 1e-5, 9.9999999999999991e-6,
        # three-digit exponents
        1e100, 1e-100, 1e300,
        # zeros, the smallest subnormal and the largest magnitudes
        0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    ])
    def test_named_values(self, value):
        x = np.array([value, -value])
        assert fileio._format_17g(x).tolist() == percent_17g(x)

    def test_rounding_fixes_the_decade(self):
        # log10 rounds to 17 and to -5 here, one decade off
        n, k, undecided = g17._round17(
            np.array([99999999999999984.0, 9.9999999999999991e-6]))
        assert n.tolist() == [99999999999999984, 99999999999999991]
        assert k.tolist() == [16, -6]
        assert not undecided.any()

    def test_rounding_leaves_inexact_ties_to_percent(self):
        # The only exact ties whose 10**(16 - k) is not a double: m * 2**-24
        # (k = -7) and m * 2**-25 (k = -8) for the odd m that make the
        # scaled value m * 5**23 / 2 or m * 5**24 / 2 a 17-digit number.
        ties = [m * 2.0**-24 for m in range(3, 16, 2)] + [2.0**-25, 3 * 2.0**-25]
        assert g17._round17(np.array(ties))[2].all()

    def test_rounding_before_any_format_call(self):
        # a fresh interpreter, where nothing has been formatted yet
        src = str(Path(g17.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import numpy as np; from edmshrink.g17 import _round17; "
             "n, k, undecided = _round17(np.array("
             "[99999999999999984.0, 9.9999999999999991e-6])); "
             "print(n.tolist(), k.tolist(), undecided.tolist())"],
            capture_output=True, text=True, env=env, check=True)
        assert proc.stdout.split("\n")[0] == (
            "[99999999999999984, 99999999999999991] [16, -6] [False, False]")


class TestCoordLoaders:
    def test_csv_two_points(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0,0,0\n1,0,0\n")
        coords = fileio.load_coords(path, "csv")
        assert coords.shape == (2, 3)
        d = np.sum((coords[0] - coords[1]) ** 2)
        assert d == 1.0

    def test_csv_needs_two_points(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0,0,0\n")
        with pytest.raises(ValueError, match="at least 2"):
            fileio.load_coords(path, "csv")

    def test_xyz_chemical_format(self, tmp_path):
        path = tmp_path / "p.xyz"
        path.write_text("3\nwater-ish comment\nO 0.0 0.0 0.0\n"
                        "H 0.96 0.0 0.0\nH -0.24 0.93 0.0\n")
        coords = fileio.load_coords(path, "xyz")
        assert coords.shape == (3, 3)
        assert coords[1, 0] == pytest.approx(0.96)

    def test_xyz_blank_comment(self, tmp_path):
        path = tmp_path / "p.xyz"
        path.write_text("2\n\nC 0 0 0\nC 1 1 1\n")
        assert fileio.load_coords(path, "xyz").shape == (2, 3)

    def test_xyz_bare_table(self, tmp_path):
        path = tmp_path / "p.xyz"
        path.write_text("0 0\n1 0\n0 1\n")
        assert fileio.load_coords(path, "xyz").shape == (3, 2)

    def test_xyz_count_mismatch(self, tmp_path):
        path = tmp_path / "p.xyz"
        path.write_text("5\ncomment\nC 0 0 0\n")
        with pytest.raises(ValueError, match="announces"):
            fileio.load_coords(path, "xyz")

    @pytest.mark.parametrize("count", [-1, 0])
    def test_xyz_count_below_one(self, tmp_path, count):
        # a count of -1 must not slice off the last atom as body[:-1]
        path = tmp_path / "p.xyz"
        path.write_text(f"{count}\ncomment\nC 0 0 0\nC 1 0 0\nC 0 1 0\n")
        with pytest.raises(ValueError, match=r"p\.xyz:1: atom count"):
            fileio.load_coords(path, "xyz")

    def test_pdb_atom_records(self, tmp_path):
        lines = [
            "HEADER    TEST",
            "ATOM      1  N   MET A   1      11.104   6.134  -6.504  1.00  0.00           N",
            "HETATM    2  O   HOH A   2       0.000   0.000   0.000  1.00  0.00           O",
            "ATOM      3  CA  MET A   1      11.639   6.071  -5.147  1.00  0.00           C",
            "END",
        ]
        path = tmp_path / "s.pdb"
        path.write_text("\n".join(lines) + "\n")
        coords = fileio.load_coords(path, "pdb")
        assert coords.shape == (2, 3)  # HETATM excluded
        assert coords[0, 0] == pytest.approx(11.104)
        assert coords[1, 2] == pytest.approx(-5.147)

    def test_pdb_keeps_first_model_only(self, tmp_path):
        prefix = "ATOM      1  N   MET A   1".ljust(30)
        atom = prefix + "{:8.3f}{:8.3f}{:8.3f}  1.00  0.00           N"
        lines = ["MODEL        1", atom.format(1, 2, 3), atom.format(4, 5, 6),
                 "ENDMDL", "MODEL        2", atom.format(7, 8, 9),
                 atom.format(1, 1, 1), "ENDMDL", "END"]
        path = tmp_path / "s.pdb"
        path.write_text("\n".join(lines) + "\n")
        coords = fileio.load_coords(path, "pdb")
        assert coords.shape == (2, 3)
        assert coords[1, 0] == pytest.approx(4.0)

    def test_pdb_malformed_reports_line(self, tmp_path):
        path = tmp_path / "s.pdb"
        path.write_text("ATOM      1  N   MET A   1      bad coords here\n")
        with pytest.raises(ValueError, match="s.pdb:1"):
            fileio.load_coords(path, "pdb")

    @pytest.mark.parametrize("fmt", ["csv", "xyz", "pdb"])
    def test_skips_byte_order_mark(self, tmp_path, fmt):
        # without it the first atom of a pdb file would be dropped
        text = {
            "csv": "0,0,0\n1,0,0\n",
            "xyz": "2\ncomment\nC 0 0 0\nC 1 0 0\n",
            "pdb": "".join(f"{'ATOM      1  C   GLY A   1':30}{x:8.3f}"
                           f"{0:8.3f}{0:8.3f}\n" for x in (0, 1)),
        }[fmt]
        path = tmp_path / f"p.{fmt}"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert np.array_equal(fileio.load_coords(path, fmt),
                              [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown coordinate format"):
            fileio.load_coords(tmp_path / "x", "mol2")


class TestEmbeddingWriter:
    def test_header_and_values(self, tmp_path):
        path = tmp_path / "e.csv"
        fileio.save_embedding(np.array([[0.5, -0.5], [-0.5, 0.5]]), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# squared-distance convention; centered coordinates"
        assert lines[1].split(",")[0] == "0.5"

    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "e.csv"
        fileio.save_embedding([[1 / 3, -0.0], [2.0**60, 5e-324], [1e300, 0.0]],
                              path)
        assert path.read_bytes() == (
            b"# squared-distance convention; centered coordinates\n"
            b"0.33333333333333331,-0\n"
            b"1.152921504606847e+18,4.9406564584124654e-324\n"
            b"1.0000000000000001e+300,0\n")


class TestJsonEmitter:
    def test_round_trip_exact_floats(self, rng):
        vals = list(rng.normal(size=20)) + [1e-300, 1e300, 0.1, 1 / 3]
        text = fileio.dumps_json({"vals": vals})
        back = json.loads(text)
        assert back["vals"] == [float(v) for v in vals]

    def test_seventeen_significant_digits(self):
        text = fileio.dumps_json({"x": 1 / 3})
        assert "0.33333333333333331" in text

    def test_deterministic(self):
        payload = {"b": [1.5, 2, None, True], "a": {"nested": "x"}}
        assert fileio.dumps_json(payload) == fileio.dumps_json(payload)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            fileio.dumps_json({"x": float("nan")})

    @pytest.mark.parametrize("payload, key", [
        ({"a": 1.0, "gap": float("inf")}, "gap"),
        ({"m": {"stresses": [0.5, -float("inf")]}}, "stresses"),
    ])
    def test_non_finite_names_its_field(self, payload, key):
        with pytest.raises(ValueError, match=f"in field '{key}'"):
            fileio.dumps_json(payload)

    def test_layout_is_that_of_indent_two(self):
        # floats whose repr has at most 17 digits, so that the stdlib
        # writes them as %.17g does
        payload = {"empty_list": [], "empty_dict": {}, "f": -0.125,
                   "list": [1, [2, {"k": None, "t": True}], "s"],
                   "d": {"x": [0.5], "y": {"z": False}}}
        assert fileio.dumps_json(payload) == json.dumps(payload, indent=2) + "\n"

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            fileio.dumps_json({"x": object()})

    def test_valid_json_structures(self):
        payload = {"empty_list": [], "empty_dict": {}, "s": 'quote " here',
                   "i": 42, "f": -0.125, "list": [1, [2, {"k": None}]]}
        assert json.loads(fileio.dumps_json(payload)) == payload
