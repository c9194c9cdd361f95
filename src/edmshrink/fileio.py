"""File formats: square-matrix CSV, coordinate files, and report output.

Conventions, stated once and repeated in every header this module writes:
all matrix files hold SQUARED Euclidean distances (or dissimilarities
interpreted as such), and coordinate files hold plain coordinates in
distance units.

Square-matrix CSV: n data rows of n comma-separated floats, with an
optional single leading header line that starts with '#'. Symmetry and
hollowness are validated on load with absolute tolerance 1e-9; a matrix
within tolerance is symmetrized by averaging, anything worse is rejected.
Matrices and embeddings are written at ``%.17g``, which reads back
exactly; the bytes equal those of ``np.savetxt(fh, a, fmt="%.17g",
delimiter=",", header=header, comments="")``. The writer formats each
distinct float64 bit pattern once and streams the file row by row, so a
symmetric matrix costs about half its entries in float formatting and
its memory stays a small multiple of the matrix. Reading parses line by
line, rather than with ``np.loadtxt``, so that errors name the file line
and a '#' line below the data is rejected.
"""

from __future__ import annotations

import json

import numpy as np

from .core import SymHollowMatrix, check_tol, symmetrize

SQUARED_CONVENTION = "# squared-distance convention"
EMBEDDING_HEADER = "# squared-distance convention; centered coordinates"


# ---------------------------------------------------------------------------
# square matrices
# ---------------------------------------------------------------------------

def _read_rows(path) -> list[np.ndarray]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                if rows:
                    raise ValueError(
                        f"{path}:{lineno}: header line allowed only at the top")
                continue
            try:
                rows.append(np.array(text.split(","), dtype=float))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return rows


def load_square_matrix(path, hollow: bool = True, tol: float = 1e-9) -> np.ndarray:
    """Read a square float matrix from CSV, validating shape and symmetry.

    With ``hollow=True`` the diagonal must vanish within ``tol`` and is
    zeroed; similarity matrices are loaded with ``hollow=False``.
    """
    check_tol("tol", tol)
    rows = _read_rows(path)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    n = len(rows)
    widths = {len(r) for r in rows}
    if widths != {n}:
        raise ValueError(
            f"{path}: expected {n} columns in each of {n} rows, got "
            f"widths {sorted(widths)}")
    a = np.array(rows, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{path}: non-finite entries")
    if np.abs(a - a.T).max() > tol:
        raise ValueError(f"{path}: asymmetry exceeds tolerance {tol}")
    a = symmetrize(a)
    if hollow:
        if np.abs(a.diagonal()).max() > tol:
            raise ValueError(f"{path}: diagonal magnitude exceeds tolerance {tol}")
        np.fill_diagonal(a, 0.0)
    return a


def load_dissimilarity(path, tol: float = 1e-9) -> SymHollowMatrix:
    """Load a squared-dissimilarity matrix as a SymHollowMatrix."""
    return SymHollowMatrix(load_square_matrix(path, hollow=True, tol=tol))


# Distinct values formatted by one ``%`` each. It bounds the transient
# Python floats and strings of the formatting step: at n = 200, chunks of
# 4096 raised the peak RSS of an estimate invocation by about 0.6 MB more
# than chunks of 512, which format as fast.
_FORMAT_CHUNK = 512


def _save_csv(a, path, header: str) -> None:
    a = np.ascontiguousarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{path}: expected a 2-D array, got {a.ndim}-D")
    # Distinct bit patterns, not values, so that -0.0 stays apart from 0.0.
    bits, inverse = np.unique(a.view(np.uint64), return_inverse=True)
    values = bits.view(np.float64)
    # %.17g is at most 24 bytes long: -2.2250738585072014e-308.
    table = np.empty(values.size, dtype="S24")
    for start in range(0, values.size, _FORMAT_CHUNK):
        chunk = values[start:start + _FORMAT_CHUNK].tolist()
        text = ",".join(["%.17g"] * len(chunk)) % tuple(chunk)
        table[start:start + len(chunk)] = text.encode().split(b",")
    with open(path, "wb") as fh:
        if header:
            fh.write(header.encode("utf-8") + b"\n")
        for row in inverse.reshape(a.shape):
            fh.write(b",".join(table[row].tolist()) + b"\n")


def save_square_matrix(a, path, header: str = SQUARED_CONVENTION) -> None:
    """Write a square matrix as CSV with 17-significant-digit floats.

    The bytes are those of ``np.savetxt`` at ``fmt="%.17g"``,
    ``delimiter=","``, with ``header`` as the first line unless it is
    empty. Each distinct float64 bit pattern is formatted once, and rows
    are written one at a time, so an exactly symmetric matrix formats
    about half of its entries and no whole-file text is built.
    """
    _save_csv(a, path, header)


def save_embedding(coords, path) -> None:
    """Write n x r coordinates as CSV under the embedding header."""
    _save_csv(coords, path, EMBEDDING_HEADER)


# ---------------------------------------------------------------------------
# coordinate files
# ---------------------------------------------------------------------------

def _finish_coords(points: list, path) -> np.ndarray:
    if len(points) < 2:
        raise ValueError(f"{path}: need at least 2 points, got {len(points)}")
    widths = {len(p) for p in points}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent column counts {sorted(widths)}")
    return np.array(points, dtype=float)


def _load_coords_csv(path) -> np.ndarray:
    rows = _read_rows(path)
    return _finish_coords(rows, path)


def _parse_xyz_record(lineno, text, path) -> list[float]:
    toks = text.split()
    try:
        float(toks[0])
    except ValueError:
        toks = toks[1:]  # leading element symbol
    if not toks:
        raise ValueError(f"{path}:{lineno}: no coordinates on line")
    try:
        return [float(t) for t in toks]
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None


def _load_coords_xyz(path) -> np.ndarray:
    """XYZ file: either the chemical format (count line, comment line,
    then 'element x y z' records) or a bare whitespace-separated table."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    records = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
    nonblank = [(no, text) for no, text in records if text]
    if not nonblank:
        raise ValueError(f"{path}: empty file")
    first_tokens = nonblank[0][1].split()
    if len(first_tokens) == 1:
        try:
            count = int(first_tokens[0])
        except ValueError:
            raise ValueError(
                f"{path}:{nonblank[0][0]}: malformed count line") from None
        # the line right after the count is a comment, blank or not
        body = [(no, text) for no, text in records[nonblank[0][0] + 1:] if text]
        if len(body) < count:
            raise ValueError(
                f"{path}: header announces {count} atoms, found {len(body)}")
        body = body[:count]
    else:
        body = nonblank
    points = [_parse_xyz_record(no, text, path) for no, text in body]
    return _finish_coords(points, path)


def _load_coords_pdb(path) -> np.ndarray:
    """ATOM records of model 1, coordinates from fixed columns 31-54.

    HETATM records and any model beyond the first are ignored; atoms keep
    file order. Coordinates are in Angstrom.
    """
    points = []
    model = 1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("MODEL"):
                try:
                    model = int(line.split()[1])
                except (IndexError, ValueError):
                    raise ValueError(
                        f"{path}:{lineno}: malformed MODEL record") from None
                continue
            if line.startswith("ENDMDL"):
                model += 1
                continue
            if not line.startswith("ATOM") or model != 1:
                continue
            try:
                points.append([float(line[30:38]), float(line[38:46]),
                               float(line[46:54])])
            except (ValueError, IndexError):
                raise ValueError(
                    f"{path}:{lineno}: malformed ATOM coordinates") from None
    return _finish_coords(points, path)


_COORD_LOADERS = {
    "csv": _load_coords_csv,
    "xyz": _load_coords_xyz,
    "pdb": _load_coords_pdb,
}


def load_coords(path, fmt: str = "csv") -> np.ndarray:
    """Point coordinates from a csv, xyz or pdb file, as an (n, k) array.

    The result is not centered; distance computations do not care.
    """
    try:
        loader = _COORD_LOADERS[fmt]
    except KeyError:
        raise ValueError(f"unknown coordinate format {fmt!r}; "
                         f"expected one of {sorted(_COORD_LOADERS)}") from None
    return loader(path)


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def dumps_json(obj, indent: int = 2) -> str:
    """JSON text with floats at exactly 17 significant digits.

    The stdlib encoder formats floats with shortest round-trip repr and
    offers no hook to change that, so this walks the structure itself.
    Only dict/list/str/int/float/bool/None are supported, floats must be
    finite, and key order is preserved, which keeps the output
    byte-for-byte reproducible.
    """
    out: list[str] = []
    _emit(obj, out, indent, 0)
    return "".join(out) + "\n"


def _emit(obj, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    end_pad = " " * (indent * level)
    if obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not np.isfinite(v):
            raise ValueError(f"cannot serialize non-finite float {v}")
        out.append(format(v, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {type(key)}")
            out.append(pad + json.dumps(key) + ": ")
            _emit(val, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(end_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(obj):
            out.append(pad)
            _emit(val, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(end_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)} to JSON")
