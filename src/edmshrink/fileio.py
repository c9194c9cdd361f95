"""File formats: square-matrix CSV, coordinate files, and report output.

Conventions, stated once and repeated in every header this module writes:
all matrix files hold SQUARED Euclidean distances (or dissimilarities
interpreted as such), and coordinate files hold plain coordinates in
distance units.

Square-matrix CSV: n >= 2 data rows of n comma-separated floats. Lines
that start with '#' may stand above the data, any number of them, and
nowhere else; blank lines are skipped anywhere. A token that is not a
float, or a '#' line below a data row, is rejected with the file and
line, ``path:line``. Symmetry and hollowness are validated on load to
1e-9 of the largest |entry|; within that a matrix is symmetrized by
averaging, anything worse is rejected.
Matrices and embeddings are written at ``%.17g``, which reads back
exactly; the bytes equal those of ``np.savetxt(fh, a, fmt="%.17g",
delimiter=",", header=header, comments="")``. The writer streams the
file by blocks of rows, each of which formats about 2,048 values, or
1/32 of the array if that is more, once per distinct float64 bit
pattern. A matrix that is symmetric bit for bit, as every fitted one is,
formats only the upper triangle: a block formats its rows from its first
diagonal entry on, and takes the text of the columns to their left from
the blocks above, which hand it over transposed and drop it once it is
written. At most about n^2/4 values of text are kept at a time, so the
writer's traced transient is about 1.7 times the matrix at n = 200 and
1.3 times at n = 1000. The text itself comes from ``g17``, which formats
in numpy, exactly as ``%.17g`` does. Reading parses line
by line, rather than with ``np.loadtxt``, so that errors name the file
line and a '#' line below the data is rejected. Every input, matrix or
coordinates, is read through ``_lines``: as UTF-8 text with the line
endings of text mode, a leading byte-order mark, which spreadsheet CSV
exports write, skipped, and the first byte that is not UTF-8 named by
``path:line``.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .core import SymHollowMatrix, _built, symmetrize_within
from .g17 import format_17g as _format_17g

SQUARED_CONVENTION = "# squared-distance convention"
EMBEDDING_HEADER = "# squared-distance convention; centered coordinates"


# ---------------------------------------------------------------------------
# square matrices
# ---------------------------------------------------------------------------

def _lines(path):
    """(number, text) of each line of the file ``path``, numbered from 1.

    The file is read as UTF-8 text in text mode, so that a line ends at
    CR LF, CR or LF, and a leading byte-order mark is skipped. A byte
    that is not UTF-8 raises ValueError naming its line: it is decoded
    to a lone surrogate, which no UTF-8 text holds, and only a line that
    is not ASCII is searched for one.
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            bad = not line.isascii() and re.search("[\udc80-\udcff]", line)
            if bad:
                raise ValueError(f"{path}:{lineno}: byte "
                                 f"0x{ord(bad[0]) - 0xDC00:02x} is not UTF-8")
            yield lineno, line


def _read_rows(path) -> list[np.ndarray]:
    rows = []
    for lineno, line in _lines(path):
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


def load_square_matrix(path, hollow: bool = True) -> np.ndarray:
    """Read a square float matrix of at least 2 rows from CSV, validating
    shape and symmetry; every error names the file.

    With ``hollow=True`` the diagonal must vanish within the symmetry
    tolerance (see the module docstring) and is zeroed; similarity
    matrices are loaded with ``hollow=False``.
    """
    rows = _read_rows(path)
    n = len(rows)
    if n < 2:
        raise ValueError(f"{path}: need at least 2 rows, got {n}")
    widths = {len(r) for r in rows}
    if widths != {n}:
        raise ValueError(
            f"{path}: expected {n} columns in each of {n} rows, got "
            f"widths {sorted(widths)}")
    a = np.array(rows, dtype=float)
    del rows
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{path}: non-finite entries")
    try:
        return symmetrize_within(a, hollow)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_dissimilarity(path) -> SymHollowMatrix:
    """Load a squared-dissimilarity matrix as a SymHollowMatrix."""
    return SymHollowMatrix(_built(load_square_matrix(path)))


# Values a block of rows formats at least, and rows a block of a symmetric
# matrix spans at most; see ``_row_blocks``. A block's dedup and format
# temporaries, about 150 bytes per value, and the text it assembles stay
# within a fraction of the matrix, while the fixed cost of each format
# call, about a third of the time to format 2,048 values, is paid 12 times
# for a symmetric matrix at n = 200 and about 20 times from n = 256 on.
_BLOCK_VALUES = 2048
_BLOCK_ROWS = 64


def _text(bits: np.ndarray, known: list) -> np.ndarray:
    """The %.17g text of the float64 bit patterns of 2-D ``bits``, as an
    S24 array of its shape, with each distinct pattern formatted once.

    ``np.unique`` finds the distinct patterns, sorted, and the index of
    each entry's among them, through which their text is taken back.
    ``format_17g`` gets them, or an ascending subset, in that order: it
    needs values sorted by bit pattern.
    ``known`` holds the distinct patterns of the last block, sorted,
    and their text if they were few, as in integer-valued matrices; it
    supplies the text of the patterns this block shares with that one,
    and is replaced by this block's.
    """
    distinct, index = np.unique(bits.ravel(), return_inverse=True)
    if known:
        keys, texts = known
        at = np.searchsorted(keys, distinct)
        np.minimum(at, keys.size - 1, out=at)
        hit = keys.take(at) == distinct
        table = texts.take(at)
        todo = np.flatnonzero(~hit)
        table[todo] = _format_17g(distinct.take(todo).view(np.float64))
    else:
        table = _format_17g(distinct.view(np.float64))
    known[:] = (distinct, table) if 4 * distinct.size <= index.size else ()
    return table.take(index).reshape(bits.shape)


def _row_blocks(n: int, cols: int, symmetric: bool) -> list[tuple[int, int]]:
    """Row ranges [r0, r1) that each format about ``_BLOCK_VALUES`` values,
    or 1/32 of the n x cols array if that is more, at least one row each.

    A block of a symmetric matrix formats its rows from column r0 on, and
    spans at most ``_BLOCK_ROWS`` rows, which bounds the text of the
    columns left of r0 that it takes from the blocks above.
    """
    values = max(_BLOCK_VALUES, n * cols // 32)
    blocks, r0 = [], 0
    while r0 < n:
        width = cols - r0 if symmetric else cols
        rows = values // max(width, 1)
        if symmetric:
            rows = min(rows, _BLOCK_ROWS)
        r1 = min(n, r0 + max(rows, 1))
        blocks.append((r0, r1))
        r0 = r1
    return blocks


def _save_csv(a, path, header: str) -> None:
    a = np.ascontiguousarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{path}: expected a 2-D array, got {a.ndim}-D")
    # Bit patterns, not values, so that -0.0 stays apart from 0.0.
    bits = a.view(np.uint64)
    n, cols = bits.shape
    symmetric = n == cols and np.array_equal(bits, bits.T)
    blocks = _row_blocks(n, cols, symmetric)
    # the text each block takes from the blocks above, one piece each
    handed: list[list[np.ndarray]] = [[] for _ in blocks]
    known: list = []
    with open(path, "wb") as fh:
        if header:
            fh.write(header.encode("utf-8") + b"\n")
        for b, (r0, r1) in enumerate(blocks):
            if not symmetric:
                _write_rows(fh, [_text(bits[r0:r1], known)])
                continue
            # the rows from column r0 on; the square's lower triangle
            # repeats its upper one, so it adds no distinct value
            text = _text(bits[r0:r1, r0:], known)
            for d in range(b + 1, len(blocks)):
                s0, s1 = blocks[d]
                handed[d].append(text[:, s0 - r0:s1 - r0].T.copy())
            handed[b].append(text)
            del text
            _write_rows(fh, handed[b])


def _write_rows(fh, parts: list[np.ndarray]) -> None:
    """Write the rows of the S24 arrays ``parts``, laid side by side, as
    CSV lines. The list is emptied, so that each part goes once joined."""
    text = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    parts.clear()
    for row in text:
        fh.write(b",".join(row.tolist()) + b"\n")


def save_square_matrix(a, path, header: str = SQUARED_CONVENTION) -> None:
    """Write a square matrix as CSV with 17-significant-digit floats.

    The bytes are those of ``np.savetxt`` at ``fmt="%.17g"``,
    ``delimiter=","``, with ``header`` as the first line unless it is
    empty. The file is written by blocks of rows, each formatting each of
    its distinct float64 bit patterns once. A matrix symmetric bit for
    bit formats only its upper triangle, and hands the text of each block
    down to the rows below, transposed, until they are written, so that
    no whole-matrix table is built. The transient is near 1.7 times
    ``a.nbytes`` at n = 200 and 1.3 times at n = 1000, and a fraction of
    that for other arrays. Values are rounded to 17 digits exactly, half
    to even, in numpy; those it cannot decide exactly, and zeros and
    extreme magnitudes, are formatted by ``%.17g`` itself.
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
    coords = np.array(points, dtype=float)
    if not np.all(np.isfinite(coords)):
        raise ValueError(f"{path}: coordinates must be finite")
    return coords


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


def _load_coords_xyz(path) -> list[list[float]]:
    """XYZ file: either the chemical format (count line, comment line,
    then 'element x y z' records) or a bare whitespace-separated table."""
    records = [(no, line.strip()) for no, line in _lines(path)]
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
        if count < 1:
            raise ValueError(
                f"{path}:{nonblank[0][0]}: atom count {count} is below 1")
        # the line right after the count is a comment, blank or not
        body = [(no, text) for no, text in records[nonblank[0][0] + 1:] if text]
        if len(body) < count:
            raise ValueError(
                f"{path}: header announces {count} atoms, found {len(body)}")
        body = body[:count]
    else:
        body = nonblank
    return [_parse_xyz_record(no, text, path) for no, text in body]


def _load_coords_pdb(path) -> list[list[float]]:
    """ATOM records of model 1, coordinates from fixed columns 31-54.

    HETATM records and any model beyond the first are ignored; atoms keep
    file order. Coordinates are in Angstrom.
    """
    points = []
    model = 1
    for lineno, line in _lines(path):
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
    return points


_COORD_LOADERS = {
    "csv": _read_rows,
    "xyz": _load_coords_xyz,
    "pdb": _load_coords_pdb,
}


def load_coords(path, fmt: str = "csv") -> np.ndarray:
    """Point coordinates from a csv, xyz or pdb file, as an (n, k) array
    of at least 2 finite points; fewer points, ragged rows or a point
    that is not finite raise ValueError naming the file.

    The result is not centered: ``Embedding.from_points``, which
    ``edm_from_coords`` and ``run_experiment`` read coordinates through,
    centers it before any Gram product, which would otherwise round
    relative to the coordinates' offset.
    """
    try:
        loader = _COORD_LOADERS[fmt]
    except KeyError:
        raise ValueError(f"unknown coordinate format {fmt!r}; "
                         f"expected one of {sorted(_COORD_LOADERS)}") from None
    return _finish_coords(loader(path), path)


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def dumps_json(obj) -> str:
    """JSON text with floats at exactly 17 significant digits.

    The stdlib encoder formats floats with shortest round-trip repr and
    offers no hook to change that, so this walks the structure itself.
    Only dict/list/str/int/float/bool/None are supported, floats must be
    finite, and key order is preserved, which keeps the output
    byte-for-byte reproducible. A non-finite float raises ValueError
    naming the key that holds it.
    """
    out: list[str] = []
    _emit(obj, out, 0)
    return "".join(out) + "\n"


def _emit(obj, out: list[str], level: int, key: str | None = None) -> None:
    if obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not np.isfinite(v):
            raise ValueError(
                f"cannot serialize non-finite float {v}"
                + (f" in field {key!r}" if key else "")
                + ": a result lies outside the range of a double")
        out.append(format(v, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (dict, list, tuple)):
        # a list's items go under the key of the list
        is_dict = isinstance(obj, dict)
        brackets = "{}" if is_dict else "[]"
        if not obj:
            out.append(brackets)
            return
        out.append(brackets[0] + "\n")
        items = obj.items() if is_dict else ((key, val) for val in obj)
        for i, (name, val) in enumerate(items):
            out.append("  " * (level + 1))
            if is_dict:
                if not isinstance(name, str):
                    raise TypeError(
                        f"JSON keys must be strings, got {type(name)}")
                out.append(json.dumps(name) + ": ")
            _emit(val, out, level + 1, name)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append("  " * level + brackets[1])
    else:
        raise TypeError(f"cannot serialize {type(obj)} to JSON")
