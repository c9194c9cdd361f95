"""File formats: square-matrix CSV, coordinate files, and report output.

Conventions, stated once and repeated in every header this module writes:
all matrix files hold SQUARED Euclidean distances (or dissimilarities
interpreted as such), and coordinate files hold plain coordinates in
distance units.

Square-matrix CSV: n data rows of n comma-separated floats, with an
optional single leading header line that starts with '#'. Symmetry and
hollowness are validated on load to 1e-9 of the largest |entry|; within
that a matrix is symmetrized by averaging, anything worse is rejected.
Matrices and embeddings are written at ``%.17g``, which reads back
exactly; the bytes equal those of ``np.savetxt(fh, a, fmt="%.17g",
delimiter=",", header=header, comments="")``. The writer formats each
distinct float64 bit pattern once and streams the file row by row, so a
symmetric matrix costs about half its entries in float formatting and
its memory stays a small multiple of the matrix. The distinct patterns
come from one argsort, with the runs of equal patterns ranked in int32.
A square matrix that is symmetric bit for bit, as every fitted one is, is
deduplicated over its upper triangle alone, with its indices mirrored to
the lower one. Its traced transient then peaks at about 4.2 times the
matrix at n = 200, where the format blocks set it and ``np.unique`` would
peak no higher, and 2.6 times at n = 1000, where the 24-byte text of each
distinct value sets it and ``np.unique`` with its intp inverse would take
3.7; deduplicating all n^2 entries of a general matrix takes about 4.6
times; in RSS an estimate at n = 200 still reads about 0.2 MB less than
with ``np.unique``. The formatting itself runs in numpy: each value is
rounded half to even to 17 significant digits through an error-free
product with a double-double power of ten, and laid out by the rules of
``%g``. Zeros, magnitudes outside [1e-280, 1e280], and the rare values
whose rounding that product cannot decide go through Python's ``%``
instead, so every byte is the one ``%.17g`` writes. Reading parses line
by line, rather than with ``np.loadtxt``, so that errors name the file
line and a '#' line below the data is rejected. Every input is read as
UTF-8, and a leading byte-order mark, which spreadsheet CSV exports
write, is skipped.
"""

from __future__ import annotations

import json

import numpy as np

from .core import SymHollowMatrix, _built, symmetrize_within

SQUARED_CONVENTION = "# squared-distance convention"
EMBEDDING_HEADER = "# squared-distance convention; centered coordinates"


# ---------------------------------------------------------------------------
# square matrices
# ---------------------------------------------------------------------------

def _read_rows(path) -> list[np.ndarray]:
    rows = []
    with open(path, "r", encoding="utf-8-sig") as fh:
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


def load_square_matrix(path, hollow: bool = True) -> np.ndarray:
    """Read a square float matrix from CSV, validating shape and symmetry.

    With ``hollow=True`` the diagonal must vanish within the symmetry
    tolerance (see the module docstring) and is zeroed; similarity
    matrices are loaded with ``hollow=False``.
    """
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


# %.17g is at most 24 bytes long: -2.2250738585072014e-308.
_WIDTH = 24
# Values formatted per block, which bounds the formatter's temporaries to
# about 114 bytes per value. At n = 200 (20,100 distinct values) the blocks
# set the writer's peak: 4.2x a.nbytes for a symmetric matrix, against
# 5.8x in blocks of 8192. The smaller blocks cost CPU time: formatting
# the nine files of one 3-penalty estimate at n = 200 took a median 29.4
# ms of CPU time, against 25.8 ms in blocks of 8192 (80 interleaved rounds
# on a 2-core Xeon), about 3.5 ms more per invocation. Whole writes, set
# against 8192-value blocks with np.unique, took 73.6 against 66.9 ms of
# CPU time and 77.1 against 77.9 ms of wall time (60 rounds).
_FORMAT_BLOCK = 4096
# Magnitudes formatted in numpy; the rest, and zeros, go through ``%``.
# Inside these bounds 10**(16 - k) and the products below stay normal.
_FAST_RANGE = (1e-280, 1e280)


def _pow10(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """10**e for e = lo..hi as double-doubles head + tail.

    Built from Python integers, whose true division rounds correctly:
    head is 10**e rounded, tail the rest rounded, so head + tail is within
    about 2**-106 of 10**e relative, and tail is 0 for 0 <= e <= 22.
    """
    heads, tails = [], []
    for e in range(lo, hi + 1):
        num, den = (10 ** e, 1) if e >= 0 else (1, 10 ** -e)
        head = num / den
        a, b = head.as_integer_ratio()
        heads.append(head)
        tails.append((num * b - a * den) / (b * den))
    return np.array(heads), np.array(tails)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = hi + lo into halves of at most 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scale(x: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * 10**e as p + t, with p = fl(x * 10**e).

    Dekker's error-free product gives t exactly when 10**e is a double
    (0 <= e <= 22); otherwise t is off by about 1e-14 for products near
    1e16.
    """
    lo = int(e.min())
    heads, tails = _pow10(lo, int(e.max()))
    e = e - lo
    head = heads[e]
    p = x * head
    xh, xl = _split(x)
    hh, hl = _split(head)
    # Dekker's ((xh hh - p) + xh hl + xl hh) + xl hl, in place
    t = xh * hh
    t -= p
    t += xh * hl
    t += xl * hh
    t += xl * hl
    t += x * tails[e]
    return p, t


def _off_decade(p: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether p + t lies below 1e16 or at or above 1e17 (exact doubles)."""
    return (p - 1e16) + t < 0.0, (p - 1e17) + t >= 0.0


def _round17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x rounded half to even to 17 significant digits, as %.17g rounds.

    For positive x inside ``_FAST_RANGE``, returns the digits as an
    integer n in [1e16, 1e17), the decimal exponent k of n * 10**(k - 16),
    and a mask of the elements left undecided: those still outside the
    decade after one correction of k, and those whose scaled value is
    within 1e-6 of a half-integer when the scaling was not exact.
    Misjudging p + t next to 1e16 or 1e17 by its error yields the same
    n and k, since both sides round to 10**16 or 10**17 there.
    """
    k = np.floor(np.log10(x)).astype(np.int64)
    p, t = _scale(x, 16 - k)
    # log10 can be one off next to a power of ten
    low, high = _off_decade(p, t)
    moved = np.flatnonzero(low | high)
    if moved.size:
        k[moved] += high[moved].astype(np.int64) - low[moved]
        p[moved], t[moved] = _scale(x[moved], 16 - k[moved])
        low, high = _off_decade(p, t)
    floor = np.floor(t)
    frac = t - floor
    n = p.astype(np.int64) + floor.astype(np.int64)
    n += (frac > 0.5) | ((frac == 0.5) & ((n & 1) == 1))
    inexact = (k < -6) | (k > 16)
    undecided = low | high | (inexact & (np.abs(frac - 0.5) < 1e-6))
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    k += carry
    return n, k, undecided


def _digits(n: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of each n in [1e16, 1e17), one row each.

    n splits into int32 halves of 9 digits each, the upper one with a
    leading zero, whose divisions by 10 run side by side.
    """
    halves = np.empty((n.size, 2), np.int32)
    halves[:, 0] = n // 10 ** 9
    halves[:, 1] = n - halves[:, 0].astype(np.int64) * 10 ** 9
    out = np.empty((n.size, 2, 9), np.uint8)
    for j in range(8, -1, -1):
        q = halves // 10
        out[:, :, j] = halves - q * 10
        halves = q
    out += ord("0")
    return out.reshape(n.size, 18)[:, 1:]


def _layout(n: np.ndarray, k: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """The %.17g text of (-1)**neg * n * 10**(k - 16), as an S24 array.

    %g writes fixed notation for -4 <= k < 17 and d.ddde+XX otherwise,
    then strips trailing zeros and a bare point. Rows are grouped by sign
    and by k within fixed notation, so that each group lays out its
    digits by slice copies; the writer passes values sorted by bit
    pattern, which are already grouped.
    """
    m = n.size
    sign = neg.astype(np.int64)
    key = (32 * sign + np.clip(k, -5, 17) + 5).astype(np.int8)
    order = None
    if np.any(key[1:] < key[:-1]):
        order = np.argsort(key, kind="stable")
        key, n, k, sign = key[order], n[order], k[order], sign[order]
    digits = _digits(n)
    out = np.zeros((m, _WIDTH), np.uint8)
    cuts = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
    for r0, r1 in zip([0] + cuts, cuts + [m]):
        c, kg = divmod(int(key[r0]), 32)  # sign column, the group's k
        kg -= 5
        rows, d = out[r0:r1], digits[r0:r1]
        if c:
            rows[:, 0] = ord("-")
        if kg < -4 or kg > 16:
            rows[:, c] = d[:, 0]
            rows[:, c + 1] = ord(".")
            rows[:, c + 2:c + 18] = d[:, 1:]
        elif kg >= 0:
            rows[:, c:c + kg + 1] = d[:, :kg + 1]
            if kg < 16:
                rows[:, c + kg + 1] = ord(".")
                rows[:, c + kg + 2:c + 18] = d[:, kg + 1:]
        else:
            rows[:, c:c + 1 - kg] = ord("0")
            rows[:, c + 1] = ord(".")
            rows[:, c + 1 - kg:c + 18 - kg] = d
    # significant digits left after stripping trailing zeros
    sig = np.full(m, 17)
    idx = np.arange(m)
    for j in range(16, 0, -1):
        idx = idx[digits[idx, j] == ord("0")]
        if not idx.size:
            break
        sig[idx] = j
    sci = (k < -4) | (k > 16)
    short = np.flatnonzero((sig < 17) | sci)
    sig, k, sign, sci = sig[short], k[short], sign[short], sci[short]
    length = sign + np.where(
        sci, 1 + (sig > 1) * sig,
        np.where(k >= 0, k + 1 + (sig > k + 1) * (sig - k), 1 - k + sig))
    keep = np.arange(_WIDTH) < np.arange(_WIDTH + 1)[:, None]
    out[short] *= keep[length]
    if sci.any():
        flat = out.reshape(-1)
        exp = k[sci]
        at = short[sci] * _WIDTH + length[sci]
        flat[at] = ord("e")
        flat[at + 1] = np.where(exp < 0, ord("-"), ord("+"))
        exp = np.abs(exp)
        wide = exp >= 100
        flat[at + 2] = np.where(wide, exp // 100, exp // 10 % 10) + ord("0")
        flat[at + 3] = np.where(wide, exp // 10 % 10, exp % 10) + ord("0")
        flat[at[wide] + 4] = exp[wide] % 10 + ord("0")
    text = out.view(f"S{_WIDTH}").ravel()
    if order is None:
        return text
    unsorted = np.empty_like(text)
    unsorted[order] = text
    return unsorted


def _format_17g(values: np.ndarray) -> np.ndarray:
    """``b"%.17g" % v`` for each float64 v of 1-D ``values``, as an S24 array.

    Magnitudes inside ``_FAST_RANGE`` are rounded and laid out in numpy,
    in blocks of ``_FORMAT_BLOCK``. Zeros, the rest, and the elements
    whose rounding ``_round17`` leaves undecided go through ``%`` itself,
    so the result is exact for every input.
    """
    table = np.empty(values.size, dtype=f"S{_WIDTH}")
    slow = []  # index arrays of the values left to ``%``
    for start in range(0, values.size, _FORMAT_BLOCK):
        v = values[start:start + _FORMAT_BLOCK]
        x = np.abs(v)
        inside = (x >= _FAST_RANGE[0]) & (x <= _FAST_RANGE[1])
        slow.append(start + np.flatnonzero(~inside))
        fast = np.flatnonzero(inside)
        if not fast.size:
            continue
        n, k, undecided = _round17(x[fast])
        table[start + fast] = _layout(n, k, np.signbit(v[fast]))
        slow.append(start + fast[undecided])
    for idx in slow:
        for i in idx.tolist():
            table[i] = b"%.17g" % values[i]
    return table


def _ranked(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the 1-D uint64 array ``flat``, ascending, and
    the index of each entry's value among them: int32 below 2**31
    distinct values, intp above.

    One argsort gathers the patterns in order; the runs of equal patterns
    are ranked by a cumulative sum and the ranks scattered back through
    the sort order. Each temporary goes as soon as it has been used.
    """
    order = np.argsort(flat)
    ordered = flat[order]
    start = np.empty(flat.size, bool)
    start[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=start[1:])
    values = ordered[start]
    del ordered
    dtype = np.int32 if values.size < 2**31 else np.intp
    rank = np.cumsum(start, dtype=dtype)
    del start
    rank -= 1
    index = np.empty(flat.size, dtype)
    index[order] = rank
    return values, index


def _distinct(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the 2-D uint64 array ``bits``, ascending,
    and the index of each entry's value among them, in the shape of
    ``bits``.

    A square array that is symmetric bit for bit is deduplicated over its
    upper triangle alone, and the indices of that triangle are mirrored to
    the lower one. Ranked by ``_ranked``, this peaks at about 2.2 times
    the bytes of ``bits`` for a symmetric array and 3.1 times for others;
    ``np.unique`` with its intp inverse would take 3.7 and 6.1 times. For
    a symmetric matrix that sets the writer's peak only from about
    n = 600; below it the format blocks set it.
    """
    n = bits.shape[0]
    if bits.shape != (n, n) or not np.array_equal(bits, bits.T):
        values, index = _ranked(bits.ravel())
        return values, index.reshape(bits.shape)
    upper = np.triu(np.ones((n, n), dtype=bool))
    values, inverse = _ranked(bits[upper])
    index = np.empty((n, n), inverse.dtype)
    index[upper] = inverse
    index.T[upper] = inverse
    return values, index


def _save_csv(a, path, header: str) -> None:
    a = np.ascontiguousarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{path}: expected a 2-D array, got {a.ndim}-D")
    # Distinct bit patterns, not values, so that -0.0 stays apart from 0.0.
    bits, index = _distinct(a.view(np.uint64))
    table = _format_17g(bits.view(np.float64))
    del bits
    with open(path, "wb") as fh:
        if header:
            fh.write(header.encode("utf-8") + b"\n")
        for row in index:
            fh.write(b",".join(table[row].tolist()) + b"\n")


def save_square_matrix(a, path, header: str = SQUARED_CONVENTION) -> None:
    """Write a square matrix as CSV with 17-significant-digit floats.

    The bytes are those of ``np.savetxt`` at ``fmt="%.17g"``,
    ``delimiter=","``, with ``header`` as the first line unless it is
    empty. Each distinct float64 bit pattern is formatted once, and rows
    are written one at a time, so an exactly symmetric matrix formats
    about half of its entries and no whole-file text is built. A matrix
    symmetric bit for bit is deduplicated over its upper triangle by an
    argsort and an int32 rank. The transient is near 4.2 times
    ``a.nbytes`` at n = 200, set by the format blocks, and 2.6 times at
    n = 1000, set by the table of formatted values; other arrays are
    deduplicated over all entries, at about 4.6 to 6.2 times.
    Values are rounded to 17 digits exactly, half to even, in numpy;
    those it cannot decide exactly, and zeros and extreme magnitudes, are
    formatted by ``%.17g`` itself.
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
    with open(path, "r", encoding="utf-8-sig") as fh:
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
    points = [_parse_xyz_record(no, text, path) for no, text in body]
    return _finish_coords(points, path)


def _load_coords_pdb(path) -> np.ndarray:
    """ATOM records of model 1, coordinates from fixed columns 31-54.

    HETATM records and any model beyond the first are ignored; atoms keep
    file order. Coordinates are in Angstrom.
    """
    points = []
    model = 1
    with open(path, "r", encoding="utf-8-sig") as fh:
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

    The result is not centered: ``edm_from_coords`` and
    ``Embedding.from_points`` center it before any Gram product, which
    would otherwise round relative to the coordinates' offset.
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

def dumps_json(obj) -> str:
    """JSON text with floats at exactly 17 significant digits.

    The stdlib encoder formats floats with shortest round-trip repr and
    offers no hook to change that, so this walks the structure itself.
    Only dict/list/str/int/float/bool/None are supported, floats must be
    finite, and key order is preserved, which keeps the output
    byte-for-byte reproducible.
    """
    out: list[str] = []
    _emit(obj, out, 0)
    return "".join(out) + "\n"


def _emit(obj, out: list[str], level: int) -> None:
    pad = "  " * (level + 1)
    end_pad = "  " * level
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
            _emit(val, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(end_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(obj):
            out.append(pad)
            _emit(val, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(end_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)} to JSON")
