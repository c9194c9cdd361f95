"""Exact ``%.17g`` text of float64 arrays, computed in numpy.

Each value is rounded half to even to 17 significant digits through an
error-free product with a double-double power of ten, and laid out by
the rules of ``%g`` from a table of the text of 0000 to 9999. Zeros,
magnitudes outside [1e-280, 1e280], and the rare values whose rounding
that product cannot decide go through Python's ``%`` instead, so every
byte is the one ``%.17g`` writes. A call costs about as much as
formatting a few hundred values, so callers pass values in blocks of a
few thousand, sorted by float64 bit pattern read as unsigned integers.
The lookup tables are built at import (about 3 ms), from Python integers
and bytes rather than numpy arithmetic: numpy loops that nothing else in
a process runs would map about 0.5 MB more of numpy's code into its
resident memory.
"""

from __future__ import annotations

import numpy as np

# %.17g is at most 24 bytes long: -2.2250738585072014e-308.
WIDTH = 24
# Magnitudes formatted in numpy; the rest, and zeros, go through ``%``.
# Inside these bounds 10**(16 - k) and the products below stay normal.
_FAST_RANGE = (1e-280, 1e280)
# floor(log10 x) + _K0 indexes the power table; it is positive over
# _FAST_RANGE and one decade beyond it.
_K0 = 282


def _pow10() -> np.ndarray:
    """Columns k + _K0 for k = -_K0.._K0: 10**(16 - k) as a double-double
    head + tail, head's Veltkamp halves, and 1.0 where head + tail is not
    10**(16 - k) exactly (16 - k outside 0..22), else 0.0.

    Built from Python integers, whose true division rounds correctly:
    head is 10**e rounded, tail the rest rounded, so head + tail is within
    about 2**-106 of 10**e relative, and tail is 0 for 0 <= e <= 22.
    """
    table = np.empty((5, 2 * _K0 + 1))
    for i in range(2 * _K0 + 1):
        e = 16 + _K0 - i
        num, den = (10 ** e, 1) if e >= 0 else (1, 10 ** -e)
        head = num / den
        a, b = head.as_integer_ratio()
        c = 134217729.0 * head  # 2**27 + 1
        high = c - (c - head)
        table[:, i] = (head, high, head - high,
                       (num * b - a * den) / (b * den), not 0 <= e <= 22)
    return table


_POW10 = _pow10()


def _scale(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * 10**(16 - k) as p + t, with p its rounded product, for k
    offset by _K0.

    Dekker's error-free product gives t exactly when 10**e is a double
    (0 <= e <= 22); otherwise t is off by about 1e-14 for products near
    1e16.
    """
    head, hh, hl, tail = _POW10[:4]
    p = x * head.take(k)
    # Veltkamp's split of x into xh + xl, 26 bits each
    xh = 134217729.0 * x  # 2**27 + 1
    xl = xh - x
    xh -= xl
    np.subtract(x, xh, out=xl)
    hh, hl = hh.take(k), hl.take(k)
    # Dekker's ((xh hh - p) + xh hl + xl hh) + xl hl, in place
    t = xh * hh
    t -= p
    xh *= hl
    t += xh
    hh *= xl
    t += hh
    hl *= xl
    t += hl
    hl = tail.take(k)
    hl *= x
    t += hl
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
    n and k, since both sides round to 10**16 or 10**17 there. p is an
    even integer (p >= 1e16 > 2**53), so rounding t half to even rounds
    p + t half to even.
    """
    k = np.log10(x)
    k += _K0
    k = k.astype(np.intp)
    p, t = _scale(x, k)
    # log10 can be one off next to a power of ten; elsewhere |t| < 20
    off = None
    if p.min() < 1e16 + 64.0 or p.max() >= 1e17 - 64.0:
        low, high = _off_decade(p, t)
        off = low | high
        if off.any():
            moved = np.flatnonzero(off)
            k[moved] += high[moved].astype(np.intp) - low[moved]
            p[moved], t[moved] = _scale(x[moved], k[moved])
            low, high = _off_decade(p, t)
            off = low | high
    r = np.rint(t)
    n = p.astype(np.int64)
    n += r.astype(np.int64)
    r -= t
    r *= _POW10[4].take(k)
    undecided = np.abs(r, out=r) > 0.5 - 1e-6
    if off is not None:
        undecided |= off
    k -= _K0
    if n.max(initial=0) == 10 ** 17:
        carry = n == 10 ** 17
        n[carry] = 10 ** 16
        k += carry
    return n, k, undecided


def _quads() -> tuple[np.ndarray, np.ndarray]:
    """The text of 0000 to 9999 as little-endian uint32, and the digits
    each keeps once trailing zeros are stripped (none for 0000)."""
    pairs = [b"%02d" % i for i in range(100)]
    kept = [len(pair.rstrip(b"0")) for pair in pairs]
    # high + high.join(pairs) is the text of high00 to high99; high00
    # keeps what high keeps, and the others 2 more than their low pair
    text = b"".join(high + high.join(pairs) for high in pairs)
    low = bytes(2 + k for k in kept[1:])
    kept = b"".join(bytes([h]) + low for h in kept)
    return np.frombuffer(text, "<u4"), np.frombuffer(kept, np.int8)


_QUADS = _quads()


def _digits(n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The leading ASCII digit of each n in [1e16, 1e17), the text of its
    other 16 digits as four little-endian uint32 quads, one row each, and
    the digits left once trailing zeros are stripped. Each quad is looked
    up in a table of 0000 to 9999.
    """
    text, kept = _QUADS
    lead = n // 10 ** 16
    halves = np.empty((n.size, 2), np.int64)
    np.subtract(n, lead * 10 ** 16, out=halves[:, 1])
    np.floor_divide(halves[:, 1], 10 ** 8, out=halves[:, 0])
    halves[:, 1] -= halves[:, 0] * 10 ** 8
    quads = np.empty((n.size, 2, 2), np.int64)
    np.floor_divide(halves, 10 ** 4, out=quads[:, :, 0])
    np.subtract(halves, quads[:, :, 0] * 10 ** 4, out=quads[:, :, 1])
    quads = quads.reshape(n.size, 4)
    lead += ord("0")
    # the lead digit, 4 per quad up to the last nonzero one, and its kept
    sig = kept.take(quads[:, 3])
    sig += 13
    rows = np.flatnonzero(sig == 13)
    for j in (2, 1, 0):
        if not rows.size:
            break
        last = kept.take(quads[rows, j])
        sig[rows] = last + (1 + 4 * j)
        rows = rows[last == 0]
    return lead.astype(np.uint8), text.take(quads), sig


# _KEEP[j] keeps the first j bytes of a row of WIDTH, as uint64 words.
_KEEP = np.where(np.arange(WIDTH) < np.arange(WIDTH + 1)[:, None], 255,
                 0).astype(np.uint8).view(np.uint64)


def _forms() -> tuple[np.ndarray, np.ndarray]:
    """For a row of ``_layout`` key ``key``: the text before its digits,
    a sign and the 0.000 of fixed notation below 1, as a row of WIDTH
    bytes; and at [18 key + s], the length of its text before any
    exponent when its digits keep s once trailing zeros are stripped."""
    prefix = np.zeros((64, WIDTH), np.uint8)
    length = np.zeros((64, 18), np.intp)
    for key in range(64):
        c, k = divmod(key, 32)
        k -= 5
        prefix[key, 0] = ord("-") if c else 0
        if -4 <= k < 0:
            prefix[key, c:c + 1 - k] = ord("0")
            prefix[key, c + 1] = ord(".")
        for s in range(1, 18):
            if k < -4 or k > 16:
                length[key, s] = c + s + (s > 1)  # d.ddd
            elif k >= 0:
                length[key, s] = c + (s + 1 if s > k + 1 else k + 1)
            else:
                length[key, s] = c + 1 - k + s  # 0.000ddd
    return prefix, length.ravel()


_FORMS = _forms()


def _exponents() -> np.ndarray:
    """b"e%+03d" % k for k = -330..330, as rows of 5 bytes."""
    return np.array([b"e%+03d" % k for k in range(-330, 331)],
                    "S5").view(np.uint8).reshape(-1, 5)


_EXPONENTS = _exponents()


def _layout(n: np.ndarray, k: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """The %.17g text of (-1)**neg * n * 10**(k - 16), as an S24 array.

    %g writes fixed notation for -4 <= k < 17 and d.ddde+XX otherwise,
    then strips trailing zeros and a bare point. Each group of rows with
    one sign, and one k within fixed notation, lays out its digits by
    slice copies. The rows must come grouped, positive before negative and
    k ascending within each sign, as values sorted by bit pattern come;
    ValueError otherwise. Every row starts from the prefix of its group
    and is cut to its length.
    """
    key = np.maximum(k, -5)
    np.minimum(key, 17, out=key)
    key += 5
    np.add(key, 32, out=key, where=neg)
    if (key[1:] < key[:-1]).any():
        raise ValueError("values must be sorted by bit pattern")
    lead, quads, sig = _digits(n)
    prefix, lengths = _FORMS
    out = prefix.take(key, axis=0)
    cuts = np.flatnonzero(key[1:] != key[:-1]) + 1
    starts = [0] + cuts.tolist()
    sci = []
    for r0, r1, group in zip(starts, starts[1:] + [n.size],
                             key.take(starts).tolist()):
        c, kg = divmod(group, 32)  # sign column, the group's k
        kg -= 5
        rows = out[r0:r1]
        # the 17 digits go in after the prefix, and those after the point
        # then move right by one
        at = c + 1 - kg if -4 <= kg < 0 else c
        rows[:, at] = lead[r0:r1]
        rows[:, at + 1:at + 17].view("<u4")[:] = quads[r0:r1]
        if at > c:  # 0.000ddd
            continue
        scientific = kg < -4 or kg > 16
        point = c + 1 if scientific else c + kg + 1
        if point < c + 17:
            rows[:, point + 1:c + 18] = rows[:, point:c + 17]
            rows[:, point] = ord(".")
        if scientific:
            sci.append((r0, r1))
    key *= 18
    key += sig
    length = lengths.take(key)
    words = out.view(np.uint64)
    words &= _KEEP.take(length, axis=0)
    for r0, r1 in sci:
        at = np.arange(r0 * WIDTH, r1 * WIDTH, WIDTH) + length[r0:r1]
        out.reshape(-1)[at[:, None] + np.arange(5)] = _EXPONENTS.take(
            k[r0:r1] + 330, axis=0)
    return out.view(f"S{WIDTH}").ravel()


def format_17g(values: np.ndarray) -> np.ndarray:
    """``b"%.17g" % v`` for each float64 v of 1-D ``values``, as an S24 array.

    ``values`` must be sorted by bit pattern, as unsigned integers: each
    sign's magnitudes ascending, positive before negative. ValueError is
    raised where they are not and the sign or decade steps back.
    Magnitudes inside ``_FAST_RANGE`` are rounded and laid out in numpy.
    Zeros, the rest, and the elements whose rounding ``_round17`` leaves
    undecided go through ``%`` itself, so the result is exact for every
    sorted input.
    """
    x = np.abs(values)
    if values.size and _FAST_RANGE[0] <= x.min() and x.max() <= _FAST_RANGE[1]:
        n, k, undecided = _round17(x)
        text = _layout(n, k, np.signbit(values))
        slow = np.flatnonzero(undecided)
    else:
        text = np.empty(values.size, f"S{WIDTH}")
        fast = x >= _FAST_RANGE[0]
        fast &= x <= _FAST_RANGE[1]
        idx = np.flatnonzero(fast)
        if idx.size:
            n, k, undecided = _round17(x[idx])
            text[idx] = _layout(n, k, np.signbit(values[idx]))
            idx = idx[undecided]
        slow = np.concatenate([np.flatnonzero(~fast), idx])
    for i in slow.tolist():
        text[i] = b"%.17g" % values[i]
    return text
