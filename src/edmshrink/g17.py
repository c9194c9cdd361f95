"""Exact ``%.17g`` text of float64 arrays, computed in numpy.

Each value is rounded half to even to 17 significant digits through an
error-free product with a double-double power of ten, and its 17 digits
are laid out in fixed or scientific notation from a table of the text
of 0000 to 9999. Then ``%g``'s rule is applied as ``%g`` states it:
numpy's string functions strip the trailing zeros, and then a bare
point, of the rows that end in 0 and hold a point, before the exponent
is appended. Zeros, magnitudes outside [1e-280, 1e280], and the rare
values whose rounding that product cannot decide go through Python's
``%`` instead, so every byte is the one ``%.17g`` writes. A call costs
about as much as formatting a few hundred values, so callers pass values
in blocks of a few thousand, sorted by float64 bit pattern read as
unsigned integers. Every lookup table is built at import from Python
integers and bytes, not with numpy arithmetic: numpy loops that nothing
else in a process runs would map more of numpy's code into its resident
memory.
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


def _quads() -> np.ndarray:
    """The text of 0000 to 9999 as little-endian uint32."""
    pairs = [b"%02d" % i for i in range(100)]
    # high + high.join(pairs) is the text of high00 to high99
    text = b"".join(high + high.join(pairs) for high in pairs)
    return np.frombuffer(text, "<u4")


_QUADS = _quads()


def _digits(n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The leading ASCII digit of each n in [1e16, 1e17), the text of its
    other 16 digits as four little-endian uint32 quads, one row each, and
    whether its last digit is 0. Each quad is looked up in a table of
    0000 to 9999.
    """
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
    text = _QUADS.take(quads)
    # the last digit is the high byte of the last little-endian quad
    return lead.astype(np.uint8), text, text[:, 3] >> 24 == ord("0")


def _forms() -> np.ndarray:
    """For each ``_layout`` key, the text before its digits, a sign and
    the 0.000 of fixed notation below 1, as a row of WIDTH bytes."""
    prefix = []
    for key in range(64):
        c, k = divmod(key, 32)
        k -= 5
        below_one = b"0." + b"0" * (-1 - k) if -4 <= k < 0 else b""
        prefix.append(b"-" * c + below_one)
    return np.array(prefix, f"S{WIDTH}").view(np.uint8).reshape(64, WIDTH)


_FORMS = _forms()


def _exponents() -> np.ndarray:
    """b"e%+03d" % k for k = -330..330, as an S5 array."""
    return np.array([b"e%+03d" % k for k in range(-330, 331)], "S5")


_EXPONENTS = _exponents()


def _layout(n: np.ndarray, k: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """The %.17g text of (-1)**neg * n * 10**(k - 16), as an S24 array.

    %g writes fixed notation for -4 <= k < 17 and d.ddde+XX otherwise.
    Each group of rows with one sign, and one k within fixed notation,
    copies its prefix and lays out its 17 digits and point by slice
    copies. The rows must come grouped, positive before negative and k
    ascending within each sign, as values sorted by bit pattern come;
    ValueError otherwise. Then, as %g does, the rows that end in 0 and
    hold a point (all but fixed k = 16) lose their trailing zeros and
    then a bare point, and the scientific rows get their exponent.
    """
    key = np.maximum(k, -5)
    np.minimum(key, 17, out=key)
    key += 5
    np.add(key, 32, out=key, where=neg)
    if (key[1:] < key[:-1]).any():
        raise ValueError("values must be sorted by bit pattern")
    lead, quads, zero = _digits(n)
    out = _FORMS.take(key, axis=0)
    cuts = np.flatnonzero(key[1:] != key[:-1]) + 1
    starts = [0] + cuts.tolist()
    sci = []
    for r0, r1, group in zip(starts, starts[1:] + [n.size],
                             key.take(starts).tolist()):
        c, kg = divmod(group, 32)  # sign column, the group's k
        kg -= 5
        rows = out[r0:r1]
        scientific = kg < -4 or kg > 16
        # the lead digit goes in after the prefix, and the point after the
        # digits before it; at + 17 where the prefix holds the point
        # (0.000ddd) or there is none (k = 16)
        at = c + 1 - kg if -4 <= kg < 0 else c
        point = c + 1 if scientific else at + 17 if kg < 0 else c + kg + 1
        rows[:, at] = lead[r0:r1]
        digits = quads[r0:r1]
        if point < at + 17:
            # the other 16 digits go in one column right, those before the
            # point then one column left
            rows[:, at + 2:at + 18].view("<u4")[:] = digits
            rows[:, at + 1:point] = digits.view(np.uint8)[:, :point - at - 1]
            rows[:, point] = ord(".")
        else:
            rows[:, at + 1:at + 17].view("<u4")[:] = digits
            if kg == 16:  # 17 digits and no point, whose zeros stay
                zero[r0:r1] = False
        if scientific:
            sci.append((r0, r1))
    text = out.view(f"S{WIDTH}").ravel()
    text[zero] = np.char.rstrip(np.char.rstrip(text[zero], b"0"), b".")
    for r0, r1 in sci:
        text[r0:r1] = np.char.add(text[r0:r1],
                                  _EXPONENTS.take(k[r0:r1] + 330))
    return text


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
