"""CSV rows formatted by numpy, one field per column, picked by its dtype.

``format_rows(*cols)`` returns the ASCII text of the rows as a
``bytearray``, joined by ``\\n`` with none after.  Each column's dtype
picks its field: a signed integer gives ``str`` of the value, its
decimal; a float64 ``repr``; a bool ``true`` or ``false``.  Any other
column raises ``DomainError``, so no row takes another code path.

A float's ``repr`` is the shortest decimal that reads back to the same
double, the closest one when several are.  Its digits come from
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020)
in uint64 lanes: a 64x64->128-bit high product from 32-bit halves and a
table of 126-bit 10^-k, built at first use.  Where a chunk's lanes share
one binary exponent and none is a power of two, as a scan's running
sums mostly do, the exponent's k, h and 10^-k are scalars; otherwise
they are taken per lane.  The kernel lays out zeros and normals in
``repr``'s fixed and scientific notations; subnormals, inf, nan and
fractions longer than 18 digits keep ``float.__repr__`` itself, so
their bytes match by construction.  A chunk whose lanes all lie in
[1e-2, 1e16) is in fixed notation throughout with at most 18 fraction
digits, so it skips the masks that sort lanes by notation.

A fixed lane's integer part is ``trunc(|v|)``, not the shortest decimal
D over a per-lane power of ten.  The two agree.  Below 2^53 every
integer is a double, and no double but v lies in v's rounding interval,
which holds D; so no integer but v lies between v and D, and an integer
v has fewer digits than any non-integer in that interval, so then
D = v.  From 2^53 to 1e16 the doubles are even integers, the interval is
v -+ 1 and its other decimals are odd or longer, so again D = v.

A row is built as 8-byte words, one column of words per field part:
separator and sign, digits (eight per word, split in parallel within
the word), point and exponent; a bool field is one word.  Unused bytes
are NUL.  Rows are formatted ``ROW_CHUNK`` at a time so the matrices
stay in cache; each chunk's word matrix lives in a ``bytearray``, whose
``translate`` drops the NULs in one C pass and appends the rest to the
one output buffer.  Every dtype is explicit and every uint64 constant a
``np.uint64``, so numpy's value-based promotion before NEP 50 never
turns a lane into float64.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError

# Rows per matrix pass.  1 024 is slower per row; a whole 32 768-row
# block in one pass raises the peak RSS of a CSV scan.
ROW_CHUNK = 4096

_U64 = np.uint64
_M32, _S32 = _U64(0xFFFFFFFF), _U64(32)
_M63, _S63 = _U64((1 << 63) - 1), _U64(63)
_ZERO, _ONE, _TWO, _TEN, _HUNDRED = (_U64(n) for n in (0, 1, 2, 10, 100))
_E4, _E8 = _U64(10**4), _U64(10**8)
_T_BITS = (1 << 52) - 1  # a double's significand field
_T_MASK, _HIDDEN_BIT = _U64(_T_BITS), _U64(1 << 52)
_ONE_BITS = _U64(0x3FF0000000000000)  # 1.0, a stand-in for lanes not formatted here
# 10^0 .. 10^19, every power of ten below 2^64
_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)

# A row is built as words of 8 bytes, the first byte lowest whatever the
# platform's byte order; NUL bytes are padding.
_WORD = np.dtype("<u8")
_ASCII_ZEROS = _U64(0x3030303030303030)
_ZERO_TO_DOT = _U64(ord("0") ^ ord("."))  # "0" to "." in the first byte
_UNITS_BIT = _U64(1 << 56)
_THREE_DIGITS, _NO_HUNDREDS = _U64(0xFFFFFF0000), _U64(0xFFFF000000)
_MIN_NORMAL, _MAX_DOUBLE = 2.0**-1022, float.fromhex("0x1.fffffffffffffp+1023")
# _KEEP_FRAC[i][kept] keeps the bytes of fraction word i that hold the
# point and the first ``kept`` fraction digits: word 0 holds the point
# and digits 1-7, word 1 digits 8-15, word 2 digits 16-18.
_KEEP_FRAC = np.array([[(1 << 8 * min(max(kept - start, 0), 8)) - 1 for kept in range(19)]
                       for start in (-1, 7, 15)], dtype=np.uint64)
# "true" and "false" after a separator byte
_TRUE, _FALSE = (_U64(int.from_bytes(word, "little") << 8)
                  for word in (b"true", b"false"))

# Exponents k = floor(log10(2^q)) of the normal doubles, q in [-1074, 971].
_K_MIN, _K_MAX = -324, 292


def _flog2pow10(e):
    """floor(e log2 10) for |e| below 10^5, in ints or int64 lanes."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _g_table() -> tuple[np.ndarray, np.ndarray]:
    """g1, g0 for k in [_K_MIN, _K_MAX]: with 10^-k = beta 2^r and
    2^125 <= beta < 2^126, g = floor(beta) + 1 = g1 2^63 + g0."""
    g1 = np.empty(_K_MAX - _K_MIN + 1, dtype=np.uint64)
    g0 = np.empty_like(g1)
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        r = _flog2pow10(-k) - 125
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        if r >= 0:
            den <<= r
        else:
            num <<= -r
        g = num // den + 1
        g1[i], g0[i] = g >> 63, g & ((1 << 63) - 1)
    g1.flags.writeable = g0.flags.writeable = False  # shared by every call
    return g1, g0


def _mulhi(a_lo, a_hi, b_lo, b_hi):
    """The high 64 bits of a * b, from the operands' 32-bit halves."""
    lo_hi = a_lo * b_hi
    hi_lo = a_hi * b_lo
    cross = ((a_lo * b_lo) >> _S32) + (hi_lo & _M32) + lo_hi
    return a_hi * b_hi + (hi_lo >> _S32) + (cross >> _S32)


def _rop(y1, y0, x1):
    """Giulietti's rop from g1 cp = y1 2^64 + y0 and x1 = mulhi(g0, cp)."""
    z = (y0 >> _ONE) + x1
    return (y1 + (z >> _S63)) | np.minimum(z & _M63, _ONE)


def _shifted(g1, g0, shift):
    """g1 2^shift and g0 2^shift as (high, low) 64-bit halves each."""
    down = _U64(64) - shift
    return g1 >> down, g1 << shift, g0 >> down, g0 << shift


def _rops(g1, g0, cp, lower_shift, upper_shift):
    """rop of g cp and of g (cp -+ 2^shift), with g = g1 2^63 + g0
    (Giulietti, figure 8: the rounded-to-odd g cp 2^-127).

    The 128-bit products of g1 and g0 with cp are taken once; those with
    cp -+ 2^shift differ from them by g1 2^shift and g0 2^shift, shifts
    with a carry, so the three rops take two 64x64->128 products, not six.
    """
    cp_lo, cp_hi = cp & _M32, cp >> _S32
    y1 = _mulhi(g1 & _M32, g1 >> _S32, cp_lo, cp_hi)
    x1 = _mulhi(g0 & _M32, g0 >> _S32, cp_lo, cp_hi)
    y0, x0 = g1 * cp, g0 * cp
    shifted = _shifted(g1, g0, upper_shift)
    g1_hi, g1_lo, g0_hi, g0_lo = shifted
    y0_up, x0_up = y0 + g1_lo, x0 + g0_lo
    upper = _rop(y1 + g1_hi + (y0_up < y0), y0_up, x1 + g0_hi + (x0_up < x0))
    if lower_shift is not upper_shift:
        shifted = _shifted(g1, g0, lower_shift)
    g1_hi, g1_lo, g0_hi, g0_lo = shifted
    lower = _rop(y1 - g1_hi - (y0 < g1_lo), y0 - g1_lo, x1 - g0_hi - (x0 < g0_lo))
    return lower, _rop(y1, y0, x1), upper


def _shortest(bits):
    """Shortest round-trip decimal f 10^e of each positive normal double,
    closest to it when several are shortest, with f free of trailing
    zeros; bits are the doubles' uint64 patterns, sign bit ignored.

    Where every lane lies in one binade and none is a power of two, k,
    h, g and the interval's ends are the same for all lanes and are
    taken once, as scalars; elsewhere they are taken per lane.
    """
    mag = bits & _M63
    lo, hi = int(mag.min()), int(mag.max())
    c = (mag & _T_MASK) | _HIDDEN_BIT
    if lo >> 52 == hi >> 52 and lo & _T_BITS:
        q = (hi >> 52) - 1075
        k = (q * 661_971_961_083) >> 41
        h = q + _flog2pow10(-k) + 2
        g1, g0 = (g[k - _K_MIN] for g in _g_table())
        shift = _U64(h + 1)  # the interval ends are 4c -+ 2
        vbl, vb, vbr = _rops(g1, g0, c << _U64(h + 2), shift, shift)
    else:
        bq = mag >> _U64(52)
        q = bq.astype(np.int64) - np.int64(1075)
        # Where c is the least significand (a power of two) the spacing
        # below is half the spacing above, and the interval's lower end
        # moves in.
        irregular = (c == _HIDDEN_BIT) & (bq > _ONE)
        k = q * np.int64(661_971_961_083)
        if irregular.any():
            k -= np.where(irregular, np.int64(274_743_187_321), np.int64(0))
        k >>= np.int64(41)
        h = (q + _flog2pow10(-k) + np.int64(2)).astype(np.uint64)
        g1, g0 = (g.take(k - np.int64(_K_MIN)) for g in _g_table())
        # The interval ends are 4c -+ 2, or 4c - 1 below where irregular.
        upper_shift = h + _ONE
        lower_shift = np.where(irregular, h, upper_shift) if irregular.any() else upper_shift
        vbl, vb, vbr = _rops(g1, g0, c << (h + _TWO), lower_shift, upper_shift)
    out = c & _ONE
    lower = vbl + out
    # One digit fewer: u' = s' 10^(k+1) and w' = (s' + 1) 10^(k+1) with
    # s' = floor(s / 10); taken when exactly one lies in the interval.
    s = vb >> _TWO
    sp = s // _TEN
    sp10 = sp * _TEN
    upin = lower <= sp10 << _TWO
    wpin = ((sp10 + _TEN) << _TWO) + out <= vbr
    fewer = (s >= _HUNDRED) & (upin != wpin)
    # Else u = s 10^k or w = (s + 1) 10^k: the one in the interval, or
    # the closer when both are, the even one on a tie.
    t1 = s + _ONE
    uin = lower <= s << _TWO
    win = (t1 << _TWO) + out <= vbr
    mid = (s + t1) << _ONE
    pick_s = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & _ONE) == _ZERO)))
    # the lower candidate, plus one where the upper one is taken
    f = np.where(fewer, sp, s) + ~np.where(fewer, upin, pick_s)
    e = fewer.astype(np.int64)
    e += k
    # Trailing zeros: one test over every lane, then rounds over the few
    # lanes that still end in zero.
    quo = f // _TEN
    ends = np.flatnonzero(quo * _TEN == f)
    quo = quo[ends]
    while len(ends):
        f[ends] = quo
        e[ends] += np.int64(1)
        tens = quo // _TEN
        more = tens * _TEN == quo
        ends, quo = ends[more], tens[more]
    return f, e


def _raw8(x):
    """Eight decimal digits of uint64 lanes below 10^8 in one word each,
    digit values 0..9 in its bytes, most significant in the lowest byte.

    The halves, quarters and digit pairs are split in parallel within
    the word: (v * 10486) >> 20 is v // 100 for v < 10^4, and
    (v * 103) >> 10 is v // 10 for v < 100.
    """
    hi = x // _E4
    v = hi | ((x - hi * _E4) << _S32)
    h = ((v * _U64(10486)) >> _U64(20)) & _U64(0x0000007F0000007F)
    v = h | ((v - h * _HUNDRED) << _U64(16))
    t = ((v * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)
    return t | ((v - t * _TEN) << _U64(8))


def _int_words(x, head):
    """ASCII words of uint64 lanes, right-aligned with the leading zeros
    NUL and at least one digit kept.  The first word holds ``head`` in
    its first two bytes and the top 6 digits, each later word 8."""
    top = int(x.max())
    raws = []
    for _ in range(0 if top < 10**6 else 1 if top < 10**14 else 2):
        quo = x // _E8
        raws.append(_raw8(x - quo * _E8))
        x = quo
    raws.append(_raw8(x))
    raws.reverse()
    words = []
    above = None  # 1 where a more significant word holds a nonzero digit
    for i, raw in enumerate(raws):
        # The lowest set bit of probe lies in the first digit to keep:
        # the first nonzero one, the units digit (bit 56) at the latest,
        # or the word's first byte when a word above is nonzero.
        probe = raw
        if above is not None:
            probe = probe | above
        if i == len(raws) - 1:
            probe = probe | _UNITS_BIT
        else:
            nonzero = np.minimum(raw, _ONE)
            above = nonzero if above is None else above | nonzero
        lowest = probe & (_ZERO - probe)
        words.append((raw | _ASCII_ZEROS) & ~(lowest - _ONE))
    words[0] |= head
    return words


def _bool_field(col, sep: int):
    """``true`` or ``false`` after the separator, in one word."""
    return [np.where(col, _TRUE, _FALSE) | _U64(sep)], None


def _head(sep: int, neg):
    """A separator byte, then ``-`` where neg is 1."""
    return neg * _U64(ord("-") << 8) + _U64(sep)


def _int_field(col, sep: int):
    """The decimals of signed integer lanes: separator, sign and digits."""
    bits = col.astype(np.int64).view(np.uint64)
    neg = bits >> _S63
    # Two's complement negation, exact for INT64_MIN too.
    mag = np.where(neg == _ONE, _ZERO - bits, bits)
    return _int_words(mag, _head(sep, neg)), None


def _float_field(col, sep: int):
    """``repr`` of float64 lanes, from the kernel except for
    subnormals, inf, nan and fractions longer than 18 digits, which keep
    ``float.__repr__`` itself.

    ``repr`` writes fixed notation, with ".0" after an integer, where the
    decimal point falls at -4 < decpt <= 16, and d[.ddd]e+-XX elsewhere.
    The shortest decimal D rounds to the double v, so 10^-4 <= D < 10^16
    holds exactly when 1e-4 <= |v| < 1e16.  A scientific lane is laid
    out as a fixed one of its digits with one before the point, then
    its exponent.
    """
    bits = col.view(np.uint64)
    size = np.abs(col)
    exponent, slow = None, ()
    if size.min() >= 1e-2 and size.max() < 1e16:
        # Every lane is a normal in fixed notation, and as f < 10^17,
        # e >= -18: no lane needs the masks below.
        f, e = _shortest(bits)
        whole = size.astype(np.uint64)  # trunc(|v|), the module docstring says why
    else:
        normal = (size >= _MIN_NORMAL) & (size <= _MAX_DOUBLE)
        f, e = _shortest(bits if normal.all() else np.where(normal, bits, _ONE_BITS))
        sci = normal & ((size < 1e-4) | (size >= 1e16))
        fixed = normal & ~sci & (e >= np.int64(-18))
        digits_here = sci | fixed
        whole = np.where(fixed, size, 0.0).astype(np.uint64)
        if sci.any():
            # digits of f after the first
            shift = np.searchsorted(_POW10, f, side="right").astype(np.int64) - np.int64(1)
            exponent = _exponent_word(e + shift, sci)
            e = np.where(sci, -shift, e)
            whole = np.where(sci, f // _POW10.take(shift), whole)
        if not digits_here.all():  # zeros are 0 10^0 here, the rest repr's
            f = np.where(digits_here, f, _ZERO)
            e = np.where(digits_here, e, np.int64(0))
            slow = np.flatnonzero(~digits_here & (size != 0.0))
    frac_len = np.maximum(-e, np.int64(0))
    rest = np.where(e < np.int64(0), f - whole * _POW10.take(frac_len), _ZERO)
    words = _int_words(whole, _head(sep, bits >> _S63))
    # The fraction: a word of "." and 7 digits, then words of 8, the
    # last of at most 3 (18 digits in all); trailing zeros NUL, one kept
    # in fixed notation.  A scientific lane of one digit has no point.
    kept = np.maximum(frac_len, np.int64(1))
    most = int(kept.max())
    digits = 7 if most <= 7 else 15 if most <= 15 else 18
    frac = rest * _POW10.take(np.int64(digits) - frac_len)
    left = digits - 7
    head = frac // _POW10[left]
    rest = frac - head * _POW10[left]
    point = _KEEP_FRAC[0].take(kept)
    if exponent is not None:
        point = np.where(sci & (frac_len == np.int64(0)), _ZERO, point)
    words.append(((_raw8(head) | _ASCII_ZEROS) ^ _ZERO_TO_DOT) & point)
    for keep in _KEEP_FRAC[1:]:
        if not left:
            break
        take = min(left, 8)
        left -= take
        part = rest // _POW10[left]
        rest = rest - part * _POW10[left]
        words.append((_raw8(part * _POW10[8 - take]) | _ASCII_ZEROS) & keep.take(kept))
    if exponent is not None:
        words.append(exponent)
    if not len(slow):
        return words, None
    text = np.array([repr(v) for v in col[slow].tolist()], dtype=np.bytes_)
    width = max(len(words), -(-(text.dtype.itemsize + 1) // 8))
    words += [np.zeros(len(col), dtype=np.uint64)] * (width - len(words))
    patch = np.zeros((len(slow), 8 * width), dtype=np.uint8)
    patch[:, 0] = sep
    patch[:, 1:text.dtype.itemsize + 1] = text.view(np.uint8).reshape(len(slow), -1)
    return words, (slow, patch)


def _exponent_word(x, lanes):
    """"e", the sign and at least two digits of the int64 exponents x,
    in the lanes where ``lanes`` holds; NUL elsewhere."""
    neg = x < np.int64(0)
    mag = np.abs(x).astype(np.uint64)
    # The last three of eight digits, moved to bytes 2..4.
    digits = ((_raw8(mag) | _ASCII_ZEROS) >> _U64(24)) & _THREE_DIGITS
    digits &= np.where(mag < _HUNDRED, _NO_HUNDREDS, _THREE_DIGITS)
    sign = np.where(neg, _U64(ord("-") << 8), _U64(ord("+") << 8))
    return np.where(lanes, digits | sign | _U64(ord("e")), _ZERO)


def _field_kind(col, i: int):
    kind = col.dtype.kind
    if kind == "i":
        return _int_field
    if kind == "b":
        return _bool_field
    if col.dtype == np.float64:
        return _float_field
    raise DomainError(f"row column {i} of dtype {col.dtype} is not supported")


def format_rows(*cols) -> bytearray:
    """The rows of ``cols``, joined by ``\\n`` with none after."""
    if not cols:
        raise DomainError("rows need at least one column")
    cols = [np.asarray(c) for c in cols]
    if any(c.ndim != 1 or len(c) != len(cols[0]) for c in cols):
        raise DomainError("row columns must be 1-D and of one length")
    n = len(cols[0])
    kinds = [_field_kind(c, i) for i, c in enumerate(cols)]
    # Each row starts with "\n" and each later field with ",", so the
    # block's text is its bytes less the first.
    seps = [ord("\n")] + [ord(",")] * (len(cols) - 1)
    out = bytearray()
    for start in range(0, n, ROW_CHUNK):
        words, patches = [], []
        for kind, col, sep in zip(kinds, cols, seps):
            field, patch = kind(col[start:start + ROW_CHUNK], sep)
            if patch is not None:
                patches.append((8 * len(words), *patch))
            words += field
        buf = bytearray(8 * len(words[0]) * len(words))
        matrix = np.frombuffer(buf, dtype=_WORD).reshape(len(words[0]), len(words))
        for j, word in enumerate(words):
            matrix[:, j] = word
        text = matrix.view(np.uint8)
        for offset, rows, patch in patches:
            text[rows, offset:offset + patch.shape[1]] = patch
        out += buf.translate(None, b"\0")
    del out[:1]
    return out
