"""Float tables as tab-separated %.17g text, formatted in numpy.

records(v) gives each value's record, its '%.17g' text NUL-padded to
32 bytes, and write_rows(fh, rec) writes a (rows, columns) array of
records as tab-separated lines without the NULs: the bytes of

    "".join("\\t".join("%.17g" % v for v in row) + "\\n" for row in table)

without a Python format call per number.  A record's first byte is its
sign, "-" or NUL, unless the value took Python's format, so the record
of a value's negative differs in that byte alone.

Each value's 17 significant digits D and decimal exponent X
(|v| ~ D 10^(X-16)) come from one double-double product: |v| times
10^(16-X), held as hi + lo (hi the double nearest 10^(16-X), lo the
double nearest the rest), with hi's part of the product exact by
Dekker's split (numpy has no fma).  The product's error is below
1e-13, so a fraction more than _MARGIN away from 1/2 rounds D exactly
as a correctly rounded %.17g does (half-even only decides exact ties,
which fall inside the margin).  The %g layout is then numpy work on
the records, assembled from lookup tables: fixed notation for
-4 <= X < 17, exponent notation otherwise, trailing zeros stripped.
+-0 takes the same layout with D = 0 and X = 0, which gives "0" and "-0".

A value the product cannot certify takes Python's own '%.17g': a
fraction within _MARGIN of 1/2, nonzero |v| outside [_TINY, _HUGE)
(where the split or the power of ten would leave the double range), nan
and +-inf.  So does every value of a block of fewer than FEW values,
where numpy's per-call cost exceeds the format calls it saves; records
works in blocks of CHUNK values.
"""

import functools

import numpy as np

# values per block: numpy's per-call cost is small against a block, and
# a block's arrays (64 KB) stay below malloc's mmap threshold
CHUNK = 8192
FEW = 384
_MARGIN = 2.0 ** -20
_TINY, _HUGE = 1e-280, 1e280
# a record is four little-endian 64-bit words, 32 bytes: 0 the sign,
# 1-5 "0." and up to three zeros, from 6 the digits with the point in
# them, 24-28 the exponent, 31 the separator
_WORD = np.dtype("<u8")
_8, _32, _56 = np.uint64(8), np.uint64(32), np.uint64(56)
_TAB, _NEWLINE, _MINUS, _POINT, _ZERO = (ord(c) for c in "\t\n-.0")


@functools.lru_cache(maxsize=None)
def _ten(s):
    """(hi, lo, hi's Dekker halves) with hi + lo ~ 10^s to 2^-106: hi the
    double nearest 10^s, lo the double nearest 10^s - hi.  Exact integer
    arithmetic: int -> float and int / int are correctly rounded."""
    if s >= 0:
        hi = float(10 ** s)
        lo = float(10 ** s - int(hi))
    else:
        den = 10 ** -s
        hi = 1 / den
        num, pow2 = hi.as_integer_ratio()
        lo = (pow2 - num * den) / (pow2 * den)
    return (hi, lo) + _split(hi)


def _split(x):
    """x as hi + lo with hi's significand in 26 bits (Dekker)."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


@functools.lru_cache(maxsize=None)
def _tables():
    """The lookup tables of the layout, built on first use; the digit
    words hold byte j of bytes 0..23 in word j // 8 at byte j % 8.

    quads: the four ASCII digits of 0..9999 in the low bytes of a word.
    zeros: the trailing zero count of 0..9999 (4 for 0).
    before: [w, b] the bytes of the first b digits, digit k at byte 7 + k.
    after: [w, 18 b + e] the bytes of digits b..e-1, and point a point at
      byte 6 + b where 1 <= b < e.  The words of before move one byte
      down, so the point sits between the two parts.
    head: [5 neg + lead] the sign, then "0." and lead - 1 zeros (lead >= 1).
    tail: [X + 330] the exponent "e+XX" or "e-XXX"; row 0 is empty.
    """
    dec = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # 0..9999, digit by digit
    quads = np.zeros((10000, 8), np.uint8)
    quads[:, :4] = dec + _ZERO
    z = dec == 0
    zeros = (z[:, 3] * (1 + z[:, 2] * (1 + z[:, 1] * (1 + z[:, 0])))).astype(np.uint8)
    k = np.arange(24) - 7  # the digit at each byte of the digit words
    b = np.arange(18)[:, None, None]
    e = np.arange(18)[None, :, None]
    before = ((k >= 0) & (k < b[:, 0])) * 0xFF
    after = ((k >= b) & (k < e)) * 0xFF
    point = ((k == b - 1) & (b >= 1) & (b < e)) * _POINT
    head = np.zeros((2, 5, 8), np.uint8)
    head[1, :, 0] = _MINUS
    head[:, 1:, 1:3] = (_ZERO, _POINT)
    head[:, 2:, 3] = head[:, 3:, 4] = head[:, 4:, 5] = _ZERO
    x = np.arange(-330, 331)
    ax = np.abs(x)
    tail = np.zeros((len(x), 8), np.uint8)
    tail[1:, 0] = ord("e")
    tail[1:, 1] = np.where(x[1:] < 0, _MINUS, ord("+"))
    tail[1:, 2] = (ax[1:] >= 100) * (ax[1:] // 100 + _ZERO)
    tail[1:, 3] = ax[1:] // 10 % 10 + _ZERO
    tail[1:, 4] = ax[1:] % 10 + _ZERO
    words = lambda m: np.ascontiguousarray(
        m.astype(np.uint8).reshape(-1, 3, 8).view(_WORD)[..., 0].T).astype(np.uint64)
    one = lambda m: m.view(_WORD).ravel().astype(np.uint64)
    return (one(quads), zeros, words(before), words(after), words(point), one(head), one(tail))


def _scaled(a, X):
    """a 10^(16 - X) as an int64 integer part and a float fraction in
    [0, 1), to within 1e-13 where the integer part is in [1e16, 1e17)."""
    s = 16 - X
    first = int(s.min())
    tens = np.array([_ten(k) for k in range(first, int(s.max()) + 1)])
    hi, lo, hh, hl = tens.take(s - first, axis=0).T
    p = a * hi  # an integer when a hi >= 1e16 > 2^53
    ah, al = _split(a)
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl  # p + err = a hi exactly
    frac = err + a * lo
    carry = np.floor(frac)
    return p.astype(np.int64) + carry.astype(np.int64), frac - carry


def _digits(a):
    """(D, X, certified) for a in [_TINY, _HUGE): D the 17-digit integer
    with a ~ D 10^(X-16), rounded half-even, and whether that is certain."""
    X = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, X)
    # log10 may miss the decade next to a power of ten: redo those once
    off = np.flatnonzero((whole < 10 ** 16) | (whole >= 10 ** 17))
    if off.size:
        X[off] += np.where(whole[off] < 10 ** 16, -1, 1)
        whole[off], frac[off] = _scaled(a[off], X[off])
    certified = (np.abs(frac - 0.5) > _MARGIN) & (whole >= 10 ** 16) & (whole < 10 ** 17)
    D = whole + (frac > 0.5)
    carried = D == 10 ** 17  # 9.99...95 rounds up into the next decade
    return np.where(carried, 10 ** 16, D), X + carried, certified


def _digit_words(D):
    """The 17 digits of each D as _tables' three digit words, and their
    trailing zero count."""
    quads, zeros = _tables()[:2]
    # D in base 10^4: q[0] the leading digit, then four groups of four
    q = [None] * 5
    for i in range(4, 0, -1):
        rest = D // 10000
        q[i] = D - rest * 10000
        D = rest
    q[0] = D
    tz = zeros[q[4]] + (q[4] == 0) * (
        zeros[q[3]] + (q[3] == 0) * (zeros[q[2]] + (q[2] == 0) * zeros[q[1]]))
    c = [quads[g] for g in q]
    return (c[0] << _32, c[1] | c[2] << _32, c[3] | c[4] << _32), tz


def _python(v):
    """Records of Python's own '%.17g' of each value of v."""
    # "%-24.17g" pads with spaces, which %.17g itself never writes;
    # 24 bytes hold the longest, such as -2.2250738585072014e-308
    text = ("%-24.17g" * len(v) % tuple(v.tolist())).encode().replace(b" ", b"\0")
    rec = np.zeros((len(v), 4), _WORD)
    rec.view(np.uint8)[:, :24] = np.frombuffer(text, np.uint8).reshape(-1, 24)
    return rec


def _records(v, rec):
    """Fill rec, (len(v), 4) words, with the records of v, and return the
    indices of the values that took Python's format: every one when v
    has fewer than FEW values."""
    if len(v) < FEW:
        rec[:] = _python(v)
        return np.arange(len(v))
    _, _, keep_before, keep_after, point, head, tail = _tables()
    a = np.abs(v)
    zero = a == 0
    fallback = ~((a >= _TINY) & (a < _HUGE) | zero)
    # zeros run as 1.0, D = 10^16 and X = 0, and then take D = 0
    D, X, certified = _digits(np.where(fallback | zero, 1.0, a))
    D[zero] = 0
    fallback |= ~certified
    chars, tz = _digit_words(D)

    fixed = (X >= -4) & (X < 17)
    # digits before the point: X + 1 in fixed notation (every one kept),
    # one in exponent notation, none after "0."
    before = np.where(fixed, np.maximum(X + 1, 0), 1)
    kept = np.maximum(17 - tz, before)
    after = 18 * before + kept
    A = [w & m[before] for w, m in zip(chars, keep_before)]
    B = [w & m[after] | p[after] for w, m, p in zip(chars, keep_after, point)]
    rec[:, 0] = (A[0] >> _8 | A[1] << _56 | B[0]
                 | head[5 * np.signbit(v) + fixed * np.maximum(-X, 0)])
    rec[:, 1] = A[1] >> _8 | A[2] << _56 | B[1]
    rec[:, 2] = A[2] >> _8 | B[2]
    rec[:, 3] = tail[np.where(fixed, 0, X + 330)]

    slow = np.flatnonzero(fallback)
    if slow.size:
        rec[slow] = _python(v[slow])
    return slow


def records(v):
    """The records of the 1-D float array v: (len(v), 4) words, value i's
    %.17g text NUL-padded in row i, and the sorted indices of the values
    that took Python's format, CHUNK values at a time."""
    rec = np.empty((len(v), 4), _WORD)
    slow = np.zeros(len(v), dtype=bool)
    for start in range(0, len(v), CHUNK):
        slow[start + _records(v[start:start + CHUNK], rec[start:start + CHUNK])] = True
    return rec, np.flatnonzero(slow)


def set_signs(rec, slow, v):
    """Make rec, the records of values with the magnitudes of v, and slow,
    the indices of those that took Python's format (records), the records
    of v: the sign bytes from v, and Python's format of v at slow.  rec
    may be any (..., 4) view of records, indexed in C order."""
    rec.view(np.uint8)[..., 0] = np.signbit(v).reshape(rec.shape[:-1]) * _MINUS
    rec[np.unravel_index(slow, rec.shape[:-1])] = records(v[slow])[0]


def write_rows(fh, rec):
    """Write rec, (rows, columns, 4) records, to the binary file fh: the
    values of a row tab separated, one line per row.  Each record's last
    byte becomes its separator, and the NULs are deleted."""
    ends = rec.view(np.uint8)[..., -1]
    ends[:, :-1] = _TAB
    ends[:, -1] = _NEWLINE
    fh.write(rec.tobytes().translate(None, b"\0"))
