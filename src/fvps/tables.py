"""The package's file formats: CSV tables and JSON documents.

A CSV table is one ``# key=value`` line per metadata entry (LF-terminated),
then a header row, then one row per record.  Cells are joined by commas
with ``str``, so Python floats appear in their shortest round-trip form,
and rows end in CRLF, the terminator ``csv.writer`` writes.  Cells are
never quoted: no value the package writes holds a comma, a quote or a
line break.  Both writers raise ValueError, before the file is opened,
for a metadata key holding '=' or a line break, a metadata value
holding a line break, or a header cell holding a comma or a line break.

A phase-space field is a CSV table in one of two layouts: long form,
one ``q,p,W`` row per grid point, or matrix form, a header of q nodes
and then one row per p node.  Its cells are formatted by numpy, one
block of momentum rows (4096 cells, eight rows at n = 512) at a time,
with no Python object per cell.  The block size weighs numpy's cost per
call (about 150 calls per block) against the size of each block's
temporaries: at 8192 cells glibc's malloc hands the freed temporaries
back to the kernel and faults them in again on every block, tens of
thousands of page faults per field.  Each block's bytes are laid out in
one ``bytearray`` record allocated per file, and the record, its NULs
deleted, goes straight to the file opened in binary mode, without a
``str`` per block.  The head is encoded in the locale's encoding, as a
text-mode file would have.  `_shortest_decimal` is Ryū's ``d2d``
(Adams, PLDI 2018) over arrays: it turns each float64 into the shortest
decimal significand and exponent that reads back to the same float,
the nearest such one to the float's exact value, ties to an even digit.
That is the rule of CPython's ``repr`` (Gay's ``dtoa`` in mode 0), so
the digits are ``repr``'s.  `_repr_slots` lays them out as ``repr``
does, in fixed 24-byte slots, each byte kept or zeroed by a mask:
exponent form (``1e-05``, ``-2.5e+300``) when the decimal exponent is
below -4 or at least 16, positional form (``0.0001``, ``123.0``)
otherwise, and ``0.0``, ``-0.0``, ``inf``, ``-inf``, ``nan``.  A block's
rows are its slots and separators side by side; deleting the zeroed
bytes leaves the text ``csv.writer`` would write from ``repr`` of each
cell.  The field, its nodes and their shapes are checked before the
file is opened.

A JSON document has sorted keys, an indent of 2 and a trailing newline.
"""

import functools
import json
import locale
import math

import numpy as np

_BLOCK_CELLS = 4096  # field cells formatted per block
_SLOT = 24  # bytes of the longest repr of a float64, '-2.2250738585072014e-308'
_DIGITS = 17  # the most significant digits a shortest float64 repr needs

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_TEN = _U64(10)
_POW10 = np.array([10**k for k in range(20)], dtype=_U64)
# exponent-form slots 2..18, '.' and digits 2..17, are kept above this many significant digits
_KEEP_ABOVE = np.array([1, *range(1, _DIGITS)], dtype=np.uint8)[:, None]
_INF = np.frombuffer(b"inf".ljust(_SLOT - 1, b"\0"), dtype=np.uint8)  # slots 1..23; slot 0 keeps the sign
_NAN = np.frombuffer(b"\0nan".ljust(_SLOT, b"\0"), dtype=np.uint8)  # repr(-nan) is 'nan'
_CRLF = np.frombuffer(b"\r\n", dtype=np.uint8)


def _head(meta: dict, header) -> str:
    """The '#' lines of `meta` and the `header` row; ValueError for an entry or cell that would break the format."""
    header = list(header)
    for key, value in meta.items():
        if any(c in str(key) for c in "=\r\n"):
            raise ValueError(f"metadata key {key!r} holds '=' or a line break")
        if any(c in str(value) for c in "\r\n"):
            raise ValueError(f"metadata value {value!r} of {key!r} holds a line break")
    for cell in header:
        if any(c in cell for c in ",\r\n"):
            raise ValueError(f"header cell {cell!r} holds a comma or a line break")
    return "".join(f"# {key}={value}\n" for key, value in meta.items()) + ",".join(header) + "\r\n"


def write_csv(path, meta: dict, header, rows):
    """Write `meta` as '#' lines, then the `header` row, then each row of `rows`."""
    head = _head(meta, header)
    with open(path, "w", newline="") as fh:
        fh.write(head)
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in rows)


@functools.cache
def _ryu_tables():
    """Ryū's d2d constants for each biased binary exponent, built from exact integers.

    For a float with binary exponent e2 (its mantissa scaled by 4, so
    that the bounds of its rounding interval are integers too), d2d
    multiplies by a 125-bit approximation of 2^k / 5^q (e2 >= 0) or of
    5^i / 2^k (e2 < 0) and shifts right by j, which gives the interval
    in units of 10^e10.  All of it depends on the exponent alone, so it
    is tabulated per biased exponent 0..2047: the multiplier as four
    32-bit limbs, the shift j - 64, e10, and which trailing-zero test
    applies, with its operand.
    """
    n = 2048
    limbs = np.zeros((4, n), dtype=_U64)
    shift = np.zeros(n, dtype=_U64)
    e10 = np.zeros(n, dtype=np.int64)
    # (mv & tz_mask) == 0 is vr's trailing-zero flag where e2 < 0
    tz_mask = np.full(n, 2**64 - 1, dtype=_U64)
    near_one = np.zeros(n, dtype=bool)  # e2 < 0 and q <= 1
    pow5 = np.zeros(n, dtype=_U64)  # 5^q where e2 >= 0 and q <= 21, else 0
    for biased in range(n):
        e2 = max(biased, 1) - 1077
        if e2 >= 0:
            q = ((e2 * 78913) >> 18) - (e2 > 3)  # log10(2^e2), less one above e2 = 3
            p5 = 5**q
            mul = (1 << (p5.bit_length() - 1 + 125)) // p5 + 1
            j = q - e2 + 124 + p5.bit_length()
            e10[biased] = q
            if q <= 21:
                pow5[biased] = p5
        else:
            q = ((-e2 * 732923) >> 20) - (-e2 > 1)  # log10(5^-e2), less one above -e2 = 1
            p5 = 5 ** (-e2 - q)
            mul = p5 >> (p5.bit_length() - 125) if p5.bit_length() >= 125 else p5 << (125 - p5.bit_length())
            j = q - p5.bit_length() + 125
            e10[biased] = q + e2
            if q <= 1:
                tz_mask[biased], near_one[biased] = 0, True
            elif q < 63:
                tz_mask[biased] = (1 << q) - 1
        limbs[:, biased] = [(mul >> (32 * k)) & 0xFFFFFFFF for k in range(4)]
        shift[biased] = j - 64
    return limbs, shift, e10, tz_mask, near_one, pow5


def _mul_shift(m, limbs, shift):
    """floor(m · mul / 2^(64 + shift)) for m < 2^56, mul <= 2^125 + 1 in 32-bit limbs, 0 < shift < 64.

    A schoolbook product in uint64 arrays: each step adds a 32x32-bit
    product and two 32-bit carries, which stays below 2^64.  Only bits
    64 to 191 of the product are kept, as Ryū's mulShift64 keeps them.
    """
    m0, m1 = m & _LOW32, m >> _U64(32)
    mul0, mul1, mul2, mul3 = limbs
    t = m0 * mul1 + ((m0 * mul0) >> _U64(32))
    r1 = t & _LOW32
    t = m0 * mul2 + (t >> _U64(32))
    r2 = t & _LOW32
    t = m0 * mul3 + (t >> _U64(32))
    r3, r4 = t & _LOW32, t >> _U64(32)
    t = m1 * mul1 + r2 + ((m1 * mul0 + r1) >> _U64(32))
    low = t & _LOW32
    t = m1 * mul2 + r3 + (t >> _U64(32))
    low |= (t & _LOW32) << _U64(32)
    high = m1 * mul3 + r4 + (t >> _U64(32))
    return (high << (_U64(64) - shift)) | (low >> shift)


def _shortest_decimal(bits):
    """(digits, exponent) of `repr` for each positive finite float64 bit pattern in `bits`.

    Ryū's d2d on uint64 arrays: digits · 10^exponent is the shortest
    decimal inside the float's rounding interval (bounds included when
    the mantissa is even), the nearest such one to its exact value, ties
    to an even last digit.  `digits` never ends in 0: the one digit shorter
    decimal would then lie in the interval too.
    """
    limbs, shift, e10, tz_mask, near_one, pow5 = _ryu_tables()
    biased = (bits >> _U64(52)).astype(np.intp)
    mantissa = bits & _U64(2**52 - 1)
    mv = (mantissa | (biased != 0).astype(_U64) << _U64(52)) << _U64(2)
    even = (mantissa & _U64(1)) == 0
    # the lower bound is half as far below a power of two
    mm_shift = ((mantissa != 0) | (biased <= 1)).astype(_U64)
    vm_at = mv - _U64(1) - mm_shift
    limbs, shift = limbs[:, biased], shift[biased]
    vr, vp, vm = (_mul_shift(m, limbs, shift) for m in (mv, mv + _U64(2), vm_at))

    # Is the scaled value, or its lower bound, an exact decimal?  Only for
    # e2 < 0 with few mantissa bits set, or for e2 >= 0 with q <= 21.
    vr_zeros = (mv & tz_mask[biased]) == 0
    near = near_one[biased]
    vm_zeros = near & even & (mm_shift == 1)
    vp -= (near & ~even).astype(_U64)
    big = np.flatnonzero(pow5[biased])
    mv_big, p5 = mv[big], pow5[biased[big]]
    by5 = mv_big % _U64(5) == 0
    vr_zeros[big] = by5 & (mv_big % p5 == 0)
    vm_zeros[big] = ~by5 & even[big] & (vm_at[big] % p5 == 0)
    vp[big] -= (~by5 & ~even[big] & ((mv_big + _U64(2)) % p5 == 0)).astype(_U64)

    # Remove the most digits k with vp // 10^k > vm // 10^k.  Any k with
    # 10^k <= vp - vm qualifies, so start at the largest such k.
    removed = np.maximum(np.searchsorted(_POW10, vp - vm, side="right") - 1, 0)
    top, low = vp // _POW10[removed], vm // _POW10[removed]
    more = np.flatnonzero(top // _TEN > low // _TEN)
    while more.size:
        top[more] //= _TEN
        low[more] //= _TEN
        removed[more] += 1
        more = more[top[more] // _TEN > low[more] // _TEN]
    vm_zeros &= low * _POW10[removed] == vm
    # where the lower bound is an exact decimal, its trailing zeros go too
    more = np.flatnonzero(vm_zeros)
    more = more[low[more] // _TEN * _TEN == low[more]]
    while more.size:
        low[more] //= _TEN
        removed[more] += 1
        more = more[low[more] // _TEN * _TEN == low[more]]

    # round vr to the last kept digit, an exact half to even
    scale = _POW10[np.maximum(removed - 1, 0)]
    upper = vr // scale
    out = upper // _TEN
    last = (upper - out * _TEN) * (removed > 0)
    out = np.where(removed > 0, out, vr)
    vr_zeros &= upper * scale == vr
    round_up = (last > 5) | ((last == 5) & ~(vr_zeros & (out & _U64(1) == 0)))
    out += ((out == low) & ~(even & vm_zeros)) | round_up
    return out, e10[biased] + removed


@functools.cache
def _positional_plans():
    """Source row of each slot of a positional `repr`, by decimal exponent -4..15 and significant digits.

    Row (sci + 4) * 17 + significant - 1 lists, for each of the 24
    slots, the `_repr_slots` source row it copies: the sign, a digit,
    or a constant '0', '.' or NUL.
    """
    digit = [1, *range(3, 2 + _DIGITS)]
    zero, nul, point = _SLOT, _SLOT + 1, _SLOT + 2
    plans = np.full((20 * _DIGITS, _SLOT), nul, dtype=np.intp)
    for sci in range(-4, 16):
        for significant in range(1, _DIGITS + 1):
            if sci >= 0:  # ddd.ddd: zeros pad the integer part and the first decimal
                plan = [digit[k] if k < significant else zero for k in range(sci + 1)] + [point]
                plan += [digit[k] for k in range(sci + 1, significant)] or [zero]
            else:  # 0.000ddd
                plan = [zero, point] + [zero] * (-sci - 1) + digit[:significant]
            plans[(sci + 4) * _DIGITS + significant - 1, : len(plan) + 1] = [0, *plan]
    return plans


@functools.cache
def _quads():
    """ASCII of 0000..9999 as uint32 words, so that one gather writes four digits."""
    text = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    return text.astype(np.uint8).view(np.uint32).ravel()


def _repr_slots(x):
    """`repr` of each float in `x`, as a (24, x.size) uint8 array: row s holds byte slot s, NUL where no byte is.

    Deleting the NULs of column i leaves ``repr(float(x.flat[i]))``.
    The exponent form is laid out in fixed slots: sign, first digit,
    '.', 16 more digits, 'e', the exponent's sign and three digits; a
    mask zeroes the sign of a positive float, the digits past the
    significant ones, a '.' with no digit after it and the exponent's
    hundreds below 100.  A positional float (decimal exponent -4..15)
    copies its bytes from those slots and the constants '0', NUL and
    '.' by its `_positional_plans` row.
    """
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    bits = x.view(_U64)
    magnitude = bits & _U64(2**63 - 1)
    regular = np.flatnonzero(np.isfinite(x) & (magnitude != 0))
    digits = np.zeros(x.size, dtype=_U64)
    exp10 = np.zeros(x.size, dtype=np.int64)
    digits[regular], exp10[regular] = _shortest_decimal(magnitude[regular])
    length = np.searchsorted(_POW10, digits, side="right")  # 0 for a zero
    significant = np.maximum(length, 1)
    sci = exp10 + significant - 1

    quads = _quads()
    padded = digits * _POW10[_DIGITS - length]
    lead = padded // _U64(10**16)
    rest = (padded - lead * _U64(10**16)).astype(np.int64)
    high = rest // 10**8
    src = np.empty((_SLOT + 3, x.size), dtype=np.uint8)
    src[0] = np.where(bits >> _U64(63), ord("-"), 0)
    src[1] = lead + _U64(ord("0"))
    src[2] = ord(".")
    halves = np.stack([high, rest - high * 10**8])
    upper = halves // 10**4
    groups = np.stack([upper, halves - upper * 10**4], axis=1)  # digits 2-5, 6-9, 10-13, 14-17
    quad = quads[groups.reshape(4, -1)].view(np.uint8).reshape(4, -1, 4)
    src[3:19].reshape(4, 4, -1)[...] = quad.transpose(0, 2, 1)
    src[2:19] *= (_KEEP_ABOVE < significant.astype(np.uint8)).view(np.uint8)
    src[19] = ord("e")
    src[20] = np.where(sci < 0, ord("-"), ord("+"))
    src[21:24] = quads[np.abs(sci)].view(np.uint8).reshape(-1, 4)[:, 1:].T
    src[21] *= (np.abs(sci) >= 100).view(np.uint8)
    src[_SLOT:] = np.array([ord("0"), 0, ord(".")], dtype=np.uint8)[:, None]

    slots = src[:_SLOT]
    positional = np.flatnonzero((sci >= -4) & (sci < 16))
    plans = _positional_plans()[(sci[positional] + 4) * _DIGITS + significant[positional] - 1]
    slots[:, positional] = np.take_along_axis(src[:, positional], plans.T, axis=0)
    slots[1:, np.isinf(x)] = _INF[:, None]
    slots[:, np.isnan(x)] = _NAN[:, None]
    return slots


def write_field_csv(path, meta: dict, q_nodes, p_nodes, w, matrix: bool = False):
    """Write the (n_p, n_q) field `w` on the `q_nodes` x `p_nodes` grid, long form or matrix form."""
    q_nodes, p_nodes, w = np.asarray(q_nodes), np.asarray(p_nodes), np.asarray(w)
    if w.ndim != 2 or q_nodes.shape != w.shape[1:] or p_nodes.shape != w.shape[:1]:
        raise ValueError(
            f"expected an (n_p, n_q) field on n_q q nodes and n_p p nodes, "
            f"got field {w.shape}, q nodes {q_nodes.shape}, p nodes {p_nodes.shape}"
        )
    for name, values in (("field", w), ("q nodes", q_nodes), ("p nodes", p_nodes)):
        if values.dtype.kind not in "biuf":
            raise ValueError(f"expected real {name}, got dtype {values.dtype}")
    n_p, n_q = w.shape
    q_slots, p_slots = _repr_slots(q_nodes).T, _repr_slots(p_nodes).T
    rows = max(1, _BLOCK_CELLS // max(n_q, 1))
    shape = (rows, n_q + 2, _SLOT + 1) if matrix else (rows, n_q, 3 * _SLOT + 4)
    buf = bytearray(math.prod(shape))
    record = np.frombuffer(buf, dtype=np.uint8).reshape(shape)
    if matrix:
        # contour-ready: first row q nodes, then one row per p node, each
        # the p slot, then a ',' and a W slot per q node, then CRLF
        record[:, 1:, 0] = ord(",")
        record[:, -1, :2] = _CRLF
        p_part, w_part = record[:, :1, :_SLOT], record[:, 1:-1, 1:]
        header = ["p\\q", *(cell.tobytes().translate(None, b"\0").decode("ascii") for cell in q_slots)]
    else:
        # one line per grid point: q slot, ',', p slot, ',', W slot, CRLF
        record[:, :, :_SLOT] = q_slots
        record[:, :, [_SLOT, 2 * _SLOT + 1]] = ord(",")
        record[:, :, -2:] = _CRLF
        p_part, w_part = record[:, :, _SLOT + 1 : 2 * _SLOT + 1], record[:, :, 2 * _SLOT + 2 : -2]
        header = ["q", "p", "W"]
    # text mode would have encoded the head in the locale's encoding
    head = _head(meta, header).encode(locale.getpreferredencoding(False))
    with open(path, "wb") as fh:
        fh.write(head)
        for start in range(0, n_p, rows):
            n = min(rows, n_p - start)
            p_part[:n] = p_slots[start : start + n, None]
            w_part[:n] = _repr_slots(w[start : start + n]).reshape(_SLOT, n, n_q).transpose(1, 2, 0)
            record[n:] = 0  # the rows past a ragged last block write nothing
            fh.write(buf.translate(None, b"\0"))


def write_json(path, obj):
    """Write `obj` as a JSON document."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
