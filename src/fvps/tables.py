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
block of momentum rows (8192 cells, sixteen rows at n = 512) at a time,
with no Python object per cell and no new array per block: every stage
writes into one scratch set (`_Scratch`, 140 bytes a cell) allocated
once per file.  A larger block means fewer numpy calls a field (about
300 a block), and with no fresh temporaries glibc's malloc has nothing
to hand back to the kernel and fault in again on every block: after a
process's first two writes a write takes no page faults.  Memory sets
the block size: scratch set, record and its NUL-free copy peak at about
1.5 MB at n = 512, 1.7 MB on a process's first write, which also
builds Ryū's tables.  ``test_field_writer_memory_stays_linear`` clears
those tables first, so each of its cases measures a first write, and
bounds it at 2e6 bytes, which the next whole number of records, 10240
cells, would all but reach.  The bytes of 2048 cells at a time
are laid out in one ``bytearray`` record allocated per file, and the
record, its NULs deleted, goes straight to the file opened in binary
mode, without a ``str`` per record.  The head is encoded in the
locale's encoding, as a text-mode file would have.
`_shortest_decimal` is Ryū's ``d2d`` (Adams, PLDI 2018) over arrays: it
turns each float64 into the shortest decimal significand and exponent
that reads back to the same float, the nearest such one to the float's
exact value, ties to an even digit.  That is the rule of CPython's
``repr`` (Gay's ``dtoa`` in mode 0), so the digits are ``repr``'s.
`_repr_slots` lays them out as ``repr`` does, in fixed 24-byte slots,
each byte kept or zeroed by a mask: exponent form (``1e-05``,
``-2.5e+300``) when the decimal exponent is below -4 or at least 16,
positional form (``0.0001``, ``123.0``) otherwise, and ``0.0``,
``-0.0``, ``inf``, ``-inf``, ``nan``.  A record's rows are its slots and
separators side by side; deleting the zeroed bytes leaves the text
``csv.writer`` would write from ``repr`` of each cell.  The field, its
nodes and their shapes are checked before the file is opened.

A JSON document has sorted keys, an indent of 2 and a trailing newline.
"""

import functools
import json
import locale
import math

import numpy as np

_BLOCK_CELLS = 8192  # field cells formatted per block
_RECORD_CELLS = 2048  # field cells laid out per write to the file
_SLOT = 24  # bytes of the longest repr of a float64, '-2.2250738585072014e-308'
_DIGITS = 17  # the most significant digits a shortest float64 repr needs

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_POW10 = np.array([10**k for k in range(20)] + [2**64 - 1], dtype=_U64)  # 2^64 - 1 stands in for 10^20
# decimal digits of 2^(e - 1023), less one, by biased float64 exponent e: of a uint64 that rounds
# to such a float, the digit count is this or one or two more
_LENGTH_BELOW = np.array([len(str(2 ** (e - 1023))) - 1 if e >= 1023 else 0 for e in range(1088)], dtype=np.intp)
# exponent-form slots 2..18, '.' and digits 2..17, are kept above this many significant digits
_KEEP_ABOVE = np.array([1, *range(1, _DIGITS)], dtype=np.uint8)[:, None]
_ROW = np.arange(_SLOT, dtype=np.uint8)[:, None]  # slot numbers, compared with a per-float slot
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
    is tabulated per biased exponent 0..2047, one column per constant so
    that each is gathered on its own: the multiplier as four 32-bit
    limbs, the shift j - 64, e10, and which trailing-zero test applies,
    with its operand.
    """
    n = 2048
    limbs = np.zeros((4, n), dtype=_U64)
    shift = np.zeros(n, dtype=_U64)
    e10 = np.zeros(n, dtype=np.int16)
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


class _Scratch:
    """The work arrays of `_repr_slots` for up to `size` floats a call, allocated once and reused by every call.

    `words` are 13 uint64 rows that Ryū's stages hand on to each other
    and the layout stages then reuse, `flags` 9 bool rows, `exp10` and
    `significant` each float's decimal exponent and digit count, and
    `slots` the text: 140 bytes a float in all.  numpy writes every stage
    into these arrays (``out=``), so formatting a block allocates only
    index arrays, and copies, of the floats that a rare case applies to:
    an exact decimal at an interval's end, a digit removal that few of
    the block's floats still need, an infinity or NaN; the positional
    floats are gathered into rows of `words`.
    """

    def __init__(self, size: int):
        self.size = size
        self.words = np.empty((13, size), dtype=_U64)
        self.flags = np.empty((9, size), dtype=bool)
        self.exp10 = np.empty(size, dtype=np.int16)
        self.significant = np.empty(size, dtype=np.uint8)
        self.slots = np.empty((_SLOT, size), dtype=np.uint8)

    def byte_rows(self, first: int, rows: int, count: int):
        """A (rows, count) uint8 view of the words from row `first` on, which must be free."""
        return self.words[first:].reshape(-1).view(np.uint8)[: rows * count].reshape(rows, count)


def _decimal_length(x, out, temp, flag):
    """out <- the number of decimal digits of each of `x` (uint64; none for a 0), through free `temp` (uint64) and `flag`."""
    np.copyto(temp.view(np.float64), x, casting="unsafe")
    np.right_shift(temp, 52, out=temp)
    np.take(_LENGTH_BELOW, temp.view(np.intp), out=out, mode="clip")
    for _ in range(2):
        np.take(_POW10, out, out=temp, mode="clip")
        np.greater_equal(x, temp, out=flag)
        np.add(out, 1, out=out, where=flag)


def _mul_shift(m, limbs, right, temps):
    """m <- floor(m · mul / 2^(64 + right)) in place, for m < 2^56, mul <= 2^125 + 1 in 32-bit limbs, 0 < right < 64.

    A schoolbook product in uint64 arrays, one 32-bit column at a time:
    each step adds 32x32-bit products and 32-bit carries, which stays
    below 2^64.  Only bits 64 to 191 of the product are kept, as Ryū's
    mulShift64 keeps them.  `temps` are five free uint64 arrays.
    """
    mul0, mul1, mul2, mul3 = limbs
    m0, m1, col, row, prod = temps
    np.bitwise_and(m, _LOW32, out=m0)
    np.right_shift(m, 32, out=m1)
    np.multiply(m0, mul0, out=row)
    row >>= 32  # m0's products, carried along their columns
    col.fill(0)  # each column's sum, carried to the next
    for column, m0_limb, m1_limb in ((1, mul1, mul0), (2, mul2, mul1), (3, mul3, mul2)):
        np.multiply(m0, m0_limb, out=prod)
        row += prod
        np.multiply(m1, m1_limb, out=prod)
        col += prod
        np.bitwise_and(row, _LOW32, out=prod)
        col += prod
        if column == 2:  # bits 64..95
            np.bitwise_and(col, _LOW32, out=m)
        elif column == 3:  # bits 96..127
            np.bitwise_and(col, _LOW32, out=prod)
            prod <<= 32
            m |= prod
        col >>= 32
        row >>= 32
    # columns 4 and 5 (bits 128..191) are the high word
    np.multiply(m1, mul3, out=prod)
    prod += col
    prod += row
    m >>= right
    np.subtract(64, right, out=m0)
    prod <<= m0
    m |= prod


def _shortest_decimal(s):
    """Digits of `repr` for the positive float64 bit patterns in ``s.words[0]``; their exponents go to ``s.exp10``.

    Ryū's d2d on uint64 arrays: digits · 10^exponent is the shortest
    decimal inside the float's rounding interval (bounds included when
    the mantissa is even), the nearest such one to its exact value, ties
    to an even last digit.  The digits never end in 0: the one digit
    shorter decimal would then lie in the interval too.  Returns the row
    of ``s.words`` that holds them; every other row is free afterwards.
    """
    limbs, shift, e10, tz_mask, near_one, pow5 = _ryu_tables()
    mv, vp, vm, low, t, a, out, index, *mul, right = s.words
    vr, biased = mv, index.view(np.intp)
    even, vr_zeros, vm_zeros, vp_dec, f1, f2 = s.flags[3:]
    np.right_shift(mv, 52, out=index)
    np.bitwise_and(mv, 1, out=t)
    np.equal(t, 0, out=even)
    np.bitwise_and(mv, 2**52 - 1, out=mv)
    # the lower bound is half as far below a power of two, unless subnormal
    np.not_equal(mv, 0, out=f1)
    np.less_equal(biased, 1, out=f2)
    f1 |= f2
    np.not_equal(biased, 0, out=f2)
    np.bitwise_or(mv, 1 << 52, out=mv, where=f2)
    mv <<= 2
    np.subtract(mv, 1, out=vm)
    np.subtract(vm, 1, out=vm, where=f1)  # the lower bound, until its product
    np.add(mv, 2, out=vp)  # the upper bound, until its product

    # Is the scaled value, or its lower bound, an exact decimal?  Only for
    # e2 < 0 with few mantissa bits set, or for e2 >= 0 with q <= 21.
    np.take(tz_mask, biased, out=t, mode="clip")
    t &= mv
    np.equal(t, 0, out=vr_zeros)
    np.take(near_one, biased, out=f2, mode="clip")
    np.logical_and(f2, even, out=vm_zeros)
    vm_zeros &= f1
    np.greater(f2, even, out=vp_dec)  # near one with an odd mantissa
    np.take(pow5, biased, out=t, mode="clip")
    big = np.flatnonzero(t)
    mv_big, p5, even_big = mv[big], t[big], even[big]
    by5 = mv_big % _U64(5) == 0
    vr_zeros[big] = by5 & (mv_big % p5 == 0)
    vm_zeros[big] = ~by5 & even_big & (vm[big] % p5 == 0)
    vp_dec[big] = ~by5 & ~even_big & ((mv_big + _U64(2)) % p5 == 0)

    for limb, column in zip(mul, limbs):
        np.take(column, biased, out=limb, mode="clip")
    np.take(shift, biased, out=right, mode="clip")
    np.take(e10, biased, out=s.exp10, mode="clip")
    for m in (vr, vp, vm):
        _mul_shift(m, mul, right, (low, t, a, out, index))
    np.subtract(vp, 1, out=vp, where=vp_dec)

    # Remove the most digits k with vp // 10^k > vm // 10^k.  Any k with
    # 10^k <= vp - vm qualifies, so start at the largest such k.
    np.subtract(vp, vm, out=t)
    removed = mul[0].view(np.intp)
    _decimal_length(t, removed, mul[1], f1)
    removed -= 1
    np.maximum(removed, 0, out=removed)
    np.take(_POW10, removed, out=t, mode="clip")
    np.floor_divide(vp, t, out=vp)
    np.floor_divide(vm, t, out=low)
    # One more digit goes wherever the next quotients still differ: in
    # place while many floats need it, then on the few left.
    while True:
        np.floor_divide(vp, 10, out=t)
        np.floor_divide(low, 10, out=a)
        np.greater(t, a, out=f1)
        if np.count_nonzero(f1) <= s.size // 16:
            break
        np.copyto(vp, t, where=f1)
        np.copyto(low, a, where=f1)
        np.add(removed, 1, out=removed, where=f1)
    more = np.flatnonzero(f1)
    while more.size:
        vp[more] //= 10
        low[more] //= 10
        removed[more] += 1
        more = more[vp[more] // 10 > low[more] // 10]
    # where the lower bound is an exact decimal, its trailing zeros go too
    more = np.flatnonzero(vm_zeros)
    vm_zeros[more] = low[more] * _POW10[removed[more]] == vm[more]
    more = more[vm_zeros[more]]
    more = more[low[more] // 10 * 10 == low[more]]
    while more.size:
        low[more] //= 10
        removed[more] += 1
        more = more[low[more] // 10 * 10 == low[more]]

    # round vr to the last kept digit, an exact half to even
    np.subtract(removed, 1, out=biased)
    np.take(_POW10, biased, out=t, mode="clip")  # 10^(removed - 1), 1 where none is
    np.floor_divide(vr, t, out=a)
    np.multiply(a, t, out=t)
    np.equal(t, vr, out=f1)
    vr_zeros &= f1
    np.floor_divide(a, 10, out=out)
    np.multiply(out, 10, out=t)
    a -= t  # the last digit removed
    np.equal(removed, 0, out=f1)
    np.copyto(out, vr, where=f1)
    np.copyto(a, 0, where=f1)
    np.bitwise_and(out, 1, out=t)
    np.equal(t, 0, out=f1)
    f1 &= vr_zeros  # an exact half rounds down to an even digit
    np.equal(a, 5, out=f2)
    np.greater(f2, f1, out=f2)
    np.greater(a, 5, out=f1)
    f1 |= f2
    np.equal(out, low, out=f2)
    vm_zeros &= even
    np.greater(f2, vm_zeros, out=f2)  # at the lower bound, which is not in the interval
    f1 |= f2
    np.add(out, 1, out=out, where=f1)
    np.add(s.exp10, removed, out=s.exp10, casting="unsafe")
    return out


@functools.cache
def _quads():
    """ASCII of 0000..9999 as uint32 words, so that one gather writes four digits."""
    text = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    return text.astype(np.uint8).view(np.uint32).ravel()


def _quad_rows(index, rows, quad):
    """Write the last len(`rows`) of the four digits of each of `index` (intp, < 10^4) as ASCII into `rows`, through free uint32 `quad`."""
    np.take(_quads(), index, out=quad, mode="clip")
    rows[...] = quad.view(np.uint8).reshape(-1, 4)[:, 4 - len(rows) :].T


def _digit_rows(values, first, rest, temps):
    """Write the 17 digits of each of `values` (< 10^17) as ASCII: the first into row `first`, the others into the 16 rows `rest`.

    `temps` are four free uint64 arrays of the size of `values`.
    """
    high, low, word, tail = temps
    np.floor_divide(values, 10**16, out=high)
    np.copyto(first, high, casting="unsafe")
    first += ord("0")
    np.multiply(high, 10**16, out=high)
    np.subtract(values, high, out=tail)
    np.floor_divide(tail, 10**8, out=high)  # digits 2..9
    np.multiply(high, 10**8, out=low)
    tail -= low  # digits 10..17
    index, quad = word.view(np.intp), low.view(np.uint32)[: values.size]
    for at, part in ((0, high), (8, tail)):
        np.floor_divide(part, 10**4, out=word)
        _quad_rows(index, rest[at : at + 4], quad)
        np.multiply(word, 10**4, out=word)
        np.subtract(part, word, out=word)
        _quad_rows(index, rest[at + 4 : at + 8], quad)


def _repr_slots(x, s=None):
    """`repr` of each float in `x`, as a (24, x.size) uint8 array: row s holds byte slot s, NUL where no byte is.

    Deleting the NULs of column i leaves ``repr(float(x.flat[i]))``.
    The exponent form is laid out in fixed slots: sign, first digit,
    '.', 16 more digits, 'e', the exponent's sign and three digits; a
    mask zeroes the sign of a positive float, the digits past the
    significant ones, a '.' with no digit after it and the exponent's
    hundreds below 100.  A positional float (decimal exponent -4..15) is
    laid out again by `_positional`.  `s` is a `_Scratch` of at least
    x.size floats (a new one by default); the result is a view of its
    slots, overwritten by the next call.
    """
    x = np.asarray(x)
    n = x.size
    if s is None:
        s = _Scratch(n)
    words, slots, exp10, significant = s.words, s.slots, s.exp10, s.significant
    nan, inf, zero = s.flags[:3]
    f1, f2 = s.flags[7:]
    values = words[0].view(np.float64)
    np.copyto(values[:n].reshape(x.shape), x)
    values[n:] = 0.0
    np.signbit(values, out=f1)
    np.multiply(f1.view(np.uint8), ord("-"), out=slots[0])
    np.isnan(values, out=nan)
    np.isinf(values, out=inf)
    np.bitwise_and(words[0], 2**63 - 1, out=words[0])
    np.equal(words[0], 0, out=zero)
    np.maximum(words[0], 1, out=words[0])  # a zero runs through as 5e-324; its digits are reset below
    digits = _shortest_decimal(s)
    np.copyto(digits, 0, where=zero)
    np.copyto(exp10, 0, where=zero)
    length = words[2].view(np.intp)
    _decimal_length(digits, length, words[3], f1)  # 0 for a zero
    padded = words[0]
    np.subtract(_DIGITS, length, out=length)
    np.take(_POW10, length, out=words[1], mode="clip")
    np.multiply(digits, words[1], out=padded)  # the digits, left-aligned in 17 places
    np.subtract(_DIGITS, length, out=length)
    np.maximum(length, 1, out=length)
    np.copyto(significant, length, casting="unsafe")
    np.add(exp10, length, out=exp10, casting="unsafe")
    exp10 -= 1  # the decimal exponent of the first digit
    np.greater_equal(exp10, -4, out=f1)
    np.less(exp10, 16, out=f2)
    f1 &= f2
    positional = np.flatnonzero(f1)

    # exponent form, in every column
    _digit_rows(padded, slots[1], slots[3:19], words[9:13])
    slots[2] = ord(".")
    slots[19] = ord("e")
    np.less(exp10, 0, out=f1)
    np.multiply(f1.view(np.uint8), ord("-") - ord("+"), out=slots[20])
    slots[20] += ord("+")
    index = words[9].view(np.intp)
    np.copyto(index, exp10)
    np.absolute(index, out=index)
    _quad_rows(index, slots[21:24], words[10].view(np.uint32)[: s.size])
    np.greater_equal(index, 100, out=f1)
    slots[21] *= f1.view(np.uint8)
    keep = s.byte_rows(6, _DIGITS, s.size).view(bool)
    np.less(_KEEP_ABOVE, significant, out=keep)
    slots[2:19] *= keep.view(np.uint8)

    _positional(slots, positional, padded, s)
    slots[1:, inf] = _INF[:, None]
    slots[:, nan] = _NAN[:, None]
    return slots[:, :n]


def _positional(slots, columns, padded, s):
    """Lay out again the `columns` of `slots` whose floats take the positional form, from their `padded` digits.

    ``repr`` writes a float with decimal exponent sci in -4..15 as its
    digits with a '.' after the first max(sci, 0) + 1 of them, padded
    with zeros: z = max(-sci, 0) before them and, where no digit follows
    the '.', one after.  The 17 places of the padded digits, divided by
    10^z, are laid out in the exponent form's digit slots, their z last
    digits in slots 19-22; then the digits before the '.' move up one
    slot, and a mask keeps the slots up to the last digit.  Works on
    those columns alone, gathered into the rows of ``s.words`` from 1 on.
    """
    count = columns.size
    words = s.words
    pad = np.take(padded, columns, out=words[1, :count], mode="clip")
    sci = np.take(s.exp10, columns, out=words[4].view(np.int16)[:count], mode="clip")
    significant, z, before, last = s.byte_rows(5, 4, count)
    np.take(s.significant, columns, out=significant, mode="clip")
    np.maximum(sci, 0, out=before, casting="unsafe")
    before += 2  # the '.' slot: one past the digits before it
    np.negative(sci, out=sci)
    np.maximum(sci, 0, out=z, casting="unsafe")
    power, scaled, product = words[3, :count], words[2, :count], words[4, :count]
    index = scaled.view(np.intp)
    np.copyto(index, z)
    np.take(_POW10, index, out=power, mode="clip")
    np.floor_divide(pad, power, out=scaled)
    np.multiply(scaled, power, out=product)
    pad -= product
    pad *= 10**4
    pad //= power  # the z digits past the 17th, left-aligned in four places
    out = s.byte_rows(6, _SLOT, count)
    _quad_rows(pad.view(np.intp), out[19:23], power.view(np.uint32)[:count])
    out[23] = 0
    moved = s.byte_rows(9, 16, count)
    _digit_rows(scaled, out[1], moved, (pad, power, product, words[12, :count]))
    np.take(slots[0], columns, out=out[0], mode="clip")
    out[2] = ord(".")
    out[3:19] = moved
    mask = s.byte_rows(11, 15, count).view(bool)
    np.less(_ROW[2:17], before, out=mask)
    np.copyto(out[2:17], moved[:15], where=mask)
    np.equal(_ROW[3:18], before, out=mask)
    np.copyto(out[3:18], ord("."), where=mask)
    np.add(significant, z, out=last)
    np.maximum(last, before, out=last)
    last += 1
    mask = s.byte_rows(9, _SLOT - 2, count).view(bool)
    np.less_equal(_ROW[2:], last, out=mask)
    out[2:] *= mask.view(np.uint8)
    slots[:, columns] = out


def _geometry(n_q: int):
    """(rows a record, rows a block) of a field with `n_q` columns: a block is a whole number of records, at least one row each."""
    rows = max(1, _RECORD_CELLS // max(n_q, 1))
    return rows, rows * max(1, _BLOCK_CELLS // (rows * max(n_q, 1)))


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
    rows, block = _geometry(n_q)
    scratch = _Scratch(block * n_q)
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
        for start in range(0, n_p, block):
            cells = _repr_slots(w[start : start + block], scratch)
            for first in range(start, min(start + block, n_p), rows):
                n, at = min(rows, n_p - first), (first - start) * n_q
                p_part[:n] = p_slots[first : first + n, None]
                w_part[:n] = cells[:, at : at + n * n_q].reshape(_SLOT, n, n_q).transpose(1, 2, 0)
                record[n:] = 0  # the rows past a ragged last record write nothing
                fh.write(buf.translate(None, b"\0"))


def write_json(path, obj):
    """Write `obj` as a JSON document."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
