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
writes into one scratch set (`_Scratch`, 138 bytes a cell) allocated
once per file.  A larger block means fewer numpy calls a field (about
300 a block), and with no fresh temporaries glibc's malloc has nothing
to hand back to the kernel and fault in again on every block: after a
process's first two writes a write takes no page faults.  Memory sets
the block size: scratch set, record and its NUL-free copy peak at about
1.5 MB at n = 512, 1.55-1.8 MB on a process's first write, which also
builds the tables in its first block (the high end is a field of powers
of two, which builds their texts too, or of integers, whose digits all
need their trailing zeros removed).
``test_field_writer_memory_stays_linear`` clears the tables first, so
each of its cases measures a first write, and bounds it at 2e6 bytes,
which the next whole number of records, 10240 cells, would all but
reach.  The bytes of 2048 cells at a time are laid out in one
``bytearray`` record allocated per file, and the record, its NULs
deleted, goes straight to the file opened in binary mode, without a
``str`` per record.  The q and p nodes, one or two thousand of them,
take their text from ``repr`` itself (`_texts`), NUL-padded only to
the longest text of their axis: in long form a line holds a q and a p
slot that wide, not 24 bytes each.  The head is encoded in the
locale's encoding, as a text-mode file would have.
`_shortest_decimal` turns each float64 into the shortest decimal
significand and exponent that reads back to the same float, the nearest
such one to the float's exact value, ties to an even digit.  That is the
rule of CPython's ``repr`` (Gay's ``dtoa`` in mode 0), so the digits are
``repr``'s; Ryū's ``d2d`` (Adams, PLDI 2018), which this module ran
before, follows it too.  The algorithm is Dragonbox's nearest path
(J. Jeon, 2020) over arrays: one 64 x 128-bit product per float, of its
scaled upper interval end and a 128-bit power of ten, then a division by
1000 and, where the interval holds no multiple of it, by 100; a second
product runs only on the few floats at an edge of either test.  The
powers of ten are tabulated per binary exponent from exact integers on a
process's first write (`_dragonbox_tables`, about 0.6 ms).
`_repr_slots` lays the digits out as ``repr`` does, in fixed 24-byte
slots, each byte kept or zeroed by a mask: exponent form (``1e-05``,
``-2.5e+300``) when the decimal exponent is below -4 or at least 16, its
suffix from a table of ``e-324`` .. ``e+308`` (`_suffixes`), and
positional form (``0.0001``, ``123.0``) otherwise, made from the
exponent form's digits; ``0.0``, ``-0.0``, ``inf``, ``-inf`` and ``nan``
are fixed texts.  A power of two above 2^-1022, whose interval is
narrower below, takes its text whole from a table of ``repr``
(`_power_texts`, about 2 ms), built only by a write that holds one.  A
record's rows are its slots and separators side by side; deleting the
zeroed bytes leaves the text ``csv.writer`` would write from ``repr`` of
each cell.  The field, its nodes and their shapes are checked before the
file is opened.

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
_ZERO = np.frombuffer(b"0.0".ljust(_SLOT - 1, b"\0"), dtype=np.uint8)  # slots 1..23; slot 0 keeps the sign
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


def _texts(values, width: int = 0):
    """``repr`` of each of `values` as a float64, NUL-padded, in a (values.size, width) uint8 array; width 0 is the longest text's."""
    texts = [repr(x).encode() for x in np.asarray(values, dtype=np.float64).ravel().tolist()]
    width = width or max(map(len, texts), default=0)
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width)


@functools.cache
def _dragonbox_tables():
    """Dragonbox's constants for each biased binary exponent b, 0..2047, from exact integers.

    A float is f_c · 2^e, f_c its significand with the hidden bit and
    e = b - 1075 (-1074 for b = 0).  With k = 2 - floor(e·log10 2) and
    L = floor(k·log2 10), phi = ceil(10^k · 2^(127 - L)) is 10^k to 128
    bits, kept as four 32-bit limbs, and beta = e + L is 6..9, so that
    (2f_c + 1)·2^beta < 2^63 and floor((2f_c + 1)·2^beta·phi / 2^128) is
    the upper end of the float's rounding interval in units of 10^-k;
    delta = phi >> (127 - beta) is the interval's width in those units.
    One array per constant, so that each is gathered on its own.
    """
    e = np.maximum(np.arange(2048), 1) - 1075
    k = 2 - (e * 315653 >> 20)  # floor(e·log10 2) is exact this way for |e| < 2621
    first = int(k.min())
    log2, phi = [], []
    for kk in range(first, int(k.max()) + 1):
        p = 10 ** abs(kk)
        log2.append(p.bit_length() - 1 if kk >= 0 else -p.bit_length())
        phi.append(-(-p << 127 >> log2[-1]) if kk >= 0 else -((-1 << 127 - log2[-1]) // p))
    log2 = np.array(log2)
    words = np.frombuffer(b"".join(f.to_bytes(16, "little") for f in phi), dtype=np.uint32).reshape(-1, 4).T
    beta = (e + log2[k - first]).astype(_U64)
    limbs = words[:, k - first].astype(_U64)
    delta = limbs[3] >> (_U64(31) - beta)
    return limbs, beta, delta, (2 - k).astype(np.int16)


@functools.cache
def _power_texts():
    """`_texts` in 23 bytes of the float with bits b << 52 (2^(b - 1023) for b = 1..2046), by b: slots 1..23 of its repr.

    A power of two above 2^-1022 has a rounding interval half as wide
    below, which the nearest path does not cover, so its text is read
    from ``repr`` itself, on the first write that holds such a power;
    slot 0 keeps the sign, as it does for a zero or an infinity.
    """
    return _texts((np.arange(2048, dtype=_U64) << _U64(52)).view(np.float64), _SLOT - 1)


@functools.cache
def _suffixes():
    """'e-324' .. 'e+308', NUL-padded to 5 bytes, as a (5, 633) uint8 array: column e + 324 is decimal exponent e's."""
    text = b"".join(f"e{e:+03d}".encode().ljust(5, b"\0") for e in range(-324, 309))
    return np.frombuffer(text, dtype=np.uint8).reshape(-1, 5).T.copy()


class _Scratch:
    """The work arrays of `_repr_slots` for up to `size` floats a call, allocated once per file and reused by every block.

    `words` are 13 uint64 rows that the Dragonbox stages hand on to each
    other and the layout stages then reuse, `flags` 7 bool rows, `exp10`
    and `significant` each float's decimal exponent and digit count, and
    `slots` the text: 138 bytes a float in all.  numpy writes every stage
    into these arrays (``out=``), so formatting a block allocates only
    index arrays, and copies, of the floats that a rare case applies to:
    a remainder at the interval's width or at zero, a rounding that
    lands on a multiple of 100, trailing zeros, a power of two, a zero,
    an infinity or NaN; the positional floats' text is laid out in rows
    of `words`, and a power of two's is copied whole from `_power_texts`.
    """

    def __init__(self, size: int):
        self.size = size
        self.words = np.empty((13, size), dtype=_U64)
        self.flags = np.empty((7, size), dtype=bool)
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


def _wide_product(u, limbs, z, rest, temps):
    """z <- bits 128..191 and rest <- bits 64..127 of u · phi, for u < 2^63 and phi < 2^128 in 32-bit `limbs`.

    A schoolbook product in uint64 arrays, one 32-bit column at a time:
    `row` carries the products of u's low limb along their columns,
    `col` those of its high limb and each column's sum, and no sum
    reaches 2^64.  `u` is overwritten; `temps` are three free uint64
    arrays.
    """
    low, row, col = temps
    np.bitwise_and(u, _LOW32, out=low)
    u >>= 32
    np.multiply(low, limbs[0], out=row)
    row >>= 32
    np.multiply(u, limbs[0], out=col)
    for j in (1, 2, 3):
        np.multiply(low, limbs[j], out=z)
        row += z
        if j > 1:
            np.multiply(u, limbs[j - 1], out=z)
            col += z
        np.bitwise_and(row, _LOW32, out=z)
        col += z
        row >>= 32
        if j == 2:
            np.bitwise_and(col, _LOW32, out=rest)
        elif j == 3:
            np.left_shift(col, 32, out=z)
            rest |= z
        col >>= 32
    np.multiply(u, limbs[3], out=z)
    z += row
    z += col


def _shortest_decimal(s):
    """Digits of `repr` for the positive float64 bit patterns in ``s.words[0]``; their exponents go to ``s.exp10``.

    Dragonbox's nearest path (J. Jeon, 2020) on uint64 arrays: digits ·
    10^exponent is the shortest decimal inside the float's rounding
    interval (ends included when the significand is even), the nearest
    such one to its exact value, ties to an even last digit, and it
    never ends in 0.  One product gives z, the interval's upper end; a
    multiple of 1000 units within the interval's width delta below it
    is the shortest decimal, else the nearest multiple of 100 units to
    the float is.  Where z's remainder is 0 or delta, or that nearest
    multiple lies halfway, a second product decides, on those floats
    alone.  A power of two above 2^-1022, whose interval is narrower
    below, gets digits that mean nothing, as a zero does.  Returns the
    row of ``s.words`` that holds the digits, every other row free
    afterwards, and the columns of those powers with their biased
    exponents, for `_repr_slots` to give their text from `_power_texts`.
    """
    phi, beta, delta, exp10 = _dragonbox_tables()
    bits, index, fc, shift, u, *limbs, row, col, rest, z = s.words
    biased = index.view(np.intp)
    shorter, f1 = s.flags[3:5]
    np.right_shift(bits, 52, out=index)
    np.bitwise_and(bits, 2**52 - 1, out=fc)
    np.equal(fc, 0, out=f1)
    powers = np.flatnonzero(f1)  # powers of two, zeros and infinities
    powers = powers[(biased[powers] > 1) & (biased[powers] < 2047)]  # 2^-1022's interval is even
    np.not_equal(index, 0, out=f1)
    np.bitwise_or(fc, 1 << 52, out=fc, where=f1)
    np.take(beta, biased, out=shift, mode="clip")
    np.take(exp10, biased, out=s.exp10, mode="clip")
    for limb, column in zip(limbs, phi):
        np.take(column, biased, out=limb, mode="clip")
    np.left_shift(fc, 1, out=u)
    u |= 1
    u <<= shift
    _wide_product(u, limbs, z, rest, (bits, row, col))

    def below(more, offset):
        """Bit 128 of ((2f_c - offset) · 2^beta) · phi for the floats `more`, and whether its bits 64..127 are 0."""
        u, z, rest, *temps = np.empty((6, more.size), dtype=_U64)
        np.left_shift(fc[more], 1, out=u)
        u -= _U64(offset)
        u <<= shift[more]
        _wide_product(u, phi[:, biased[more]], z, rest, temps)
        return z & _U64(1) == 1, rest == 0

    # z = 1000·sig + r: sig·10^(3-k) is the shortest decimal if it lies in the interval
    sig, r, width, dist = limbs
    np.floor_divide(z, 1000, out=sig)
    np.multiply(sig, 1000, out=r)
    np.subtract(z, r, out=r)
    np.take(delta, biased, out=width, mode="clip")
    np.less(r, width, out=shorter)
    # an exact upper end is outside the interval for an odd significand, and sig one too high
    np.equal(r, 0, out=f1)
    more = np.flatnonzero(f1)
    more = more[(rest[more] == 0) & (fc[more] & _U64(1) == 1)]
    sig[more] -= _U64(1)
    r[more] = 1000
    shorter[more] = False
    # r = delta puts sig within a unit of the lower end: the lower end's product tells on which side
    np.equal(r, width, out=f1)
    more = np.flatnonzero(f1)
    parity, exact = below(more, 1)
    shorter[more] = parity | (exact & (fc[more] & _U64(1) == 0))
    # else one more digit: the multiple of 100 units nearest to the float, z - delta/2
    np.right_shift(width, 1, out=dist)
    np.subtract(r, dist, out=dist)
    dist += _U64(50)
    np.floor_divide(dist, 100, out=row)
    out = z
    np.multiply(sig, 10, out=out)
    out += row
    np.putmask(out, shorter, sig)
    np.add(s.exp10, shorter, out=s.exp10, casting="unsafe")
    # dist is rounded from an approximation: where it is a multiple of 100, the
    # float's own product tells whether it came out one too high, or halfway (to even)
    row *= _U64(100)
    np.equal(row, dist, out=f1)
    np.greater(f1, shorter, out=f1)
    more = np.flatnonzero(f1)
    parity, exact = below(more, 0)
    odd = out[more] & _U64(1) == 1
    out[more] -= (parity != ((dist[more] ^ _U64(50)) & _U64(1) == 1)) | (odd & exact)
    # sig may end in zeros
    np.floor_divide(out, 10, out=row)
    row *= _U64(10)
    np.equal(row, out, out=f1)
    more = np.flatnonzero(f1)
    for power in (8, 4, 2, 1):
        zeros = more[out[more] % _U64(10**power) == 0]
        out[zeros] //= _U64(10**power)
        s.exp10[zeros] += power
    return out, powers, biased[powers]


@functools.cache
def _quads():
    """ASCII of 0000..9999 as uint32 words, so that one gather writes four digits."""
    text = np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], dtype=np.int16) % 10 + ord("0")
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
    '.', 16 more digits and the suffix, 'e', the exponent's sign and two
    or three digits, from a table (`_suffixes`); a mask zeroes the sign
    of a positive float, the digits past the significant ones and a '.'
    with no digit after it.  A positional float (decimal exponent
    -4..15) gets the text `_positional` makes from its exponent form's
    digits, and a zero, an infinity or a NaN a fixed text; a zero keeps
    its sign, as a power of two above 2^-1022 does, whose text comes
    last, from `_power_texts`, and only for a block that holds one.
    `s` is a `_Scratch` of at least x.size floats (a new one by
    default); the result is a view of its slots, overwritten by the next
    call.
    """
    x = np.asarray(x)
    n = x.size
    if s is None:
        s = _Scratch(n)
    words, slots, exp10, significant = s.words, s.slots, s.exp10, s.significant
    nan, inf, zero = s.flags[:3]
    f1, f2 = s.flags[5:]
    values = words[0].view(np.float64)
    np.copyto(values[:n].reshape(x.shape), x)
    values[n:] = 0.0
    np.signbit(values, out=f1)
    np.multiply(f1.view(np.uint8), ord("-"), out=slots[0])
    np.isnan(values, out=nan)
    np.isinf(values, out=inf)
    np.bitwise_and(words[0], 2**63 - 1, out=words[0])
    np.equal(words[0], 0, out=zero)
    digits, powers, biased = _shortest_decimal(s)
    length = words[2].view(np.intp)
    _decimal_length(digits, length, words[3], f1)  # a zero's digits mean nothing: it gets a fixed text
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
    index = words[9].view(np.intp)
    np.add(exp10, 324, out=index)
    np.take(_suffixes(), index, axis=1, out=slots[19:], mode="clip")
    text = _positional(slots, positional, s)
    keep = s.byte_rows(6, _DIGITS, s.size).view(bool)
    np.less(_KEEP_ABOVE, significant, out=keep)
    slots[2:19] *= keep.view(np.uint8)

    slots[:, positional] = text
    slots[1:, inf] = _INF[:, None]
    slots[:, nan] = _NAN[:, None]
    slots[1:, zero] = _ZERO[:, None]
    if powers.size:
        slots[1:, powers] = _power_texts()[biased].T
    return slots[:, :n]


def _positional(slots, columns, s):
    """The positional text of the `columns` of `slots`, made from their exponent form's digits before any mask.

    ``repr`` writes a float with decimal exponent sci in -4..15 as its
    digits with a '.' after the first max(sci, 0) + 1 of them, padded
    with zeros: z = max(-sci, 0) before them and, where no digit follows
    the '.', one after.  The exponent form's 17 digit slots, which still
    hold the digits' trailing zeros, are gathered behind five '0' rows.
    A float with z > 0 copies them into its slots from 1 on, starting
    z + 1 rows before its first digit (four masked copies, one a z), so
    that it reads '0', a slot that the '.' takes back, z - 1 zeros and
    its digits.  Then the digits before the '.' move up one slot, and a
    mask keeps the slots up to the last digit.  Works on those columns
    alone, in rows of ``s.words``; returns a (24, columns.size) view of
    rows 0..2, which `_repr_slots` scatters into `slots` after its mask.
    """
    count = columns.size
    out = s.byte_rows(0, _SLOT, count)
    np.take(slots[:19], columns, axis=1, out=out[:19], mode="clip")
    shifted = s.byte_rows(3, 5 + _DIGITS, count)
    shifted[:5] = ord("0")
    shifted[5] = out[1]
    shifted[6:] = out[3:19]
    sci = s.words[6].view(np.int16)[:count]
    np.take(s.exp10, columns, out=sci, mode="clip")
    significant, z, before, last = s.byte_rows(12, 4, count)
    np.take(s.significant, columns, out=significant, mode="clip")
    np.maximum(sci, 0, out=before, casting="unsafe")
    before += 2  # the '.' slot: one past the digits before it
    np.negative(sci, out=sci)
    np.maximum(sci, 0, out=z, casting="unsafe")
    mask = s.byte_rows(6, _SLOT - 2, count).view(bool)
    for zeros in range(1, 5):
        np.equal(z, zeros, out=mask[0])
        np.copyto(out[1 : 19 + zeros], shifted[4 - zeros :], where=mask[0])
    out[2] = ord(".")
    np.less(_ROW[2:17], before, out=mask[:15])
    np.copyto(out[2:17], shifted[6:21], where=mask[:15])
    np.equal(_ROW[3:18], before, out=mask[:15])
    np.copyto(out[3:18], ord("."), where=mask[:15])
    np.add(significant, z, out=last)
    np.maximum(last, before, out=last)
    last += 1
    np.less_equal(_ROW[2:], last, out=mask)
    out[2:] *= mask.view(np.uint8)
    return out


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
    q_slots, p_slots = _texts(q_nodes), _texts(p_nodes)
    q_width, p_width = q_slots.shape[1], p_slots.shape[1]
    rows, block = _geometry(n_q)
    scratch = _Scratch(block * n_q)
    shape = (rows, n_q + 2, _SLOT + 1) if matrix else (rows, n_q, q_width + p_width + _SLOT + 4)
    buf = bytearray(math.prod(shape))
    record = np.frombuffer(buf, dtype=np.uint8).reshape(shape)
    if matrix:
        # contour-ready: first row q nodes, then one row per p node, each
        # the p slot, then a ',' and a W slot per q node, then CRLF
        record[:, 1:, 0] = ord(",")
        record[:, -1, :2] = _CRLF
        p_part, w_part = record[:, :1, :p_width], record[:, 1:-1, 1:]
        header = ["p\\q", *(cell.tobytes().rstrip(b"\0").decode("ascii") for cell in q_slots)]
    else:
        # one line per grid point: q slot, ',', p slot, ',', W slot, CRLF
        record[:, :, :q_width] = q_slots
        record[:, :, [q_width, q_width + p_width + 1]] = ord(",")
        record[:, :, -2:] = _CRLF
        p_part = record[:, :, q_width + 1 : q_width + p_width + 1]
        w_part = record[:, :, q_width + p_width + 2 : -2]
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
