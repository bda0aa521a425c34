"""Python's ``repr`` of float64 and int64 columns, computed with numpy alone.

A float cell is the shortest decimal that reads back as the same double,
found by Ryū (U. Adams, "Ryū: fast float-to-string conversion", PLDI 2018)
and laid out as ``repr`` does: fixed notation while the decimal point falls
within 4 places before the first digit and 16 after it, scientific notation
(``1e+16``, ``1.5e-05``) otherwise, ``nan``, ``inf`` and ``-inf`` as such,
or as the JSON strings ``"nan"``, ``"inf"`` and ``"-inf"`` under ``quote``.

Each cell is a fixed column of character slots, one slot per place a
character can take (sign, leading zeros, each digit, a point after each
digit, the exponent), with NUL in every slot the cell leaves empty.  Joining
the rows squeezes the NULs out, so no cell is ever shifted into place.

The float64 columns of a block go through Ryū in one call, stacked end to
end, so each numpy operation runs over every float cell of the block.
Ryū's 128-bit products run on 32-bit limbs held in uint64 arrays.  Every
array in that arithmetic is uint64 and every constant meeting one a
``np.uint64``: numpy promotes uint64 mixed with int64 to float64.  Ryū's
constants form one table with a column per (exponent, wide) pair; a call
fills the columns it reads that no earlier call filled, so nothing is built
at import and a process computes only the columns its values need.  Each
row of the table is gathered only where it is read (``np.take`` with
``mode="clip"`` writes straight into ``out``; every column is in range).
Every uint64 array of the kernel, the stacked values and the returned slots
are rows of one array that each call makes for itself.

Most of a call's time is numpy passes over all its values, so the kernel
makes few.  Digits are dropped by passes over every value only while more
than a quarter of them still drop one, then over those few alone; the
digits kept come from one division by 10^dropped, and the rounding from
what it leaves.  The exact cases (vr, vp or vm landing on a multiple of
5^q or 2^q) are checked only where they can change a digit: in the few
columns of values past 2^50 or so, and at the values exactly half way.
Each column's slots follow from its extent (signs, its least and greatest
point, its most digits shown, its exponents), so joining copies only the
slots some cell of the column fills, and an int64 column has only as many
digit slots as its widest value.  Digits come out two at a time, from the
low bytes of uint32 quotients by 100, in uint8 arithmetic.

Measured on a 2-vCPU VM (``BENCH_27.json``), a 4096-row growth block (four
float64 columns and one int64 column, 20 480 cells) renders in ~2.2 ms,
and a call also costs ~0.45-0.9 ms whatever its size, so small tables take
``repr``.
"""

from __future__ import annotations

import threading

import numpy as np

_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_MANTISSA = _U((1 << 52) - 1)

# 10^0 .. 10^19, the powers of ten below 2^64, and 10^17 .. 10^0
_P10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_P10_DOWN = _P10[17::-1].copy()
_B = {c: np.uint8(ord(c)) for c in "0.-+e"}

# uint64 rows of the kernel's array: the values in the last, all _ryu's
_SLOTS = 10

# rows of the two exponent tables: what ``_scaled`` reads, and the rest
_T0, _T1, _T2, _T3, _SHIFT, _REM_MASK, _HIDDEN_BIT = range(7)
_QP, _NP_HI, _NP_LO, _QM, _RM_HI, _RM_LO, _POW5, _TINY, _TZ_MASK, _E10 = range(10)


# Ryū's constants as uint64 rows over the columns 2 e + w, filled on demand
# (``_tables``): rows _T0 .. _HIDDEN_BIT are what ``_scaled`` reads, and
# the rows after them the rest; _FILLED marks the columns already written
_COLUMNS = np.zeros((17, 4096), np.uint64)
_FILLED = np.zeros(4096, bool)
_FILL_LOCK = threading.Lock()


def _column(c: int) -> list[int]:
    """Ryū's constants for column c = 2 e + w, for the biased exponent e of a
    double and w = 1 unless it is a power of two above 2^-1022.

    A double m2 * 2^e2 scales mv = 4 m2 by T / 2^J: T is 2^(bits(5^q) + 124)
    / 5^q rounded up for e2 >= 0 (e10 = q), the top 125 bits of 5^(-e2 - q)
    for e2 < 0 (e10 = q + e2), and J = 96 + shift, 118 <= J <= 125.  Beside
    T's 32-bit limbs a column holds the mask of bits 64 .. J-1, the hidden
    bit, the quotient of 2 T by 2^J and 2^J less its remainder (for vp, at
    mv + 2), the quotient and remainder of (1 + w) T by 2^J (for vm, at
    mv - 1 - w), each remainder as high and low words, 5^q where vr may end
    in q decimal zeros (e2 >= 0, q <= 21), the flag and mask of the cases
    e2 < 0 with q <= 1 and 1 < q < 63, and e10 in two's complement.
    """
    e, w = divmod(c, 2)
    e2 = max(e, 1) - 1077
    if e2 >= 0:
        q = ((e2 * 78913) >> 18) - (e2 > 3)
        p = 5**q
        t = (1 << (p.bit_length() + 124)) // p + 1
        j = q - e2 + 124 + p.bit_length()
        e10 = q
    else:
        q = ((-e2 * 732923) >> 20) - (-e2 > 1)
        p = 5**(-e2 - q)
        t = p >> (p.bit_length() - 125) if p.bit_length() >= 125 else \
            p << (125 - p.bit_length())
        j = q + 125 - p.bit_length()
        e10 = q + e2
    low64 = (1 << 64) - 1
    rest_p = (1 << j) - 2 * t % (1 << j)
    rem_m = (1 + w) * t % (1 << j)
    return [*((t >> (32 * k)) & 0xFFFFFFFF for k in range(4)), j - 96,
            (1 << (j - 64)) - 1, (1 << 52) if e else 0,
            2 * t >> j, rest_p >> 64, rest_p & low64,
            (1 + w) * t >> j, rem_m >> 64, rem_m & low64,
            p if e2 >= 0 and q <= 21 else 0, int(e2 < 0 and q <= 1),
            (1 << q) - 1 if e2 < 0 and 1 < q < 63 else 0, e10 & low64]


def _tables(column) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``_scaled`` reads and the rest, with every column in
    ``column`` filled: each column once per process, under ``_FILL_LOCK``,
    its flag set only after its values are written, so a call that finds
    a column's flag set reads its values without the lock."""
    if not _FILLED[column].all():
        with _FILL_LOCK:
            needed = np.zeros(len(_FILLED), bool)
            needed[column] = True
            # less what another call filled while this one waited
            missing = np.flatnonzero(needed & ~_FILLED)
            if missing.size:
                _COLUMNS[:, missing] = np.array(
                    [_column(c) for c in missing.tolist()], np.uint64).T
                _FILLED[missing] = True
    return _COLUMNS[:7], _COLUMNS[7:]


def _below(hi, lo, b_hi, b_lo, column, t):
    """(hi, lo) < (b_hi, b_lo) at ``column`` as 128-bit numbers; t is
    scratch."""
    np.take(b_hi, column, out=t, mode="clip")
    below = hi < t
    equal = np.flatnonzero(hi == t)  # rare: the low words decide
    if equal.size:
        below[equal] = lo[equal] < b_lo[column[equal]]
    return below


def _scaled(mv, column, scaling, *, out, work):
    """(vr, remainder) into ``out``: floor(mv T / 2^J) and mv T mod 2^J, the
    remainder as (high, low) words, for mv < 2^55 and T, J from the columns
    ``column`` of ``scaling``; ``work`` is five more arrays like mv.

    mv = m1 2^32 + m0.  Column k of the product sums the low half of
    m0 t_k, the high half of m0 t_(k-1), all of m1 t_(k-1) (m1 < 2^23) and
    the carry c from column k-1, which stays below 2^57; x0 .. x5 are the
    product's 32-bit limbs, and c ends as x5 x4.
    """
    c, x3, lo = out
    t, p, x, m0, m1 = work
    np.bitwise_and(mv, _LOW32, out=m0)
    np.right_shift(mv, _U(32), out=m1)
    np.take(scaling[_T0], column, out=t, mode="clip")
    np.multiply(m0, t, out=p)
    np.bitwise_and(p, _LOW32, out=lo)  # x0
    np.right_shift(p, _U(32), out=c)
    c += np.multiply(m1, t, out=p)
    for row, limb in ((_T1, x), (_T2, x), (_T3, x3)):
        np.take(scaling[row], column, out=t, mode="clip")
        np.multiply(m0, t, out=p)
        c += np.bitwise_and(p, _LOW32, out=limb)
        np.bitwise_and(c, _LOW32, out=limb)  # x_k
        c >>= _U(32)
        c += np.right_shift(p, _U(32), out=p)
        c += np.multiply(m1, t, out=p)
        if row == _T1:  # x1 x0, the remainder's low word; x takes x2 next
            lo |= np.left_shift(x, _U(32), out=x)
    # vr = x5 x4 x3 >> shift: x4 << (32 - shift) and x5 << (64 - shift) fill
    # disjoint bits, so together they are c << (32 - shift)
    np.take(scaling[_SHIFT], column, out=t, mode="clip")
    c <<= np.subtract(_U(32), t, out=p)
    c |= np.right_shift(x3, t, out=p)
    x3 <<= _U(32)
    x3 |= x
    x3 &= np.take(scaling[_REM_MASK], column, out=t, mode="clip")


def _ryu(bits, kernel):
    """Ryū: (digits, exponent) with digits * 10^exponent the shortest decimal
    that reads back as each nonzero finite double in ``bits`` (uint64, the
    sign ignored).  Zeros, nan and inf get meaningless digits: their columns
    are in none of the exact cases, so every loop below ends for them too.

    Among shortest decimals the one nearest the double wins, ties to even.
    The results, the exponent as an int64 view, are rows 0 and 1 of
    ``kernel`` (uint64, ``_SLOTS`` rows of len(bits)), and rows 2 .. 9 its
    scratch: ``bits`` is row 9, read first.
    """
    n = len(bits)
    vr, rem_hi, rem_lo, column, mv, t, vp, vm, x = kernel[:9]
    np.right_shift(bits, _U(52), out=mv)
    # the biased exponent e, then the column 2 e + wide
    column = np.bitwise_and(mv, _U(0x7FF), out=column).view(np.int64)
    np.bitwise_and(bits, _MANTISSA, out=mv)
    # vm's end of the interval is half an ulp below, a quarter at the powers
    # of two whose lower neighbour is closer
    wide = (mv != 0) | (column <= 1)
    column <<= 1
    column += wide
    scaling, table = _tables(column)
    mv |= np.take(scaling[_HIDDEN_BIT], column, out=t, mode="clip")
    mv <<= _U(2)
    _scaled(mv, column, scaling, out=(vr, rem_hi, rem_lo),
            work=(t, vp, x, vm, kernel[9]))

    # vp and vm: mv + 2 and mv - 1 - wide scaled alike, from vr and the
    # remainder
    np.take(table[_QP], column, out=vp, mode="clip")
    vp += vr
    vp += ~_below(rem_hi, rem_lo, table[_NP_HI], table[_NP_LO], column, t)
    np.subtract(vr, np.take(table[_QM], column, out=vm, mode="clip"), out=vm)
    vm -= _below(rem_hi, rem_lo, table[_RM_HI], table[_RM_LO], column, t)

    # where mv's interval meets a multiple of 5^q (e2 >= 0, q <= 21) or q
    # <= 1, values past 2^50 or so, vp may move down and vm be an end that
    # an even mantissa owns (rare: those columns' cells only)
    owned = np.zeros(0, np.int64)
    lo, hi = int(column.min()), int(column.max()) + 1
    if table[_POW5, lo:hi].any() or table[_TINY, lo:hi].any():
        rare = np.flatnonzero(np.take(table[_POW5], column, out=t, mode="clip")
                              | np.take(table[_TINY], column, out=x, mode="clip"))
        c, m = column[rare], mv[rare]
        p5 = table[_POW5][c]
        tiny = p5 == 0  # q <= 1
        p5[tiny] = 1
        accept = m & _U(4) == 0  # m2 = m / 4 even
        wide = (c & 1).astype(np.uint64)
        by5 = m % _U(5) == 0
        owned = rare[accept & np.where(
            tiny, wide == 1, ~by5 & ((m - _U(1) - wide) % p5 == 0))]
        vp[rare] -= ~accept & (tiny | ~by5 & ((m + _U(2)) % p5 == 0))

    # drop digits while vp and vm still differ above them: over every value
    # while more than a quarter still drop one, then over those that do
    removed = rem_hi.view(np.int64)
    removed[:] = 0
    a = np.floor_divide(vp, _U(10), out=rem_lo)
    b = np.floor_divide(vm, _U(10), out=x)
    more = a > b
    while np.count_nonzero(more) * 4 > n:
        removed += more
        a //= _U(10)
        b //= _U(10)
        np.greater(a, b, out=more)
    active = np.flatnonzero(more)
    a, b, more = a[active], b[active], more[active]
    count = np.zeros(active.size, np.int64)
    while more.any():
        count += more
        a //= _U(10)
        b //= _U(10)
        np.greater(a, b, out=more)
    removed[active] += count

    # vm stays owned where the digits it drops are all zero, and then drops
    # its trailing zeros too (vm is then a positive integer)
    p = np.take(_P10, removed, out=t, mode="clip")
    if owned.size:
        vm_f = vm[owned] // p[owned]
        zeros = vm_f * p[owned] == vm[owned]
        owned = strip = owned[zeros]
        vm_f = vm_f[zeros]
        while (zeros := vm_f % _U(10) == 0).any():
            strip, vm_f = strip[zeros], vm_f[zeros] // _U(10)
            removed[strip] += 1
        np.take(_P10, removed, out=p, mode="clip")

    # round the digits kept up past half of what they drop, and up where
    # vm keeps the same digits but is not owned; at exactly half, up unless
    # vr is exact and its digits even
    vr_f = np.floor_divide(vr, p, out=kernel[9])
    kept = np.multiply(vr_f, p, out=rem_lo)
    rest = np.subtract(vr, kept, out=vp)
    half = np.right_shift(np.add(p, _U(1), out=p), _U(1), out=p)  # 1 for p = 1
    up = rest > half
    up |= vm >= kept
    up[owned] = rest[owned] > half[owned]
    at = np.flatnonzero(rest == half)
    if at.size:
        up[at] |= ~(_exact(mv[at], column[at], table) & (vr_f[at] & _U(1) == 0))
    vr_f = np.add(vr_f, up, out=vr)
    removed += np.take(table[_E10], column, out=x, mode="clip").view(np.int64)
    return vr_f, removed


def _exact(mv, column, table) -> np.ndarray:
    """Whether vr is mv 2^e2 / 10^e10 exactly, for a few values ``mv`` (4 m2)
    at ``column``: mv a multiple of 5^q (e2 >= 0, q <= 21), q <= 1, or mv a
    multiple of 2^q (e2 < 0, 1 < q < 63)."""
    p5 = table[_POW5][column]
    mask = table[_TZ_MASK][column]
    exact = table[_TINY][column] == 1
    exact |= (mask != 0) & (mv & mask == 0)
    five = np.flatnonzero(p5)
    exact[five] = (mv[five] % _U(5) == 0) & (mv[five] % p5[five] == 0)
    return exact


def _digits(v, out) -> np.ndarray:
    """ASCII digits of each v < 10^width into the rows of ``out`` (width,
    len(v)), most significant first, zero-padded; v (uint64) is overwritten.

    Each pair of digits is the low byte of a quotient less 100 times the
    low byte of the next, exact in uint8's wrap-around arithmetic since it
    is below 100.
    """
    for top in range(len(out), 0, -9):  # 9-digit chunks from the right in uint32
        chunk = v.astype(np.uint32)  # v mod 2^32
        if top > 9:
            v //= _P10[9]
            # v mod 10^9 < 2^32, so uint32's wrap-around gives it exactly
            chunk -= v.astype(np.uint32) * np.uint32(10**9)
        low, k, bottom = chunk.astype(np.uint8), top, max(top - 9, 0)
        while k > bottom:  # two digits a step, from the right
            rest = None
            if k - bottom > 2:
                chunk //= np.uint32(100)
                rest = chunk.astype(np.uint8)
                np.subtract(low, rest * np.uint8(100), out=low)
            if k - bottom == 1:  # a chunk's odd first digit
                out[k - 1] = low
            else:
                tens = np.floor_divide(low, np.uint8(10), out=out[k - 2])
                np.subtract(low, tens * np.uint8(10), out=out[k - 1])
            low, k = rest, k - 2
    out += _B["0"]
    return out


# slots of a float cell: sign, "0." and up to three zeros before the digits
# of 0.000ddd, 17 digits with a point slot after each of the first 16, then
# "e", the exponent's sign and three exponent digits
_LEAD = 1
_DIGIT0 = 6
_EXP = _DIGIT0 + 33
_FLOAT_SLOTS = _EXP + 5
_SPECIAL = ("0.0", "-0.0", "nan", "inf", "-inf")


def _float_cells(columns, quote: bool, used=None) -> np.ndarray:
    """repr of each float64 of ``columns``, taken end to end, as NUL-padded
    slots, one row per slot; ``quote`` spells non-finite values as JSON
    strings.  Every column must have a cell.  A list ``used`` gets, for each
    column in turn, the slots its cells fill, in order.

    One uint64 array holds the values' row and ``_ryu``'s rows; the slots
    returned take the place of rows 4 .. 9 once Ryū is done.  The slots are
    zeroed once; beyond that no pass touches the point slots outside the
    call's least and greatest point, nor the "0." and exponent slots when
    no cell has them, and the pad mask starts at the call's least number
    of digits shown.  Each column's slots come from its extent, a few
    reductions over its cells, not from a pass over the slots.
    """
    n = sum(map(len, columns))
    starts = np.cumsum([0, *map(len, columns[:-1])])
    kernel = np.empty((_SLOTS, n), np.uint64)
    x = kernel[_SLOTS - 1].view(np.float64)
    np.concatenate(columns, out=x, casting="same_kind")
    # what the cells of zeros, nan and inf need, read before the slots
    # overwrite x
    negative = np.signbit(x)
    odd = np.flatnonzero(~np.isfinite(x) | (x == 0))
    y = x[odd]
    digits, decpt = _ryu(x.view(np.uint64), kernel)
    n_d, shown = (row.view(np.int64) for row in kernel[2:4])
    frame = kernel[4:].view(np.uint8).reshape(-1)[:_FLOAT_SLOTS * n]
    frame = frame.reshape(_FLOAT_SLOTS, n)

    # digits of each: with t = floor(bits 1233 / 2^12), t + 1 unless below
    # 10^t; bits, its bit length, from the exponent of the double of
    # digits >> 4, exact below 2^53 (the digits of a finite double are
    # below 10^17; those of zeros, nan and inf are meaningless anyway)
    bits = np.right_shift(digits, _U(4), out=n_d.view(np.uint64))
    np.copyto(shown.view(np.float64), bits, casting="unsafe")
    np.right_shift(shown, 52, out=n_d)  # the biased exponent, or 0
    np.maximum(np.subtract(n_d, 1018, out=n_d), 4, out=n_d)
    np.right_shift(np.multiply(n_d, 1233, out=n_d), 12, out=n_d)
    ten_t = np.take(_P10, n_d, out=shown.view(np.uint64), mode="clip")
    n_d += 1
    n_d -= digits < ten_t
    decpt += n_d  # the double is 0.ddd * 10^decpt
    sci = (decpt < -3) | (decpt > 16)
    lead = ~sci & (decpt <= 0)
    # zeros, nan and inf are templates, whose layout no other slot shows
    sci[odd] = False
    lead[odd] = False
    frame.fill(0)
    np.multiply(negative, _B["-"], out=frame[0])
    if lead.any():  # "0." and the zeros of 0.000ddd
        np.multiply(lead, _B["0"], out=frame[_LEAD])
        np.multiply(lead, _B["."], out=frame[_LEAD + 1])
        for z in range(1, 4):
            np.multiply(lead & (decpt <= -z), _B["0"], out=frame[_LEAD + 1 + z])
    # the digits, then zeros up to the point of ddd00.0
    digits *= np.take(_P10_DOWN, n_d, out=shown.view(np.uint64), mode="clip")
    left = _digits(digits, frame[_DIGIT0:_EXP:2])
    np.maximum(np.add(decpt, 1, out=shown), n_d, out=shown)
    np.copyto(shown, n_d, where=sci)
    shown[odd] = 1
    low = int(shown.min())
    left[low:] *= np.arange(low, 17)[:, None] < shown
    point = digits.view(np.int64)  # digits before ".", free since _digits
    np.minimum(np.subtract(n_d, 1, out=point), 1, out=point)
    np.copyto(point, decpt, where=~sci)
    point[odd] = 0

    # each column's extent: the end of its "0." and zeros, its least and
    # greatest point, and below whether it has a sign, a template, its most
    # digits shown and an exponent of two or three digits
    least = n_d  # free until the exponent
    least.fill(3)
    np.copyto(least, decpt, where=lead)
    lead_end = 3 - np.minimum.reduceat(least, starts)  # 0 without "0."
    least.fill(17)
    np.copyto(least, point, where=point > 0)
    first = np.minimum.reduceat(least, starts)
    last = np.maximum.reduceat(point, starts)
    lo, hi = int(first.min()), int(last.max())
    if lo <= hi:
        np.multiply(np.arange(lo, hi + 1)[:, None] == point, _B["."],
                    out=frame[_DIGIT0 - 1 + 2 * lo:_DIGIT0 + 2 * hi:2])
    exp = hundred = np.logical_or.reduceat(sci, starts)
    if exp.any():  # e, the exponent's sign, and two or three digits
        e10 = np.subtract(decpt, 1, out=n_d)
        np.multiply(sci, _B["e"], out=frame[_EXP])
        frame[_EXP + 1] = sci * np.where(e10 < 0, _B["-"], _B["+"])
        e_abs = np.abs(e10, out=e10).view(np.uint64)
        hundreds = sci & (e_abs >= _U(100))
        hundred = np.logical_or.reduceat(hundreds, starts)
        e_digits = _digits(e_abs, frame[_EXP + 2:])
        e_digits[0] *= hundreds
        e_digits[1:] *= sci

    span = np.zeros(len(columns), np.int64)  # a template's slots 0 .. span - 1
    if odd.size:
        sign = negative[odd]
        kind = np.where(y == 0, sign, np.where(np.isnan(y), 2, 3 + sign))
        spell = [f'"{t}"' if quote and t[-1] in "nf" else t for t in _SPECIAL]
        templates = np.zeros((len(spell), _FLOAT_SLOTS), np.uint8)
        for row, text in zip(templates, spell):
            row[:len(text)] = np.frombuffer(text.encode("ascii"), np.uint8)
        frame[:, odd] = templates[kind].T
        np.maximum.at(span, np.searchsorted(starts, odd, side="right") - 1,
                      np.array([len(t) for t in spell])[kind])
    if used is not None:
        sign = np.logical_or.reduceat(negative, starts) | (span > 0)
        head = np.maximum(span, lead_end)
        wide = np.maximum.reduceat(shown, starts)
        for k in range(len(columns)):
            slots = np.zeros(_FLOAT_SLOTS, bool)
            slots[0] = sign[k]
            slots[1:head[k]] = True
            slots[_DIGIT0:_DIGIT0 + 2 * wide[k]:2] = True
            slots[_DIGIT0 - 1 + 2 * first[k]:_DIGIT0 + 2 * last[k]:2] = True
            slots[_EXP:] = exp[k]
            slots[_EXP + 2] = hundred[k]
            used.append(np.flatnonzero(slots))
    return frame


def _int_cells(x) -> np.ndarray:
    """repr of each int64 in ``x`` as NUL-padded slots, one row per slot: a
    sign slot if some value is negative, and the widest value's digits."""
    bits = np.ascontiguousarray(x, dtype=np.int64).view(np.uint64)
    negative = bits >> _U(63)
    magnitude = np.where(negative == 1, np.negative(bits), bits)  # 2^63 too
    width = int(np.searchsorted(_P10[1:], magnitude.max(), side="right")) + 1
    sign = int(negative.max())
    frame = np.empty((sign + width, len(bits)), np.uint8)
    if sign:
        np.multiply(negative, _B["-"], out=frame[0], casting="unsafe")
    significant = magnitude >= _P10[width - 1:0:-1, None]  # no leading zeros
    _digits(magnitude, frame[sign:])
    frame[sign:-1] *= significant
    return frame


def rows_text(columns, cell_sep: str, row_sep: str, quote: bool) -> str:
    """The rows of ``columns``, float64 and int64 arrays of one length, as
    text: each cell its value's ``repr``, cells joined by ``cell_sep`` and
    rows by ``row_sep``; ``quote`` spells non-finite floats as JSON strings.
    The float64 columns go through one ``_float_cells`` call; every other
    column is read as int64.
    """
    n = len(columns[0])
    if not n:
        return ""
    floats = [k for k, c in enumerate(columns) if c.dtype == np.float64]
    cells = [None if k in floats else _int_cells(c).T for k, c in enumerate(columns)]
    if floats:
        frame = _float_cells([columns[k] for k in floats], quote, used := [])
        for j, k in enumerate(floats):
            cells[k] = frame[:, j * n:(j + 1) * n].T[:, used[j]]
        del frame  # the kernel's array, before the join's buffers
    return _join(cells, cell_sep, row_sep)


def _join(cells, cell_sep: str, row_sep: str) -> str:
    """Rows of cells (per column, one row of slots per cell) as text, the
    NULs dropped."""
    # one row: NULs where each column's slots go, the separators between
    row, at = bytearray(), []
    for k, column in enumerate(cells):
        row += cell_sep.encode("ascii") if k else b""
        at.append(len(row))
        row += bytes(column.shape[1])
    row += row_sep.encode("ascii")
    text = row * len(cells[0])
    rows = np.frombuffer(text, np.uint8).reshape(-1, len(row))
    for column, start in zip(cells, at):
        rows[:, start:start + column.shape[1]] = column
    del rows
    del text[len(text) - len(row_sep):]  # the last row ends without one
    text = text.translate(None, b"\0")  # each copy freed before the next
    return text.decode("ascii")
