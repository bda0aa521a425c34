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

# uint64 rows of the kernel's array: _ryu's nine, then the values
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
    equal = hi == t
    np.take(b_lo, column, out=t, mode="clip")
    equal &= lo < t
    below |= equal
    return below


def _scaled(mv, column, scaling, *, out, work):
    """(vr, remainder) into ``out``: floor(mv T / 2^J) and mv T mod 2^J, the
    remainder as (high, low) words, for mv < 2^55 and T, J from the columns
    ``column`` of ``scaling``; ``work`` is three more arrays like mv.

    mv = m1 2^32 + m0.  Column k of the product sums the low half of
    m0 t_k, the high half of m0 t_(k-1), all of m1 t_(k-1) (m1 < 2^23) and
    the carry c from column k-1, which stays below 2^57; x0 .. x5 are the
    product's 32-bit limbs, and c ends as x5 x4.
    """
    c, x3, lo = out
    t, p, x = work
    np.take(scaling[_T0], column, out=t, mode="clip")
    np.multiply(np.bitwise_and(mv, _LOW32, out=p), t, out=p)  # m0 t0
    np.bitwise_and(p, _LOW32, out=lo)  # x0
    np.right_shift(p, _U(32), out=c)
    c += np.multiply(np.right_shift(mv, _U(32), out=p), t, out=p)
    for row, limb in ((_T1, x), (_T2, x), (_T3, x3)):
        np.take(scaling[row], column, out=t, mode="clip")
        np.multiply(np.bitwise_and(mv, _LOW32, out=p), t, out=p)
        c += np.bitwise_and(p, _LOW32, out=limb)
        np.bitwise_and(c, _LOW32, out=limb)  # x_k
        c >>= _U(32)
        c += np.right_shift(p, _U(32), out=p)
        c += np.multiply(np.right_shift(mv, _U(32), out=p), t, out=p)
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
    set no trailing-zero flag, so every loop below ends for them too.

    Among shortest decimals the one nearest the double wins, ties to even.
    The results, the exponent as an int64 view, are rows 0 and 1 of
    ``kernel`` (uint64, ``_SLOTS`` rows of len(bits)), and rows 2 .. 8 its
    scratch; ``bits`` may be row 9.
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
    # an even mantissa owns its interval's ends
    accept = np.bitwise_and(mv, _U(1), out=t) == 0
    mv <<= _U(2)
    _scaled(mv, column, scaling, out=(vr, rem_hi, rem_lo), work=(t, vp, x))

    # vp and vm: mv + 2 and mv - 1 - wide scaled alike, from vr and the
    # remainder
    np.take(table[_QP], column, out=vp, mode="clip")
    vp += vr
    vp += ~_below(rem_hi, rem_lo, table[_NP_HI], table[_NP_LO], column, t)
    np.subtract(vr, np.take(table[_QM], column, out=vm, mode="clip"), out=vm)
    vm -= _below(rem_hi, rem_lo, table[_RM_HI], table[_RM_LO], column, t)

    # whether the digits dropped below vr and vm are all zero
    vr_tz = np.zeros(n, bool)
    vm_tz = np.zeros(n, bool)
    small = np.flatnonzero(np.take(table[_POW5], column, out=t, mode="clip"))
    if small.size:
        k = small.size
        p5 = np.take(t, small, out=x[:k], mode="clip")
        mvs = np.take(mv, small, out=rem_lo[:k], mode="clip")
        r = rem_hi[:k]
        acc = accept[small]
        by5 = np.remainder(mvs, _U(5), out=r) == 0
        vr_tz[small] = by5 & (np.remainder(mvs, p5, out=r) == 0)
        np.subtract(mvs, _U(1), out=r)
        r -= wide[small]
        vm_tz[small] = ~by5 & acc & (np.remainder(r, p5, out=r) == 0)
        np.add(mvs, _U(2), out=r)
        vp[small] -= ~by5 & ~acc & (np.remainder(r, p5, out=r) == 0)
    tiny = np.take(table[_TINY], column, out=t, mode="clip") == 1
    vr_tz |= tiny
    vm_tz |= tiny & accept & wide
    vp -= tiny & ~accept
    tz_mask = np.take(table[_TZ_MASK], column, out=t, mode="clip")
    vr_tz |= (tz_mask != 0) & (np.bitwise_and(mv, tz_mask, out=x) == 0)

    # drop digits while vp and vm still differ above them
    removed = rem_hi.view(np.int64)
    removed[:] = 0
    a, b = mv, rem_lo
    np.floor_divide(vp, _U(10), out=a)
    np.floor_divide(vm, _U(10), out=b)
    while (more := a > b).any():
        removed += more
        a //= _U(10)
        b //= _U(10)
    vm_f = np.floor_divide(vm, np.take(_P10, removed, out=t, mode="clip"), out=a)
    vm_tz &= np.multiply(vm_f, t, out=b) == vm
    e10 = np.take(table[_E10], column, out=x, mode="clip").view(np.int64)
    below = np.maximum(np.subtract(removed, 1, out=column), 0, out=column)
    vr_b = np.floor_divide(vr, np.take(_P10, below, out=t, mode="clip"), out=vm)
    vr_tz &= np.multiply(vr_b, t, out=b) == vr
    vr_f = np.floor_divide(vr_b, _U(10), out=vr)
    last = np.subtract(vr_b, np.multiply(vr_f, _U(10), out=vp), out=vp)
    kept = removed == 0  # no digit dropped
    np.copyto(vr_f, vr_b, where=kept)
    np.copyto(last, _U(0), where=kept)

    # where vm's dropped digits are all zero, so are its trailing zeros (vm
    # is then a positive integer, so this ends)
    strip = vm_tz & (np.remainder(vm_f, _U(10), out=b) == 0)
    while strip.any():
        vr_tz &= ~strip | (last == 0)
        np.copyto(last, np.remainder(vr_f, _U(10), out=b), where=strip)
        np.floor_divide(vr_f, _U(10), out=vr_f, where=strip)
        np.floor_divide(vm_f, _U(10), out=vm_f, where=strip)
        removed += strip
        strip &= np.remainder(vm_f, _U(10), out=b) == 0

    # exact tie: to even
    np.copyto(last, _U(4), where=vr_tz & (last == 5)
              & (np.bitwise_and(vr_f, _U(1), out=b) == 0))
    vr_f += ((vr_f == vm_f) & ~(accept & vm_tz)) | (last >= 5)
    removed += e10
    return vr_f, removed


def _digits(v, out) -> np.ndarray:
    """ASCII digits of each v < 10^width into the rows of ``out`` (width,
    len(v)), most significant first, zero-padded; v is divided down to 0."""
    ten = np.uint32(10)
    for top in range(len(out), 0, -9):  # 9-digit chunks from the right in uint32
        chunk = (v % _P10[9]).astype(np.uint32)
        v //= _P10[9]
        for k in range(top - 1, max(top - 9, 0) - 1, -1):
            rest = chunk // ten
            np.subtract(chunk, rest * ten, out=out[k], casting="unsafe")
            chunk = rest
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


def _float_cells(columns, quote: bool) -> np.ndarray:
    """repr of each float64 of ``columns``, taken end to end, as NUL-padded
    slots, one row per slot; ``quote`` spells non-finite values as JSON
    strings.

    One uint64 array holds the values' row and ``_ryu``'s rows; the slots
    returned take the place of rows 4 .. 9 once Ryū is done.
    """
    n = sum(map(len, columns))
    kernel = np.empty((_SLOTS, n), np.uint64)
    x = kernel[_SLOTS - 1].view(np.float64)
    np.concatenate(columns, out=x, casting="same_kind")
    # what the cells of zeros, nan and inf need, read before the slots
    # overwrite x
    negative = np.signbit(x)
    odd = np.flatnonzero(~np.isfinite(x) | (x == 0))
    y = x[odd]
    digits, decpt = _ryu(x.view(np.uint64), kernel)
    n_d, scratch = (row.view(np.int64) for row in kernel[2:4])
    frame = kernel[4:].view(np.uint8).reshape(-1)[:_FLOAT_SLOTS * n]
    frame = frame.reshape(_FLOAT_SLOTS, n)

    np.add(np.searchsorted(_P10[1:17], digits, side="right"), 1, out=n_d)
    decpt += n_d  # the double is 0.ddd * 10^decpt
    sci = (decpt < -3) | (decpt > 16)
    frame.fill(0)
    np.multiply(negative, _B["-"], out=frame[0])
    lead = ~sci & (decpt <= 0)
    if lead.any():  # "0." and the zeros of 0.000ddd
        np.multiply(lead, _B["0"], out=frame[_LEAD])
        np.multiply(lead, _B["."], out=frame[_LEAD + 1])
        for z in range(1, 4):
            np.multiply(lead & (decpt <= -z), _B["0"], out=frame[_LEAD + 1 + z])
    # the digits, then zeros up to the point of ddd00.0
    digits *= np.take(_P10_DOWN, n_d, out=scratch.view(np.uint64), mode="clip")
    left = _digits(digits, frame[_DIGIT0:_EXP:2])
    shown = np.maximum(np.add(decpt, 1, out=scratch), n_d, out=scratch)
    np.copyto(shown, n_d, where=sci)
    left *= np.arange(17)[:, None] < shown
    point = np.minimum(np.subtract(n_d, 1, out=scratch), 1, out=scratch)
    np.copyto(point, decpt, where=~sci)  # digits before "."
    np.multiply(np.arange(1, 17)[:, None] == point, _B["."],
                out=frame[_DIGIT0 + 1:_EXP:2])
    if sci.any():  # e, the exponent's sign, and two or three digits
        e10 = np.subtract(decpt, 1, out=scratch)
        np.multiply(sci, _B["e"], out=frame[_EXP])
        frame[_EXP + 1] = sci * np.where(e10 < 0, _B["-"], _B["+"])
        e_abs = np.abs(e10, out=e10).view(np.uint64)
        hundreds = e_abs >= _U(100)
        e_digits = _digits(e_abs, frame[_EXP + 2:])
        e_digits[0] *= hundreds
        e_digits *= sci

    if odd.size:
        sign = negative[odd]
        kind = np.where(y == 0, sign, np.where(np.isnan(y), 2, 3 + sign))
        spell = [f'"{t}"' if quote and t[-1] in "nf" else t for t in _SPECIAL]
        templates = np.zeros((len(spell), _FLOAT_SLOTS), np.uint8)
        for row, text in zip(templates, spell):
            row[:len(text)] = np.frombuffer(text.encode("ascii"), np.uint8)
        frame[:, odd] = templates[kind].T
    return frame


def _int_cells(x) -> np.ndarray:
    """repr of each int64 in ``x`` as NUL-padded slots, one row per slot."""
    bits = np.ascontiguousarray(x, dtype=np.int64).view(np.uint64)
    negative = bits >> _U(63)
    magnitude = np.where(negative == 1, np.negative(bits), bits)  # 2^63 too
    frame = np.empty((20, len(bits)), np.uint8)
    frame[0] = negative.astype(np.uint8) * _B["-"]
    significant = magnitude >= _P10[18:0:-1, None]  # no leading zeros
    _digits(magnitude, frame[1:])
    frame[1:-1] *= significant
    return frame


def rows_text(columns, cell_sep: str, row_sep: str, quote: bool) -> str:
    """The rows of ``columns``, float64 and int64 arrays of one length, as
    text: each cell its value's ``repr``, cells joined by ``cell_sep`` and
    rows by ``row_sep``; ``quote`` spells non-finite floats as JSON strings.
    The float64 columns go through one ``_float_cells`` call; every other
    column is read as int64.
    """
    n = len(columns[0])
    floats = [k for k, c in enumerate(columns) if c.dtype == np.float64]
    frames = [None if k in floats else _int_cells(c) for k, c in enumerate(columns)]
    if floats:
        frame = _float_cells([columns[k] for k in floats], quote)
        for j, k in enumerate(floats):
            frames[k] = frame[:, j * n:(j + 1) * n]
    return _join(frames, cell_sep, row_sep)


def _join(frames, cell_sep: str, row_sep: str) -> str:
    """Rows of cells (one frame of slots by rows per column) as text, the
    NULs dropped."""
    used = [f.any(axis=1) for f in frames]  # slots some cell uses
    cell_sep = np.frombuffer(cell_sep.encode("ascii"), np.uint8)
    row_sep = np.frombuffer(row_sep.encode("ascii"), np.uint8)
    width = (sum(u.sum() for u in used) + len(cell_sep) * (len(frames) - 1)
             + len(row_sep))
    n = frames[0].shape[1]
    text = bytearray(n * width)
    rows = np.frombuffer(text, np.uint8).reshape(n, width)
    at = 0
    for k, (frame, slots) in enumerate(zip(frames, used)):
        if k:
            rows[:, at:at + len(cell_sep)] = cell_sep
            at += len(cell_sep)
        frame = frame[slots]
        rows[:, at:at + len(frame)] = frame.T
        at += len(frame)
    rows[:-1, at:] = row_sep  # the last row ends without one
    del rows
    text = text.translate(None, b"\0")  # each copy freed before the next
    return text.decode("ascii")
