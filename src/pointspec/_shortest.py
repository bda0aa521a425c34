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

Ryū's 128-bit products run on 32-bit limbs held in uint64 arrays.  Every
array in that arithmetic is uint64 and every constant meeting one a
``np.uint64``: numpy promotes uint64 mixed with int64 to float64.  The
per-exponent table of Ryū's constants is built on first use.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_MANTISSA = _U((1 << 52) - 1)
_MAGNITUDE = _U((1 << 63) - 1)
_INF_BITS = _U(0x7FF0000000000000)
_ONE_BITS = _U(0x3FF0000000000000)

# 10^0 .. 10^19, the powers of ten below 2^64
_P10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_B = {c: np.uint8(ord(c)) for c in "0.-+e"}

# rows of the two exponent tables: what ``_scaled`` reads, and the rest
_T0, _T1, _T2, _T3, _SHIFT, _REM_MASK, _HIDDEN_BIT = range(7)
_QP, _NP_HI, _NP_LO, _QM, _RM_HI, _RM_LO, _POW5, _TINY, _TZ_MASK, _E10 = range(10)


@functools.cache
def _exponent_tables() -> tuple[np.ndarray, np.ndarray]:
    """Ryū's constants as uint64 rows, column 2 e + w for the biased exponent
    e of a double and w = 1 unless it is a power of two above 2^-1022.

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
    pow5 = [5**k for k in range(326)]
    columns = []
    low64 = (1 << 64) - 1
    for e in range(2047):
        e2 = max(e, 1) - 1077
        if e2 >= 0:
            q = ((e2 * 78913) >> 18) - (e2 > 3)
            p = pow5[q]
            t = (1 << (p.bit_length() + 124)) // p + 1
            j = q - e2 + 124 + p.bit_length()
            e10 = q
        else:
            q = ((-e2 * 732923) >> 20) - (-e2 > 1)
            p = pow5[-e2 - q]
            t = p >> (p.bit_length() - 125) if p.bit_length() >= 125 else \
                p << (125 - p.bit_length())
            j = q + 125 - p.bit_length()
            e10 = q + e2
        rest_p = (1 << j) - 2 * t % (1 << j)
        for w in (0, 1):
            rem_m = (1 + w) * t % (1 << j)
            columns.append([
                *((t >> (32 * k)) & 0xFFFFFFFF for k in range(4)), j - 96,
                (1 << (j - 64)) - 1, (1 << 52) if e else 0,
                2 * t >> j, rest_p >> 64, rest_p & low64,
                (1 + w) * t >> j, rem_m >> 64, rem_m & low64,
                p if e2 >= 0 and q <= 21 else 0, int(e2 < 0 and q <= 1),
                (1 << q) - 1 if e2 < 0 and 1 < q < 63 else 0, e10 & low64])
    table = np.array(columns, dtype=np.uint64).T
    tables = np.ascontiguousarray(table[:7]), np.ascontiguousarray(table[7:])
    for t in tables:
        t.setflags(write=False)
    return tables


def _below(a_hi, a_lo, b_hi, b_lo):
    """(a_hi, a_lo) < (b_hi, b_lo) as 128-bit numbers."""
    return (a_hi < b_hi) | ((a_hi == b_hi) & (a_lo < b_lo))


def _scaled(mv, tab):
    """(vr, remainder): floor(mv T / 2^J) and mv T mod 2^J, the remainder
    as (high, low) words, for mv < 2^55 and T, J from ``tab``.

    mv = m1 2^32 + m0.  Column k of the product sums the low half of
    m0 t_k, the high half of m0 t_(k-1), all of m1 t_(k-1) (m1 < 2^23) and
    the carry from column k-1, which stays below 2^57; x0 .. x5 are the
    product's 32-bit limbs.
    """
    t0, t1, t2, t3 = tab[_T0:_T3 + 1]
    m0 = mv & _LOW32
    m1 = mv >> _U(32)
    p = m0 * t0
    x0 = p & _LOW32
    c = p >> _U(32)
    c += m1 * t0
    p = m0 * t1
    c += p & _LOW32
    x1 = c & _LOW32
    c >>= _U(32)
    c += p >> _U(32)
    c += m1 * t1
    p = m0 * t2
    c += p & _LOW32
    x2 = c & _LOW32
    c >>= _U(32)
    c += p >> _U(32)
    c += m1 * t2
    p = m0 * t3
    c += p & _LOW32
    x3 = c & _LOW32
    c >>= _U(32)
    c += p >> _U(32)
    c += m1 * t3
    x4 = c & _LOW32
    x5 = c >> _U(32)
    shift = tab[_SHIFT]
    vr = x3 >> shift
    vr |= x4 << (_U(32) - shift)
    vr |= x5 << (_U(64) - shift)
    rem_hi = x3 << _U(32)
    rem_hi |= x2
    rem_hi &= tab[_REM_MASK]
    x1 <<= _U(32)
    x1 |= x0
    return vr, rem_hi, x1


def _ryu(bits):
    """Ryū: (digits, exponent) with digits * 10^exponent the shortest decimal
    that reads back as each positive finite double in ``bits`` (uint64).

    Among shortest decimals the one nearest the double wins, ties to even.
    """
    ieee_exp = (bits >> _U(52)).astype(np.intp)
    mantissa = bits & _MANTISSA
    # vm's end of the interval is half an ulp below, a quarter at the powers
    # of two whose lower neighbour is closer
    wide = (mantissa != 0) | (ieee_exp <= 1)
    column = 2 * ieee_exp + wide
    scaling_table, table = _exponent_tables()
    scaling = np.take(scaling_table, column, axis=1)
    m2 = mantissa | scaling[_HIDDEN_BIT]
    accept = (m2 & _U(1)) == 0  # an even mantissa owns its interval's ends
    mv = m2 << _U(2)
    vr, rem_hi, rem_lo = _scaled(mv, scaling)
    del scaling

    # vp and vm: mv + 2 and mv - 1 - wide scaled alike, from vr and the
    # remainder
    tab = np.take(table, column, axis=1)
    vp = vr + tab[_QP]
    vp += ~_below(rem_hi, rem_lo, tab[_NP_HI], tab[_NP_LO])
    vm = vr - tab[_QM]
    vm -= _below(rem_hi, rem_lo, tab[_RM_HI], tab[_RM_LO])

    # whether the digits dropped below vr and vm are all zero
    vr_tz = np.zeros(len(bits), bool)
    vm_tz = np.zeros(len(bits), bool)
    small = np.flatnonzero(tab[_POW5])
    if small.size:
        p5 = tab[_POW5, small]
        mvs, acc = mv[small], accept[small]
        by5 = mvs % _U(5) == 0
        vr_tz[small] = by5 & (mvs % p5 == 0)
        vm_tz[small] = ~by5 & acc & ((mvs - _U(1) - wide[small]) % p5 == 0)
        vp[small] -= ~by5 & ~acc & ((mvs + _U(2)) % p5 == 0)
    tiny = tab[_TINY] == 1
    vr_tz |= tiny
    vm_tz |= tiny & accept & wide
    vp -= tiny & ~accept
    tz_mask = tab[_TZ_MASK]
    vr_tz |= (tz_mask != 0) & ((mv & tz_mask) == 0)

    # drop digits while vp and vm still differ above them
    removed = np.zeros(len(bits), np.int64)
    a, b = vp, vm
    while True:
        a = a // _U(10)
        b = b // _U(10)
        more = a > b
        if not more.any():
            break
        removed += more
    scale = _P10[removed]
    vm_f = vm // scale
    vm_tz &= vm_f * scale == vm
    below = _P10[np.maximum(removed - 1, 0)]
    vr_b = vr // below
    vr_tz &= vr_b * below == vr
    dropped = removed > 0
    vr_f = np.where(dropped, vr_b // _U(10), vr_b)
    last = np.where(dropped, vr_b - vr_f * _U(10), _U(0))

    # where vm's dropped digits are all zero, so are its trailing zeros (vm
    # is then a positive integer, so this ends)
    strip = vm_tz & (vm_f % _U(10) == 0)
    while strip.any():
        vr_tz &= ~strip | (last == 0)
        last = np.where(strip, vr_f % _U(10), last)
        vr_f = np.where(strip, vr_f // _U(10), vr_f)
        vm_f = np.where(strip, vm_f // _U(10), vm_f)
        removed += strip
        strip &= vm_f % _U(10) == 0

    last[vr_tz & (last == 5) & (vr_f % _U(2) == 0)] = 4  # exact tie: to even
    up = ((vr_f == vm_f) & ~(accept & vm_tz)) | (last >= 5)
    return vr_f + up, tab[_E10].view(np.int64) + removed


def _digits(v, width: int) -> np.ndarray:
    """(width, len(v)) ASCII digits of each v < 10^width, most significant
    first, zero-padded."""
    out = np.empty((width, len(v)), np.uint8)
    ten = np.uint32(10)
    for top in range(width, 0, -9):  # 9-digit chunks from the right in uint32
        chunk = (v % _P10[9]).astype(np.uint32)
        v = v // _P10[9]
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


def _float_cells(x, quote: bool) -> np.ndarray:
    """repr of each float64 in ``x`` as NUL-padded slots, one row per slot;
    ``quote`` spells non-finite values as JSON strings."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    magnitude = bits & _MAGNITUDE
    regular = (magnitude != 0) & (magnitude < _INF_BITS)
    digits, exponent = _ryu(np.where(regular, magnitude, _ONE_BITS))

    n_d = 1 + (digits >= _P10[1:17, None]).sum(axis=0)
    decpt = n_d + exponent  # the double is 0.ddd * 10^decpt
    sci = (decpt < -3) | (decpt > 16)
    frame = np.zeros((_FLOAT_SLOTS, len(bits)), np.uint8)
    frame[0] = (bits >> _U(63)).astype(np.uint8) * _B["-"]
    lead = ~sci & (decpt <= 0)
    if lead.any():  # "0." and the zeros of 0.000ddd
        frame[_LEAD] = lead * _B["0"]
        frame[_LEAD + 1] = lead * _B["."]
        for z in range(1, 4):
            frame[_LEAD + 1 + z] = (lead & (decpt <= -z)) * _B["0"]
    # the digits, then zeros up to the point of ddd00.0
    shown = np.where(sci, n_d, np.maximum(n_d, decpt + 1))
    left = _digits(digits * _P10[17 - n_d], 17)
    frame[_DIGIT0:_EXP:2] = left * (np.arange(17)[:, None] < shown)
    point = np.where(sci, np.where(n_d > 1, 1, 0), decpt)  # digits before "."
    frame[_DIGIT0 + 1:_EXP:2] = (np.arange(1, 17)[:, None] == point) * _B["."]
    if sci.any():  # e, the exponent's sign, and two or three digits
        e10 = decpt - 1
        e_abs = np.abs(e10).astype(np.uint64)
        frame[_EXP] = sci * _B["e"]
        frame[_EXP + 1] = sci * np.where(e10 < 0, _B["-"], _B["+"])
        e_digits = _digits(e_abs, 3)
        e_digits[0] *= e_abs >= _U(100)
        frame[_EXP + 2:] = e_digits * sci

    odd = np.flatnonzero(~regular)
    if odd.size:
        negative = bits[odd] >> _U(63) == 1
        kind = np.where(magnitude[odd] == 0, negative,
                        np.where(magnitude[odd] > _INF_BITS, 2, 3 + negative))
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
    frame[1:] = _digits(magnitude, 19)
    frame[1:-1] *= magnitude >= _P10[18:0:-1, None]  # no leading zeros
    return frame


def rows_text(columns, cell_sep: str, row_sep: str, quote: bool, texts) -> str:
    """The rows of ``columns``, 1-D arrays of one length, as text: cells
    joined by ``cell_sep`` and rows by ``row_sep``.

    float64 and int64 columns come out as their values' ``repr``; ``quote``
    spells non-finite floats as JSON strings.  Any other column takes its
    cells' texts from ``texts(column, quote)``.
    """
    frames = []
    for column in columns:
        if column.dtype == np.float64:
            frames.append(_float_cells(column, quote))
        elif column.dtype == np.int64:
            frames.append(_int_cells(column))
        else:
            cells = np.array(list(texts(column, quote)), dtype=bytes)
            frames.append(cells.view(np.uint8).reshape(len(cells), -1).T)
    return _join(frames, cell_sep, row_sep)


def _join(frames, cell_sep: str, row_sep: str) -> str:
    """Rows of cells (one frame of slots by rows per column) as text, the
    NULs dropped."""
    frames = [f[f.any(axis=1)] for f in frames]  # slots some cell uses
    cell_sep = np.frombuffer(cell_sep.encode("ascii"), np.uint8)
    row_sep = np.frombuffer(row_sep.encode("ascii"), np.uint8)
    width = (sum(map(len, frames)) + len(cell_sep) * (len(frames) - 1)
             + len(row_sep))
    rows = np.empty((frames[0].shape[1], width), np.uint8)
    at = 0
    for k, frame in enumerate(frames):
        if k:
            rows[:, at:at + len(cell_sep)] = cell_sep
            at += len(cell_sep)
        rows[:, at:at + len(frame)] = frame.T
        at += len(frame)
    rows[:, at:] = row_sep
    text = rows[rows != 0]
    del rows
    return str(text[:len(text) - len(row_sep)], "ascii")
