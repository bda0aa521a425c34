"""The numpy kernel's reference constants: every column of Ryū's table at once.

``_shortest`` fills its table a column at a time, only where a call reads
it.  This builder is the definition those columns are tested against: all
2 048 biased exponents, each with w = 0 and w = 1, in one pass.
"""

import numpy as np


def exponent_tables() -> np.ndarray:
    """Ryū's constants as uint64 rows, column 2 e + w for the biased exponent
    e of a double and w = 1 unless it is a power of two above 2^-1022; the
    rows are those of ``_shortest._COLUMNS``.

    A double m2 * 2^e2 scales mv = 4 m2 by T / 2^J: T is 2^(bits(5^q) + 124)
    / 5^q rounded up for e2 >= 0 (e10 = q), the top 125 bits of 5^(-e2 - q)
    for e2 < 0 (e10 = q + e2), and J = 96 + shift, 118 <= J <= 125.
    """
    pow5 = [5**k for k in range(326)]
    columns = []
    low64 = (1 << 64) - 1
    for e in range(2048):
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
    return np.array(columns, dtype=np.uint64).T
