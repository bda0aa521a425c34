"""The shooting count's reference definitions: Prufer angle steps, in doubles
and in mpmath.

``spectrum._count_below`` follows cot(phi) through one Moebius map per cell.
``angle_count_below`` is the angle stepping it replaced, kept unchanged as
the definition it is tested against: per cell, whole half-turns from
``divmod`` and the interaction through ``arctan2``.  ``mp_count_below`` steps
the same lifted angle in mpmath, from the exact values of the same double
gaps, strengths and energy, so its count is the exact count of the
truncation those doubles describe, and its end angle that truncation's.
"""

import math

import mpmath
import numpy as np

from pointspec.lattice import DELTA, SystemSpec


def angle_count_below(system: SystemSpec, n_max: int, lams) -> np.ndarray:
    """Eigenvalues at or below each energy of the truncation to [0, x_N].

    Steps the Prufer angle phi of (sqrt(lam) psi, psi') for all energies at
    once; for delta-prime it follows psi', on which each interaction acts as
    a delta of strength -lam alpha.  Whole half-turns go into the count and
    phi stays in [0, pi).
    """
    rt = np.sqrt(np.asarray(lams, dtype=float))
    beta = 1.0 / rt if system.kind == DELTA else -rt
    phi = np.full(rt.shape, 0.0 if system.kind == DELTA else 0.5 * math.pi)
    count = np.zeros(rt.shape, dtype=np.int64)
    gaps = system.lattice.gaps(0, n_max - 1).tolist()
    alphas = system.strengths.alphas(1, n_max).tolist()
    for n, (g, a) in enumerate(zip(gaps, alphas), 1):
        turns, phi = np.divmod(phi + g * rt, math.pi)
        count += turns.astype(np.int64)
        if n < n_max:  # the interaction at x_N is inert under the closure
            s = np.sin(phi)
            phi = np.arctan2(s, np.cos(phi) + a * beta * s)
    return count


def mp_count_below(system: SystemSpec, n_max: int, lam: float,
                   dps: int = 60) -> tuple[int, mpmath.mpf]:
    """The count at one energy from the lifted Prufer angle in ``dps`` digits,
    and that angle at x_N."""
    gaps = system.lattice.gaps(0, n_max - 1).tolist()
    alphas = system.strengths.alphas(1, n_max).tolist()
    with mpmath.workdps(dps):
        rt = mpmath.sqrt(mpmath.mpf(lam))
        beta = 1 / rt if system.kind == DELTA else -rt
        pi = mpmath.pi
        phi = mpmath.mpf(0) if system.kind == DELTA else pi / 2
        for n, (g, a) in enumerate(zip(gaps, alphas), 1):
            phi += mpmath.mpf(g) * rt
            if n < n_max:
                turns = mpmath.floor(phi / pi)
                rest = phi - turns * pi  # in [0, pi): cot(rest) + kick keeps the sheet
                if rest != 0:
                    u = mpmath.cot(rest) + mpmath.mpf(a) * beta
                    phi = turns * pi + mpmath.acot(u) % pi
        return int(mpmath.floor(phi / pi)), phi
