"""The FD oracle's reference definition: its matrix and LAPACK's count.

``fd_oracle_eigenvalues`` never assembles its matrix; it counts pivots run by
run.  These two functions are the definition it is tested against: the
mass-scaled tridiagonal matrix, node by node as the scheme states it, and
the pivot count of LAPACK's bisection (dstebz) on that matrix.
"""

import math

import numpy as np

from pointspec.lattice import DELTA_PRIME, SystemSpec


def _sturm_count(d: np.ndarray, e: np.ndarray, x: float) -> int:
    """Eigenvalues <= x of the symmetric tridiagonal (d, e), as LAPACK counts.

    Counts the nonpositive pivots of the LDL^T factorization of T - x I, the
    way dstebz does: an off-diagonal with e_j^2 < |d_j d_(j+1)| ulp^2 +
    safmin splits the matrix, and a pivot smaller in magnitude than
    pivmin = safmin * max(1, max kept e_j^2) counts as negative.
    """
    ulp2, safmin = np.finfo(float).eps ** 2, np.finfo(float).tiny
    e2 = e * e
    e2[np.abs(d[:-1] * d[1:]) * ulp2 + safmin > e2] = 0.0
    pivmin = safmin * float(np.max(e2, initial=1.0))
    count, pivot = 0, 1.0
    for dj, ej2 in zip(d.tolist(), [0.0, *e2.tolist()]):
        pivot = dj - ej2 / pivot - x
        if abs(pivot) < pivmin:
            pivot = -pivmin
        if pivot <= 0.0:
            count += 1
    return count


def _fd_tridiagonal(system: SystemSpec, n_max: int,
                    h: float) -> tuple[np.ndarray, np.ndarray]:
    """Mass-scaled diagonal and off-diagonal of the FD truncation matrix."""
    if not h > 0:
        raise ValueError("need positive mesh size")
    length = system.lattice.position(n_max)
    if not math.isfinite(length):
        raise OverflowError("truncation endpoint beyond double range")
    m = int(round(length / h))
    if m < 4:
        raise ValueError("mesh too coarse for the truncation length")
    if m > 2 * 10**5:
        raise ValueError(f"mesh of {m} nodes exceeds the manageable limit")

    xs = system.lattice.positions(n_max)[1:]
    nodes = np.rint(xs / h)
    if len(np.unique(nodes)) != len(nodes) or np.any(nodes <= 0):
        raise ValueError("lattice points collide on the mesh; refine h")

    inner = nodes < m  # at node m psi or psi' vanishes: the interaction is inert
    j, a = nodes[inner].astype(int) - 1, system.strengths.alphas(1, n_max)[inner]
    delta_prime = system.kind == DELTA_PRIME
    size = m if delta_prime else m - 1  # node m is an unknown under Neumann
    d, mass, e = np.full(size, 2.0 / h), np.full(size, h), np.full(size - 1, -1.0 / h)
    if not delta_prime:
        d[j] += a
    else:  # an interacting node splits into two unknowns coupled by -1/alpha
        d[-1], mass[-1] = 1.0 / h, h / 2.0
        j, a = j[np.abs(a) > 1e-12], a[np.abs(a) > 1e-12]
        d[j], mass[j] = 1.0 / h + 1.0 / a, h / 2.0
        d, mass = np.insert(d, j, d[j]), np.insert(mass, j, mass[j])
        e = np.insert(e, j, -1.0 / a)
    scale = 1.0 / np.sqrt(mass)
    return d * scale * scale, e * scale[:-1] * scale[1:]
