"""Exact 2x2 transfer-matrix algebra for point-interaction systems.

Boundary vectors are plain length-2 arrays holding the right limits
``(psi(x_n+), psi'(x_n+))``.  Matrices are 2x2 ndarrays: real for free
propagation and jumps, complex on the diagonalized path.  Propagation here is
exact and unrenormalized; explosive growth belongs to the log-domain code in
``growth`` and an overflowing step raises instead of silently saturating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import DELTA, DELTA_PRIME, KINDS, SystemSpec, _check_lambda

DIRICHLET_START = (0.0, 1.0)  # psi(0) = 0 normalization


def _cell(lam: float, d, kind: str | None = None, alpha=None) -> tuple:
    """Entries (m00, m01, m10, m11) of one cell's matrix, elementwise over d.

    The cell is free propagation over a gap d, followed, when ``kind`` is
    given, by the jump of strength ``alpha``.  Every matrix and flow of this
    module reads its entries here, so each cell has one formula and one
    rounding.  A gap past double range gives NaN entries.
    """
    _check_lambda(lam)
    rt = math.sqrt(lam)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = d * rt
        c, s = np.cos(phase), np.sin(phase)
        f00, f01, f10, f11 = c, s / rt, -rt * s, c
        if kind == DELTA:  # jump [[1, 0], [a, 1]]
            return f00, f01, alpha * f00 + f10, alpha * f01 + f11
        if kind == DELTA_PRIME:  # jump [[1, a], [0, 1]]
            return f00 + alpha * f10, f01 + alpha * f11, f10, f11
    return f00, f01, f10, f11


def fundamental_matrix(lam: float, d: float) -> np.ndarray:
    """Propagator of (psi, psi') across a free interval of length d."""
    return np.reshape(_cell(lam, d), (2, 2))


def jump_matrix(kind: str, alpha: float) -> np.ndarray:
    """Interface matrix across one point interaction."""
    if kind == DELTA:
        return np.array([[1.0, 0.0], [alpha, 1.0]])
    if kind == DELTA_PRIME:
        return np.array([[1.0, alpha], [0.0, 1.0]])
    raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def step_matrix(system: SystemSpec, lam: float, n: int) -> np.ndarray:
    """One-cell transfer matrix: jump at x_n times free propagation over gap n-1."""
    _check_lambda(lam)
    if n < 1:
        raise IndexError("step index must be >= 1")
    g = system.lattice.gap(n - 1)
    if not math.isfinite(g):
        raise OverflowError(
            f"gap {n - 1} is not representable in double precision; "
            "use the log-domain growth routines instead")
    alpha = float(system.strengths.alphas(n, n)[0])
    return np.reshape(_cell(lam, g, system.kind, alpha), (2, 2))


class PropagationOverflow(OverflowError):
    """Step ``n`` left double range; ``vectors`` holds xi_0 .. xi_{n-1}."""

    def __init__(self, n: int, vectors: np.ndarray):
        super().__init__(f"propagation overflowed at step n={n}")
        self.n = n
        self.vectors = vectors


def propagate(system: SystemSpec, lam: float, xi0=DIRICHLET_START,
              n_max: int = 0) -> np.ndarray:
    """Boundary vectors xi_0 .. xi_{n_max} from a real, finite, nonzero xi0, shape (n_max+1, 2).

    Step n is step_matrix(system, lam, n), whose entries for all steps come
    from one gaps and one alphas evaluation (which refuses an alpha_n past
    double range).  No per-step renormalization is applied; a vector leaving
    double range (an infinite gap included) raises PropagationOverflow.
    """
    _check_lambda(lam)
    xi0 = np.asarray(xi0)
    if xi0.shape != (2,):
        raise ValueError("initial boundary vector must have two components")
    if np.iscomplexobj(xi0):
        raise ValueError("initial boundary vector must be real")
    if not np.any(xi0 != 0):
        raise ValueError("initial boundary vector must be nonzero")
    rows = [tuple(xi0.astype(float).tolist())]
    if not all(map(math.isfinite, rows[0])):
        raise ValueError("initial boundary vector must be finite")
    if n_max > 0:
        a = system.strengths.alphas(1, n_max)
        m = _cell(lam, system.lattice.gaps(0, n_max - 1), system.kind, a)
        v0, v1 = rows[0]
        for n, (m00, m01, m10, m11) in enumerate(zip(*(e.tolist() for e in m)), 1):
            v0, v1 = m00 * v0 + m01 * v1, m10 * v0 + m11 * v1
            if not (math.isfinite(v0) and math.isfinite(v1)):
                raise PropagationOverflow(n, np.array(rows))
            rows.append((v0, v1))
    return np.array(rows)


def free_flow(lam: float, d, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(psi, psi') of fundamental_matrix(lam, d[i]) @ vecs[i] for every row i."""
    m00, m01, m10, m11 = _cell(lam, d)
    return m00 * vecs[:, 0] + m01 * vecs[:, 1], m10 * vecs[:, 0] + m11 * vecs[:, 1]


def _log_norm(psi: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    """ln hypot(psi, dpsi), -inf at (0, 0) and finite wherever psi and dpsi
    are: where only the norm passes double range, halve both and add ln 2."""
    with np.errstate(over="ignore", divide="ignore"):
        norm = np.hypot(psi, dpsi)
        big = np.isinf(norm) & np.isfinite(psi) & np.isfinite(dpsi)
        norm[big] = np.hypot(psi[big] / 2.0, dpsi[big] / 2.0)
        return np.log(norm) + np.where(big, math.log(2.0), 0.0)


def diagonalizer(lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Basis change (U, U_inv) that diagonalizes free propagation.

    In the new coordinates the free step becomes diag(e^{i d sqrt(lam)},
    e^{-i d sqrt(lam)}).
    """
    _check_lambda(lam)
    rt = math.sqrt(lam)
    u = np.array([[1.0, 1.0], [1j * rt, -1j * rt]])
    u_inv = np.array([[0.5, -0.5j / rt], [0.5, 0.5j / rt]])
    return u, u_inv


def inverse_step_diagonalized(kind: str, lam: float, dx: float,
                              alpha: float) -> np.ndarray:
    """Closed-form inverse of one step matrix in diagonalized coordinates."""
    _check_lambda(lam)
    rt = math.sqrt(lam)
    phase = np.array([[np.exp(-1j * rt * dx), 0.0], [0.0, np.exp(1j * rt * dx)]])
    if kind == DELTA:
        nil = np.array([[1.0, 1.0], [-1.0, -1.0]])
        coupling = np.eye(2) + (1j * alpha / (2.0 * rt)) * nil
    elif kind == DELTA_PRIME:
        nil = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        coupling = np.eye(2) + (1j * alpha * rt / 2.0) * nil
    else:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return phase @ coupling


def operator_norm(m: np.ndarray) -> float:
    """Spectral norm of a 2x2 matrix, closed form from the Gram invariants.

    Uses the exact rearrangements of trace(m* m) +- 2|det m| into sums of
    squared moduli, which stay accurate when both singular values coincide
    (the naive discriminant loses half the digits there).
    """
    m = np.asarray(m, dtype=complex)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if det != 0:
        m = m * np.exp(-0.5j * np.angle(det))
    a, b = m[0]
    c, d = m[1]
    plus = math.sqrt(abs(a + np.conj(d)) ** 2 + abs(b - np.conj(c)) ** 2)
    minus = math.sqrt(abs(a - np.conj(d)) ** 2 + abs(b + np.conj(c)) ** 2)
    return (plus + minus) / 2.0


@dataclass(frozen=True)
class SolutionSample:
    """Rows (n, x, psi(x), psi'(x)): n is the lattice index of the interval a
    row lies in, and a lattice row holds the right limits at x_n."""

    n: np.ndarray
    x: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray


def sample_solution(system: SystemSpec, lam: float, xi0=DIRICHLET_START,
                    n_max: int = 0, dense_per_interval: int = 0) -> SolutionSample:
    """The solution at x_0 .. x_{n_max} and at ``dense_per_interval`` evenly
    spaced points inside each interval, in order of x.

    Lattice rows are the vectors of ``propagate(system, lam, xi0, n_max)``;
    a dense row is the free flow of its interval's lattice row, so rows
    inherit the interface conditions of the system's kind exactly.  The rows
    end before the first whose x, psi or psi' is not finite, so there are
    fewer than ``n_max * (dense_per_interval + 1) + 1`` of them exactly when
    the solution left double range.
    """
    if dense_per_interval < 0:
        raise ValueError("dense_per_interval must be >= 0")
    try:
        vecs = propagate(system, lam, xi0, n_max)
    except PropagationOverflow as exc:  # its rows before the step
        vecs = exc.vectors
    xs = system.lattice.positions(len(vecs) - 1)
    # each interval's rows: its left lattice point, then the free flow of its
    # vector at the dense points
    step = dense_per_interval + 1
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.append(np.linspace(xs[:-1], xs[1:], step + 1, axis=1)[:, :-1], xs[-1])
        n = np.arange(len(x), dtype=np.int64) // step
        psi, dpsi = free_flow(lam, x - xs[n], vecs[n])
    x[::step], psi[::step], dpsi[::step] = xs, *vecs.T
    finite = np.isfinite(x) & np.isfinite(psi) & np.isfinite(dpsi)
    end = len(x) if finite.all() else int(np.argmin(finite))
    return SolutionSample(n[:end], x[:end], psi[:end], dpsi[:end])
