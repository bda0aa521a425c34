"""Spectral conclusions: interval classification, point-spectrum exclusion,
comparison-operator eigenvalues, a shooting eigensolver on truncations, and
an independent finite-difference oracle.

The classifier turns finite-window evidence into the interval structure of
the underlying theory.  It never overclaims: liminf quantities come with the
window and trend that produced them, divergence is flagged only by an
explicit monotone-tail heuristic, and unmet preconditions degrade the verdict
to ``no_conclusion`` instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .growth import _verdict_from_scan
from .lattice import (_TREND_LEN, DELTA, DELTA_PRIME, SystemSpec,
                      ThresholdEstimate, WindowScan, _check_window, _tail_trend,
                      _threshold_from_scan, window_scan)
from .transfer import DIRICHLET_START, propagate

CASE_I_DELTA = "case_i_delta"
CASE_I_DELTA_PRIME = "case_i_delta_prime"
CASE_II = "case_ii"
NO_CONCLUSION = "no_conclusion"

# a _count_below call pays ~10 ufunc dispatches per lattice step, as much
# as its arithmetic on ~100-200 energies costs; strides of 8-64 measure
# alike, and so do deeper trees for a few brackets
_GRID_STRIDE = 16  # grid points per coarse cell
_TREE_LEVELS = 4  # most bisection steps per count call: 15 midpoints per bracket
_CALL_ENERGIES = 512  # most midpoints a count call of more than one level takes


@dataclass(frozen=True)
class Interval:
    """Real interval with endpoint openness flags; supports [a, inf)."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True
    is_empty: bool = False

    @classmethod
    def closed(cls, lo: float, hi: float) -> "Interval":
        return cls(lo, hi, True, True)

    @classmethod
    def closed_ray(cls, lo: float) -> "Interval":
        return cls(lo, math.inf, True, False)

    @classmethod
    def right_open(cls, lo: float, hi: float) -> "Interval":
        return cls(lo, hi, True, False)

    @classmethod
    def empty(cls) -> "Interval":
        return cls(math.nan, math.nan, False, False, True)

    def __str__(self) -> str:
        if self.is_empty:
            return "empty"
        def fmt(v):
            return "inf" if math.isinf(v) else format(v, ".12g")
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{fmt(self.lo)},{fmt(self.hi)}{right}"


HALF_LINE = Interval.right_open(0.0, math.inf)


@dataclass(frozen=True)
class SpectralClassification:
    """Interval-valued spectral verdict for one system.

    Interval fields are populated only as supported by the matched case;
    ``None`` means the analysis says nothing about that piece.  ``caveats``
    list every heuristic (windows, thresholds, margins) behind the verdict.
    """

    case: str
    threshold: ThresholdEstimate
    pp_window: Interval | None = None
    sc_contains: Interval | None = None
    sc_within: Interval | None = None
    ac: str = "unknown"
    essential: Interval | None = None
    negative_axis: str = "unknown"
    caveats: tuple[str, ...] = ()
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ClassifyConfig:
    """Heuristic knobs behind the classification; all echoed into output.

    ``divergence_threshold`` is the classifier's cutoff for treating a
    monotonically increasing ratio tail as divergent.  Desk-scale windows
    reach ratios of order 1e3 at best, so this default is deliberately far
    below the raw estimator default of 1e6.
    """

    divergence_threshold: float = 500.0
    zero_threshold: float = 1e-8
    sparseness_threshold: float = 100.0
    strength_threshold: float = 10.0
    margin: float = 0.05


def _precondition_report(w: WindowScan, config: ClassifyConfig) -> dict:
    tail_len = max(2, min(len(w.log_sparse), _TREND_LEN))
    sparse_trend = _tail_trend(w.log_sparse, tail_len)
    last_sparse = float(np.exp(min(w.log_sparse[-1], 700.0)))
    sparse_ok = (sparse_trend == "increasing"
                 and last_sparse > config.sparseness_threshold)
    abs_tail_trend = _tail_trend(w.abs_alphas, tail_len)
    last_abs = float(w.abs_alphas[-1])
    strength_ok = (abs_tail_trend == "increasing"
                   and last_abs > config.strength_threshold)
    return {
        "sparseness_ok": sparse_ok,
        "sparseness_trend": sparse_trend,
        "last_sparseness_ratio": last_sparse,
        "strength_ok": strength_ok,
        "strength_trend": abs_tail_trend,
        "last_abs_strength": last_abs,
        "all_strengths_positive": w.all_positive,
    }


def classify(system: SystemSpec, window: tuple[int, int] = (100, 10**6),
             lambda0_grid=None,
             config: ClassifyConfig = ClassifyConfig()) -> SpectralClassification:
    """Classify the spectrum of a sparse point-interaction system.

    Dispatch on the windowed threshold estimate: a divergent ratio tail with
    positive strengths gives the purely-singular-continuous verdict on the
    half-line; a finite positive estimate ``a`` gives the split verdict with
    boundary at 1/a (delta) or a (delta-prime); anything else degrades to
    ``no_conclusion`` with diagnostics.  An optional grid of probe energies
    cross-checks the point-spectrum window against the exclusion test.
    """
    _check_window(*window)
    grid = None if lambda0_grid is None else [float(g) for g in lambda0_grid]
    w = window_scan(system, *window, grid or ())
    est = _threshold_from_scan(w, config.divergence_threshold)
    pre = _precondition_report(w, config)
    caveats = [
        f"liminf threshold estimated from finite window {list(window)}",
        f"divergence flag requires increasing tail with last ratio > "
        f"{config.divergence_threshold:g}",
    ]
    if est.trend == "decreasing":
        caveats.append("ratio tail decreasing: windowed minimum may still "
                       "overestimate the liminf")

    diagnostics = dict(pre)
    positive = pre["all_strengths_positive"]
    preconditions = pre["sparseness_ok"] and pre["strength_ok"]
    essential = HALF_LINE if preconditions else None
    negative_axis = "excluded_by_positivity" if positive else "unknown"

    case = NO_CONCLUSION
    pp_window = sc_contains = sc_within = None
    if not preconditions:
        failed = [name for name, ok in
                  [("sparseness", pre["sparseness_ok"]),
                   ("strength growth", pre["strength_ok"])] if not ok]
        caveats.append("preconditions not verified: " + ", ".join(failed))
    elif est.diverging and positive:
        case = CASE_II
        pp_window, sc_contains, sc_within = Interval.empty(), HALF_LINE, HALF_LINE
    elif est.diverging:
        caveats.append("threshold ratios diverge but some strengths are "
                       "nonpositive; the pure verdict needs positivity")
    elif est.value > config.zero_threshold:
        a = est.value
        if system.kind == DELTA:
            case = CASE_I_DELTA
            pp_window = Interval.closed(0.0, 1.0 / a)
            sc_contains = Interval.closed_ray(1.0 / a)
        else:
            case = CASE_I_DELTA_PRIME
            pp_window = Interval.closed_ray(a)
            sc_contains = Interval.closed(0.0, a)
        sc_within = HALF_LINE
    else:
        caveats.append("threshold estimate is numerically zero; "
                       "the zero-liminf regime is not covered")
    ac = "unknown"
    if case != NO_CONCLUSION:  # both theorems leave no ac spectrum
        ac = "empty"
        caveats.append("absence of absolutely continuous spectrum is a "
                       "theorem-level label, not numerically certified")

    if grid is not None:
        # a divergent series at g excludes eigenvalues >= g for delta, <= g for delta'
        verdicts = ["excluded" if _verdict_from_scan(w, k, config.margin).verdict == "diverges"
                    else "inconclusive" for k in range(len(grid))]
        excluded_at = [g for g, v in zip(grid, verdicts) if v == "excluded"]
        diagnostics["lambda0_grid"] = grid
        diagnostics["exclusion_verdicts"] = verdicts
        if system.kind == DELTA:
            diagnostics["pp_upper_from_exclusions"] = (
                min(excluded_at) if excluded_at else None)
        else:
            diagnostics["pp_lower_from_exclusions"] = (
                max(excluded_at) if excluded_at else None)

    return SpectralClassification(
        case=case, threshold=est, pp_window=pp_window, sc_contains=sc_contains,
        sc_within=sc_within, ac=ac, essential=essential,
        negative_axis=negative_axis, caveats=tuple(caveats),
        diagnostics=diagnostics)


@dataclass(frozen=True)
class EigenvalueList:
    """Ascending eigenvalues; residuals/bracket widths when a solver made them.

    ``suspected_missed`` counts the roots a solver knows are in its range but
    could not separate (closer than its tolerance); ``warning`` flags any.
    """

    values: np.ndarray
    residuals: np.ndarray | None = None
    bracket_widths: np.ndarray | None = None
    suspected_missed: int = 0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if len(vals) > 1 and np.any(np.diff(vals) <= 0):
            raise ValueError("eigenvalues must be strictly ascending")
        object.__setattr__(self, "values", vals)

    @property
    def warning(self) -> bool:
        return self.suspected_missed > 0

    def __len__(self) -> int:
        return len(self.values)


def dirichlet_eigenvalues(length: float, k_max: int) -> EigenvalueList:
    """(pi k / length)^2 for k = 1..k_max."""
    if not length > 0:
        raise ValueError("interval length must be positive")
    ks = np.arange(1, k_max + 1, dtype=float)
    return EigenvalueList(values=(math.pi * ks / length) ** 2)


def box_eigenvalue_above(s: float, gap):
    """Smallest Dirichlet eigenvalue of a box of the given length that is >= s.

    Equals (pi * ceil(sqrt(s) * gap / pi) / gap)^2, elementwise for an array
    of gaps.  The ceiling is guarded against float jitter when its argument
    sits essentially on an integer.
    """
    gap = np.asarray(gap, dtype=float)
    if not (s > 0 and np.all(gap > 0)):
        raise ValueError("s and gap must be positive")
    y = math.sqrt(s) * gap / math.pi
    k = np.round(y)
    k = np.where(np.abs(y - k) < 1e-9, k, np.ceil(y))
    vals = (math.pi * k / gap) ** 2
    return float(vals) if vals.ndim == 0 else vals


@dataclass(frozen=True)
class ProbeEntry:
    """Comparison-box eigenvalues nearest a target energy, per gap index."""

    s: float
    n: np.ndarray
    values: np.ndarray
    gaps_to_s: np.ndarray
    bounds: np.ndarray


@dataclass(frozen=True)
class ProbeReport:
    entries: tuple[ProbeEntry, ...]


def essential_spectrum_probe(system: SystemSpec, s_values,
                             n_max: int) -> ProbeReport:
    """Show comparison-box eigenvalues accumulating at each target energy.

    For each s the report lists, over gap indices 1..n_max, the smallest box
    eigenvalue above s, its distance to s, and the one-ceiling-step bound
    (pi/gap) * (2 sqrt(s) + pi/gap) that controls that distance.
    """
    ns = np.arange(1, n_max + 1)
    g = system.lattice.gaps(1, n_max)
    if not np.all(np.isfinite(g)):
        n = int(ns[np.argmin(np.isfinite(g))])
        raise OverflowError(f"gap {n} not representable; probe needs "
                            "double-precision gaps")
    entries = []
    for s in s_values:
        vals = box_eigenvalue_above(s, g)
        entries.append(ProbeEntry(
            s=float(s), n=ns.copy(), values=vals, gaps_to_s=vals - s,
            bounds=(math.pi / g) * (2.0 * math.sqrt(s) + math.pi / g)))
    return ProbeReport(entries=tuple(entries))


def _count_below(system: SystemSpec, n_max: int, lams) -> np.ndarray:
    """Eigenvalues at or below each energy of the truncation to [0, x_N].

    Steps the Prufer angle phi of (sqrt(lam) psi, psi') for all energies at
    once; for delta-prime it follows psi', on which each interaction acts as
    a delta of strength -lam alpha.  Whole half-turns go into the count and
    phi stays in [0, pi).  By oscillation theory the delta count is every
    eigenvalue <= lam, negative ones included, and the delta-prime count
    every positive one; differences between energies are exact for both.
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


def _bisect_tree(system: SystemSpec, n_max: int, js: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Several bisection steps of every bracket from one count call.

    Halves every sub-bracket of each bracket ``levels`` times, each midpoint
    formed as 0.5 * (a + b) from its own sub-bracket, and counts all the
    midpoints in one call.  ``levels`` is ``_TREE_LEVELS`` while the trees
    fit in ``_CALL_ENERGIES`` midpoints and shrinks as the brackets grow
    in number, down to one step per call: there a deeper tree would
    multiply the energies that one-at-a-time bisection counts.  Each root
    then walks down its tree under the same stopping test as before every
    step: the brackets are those of one-at-a-time bisection, bit for bit.
    """
    levels = max(1, min(_TREE_LEVELS, int(np.log2(_CALL_ENERGIES / len(js) + 1))))
    edges = np.stack([lo, hi], axis=1)
    for _ in range(levels):
        finer = np.empty((len(js), 2 * edges.shape[1] - 1))
        finer[:, ::2] = edges
        finer[:, 1::2] = 0.5 * (edges[:, :-1] + edges[:, 1:])
        edges = finer
    mids = edges[:, 1:-1]  # ascending; the tree's root sits in the middle
    left_of = _count_below(system, n_max, mids.ravel()).reshape(mids.shape) >= js[:, None]
    rows, at = np.arange(len(js)), np.full(len(js), -1)  # mids[at]: left edge (-1: lo)
    live = True  # every bracket passed in is live
    for level in range(levels - 1, -1, -1):
        at += 2**level  # each sub-bracket's midpoint
        mid, left = mids[rows, at], left_of[rows, at]
        hi = np.where(live & left, mid, hi)
        lo = np.where(live & ~left, mid, lo)
        at -= 2**level * left  # roots left of it keep their left edge
        if level:
            live = hi - lo > np.maximum(tol, np.spacing(hi))
    return lo, hi


def truncated_eigenvalues(system: SystemSpec, n_max: int,
                          lam_range: tuple[float, float],
                          grid_resolution: int = 2000,
                          tol: float = 1e-10) -> EigenvalueList:
    """Shooting eigenvalues of the truncation to [0, x_N].

    The closure is Dirichlet at x_N for delta systems and Neumann for
    delta-prime systems.  An exact eigenvalue count (``_count_below``) on a
    uniform grid of ``grid_resolution`` cells puts each root in the cell
    where the count passes it.  The count is taken at every
    ``_GRID_STRIDE``-th grid point first, then at the inner points of the
    coarse cells where it rises.  All roots are then bisected together on
    the count until their brackets are no wider than ``tol`` (or than the
    gap between adjacent doubles); each count call serves several bisection
    steps through a tree of midpoints, the more the fewer brackets are
    live.  Roots and brackets equal those of a full-grid count and
    one-midpoint-per-step bisection, as long as the count does not decrease
    along the grid, which oscillation theory gives while the cell phases
    ``sqrt(lam) * gap`` keep their digits (not so for factorial truncations
    past n ~ 18).  Roots closer than ``tol`` share a bracket and are
    reported once; ``suspected_missed`` is the exact number of roots in the
    range that the list lacks.  More roots than grid cells raise.
    """
    lam_lo, lam_hi = lam_range
    if not (0 < lam_lo < lam_hi):
        raise ValueError("energy range must satisfy 0 < lo < hi")
    if grid_resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    x_end = system.lattice.position(n_max)
    if not math.isfinite(x_end):
        raise OverflowError("truncation endpoint beyond double range")
    if math.sqrt(lam_hi) * x_end / math.pi + n_max > 2.0**53:  # bounds the count
        raise ValueError("eigenvalue count passes 2^53, beyond exact doubles")
    grid = np.linspace(lam_lo, lam_hi, grid_resolution + 1)
    coarse = np.r_[0:grid_resolution:_GRID_STRIDE, grid_resolution]
    coarse_counts = _count_below(system, n_max, grid[coarse])
    if (n_roots := coarse_counts[-1] - coarse_counts[0]) > grid_resolution:
        raise ValueError(f"{n_roots} eigenvalues in range, more than "
                         f"grid_resolution ({grid_resolution}); narrow the range")
    # the count is flat across a coarse cell whose ends agree: only the
    # interior points of the rising cells need counting
    widths = np.diff(coarse)
    counts = np.append(np.repeat(coarse_counts[:-1], widths), coarse_counts[-1])
    rising = np.repeat(coarse_counts[1:] > coarse_counts[:-1], widths)
    rising[coarse[:-1]] = False
    if len(fine := np.flatnonzero(rising)):
        counts[fine] = _count_below(system, n_max, grid[fine])
    js = np.arange(counts[0] + 1, counts[-1] + 1)  # counts of the roots in range
    cell = np.searchsorted(counts, js) - 1
    lo, hi = grid[cell], grid[cell + 1]
    # adjacent doubles cannot be split, whatever tol asks
    while np.any(live := hi - lo > np.maximum(tol, np.spacing(hi))):
        lo[live], hi[live] = _bisect_tree(system, n_max, js[live], lo[live],
                                          hi[live], tol)
    roots, first = np.unique(0.5 * (lo + hi), return_index=True)
    col = 0 if system.kind == DELTA else 1  # psi(x_N) for delta, psi'(x_N) else
    residuals = [abs(propagate(system, r, DIRICHLET_START, n_max)[-1][col])
                 for r in roots.tolist()]
    return EigenvalueList(values=roots, residuals=np.array(residuals),
                          bracket_widths=(hi - lo)[first],
                          suspected_missed=len(js) - len(roots))


def fd_oracle_eigenvalues(system: SystemSpec, n_max: int, h: float,
                          count: int | None = None,
                          upper: float | None = None) -> EigenvalueList:
    """Independent finite-difference eigenvalues of the same truncation.

    Second-order scheme on a uniform mesh over [0, x_N] with the lattice
    points, x_N included, snapped to their nearest mesh nodes: each moves by
    up to h/2.  A delta interaction adds alpha/h to the diagonal at its node.
    A delta-prime interaction splits the mesh at its node into left/right
    unknowns tied by the jump condition (value jump alpha times the shared
    derivative), which enters the assembled matrix as a 1/alpha coupling
    between the two unknowns; the matrix stays symmetric tridiagonal after
    mass scaling.  The right end is closed to match the shooting solver:
    Dirichlet for delta, Neumann for delta-prime.

    Returns the lowest ``count`` eigenvalues.  Without ``count`` it returns
    every eigenvalue at or below ``upper`` plus the next one (capped at the
    matrix size), so negative and below-range eigenvalues cannot push the
    ones near ``upper`` out of the list: the last one lies above ``upper``.
    The values equal those of ``count = len(result)``.
    """
    if count is None and upper is None:
        raise ValueError("need count or upper")
    if count is not None and not count >= 1:
        raise ValueError("need count >= 1")
    dt, et = _fd_tridiagonal(system, n_max, h)
    # the only scipy use in the package: importing it here keeps it off
    # every other command's start-up
    from scipy.linalg import eigh_tridiagonal

    def lowest(k: int) -> np.ndarray:
        k = min(k, len(dt))
        return eigh_tridiagonal(dt, et, select="i", select_range=(0, k - 1),
                                eigvals_only=True)

    if count is not None:
        return EigenvalueList(values=lowest(count))
    vals = lowest(_sturm_count(dt, et, upper) + 1)
    # a bisected eigenvalue can land at or below upper while the exact count
    # there leaves it out; then the next one is still owed
    while vals[-1] <= upper and len(vals) < len(dt):
        vals = lowest(len(vals) + 1)
    return EigenvalueList(values=vals)


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
