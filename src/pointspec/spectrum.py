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
from .lattice import (DELTA, DELTA_PRIME, SystemSpec, ThresholdEstimate,
                      WindowScan, _check_window, _exp, _tail_trend,
                      _threshold_from_scan, window_scan)

CASE_I_DELTA = "case_i_delta"
CASE_I_DELTA_PRIME = "case_i_delta_prime"
CASE_II = "case_ii"
NO_CONCLUSION = "no_conclusion"

# a _count_below call pays 5 ufunc dispatches per lattice step, several
# times their arithmetic on ~100-500 energies, plus cos and sin once per
# distinct gap; trees of 4-7 levels measure within 2% of each other, 5 the
# fastest, and strides of 8-32 alike
_GRID_STRIDE = 16  # grid points per coarse cell
_TREE_LEVELS = 5  # most bisection steps per count call: 31 midpoints per bracket
_CALL_ENERGIES = 512  # most midpoints a count call of more than one level takes
_FD_GRID = 512  # cells of the FD oracle's isolation grid
_FD_TREE_LEVELS = 9  # an FD count costs little per energy: up to 511 midpoints a bracket
_TINY = 1e-100  # least angle of a cell's or an FD run's map: keeps every map finite
_FD_BLOCK = 64  # most distinct lengths whose maps are formed at once, most kicks, most FD rows
# half-width, relative, of the interval fd_oracle_nearest certifies about each
# energy; a value within half of it is accepted.  The benchmark's 702 roots at
# fd_h 1/128 lie within 2.2e-4 of their nearest FD eigenvalues
_FD_NEAR = 1e-3


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
    sparse_trend = _tail_trend(w.log_sparse)
    last_sparse = float(_exp(w.log_sparse[-1]))
    sparse_ok = (sparse_trend == "increasing"
                 and last_sparse > config.sparseness_threshold)
    abs_tail_trend = _tail_trend(w.abs_alphas)
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
    w = window_scan(system, *window, grid or (), settle=True)
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


def _distinct_blocks(lengths: list, kicks: list) -> list:
    """Consecutive cells in blocks of at most ``_FD_BLOCK`` distinct lengths.

    A block holds its distinct lengths as a column, how many of its cells
    have each, each cell's index among them, and each cell's kick.
    """
    blocks = []
    for length, kick in zip(lengths, kicks):
        if not blocks or (length not in blocks[-1][0] and len(blocks[-1][0]) == _FD_BLOCK):
            blocks.append(({}, [], []))
        index, cells, block_kicks = blocks[-1]  # each distinct length's place among them
        cells.append(index.setdefault(length, len(index)))
        block_kicks.append(kick)
    return [(np.array(list(index), dtype=float)[:, None], np.bincount(cells).astype(float),
             cells, block_kicks) for index, cells, block_kicks in blocks]


def _shooting_cells(system: SystemSpec, n_max: int):
    """The truncation to [0, x_N] as ``_count_below`` reads it.

    Reads the gaps and strengths once, for every count of a solve.  Returns
    the cells in ``_distinct_blocks``, each kick the strength at the node
    the cell starts from (0 at x_0; the interaction at x_N is inert under
    the closure) in a column, and whether the kind is delta-prime.
    Strengths past double range raise OverflowError.
    """
    alphas = system.strengths.alphas(1, n_max)[:-1].tolist()
    gaps = system.lattice.gaps(0, n_max - 1).tolist()
    blocks = [(lengths, weights, cells, np.array(kicks)[:, None])
              for lengths, weights, cells, kicks in _distinct_blocks(gaps, [0.0, *alphas])]
    return blocks, system.kind == DELTA_PRIME


@np.errstate(all="ignore")  # only an exact psi = 0 at a node divides by 0
def _count_below(blocks: list, delta_prime: bool, lams) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues at or below each energy of a truncation (``_shooting_cells``),
    and u = cot(phi) at x_N.

    Follows u = cot(phi), phi the Prufer angle of (sqrt(lam) psi, psi'), for
    all energies at once; for delta-prime it follows psi', on which each
    interaction acts as a delta of strength -lam alpha.  A cell of gap g
    turns phi by g sqrt(lam): its whole half-turns go into the count, and
    the rest rho (an exact remainder) maps u to (u c - 1) / (u + c) with
    c = cot(rho), the cotangent addition formula.  Since phi and rho lie in
    [0, pi), phi + rho reaches pi exactly where that denominator is
    nonpositive, and each such cell adds one more.  An interaction adds
    alpha / sqrt(lam) to u (delta) or -sqrt(lam) alpha (delta-prime).  psi
    starts at 0 (u = +inf: the first delta cell sets u = c), psi' at its
    maximum (u = 0).  By oscillation theory the delta count is every
    eigenvalue <= lam, negative ones included, and the delta-prime count
    every positive one; differences between energies are exact for both.
    Both closures are sin(phi(x_N)) = 0 (psi = 0 for delta, psi' = 0 for
    delta-prime), so |sin phi(x_N)| = 1 / hypot(1, u) measures how far an
    energy is from closing.  A kick or a map past double range raises
    OverflowError.

    The cells' maps are formed once per distinct gap of a block, and the
    kicks ``_FD_BLOCK`` cells at a time, so memory stays O(energies x
    block) however long the truncation.  rho is kept at or above _TINY, so
    c stays finite where a cell is a whole number of half-turns.
    """
    rt = np.sqrt(np.asarray(lams, dtype=float))
    beta = -rt if delta_prime else 1.0 / rt
    count = 0.0  # whole numbers, exact below 2^53
    u = np.zeros(len(rt)) if delta_prime else None  # None: the first cell sets u
    for lengths, weights, cells, kicks in blocks:
        whole, rho = np.divmod(lengths * rt, math.pi)  # rho exact, in [0, pi)
        count += weights @ whole
        np.maximum(rho, _TINY, out=rho)
        cot = np.cos(rho)
        cot = list(np.divide(cot, np.sin(rho, rho), cot))  # one row per distinct gap
        for lo in range(0, len(cells), _FD_BLOCK):
            # each cell's kick, then its denominator in the same row
            dens = kicks[lo:lo + _FD_BLOCK] * beta
            for den, cell in zip(dens, cells[lo:lo + _FD_BLOCK]):
                c = cot[cell]
                if u is None:
                    u = c.copy()
                    den.fill(1.0)
                    continue
                np.add(u, den, u)
                np.add(u, c, den)
                np.multiply(u, c, u)
                np.subtract(u, 1.0, u)
                np.divide(u, den, u)
            count += np.add.reduce(dens <= 0.0, axis=0)
    # NaN sticks, and misses every crossing after it
    if math.isnan(np.minimum.reduce(u, initial=0.0)):
        raise OverflowError("Prufer cotangent passed double range")
    return count.astype(np.int64), u


def _stop(lo: np.ndarray, hi: np.ndarray, tol: float) -> float:
    """A width above which every bracket [lo, hi] is live: math.ulp at the
    largest |edge| bounds every bracket's own gap between adjacent doubles."""
    return max(tol, math.ulp(max(-np.minimum.reduce(lo), np.maximum.reduce(hi))))


def _tree(lo: np.ndarray, hi: np.ndarray, tol: float, max_levels: int, stop=None):
    """The live brackets [lo, hi] and the midpoints of several bisection steps of each.

    A bracket is live while wider than ``tol`` and than the gap between
    adjacent doubles at its upper edge; ``stop`` is ``_stop``'s width where
    the caller knows it is ``tol``.  Halves every sub-bracket of each
    live bracket ``levels`` times, each midpoint 0.5 * (a + b) of its own
    sub-bracket.  ``levels`` is ``max_levels`` while the trees fit in
    ``_CALL_ENERGIES`` midpoints and shrinks as the brackets grow in number,
    down to one step per call: there a deeper tree would multiply the
    energies that one-at-a-time bisection counts.

    Returns None when no bracket is live, else ``(live, edges, mids,
    wide)``: ``live`` is None when every bracket is, else their mask;
    ``edges`` holds one row of 2^(levels + 1) per live bracket, its first
    2^levels + 1 entries the edges of its tree in order; ``mids`` are the
    trees' midpoints, tree by tree, one contiguous array to count; ``wide``
    is true when every cell a step starts from is live.  A row is twice as
    long as its tree so that the midpoints of a level are one strided run
    through all the rows (the second half of a row bisects the gap up to
    the next row's bracket, and is never counted).
    """
    width = hi - lo
    if stop is None:
        stop = _stop(lo, hi, tol)
    narrowest = np.minimum.reduce(width)
    live = None
    if not narrowest > stop:  # some bracket may have stopped: test each
        live = width > np.maximum(tol, np.spacing(np.abs(hi)))
        if not live.any():
            return None
        lo, hi, width = lo[live], hi[live], width[live]
        stop = _stop(lo, hi, tol)
        narrowest = np.minimum.reduce(width)
    levels = max(1, min(max_levels, int(math.log2(_CALL_ENERGIES / len(lo) + 1))))
    # `needed` steps bring the widest down to stop: a deeper tree would only
    # add energies (and the widest needs no fewer steps than the narrowest)
    if math.ceil(math.log2(narrowest / stop)) < levels:
        needed = math.ceil(math.log2(np.maximum.reduce(width) / stop))
        levels = max(1, min(levels, needed))
    size = 2**levels
    flat = np.empty(2 * size * len(lo) + 1)  # the last entry closes the last row
    edges = flat[:-1].reshape(len(lo), 2 * size)
    edges[:, 0], edges[:, size], flat[-1] = lo, hi, hi[-1]
    for level in range(levels - 1, -1, -1):  # each sub-bracket's midpoint, top down
        step = 2**level
        mid = flat[step::2 * step]
        np.add(flat[:-step:2 * step], flat[2 * step::2 * step], mid)
        np.multiply(mid, 0.5, mid)
    # a step takes a width w to at least w / 2 - stop / 2, so the cells of
    # the last step stay wider than stop while the narrowest bracket is
    # wider than 2^(levels + 2) stop; nearer the end each cell is measured
    wide = (levels == 1 or narrowest > 2.0**(levels + 2) * stop or np.minimum.reduce(
        edges[:, 2:size + 1:2] - edges[:, :size - 1:2], axis=None) > stop)
    return live, edges, edges[:, 1:size].ravel(), wide


def _descend(js: np.ndarray, lo: np.ndarray, hi: np.ndarray, tree, counts: np.ndarray,
             tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The brackets of the js-th eigenvalues after a counted ``_tree`` of [lo, hi].

    ``counts`` are the counts at the tree's midpoints.  Each root walks down
    its tree under the same stopping test as before every step of
    one-at-a-time bisection, so the brackets are that bisection's, bit for
    bit.  Where each tree's midpoints left of its root come first, the walk
    follows the cells that end at the last of them, down to the finest, and
    stops in the first of those cells that is not live: the cells of the
    path are read directly, and measured only where some cell a step starts
    from may have stopped (not ``wide``).  Trees whose count steps back are
    walked step by step.  Brackets that were not live keep their place.
    """
    live, edges, _, wide = tree
    if live is not None:
        js = js[live]
    n, size = len(js), edges.shape[1] // 2
    below = counts.reshape(n, size - 1) < js[:, None]  # midpoints left of each root
    flat, rows = edges.ravel(), np.arange(0, 2 * size * n, 2 * size)
    if not np.count_nonzero(below[:, 1:] > below[:, :-1]):
        at = np.add.reduce(below, axis=1)  # each root's finest cell
        if wide:
            at += rows
            walked = flat.take(at), flat.take(at + 1)
        else:  # each path's cells after 1, 2, ... steps: the walk ends in the first not live
            shift = np.arange(size.bit_length() - 2, -1, -1)[:, None]
            left = (at >> shift << shift) + rows
            a, b = flat.take(left), flat.take(left + (1 << shift))
            stopped = b - a <= np.maximum(tol, np.spacing(np.abs(b)))
            stopped[-1] = True  # or in the finest
            depth, cols = np.argmax(stopped, axis=0), np.arange(n)
            walked = a[depth, cols], b[depth, cols]
    else:
        cols = np.arange(n)
        at = np.zeros(n, dtype=np.intp)  # each bracket's left edge
        a, b = edges[:, 0], edges[:, size]
        steps = True  # every bracket of the tree is live
        for level in range(size.bit_length() - 2, -1, -1):
            at += 2**level  # each sub-bracket's midpoint
            mid, left = edges[cols, at], ~below[cols, at - 1]
            b = np.where(steps & left, mid, b)
            a = np.where(steps & ~left, mid, a)
            at -= 2**level * left  # roots left of it keep their left edge
            if level:
                steps = b - a > np.maximum(tol, np.spacing(np.abs(b)))
        walked = a, b
    if live is None:
        return walked
    lo[live], hi[live] = walked
    return lo, hi


def _bisect(count, js: np.ndarray, lo: np.ndarray, hi: np.ndarray, tol: float,
            max_levels: int = _TREE_LEVELS) -> tuple[np.ndarray, np.ndarray]:
    """Bisect each bracket [lo, hi] of the js-th eigenvalue on ``count``.

    ``count(lams)`` gives the eigenvalues at or below each energy, and each
    bracket holds its root: count(lo) < j <= count(hi).  Brackets stop once
    no wider than ``tol``, or than the gap between adjacent doubles; each
    call of ``count`` serves up to ``max_levels`` steps of every live
    bracket (``_tree``, ``_descend``).
    """
    if not len(js):
        return lo, hi
    # brackets only shrink: where tol alone stops them now, it does in every round
    stop = tol if _stop(lo, hi, tol) == tol else None
    while (tree := _tree(lo, hi, tol, max_levels, stop)) is not None:
        lo, hi = _descend(js, lo, hi, tree, count(tree[2]), tol)
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
    gap between adjacent doubles); each count call serves up to
    ``_TREE_LEVELS`` bisection steps through a tree of midpoints, the more
    the fewer brackets are live.  The count reads the truncation once
    (``_shooting_cells``) and steps the cotangent of the Prufer angle
    through one Moebius map per cell.  Roots and brackets equal those of a
    full-grid count and one-midpoint-per-step bisection, as long as the
    count does not decrease along the grid, which oscillation theory gives
    while the cell phases ``sqrt(lam) * gap`` keep their digits (not so for
    factorial truncations past n ~ 18).  Roots closer than ``tol`` share a
    bracket and are reported once; ``suspected_missed`` is the exact number
    of roots in the range that the list lacks.  More roots than grid cells
    raise.  The residual at each root is |sin phi(x_N)|, in [0, 1], taken
    from the shooting count at the root (one more count of all the roots
    together): it cannot overflow, and a value near 1 means the end angle
    moves by O(1) inside the root's bracket.
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
    cells = _shooting_cells(system, n_max)

    def count(lams):
        return _count_below(*cells, lams)[0]

    grid = np.linspace(lam_lo, lam_hi, grid_resolution + 1)
    coarse = np.r_[0:grid_resolution:_GRID_STRIDE, grid_resolution]
    coarse_counts = count(grid[coarse])
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
        counts[fine] = count(grid[fine])
    js = np.arange(counts[0] + 1, counts[-1] + 1)  # counts of the roots in range
    cell = np.searchsorted(counts, js) - 1
    lo, hi = _bisect(count, js, grid[cell], grid[cell + 1], tol)
    roots, first = np.unique(0.5 * (lo + hi), return_index=True)
    u_end = _count_below(*cells, roots)[1]
    return EigenvalueList(values=roots, residuals=1.0 / np.hypot(1.0, u_end),
                          bracket_widths=(hi - lo)[first],
                          suspected_missed=len(js) - len(roots))


class _FdOracle:
    """The FD matrix of ``fd_oracle_eigenvalues``, its tolerance and its grid.

    Holds the mesh, the tolerance of the eigenvalues, and the isolation grid
    with the counts taken on it.  The grid has ``_FD_GRID`` cells over bounds
    on the whole spectrum, padded by far more than the count's rounding, so
    no eigenvalue escapes it; its counts are taken from its low end as far as
    the wanted eigenvalues need.  Where the count rises along the grid, each
    cell is the whole grid's.
    """

    def __init__(self, system: SystemSpec, n_max: int, h: float):
        self.mesh, self.size, (lowest, highest) = _fd_runs(system, n_max, h)
        # 2 ulp ||T||, ||T|| the larger bound: a bisection on the assembled matrix
        self.tol = 2.0 * np.finfo(float).eps * max(-lowest, highest)
        self.grid = np.linspace(lowest - 8.0 * self.tol, highest + 8.0 * self.tol,
                                _FD_GRID + 1)
        self.grid_counts = None

    def count(self, lams) -> np.ndarray:
        return _fd_count_below(*self.mesh, lams)

    def count_grid(self, upper: float | None, extra=()) -> np.ndarray:
        """The counts at ``upper`` and ``extra``, from one call that also
        counts the grid as far as its first point above ``upper`` (all of it
        without ``upper``).  A NaN ``upper`` is refused."""
        if upper is not None and math.isnan(upper):
            raise ValueError("upper must be a number, got nan")
        known = (_FD_GRID - 1 if upper is None
                 else min(int(np.searchsorted(self.grid, upper)), _FD_GRID - 1))
        counts = self.count(np.concatenate(
            [self.grid[1:known + 1], [] if upper is None else [upper], extra]))
        self.grid_counts = np.append(0, counts[:known])  # at grid[0], grid[1], ...
        return counts[known:]

    def cells(self, js: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The grid cell of each ascending js-th eigenvalue, counting the rest
        of the grid when one passes the counts taken."""
        if len(js) and self.grid_counts[-1] < js[-1] and len(self.grid_counts) <= _FD_GRID:
            rest = self.count(self.grid[len(self.grid_counts):-1])
            self.grid_counts = np.concatenate([self.grid_counts, rest, [self.size]])
        cell = np.searchsorted(self.grid_counts, js) - 1
        return self.grid[cell], self.grid[cell + 1]

    def eigenvalues(self, js: np.ndarray, lo=None, hi=None) -> np.ndarray:
        """The js-th eigenvalues, bisected from the brackets [lo, hi] (their
        grid cells by default)."""
        if lo is None:
            lo, hi = self.cells(js)
        lo, hi = _bisect(self.count, js, lo, hi, self.tol, _FD_TREE_LEVELS)
        return 0.5 * (lo + hi)

    def through(self, upper: float, at_upper: int) -> np.ndarray:
        """Every eigenvalue at or below ``upper`` plus the next one (capped at
        the size), ``at_upper`` the count at ``upper``."""
        vals = self.eigenvalues(np.arange(1, min(at_upper + 1, self.size) + 1))
        # a bisected eigenvalue can land at or below upper while the count there
        # leaves it out; then the next one is still owed
        while vals[-1] <= upper and len(vals) < self.size:
            vals = np.append(vals, self.eigenvalues(np.array([len(vals) + 1])))
        return vals


def fd_oracle_eigenvalues(system: SystemSpec, n_max: int, h: float,
                          count: int | None = None,
                          upper: float | None = None) -> EigenvalueList:
    """Independent finite-difference eigenvalues of the same truncation.

    Second-order scheme on a uniform mesh over [0, x_N] that holds the
    lattice: every lattice point, x_N included, must lie within 1e-9 h of a
    mesh node, or ``ValueError`` names fd_h.  A delta interaction adds
    alpha/h to the diagonal at its node.  A delta-prime interaction splits
    the mesh at its node into left/right unknowns tied by the jump condition
    (value jump alpha times the shared derivative), which enters the
    assembled matrix as a 1/alpha coupling between the two unknowns; the
    matrix stays symmetric tridiagonal after mass scaling.  The right end is
    closed to match the shooting solver: Dirichlet for delta, Neumann for
    delta-prime.

    The matrix is never assembled.  Its eigenvalues are bisected on the
    count of its nonpositive pivots (``_fd_count_below``), which costs
    O(lattice points) per energy, from a grid of ``_FD_GRID`` cells over
    bounds on the whole spectrum (counted from its low end as far as the
    wanted eigenvalues need), to brackets of 2 ulp ||T|| with ||T|| the
    larger bound: the accuracy of a bisection on the assembled matrix.

    Returns the lowest ``count`` eigenvalues.  Without ``count`` it returns
    every eigenvalue at or below ``upper`` plus the next one (capped at the
    matrix size), so negative and below-range eigenvalues cannot push the
    ones near ``upper`` out of the list: the last one lies above ``upper``.
    So ``upper = inf`` returns every eigenvalue and ``upper = -inf`` the
    lowest alone; a NaN ``upper`` raises ``ValueError``.
    The values equal those of ``count = len(result)``.  Where only the
    eigenvalues nearest some energies are wanted, ``fd_oracle_nearest``
    bisects those alone.
    """
    if count is None and upper is None:
        raise ValueError("need count or upper")
    if count is not None and not count >= 1:
        raise ValueError("need count >= 1")
    oracle = _FdOracle(system, n_max, h)
    counts = oracle.count_grid(upper)
    if count is not None:
        return EigenvalueList(values=oracle.eigenvalues(np.arange(1, min(count, oracle.size) + 1)))
    return EigenvalueList(values=oracle.through(upper, counts[0]))


def fd_oracle_nearest(system: SystemSpec, n_max: int, h: float, lams,
                      upper: float) -> tuple[np.ndarray, int]:
    """The FD eigenvalue nearest each energy, and the length of the ``upper`` list.

    With ``fd = fd_oracle_eigenvalues(system, n_max, h, upper=upper)``,
    returns the length of ``fd`` and, per energy, either the nearest of its
    values or that eigenvalue bisected from the interval that certifies it:
    the two lie within 2 tol of each other, tol the oracle's 2 ulp ||T||.
    One count call takes the grid, ``upper``, ``upper + 4 tol``, each
    interval (lam - r, lam + r] with r = ``_FD_NEAR`` |lam|, and the first
    tree of each interval's bisection (``_tree``).  The certificate holds
    when each interval holds one eigenvalue, the j-th, and none lies in
    (upper, upper + 4 tol]: then the list's length is min(count(upper) + 1,
    size), and each j-th eigenvalue is bisected from its interval (the
    first energy's, where several certify it), its first tree walked
    (``_descend``).  Where each value lies within ``_FD_NEAR`` |lam| / 2 of
    its energy it is the nearest by a margin, and is returned.  Otherwise
    the full list is bisected and searched, from the mesh and grid counts
    already taken.  Energies that are not finite, and a NaN ``upper``, raise
    ``ValueError``.
    """
    lams = np.asarray(lams, dtype=float)
    if not np.isfinite(lams).all():
        raise ValueError(f"energies must be finite, got {lams[~np.isfinite(lams)].tolist()}")
    oracle = _FdOracle(system, n_max, h)
    radius = _FD_NEAR * np.abs(lams)
    below, above, n = lams - radius, lams + radius, len(lams)
    tree = _tree(below, above, oracle.tol, _FD_TREE_LEVELS) if n else None
    counts = oracle.count_grid(upper, np.concatenate(
        [[upper + 4.0 * oracle.tol], below, above, () if tree is None else tree[2]]))
    at_upper, past_upper = counts[:2]
    to_below, to_above = counts[2:2 + n], counts[2 + n:2 + 2 * n]
    if past_upper == at_upper and (to_above - to_below == 1).all():
        lo, hi = below, above
        if tree is not None:
            lo, hi = _descend(to_above, lo, hi, tree, counts[2 + 2 * n:], oracle.tol)
        js, first = np.unique(to_above, return_index=True)
        values = oracle.eigenvalues(js, lo[first], hi[first])[np.searchsorted(js, to_above)]
        if (np.abs(values - lams) < 0.5 * radius).all():
            return values, int(min(at_upper + 1, oracle.size))
    fd = oracle.through(upper, at_upper)
    return fd[np.argmin(np.abs(fd - lams[:, None]), axis=1)], len(fd)


def _fd_runs(system: SystemSpec, n_max: int, h: float):
    """The FD matrix of ``fd_oracle_eigenvalues`` as runs of free mesh rows.

    A run ends at an interacting node.  Returns ``_fd_count_below``'s
    arguments (h, the runs in blocks of consecutive runs with at most
    ``_FD_BLOCK`` distinct lengths, and the kind), the matrix size, and
    bounds below and above its spectrum from its quadratic form.  A block
    holds its distinct run lengths as a column, how many of its runs have
    each, each run's index among them, and the strength at the node before
    each run (None before the first).
    """
    if not h > 0:
        raise ValueError("need positive mesh size")
    length = system.lattice.position(n_max)
    if not math.isfinite(length):
        raise OverflowError("truncation endpoint beyond double range")
    m = int(round(length / h))
    if m < 4:
        raise ValueError("mesh too coarse for the truncation length")
    points = system.lattice.positions(n_max)[1:] / h
    nodes = np.rint(points)  # nondecreasing
    if nodes[0] <= 0 or np.count_nonzero(nodes[1:] == nodes[:-1]):
        raise ValueError("lattice points collide on the mesh; refine h")
    if np.count_nonzero(off := np.abs(points - nodes) > 1e-9):
        n = int(np.argmax(off)) + 1
        raise ValueError(f"lattice point x_{n} = {system.lattice.position(n)!r} is off the "
                         f"FD mesh of fd_h = {h!r}; choose an fd_h that divides the gaps")

    inner = nodes < m  # at node m psi or psi' vanishes: the interaction is inert
    a = system.strengths.alphas(1, n_max)[inner]
    delta_prime = system.kind == DELTA_PRIME
    kept = np.abs(a) > 1e-12 if delta_prime else a != 0.0
    a = a[kept]
    ends = np.concatenate([[0.0], nodes[inner][kept], [m]])
    gaps = (ends[1:] - ends[:-1]).tolist()
    blocks = _distinct_blocks(gaps, [None, *a.tolist()])
    # bonds of weight 1/h add at most 4/h^2 per unit mass; a delta node adds
    # alpha/h, a split node's bond 1/alpha at most 4/(alpha h) either way
    extra = a / h if not delta_prime else 4.0 / (a * h)
    bounds = (np.minimum.reduce(extra, initial=0.0),
              4.0 / h**2 + np.maximum.reduce(extra, initial=0.0))
    size = m + len(a) if delta_prime else m - 1
    return (h, blocks, delta_prime), size, bounds


@np.errstate(all="ignore")  # only an exact u = 0 at a node divides by 0
def _fd_count_below(h: float, blocks: list, delta_prime: bool, lams) -> np.ndarray:
    """Eigenvalues at or below each energy of the FD matrix, run by run.

    Counts the nonpositive pivots of the LDL^T factorization of A - lam M,
    which by Sylvester's law of inertia number the eigenvalues of the
    mass-scaled matrix at or below lam.  Off the interacting nodes the mesh
    rows read u_(j+1) = (2 - h^2 lam) u_j - u_(j-1), and row j's pivot is
    u_(j+1) / (h u_j): nonpositive where u changes sign.  Between runs the
    count carries v = D / u at the run's last node, with the discrete
    derivative D = (u_j - u_(j-1)) / h - lam h u_j / 2.  A run maps v to
    (A v - s2) / (v + A) and has q nonpositive pivots, plus one where that
    denominator is nonpositive (``_fd_run_maps``).  A delta node adds
    alpha u to D.
    A split delta-prime node is two rows: u jumps by alpha D while D carries
    over, so v goes to (v / alpha) / (v + 1 / alpha), whose denominator is
    the left row's pivot.  The Neumann row at x_N has pivot v.
    The run maps are formed a block of runs at a time, and the denominators
    counted ``_FD_BLOCK`` rows at a time, so memory stays O(energies)
    however many runs and distinct run lengths there are.
    """
    x = np.asarray(lams, dtype=float)
    if not len(x):
        return np.zeros(0, dtype=np.int64)
    count = 0.0  # whole numbers, exact below 2^53
    # one denominator per step, counted a block of rows at a time
    dens, k = np.empty((_FD_BLOCK, len(x))), 0
    for lengths, weights, runs, kicks in blocks:
        maps, s2, turns = _fd_run_maps(h, lengths, x)
        count += weights @ turns
        maps = list(maps)
        for run, alpha in zip(runs, kicks):
            run_map = maps[run]
            if alpha is None:  # the first run starts from u = 0: no denominator
                v = run_map.copy()
                continue
            if delta_prime:
                jump = 1.0 / alpha
                den = dens[k]
                np.add(v, jump, den)
                np.multiply(v, jump, v)
                np.divide(v, den, v)
                k += 1
            else:
                np.add(v, alpha, v)
            den = dens[k]
            np.add(v, run_map, den)
            np.multiply(v, run_map, v)
            np.subtract(v, s2, v)
            np.divide(v, den, v)
            k += 1
            if k >= _FD_BLOCK - 1:  # room for the next step's two rows
                count += np.add.reduce(dens[:k] <= 0.0, axis=0)
                k = 0
    if delta_prime:
        dens[k] = v
        k += 1
    count += np.add.reduce(dens[:k] <= 0.0, axis=0)
    return count.astype(np.int64)


def _fd_run_maps(h: float, lengths: np.ndarray, x: np.ndarray):
    """The map of v (see ``_fd_count_below``) across a run, per length and energy.

    Returns A of shape (lengths, energies), s2 per energy, and q of shape
    (lengths, energies), the run's nonpositive pivots besides the one its
    denominator may show.  With cos(theta) = 1 - h^2 lam / 2 (the discrete
    oscillation theorem):

    * 0 <= h^2 lam < 4: a discrete Prufer angle advances by L theta; q is its
      whole half-turns and rho what remains; with s = sin(theta) / h,
      A = s cot(rho) and s2 = s^2;
    * lam < 0: theta = i eta, u changes sign at most once along a run, and
      A = s coth(L eta), s2 = -s^2 with s = sinh(eta) / h;
    * h^2 lam >= 4: theta = pi + i eta, and (-1)^j u changes sign at most
      once, so every pivot but at most one is nonpositive: q = L - 1,
      A = -s coth(L eta), and s2 as for lam < 0.

    Angles are kept at or above _TINY, so A stays finite where rho or eta
    vanish within rounding; there it takes its limit.
    """
    z = (0.5 * h) * np.sqrt(x)  # sin(theta / 2); NaN where lam < 0
    if np.maximum.reduce(z) < 1.0:
        return _fd_turning_maps(h, lengths, z)
    z = (0.5 * h) * np.sqrt(np.abs(x))  # and its continuation
    maps, s2, turns = _fd_turning_maps(h, lengths, np.minimum(z, 1.0))
    hyperbolic = (x < 0.0) | (z >= 1.0)  # theta imaginary, or pi plus imaginary
    z, above = z[hyperbolic], x[hyperbolic] > 0.0
    eta = 2.0 * np.where(above, np.arccosh(np.maximum(z, 1.0)), np.arcsinh(z))
    np.maximum(eta, _TINY, out=eta)
    s = np.sinh(eta) / h
    minus_s = -s
    maps[:, hyperbolic] = np.where(above, minus_s, s) / np.tanh(lengths * eta)
    s2[hyperbolic] = minus_s * s
    turns[:, hyperbolic] = np.where(above, lengths - 1.0, 0.0)
    return maps, s2, turns


def _fd_turning_maps(h: float, lengths: np.ndarray, z: np.ndarray):
    """``_fd_run_maps`` where 0 <= h^2 lam < 4, from z = sin(theta / 2)."""
    theta = 2.0 * np.arcsin(np.maximum(z, _TINY))
    s = np.sin(theta) / h
    turns, rho = np.divmod(lengths * theta, math.pi)  # rho exact, in [0, pi)
    np.maximum(rho, _TINY, out=rho)
    np.tan(rho, out=rho)
    return np.divide(s, rho, out=rho), s * s, turns
