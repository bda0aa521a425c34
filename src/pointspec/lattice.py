"""Sparse half-line lattices, interaction strengths, and the threshold ratio.

A lattice is a strictly increasing point set ``0 = x_0 < x_1 < ...`` on the
half-line.  Gaps grow fast for the generators of interest (factorial positions
overflow doubles near ``n = 170``), so all ratio arithmetic is routed through
analytically computed logarithms of the gaps rather than the gaps themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

DELTA = "delta"
DELTA_PRIME = "delta_prime"
KINDS = (DELTA, DELTA_PRIME)

LATTICE_KINDS = ("factorial", "power", "exponential", "explicit")
STRENGTH_KINDS = ("power", "constant", "explicit")

# exact factorial gaps n * n! up to n = 169, the last one below double overflow
_FACTORIAL_GAPS = np.array([1.0] + [float(n * math.factorial(n)) for n in range(1, 170)])

_LOG_MAX_DOUBLE = math.log(np.finfo(float).max)


def _log_expm1(y):
    """log(e^y - 1) for y > 0 without overflow: y + log(1 - e^-y)."""
    y = np.asarray(y, dtype=float)
    return y + np.log(-np.expm1(-y))


@dataclass(frozen=True)
class SparseSet:
    """Point set ``{x_n}`` with ``x_0 = 0`` and overflow-safe gap access.

    Generators:
      * ``factorial``:   x_n = n!  for n >= 1
      * ``power``:       x_n = c * n**p
      * ``exponential``: x_n = c * exp(q * n**r)  for n >= 1
      * ``explicit``:    a finite ascending tuple (0 prepended if missing)

    ``max_index`` caps the usable position index; gaps are defined for
    ``0 <= n <= max_index - 1``.
    """

    kind: str
    max_index: int = 10**7
    c: float = 1.0
    p: float = 1.0
    q: float = 1.0
    r: float = 1.0
    points: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in LATTICE_KINDS:
            raise ValueError(f"unknown lattice kind {self.kind!r}")
        if self.kind == "explicit":
            if not self.points:
                raise ValueError("explicit lattice needs at least one point")
            pts = tuple(float(x) for x in self.points)
            if pts[0] != 0.0:
                pts = (0.0,) + pts
            diffs = np.diff(pts)
            if len(pts) < 2 or np.any(diffs <= 0):
                raise ValueError("explicit lattice must be strictly increasing above 0")
            object.__setattr__(self, "points", pts)
            object.__setattr__(self, "max_index", len(pts) - 1)
        else:
            if self.max_index < 1:
                raise ValueError("max_index must be >= 1")
            if self.kind in ("power", "exponential") and self.c <= 0:
                raise ValueError("c must be positive")
            if self.kind == "power" and self.p <= 0:
                raise ValueError("p must be positive")
            if self.kind == "exponential" and (self.q <= 0 or self.r <= 0):
                raise ValueError("q and r must be positive")

    @classmethod
    def factorial(cls, max_index: int = 10**7) -> "SparseSet":
        return cls(kind="factorial", max_index=max_index)

    @classmethod
    def power(cls, c: float, p: float, max_index: int = 10**7) -> "SparseSet":
        return cls(kind="power", max_index=max_index, c=c, p=p)

    @classmethod
    def exponential(cls, c: float, q: float, r: float = 1.0,
                    max_index: int = 10**7) -> "SparseSet":
        return cls(kind="exponential", max_index=max_index, c=c, q=q, r=r)

    @classmethod
    def explicit(cls, points) -> "SparseSet":
        return cls(kind="explicit", points=tuple(points))

    def _check_gap_index(self, n: int):
        if not 0 <= n <= self.max_index - 1:
            raise IndexError(
                f"gap index {n} outside [0, {self.max_index - 1}]")

    def position(self, n: int) -> float:
        """x_n as a double, +inf when not representable."""
        if not 0 <= n <= self.max_index:
            raise IndexError(f"position index {n} outside [0, {self.max_index}]")
        if n == 0:
            return 0.0
        if self.kind == "factorial":
            try:
                return float(math.factorial(n))
            except OverflowError:
                return math.inf
        if self.kind == "power":
            try:
                return self.c * float(n) ** self.p
            except OverflowError:
                return math.inf
        if self.kind == "exponential":
            try:
                e = self.q * float(n) ** self.r
            except OverflowError:
                return math.inf
            return math.inf if e > _LOG_MAX_DOUBLE else self.c * math.exp(e)
        return self.points[n]

    def positions(self, n_max: int) -> np.ndarray:
        """x_0 .. x_{n_max} as an array (entries may be +inf)."""
        return np.array([self.position(n) for n in range(n_max + 1)])

    def gap(self, n: int) -> float:
        """Gap x_{n+1} - x_n; +inf marks a value beyond double range."""
        return float(self.gaps(n, n)[0])

    def gaps(self, n_lo: int, n_hi: int) -> np.ndarray:
        """Vectorized gaps over inclusive index range [n_lo, n_hi].

        +inf marks a gap beyond double range.  Factorial and explicit gaps
        are exact; the other generators exponentiate ``log_gaps``.
        """
        self._check_gap_index(n_lo)
        self._check_gap_index(n_hi)
        if n_hi < n_lo:
            raise ValueError("empty index range")
        if self.kind == "factorial":
            ns = np.arange(n_lo, n_hi + 1)
            return np.where(ns < 170, _FACTORIAL_GAPS[np.minimum(ns, 169)], math.inf)
        if self.kind == "explicit":
            return np.diff(self.points[n_lo:n_hi + 2])
        with np.errstate(over="ignore"):
            return np.exp(self.log_gaps(n_lo, n_hi))

    def log_gap(self, n: int) -> float:
        """ln(x_{n+1} - x_n), evaluated analytically per generator."""
        return float(self.log_gaps(n, n)[0])

    def log_gaps(self, n_lo: int, n_hi: int) -> np.ndarray:
        """Vectorized ln(gap) over inclusive index range [n_lo, n_hi]."""
        self._check_gap_index(n_lo)
        self._check_gap_index(n_hi)
        if n_hi < n_lo:
            raise ValueError("empty index range")
        ns = np.arange(n_lo, n_hi + 1, dtype=float)
        if self.kind == "factorial":
            # gap(n) = n * n! for n >= 1, gap(0) = 1
            with np.errstate(divide="ignore"):
                out = np.log(ns) + gammaln(ns + 1.0)
            out[ns == 0] = 0.0
            return out
        if self.kind == "power":
            # gap(n) = c * n^p * ((1 + 1/n)^p - 1)
            out = np.empty_like(ns)
            pos = ns >= 1
            npos = ns[pos]
            out[pos] = (math.log(self.c) + self.p * np.log(npos)
                        + _log_expm1(self.p * np.log1p(1.0 / npos)))
            out[~pos] = math.log(self.c)
            return out
        if self.kind == "exponential":
            # gap(n) = c * exp(q n^r) * (exp(q dr) - 1), dr = (n+1)^r - n^r
            out = np.empty_like(ns)
            pos = ns >= 1
            npos = ns[pos]
            with np.errstate(over="ignore"):
                dr = npos ** self.r * np.expm1(self.r * np.log1p(1.0 / npos))
                out[pos] = (math.log(self.c) + self.q * npos ** self.r
                            + _log_expm1(self.q * dr))
            out[~pos] = math.log(self.c) + self.q
            return out
        pts = np.asarray(self.points)
        return np.log(pts[n_lo + 1:n_hi + 2] - pts[n_lo:n_hi + 1])

    def log_gap_ratios(self, n_lo: int, n_hi: int) -> np.ndarray:
        """Vectorized ln(gap(n) / gap(n-1)) over inclusive range [n_lo, n_hi].

        Each generator's ratio has a closed form in terms of m = n - 1, so no
        entry is the difference of two large logarithms; explicit lattices
        difference their gaps.  The first ratio gap(1)/gap(0) involves
        x_0 = 0, which no generator formula covers, and comes from log_gaps.
        """
        if n_lo < 1:
            raise IndexError("gap ratios need n >= 1")
        self._check_gap_index(n_hi)
        if n_hi < n_lo:
            raise ValueError("empty index range")
        if self.kind == "explicit":
            return np.diff(self.log_gaps(n_lo - 1, n_hi))
        if n_lo == 1:
            first = np.diff(self.log_gaps(0, 1))
            if n_hi == 1:
                return first
            return np.concatenate([first, self.log_gap_ratios(2, n_hi)])
        m = np.arange(n_lo - 1, n_hi + 1, dtype=float)
        if self.kind == "factorial":
            # gap(m) = m * m!, so gap(n) / gap(n-1) = n^2 / (n-1)
            log_m = np.log(m)
            out = 2.0 * log_m[1:]
            out -= log_m[:-1]
            return out
        if self.kind == "power":
            # gap(m) = c m^p expm1(p log1p(1/m))
            y = self.p * np.log1p(1.0 / m)
            out = np.diff(_log_expm1(y))
            out += y[:-1]
            return out
        # gap(m) = c exp(q m^r) expm1(q dr(m)) with dr(m) = (m+1)^r - m^r,
        # which is 1 for r = 1 and otherwise m^r expm1(r log1p(1/m))
        if self.r == 1.0:
            return np.full(len(m) - 1, self.q)
        with np.errstate(over="ignore", invalid="ignore"):
            y = self.q * m ** self.r * np.expm1(self.r * np.log1p(1.0 / m))
            out = np.diff(_log_expm1(y))
            out += y[:-1]
        return out

    def sparseness_ratio(self, n: int) -> float:
        """Gap ratio gap(n)/gap(n-1), computed in log space; may be +inf."""
        if n < 1:
            raise IndexError("sparseness ratio needs n >= 1")
        d = float(self.log_gap_ratios(n, n)[0])
        return math.inf if d > _LOG_MAX_DOUBLE else math.exp(d)


@dataclass(frozen=True)
class StrengthSequence:
    """Interaction strengths ``alpha_n`` for n >= 1 (real, any sign)."""

    kind: str
    c: float = 1.0
    p: float = 0.0
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in STRENGTH_KINDS:
            raise ValueError(f"unknown strength kind {self.kind!r}")
        if self.kind == "explicit":
            if not self.values:
                raise ValueError("explicit strengths need at least one value")
            vals = tuple(float(v) for v in self.values)
            if not all(math.isfinite(v) for v in vals):
                raise ValueError("strengths must be finite")
            object.__setattr__(self, "values", vals)
        elif not (math.isfinite(self.c) and math.isfinite(self.p)):
            raise ValueError("strength parameters must be finite")

    @classmethod
    def power(cls, c: float, p: float) -> "StrengthSequence":
        return cls(kind="power", c=c, p=p)

    @classmethod
    def constant(cls, c: float) -> "StrengthSequence":
        return cls(kind="constant", c=c)

    @classmethod
    def explicit(cls, values) -> "StrengthSequence":
        return cls(kind="explicit", values=tuple(values))

    def alpha(self, n: int) -> float:
        return float(self.alphas(n, n)[0])

    def alphas(self, n_lo: int, n_hi: int) -> np.ndarray:
        """alpha_n over inclusive range [n_lo, n_hi], n_lo >= 1."""
        if n_lo < 1 or n_hi < n_lo:
            raise IndexError("invalid strength index range")
        ns = np.arange(n_lo, n_hi + 1, dtype=float)
        if self.kind == "power":
            return self.c * ns ** self.p
        if self.kind == "constant":
            return np.full(ns.shape, self.c)
        if n_hi > len(self.values):
            raise IndexError(f"strength index {n_hi} beyond explicit list")
        return np.asarray(self.values[n_lo - 1:n_hi], dtype=float)

    def log_abs_alphas(self, n_lo: int, n_hi: int) -> np.ndarray:
        """ln|alpha_n| over [n_lo, n_hi]; -inf where alpha_n = 0."""
        if self.kind == "power" and self.c != 0:
            ns = np.arange(n_lo, n_hi + 1, dtype=float)
            return math.log(abs(self.c)) + self.p * np.log(ns)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self.alphas(n_lo, n_hi)))


@dataclass(frozen=True)
class SystemSpec:
    """A half-line point-interaction system: kind + lattice + strengths."""

    kind: str
    lattice: SparseSet
    strengths: StrengthSequence

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class ThresholdEstimate:
    """Windowed proxy for the liminf of the gap/coupling threshold ratio.

    ``value`` is the minimum ratio over the window (a liminf can only be
    estimated from below at desk scale).  ``diverging`` is set when the tail
    ratios increase monotonically and the last one exceeds the configured
    threshold; the trend string records what the tail actually did.
    """

    value: float
    diverging: bool
    trend: str
    window: tuple[int, int]
    last_ratio: float
    infinity_threshold: float


@dataclass(frozen=True)
class RatioWindow:
    """Gap ratios and strengths over one index window, evaluated once.

    Entry ``i`` belongs to index ``n = window[0] + i``: ``log_sparse`` holds
    ln(gap(n)/gap(n-1)), ``abs_alphas`` holds |alpha_n| and ``log_threshold``
    the log threshold ratio ln(gap(n) / (gap(n-1) alpha_n^2)).  The threshold
    estimate, the precondition report and every per-energy ratio test read
    these arrays instead of evaluating the lattice again.
    """

    window: tuple[int, int]
    log_sparse: np.ndarray
    abs_alphas: np.ndarray
    log_threshold: np.ndarray
    all_positive: bool


def ratio_window(system: SystemSpec, n_lo: int, n_hi: int) -> RatioWindow:
    """Evaluate the lattice and the strengths once over [n_lo, n_hi], n_lo >= 1."""
    log_sparse = system.lattice.log_gap_ratios(n_lo, n_hi)
    alphas = system.strengths.alphas(n_lo, n_hi)
    all_positive = bool(np.all(alphas > 0))
    log_threshold = system.strengths.log_abs_alphas(n_lo, n_hi)
    log_threshold *= -2.0
    log_threshold += log_sparse
    return RatioWindow(window=(n_lo, n_hi), log_sparse=log_sparse,
                       abs_alphas=np.abs(alphas), log_threshold=log_threshold,
                       all_positive=all_positive)


def threshold_ratio(system: SystemSpec, n: int) -> float:
    """Ratio gap(n) / (gap(n-1) * alpha_n^2), the classification quantity.

    Returns +inf when alpha_n = 0. Computed in log space so factorial-scale
    gaps cannot overflow.
    """
    if n < 1:
        raise IndexError("threshold ratio needs n >= 1")
    d = float(ratio_window(system, n, n).log_threshold[0])
    return math.inf if d > _LOG_MAX_DOUBLE else math.exp(d)


def _tail_trend(values: np.ndarray, tail_len: int, slop: float = 1e-14) -> str:
    d = np.diff(values[-tail_len:])
    if len(d) == 0 or np.any(np.isnan(d)):
        return "mixed"
    if np.all(np.abs(d) <= slop):
        return "flat"
    if np.all(d >= -slop):
        return "increasing"
    if np.all(d <= slop):
        return "decreasing"
    return "mixed"


def _check_window(window_start: int, window_end: int):
    if window_start < 1 or window_start >= window_end:
        raise ValueError("window must satisfy 1 <= start < end")


def estimate_threshold(system: SystemSpec, window_start: int, window_end: int,
                       infinity_threshold: float = 1e6) -> ThresholdEstimate:
    """Estimate the liminf threshold ratio over an index window.

    The estimate is the windowed minimum; the ``diverging`` flag fires only
    for a monotonically increasing tail whose last value exceeds
    ``infinity_threshold``.  Both pieces are reported so a caller can refuse
    to overclaim a limit.
    """
    _check_window(window_start, window_end)
    return _threshold_from_window(ratio_window(system, window_start, window_end),
                                  infinity_threshold)


def _threshold_from_window(w: RatioWindow,
                           infinity_threshold: float) -> ThresholdEstimate:
    """``estimate_threshold`` over an already evaluated window."""
    logr = w.log_threshold
    with np.errstate(over="ignore"):
        value = float(np.exp(np.min(logr)))
        last = float(np.exp(logr[-1]))
    trend = _tail_trend(logr, max(2, min(len(logr), 25)))
    diverging = trend == "increasing" and last > infinity_threshold
    return ThresholdEstimate(value=value, diverging=diverging, trend=trend,
                             window=w.window, last_ratio=last,
                             infinity_threshold=infinity_threshold)
