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

DELTA = "delta"
DELTA_PRIME = "delta_prime"
KINDS = (DELTA, DELTA_PRIME)

LATTICE_KINDS = ("factorial", "power", "exponential", "explicit")
STRENGTH_KINDS = ("power", "constant", "explicit")

# exact factorial gaps n * n! up to n = 169 and positions n! up to n = 170,
# each the last one below double overflow (x_0 = 0)
_FACTORIAL_GAPS = np.array([1.0] + [float(n * math.factorial(n)) for n in range(1, 170)])
_FACTORIAL_POSITIONS = np.array([0.0] + [float(math.factorial(n)) for n in range(1, 171)])
_LOG_FACTORIAL_GAPS = np.log(_FACTORIAL_GAPS)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

_LOG_MAX_DOUBLE = math.log(np.finfo(float).max)

# largest max_index: window scans form indices as doubles, which are exact
# integers only up to 2^53
MAX_INDEX = 2**53


def _exp(x):
    """e^x elementwise, +inf past double range."""
    with np.errstate(over="ignore"):
        return np.exp(x)


def _log_expm1(y, out=None):
    """log(e^y - 1) for y > 0 without overflow: y + log(1 - e^-y)."""
    y = np.asarray(y, dtype=float)
    out = np.negative(y, out=out)
    np.expm1(out, out=out)
    np.negative(out, out=out)
    np.log(out, out=out)
    return np.add(y, out, out=out)


class _Workspace:
    """Named arrays of one length, float64 unless another dtype is asked
    for, each made at first use.

    A kernel passed one as ``work`` takes its index table (``indices``) and
    scratch (``a``, ``b``) from it and is done with them when it returns.
    ``_run_blocks`` gives each worker one for the length of its blocks, so
    only a worker's first block allocates them.
    """

    def __init__(self, size: int):
        self.size = size
        self._arrays = {}

    def array(self, name: str, dtype=float) -> np.ndarray:
        a = self._arrays.get(name)
        if a is None:
            a = self._arrays[name] = np.empty(self.size, dtype)
        return a

    def indices(self, first: int, count: int, out: np.ndarray) -> np.ndarray:
        """first, first + 1, ... as floats in out[:count]."""
        index = self._arrays.get("index")
        if index is None:
            index = self._arrays["index"] = np.arange(self.size, dtype=float)
        return np.add(index[:count], first, out=out[:count])


def _log_expm1_steps(y, scratch, out):
    """ln(e^y[k+1] - 1) - ln(e^y[k] - 1) + y[k] into out, via scratch."""
    z = _log_expm1(y, out=scratch)
    np.subtract(z[1:], z[:-1], out=out)
    out += y[:-1]
    return out


def _result(out, size: int) -> np.ndarray:
    """``out[:size]``, or a new float64 array when out is None."""
    return np.empty(size) if out is None else out[:size]


def _factorial_log_gaps(n_lo: int, n_hi: int) -> np.ndarray:
    """ln(n * n!) over [n_lo, n_hi], with gap(0) = 1.

    Indices up to 169 read the log of the exact gap table.  Beyond it the
    Stirling series (Abramowitz-Stegun 6.1.40) for ln(n * n!) =
    (n + 3/2) ln n - n + ln(2 pi)/2 + 1/(12n) - 1/(360n^3) + 1/(1260n^5)
    - 1/(1680n^7), with one log per element.  At n >= 170 the first omitted
    term is below 1e-23, far under the rounding of the result.
    """
    n_table = len(_LOG_FACTORIAL_GAPS)
    table = _LOG_FACTORIAL_GAPS[n_lo:n_hi + 1]
    if n_hi < n_table:
        return table.copy()
    ns = np.arange(max(n_lo, n_table), n_hi + 1, dtype=float)
    inv = 1.0 / ns
    inv2 = inv * inv
    series = inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (
        1.0 / 1260.0 - inv2 * (1.0 / 1680.0))))
    series += _HALF_LOG_2PI
    series -= ns
    out = np.log(ns)
    out *= ns + 1.5
    out += series
    return np.concatenate([table, out])


@dataclass(frozen=True)
class SparseSet:
    """Point set ``{x_n}`` with ``x_0 = 0`` and overflow-safe gap access.

    Generators:
      * ``factorial``:   x_n = n!  for n >= 1
      * ``power``:       x_n = c * n**p
      * ``exponential``: x_n = c * exp(q * n**r)  for n >= 1
      * ``explicit``:    a finite ascending tuple (0 prepended if missing)

    ``max_index`` caps the usable position index; gaps are defined for
    ``0 <= n <= max_index - 1``.  It is at most ``MAX_INDEX``.
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
            xs = np.array(pts)
            if not np.isfinite(xs).all():
                raise ValueError("explicit lattice points must be finite")
            diffs = np.diff(xs)
            if len(pts) < 2 or np.any(diffs <= 0):
                raise ValueError("explicit lattice must be strictly increasing above 0")
            object.__setattr__(self, "points", pts)
            object.__setattr__(self, "max_index", len(pts) - 1)
        else:
            if not 1 <= self.max_index <= MAX_INDEX:
                raise ValueError(f"max_index must be in [1, {MAX_INDEX}]")
            for name in {"power": "cp", "exponential": "cqr"}.get(self.kind, ""):
                if not math.isfinite(getattr(self, name)):
                    raise ValueError(f"{name} must be finite")
            if self.kind in ("power", "exponential") and self.c <= 0:
                raise ValueError("c must be positive")
            if self.kind == "power" and self.p <= 0:
                raise ValueError("p must be positive")
            if self.kind == "exponential" and (self.q <= 0 or self.r <= 0):
                raise ValueError("q and r must be positive")
            if self.kind in ("power", "exponential"):
                self._check_gaps_representable()

    def _check_gaps_representable(self):
        """Refuse gaps that round to 0.  Gap n >= 1 has the factor
        p log1p(1/n), or q ((n+1)^r - n^r), least at gap 1 or at gap
        max_index - 1: the log gap must be above -inf at both."""
        for n in sorted({1, self.max_index - 1}) if self.max_index > 1 else ():
            with np.errstate(all="ignore"):
                if self.log_gaps(n, n)[0] > -math.inf:
                    continue
            names = "p" if self.kind == "power" else "q and r"
            raise ValueError(f"{names} too small: gap {n} rounds to 0")

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

    def _check_gap_range(self, n_lo: int, n_hi: int):
        """Refuse a range [n_lo, n_hi] that is empty or leaves [0, max_index - 1]."""
        for n in (n_lo, n_hi):
            if not 0 <= n <= self.max_index - 1:
                raise IndexError(f"gap index {n} outside [0, {self.max_index - 1}]")
        if n_hi < n_lo:
            raise ValueError("empty index range")

    def position(self, n: int) -> float:
        """x_n as a double, +inf when not representable."""
        if not 0 <= n <= self.max_index:
            raise IndexError(f"position index {n} outside [0, {self.max_index}]")
        if n == 0:
            return 0.0
        if self.kind == "factorial":
            return (float(_FACTORIAL_POSITIONS[n]) if n < len(_FACTORIAL_POSITIONS)
                    else math.inf)
        if self.kind == "explicit":
            return self.points[n]
        try:
            if self.kind == "power":
                return self.c * float(n) ** self.p
            e = self.q * float(n) ** self.r
        except OverflowError:
            return math.inf
        return math.inf if e > _LOG_MAX_DOUBLE else self.c * math.exp(e)

    def positions(self, n_max: int) -> np.ndarray:
        """x_0 .. x_{n_max} as an array (entries may be +inf).

        Factorial and explicit positions are slices of the exact table and
        of the points, +inf beyond the table; the other generators stay
        scalar, so each entry is ``position``'s double (numpy's vectorized
        ``power`` and ``exp`` may round differently from libm's)."""
        if self.kind not in ("factorial", "explicit"):
            return np.array([self.position(n) for n in range(n_max + 1)])
        if n_max >= 0:
            self.position(n_max)  # the index check
        if self.kind == "explicit":
            xs = np.array(self.points[:max(n_max + 1, 0)], dtype=float)
            xs[:1] = 0.0  # x_0 as ``position`` spells it, whatever the sign of the first zero
            return xs
        xs = _FACTORIAL_POSITIONS[:max(n_max + 1, 0)]
        return np.concatenate([xs, np.full(max(n_max + 1 - len(xs), 0), math.inf)])

    def gap(self, n: int) -> float:
        """Gap x_{n+1} - x_n; +inf marks a value beyond double range."""
        return float(self.gaps(n, n)[0])

    def gaps(self, n_lo: int, n_hi: int) -> np.ndarray:
        """Vectorized gaps over inclusive index range [n_lo, n_hi].

        +inf marks a gap beyond double range.  Factorial and explicit gaps
        are exact; the other generators exponentiate ``log_gaps``.
        """
        self._check_gap_range(n_lo, n_hi)
        if self.kind == "factorial":
            ns = np.arange(n_lo, n_hi + 1)
            return np.where(ns < 170, _FACTORIAL_GAPS[np.minimum(ns, 169)], math.inf)
        if self.kind == "explicit":
            return np.diff(self.points[n_lo:n_hi + 2])
        return _exp(self.log_gaps(n_lo, n_hi))

    def log_gaps(self, n_lo: int, n_hi: int) -> np.ndarray:
        """Vectorized ln(gap) over inclusive index range [n_lo, n_hi]."""
        self._check_gap_range(n_lo, n_hi)
        if self.kind == "factorial":
            return _factorial_log_gaps(n_lo, n_hi)
        if self.kind == "explicit":
            return np.log(self.gaps(n_lo, n_hi))
        ns = np.arange(n_lo, n_hi + 1, dtype=float)
        out = np.empty_like(ns)
        pos = ns >= 1
        npos = ns[pos]
        if self.kind == "power":
            # gap(n) = c * n^p * ((1 + 1/n)^p - 1), +inf where p ln n is past range
            with np.errstate(over="ignore"):
                out[pos] = (math.log(self.c) + self.p * np.log(npos)
                            + _log_expm1(self.p * np.log1p(1.0 / npos)))
            out[~pos] = math.log(self.c)
            return out
        # exponential: gap(n) = c * exp(q n^r) * (exp(q dr) - 1), dr = (n+1)^r - n^r
        with np.errstate(over="ignore"):
            dr = npos ** self.r * np.expm1(self.r * np.log1p(1.0 / npos))
            out[pos] = (math.log(self.c) + self.q * npos ** self.r
                        + _log_expm1(self.q * dr))
        out[~pos] = math.log(self.c) + self.q
        return out

    def _check_ratio_range(self, n_lo: int, n_hi: int):
        if n_lo < 1:
            raise IndexError("gap ratios need n >= 1")
        self._check_gap_range(n_lo, n_hi)

    def log_gap_ratios(self, n_lo: int, n_hi: int, *, out=None,
                       work=None) -> np.ndarray:
        """Vectorized ln(gap(n) / gap(n-1)) over inclusive range [n_lo, n_hi].

        Each generator's ratio has a closed form in terms of m = n - 1, so no
        entry is the difference of two large logarithms; explicit lattices
        difference their gaps.  The first ratio gap(1)/gap(0) involves
        x_0 = 0, which no generator formula covers, and comes from log_gaps.

        With ``out`` (float64, at least N = n_hi - n_lo + 1 entries) the
        ratios are written to, and returned as, ``out[:N]``, by the same
        operations; ``work`` (a ``_Workspace`` of at least N + 1 entries)
        lends the index table and scratch, else the call makes its own.  On
        a factorial lattice with n_lo >= 2, ``work.array("a")[:N + 1]``
        holds ln m, m = n_lo - 1 .. n_hi, when the call returns.
        """
        self._check_ratio_range(n_lo, n_hi)
        size = n_hi - n_lo + 1
        out = _result(out, size)
        if self.kind == "explicit":
            log_gaps = self.log_gaps(n_lo - 1, n_hi)
            return np.subtract(log_gaps[1:], log_gaps[:-1], out=out)
        if n_lo == 1:
            out[0] = np.diff(self.log_gaps(0, 1))[0]
            if n_hi > 1:
                self.log_gap_ratios(2, n_hi, out=out[1:], work=work)
            return out
        if self.kind == "exponential" and self.r == 1.0:
            return self._ratio_steps(None, None, out)  # reads no indices
        work = work or _Workspace(size + 1)
        m = work.indices(n_lo - 1, size + 1, work.array("a"))
        scratch = None if self.kind == "factorial" else work.array("b")[:size + 1]
        return self._ratio_steps(m, scratch, out)

    def _log_gap_ratios_at(self, ns: np.ndarray) -> np.ndarray:
        """ln(gap(n) / gap(n-1)) at the float indices ns >= 2, by the
        operations of ``log_gap_ratios``: each n is the second of the pair
        n - 1, n, and the steps between pairs are discarded."""
        m = np.empty(2 * len(ns))
        np.subtract(ns, 1.0, out=m[0::2])
        m[1::2] = ns
        out = np.empty(len(m) - 1)
        return self._ratio_steps(m, np.empty_like(m), out)[0::2]

    def _ratio_steps(self, m: np.ndarray, scratch: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
        """ln(gap(m[k+1]) / gap(m[k])) into out (len(m) - 1 entries) for
        m >= 1, read as m[k+1] = m[k] + 1; m and scratch (None will do on a
        factorial lattice, which needs none) are overwritten."""
        if self.kind == "exponential" and self.r == 1.0:
            # gap(m) = c exp(q m) expm1(q): every ratio is e^q
            out.fill(self.q)
            return out
        if self.kind == "factorial":
            # gap(m) = m * m!, so gap(n) / gap(n-1) = n^2 / (n-1)
            log_m = np.log(m, out=m)
            np.multiply(2.0, log_m[1:], out=out)
            out -= log_m[:-1]
            return out
        if self.kind == "power":
            # gap(m) = c m^p expm1(p log1p(1/m))
            y = np.divide(1.0, m, out=scratch)
            np.log1p(y, out=y)
            np.multiply(self.p, y, out=y)
            return _log_expm1_steps(y, m, out)
        # gap(m) = c exp(q m^r) expm1(q dr(m)), where for r != 1
        # dr(m) = (m+1)^r - m^r = m^r expm1(r log1p(1/m))
        with np.errstate(over="ignore", invalid="ignore"):
            z = np.divide(1.0, m, out=scratch)
            np.log1p(z, out=z)
            np.multiply(self.r, z, out=z)
            np.expm1(z, out=z)
            y = np.power(m, self.r, out=m)
            np.multiply(self.q, y, out=y)
            np.multiply(y, z, out=y)
            return _log_expm1_steps(y, z, out)

    @property
    def log_ratio_direction(self) -> int | None:
        """How ln(gap(n) / gap(n-1)) moves with n from n = 2 on: 1 up, 0
        constant, -1 down, None not known (``window_scan`` has the proofs)."""
        if self.kind == "factorial":
            return 1
        if self.kind == "power":
            return int(self.p < 1) - int(self.p > 1)
        if self.kind == "exponential" and self.r == 1.0:
            return 0
        return None

    def _ratio_error_scale(self, n_hi: int) -> float:
        """s with |ratio| <= s and the ratio's rounding error at most
        2^-49 s over 2 <= n <= n_hi, for a lattice with a direction
        (``window_scan`` has the proof)."""
        if self.kind == "factorial":
            return 3.0 * math.log(n_hi)
        if self.kind == "power":
            return 5.0 + 7.0 * self.p + 3.0 * max(math.log((n_hi + 1) / self.p), 0.0)
        return self.q  # exponential with r = 1: e^q exactly


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

    def _check_range(self, n_lo: int, n_hi: int):
        if n_lo < 1 or n_hi < n_lo:
            raise IndexError("invalid strength index range")
        if self.kind == "explicit" and n_hi > len(self.values):
            raise IndexError(f"strength index {n_hi} beyond explicit list")

    def _check_representable(self, n_lo: int, n_hi: int):
        """``_check_range``, then raise OverflowError naming the first n in
        [n_lo, n_hi] whose alpha_n is past double range.  Only power
        strengths with p > 0 get there, monotonically in n, so it bisects."""
        self._check_range(n_lo, n_hi)

        def past(n):  # alpha_n by the ufuncs of ``alphas``
            with np.errstate(over="ignore"):
                return not np.isfinite(self.c * np.power(np.array([n], float), self.p))[0]

        if self.kind != "power" or self.c == 0 or not past(n_hi):
            return
        lo, hi = n_lo - 1, n_hi  # alpha_hi is past double range, alpha_lo not
        while hi - lo > 1:
            n = (lo + hi) // 2
            lo, hi = (lo, n) if past(n) else (n, hi)
        raise OverflowError(f"|alpha_n| is past double range from n={hi}")

    def alphas(self, n_lo: int, n_hi: int, *, out=None, work=None) -> np.ndarray:
        """alpha_n over inclusive range [n_lo, n_hi], n_lo >= 1.

        ``out`` and ``work`` as for ``SparseSet.log_gap_ratios`` (here
        ``work`` needs N entries).  An alpha_n past double range raises
        OverflowError (``_check_representable``).
        """
        self._check_representable(n_lo, n_hi)
        size = n_hi - n_lo + 1
        out = _result(out, size)
        if self.kind == "power" and self.c != 0:
            ns = (work or _Workspace(size)).indices(n_lo, size, out)
            np.power(ns, self.p, out=out)
            return np.multiply(self.c, out, out=out)
        if self.kind != "explicit":  # constant, or power with c = 0 for any p
            out.fill(self.c)
            return out
        out[:] = self.values[n_lo - 1:n_hi]
        return out

    def log_abs_alphas(self, n_lo: int, n_hi: int, *, out=None,
                       work=None, log_n=None) -> np.ndarray:
        """ln|alpha_n| over [n_lo, n_hi]; -inf where alpha_n = 0.

        ``out`` and ``work`` as for ``alphas``.  ``log_n``, np.log of the
        float indices n_lo .. n_hi, spares power strengths that log.
        """
        self._check_range(n_lo, n_hi)
        if self.kind == "power" and self.c != 0:
            size = n_hi - n_lo + 1
            out = _result(out, size)
            if log_n is None:
                ns = (work or _Workspace(size)).indices(n_lo, size, out)
                log_n = np.log(ns, out=out)
            return self._power_log_abs(log_n, out)
        out = self.alphas(n_lo, n_hi, out=out, work=work)
        np.abs(out, out=out)
        with np.errstate(divide="ignore"):
            return np.log(out, out=out)

    def _power_log_abs(self, log_n: np.ndarray, out: np.ndarray) -> np.ndarray:
        """ln|c| + p ln n into out, for power strengths with c != 0."""
        np.multiply(self.p, log_n, out=out)
        return np.add(math.log(abs(self.c)), out, out=out)

    def _log_abs_alphas_at(self, ns: np.ndarray) -> np.ndarray:
        """ln|alpha_n| at the float indices ns, by the operations of
        ``log_abs_alphas``; power and constant strengths only."""
        if self.kind == "power" and self.c != 0:
            return self._power_log_abs(np.log(ns), np.empty_like(ns))
        out = np.full_like(ns, self.c)
        np.abs(out, out=out)
        with np.errstate(divide="ignore"):
            return np.log(out, out=out)

    @property
    def _sign_of_c(self) -> bool:
        """Whether every alpha_n has the sign of c, so none needs reading for
        it: |c n^p| >= |c| for n >= 1 when p >= 0, so none rounds to 0."""
        return self.kind == "constant" or (self.kind == "power" and self.p >= 0)

    @property
    def log_abs_direction(self) -> int | None:
        """How ln|alpha_n| moves with n >= 1: 1 up, 0 constant, -1 down,
        None not known.  ln|c| + p ln n goes the way of p; -inf at c = 0."""
        if self.kind == "explicit":
            return None
        if self.kind == "power" and self.c != 0:
            return int(self.p > 0) - int(self.p < 0)
        return 0

    def _log_abs_error_scale(self, n_hi: int) -> float:
        """s with |ln|alpha_n|| <= s and its rounding error at most 2^-49 s
        over 1 <= n <= n_hi, for power and constant strengths (inf at c = 0)."""
        if self.c == 0:
            return math.inf
        p = self.p if self.kind == "power" else 0.0
        return abs(math.log(abs(self.c))) + abs(p) * math.log(n_hi)


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


WINDOW_BLOCK = 2**16  # indices per block of a window scan
_TREND_LEN = 25  # tail entries behind the trend diagnostics
_TAIL_SLOP = 1e-12  # a ratio tail may step down this much and stay nondecreasing
_TREND_SLOP = 1e-14  # unlike _TAIL_SLOP until ROADMAP item 5 ties both to the rounding floor


def _check_lambda(lam: float):
    if not lam > 0:
        raise ValueError(f"energy must be positive, got {lam}")


def _effective_lambda(system: SystemSpec, lam0: float) -> float:
    """The energy a kind's coupling factors read: lam0 for delta, 1/lam0 else."""
    _check_lambda(lam0)
    return lam0 if system.kind == DELTA else 1.0 / lam0


@dataclass(frozen=True)
class WindowScan:
    """What the verdicts read of one index window, from a single pass.

    Of the N indices n in ``window``, ``log_sparse``, ``abs_alphas`` and
    ``log_threshold`` keep the last min(N, 25): ln(gap(n)/gap(n-1)),
    |alpha_n| and the log threshold ratio ln(gap(n) / (gap(n-1) alpha_n^2)).
    ``min_log_threshold`` is the least log threshold ratio of the window and
    ``all_positive`` whether every alpha_n > 0.  Entry k of ``tail_min`` and
    ``tail_nondecreasing`` describes the log d'Alembert ratios
    ln(gap(n)/gap(n-1)) - 2 ln(1 + |alpha_n| / sqrt(lam)) at the k-th probe
    energy (lam its effective energy) over n from ``tail_start`` (or the
    window start, if later) to the window end.  A settled energy (see
    ``window_scan``) holds NaN and False there.
    """

    window: tuple[int, int]
    min_log_threshold: float
    all_positive: bool
    log_sparse: np.ndarray
    abs_alphas: np.ndarray
    log_threshold: np.ndarray
    tail_start: int
    tail_min: tuple[float, ...]
    tail_nondecreasing: tuple[bool, ...]


def window_scan(system: SystemSpec, n_lo: int, n_hi: int, lams=(),
                tail_fraction: float = 0.5, *, settle: bool = False) -> WindowScan:
    """Scan [n_lo, n_hi] (n_lo >= 1) once, a block of indices at a time.

    The tail is the last max(2, ceil(N * tail_fraction)) of the N indices.
    Blocks of ``WINDOW_BLOCK`` indices are laid out from n_hi down, so only
    the block at n_lo is partial, and are dealt round-robin to one thread
    per usable CPU; numpy releases the GIL in its loops.  Each index is
    evaluated at most once, and the result does not depend on the thread
    count: minima and flags combine exactly, and a tail is nondecreasing
    when each block's part is and no step across a block boundary falls.

    With ``settle``, which only ``classify`` sets, a block whose part of an
    energy's tail steps down by more than ``_TAIL_SLOP`` settles that
    energy: the tail is not nondecreasing, so its verdict is known, and the
    blocks after it skip the energy.  A settled energy's ``tail_min`` is
    NaN, never a partial minimum, so which blocks evaluated it leaves no
    trace.  Without ``settle`` every tail minimum is exact.

    Branch and bound (Land-Doig, Econometrica 28, 1960) skips the blocks
    that provably cannot hold the least log threshold ratio
    T(n) = S(n) - 2 A(n), S(n) = ln(gap(n)/gap(n-1)), A(n) = ln|alpha_n|.
    Where S and A are monotone in n, min T over a block [lo, hi] is at least
    min(S(lo), S(hi)) - 2 max(A(lo), A(hi)), so one vectorized pass over the
    blocks' end indices, by the kernels the blocks run, bounds every block.
    A block runs if it is the last (it keeps the trailing entries), holds
    n = 1 (S(1) reads x_0 = 0, which no direction covers), lies in the tail
    while an energy is live (every tail block without ``settle``), or has
    its bound at or below the least T at the ends, which the window's least
    T cannot exceed; the rest are never evaluated.  A skipped block's least
    computed T is above that least, so ``min_log_threshold``, the tails and
    the trailing entries keep their bits, and which blocks ran, and on how
    many threads, leaves no trace.  Only families with known directions
    where the sign of c is every alpha_n's (constant strengths, power
    strengths with p >= 0; see ``_scan_block``) are bounded; any other
    system, a one-block window and a two-block one starting at n = 1 run
    every block with no bound work.

    Directions from n = 2 on (``SparseSet.log_ratio_direction``,
    ``StrengthSequence.log_abs_direction``):

    * factorial: S = 2 ln n - ln(n-1), of derivative (n-2)/(n(n-1)) >= 0:
      increasing.
    * power: gap(m) = c g(m), g(m) = (m+1)^p - m^p = int_0^1 f(m+t) dt with
      f(x) = p x^(p-1).  For p >= 1 f is log-concave, and so is g, a
      marginal of the log-concave f(m+t) 1[0<=t<=1] (Prekopa, Acta Sci.
      Math. 34, 1973): S(n) = ln(g(n)/g(n-1)) decreases.  For p <= 1 f is
      log-convex, and so is g, an integral of log-convex functions of m:
      S increases.  At p = 1, S = 0.
    * exponential with r = 1: gap(m) = c e^(q m) (e^q - 1) for m >= 1, so
      S = q, which the kernel writes exactly.  Other r, and explicit
      lattices, have no direction.
    * strengths: A = ln|c| + p ln n goes the way of p (constant: p = 0).

    The margin.  numpy's log, log1p and expm1 loops err by at most 4 ulp,
    a relative 2^-50, and +, -, *, / by 2^-53.  Each family gives a scale
    s_S (``SparseSet._ratio_error_scale``) with |S| <= s_S and S's error at
    most 2^-49 s_S over the window:

    * factorial: 2 ln n and ln(n-1) err by 2^-50 each relatively, and the
      difference by 2^-53: at most 3.25 2^-50 ln n, so s_S = 3 ln n_hi.
    * power: y = p log1p(1/m) errs by at most 1.3 2^-50 y (the condition
      number of log1p is at most 1), z = y + ln(1 - e^-y) by at most
      2^-50 (2.4 + 1.5 y + 1.2 |d|), d = ln(1 - e^-y), as dz/dy =
      1/(1 - e^-y) <= (1 + y)/y, and S = z(m+1) - z(m) + y(m) by at most
      2^-50 (4.8 + 5.1 Y + 2.9 D) with Y = max y <= p ln 2 and
      D = max |d| <= Y + max(0, ln((n_hi + 1)/p)), since 1 - e^-y >= y e^-y
      and y >= p/(m+1): s_S = 5 + 7p + 3 max(0, ln((n_hi + 1)/p)).
    * exponential with r = 1: S = q exactly, s_S = q.
    * strengths: A errs by at most 1.25 2^-50 s_A, s_A = |ln|c|| +
      |p| ln n_hi (``StrengthSequence._log_abs_error_scale``).

    A computed T, a block's or an end's, is then within
    E = 2^-49 (s_S + 2 s_A) + 2^-53 (s_S + 2 s_A) of the exact T.  The
    margin mu = 2^-46 (s_S + s_A) is more than 1.8 times the
    2E + 2^-53 (s_S + 2 s_A) that each side of the comparison needs (an end
    and an index each err by E, and the side rounds once), so each
    block's bound min(S(lo), S(hi)) - 2 max(A(lo), A(hi)) - mu is below
    every T it computes, and the least T at the ends plus mu is above the
    window's least computed T: a skipped block's computed T are all above
    the least computed T of the blocks that ran.  A NaN bound or end
    compares False and the block runs.
    """
    system.lattice._check_ratio_range(n_lo, n_hi)
    # the blocks read ln|alpha_n|, and form alpha_n only in the tail: refuse upfront
    system.strengths._check_representable(n_lo, n_hi)
    scales = [math.sqrt(_effective_lambda(system, lam)) for lam in lams]
    tail_start = n_hi - max(2, int(math.ceil((n_hi - n_lo + 1) * tail_fraction))) + 1
    tail_lo = max(tail_start, n_lo)
    n_blocks = -(-(n_hi - n_lo + 1) // WINDOW_BLOCK)
    # one flag per energy, shared by the workers: a flag is only ever set, so
    # a worker that reads it before another sets it only repeats work
    settled = [False] * len(scales) if settle else None
    # the blocks that may hold the least ratio run first, then the other
    # tail blocks, each only while an energy is live; the rest never run
    may_hold = _may_hold_minimum(system, n_lo, n_hi, n_blocks)
    first_tail = n_blocks - 1 - (n_hi - tail_lo) // WINDOW_BLOCK
    order = [i for i in range(n_blocks) if may_hold[i]]
    n_needed = len(order)
    if scales:
        order += [i for i in range(first_tail, n_blocks) if not may_hold[i]]

    def block(j: int, ws: _Workspace):
        if j >= n_needed and settled and all(settled):
            return None
        i = order[j]
        hi = n_hi - (n_blocks - 1 - i) * WINDOW_BLOCK
        return _scan_block(system, max(n_lo, hi - WINDOW_BLOCK + 1), hi,
                           tail_lo, scales, i == n_blocks - 1, ws, settled)

    parts = _run_blocks(block, len(order), min(n_hi - n_lo + 1, WINDOW_BLOCK) + 1)
    parts = [part for _, part in sorted(zip(order, parts)) if part is not None]
    mins, positive, block_tails, trailing = zip(*parts)
    tail_min, nondecreasing = [], []
    for k in range(len(scales)):
        if settled and settled[k]:
            tail_min.append(math.nan)
            nondecreasing.append(False)
            continue
        tails = [t[k] for t in block_tails if t]  # (min, rising, first, last)
        tail_min.append(float(np.min([t[0] for t in tails])))
        nondecreasing.append(all(t[1] for t in tails) and all(
            b[2] - a[3] >= -_TAIL_SLOP for a, b in zip(tails, tails[1:])))
    log_sparse, abs_alphas, log_threshold = trailing[-1]
    return WindowScan(window=(n_lo, n_hi), min_log_threshold=float(np.min(mins)),
                      all_positive=all(positive),
                      log_sparse=log_sparse, abs_alphas=abs_alphas,
                      log_threshold=log_threshold, tail_start=tail_start,
                      tail_min=tuple(tail_min),
                      tail_nondecreasing=tuple(nondecreasing))


def _may_hold_minimum(system: SystemSpec, n_lo: int, n_hi: int,
                      n_blocks: int) -> list[bool]:
    """Per block of ``window_scan``, whether it may hold the window's least
    log threshold ratio: False only where the block's lower bound is above
    the least ratio at the blocks' ends (``window_scan`` has the proof)."""
    lattice, strengths = system.lattice, system.strengths
    may_hold = [True] * n_blocks
    first = 1 if n_lo == 1 else 0  # block 0 holds n = 1, whose ratio reads x_0
    if (n_blocks - first < 2 or lattice.log_ratio_direction is None
            or strengths.log_abs_direction is None or not strengths._sign_of_c):
        return may_hold
    margin = 2.0**-46 * (lattice._ratio_error_scale(n_hi)
                         + strengths._log_abs_error_scale(n_hi))
    if not math.isfinite(margin):  # c = 0: every ratio is +inf
        return may_hold
    his = n_hi - WINDOW_BLOCK * np.arange(n_blocks - 1 - first, -1, -1, dtype=float)
    ends = np.concatenate([np.maximum(his - (WINDOW_BLOCK - 1), n_lo), his])
    log_sparse = lattice._log_gap_ratios_at(ends)
    log_abs = strengths._log_abs_alphas_at(ends)
    ratios = -2.0 * log_abs
    ratios += log_sparse
    k = len(his)  # ends[:k] are the blocks' first indices, ends[k:] their last
    bounds = np.minimum(log_sparse[:k], log_sparse[k:])
    bounds -= 2.0 * np.maximum(log_abs[:k], log_abs[k:])
    bounds -= margin
    least = np.min(ratios) + margin
    may_hold[first:-1] = (~(bounds[:-1] > least)).tolist()
    return may_hold


def _scan_block(system: SystemSpec, lo: int, hi: int, tail_lo: int, scales,
                last: bool, ws: _Workspace, settled=None):
    """One block's share of ``window_scan``, in the worker's workspace.

    Returns the least log threshold ratio, whether every alpha_n > 0, per
    energy (min, nondecreasing, first, last) of the block's part of the
    tail, and for the last block its trailing entries.  ``settled`` is the
    scan's list of settled flags, or None when no energy settles: a settled
    energy's entry is None, and a falling part settles its energy.  |alpha_n|
    is evaluated only where a live energy's tail or the trailing entries
    read it, unless its sign must be read off every entry.
    """
    strengths = system.strengths
    n = hi - lo + 1
    log_sparse = system.lattice.log_gap_ratios(lo, hi, out=ws.array("sparse"), work=ws)
    # a factorial block leaves ln m, m = lo - 1 .. hi, in the scratch "a"
    log_n = ws.array("a")[1:n + 1] if system.lattice.kind == "factorial" and lo > 1 else None
    log_threshold = strengths.log_abs_alphas(lo, hi, out=ws.array("threshold"), work=ws,
                                             log_n=log_n)
    log_threshold *= -2.0
    log_threshold += log_sparse
    tail = max(tail_lo - lo, 0) if hi >= tail_lo else n  # block offset of the tail
    live = [k for k in range(len(scales)) if not (settled and settled[k])]
    sign_of_c = strengths._sign_of_c
    if sign_of_c:
        positive = strengths.c > 0
        first = tail if live else n
        if last:
            first = max(min(first, n - _TREND_LEN), 0)
    else:
        first = 0
    if first < n:  # the block offset of the first |alpha_n| read
        abs_alphas = strengths.alphas(lo + first, hi, out=ws.array("alphas"), work=ws)
        if not sign_of_c:
            flags = ws.array("flags", dtype=bool)[:n]
            positive = bool(np.greater(abs_alphas, 0.0, out=flags).all())
        np.abs(abs_alphas, out=abs_alphas)
    tails = []
    if tail < n and live:
        abs_tail, sparse_tail = abs_alphas[tail - first:], log_sparse[tail:]
        t, steps = ws.array("a")[:n - tail], ws.array("b")[:n - tail - 1]
        tails = [None] * len(scales)
        for k in live:
            if settled and settled[k]:  # by another worker since this block began
                continue
            rising = _tail_part(abs_tail, sparse_tail, scales[k], t, steps)
            if settled is not None and not rising:
                settled[k] = True
            else:
                tails[k] = (np.min(t), rising, t[0], t[-1])
    trailing = None
    if last:
        trailing = tuple(a[-_TREND_LEN:].copy() for a in
                         (log_sparse, abs_alphas, log_threshold))
    return np.min(log_threshold), positive, tails, trailing


def _log_dalembert(abs_alphas, log_sparse, scale: float, out) -> np.ndarray:
    """Log d'Alembert ratios log_sparse - 2 ln(1 + abs_alphas / scale) into
    out, +-inf past double range and NaN where +inf meets -inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(abs_alphas, scale, out=out)
        np.log1p(out, out=out)
        out *= -2.0
        out += log_sparse
    return out


def _tail_part(abs_alphas, log_sparse, scale: float, out, steps) -> bool:
    """``_log_dalembert`` into out, and whether no step between them falls by
    more than ``_TAIL_SLOP`` (a NaN step falls); ``steps`` is scratch."""
    _log_dalembert(abs_alphas, log_sparse, scale, out)
    with np.errstate(invalid="ignore"):  # inf - inf step
        np.subtract(out[1:], out[:-1], out=steps)
    return not len(steps) or bool(steps.min() >= -_TAIL_SLOP)  # min keeps NaN


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _run_blocks(block, n_blocks: int, size: int) -> list:
    """``[block(i, ws) for i in range(n_blocks)]``, block i on worker i mod W.

    W is ``_usable_cpus()``, at most n_blocks; the caller is worker 0 and so
    evaluates block 0, and a single block starts no thread.  Each worker
    makes one ``_Workspace(size)`` for all of its blocks, dropped when the
    call returns.  Each worker runs in a copy of the caller's context, so
    numpy error settings carry over, and the first error a worker raised is
    raised again here once every worker has ended.  Two callers:
    ``window_scan``, whose blocks fill the workspace, and ``cli._row_blocks``,
    one round of a kernel table's blocks a call, which needs none.
    """
    import contextvars  # only the window scan and table rounds need these
    import threading

    workers = min(_usable_cpus(), n_blocks)
    parts = [None] * n_blocks
    errors = []

    def work(first: int):
        ws = _Workspace(size)
        for i in range(first, n_blocks, workers):
            parts[i] = block(i, ws)

    def guarded(first: int):
        try:
            work(first)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(guarded, k)) for k in range(1, workers)]
    for t in threads:
        t.start()
    try:
        work(0)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return parts


def threshold_ratio(system: SystemSpec, n: int) -> float:
    """Ratio gap(n) / (gap(n-1) * alpha_n^2), the classification quantity.

    Returns +inf when alpha_n = 0. Computed in log space so factorial-scale
    gaps cannot overflow.
    """
    if n < 1:
        raise IndexError("threshold ratio needs n >= 1")
    d = float(window_scan(system, n, n).log_threshold[-1])
    return math.inf if d > _LOG_MAX_DOUBLE else math.exp(d)


def _tail_trend(values: np.ndarray) -> str:
    """Trend of the trailing entries a ``WindowScan`` keeps."""
    with np.errstate(invalid="ignore"):  # inf - inf: nan, read as mixed
        d = np.diff(values)
    if len(d) == 0 or np.any(np.isnan(d)):
        return "mixed"
    if np.all(np.abs(d) <= _TREND_SLOP):
        return "flat"
    if np.all(d >= -_TREND_SLOP):
        return "increasing"
    if np.all(d <= _TREND_SLOP):
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
    return _threshold_from_scan(window_scan(system, window_start, window_end),
                                infinity_threshold)


def _threshold_from_scan(w: WindowScan,
                         infinity_threshold: float) -> ThresholdEstimate:
    """``estimate_threshold`` over an already scanned window."""
    logr = w.log_threshold
    value = float(_exp(w.min_log_threshold))
    last = float(_exp(logr[-1]))
    trend = _tail_trend(logr)
    diverging = trend == "increasing" and last > infinity_threshold
    return ThresholdEstimate(value=value, diverging=diverging, trend=trend,
                             window=w.window, last_ratio=last,
                             infinity_threshold=infinity_threshold)
