"""Log-domain growth accounting and divergence tests.

Everything here lives in log space: the running coupling products, the series
terms ``gap_n / product_n^2``, and the partial sums (via log-sum-exp), since
factorial gaps and growing strengths overflow doubles almost immediately.

Kind convention: for a delta system the coupling factor at energy ``lam`` is
``1 + |alpha_i| / sqrt(lam)``; a delta-prime system is analyzed through the
same product evaluated at ``1/lam``, i.e. factors ``1 + |alpha_i| sqrt(lam)``.
Operations taking a system apply this substitution themselves;
``log_coupling_product`` takes the energy argument at face value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .lattice import DELTA, RatioWindow, SystemSpec, _check_window, ratio_window
from .transfer import DIRICHLET_START, diagonalizer, operator_norm, propagate


def _effective_lambda(system: SystemSpec, lam0: float) -> float:
    if not lam0 > 0:
        raise ValueError(f"energy must be positive, got {lam0}")
    return lam0 if system.kind == DELTA else 1.0 / lam0


def _log_factors(system: SystemSpec, lam_eff: float, n_lo: int, n_hi: int) -> np.ndarray:
    """log(1 + |alpha_i| / sqrt(lam_eff)) for i in [n_lo, n_hi]."""
    alphas = system.strengths.alphas(n_lo, n_hi)
    return np.log1p(np.abs(alphas) / math.sqrt(lam_eff))


def log_coupling_product(system: SystemSpec, lam: float, n: int) -> float:
    """log of the running product of (1 + |alpha_i|/sqrt(lam)), i = 1..n.

    The empty product (n = 0) is 1.  Callers analyzing a delta-prime system
    pass 1/lam to get the matching product.
    """
    if not lam > 0:
        raise ValueError(f"energy must be positive, got {lam}")
    if n < 0:
        raise IndexError("product length must be >= 0")
    if n == 0:
        return 0.0
    return float(np.sum(_log_factors(system, lam, 1, n)))


@dataclass(frozen=True)
class GrowthProfile:
    """Per-index log quantities for a system at a fixed probe energy.

    ``log_norms`` is filled only when direct propagation was feasible.
    """

    lam0: float
    log_gaps: np.ndarray
    log_products: np.ndarray
    terms: np.ndarray
    log_norms: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.log_gaps)
        if len(self.log_products) != n or len(self.terms) != n:
            raise ValueError("profile arrays must have equal length")
        if self.log_products[0] != 0.0:
            raise ValueError("empty product must have zero log")


def series_terms(system: SystemSpec, lam0: float, n_max: int) -> GrowthProfile:
    """Log series terms log(gap_n) - 2*log(product_n) for n = 0..n_max."""
    lam_eff = _effective_lambda(system, lam0)
    log_gaps = system.lattice.log_gaps(0, n_max)
    log_products = np.zeros(n_max + 1)
    if n_max >= 1:
        log_products[1:] = np.cumsum(_log_factors(system, lam_eff, 1, n_max))
    return GrowthProfile(lam0=lam0, log_gaps=log_gaps,
                         log_products=log_products,
                         terms=log_gaps - 2.0 * log_products)


def _log_dalembert_tail(system: SystemSpec, lam0: float, w: RatioWindow,
                        tail_len: int) -> np.ndarray:
    """Log term ratios of the divergence series over the last tail_len indices."""
    s = math.sqrt(_effective_lambda(system, lam0))
    out = np.log1p(w.abs_alphas[-tail_len:] / s)
    out *= -2.0
    out += w.log_sparse[-tail_len:]
    return out


def log_dalembert_ratios(system: SystemSpec, lam0: float, n_lo: int,
                         n_hi: int) -> np.ndarray:
    """Log consecutive-term ratios of the divergence series, n in [n_lo, n_hi]."""
    return _log_dalembert_tail(system, lam0, ratio_window(system, n_lo, n_hi),
                               n_hi - n_lo + 1)


def dalembert_ratio(system: SystemSpec, lam0: float, n: int) -> float:
    """Exact consecutive-term ratio of the divergence series at index n."""
    lr = float(log_dalembert_ratios(system, lam0, n, n)[0])
    return math.exp(lr) if lr < 700.0 else math.inf


@dataclass(frozen=True)
class DivergenceVerdict:
    """Outcome of the windowed ratio test.

    ``diverges`` means the tail ratios stayed above 1 + margin with a
    nondecreasing trend.  The test is one-sided: a small ratio proves
    nothing, so the only other verdict is ``inconclusive``.
    """

    verdict: str
    liminf_ratio_estimate: float
    window: tuple[int, int]
    tail_start: int
    margin: float


def series_verdict(system: SystemSpec, lam0: float, window: tuple[int, int],
                   margin: float = 0.05,
                   tail_fraction: float = 0.5) -> DivergenceVerdict:
    """Ratio test for divergence of the growth series over an index window.

    The verdict is computed on the tail portion of the window (last
    ``tail_fraction`` of the indices): divergence requires every tail ratio
    above ``1 + margin`` and a nondecreasing tail.
    """
    _check_window(*window)
    return _verdict_from_window(system, lam0, ratio_window(system, *window),
                                margin, tail_fraction)


def _verdict_from_window(system: SystemSpec, lam0: float, w: RatioWindow,
                         margin: float = 0.05,
                         tail_fraction: float = 0.5) -> DivergenceVerdict:
    """``series_verdict`` over an already evaluated window."""
    n_lo, n_hi = w.window
    tail_len = max(2, int(math.ceil((n_hi - n_lo + 1) * tail_fraction)))
    tail = _log_dalembert_tail(system, lam0, w, tail_len)
    tail_min = np.min(tail)
    with np.errstate(over="ignore"):
        est = float(np.exp(tail_min))
    nondecreasing = bool(np.all(np.diff(tail) >= -1e-12))
    diverges = nondecreasing and tail_min > math.log1p(margin)
    return DivergenceVerdict(verdict="diverges" if diverges else "inconclusive",
                             liminf_ratio_estimate=est, window=(n_lo, n_hi),
                             tail_start=n_hi - tail_len + 1, margin=margin)


def _norms(vecs: np.ndarray) -> np.ndarray:
    """Euclidean row norms of boundary vectors, finite for every finite row."""
    return np.hypot(np.abs(vecs[:, 0]), np.abs(vecs[:, 1]))


@dataclass(frozen=True)
class BoundCheck:
    """Result of checking the propagation lower bound against the product."""

    c_lambda: float
    min_slack: float
    passed: bool


def lower_bound_check(system: SystemSpec, lam: float, n_max: int,
                      xi0=DIRICHLET_START) -> BoundCheck:
    """Verify ||xi_n|| >= c * ||xi_0|| / product_n along a direct propagation.

    The constant is c = 1 / (||U|| * ||U_inv||) with U the diagonalizing
    basis change.  Feasible only while propagation stays in double range.
    """
    lam_eff = _effective_lambda(system, lam)
    u, u_inv = diagonalizer(lam)
    c = 1.0 / (operator_norm(u) * operator_norm(u_inv))
    vecs = propagate(system, lam, xi0, n_max)
    norms = _norms(vecs)
    if n_max >= 1:
        log_products = np.cumsum(_log_factors(system, lam_eff, 1, n_max))
        slack = norms[1:] * np.exp(log_products) / (c * norms[0])
        min_slack = float(np.min(slack))
    else:
        min_slack = math.inf
    return BoundCheck(c_lambda=c, min_slack=min_slack,
                      passed=min_slack >= 1.0 - 1e-9)


def weighted_norm_sum(system: SystemSpec, lam: float, n_max: int,
                      xi0=DIRICHLET_START) -> float:
    """log of sum over n = 0..n_max of gap_n * ||xi_n||^2, via log-sum-exp."""
    vecs = propagate(system, lam, xi0, n_max)
    log_norms = np.log(_norms(vecs))
    log_gaps = system.lattice.log_gaps(0, n_max)
    return float(logsumexp(log_gaps + 2.0 * log_norms))


def propagation_profile(system: SystemSpec, lam0: float,
                        n_max: int) -> GrowthProfile:
    """Series terms plus directly propagated log vector norms.

    Requires the propagation to stay representable up to n_max; beyond that
    range only the log-domain quantities of ``series_terms`` exist.
    """
    prof = series_terms(system, lam0, n_max)
    vecs = propagate(system, lam0, DIRICHLET_START, n_max)
    log_norms = np.log(_norms(vecs))
    return GrowthProfile(lam0=lam0, log_gaps=prof.log_gaps,
                         log_products=prof.log_products, terms=prof.terms,
                         log_norms=log_norms)
