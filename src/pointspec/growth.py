"""Log-domain growth accounting and divergence tests.

Everything here lives in log space: the running coupling products and the
series terms ``gap_n / product_n^2``, since factorial gaps and growing
strengths overflow doubles almost immediately.

Kind convention: for a delta system the coupling factor at energy ``lam`` is
``1 + |alpha_i| / sqrt(lam)``; a delta-prime system is analyzed through the
same product evaluated at ``1/lam``, i.e. factors ``1 + |alpha_i| sqrt(lam)``.
Operations taking a system apply this substitution themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (SystemSpec, WindowScan, _check_window, _effective_lambda,
                      _exp, _log_dalembert, window_scan)
from .transfer import DIRICHLET_START, _log_norm, diagonalizer, operator_norm, propagate


def _log_products(system: SystemSpec, lam_eff: float, n_max: int) -> np.ndarray:
    """0, then sum_{i <= n} ln(1 + |alpha_i| / sqrt(lam_eff)) for n = 1..n_max,
    the log coupling products; an alpha_i past double range raises OverflowError."""
    out = np.zeros(n_max + 1)
    if n_max >= 1:
        alphas = system.strengths.alphas(1, n_max)
        with np.errstate(over="ignore"):
            np.cumsum(np.log1p(np.abs(alphas) / math.sqrt(lam_eff)), out=out[1:])
    return out


@dataclass(frozen=True)
class GrowthProfile:
    """Per-index log quantities for a system at a fixed probe energy."""

    lam0: float
    log_gaps: np.ndarray
    log_products: np.ndarray
    terms: np.ndarray

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
    log_products = _log_products(system, lam_eff, n_max)
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, the term is indeterminate
        return GrowthProfile(lam0=lam0, log_gaps=log_gaps,
                             log_products=log_products,
                             terms=log_gaps - 2.0 * log_products)


def log_dalembert_ratios(system: SystemSpec, lam0: float, n_lo: int,
                         n_hi: int) -> np.ndarray:
    """Log consecutive-term ratios of the divergence series, n in [n_lo, n_hi].

    Entry n is ln(gap(n)/gap(n-1)) - 2 ln(1 + |alpha_n| / sqrt(lam_eff)),
    by ``window_scan``'s own ``_log_dalembert``.
    """
    log_sparse = system.lattice.log_gap_ratios(n_lo, n_hi)
    scale = math.sqrt(_effective_lambda(system, lam0))
    abs_alphas = np.abs(system.strengths.alphas(n_lo, n_hi))
    return _log_dalembert(abs_alphas, log_sparse, scale, abs_alphas)


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
    return _verdict_from_scan(window_scan(system, *window, (lam0,), tail_fraction),
                              0, margin)


def _verdict_from_scan(w: WindowScan, k: int, margin: float) -> DivergenceVerdict:
    """``series_verdict`` at the k-th probe energy of an already scanned window."""
    tail_min = w.tail_min[k]
    est = float(_exp(tail_min))
    diverges = w.tail_nondecreasing[k] and tail_min > math.log1p(margin)
    return DivergenceVerdict(verdict="diverges" if diverges else "inconclusive",
                             liminf_ratio_estimate=est, window=w.window,
                             tail_start=w.tail_start, margin=margin)


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
    basis change.  The slack is formed in logs, so a product past double
    range leaves it finite.  Feasible only while propagation stays in range.
    """
    lam_eff = _effective_lambda(system, lam)
    u, u_inv = diagonalizer(lam)
    c = 1.0 / (operator_norm(u) * operator_norm(u_inv))
    vecs = propagate(system, lam, xi0, n_max)
    log_norms = _log_norm(vecs[:, 0], vecs[:, 1])
    log_slack = (log_norms + _log_products(system, lam_eff, n_max) - log_norms[0]
                 - math.log(c))  # at n: ln(||xi_n|| product_n / (c ||xi_0||))
    min_slack = float(_exp(np.min(log_slack[1:]))) if n_max >= 1 else math.inf
    return BoundCheck(c_lambda=c, min_slack=min_slack,
                      passed=min_slack >= 1.0 - 1e-9)
