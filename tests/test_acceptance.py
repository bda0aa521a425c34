"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
per-criterion runtimes.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from pointspec import (SparseSet, StrengthSequence, SystemSpec, classify,
                       dirichlet_eigenvalues, essential_spectrum_probe,
                       fd_oracle_eigenvalues, fundamental_matrix,
                       inverse_step_diagonalized, jump_matrix,
                       lower_bound_check, operator_norm, series_verdict,
                       threshold_ratio, truncated_eigenvalues)

from conftest import factorial_system


@contextmanager
def criterion(num, label, budget=None):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeded budget {budget}s")
    except Exception:
        print(f"ACCEPTANCE {num}: FAIL  {label}")
        raise
    print(f"ACCEPTANCE {num}: PASS  {label}  [{elapsed:.2f}s]")


def test_criterion_1_quarter_power_purely_singular_continuous():
    with criterion(1, "factorial lattice, quarter-power strengths, delta: "
                      "purely singular continuous on the half-line", budget=1.0):
        sys = factorial_system("delta", 0.25)
        res = classify(sys, window=(2, 10**6))
        assert res.case == "case_ii"
        assert str(res.sc_contains) == "[0,inf)"
        assert str(res.sc_within) == "[0,inf)"
        assert res.pp_window.is_empty
        assert res.ac == "empty"
        ratio = threshold_ratio(sys, 10**4)
        assert abs(ratio - 1e8 / (1e6 - 1e2)) < 0.01


def test_criterion_2_sqrt_power_delta_split():
    with criterion(2, "factorial lattice, sqrt strengths, delta: threshold 1, "
                      "singular continuous above 1", budget=1.0):
        res = classify(factorial_system("delta", 0.5), window=(100, 10**4))
        assert res.case == "case_i_delta"
        assert 0.999 <= res.threshold.value <= 1.001
        assert 0.999 <= res.sc_contains.lo <= 1.001
        assert math.isinf(res.sc_contains.hi)
        assert res.pp_window.lo == 0.0
        assert 0.999 <= res.pp_window.hi <= 1.001


def test_criterion_3_sqrt_power_delta_prime_mirror():
    with criterion(3, "same data, delta-prime: mirrored window structure",
                   budget=1.0):
        res = classify(factorial_system("delta_prime", 0.5),
                       window=(100, 10**4))
        assert res.case == "case_i_delta_prime"
        assert 0.999 <= res.pp_window.lo <= 1.001
        assert math.isinf(res.pp_window.hi)
        assert res.sc_contains.lo == 0.0
        assert 0.999 <= res.sc_contains.hi <= 1.001


def test_criterion_4_inverse_step_norm_bounds():
    with criterion(4, "1e4 randomized diagonalized-inverse norm bounds, "
                      "both kinds", budget=5.0):
        rng = np.random.default_rng(41)
        worst = math.inf
        for _ in range(10**4):
            lam = rng.uniform(0.1, 100.0)
            dx = rng.uniform(0.1, 20.0)
            alpha = rng.uniform(-20.0, 20.0)
            kind = "delta" if rng.random() < 0.5 else "delta_prime"
            m = inverse_step_diagonalized(kind, lam, dx, alpha)
            bound = (1 + abs(alpha) / math.sqrt(lam) if kind == "delta"
                     else 1 + abs(alpha) * math.sqrt(lam))
            worst = min(worst, bound - operator_norm(m))
        assert worst >= -1e-12


def test_criterion_5_propagation_lower_bounds():
    with criterion(5, "100 randomized small systems satisfy the "
                      "coupling-product lower bound", budget=5.0):
        rng = np.random.default_rng(52)
        for trial in range(100):
            kind = "delta" if trial % 2 == 0 else "delta_prime"
            n = int(rng.integers(2, 13))
            gaps = rng.uniform(0.5, 5.0, n)
            alphas = rng.uniform(-5.0, 5.0, n)
            lam = rng.uniform(0.25, 16.0)
            xi0 = rng.normal(size=2)
            sys = SystemSpec(kind,
                             SparseSet.explicit(np.concatenate(
                                 [[0.0], np.cumsum(gaps)])),
                             StrengthSequence.explicit(alphas))
            res = lower_bound_check(sys, lam, n, xi0=xi0)
            assert res.min_slack >= 1.0 - 1e-9, (trial, kind, res.min_slack)


def test_criterion_6_transfer_algebra():
    with criterion(6, "1e4 randomized determinant, semigroup, and inverse "
                      "identities", budget=10.0):
        rng = np.random.default_rng(63)
        assert np.array_equal(fundamental_matrix(1.0, 0.0), np.eye(2))
        assert np.array_equal(fundamental_matrix(37.1, 0.0), np.eye(2))
        for _ in range(10**4):
            lam = rng.uniform(0.1, 100.0)
            d1, d2 = rng.uniform(-10.0, 10.0, 2)
            alpha = rng.uniform(-20.0, 20.0)
            m1 = fundamental_matrix(lam, d1)
            assert abs(m1[0, 0] * m1[1, 1] - m1[0, 1] * m1[1, 0] - 1.0) < 1e-11
            m12 = m1 @ fundamental_matrix(lam, d2)
            assert np.abs(m12 - fundamental_matrix(lam, d1 + d2)).max() < 1e-11
            assert np.abs(m1 @ fundamental_matrix(lam, -d1) - np.eye(2)).max() < 1e-11
            kind = "delta" if rng.random() < 0.5 else "delta_prime"
            jj = jump_matrix(kind, alpha) @ jump_matrix(kind, -alpha)
            assert np.array_equal(jj, np.eye(2))


def test_criterion_7_eigensolver_cross_validation():
    with criterion(7, "shooting vs finite-difference oracle on 20 randomized "
                      "truncations, plus exact free case and second-order "
                      "convergence", budget=60.0):
        # free case reproduces the box spectrum
        lat = SparseSet.explicit([0.0, math.pi])
        free = SystemSpec("delta", lat, StrengthSequence.explicit([0.0]))
        res = truncated_eigenvalues(free, 1, (0.5, 17.0), tol=1e-12)
        assert np.abs(res.values - dirichlet_eigenvalues(math.pi, 4).values).max() < 1e-8

        # halving the mesh divides the free-case error by about four
        errs = [abs(fd_oracle_eigenvalues(free, 1, math.pi / m, 1).values[0] - 1.0)
                for m in (500, 1000, 2000)]
        for e0, e1 in zip(errs, errs[1:]):
            assert 3.0 < e0 / e1 < 5.0

        rng = np.random.default_rng(74)
        checked = 0
        for trial in range(20):
            kind = "delta" if trial % 2 == 0 else "delta_prime"
            n = int(rng.integers(2, 5))
            gaps = rng.integers(2, 13, n) * 0.25
            alphas = rng.uniform(-8.0, 8.0, n)
            sys = SystemSpec(kind,
                             SparseSet.explicit(np.concatenate(
                                 [[0.0], np.cumsum(gaps)])),
                             StrengthSequence.explicit(alphas))
            length = sys.lattice.position(n)
            lam_lo, lam_hi = 1e-4, ((8 + 2 * n) * math.pi / length) ** 2
            sh = truncated_eigenvalues(sys, n, (lam_lo, lam_hi),
                                       grid_resolution=4000, tol=1e-12)
            fd = fd_oracle_eigenvalues(sys, n, 0.25 / 256, 24)
            targets = [v for v in sh.values
                       if 2 * lam_lo < v < 0.9 * lam_hi][:5]
            assert len(targets) >= 5, (trial, len(targets))
            for v in targets:
                nearest = fd.values[np.argmin(np.abs(fd.values - v))]
                assert abs(nearest - v) / v < 1e-3, (trial, kind, v, nearest)
                checked += 1
        assert checked >= 100


def test_criterion_8_comparison_eigenvalue_probe():
    with criterion(8, "comparison-box eigenvalues approach every probe "
                      "energy under the decreasing ceiling-step bound",
                   budget=1.0):
        sys = factorial_system("delta", 0.5)
        report = essential_spectrum_probe(sys, [0.5, 1.0, 2.0, 5.0], 12)
        for entry in report.entries:
            sl = slice(2, None)  # n = 3..12
            values = entry.values[sl]
            gaps = entry.gaps_to_s[sl]
            bounds = entry.bounds[sl]
            assert np.all(values >= entry.s * (1 - 1e-12))
            assert np.all(gaps <= bounds + 1e-12)
            # the bound envelope decreases strictly; the raw gap sequence
            # itself jitters with the ceiling (see decisions ledger), so the
            # decay assertion is: every gap sits under the shrinking
            # envelope and the sequence collapses by many orders
            assert np.all(np.diff(bounds) < 0)
            assert gaps[-1] < gaps[0] * 1e-6


def test_criterion_9_ratio_test_verdicts():
    with criterion(9, "ratio-test verdicts at the threshold energies",
                   budget=1.0):
        sys = factorial_system("delta", 0.5)
        for lam0 in (2.0, 4.0, 10.0):
            v = series_verdict(sys, lam0, (100, 10**4))
            assert v.verdict == "diverges", lam0
        v = series_verdict(sys, 0.5, (100, 10**4))
        assert v.verdict == "inconclusive"
