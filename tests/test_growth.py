import math

import numpy as np
import pytest

from pointspec import (GrowthProfile, SparseSet, StrengthSequence, SystemSpec,
                       diagonalizer, lower_bound_check, propagate, series_terms,
                       series_verdict, step_matrix)
from pointspec.growth import log_dalembert_ratios

from conftest import factorial_system, random_small_system


class TestLogCouplingProduct:
    def test_empty_product(self):
        sys = factorial_system("delta", 0.5)
        assert series_terms(sys, 1.0, 0).log_products[0] == 0.0

    def test_matched_strengths_give_powers_of_two(self):
        lam = 2.0
        st = StrengthSequence.explicit([math.sqrt(lam)] * 10)
        # series_terms also reads gap 10: the lattice needs point 11
        sys = SystemSpec("delta", SparseSet.explicit(np.arange(12.0)), st)
        assert series_terms(sys, lam, 10).log_products[10] == \
            pytest.approx(10 * math.log(2.0), rel=1e-14)

    def test_monotone_in_energy(self):
        # the delta product shrinks as the energy grows; the delta-prime
        # product, evaluated at the reciprocal energy, grows instead
        lams = np.geomspace(0.01, 100, 40)
        delta = [series_terms(factorial_system("delta", 0.5), lam, 200).log_products
                 for lam in lams]
        prime = [series_terms(factorial_system("delta_prime", 0.5), lam, 200).log_products
                 for lam in lams]
        for n in (1, 7, 50, 200):
            vals = [p[n] for p in delta]
            assert all(b < a for a, b in zip(vals, vals[1:]))
            recip = [p[n] for p in prime]
            assert all(b > a for a, b in zip(recip, recip[1:]))

    def test_rejects_bad_energy(self):
        sys = factorial_system("delta", 0.5)
        with pytest.raises(ValueError):
            series_terms(sys, 0.0, 3)


class TestSeriesTerms:
    def test_free_terms_are_log_gaps(self):
        lat = SparseSet.factorial()
        sys = SystemSpec("delta", lat, StrengthSequence.constant(0.0))
        prof = series_terms(sys, 1.0, 40)
        assert np.array_equal(prof.terms, prof.log_gaps)
        assert prof.log_products[0] == 0.0

    def test_profile_lengths_agree(self):
        prof = series_terms(factorial_system("delta", 0.5), 2.0, 25)
        assert len(prof.log_gaps) == len(prof.log_products) == len(prof.terms) == 26

    def test_quarter_power_terms_grow_without_bound(self):
        prof = series_terms(factorial_system("delta", 0.25), 1.0, 200)
        tail = prof.terms[100:]
        assert np.all(np.diff(tail) > 0)
        assert tail[-1] > prof.terms[2] + 100.0

    def test_sqrt_power_terms_eventually_decrease(self):
        # ratio limit is lam0 * liminf = 1/4 < 1
        prof = series_terms(factorial_system("delta", 0.5), 0.25, 200)
        assert np.all(np.diff(prof.terms[100:]) < 0)

    def test_term_ratio_equals_dalembert(self, rng):
        for kind in ("delta", "delta_prime"):
            sys = factorial_system(kind, 0.5)
            for lam0 in (0.3, 1.0, 7.0):
                prof = series_terms(sys, lam0, 60)
                for n in range(1, 61):
                    ratio = math.exp(prof.terms[n] - prof.terms[n - 1])
                    assert ratio == pytest.approx(
                        dalembert_ratio(sys, lam0, n), rel=1e-10)


def dalembert_ratio(sys, lam0, n):
    """The consecutive-term ratio of the divergence series at index n."""
    return math.exp(log_dalembert_ratios(sys, lam0, n, n)[0])


class TestDalembertRatio:
    def test_free_ratio_is_sparseness(self):
        lat = SparseSet.factorial()
        sys = SystemSpec("delta", lat, StrengthSequence.constant(0.0))
        for n in (1, 5, 20):
            assert dalembert_ratio(sys, 1.0, n) == \
                pytest.approx(math.exp(lat.log_gap_ratios(n, n)[0]), rel=1e-12)

    def test_sqrt_power_delta_limit(self):
        # exact ratio tends to lam0 * 1 from below
        sys = factorial_system("delta", 0.5)
        r = dalembert_ratio(sys, 4.0, 10**6)
        assert r == pytest.approx(4.0, rel=2e-2)
        assert dalembert_ratio(sys, 4.0, 10**4) < r

    def test_sqrt_power_delta_prime_limit(self):
        sys = factorial_system("delta_prime", 0.5)
        r = dalembert_ratio(sys, 0.5, 10**6)
        assert r == pytest.approx(2.0, rel=2e-2)


class TestSeriesVerdict:
    def test_quarter_power_diverges_for_all_probes(self):
        sys = factorial_system("delta", 0.25)
        for lam0 in (0.1, 1.0, 10.0):
            v = series_verdict(sys, lam0, (100, 10**5))
            assert v.verdict == "diverges"

    def test_sqrt_power_threshold(self):
        sys = factorial_system("delta", 0.5)
        assert series_verdict(sys, 2.0, (100, 10**4)).verdict == "diverges"
        v = series_verdict(sys, 0.5, (100, 10**4))
        assert v.verdict == "inconclusive"
        assert v.liminf_ratio_estimate < 1.0

    def test_never_claims_convergence(self):
        sys = factorial_system("delta", 0.5)
        for lam0 in (0.01, 0.5, 0.99):
            assert series_verdict(sys, lam0, (100, 5000)).verdict in \
                ("diverges", "inconclusive")

    def test_delta_prime_mirror(self):
        sys = factorial_system("delta_prime", 0.5)
        assert series_verdict(sys, 0.5, (100, 10**4)).verdict == "diverges"
        assert series_verdict(sys, 2.0, (100, 10**4)).verdict == "inconclusive"


class TestLowerBoundCheck:
    def test_free_system_slack(self, rng):
        lat = SparseSet.explicit(np.concatenate([[0], np.cumsum(
            rng.uniform(0.5, 3.0, 10))]))
        sys = SystemSpec("delta", lat, StrengthSequence.constant(0.0))
        res = lower_bound_check(sys, 2.7, 10, xi0=rng.normal(size=2))
        assert res.passed
        assert res.min_slack >= 1.0 - 1e-9

    @pytest.mark.parametrize("kind", ["delta", "delta_prime"])
    def test_factorial_prefix(self, kind):
        res = lower_bound_check(factorial_system(kind, 0.5), 1.0, 8)
        assert res.passed

    def test_constant_value(self):
        # c = 1/(||U|| ||U_inv||) equals 1/max(sqrt(lam), 1/sqrt(lam))
        for lam in (0.25, 1.0, 9.0):
            res = lower_bound_check(factorial_system("delta", 0.5), lam, 3)
            expected = 1.0 / max(math.sqrt(lam), 1 / math.sqrt(lam))
            assert res.c_lambda == pytest.approx(expected, rel=1e-12)

    def test_randomized_systems(self, rng):
        for trial in range(30):
            kind = "delta" if trial % 2 == 0 else "delta_prime"
            n = int(rng.integers(2, 13))
            sys = random_small_system(rng, kind, n)
            lam = rng.uniform(0.25, 16.0)
            xi0 = rng.normal(size=2)
            res = lower_bound_check(sys, lam, n, xi0=xi0)
            assert res.min_slack >= 1.0 - 1e-9, (trial, kind, lam)

    def test_strengths_past_double_range_raise(self):
        # alpha_n = n^400 is past double range from n = 6
        sys = SystemSpec("delta", SparseSet.factorial(), StrengthSequence.power(1.0, 400.0))
        with pytest.raises(OverflowError) as info:
            lower_bound_check(sys, 1.0, 10)
        assert str(info.value) == "|alpha_n| is past double range from n=6"


class TestTildePropagationConsistency:
    def test_diagonalized_route_matches_direct(self, rng):
        for trial in range(25):
            kind = "delta" if trial % 2 == 0 else "delta_prime"
            n = int(rng.integers(2, 9))
            sys = random_small_system(rng, kind, n)
            lam = rng.uniform(0.3, 20.0)
            u, u_inv = diagonalizer(lam)
            direct = propagate(sys, lam, (0.0, 1.0), n)
            tilde = u_inv @ np.array([0.0, 1.0]).astype(complex)
            for k in range(1, n + 1):
                tilde = (u_inv @ step_matrix(sys, lam, k) @ u) @ tilde
                back = u @ tilde
                ref = direct[k]
                assert np.allclose(back, ref,
                                   rtol=1e-9, atol=1e-9 * np.abs(ref).max())
                assert np.linalg.norm(u @ tilde) == pytest.approx(
                    np.linalg.norm(ref), rel=1e-9)


@pytest.mark.parametrize("fields, message", [
    ((np.zeros(3), np.zeros(2), np.zeros(3)), "profile arrays must have equal length"),
    ((np.zeros(2), np.array([1.0, 2.0]), np.zeros(2)), "empty product must have zero log"),
], ids=["lengths", "empty_product"])
def test_refusals(fields, message):
    with pytest.raises(ValueError) as info:
        GrowthProfile(1.0, *fields)
    assert type(info.value) is ValueError and str(info.value) == message


def test_lower_bound_check_without_steps():
    res = lower_bound_check(factorial_system("delta", 0.5), 1.0, 0)
    assert (res.min_slack, res.passed) == (math.inf, True)


def test_lower_bound_check_past_double_range_product():
    # every |xi_n| is 1 (each gap is pi at lam = 1), while the log product
    # reaches 829, past ln(max double) ~ 709.8
    sys = SystemSpec("delta", SparseSet.explicit([k * math.pi for k in range(1, 122)]),
                     StrengthSequence.constant(1e3))
    assert series_terms(sys, 1.0, 120).log_products[-1] > 829.0
    res = lower_bound_check(sys, 1.0, 120)
    assert res.passed
    assert res.min_slack == pytest.approx(1000.999999999877, rel=1e-12)
