import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pointspec import (SparseSet, StrengthSequence, SystemSpec,
                       estimate_threshold, threshold_ratio)
from pointspec.lattice import WINDOW_BLOCK, _Workspace

from conftest import factorial_system


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


class TestSparseSet:
    def test_factorial_gaps_exact(self):
        lat = SparseSet.factorial()
        assert lat.gap(3) == 18.0
        assert lat.gap(2) == 4.0
        assert lat.gap(0) == 1.0

    def test_explicit_gap(self):
        lat = SparseSet.explicit([0.0, 1.0, 3.0])
        assert lat.gap(0) == 1.0
        assert lat.gap(1) == 2.0

    def test_explicit_prepends_zero(self):
        lat = SparseSet.explicit([1.0, 3.0])
        assert lat.position(0) == 0.0
        assert lat.position(1) == 1.0
        assert lat.max_index == 2

    def test_explicit_rejects_nonincreasing(self):
        with pytest.raises(ValueError):
            SparseSet.explicit([0.0, 2.0, 2.0])
        with pytest.raises(ValueError):
            SparseSet.explicit([0.0, 3.0, 1.0])

    def test_gap_overflow_marker(self):
        lat = SparseSet.factorial()
        assert lat.gap(200) == math.inf
        assert lat.gap(169) < math.inf

    def test_position_overflow_markers(self):
        assert SparseSet.factorial().position(200) == math.inf
        assert SparseSet.power(1.0, 500.0).position(10**6) == math.inf
        assert SparseSet.exponential(1.0, 5.0, 3.0).position(10**4) == math.inf

    def test_gap_range_errors(self):
        lat = SparseSet.explicit([0.0, 1.0, 3.0])
        with pytest.raises(IndexError):
            lat.gap(2)
        with pytest.raises(IndexError):
            lat.gap(-1)

    def test_log_gap_factorial(self):
        lat = SparseSet.factorial()
        assert lat.log_gaps(3, 3)[0] == pytest.approx(math.log(18.0), abs=1e-12)
        # n = 300 is far beyond double range; exact big-int log as oracle
        exact = math.log(300 * math.factorial(300))
        assert lat.log_gaps(300, 300)[0] == pytest.approx(exact, rel=1e-13)

    def test_factorial_log_gaps_against_mpmath(self):
        # crosses the seam between the exact table (n <= 169) and the
        # Stirling series (n >= 170)
        mp = pytest.importorskip("mpmath")
        lat = SparseSet.factorial(max_index=10**9)
        ns = list(range(401)) + [10**k + d for k in range(3, 9) for d in (0, 1, 7)]
        got = np.concatenate([lat.log_gaps(0, 400),
                              [lat.log_gaps(n, n)[0] for n in ns[401:]]])
        with mp.workdps(60):
            for n, g in zip(ns, got):
                exact = mp.log(n) + mp.loggamma(n + 1) if n else mp.mpf(0)
                err = abs(mp.mpf(float(g)) - exact) / max(1, abs(exact))
                assert err <= 1e-15, n
        assert np.array_equal(lat.log_gaps(165, 175), got[165:176])

    def test_log_gap_explicit(self):
        lat = SparseSet.explicit([0.0, 1.0, 3.0])
        assert lat.log_gaps(1, 1)[0] == pytest.approx(math.log(2.0), abs=1e-14)

    @pytest.mark.parametrize("lat,ns", [
        (SparseSet.factorial(), range(0, 21)),
        (SparseSet.power(2.0, 1.7), [0, 1, 2, 5, 50, 1000, 10**6]),
        (SparseSet.power(0.3, 0.5), [0, 1, 7, 300]),
        (SparseSet.exponential(1.5, 0.8, 1.2), [0, 1, 2, 10, 40]),
        (SparseSet.explicit(np.cumsum([0.0, 0.7, 1.3, 2.9, 0.6])), range(4)),
    ])
    def test_log_gap_matches_gap(self, lat, ns):
        for n in ns:
            g = lat.gap(n)
            if math.isfinite(g):
                assert abs(math.log(g) - lat.log_gaps(n, n)[0]) < 1e-10

    @pytest.mark.parametrize("lat", [
        SparseSet.factorial(),
        SparseSet.power(2.0, 1.7),
        SparseSet.exponential(1.5, 0.8, 1.2),
    ])
    def test_positions_consistent_with_gaps(self, lat):
        for n in range(0, 15):
            x0, x1, g = lat.position(n), lat.position(n + 1), lat.gap(n)
            assert g > 0
            assert x1 == pytest.approx(x0 + g, rel=1e-12)

    @pytest.mark.parametrize("lat,n_hi", [
        (SparseSet.factorial(), 200),
        (SparseSet.power(2.0, 1.7), 500),
        (SparseSet.power(1.0, 500.0, max_index=10**6), 10**4),
        (SparseSet.exponential(1.5, 0.8, 1.2), 600),
        (SparseSet.explicit(np.cumsum([0.0, 0.7, 1.3, 2.9, 0.6])), 3),
    ])
    def test_gaps_match_gap_elementwise(self, lat, n_hi):
        ns = range(0, n_hi + 1, max(1, n_hi // 300))
        got = lat.gaps(0, n_hi)
        for n in ns:
            assert got[n] == lat.gap(n)
        assert np.array_equal(lat.gaps(2, n_hi), got[2:])
        assert got.dtype == float and got.shape == (n_hi + 1,)

    def test_factorial_gaps_exact_until_double_overflow(self):
        got = SparseSet.factorial().gaps(0, 200)
        exact = [1.0] + [float(n * math.factorial(n)) for n in range(1, 170)]
        assert got[:170].tolist() == exact
        assert np.all(got[170:] == math.inf)

    def test_gaps_range_errors(self):
        lat = SparseSet.explicit([0.0, 1.0, 3.0])
        assert lat.gaps(0, 1).tolist() == [1.0, 2.0]
        with pytest.raises(IndexError):
            lat.gaps(0, 2)
        with pytest.raises(ValueError):
            lat.gaps(1, 0)

    def test_log_gaps_vectorized_matches_scalar(self):
        lat = SparseSet.factorial()
        arr = lat.log_gaps(0, 30)
        for n in range(31):
            assert arr[n] == pytest.approx(lat.log_gaps(n, n)[0], abs=1e-13)

    def test_explicit_log_gaps_convert_only_their_slice(self):
        n = 2 * 10**5
        lat = SparseSet.explicit(np.arange(1.0, n + 1.0))
        lat.log_gaps(n - 2, n - 1)
        tracemalloc.start()
        try:
            out = lat.log_gaps(n - 2, n - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bits(out) == bits(np.log(np.diff(lat.points[n - 2:])))
        assert peak < 4096  # the whole point tuple as an array is 1.6 MB

    @pytest.mark.parametrize("lat", [
        SparseSet.factorial(max_index=10**8 + 1),
        SparseSet.power(2.0, 1.7, max_index=10**8 + 1),
        SparseSet.power(0.3, 0.5, max_index=10**8 + 1),
        SparseSet.exponential(1.5, 0.8, 1.0, max_index=10**8 + 1),
        SparseSet.exponential(1.5, 0.8, 1.2, max_index=10**8 + 1),
        SparseSet.exponential(1.0, 2.0, 0.5, max_index=10**8 + 1),
        SparseSet.exponential(1.0, 0.5, 2.0, max_index=10**8 + 1),
    ])
    def test_log_gap_ratios_against_mpmath(self, lat):
        mp = pytest.importorskip("mpmath")

        def log_gap(m):
            m = mp.mpf(m)
            if lat.kind == "factorial":
                return mp.log(m) + mp.loggamma(m + 1)
            if lat.kind == "power":
                return mp.log(lat.c * ((m + 1) ** lat.p - m ** lat.p))
            a, b = lat.q * m ** lat.r, lat.q * (m + 1) ** lat.r
            return mp.log(lat.c) + a + mp.log(mp.expm1(b - a))

        with mp.workdps(60):
            for n in (2, 10**3, 10**6, 10**7 - 1, 10**8):
                exact = float(log_gap(n) - log_gap(n - 1))
                got = float(lat.log_gap_ratios(n, n)[0])
                assert abs(got - exact) <= 1e-14 * max(1.0, abs(exact)), n

    @pytest.mark.parametrize("lat", [
        SparseSet.factorial(),
        SparseSet.power(2.0, 1.7),
        SparseSet.exponential(1.5, 0.8),
        SparseSet.exponential(1.5, 0.8, 1.2),
        SparseSet.explicit(np.cumsum([0.0, 0.7, 1.3, 2.9, 0.6, 4.0, 0.1])),
    ])
    def test_log_gap_ratios_match_log_gaps(self, lat):
        # includes n = 1, whose ratio reads gap(0) = x_1
        assert np.allclose(lat.log_gap_ratios(1, 5), np.diff(lat.log_gaps(0, 5)),
                           rtol=1e-12, atol=1e-12)
        assert np.array_equal(lat.log_gap_ratios(3, 5), lat.log_gap_ratios(1, 5)[2:])
        with pytest.raises(IndexError):
            lat.log_gap_ratios(0, 5)

    def test_integer_q_gives_float_ratios(self):
        ratios = SparseSet.exponential(1.0, 1).log_gap_ratios(2, 5)
        assert ratios.dtype == np.float64
        assert bits(ratios) == bits(SparseSet.exponential(1.0, 1.0).log_gap_ratios(2, 5))

    def test_sparseness_ratio_factorial(self):
        lat = SparseSet.factorial()
        ratio = math.exp(lat.log_gap_ratios(4, 4)[0])
        assert ratio == pytest.approx(16.0 / 3.0, rel=1e-12)
        # matches the defining log expression
        expected = math.exp(lat.log_gaps(4, 4)[0] - lat.log_gaps(3, 3)[0])
        assert ratio == pytest.approx(expected, rel=1e-12)

    def test_sparseness_ratio_constant_gaps(self):
        lat = SparseSet.explicit(np.arange(8.0))
        for n in range(1, 7):
            assert math.exp(lat.log_gap_ratios(n, n)[0]) == pytest.approx(1.0, rel=1e-12)

    def test_sparseness_ratio_grows_past_1000(self):
        lat = SparseSet.factorial()
        # equals n^2/(n-1) for the factorial generator
        assert math.exp(lat.log_gap_ratios(1000, 1000)[0]) > 1000.0
        ratios = [math.exp(lat.log_gap_ratios(n, n)[0]) for n in (10, 100, 1000, 10**4)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


class TestStrengthSequence:
    def test_power_values(self):
        st = StrengthSequence.power(2.0, 0.5)
        assert st.alphas(4, 4)[0] == pytest.approx(4.0)
        assert np.allclose(st.alphas(1, 4), 2.0 * np.sqrt([1, 2, 3, 4]))

    def test_constant(self):
        st = StrengthSequence.constant(-3.0)
        assert st.alphas(17, 17)[0] == -3.0

    def test_explicit_indexing(self):
        st = StrengthSequence.explicit([5.0, -1.0])
        assert st.alphas(1, 1)[0] == 5.0
        assert st.alphas(2, 2)[0] == -1.0
        with pytest.raises(IndexError):
            st.alphas(3, 3)
        with pytest.raises(IndexError):
            st.alphas(0, 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            StrengthSequence.explicit([1.0, math.inf])

    def test_integer_constant_gives_float_strengths(self):
        alphas = StrengthSequence.constant(2).alphas(1, 3)
        assert alphas.dtype == np.float64
        assert bits(alphas) == bits(StrengthSequence.constant(2.0).alphas(1, 3))

    def test_log_abs_alphas_rejects_index_zero(self):
        with pytest.raises(IndexError):
            StrengthSequence.power(1.5, 0.5).log_abs_alphas(0, 3)

    def test_log_abs_alphas_rejects_empty_range(self):
        with pytest.raises(IndexError):
            StrengthSequence.power(1.5, 0.5).log_abs_alphas(5, 3)


B = WINDOW_BLOCK


def out_points(p):
    """An explicit lattice long enough for every range below."""
    return np.concatenate([[0.0], np.cumsum(1.0 + np.arange(1000 + B + 2) ** p)])


OUT_LATTICES = {
    "factorial": lambda p: SparseSet.factorial(),
    "power": lambda p: SparseSet.power(1.3, p),
    "exponential": lambda p: SparseSet.exponential(0.9, 1e-4, r=p),
    "exponential_r1": lambda p: SparseSet.exponential(0.9, p),
    "explicit": lambda p: SparseSet.explicit(out_points(p)),
}
OUT_STRENGTHS = {
    "power": lambda p: StrengthSequence.power(1.7, p),
    "power_negative": lambda p: StrengthSequence.power(-0.6, -p),
    "power_zero": lambda p: StrengthSequence.power(0.0, p),
    "constant": lambda p: StrengthSequence.constant(-p),
    "explicit": lambda p: StrengthSequence.explicit(np.sin(np.arange(1000 + B + 2) * p)),
}


def assert_out_contract(kernel):
    """kernel(lo, hi, out=buf) is a view of buf, bit-equal to kernel(lo, hi).

    Also with a workspace shared by every call, as the window scan passes.
    """
    work = _Workspace(B + 2)
    for n_lo in (1, 2, 3, 1000):
        for length in (1, 2, B, B + 1):
            n_hi = n_lo + length - 1
            with np.errstate(all="ignore"):
                expected = kernel(n_lo, n_hi)
                for kwargs in ({}, {"work": work}):
                    buf = np.full(B + 2, np.nan)
                    got = kernel(n_lo, n_hi, out=buf, **kwargs)
                    assert np.shares_memory(got, buf)
                    assert got.dtype == expected.dtype == np.float64
                    assert bits(got) == bits(expected), (n_lo, length, kwargs)


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 1, 2, 3])
class TestOutBuffers:
    @pytest.mark.parametrize("family", sorted(OUT_LATTICES))
    def test_log_gap_ratios(self, family, p):
        assert_out_contract(OUT_LATTICES[family](p).log_gap_ratios)

    @pytest.mark.parametrize("family", sorted(OUT_STRENGTHS))
    @pytest.mark.parametrize("kernel", ["alphas", "log_abs_alphas"])
    def test_strengths(self, family, kernel, p):
        assert_out_contract(getattr(OUT_STRENGTHS[family](p), kernel))


class TestSystemSpec:
    def test_rejects_bad_kind(self):
        lat = SparseSet.factorial()
        with pytest.raises(ValueError):
            SystemSpec("delta_double_prime", lat, StrengthSequence.constant(1.0))


class TestThresholdRatio:
    def test_factorial_sqrt_strengths(self):
        sys = factorial_system("delta", 0.5)
        assert threshold_ratio(sys, 4) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_factorial_quarter_strengths(self):
        sys = factorial_system("delta", 0.25)
        assert threshold_ratio(sys, 4) == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_zero_strength_gives_inf(self):
        sys = SystemSpec("delta", SparseSet.explicit([0.0, 1.0, 3.0]),
                         StrengthSequence.explicit([0.0, 1.0]))
        assert threshold_ratio(sys, 1) == math.inf

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_exact_rational_check(self, p):
        # factorial lattice: ratio must equal n^2 / ((n-1) n^{2p})
        sys = factorial_system("delta", p)
        for n in range(2, 151):
            expected = Fraction(n * n, (n - 1) * n ** int(2 * p))
            assert threshold_ratio(sys, n) == pytest.approx(float(expected),
                                                            rel=1e-12)

    def test_quarter_power_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        sys = factorial_system("delta", 0.25)
        for n in (2, 10, 100, 10**4):
            expected = mp.mpf(n) ** 2 / ((n - 1) * mp.sqrt(mp.mpf(n)))
            # the log-gap route carries ~|log gap| * eps in the exponent,
            # so the tolerance grows with n
            rel = 1e-12 if n <= 150 else 5e-11
            assert threshold_ratio(sys, n) == pytest.approx(float(expected),
                                                            rel=rel)


class TestEstimateThreshold:
    def test_factorial_sqrt_window(self):
        sys = factorial_system("delta", 0.5)
        est = estimate_threshold(sys, 100, 10**4)
        assert abs(est.value - 1.0) < 1e-3
        assert not est.diverging
        assert est.trend == "decreasing"

    def test_factorial_quarter_diverges(self):
        sys = factorial_system("delta", 0.25)
        est = estimate_threshold(sys, 2, 10**6, infinity_threshold=500.0)
        assert est.diverging
        assert est.trend == "increasing"
        # with the raw default cutoff the same window cannot certify
        est_default = estimate_threshold(sys, 2, 10**6)
        assert not est_default.diverging
        assert est_default.last_ratio == pytest.approx(1000.0, rel=1e-2)

    def test_geometric_lattice_ratio_to_zero(self):
        # gaps 2^n with strengths 2^n: ratio 2/4^n, so the estimate sinks
        # toward zero and nothing diverges
        n = 40
        lat = SparseSet.exponential(1.0, math.log(2.0), 1.0, max_index=n + 1)
        st = StrengthSequence.explicit([2.0 ** k for k in range(1, n + 1)])
        sys = SystemSpec("delta", lat, st)
        est = estimate_threshold(sys, 2, n)
        assert est.value == pytest.approx(2.0 / 4.0 ** n, rel=1e-9)
        assert not est.diverging
        assert est.trend == "decreasing"

    def test_estimate_monotone_in_window_end(self):
        sys = factorial_system("delta", 0.5)
        values = [estimate_threshold(sys, 2, n).value for n in range(10, 60)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_bad_windows(self):
        sys = factorial_system("delta", 0.5)
        with pytest.raises(ValueError):
            estimate_threshold(sys, 10, 10)
        with pytest.raises(ValueError):
            estimate_threshold(sys, 0, 10)
        with pytest.raises(IndexError):
            estimate_threshold(SystemSpec("delta",
                                          SparseSet.explicit([0.0, 1.0, 3.0]),
                                          StrengthSequence.constant(1.0)),
                               1, 5)
