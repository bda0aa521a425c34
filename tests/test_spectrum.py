import math
from collections import defaultdict
from sys import modules as loaded_modules

import numpy as np
import pytest

from pointspec import (ClassifyConfig, EigenvalueList, Interval, SparseSet,
                       StrengthSequence, SystemSpec, box_eigenvalue_above,
                       classify, dirichlet_eigenvalues,
                       essential_spectrum_probe, fd_oracle_eigenvalues,
                       truncated_eigenvalues)
from pointspec import spectrum
from pointspec.spectrum import _count_below, _fd_tridiagonal, _sturm_count
from pointspec.transfer import DIRICHLET_START, propagate

from conftest import factorial_system


def synthetic_exact_threshold(kind, a, n_points=60):
    """Explicit lattice with gap(n) = a^n * n! and sqrt strengths.

    The threshold ratio is exactly ``a`` at every index, the gap ratio a*n
    grows without bound, and the strengths grow like sqrt(n).
    """
    gaps = [a**n * math.factorial(n) for n in range(n_points)]
    points = np.concatenate([[0.0], np.cumsum(gaps)])
    return SystemSpec(kind, SparseSet.explicit(points),
                      StrengthSequence.power(1.0, 0.5))


SYNTH_CONFIG = ClassifyConfig(sparseness_threshold=20.0, strength_threshold=5.0)


class TestInterval:
    def test_rendering(self):
        assert str(Interval.closed(0.0, 1.5)) == "[0,1.5]"
        assert str(Interval.closed_ray(1.0)) == "[1,inf)"
        assert str(Interval(0.0, 0.5, False, True)) == "(0,0.5]"
        assert str(Interval.right_open(0.0, math.inf)) == "[0,inf)"
        assert str(Interval.empty()) == "empty"


class TestClassify:
    def test_quarter_power_is_purely_singular_continuous(self):
        res = classify(factorial_system("delta", 0.25), window=(2, 10**6))
        assert res.case == "case_ii"
        assert str(res.sc_contains) == "[0,inf)"
        assert str(res.sc_within) == "[0,inf)"
        assert res.pp_window.is_empty
        assert res.ac == "empty"
        assert str(res.essential) == "[0,inf)"
        assert res.negative_axis == "excluded_by_positivity"

    def test_sqrt_power_delta_split(self):
        res = classify(factorial_system("delta", 0.5), window=(100, 10**4))
        assert res.case == "case_i_delta"
        a = res.threshold.value
        assert 0.999 <= a <= 1.001
        assert res.pp_window.lo == 0.0
        assert res.pp_window.hi == pytest.approx(1.0 / a, rel=1e-14)
        assert res.sc_contains.lo == pytest.approx(1.0 / a, rel=1e-14)
        assert math.isinf(res.sc_contains.hi)
        assert res.ac == "empty"

    def test_sqrt_power_delta_prime_mirror(self):
        res = classify(factorial_system("delta_prime", 0.5),
                       window=(100, 10**4))
        assert res.case == "case_i_delta_prime"
        a = res.threshold.value
        assert res.pp_window.lo == pytest.approx(a, rel=1e-14)
        assert math.isinf(res.pp_window.hi)
        assert res.sc_contains.lo == 0.0
        assert res.sc_contains.hi == pytest.approx(a, rel=1e-14)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_mirror_endpoints_are_reciprocal(self, a):
        window = (2, 59)
        res_d = classify(synthetic_exact_threshold("delta", a),
                         window=window, config=SYNTH_CONFIG)
        res_p = classify(synthetic_exact_threshold("delta_prime", a),
                         window=window, config=SYNTH_CONFIG)
        assert res_d.case == "case_i_delta"
        assert res_p.case == "case_i_delta_prime"
        assert res_d.threshold.value == pytest.approx(a, rel=1e-10)
        assert res_d.pp_window.hi == pytest.approx(1.0 / a, rel=1e-10)
        assert res_p.pp_window.lo == pytest.approx(a, rel=1e-10)
        assert res_d.pp_window.hi * res_p.pp_window.lo == \
            pytest.approx(1.0, rel=1e-9)
        assert res_p.sc_contains.hi == res_p.pp_window.lo

    def test_nonsparse_lattice_gives_no_conclusion(self):
        sys = SystemSpec("delta", SparseSet.power(1.0, 2.0),
                         StrengthSequence.power(1.0, 0.5))
        res = classify(sys, window=(100, 5000))
        assert res.case == "no_conclusion"
        assert res.essential is None
        assert not res.diagnostics["sparseness_ok"]
        assert any("precondition" in c for c in res.caveats)

    def test_case_ii_requires_positivity(self):
        n = 2 * 10**4
        values = [float(k) ** 0.25 for k in range(1, n + 1)]
        values[2] = -values[2]
        sys = SystemSpec("delta", SparseSet.factorial(),
                         StrengthSequence.explicit(values))
        config = ClassifyConfig(divergence_threshold=50.0)
        res = classify(sys, window=(2, n), config=config)
        assert res.threshold.diverging
        assert res.case == "no_conclusion"
        assert res.negative_axis == "unknown"
        assert any("positiv" in c for c in res.caveats)

    def test_decaying_threshold_is_flagged(self):
        # gap(n) = (n!)^2 with strengths n^{3/2}: ratio is exactly 1/n
        gaps = [math.factorial(n) ** 2 for n in range(60)]
        points = np.concatenate([[0.0], np.cumsum(gaps)])
        sys = SystemSpec("delta", SparseSet.explicit(points),
                         StrengthSequence.power(1.0, 1.5))
        res = classify(sys, window=(2, 59), config=SYNTH_CONFIG)
        assert res.case == "case_i_delta"
        assert any("overestimate" in c for c in res.caveats)
        strict = ClassifyConfig(sparseness_threshold=20.0,
                                strength_threshold=5.0, zero_threshold=0.05)
        res2 = classify(sys, window=(2, 59), config=strict)
        assert res2.case == "no_conclusion"

    def test_exclusion_grid_consistent_with_pp_window(self):
        grid = [0.5, 0.8, 1.3, 2.0, 4.0, 10.0]
        res = classify(factorial_system("delta", 0.5), window=(100, 10**4),
                       lambda0_grid=grid)
        hi = res.pp_window.hi
        verdicts = dict(zip(grid, res.diagnostics["exclusion_verdicts"]))
        for lam0, verdict in verdicts.items():
            if verdict == "excluded":
                assert lam0 > hi * 0.999
            if lam0 >= 1.3:
                assert verdict == "excluded"
        assert res.diagnostics["pp_upper_from_exclusions"] == 1.3

        res_p = classify(factorial_system("delta_prime", 0.5),
                         window=(100, 10**4), lambda0_grid=grid)
        lo = res_p.pp_window.lo
        verdicts = dict(zip(grid, res_p.diagnostics["exclusion_verdicts"]))
        for lam0, verdict in verdicts.items():
            if verdict == "excluded":
                assert lam0 < lo * 1.001
            if lam0 <= 0.8:
                assert verdict == "excluded"
        assert res_p.diagnostics["pp_lower_from_exclusions"] == 0.8

    @pytest.mark.parametrize("kind", ["delta", "delta_prime"])
    def test_quarter_power_case_ii_at_the_index_cap(self, kind):
        # the default max_index admits window ends up to 10^7 - 1; the ratio
        # tail there must not drown in rounding noise
        sys = SystemSpec(kind, SparseSet.factorial(),
                         StrengthSequence.power(1.5, 0.25))
        res = classify(sys, window=(7_500_000, 9_999_999))
        assert res.case == "case_ii"
        assert res.threshold.trend == "increasing"

    def test_window_evaluated_once(self, monkeypatch):
        ranges = defaultdict(list)

        def recording(cls, name):
            original = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                ranges[name].append(args)
                return original(self, *args, **kwargs)
            monkeypatch.setattr(cls, name, wrapper)

        for name in ("log_gaps", "log_gap_ratios", "gap"):
            recording(SparseSet, name)
        for name in ("alphas", "log_abs_alphas"):
            recording(StrengthSequence, name)
        sys = factorial_system("delta", 0.25)
        res = classify(sys, window=(2, 10**5), lambda0_grid=[0.1, 1.0, 10.0])
        assert res.diagnostics["exclusion_verdicts"] == ["excluded"] * 3
        # blocks may split the window, but no index is evaluated twice: not
        # per probe energy, not per consumer; alpha_n itself only where the
        # ratio test's tail (the last 50000 indices) reads it
        assert set(ranges) == {"log_gap_ratios", "log_abs_alphas", "alphas"}
        for name, first in (("log_gap_ratios", 2), ("log_abs_alphas", 2),
                            ("alphas", 10**5 - 50000 + 1)):
            indices = np.concatenate([np.arange(lo, hi + 1) for lo, hi in ranges[name]])
            assert np.array_equal(np.sort(indices), np.arange(first, 10**5 + 1)), name


def exclusion(kind, p, lam0, window):
    """classify's exclusion diagnostics at the single probe energy lam0."""
    res = classify(factorial_system(kind, p), window=window, lambda0_grid=[lam0])
    return res.diagnostics


class TestPointSpectrumExclusion:
    def test_quarter_power_small_probe(self):
        diag = exclusion("delta", 0.25, 0.01, (100, 10**6))
        assert diag["exclusion_verdicts"] == ["excluded"]
        assert diag["pp_upper_from_exclusions"] == 0.01  # excludes [0.01, inf)

    def test_sqrt_power_delta(self):
        diag = exclusion("delta", 0.5, 2.0, (100, 10**4))
        assert diag["exclusion_verdicts"] == ["excluded"]
        assert diag["pp_upper_from_exclusions"] == 2.0  # excludes [2, inf)

    def test_sqrt_power_delta_prime(self):
        diag = exclusion("delta_prime", 0.5, 0.5, (100, 10**4))
        assert diag["exclusion_verdicts"] == ["excluded"]
        assert diag["pp_lower_from_exclusions"] == 0.5  # excludes (0, 0.5]

    def test_inconclusive_probe(self):
        diag = exclusion("delta", 0.5, 0.5, (100, 10**4))
        assert diag["exclusion_verdicts"] == ["inconclusive"]
        assert diag["pp_upper_from_exclusions"] is None


class TestComparisonEigenvalues:
    def test_dirichlet(self):
        assert np.allclose(dirichlet_eigenvalues(math.pi, 3).values, [1, 4, 9])
        vals = dirichlet_eigenvalues(2.0, 2).values
        assert np.allclose(vals, [(math.pi / 2) ** 2, math.pi ** 2])
        assert dirichlet_eigenvalues(1.0, 1).values[0] == \
            pytest.approx(math.pi ** 2)

    def test_box_eigenvalue_above(self):
        assert box_eigenvalue_above(1.0, math.pi) == pytest.approx(1.0, abs=1e-14)
        assert box_eigenvalue_above(2.0, 10.0) == \
            pytest.approx((math.pi / 2) ** 2, rel=1e-12)
        s = (3 * math.pi / 5) ** 2
        assert box_eigenvalue_above(s, 5.0) == pytest.approx(s, rel=1e-14)
        with pytest.raises(ValueError):
            box_eigenvalue_above(-1.0, 2.0)

    def test_box_eigenvalue_bound_property(self, rng):
        for _ in range(500):
            s = rng.uniform(0.01, 50)
            gap = rng.uniform(0.1, 1e6)
            lam = box_eigenvalue_above(s, gap)
            assert lam >= s * (1 - 1e-12)
            bound = (math.pi / gap) * (2 * math.sqrt(s) + math.pi / gap)
            assert lam - s <= bound + 1e-12


class TestEssentialSpectrumProbe:
    def test_frozen_values_for_s2(self):
        # spot values computed with 60-digit arithmetic
        sys = factorial_system("delta", 0.5)
        rep = essential_spectrum_probe(sys, [2.0], 10)
        entry = rep.entries[0]
        by_n = dict(zip(entry.n, entry.values))
        assert by_n[3] == pytest.approx(2.4674011002723397, rel=1e-13)
        assert by_n[5] == pytest.approx(2.01342671339001, rel=1e-13)
        assert by_n[10] == pytest.approx(2.0000001860127847, rel=1e-13)

    def test_gap_decreases_toward_zero_for_s2(self):
        sys = factorial_system("delta", 0.5)
        entry = essential_spectrum_probe(sys, [2.0], 10).entries[0]
        sl = slice(2, None)  # n = 3..10
        gaps = entry.gaps_to_s[sl]
        assert np.all(np.diff(gaps) < 0)
        assert np.all(entry.values >= 2.0)
        assert np.all(gaps <= entry.bounds[sl] + 1e-12)

    def test_exact_hit_lattice(self):
        lat = SparseSet.explicit(np.cumsum([0.0] + [n * math.pi
                                                    for n in range(1, 7)]))
        sys = SystemSpec("delta", lat, StrengthSequence.constant(1.0))
        entry = essential_spectrum_probe(sys, [1.0], 5).entries[0]
        assert np.allclose(entry.values, 1.0, atol=1e-12)

    @pytest.mark.parametrize("lat,n_max", [
        (SparseSet.factorial(), 20),
        (SparseSet.power(0.7, 1.5), 200),
        (SparseSet.explicit(np.cumsum([0.0, 0.3, 2.0, math.pi, 9.5])), 3),
    ])
    def test_entries_equal_scalar_box_eigenvalues(self, lat, n_max):
        sys = SystemSpec("delta", lat, StrengthSequence.constant(1.0))
        rep = essential_spectrum_probe(sys, [0.5, 1.0, 2.0, 7.3], n_max)
        for entry in rep.entries:
            s = entry.s
            vals = [box_eigenvalue_above(s, lat.gap(n)) for n in range(1, n_max + 1)]
            bounds = [(math.pi / lat.gap(n)) * (2.0 * math.sqrt(s) + math.pi / lat.gap(n))
                      for n in range(1, n_max + 1)]
            assert entry.n.tolist() == list(range(1, n_max + 1))
            assert entry.values.tolist() == vals
            assert entry.gaps_to_s.tolist() == [v - s for v in vals]
            assert entry.bounds.tolist() == bounds

    def test_unrepresentable_gap_raises(self):
        sys = factorial_system("delta", 0.5)
        with pytest.raises(OverflowError, match="gap 170"):
            essential_spectrum_probe(sys, [2.0], 175)

    def test_wide_gap_close_approach(self):
        assert abs(box_eigenvalue_above(0.25, 100.0) - 0.25) < 0.02


class TestTruncatedEigenvalues:
    def test_free_dirichlet_case(self):
        lat = SparseSet.explicit([0.0, math.pi])
        sys = SystemSpec("delta", lat, StrengthSequence.explicit([0.0]))
        res = truncated_eigenvalues(sys, 1, (0.5, 17.0), tol=1e-12)
        ref = dirichlet_eigenvalues(math.pi, 4).values
        assert np.allclose(res.values, ref, atol=1e-8)
        assert res.suspected_missed == 0
        assert np.all(res.residuals < 1e-8)
        assert np.all(res.bracket_widths <= 1e-11)

    def test_free_neumann_closure(self):
        lat = SparseSet.explicit([0.0, math.pi])
        sys = SystemSpec("delta_prime", lat, StrengthSequence.explicit([0.0]))
        res = truncated_eigenvalues(sys, 1, (0.1, 10.0), tol=1e-12)
        assert np.allclose(res.values, [0.25, 2.25, 6.25], atol=1e-8)
        assert res.suspected_missed == 0

    @pytest.mark.requires_scipy
    def test_matches_fd_oracle_on_small_delta_system(self):
        lat = SparseSet.explicit([0.0, 1.0, 3.0])
        sys = SystemSpec("delta", lat, StrengthSequence.explicit([5.0, 0.0]))
        sh = truncated_eigenvalues(sys, 2, (0.05, 30.0), tol=1e-12)
        fd = fd_oracle_eigenvalues(sys, 2, 3.0 / 4096, 8)
        inside = fd.values[(fd.values > 0.05) & (fd.values < 30.0)]
        k = min(len(inside), len(sh.values))
        assert k >= 4
        assert np.allclose(sh.values[:k], inside[:k], rtol=1e-3)

    def test_decoupling_limit(self):
        # large strength splits [0, 1+sqrt(2)] into [0,1] and [1, 1+sqrt(2)]
        ell2 = math.sqrt(2.0)
        union = np.sort(np.concatenate([
            dirichlet_eigenvalues(1.0, 2).values,
            dirichlet_eigenvalues(ell2, 2).values]))[:3]
        errs = []
        for alpha in (300.0, 3000.0):
            lat = SparseSet.explicit([0.0, 1.0, 1.0 + ell2])
            sys = SystemSpec("delta", lat,
                             StrengthSequence.explicit([alpha, 0.0]))
            res = truncated_eigenvalues(sys, 2, (0.5, 21.0),
                                        grid_resolution=4000, tol=1e-12)
            assert len(res.values) >= 3
            errs.append(np.abs(res.values[:3] - union) / union)
        assert errs[0].max() < 0.05
        assert errs[1].max() < 0.005
        assert errs[1].max() < errs[0].max()

    def test_tol_below_double_spacing_stops_at_adjacent_doubles(self):
        lat = SparseSet.explicit([0.0, math.pi])
        sys = SystemSpec("delta", lat, StrengthSequence.explicit([0.0]))
        res = truncated_eigenvalues(sys, 1, (0.5, 17.0), tol=1e-16)
        assert np.allclose(res.values, [1.0, 4.0, 9.0, 16.0], atol=1e-12)
        assert np.all(res.bracket_widths <= np.spacing(res.values + 1e-12))

    def test_rejects_bad_range(self):
        lat = SparseSet.explicit([0.0, math.pi])
        sys = SystemSpec("delta", lat, StrengthSequence.explicit([0.0]))
        with pytest.raises(ValueError):
            truncated_eigenvalues(sys, 1, (2.0, 2.0))
        with pytest.raises(ValueError):
            truncated_eigenvalues(sys, 1, (-1.0, 2.0))

    def test_rejects_empty_truncation(self):
        lat = SparseSet.explicit([0.0, math.pi])
        sys = SystemSpec("delta", lat, StrengthSequence.explicit([0.0]))
        with pytest.raises(ValueError, match="n_max must be at least 1"):
            truncated_eigenvalues(sys, 0, (0.5, 3.0))

    def test_rejects_more_roots_than_grid_cells(self):
        # x_N = 1000^3: about 7.8e8 roots in [0.5, 10], far past 2000 cells
        sys = SystemSpec("delta", SparseSet.power(1.0, 3.0),
                         StrengthSequence.power(1.0, 0.5))
        with pytest.raises(ValueError, match=r"eigenvalues in range, more "
                                             r"than grid_resolution \(2000\)"):
            truncated_eigenvalues(sys, 1000, (0.5, 10.0))

    def test_rejects_count_beyond_exact_doubles(self):
        # x_20 > 20! = 2.4e18: the phase passes 2^53 half-turns
        with pytest.raises(ValueError, match="2\\^53"):
            truncated_eigenvalues(factorial_system("delta", 0.5), 20, (0.5, 10.0))


def random_truncation(rng, kind, n):
    """n explicit points with gaps 0.25 * {1..4} and alpha uniform in [-8, 8]."""
    gaps = rng.integers(1, 5, n) * 0.25
    return SystemSpec(kind,
                      SparseSet.explicit(np.concatenate([[0.0], np.cumsum(gaps)])),
                      StrengthSequence.explicit(rng.uniform(-8.0, 8.0, n)))


class TestCountBelow:
    @pytest.mark.requires_scipy
    @pytest.mark.parametrize("kind", ["delta", "delta_prime"])
    def test_matches_fd_count(self, kind):
        rng = np.random.default_rng(5 if kind == "delta" else 6)
        lams = np.linspace(0.01, 30.0, 200)
        checked = 0
        for _ in range(10):
            n = int(rng.integers(8, 33))
            sys = random_truncation(rng, kind, n)
            fd = fd_oracle_eigenvalues(sys, n, 0.25 / 64, upper=31.0).values
            if kind == "delta_prime":
                fd = fd[fd > 0]  # the delta-prime count covers positive ones
            ref = np.sum(fd[None, :] <= lams[:, None], axis=1)
            # within 2e-3 of an FD eigenvalue the mesh error decides
            far = np.min(np.abs(fd[None, :] - lams[:, None]), axis=1) > 2e-3 * lams
            assert np.array_equal(_count_below(sys, n, lams)[far], ref[far])
            checked += int(np.sum(far))
        assert checked > 1500

    def test_free_counts(self):
        lat = SparseSet.explicit([0.0, 1.0, 2.5])
        lams = np.array([0.5, 3.0, 20.0, 90.0])
        k = np.sqrt(lams) * 2.5 / math.pi
        for kind, want in (("delta", np.floor(k)), ("delta_prime", np.floor(k + 0.5))):
            sys = SystemSpec(kind, lat, StrengthSequence.explicit([0.0, 0.0]))
            assert np.array_equal(_count_below(sys, 2, lams), want)

    @pytest.mark.requires_scipy
    def test_finds_roots_the_grid_scan_missed(self):
        # a sign-change scan of the closure value on the default grid finds
        # 25 of these 27 roots: the pair at 12.7888/12.7944 shares one cell
        rng = np.random.default_rng(1)
        sys = random_truncation(rng, "delta_prime", 32)
        res = truncated_eigenvalues(sys, 32, (0.5, 20.0))
        fd = fd_oracle_eigenvalues(sys, 32, 0.25 / 64, upper=20.0).values
        inside = fd[(fd > 0.5) & (fd < 20.0)]
        assert len(res) == len(inside) == 27
        assert res.suspected_missed == 0
        assert np.allclose(res.values, inside, rtol=1e-3)

    def test_roots_closer_than_tol_are_reported_once(self):
        lat = SparseSet.explicit([0.0, 1.0, 3.0])
        sys = SystemSpec("delta", lat, StrengthSequence.explicit([5000.0, 0.0]))
        fine = truncated_eigenvalues(sys, 2, (0.5, 30.0))
        coarse = truncated_eigenvalues(sys, 2, (0.5, 30.0),
                                       grid_resolution=10, tol=0.05)
        assert len(fine) == 4 and fine.suspected_missed == 0
        assert len(coarse) == 3 and coarse.suspected_missed == 1
        assert np.all(coarse.bracket_widths <= 0.05)


def eigenvalues_one_at_a_time(system, n_max, lam_range, grid_resolution=2000,
                              tol=1e-10):
    """Reference solver: the count on every grid point, one midpoint per round."""
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
    if math.sqrt(lam_hi) * x_end / math.pi + n_max > 2.0**53:
        raise ValueError("eigenvalue count passes 2^53, beyond exact doubles")
    grid = np.linspace(lam_lo, lam_hi, grid_resolution + 1)
    counts = spectrum._count_below(system, n_max, grid)
    if (n_roots := counts[-1] - counts[0]) > grid_resolution:
        raise ValueError(f"{n_roots} eigenvalues in range, more than "
                         f"grid_resolution ({grid_resolution}); narrow the range")
    js = np.arange(counts[0] + 1, counts[-1] + 1)
    cell = np.searchsorted(counts, js) - 1
    lo, hi = grid[cell], grid[cell + 1]
    while np.any(live := hi - lo > np.maximum(tol, np.spacing(hi))):
        mid = 0.5 * (lo[live] + hi[live])
        left = spectrum._count_below(system, n_max, mid) >= js[live]
        hi[live] = np.where(left, mid, hi[live])
        lo[live] = np.where(left, lo[live], mid)
    roots, first = np.unique(0.5 * (lo + hi), return_index=True)
    col = 0 if system.kind == "delta" else 1
    residuals = [abs(propagate(system, r, DIRICHLET_START, n_max)[-1][col])
                 for r in roots.tolist()]
    return EigenvalueList(values=roots, residuals=np.array(residuals),
                          bracket_widths=(hi - lo)[first],
                          suspected_missed=len(js) - len(roots))


def solve_or_error(solver, *args):
    try:
        res = solver(*args)
    except (ValueError, OverflowError) as err:
        return type(err), str(err)
    return (res.values, res.residuals, res.bracket_widths, res.suspected_missed)


def assert_same_outcome(args):
    got = solve_or_error(truncated_eigenvalues, *args)
    want = solve_or_error(eigenvalues_one_at_a_time, *args)
    if isinstance(want[0], type):
        assert got == want
        return False
    assert all(np.array_equal(g, w) for g, w in zip(got, want)), args[2:]
    return True


class TestCoarseGridAndMidpointTree:
    def test_roots_equal_one_at_a_time_bisection(self):
        rng = np.random.default_rng(13)
        resolutions = (2, 3, 10, 17, 100, 1999, 2000, 4097)
        tols = (1e-16, 1e-10, 1e-6, 0.05)
        solved = errors = 0
        for i in range(200):
            n = int(rng.integers(1, 13))
            system = random_truncation(rng, ("delta", "delta_prime")[i % 2], n)
            lo = float(rng.uniform(0.01, 5.0))
            lam_range = (lo, lo + float(rng.uniform(0.5, 25.0)))
            args = (system, n, lam_range, resolutions[i % 8], tols[i // 8 % 4])
            if assert_same_outcome(args):
                solved += 1
            else:
                errors += 1
        assert solved >= 100 and errors >= 10

    def test_close_roots_empty_ranges_and_end_cells(self):
        close = SystemSpec("delta", SparseSet.explicit([0.0, 1.0, 3.0]),
                           StrengthSequence.explicit([5000.0, 0.0]))
        for grid_resolution, tol in ((2000, 1e-10), (10, 0.05), (17, 1e-16), (3, 1e-6)):
            assert_same_outcome((close, 2, (0.5, 30.0), grid_resolution, tol))
        free = SystemSpec("delta", SparseSet.explicit([0.0, math.pi]),
                          StrengthSequence.explicit([0.0]))
        assert_same_outcome((free, 1, (1.5, 3.5), 2000, 1e-10))  # no roots
        # the roots 1 and 4 lie in the first and the last of 2000 cells
        for lam_range in ((0.9999, 3.0), (2.0, 4.0005)):
            assert_same_outcome((free, 1, lam_range, 2000, 1e-12))
            grid = np.linspace(*lam_range, 2001)
            (root,) = truncated_eigenvalues(free, 1, lam_range, tol=1e-12).values
            assert grid[0] < root < grid[1] or grid[-2] < root < grid[-1]

    def test_errors_match_one_at_a_time_bisection(self):
        free = SystemSpec("delta", SparseSet.explicit([0.0, math.pi]),
                          StrengthSequence.explicit([0.0]))
        for args in ((free, 1, (2.0, 2.0)), (free, 1, (-1.0, 2.0)),
                     (free, 1, (0.5, 3.0), 1), (free, 0, (0.5, 3.0)),
                     (free, 1, (0.5, 100.0), 3),
                     (factorial_system("delta", 0.5), 20, (0.5, 10.0))):
            assert not assert_same_outcome(args)

    def test_count_calls_within_budget(self, monkeypatch):
        # the 27-root delta-prime truncation: one-at-a-time bisection counts
        # 28 times, the coarse grid and the midpoint tree at most 10
        rng = np.random.default_rng(1)
        system = random_truncation(rng, "delta_prime", 32)
        want = eigenvalues_one_at_a_time(system, 32, (0.5, 20.0))
        calls = []

        def counted(system, n_max, lams):
            calls.append(len(lams))
            return _count_below(system, n_max, lams)

        monkeypatch.setattr(spectrum, "_count_below", counted)
        res = truncated_eigenvalues(system, 32, (0.5, 20.0))
        assert len(calls) <= 10
        assert len(res) == 27 and np.array_equal(res.values, want.values)

    def test_many_roots_count_no_more_energies(self, monkeypatch):
        # hundreds of brackets get one bisection step per call, as
        # one-at-a-time bisection does, and tens get shallow trees
        energies = []

        def counted(system, n_max, lams):
            energies.append(len(lams))
            return _count_below(system, n_max, lams)

        monkeypatch.setattr(spectrum, "_count_below", counted)
        for kind in ("delta", "delta_prime"):
            system = random_truncation(np.random.default_rng(2032), kind, 32)
            for hi in (60.0, 200.0, 2000.0):
                assert assert_same_outcome((system, 32, (0.5, hi)))
                # rounding leaves some bracket widths just above this tol
                # and some just below: they stop a step apart
                tol = (hi - 0.5) / 2000 / 8
                assert assert_same_outcome((system, 32, (0.5, hi), 2000, tol))
            energies.clear()
            res = truncated_eigenvalues(system, 32, (0.5, 2000.0))
            ours = sum(energies)
            energies.clear()
            eigenvalues_one_at_a_time(system, 32, (0.5, 2000.0))
            assert len(res) > 250 and ours <= sum(energies)


def fd_matrix_loop(system, n_max, h):
    """Reference FD assembly, one mesh node at a time."""
    m = int(round(system.lattice.position(n_max) / h))
    nodes = [int(round(x / h)) for x in system.lattice.positions(n_max)[1:]]
    interior = {j: a for j, a in zip(nodes, system.strengths.alphas(1, n_max))
                if j < m}
    delta_prime = system.kind == "delta_prime"
    diag, off, mass = [], [], []
    for node in range(1, m + 1):
        if delta_prime and abs(interior.get(node, 0.0)) > 1e-12:
            a = interior[node]
            diag += [1.0 / h + 1.0 / a] * 2
            mass += [h / 2.0] * 2
            off += [-1.0 / h, -1.0 / a]
            continue
        if node == m and not delta_prime:
            break
        diag.append(1.0 / h if node == m else 2.0 / h)
        mass.append(h / 2.0 if node == m else h)
        off.append(-1.0 / h)
        if not delta_prime and node in interior:
            diag[-1] += interior[node]
    scale = 1.0 / np.sqrt(np.asarray(mass))
    return (np.asarray(diag) * scale * scale,
            np.asarray(off[1:]) * scale[:-1] * scale[1:])


class TestFdOracle:
    @pytest.mark.requires_scipy
    def test_free_laplacian_benchmark(self):
        lat = SparseSet.explicit([0.0, math.pi])
        sys = SystemSpec("delta", lat, StrengthSequence.explicit([0.0]))
        res = fd_oracle_eigenvalues(sys, 1, math.pi / 2000, 3)
        assert abs(res.values[0] - 1.0) < 1e-5

    @pytest.mark.requires_scipy
    def test_second_order_convergence(self):
        lat = SparseSet.explicit([0.0, math.pi])
        sys = SystemSpec("delta", lat, StrengthSequence.explicit([0.0]))
        errs = [abs(fd_oracle_eigenvalues(sys, 1, math.pi / m, 1).values[0] - 1.0)
                for m in (500, 1000, 2000)]
        for e0, e1 in zip(errs, errs[1:]):
            assert 3.0 < e0 / e1 < 5.0

    @pytest.mark.requires_scipy
    def test_delta_at_midpoint_matches_shooting(self):
        lat = SparseSet.explicit([0.0, 1.0, 2.0])
        sys = SystemSpec("delta", lat, StrengthSequence.explicit([10.0, 0.0]))
        sh = truncated_eigenvalues(sys, 2, (0.5, 120.0),
                                   grid_resolution=4000, tol=1e-12)
        fd = fd_oracle_eigenvalues(sys, 2, 1.0 / 1024, 8)
        inside = fd.values[(fd.values > 0.5) & (fd.values < 120.0)]
        k = min(5, len(inside), len(sh.values))
        assert np.allclose(sh.values[:k], inside[:k], rtol=1e-3)

    @pytest.mark.requires_scipy
    def test_delta_prime_matches_shooting(self):
        lat = SparseSet.explicit([0.0, 1.0, 2.5])
        sys = SystemSpec("delta_prime", lat,
                         StrengthSequence.explicit([3.0, 0.0]))
        sh = truncated_eigenvalues(sys, 2, (0.05, 80.0),
                                   grid_resolution=4000, tol=1e-12)
        fd = fd_oracle_eigenvalues(sys, 2, 2.5 / 2560, 10)
        inside = fd.values[(fd.values > 0.05) & (fd.values < 80.0)]
        k = min(5, len(inside), len(sh.values))
        assert k >= 4
        assert np.allclose(sh.values[:k], inside[:k], rtol=1e-3)

    @pytest.mark.requires_scipy
    @pytest.mark.parametrize("kind", ["delta", "delta_prime"])
    def test_upper_reaches_one_past(self, kind):
        sys = SystemSpec(kind, SparseSet.explicit([0.0, 1.0, 2.5, 3.0]),
                         StrengthSequence.explicit([-6.0, 2.0, 3.0]))
        h = 3.0 / 600
        for upper in (0.5, 12.0, 40.0):
            fd = fd_oracle_eigenvalues(sys, 3, h, upper=upper)
            assert fd.values[-1] > upper >= fd.values[-2]
            assert np.array_equal(
                fd.values, fd_oracle_eigenvalues(sys, 3, h, len(fd)).values)
        with pytest.raises(ValueError):
            fd_oracle_eigenvalues(sys, 3, h)

    @pytest.mark.requires_scipy
    @pytest.mark.parametrize("kind", ["delta", "delta_prime"])
    def test_upper_at_an_fd_eigenvalue(self, kind):
        # the value LAPACK bisects can sit at or below the point where the
        # exact count passes it; the list must still reach past upper
        sys = SystemSpec(kind, SparseSet.explicit([0.0, 1.0, 2.5, 3.0]),
                         StrengthSequence.explicit([-6.0, 2.0, 3.0]))
        h = 3.0 / 600
        full = fd_oracle_eigenvalues(sys, 3, h, 41).values
        for k in range(40):
            for upper in (full[k], fd_oracle_eigenvalues(sys, 3, h, k + 2).values[k]):
                fd = fd_oracle_eigenvalues(sys, 3, h, upper=upper)
                assert fd.values[-1] > upper
                assert k + 1 <= len(fd) <= k + 2
                assert np.array_equal(
                    fd.values, fd_oracle_eigenvalues(sys, 3, h, len(fd)).values)

    @pytest.mark.requires_scipy
    def test_upper_below_the_spectrum(self):
        # every node carries alpha = 100: the matrix's Gershgorin bound is
        # far above upper = 20, and the list is the lowest eigenvalue alone
        sys = SystemSpec("delta", SparseSet.explicit([0.0, 0.25, 0.5, 0.75, 1.0]),
                         StrengthSequence.explicit([100.0] * 4))
        fd = fd_oracle_eigenvalues(sys, 4, 0.25, upper=20.0)
        assert len(fd) == 1 and fd.values[0] > 20.0
        assert np.array_equal(fd.values, fd_oracle_eigenvalues(sys, 4, 0.25, 1).values)

    @pytest.mark.requires_scipy
    def test_sturm_count_matches_lapack(self, rng):
        from scipy.linalg import eigh_tridiagonal

        matrices = []
        for n in (2, 3, 7, 30):
            for scale in (1e-3, 1.0, 1e3):
                d, e = rng.normal(size=n) * scale, rng.normal(size=n - 1) * scale
                matrices += [(d, e), (d, e * rng.choice([1e-20, 1.0], n - 1)),
                             (np.full(n, d[0]), e)]
        for kind in ("delta", "delta_prime"):
            for n, h in ((3, 1 / 64), (8, 1 / 32)):
                matrices.append(_fd_tridiagonal(random_truncation(rng, kind, n), n, h))
        for d, e in matrices:
            w = eigh_tridiagonal(d, e, eigvals_only=True)
            lower = float(np.min(d) - 2.0 * np.max(np.abs(e))) - 1.0  # Gershgorin
            for x in [*rng.uniform(w[0] - 1.0, w[-1] + 1.0, 4), *w[:3], *w[-2:],
                      *np.nextafter(w[:3], np.inf), *np.nextafter(w[:3], -np.inf)]:
                x = max(float(x), lower)
                assert _sturm_count(d, e, x) == len(eigh_tridiagonal(
                    d, e, select="v", select_range=(lower, x), eigvals_only=True))

    def test_mesh_errors_need_no_scipy(self, monkeypatch):
        monkeypatch.setitem(loaded_modules, "scipy", None)
        monkeypatch.setitem(loaded_modules, "scipy.linalg", None)
        lat = SparseSet.explicit([0.0, 1.0, 1.0 + 1e-5, 2.0])
        system = SystemSpec("delta", lat, StrengthSequence.explicit([1.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="collide"):
            fd_oracle_eigenvalues(system, 3, 0.01, 4)
        with pytest.raises(ValueError, match="manageable"):
            fd_oracle_eigenvalues(system, 3, 1e-7, upper=5.0)
        with pytest.raises(ValueError, match="coarse"):
            fd_oracle_eigenvalues(system, 3, 1.0, 2)

    def test_colliding_nodes_rejected(self):
        lat = SparseSet.explicit([0.0, 1.0, 1.0 + 1e-5, 2.0])
        sys = SystemSpec("delta", lat,
                         StrengthSequence.explicit([1.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="collide"):
            fd_oracle_eigenvalues(sys, 3, 0.01, 4)

    @pytest.mark.parametrize("kind", ["delta", "delta_prime"])
    def test_points_snap_to_nearest_node(self, kind):
        # at h = 0.3 the points 1, 2, 3.5 sit on the nodes 0.9, 2.1, 3.6 (an
        # error of up to h/2 each, x_N included): the same matrix, no error
        def matrix(points):
            return _fd_tridiagonal(
                SystemSpec(kind, SparseSet.explicit(points),
                           StrengthSequence.explicit([2.0, -1.5, 0.0])), 3, 0.3)

        d, e = matrix([0.0, 1.0, 2.0, 3.5])
        on_d, on_e = matrix([0.0, 0.9, 2.1, 3.6])
        assert d.tobytes() == on_d.tobytes()
        assert e.tobytes() == on_e.tobytes()

    @pytest.mark.parametrize("kind", ["delta", "delta_prime"])
    def test_matrix_matches_node_loop(self, kind):
        # the assembly's array operations against a node-by-node loop, bit
        # for bit, with zero and sub-1e-12 strengths among the couplings
        rng = np.random.default_rng(11)
        for h in (1 / 64, 1 / 128, 1 / 256, 1 / 1024):
            for n in (1, 2, 5, 17, 32):
                sys = random_truncation(rng, kind, n)
                alphas = sys.strengths.values * rng.choice([0.0, 1e-13, 1.0], n)
                sys = SystemSpec(kind, sys.lattice, StrengthSequence.explicit(alphas))
                d, e = _fd_tridiagonal(sys, n, h)
                ref_d, ref_e = fd_matrix_loop(sys, n, h)
                assert d.tobytes() == ref_d.tobytes()
                assert e.tobytes() == ref_e.tobytes()

    def test_mesh_size_limits(self):
        lat = SparseSet.explicit([0.0, 1.0])
        sys = SystemSpec("delta", lat, StrengthSequence.explicit([0.0]))
        with pytest.raises(ValueError, match="manageable"):
            fd_oracle_eigenvalues(sys, 1, 1e-7, 2)
        with pytest.raises(ValueError, match="coarse"):
            fd_oracle_eigenvalues(sys, 1, 0.5, 2)


class TestEigenvalueList:
    def test_must_be_ascending(self):
        with pytest.raises(ValueError):
            EigenvalueList(values=np.array([1.0, 0.5]))
