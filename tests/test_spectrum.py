import json
import math
from collections import defaultdict
from pathlib import Path
from sys import modules as loaded_modules

import mpmath
import numpy as np
import pytest

from pointspec import (ClassifyConfig, EigenvalueList, Interval, SparseSet,
                       StrengthSequence, SystemSpec, box_eigenvalue_above,
                       classify, dirichlet_eigenvalues,
                       essential_spectrum_probe, fd_oracle_eigenvalues,
                       truncated_eigenvalues)
from pointspec import spectrum
from pointspec.cli import main

from conftest import factorial_system
from count_reference import mp_count_below
from fd_reference import _fd_tridiagonal, _sturm_count


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


def shooting_count(system, n_max, lams):
    """The shooting count at each energy, through the name the solve calls."""
    return spectrum._count_below(*spectrum._shooting_cells(system, n_max), lams)[0]


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
        assert np.all(res.residuals < 1e-8)

    def test_matches_fd_oracle_on_small_delta_system(self):
        lat = SparseSet.explicit([0.0, 1.0, 3.0])
        sys = SystemSpec("delta", lat, StrengthSequence.explicit([5.0, 0.0]))
        sh = truncated_eigenvalues(sys, 2, (0.05, 30.0), tol=1e-12)
        fd = fd_oracle_eigenvalues(sys, 2, 1.0 / 1024, 8)
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
            assert np.array_equal(shooting_count(sys, n, lams)[far], ref[far])
            checked += int(np.sum(far))
        assert checked > 1500

    def test_free_counts(self):
        lat = SparseSet.explicit([0.0, 1.0, 2.5])
        lams = np.array([0.5, 3.0, 20.0, 90.0])
        k = np.sqrt(lams) * 2.5 / math.pi
        for kind, want in (("delta", np.floor(k)), ("delta_prime", np.floor(k + 0.5))):
            sys = SystemSpec(kind, lat, StrengthSequence.explicit([0.0, 0.0]))
            assert np.array_equal(shooting_count(sys, 2, lams), want)

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
    """Reference solver: the count on every grid point, one midpoint per round.

    Makes no residuals: ``TestResiduals`` checks those against mpmath.
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
    if math.sqrt(lam_hi) * x_end / math.pi + n_max > 2.0**53:
        raise ValueError("eigenvalue count passes 2^53, beyond exact doubles")
    grid = np.linspace(lam_lo, lam_hi, grid_resolution + 1)
    counts = shooting_count(system, n_max, grid)
    if (n_roots := counts[-1] - counts[0]) > grid_resolution:
        raise ValueError(f"{n_roots} eigenvalues in range, more than "
                         f"grid_resolution ({grid_resolution}); narrow the range")
    js = np.arange(counts[0] + 1, counts[-1] + 1)
    cell = np.searchsorted(counts, js) - 1
    lo, hi = grid[cell], grid[cell + 1]
    while np.any(live := hi - lo > np.maximum(tol, np.spacing(hi))):
        mid = 0.5 * (lo[live] + hi[live])
        left = shooting_count(system, n_max, mid) >= js[live]
        hi[live] = np.where(left, mid, hi[live])
        lo[live] = np.where(left, lo[live], mid)
    roots, first = np.unique(0.5 * (lo + hi), return_index=True)
    return EigenvalueList(values=roots, bracket_widths=(hi - lo)[first],
                          suspected_missed=len(js) - len(roots))


def solve_or_error(solver, *args):
    try:
        res = solver(*args)
    except (ValueError, OverflowError) as err:
        return type(err), str(err)
    return (res.values, res.bracket_widths, res.suspected_missed)


def assert_same_outcome(args):
    got = solve_or_error(truncated_eigenvalues, *args)
    want = solve_or_error(eigenvalues_one_at_a_time, *args)
    if isinstance(want[0], type):
        assert got == want
        return False
    assert all(np.array_equal(g, w) for g, w in zip(got, want)), args[2:]
    return True


def count_calls(monkeypatch) -> dict:
    """Record the energies of every ``_count_below`` call under "all", and
    under "solve" those made until ``_bisect`` last returned."""
    calls = {"all": [], "solve": []}
    count_below, bisect = spectrum._count_below, spectrum._bisect

    def counted(*args):
        calls["all"].append(np.array(args[-1]))
        return count_below(*args)

    def bisected(*args, **kwargs):
        brackets = bisect(*args, **kwargs)
        calls["solve"] = list(calls["all"])
        return brackets

    monkeypatch.setattr(spectrum, "_count_below", counted)
    monkeypatch.setattr(spectrum, "_bisect", bisected)
    return calls


def after_the_solve(calls, res) -> bool:
    """Exactly one count call followed the solve, at the printed roots."""
    rest = calls["all"][len(calls["solve"]):]
    return len(rest) == 1 and np.array_equal(rest[0], res.values)


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
        # 28 times, the coarse grid and the midpoint tree 9 (27 trees of 4
        # levels fill a call); a 3-root truncation takes 5-level trees: 7.
        # One more call, at the roots, gives the residuals
        rng = np.random.default_rng(1)
        system = random_truncation(rng, "delta_prime", 32)
        few = random_truncation(np.random.default_rng(1), "delta", 8)
        want = eigenvalues_one_at_a_time(system, 32, (0.5, 20.0))
        want_few = eigenvalues_one_at_a_time(few, 8, (0.5, 6.0))
        calls = count_calls(monkeypatch)
        res = truncated_eigenvalues(system, 32, (0.5, 20.0))
        assert 0 < len(calls["solve"]) <= 9 and after_the_solve(calls, res)
        assert len(res) == 27 and np.array_equal(res.values, want.values)
        calls = count_calls(monkeypatch)
        res = truncated_eigenvalues(few, 8, (0.5, 6.0))
        assert 0 < len(calls["solve"]) <= 7 and after_the_solve(calls, res)
        assert len(res) == 3 and np.array_equal(res.values, want_few.values)

    def test_many_roots_count_no_more_energies(self, monkeypatch):
        # hundreds of brackets get one bisection step per call, as
        # one-at-a-time bisection does, and tens get shallow trees
        for kind in ("delta", "delta_prime"):
            system = random_truncation(np.random.default_rng(2032), kind, 32)
            for hi in (60.0, 200.0, 2000.0):
                assert assert_same_outcome((system, 32, (0.5, hi)))
                # rounding leaves some bracket widths just above this tol
                # and some just below: they stop a step apart
                tol = (hi - 0.5) / 2000 / 8
                assert assert_same_outcome((system, 32, (0.5, hi), 2000, tol))
            calls = count_calls(monkeypatch)
            res = truncated_eigenvalues(system, 32, (0.5, 2000.0))
            assert after_the_solve(calls, res)
            ours = sum(map(len, calls["solve"]))
            calls = count_calls(monkeypatch)
            eigenvalues_one_at_a_time(system, 32, (0.5, 2000.0))
            assert len(res) > 250 and 0 < ours <= sum(map(len, calls["all"]))


def bisect_one_at_a_time(count, js, lo, hi, tol):
    """Reference bisection: one midpoint per bracket and round, under
    ``_bisect``'s stopping test (tol, or the gap between adjacent doubles at |hi|)."""
    lo, hi = lo.copy(), hi.copy()
    while np.any(live := hi - lo > np.maximum(tol, np.spacing(np.abs(hi)))):
        mid = 0.5 * (lo[live] + hi[live])
        left = count(mid) >= js[live]
        hi[live] = np.where(left, mid, hi[live])
        lo[live] = np.where(left, lo[live], mid)
    return lo, hi


def step_count(roots, backs=(), stepped_back=None):
    """Roots at or below each energy, one fewer inside each (a, b] of
    ``backs``; appends to ``stepped_back`` the energies counted there."""
    def count(lams):
        got = np.searchsorted(roots, lams, side="right")
        for a, b in backs:
            inside = (lams > a) & (lams <= b)
            got -= inside
            if stepped_back is not None:
                stepped_back.extend(lams[inside])
        return got
    return count


class TestBisect:
    @pytest.mark.parametrize("n_brackets", [1, 7, 300, 600])
    @pytest.mark.parametrize("max_levels", [spectrum._TREE_LEVELS, spectrum._FD_TREE_LEVELS])
    def test_equals_one_at_a_time_bisection(self, n_brackets, max_levels):
        # step counts with random roots, some stepping back by one inside a
        # 1e-9 band just above a root (the walk down each tree step by
        # step), brackets below, across and above 0, tol 0 (adjacent
        # doubles) among the tolerances, and brackets that start narrower
        # than tol or far narrower than the others; 1, 7 and 300 brackets
        # take trees of 9 levels down to 1, and 600, more than
        # _CALL_ENERGIES, one level
        rng = np.random.default_rng(100 * n_brackets + max_levels)
        stepped_back = []
        for i, (a, b) in enumerate([(0.5, 20.0), (-6.0, -0.25), (-1.0, 1.0), (1e3, 2e3)] * 3):
            roots = np.sort(rng.uniform(a, b, n_brackets))
            picked = roots[(rng.random(n_brackets) < 0.3) | (np.arange(n_brackets) == 0)]
            shifts = rng.uniform(0.0, 1e-9, len(picked))
            backs = [(r + d, r + d + 1e-9) for r, d in zip(picked, shifts)]
            count = step_count(roots, backs if i % 3 else (), stepped_back)
            grid = np.linspace(a - 0.01, b + 0.01, int(rng.integers(2, 3000)))
            js = np.arange(1, n_brackets + 1)
            cell = np.searchsorted(count(grid), js) - 1
            lo, hi = grid[cell], grid[cell + 1]
            tol = (0.0, 1e-10, 1e-6, 0.05)[i % 4]
            # brackets about their roots, some narrower than tol from the
            # start, some 2^-k of their cell, so they stop inside a tree
            narrow = rng.random(n_brackets) < 0.2
            lo[narrow] = np.nextafter(roots[narrow], -np.inf) - 0.25 * tol
            hi[narrow] = roots[narrow] + 0.25 * tol
            shrunk = ~narrow & (rng.random(n_brackets) < 0.3)
            scale = 2.0 ** -rng.integers(1, 40, n_brackets)[shrunk]
            lo[shrunk] = np.minimum(roots[shrunk] - (roots - lo)[shrunk] * scale,
                                    np.nextafter(roots[shrunk], -np.inf))
            hi[shrunk] = roots[shrunk] + (hi - roots)[shrunk] * scale
            got = spectrum._bisect(count, js, lo.copy(), hi.copy(), tol, max_levels)
            want = bisect_one_at_a_time(count, js, lo, hi, tol)
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        assert stepped_back  # some midpoints met a count that stepped back

    def test_narrow_brackets_stop_inside_a_stepped_back_tree(self):
        # one bracket 2^5-2^8 tol wide about the first root, with the count
        # stepping back in a band 2-20 tol above that root, so each tree is
        # walked step by step; three brackets 1-4 tol wide in the same call
        # stop after a step or two inside their trees of up to 8 levels
        rng = np.random.default_rng(26)
        tol, stepped_back = 1e-6, []
        for _ in range(400):
            roots = np.sort(rng.uniform(0.5, 20.0, 4))
            band = (roots[0] + 0.1 * tol, roots[0] + rng.uniform(2.0, 20.0) * tol)
            count = step_count(roots, [band], stepped_back)
            widths = np.r_[2.0 ** rng.uniform(5.0, 8.0), rng.uniform(1.0, 4.0, 3)] * tol
            lo = roots - rng.uniform(0.1, 0.9, 4) * widths
            hi = lo + widths
            js = np.arange(1, 5)
            got = spectrum._bisect(count, js, lo.copy(), hi.copy(), tol, spectrum._FD_TREE_LEVELS)
            want = bisect_one_at_a_time(count, js, lo, hi, tol)
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        assert stepped_back


class TestResiduals:
    @pytest.mark.parametrize("kind", ["delta", "delta_prime"])
    def test_end_angle_matches_mpmath(self, kind):
        # truncations shaped like the benchmark's: |sin phi(x_N)| at each
        # printed root against a 60-digit chain over the same double gaps
        rng = np.random.default_rng(71 if kind == "delta" else 72)
        roots = 0
        for _ in range(16):
            n = int(rng.integers(8, 33))
            system = random_truncation(rng, kind, n)
            lo = math.exp(rng.uniform(math.log(0.01), math.log(0.5)))
            res = truncated_eigenvalues(system, n, (lo, float(rng.uniform(5.0, 20.0))))
            assert np.all((res.residuals >= 0.0) & (res.residuals <= 1.0))
            for lam, residual in zip(res.values.tolist(), res.residuals.tolist()):
                end = mp_count_below(system, n, lam)[1]
                assert abs(residual - float(abs(mpmath.sin(end)))) < 1e-4, (n, lam)
            roots += len(res)
        assert roots > 100

    @pytest.mark.parametrize("n", [345, 360])
    def test_long_truncation_matches_mpmath(self, n):
        # psi grows past 1e300 near n = 345 here, and past double range
        # before 360; the end angle keeps its digits (measured: 2.8e-15 at
        # 345, 8.2e-14 at 360 on every root)
        system = SystemSpec("delta", SparseSet.power(1.0, 1.5), StrengthSequence.power(1.0, 0.5))
        res = truncated_eigenvalues(system, n, (0.5, 0.6))
        assert len(res) > 100
        for lam, residual in zip(res.values[::8].tolist(), res.residuals[::8].tolist()):
            end = mp_count_below(system, n, lam)[1]
            assert abs(residual - float(abs(mpmath.sin(end)))) < 1e-12, lam


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
    def test_free_laplacian_benchmark(self):
        lat = SparseSet.explicit([0.0, math.pi])
        sys = SystemSpec("delta", lat, StrengthSequence.explicit([0.0]))
        res = fd_oracle_eigenvalues(sys, 1, math.pi / 2000, 3)
        assert abs(res.values[0] - 1.0) < 1e-5

    def test_second_order_convergence(self):
        lat = SparseSet.explicit([0.0, math.pi])
        sys = SystemSpec("delta", lat, StrengthSequence.explicit([0.0]))
        errs = [abs(fd_oracle_eigenvalues(sys, 1, math.pi / m, 1).values[0] - 1.0)
                for m in (500, 1000, 2000)]
        for e0, e1 in zip(errs, errs[1:]):
            assert 3.0 < e0 / e1 < 5.0

    def test_strengths_past_double_range_raise(self):
        # alpha_n = n^400 is past double range from n = 6
        sys = SystemSpec("delta", SparseSet.explicit(np.arange(1.0, 8.0)),
                         StrengthSequence.power(1.0, 400.0))
        with pytest.raises(OverflowError) as info:
            fd_oracle_eigenvalues(sys, 7, 0.25, count=1)
        assert str(info.value) == "|alpha_n| is past double range from n=6"

    def test_delta_at_midpoint_matches_shooting(self):
        lat = SparseSet.explicit([0.0, 1.0, 2.0])
        sys = SystemSpec("delta", lat, StrengthSequence.explicit([10.0, 0.0]))
        sh = truncated_eigenvalues(sys, 2, (0.5, 120.0),
                                   grid_resolution=4000, tol=1e-12)
        fd = fd_oracle_eigenvalues(sys, 2, 1.0 / 1024, 8)
        inside = fd.values[(fd.values > 0.5) & (fd.values < 120.0)]
        k = min(5, len(inside), len(sh.values))
        assert np.allclose(sh.values[:k], inside[:k], rtol=1e-3)

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

    @pytest.mark.parametrize("kind", ["delta", "delta_prime"])
    def test_upper_at_an_fd_eigenvalue(self, kind):
        # a bisected value can sit at or below the point where the count
        # passes it; the list must still reach past upper
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

    @pytest.mark.parametrize("kind", ["delta", "delta_prime"])
    def test_upper_anywhere_on_the_grid(self, kind):
        # upper on, just below and just above grid points, with the next
        # eigenvalue past the grid point above upper among them (as it can
        # be mid spectrum, where eigenvalues are sparser than grid points):
        # the values are those of the count mode
        sys = SystemSpec(kind, SparseSet.explicit([0.0, 1.0, 2.5, 3.0]),
                         StrengthSequence.explicit([-6.0, 2.0, 3.0]))
        h = 3.0 / 600
        _, size, (lowest, highest) = spectrum._fd_runs(sys, 3, h)
        tol = 2.0 * np.finfo(float).eps * max(-lowest, highest)
        grid = np.linspace(lowest - 8.0 * tol, highest + 8.0 * tol, spectrum._FD_GRID + 1)
        past = 0
        for g in (*grid[1:4], *grid[250:262], grid[-2]):
            for upper in (np.nextafter(g, -np.inf), g, np.nextafter(g, np.inf)):
                fd = fd_oracle_eigenvalues(sys, 3, h, upper=upper)
                assert fd.values[-1] > upper or len(fd) == size
                assert np.array_equal(
                    fd.values, fd_oracle_eigenvalues(sys, 3, h, len(fd)).values)
                past += fd.values[-1] > grid[np.searchsorted(grid, upper)]
        assert past > 0

    def test_upper_below_the_spectrum(self):
        # every node carries alpha = 100: the matrix's Gershgorin bound is
        # far above upper = 20, and the list is the lowest eigenvalue alone
        sys = SystemSpec("delta", SparseSet.explicit([0.0, 0.25, 0.5, 0.75, 1.0]),
                         StrengthSequence.explicit([100.0] * 4))
        fd = fd_oracle_eigenvalues(sys, 4, 0.25, upper=20.0)
        assert len(fd) == 1 and fd.values[0] > 20.0
        assert np.array_equal(fd.values, fd_oracle_eigenvalues(sys, 4, 0.25, 1).values)

    def test_upper_must_be_a_number(self):
        sys = SystemSpec("delta", SparseSet.explicit([0.0, 1.0, 2.5]),
                         StrengthSequence.explicit([3.0, 0.0]))
        with pytest.raises(ValueError, match="upper must be a number, got nan"):
            fd_oracle_eigenvalues(sys, 2, 1 / 16, upper=math.nan)

    def test_infinite_upper(self):
        # inf lies above every eigenvalue, -inf below the lowest
        sys = SystemSpec("delta", SparseSet.explicit([0.0, 1.0, 2.5]),
                         StrengthSequence.explicit([3.0, 0.0]))
        size = spectrum._fd_runs(sys, 2, 1 / 16)[1]
        every = fd_oracle_eigenvalues(sys, 2, 1 / 16, size).values
        assert len(every) == size == 39
        assert np.array_equal(fd_oracle_eigenvalues(sys, 2, 1 / 16, upper=math.inf).values,
                              every)
        assert np.array_equal(fd_oracle_eigenvalues(sys, 2, 1 / 16, upper=-math.inf).values,
                              every[:1])

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
        with pytest.raises(ValueError, match="coarse"):
            fd_oracle_eigenvalues(system, 3, 1.0, 2)

    def test_colliding_nodes_rejected(self):
        lat = SparseSet.explicit([0.0, 1.0, 1.0 + 1e-5, 2.0])
        sys = SystemSpec("delta", lat,
                         StrengthSequence.explicit([1.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="collide"):
            fd_oracle_eigenvalues(sys, 3, 0.01, 4)

    @pytest.mark.parametrize("kind", ["delta", "delta_prime"])
    def test_mesh_off_the_lattice_refused(self, kind):
        # at h = 0.3 the points 1, 2, 3.5 lie off the mesh: the oracle
        # refuses them rather than solve the truncation with its points
        # moved to the nodes 0.9, 2.1, 3.6
        def oracle(points, h):
            system = SystemSpec(kind, SparseSet.explicit(points),
                                StrengthSequence.explicit([2.0, -1.5, 0.0]))
            return fd_oracle_eigenvalues(system, 3, h, upper=10.0)

        with pytest.raises(ValueError, match=r"x_1 = 1\.0 is off the FD mesh of fd_h = 0\.3"):
            oracle([0.0, 1.0, 2.0, 3.5], 0.3)
        # x_N alone off its node by 1e-6 h is refused; within 1e-9 h counts as on it
        with pytest.raises(ValueError, match="x_3 .* fd_h"):
            oracle([0.0, 1.0, 2.0, 3.5 + 1e-6 / 64], 1 / 64)
        assert np.array_equal(oracle([0.0, 1.0, 2.0, 3.5 + 1e-12 / 64], 1 / 64).values,
                              oracle([0.0, 1.0, 2.0, 3.5], 1 / 64).values)

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
        with pytest.raises(ValueError, match="coarse"):
            fd_oracle_eigenvalues(sys, 1, 0.5, 2)


def fd_norm(d, e):
    """||T|| as LAPACK's bisection takes it: the larger Gershgorin bound."""
    radius = np.abs(np.r_[e, 0.0]) + np.abs(np.r_[0.0, e])
    return max(abs(float(np.min(d - radius))), abs(float(np.max(d + radius))))


def fd_truncations(rng, kind):
    """Random truncations on a few meshes, zero and sub-1e-12 strengths among them."""
    for n, h in ((1, 1 / 16), (3, 1 / 64), (8, 1 / 32), (17, 1 / 16)):
        system = random_truncation(rng, kind, n)
        alphas = system.strengths.values * rng.choice([0.0, 1e-13, 1.0], n)
        yield SystemSpec(kind, system.lattice, StrengthSequence.explicit(alphas)), n, h
    # fd_h = 4, so 4 / fd_h^2 = 0.25: energies in [0.25, 1] take the run map
    # of h^2 lam >= 4, not that of lam < 0
    yield (SystemSpec(kind, SparseSet.explicit([0.0, 8.0, 16.0, 24.0]),
                      StrengthSequence.explicit([1.0, -2.0, 0.5])), 3, 4.0)


class TestFdCount:
    @pytest.mark.parametrize("kind", ["delta", "delta_prime"])
    @pytest.mark.parametrize("block", [spectrum._FD_BLOCK, 2])
    def test_equals_the_pivot_count(self, kind, block, monkeypatch):
        # the cell count against LAPACK's pivot count on the assembled
        # matrix, with its eigenvalues from a dense numpy solve; block 2
        # forms the run maps of longer truncations in several blocks
        monkeypatch.setattr(spectrum, "_FD_BLOCK", block)
        rng = np.random.default_rng(23 if kind == "delta" else 24)
        for system, n, h in fd_truncations(rng, kind):
            d, e = _fd_tridiagonal(system, n, h)
            w = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
            mesh, size, (lowest, highest) = spectrum._fd_runs(system, n, h)
            assert size == len(d) and lowest <= w[0] and w[-1] <= highest

            def count(lams):
                return spectrum._fd_count_below(*mesh, np.asarray(lams, dtype=float))

            lams = np.concatenate([
                rng.uniform(lowest, highest, 40),  # anywhere in the spectrum
                -rng.uniform(0.0, 4.0 / h**2, 10),  # lam <= 0
                [-1e-300, -5e-324, 0.0, 5e-324, 1e-300, 1e-100, 1e-12],  # tiny
                np.array([1.0, 1.001, 1.5, 3.0]) * 4.0 / h**2,  # h^2 lam >= 4
                0.5 * (w[:-1] + w[1:]),  # between eigenvalues
            ])
            assert np.array_equal(count(lams), [_sturm_count(d, e, x) for x in lams])
            # within a few ulp ||T|| of an eigenvalue each count's rounding
            # decides; outside that band they agree exactly
            band = 16 * np.finfo(float).eps * fd_norm(d, e)
            near = np.concatenate([w - band, w + band])
            assert np.array_equal(count(near), [_sturm_count(d, e, x) for x in near])
            at = np.concatenate([np.nextafter(w, -np.inf), np.nextafter(w, np.inf)])
            diff = count(at) - np.array([_sturm_count(d, e, x) for x in at])
            assert np.all(np.abs(diff) <= 1)
            assert count([lowest]) == 0 and count([highest]) == size

    @pytest.mark.requires_scipy
    @pytest.mark.parametrize("kind", ["delta", "delta_prime"])
    def test_eigenvalues_within_lapack_accuracy(self, kind):
        # the oracle's values against LAPACK's bisection on the assembled
        # matrix, on truncations like the benchmark's
        from scipy.linalg import eigh_tridiagonal

        rng = np.random.default_rng(31 if kind == "delta" else 32)
        for _ in range(10):
            n = int(rng.integers(8, 33))
            system = random_truncation(rng, kind, n)
            upper = float(rng.uniform(5.0, 20.0))
            fd = fd_oracle_eigenvalues(system, n, 1 / 128, upper=upper).values
            d, e = _fd_tridiagonal(system, n, 1 / 128)
            ref = eigh_tridiagonal(d, e, select="i", select_range=(0, len(fd) - 1),
                                   eigvals_only=True)
            assert np.all(np.abs(fd - ref) <= 2 * np.finfo(float).eps * fd_norm(d, e))
            assert ref[-1] > upper >= ref[-2]

    @pytest.mark.parametrize("kind, want", [("delta", [1.0, 4.0]),
                                            ("delta_prime", [0.25, 2.25])])
    def test_free_box_on_a_huge_mesh(self, kind, want):
        # 10^8 mesh nodes, no more work than one run: the count resolves the
        # low eigenvalues to rounding, far below the oracle's tolerance
        # 2 ulp ||T|| (1.8 here), so they are bisected on it to adjacent doubles
        system = SystemSpec(kind, SparseSet.explicit([0.0, math.pi]),
                            StrengthSequence.explicit([0.0]))
        h = math.pi / 10**8
        mesh, size, _ = spectrum._fd_runs(system, 1, h)
        assert size >= 10**8 - 1
        lo, hi = spectrum._bisect(lambda lams: spectrum._fd_count_below(*mesh, lams),
                                  np.array([1, 2]), np.zeros(2), np.full(2, 8.0), 0.0)
        fd = 0.5 * (lo + hi)
        # the scheme's second-order error, lam^2 h^2 / 12, is below rounding
        want = np.array(want)
        assert np.all(np.abs(fd - want) <= want * (want * h * h / 12 + 4 * np.finfo(float).eps))


def nearest_truncation(rng, kind):
    """2-30 explicit points, gaps k/8 (k = 1..16), strengths uniform in [-20, 20]."""
    n = int(rng.integers(2, 31))
    gaps = rng.integers(1, 17, n) / 8
    return n, SystemSpec(kind, SparseSet.explicit(np.concatenate([[0.0], np.cumsum(gaps)])),
                         StrengthSequence.explicit(rng.uniform(-20.0, 20.0, n)))


def fd_eigenvalues_one_at_a_time(system, n, h, upper):
    """Reference FD list: every eigenvalue at or below ``upper`` plus the next,
    each from its grid cell of a full-grid count, one midpoint per round, to
    the oracle's tolerance of 2 ulp ||T||."""
    oracle = spectrum._FdOracle(system, n, h)
    grid_counts = np.concatenate([[0], oracle.count(oracle.grid[1:-1]), [oracle.size]])
    vals, wanted = np.zeros(0), min(int(oracle.count([upper])[0]) + 1, oracle.size)
    while len(vals) < wanted or (vals[-1] <= upper and len(vals) < oracle.size):
        js = np.arange(len(vals) + 1, max(wanted, len(vals) + 1) + 1)
        cell = np.searchsorted(grid_counts, js) - 1
        lo, hi = bisect_one_at_a_time(oracle.count, js, oracle.grid[cell], oracle.grid[cell + 1],
                                      oracle.tol)
        vals = np.concatenate([vals, 0.5 * (lo + hi)])
    return vals


def fd_certified_one_at_a_time(system, n, h, lams):
    """Reference certified values: the FD eigenvalue in each (lam - r, lam + r],
    r = _FD_NEAR |lam|, bisected one midpoint per round from that interval
    (the first energy's, where several hold the same eigenvalue); and the
    oracle's tolerance."""
    oracle = spectrum._FdOracle(system, n, h)
    radius = spectrum._FD_NEAR * np.abs(lams)
    below, above = lams - radius, lams + radius
    js, first, back = np.unique(oracle.count(above), return_index=True, return_inverse=True)
    lo, hi = bisect_one_at_a_time(oracle.count, js, below[first], above[first], oracle.tol)
    return (0.5 * (lo + hi))[back.ravel()], oracle.tol


def record_fallbacks(monkeypatch) -> list:
    """The arguments of every whole-list fallback ``fd_oracle_nearest`` takes."""
    fallbacks = []
    through = spectrum._FdOracle.through
    monkeypatch.setattr(spectrum._FdOracle, "through",
                        lambda oracle, *args: fallbacks.append(args) or through(oracle, *args))
    return fallbacks


def assert_nearest(system, n, h, lams, values, certified, want):
    """Certified values are bisected from their intervals, fallback values
    are the list's argmin, and each lies within 2 tol of the list's nearest."""
    nearest = want[np.argmin(np.abs(want - lams[:, None]), axis=1)]
    ref, tol = fd_certified_one_at_a_time(system, n, h, lams)
    assert values.tobytes() == (ref if certified else nearest).tobytes()
    assert np.all(np.abs(values - nearest) <= 2.0 * tol)


class TestFdOracleNearest:
    @pytest.mark.parametrize("kind", ["delta", "delta_prime"])
    def test_equals_one_at_a_time_bisection(self, kind, monkeypatch):
        # the list against bisection one midpoint per round from the cells
        # of a full-grid count; the nearest values, certified or not,
        # against one-midpoint-per-round bisection from their intervals or
        # the list's argmin; the shooting roots take the certificate (and
        # its first tree) and the fallback, random energies mostly the
        # fallback
        fallbacks = record_fallbacks(monkeypatch)
        rng = np.random.default_rng(45 if kind == "delta" else 46)
        certified = 0
        for _ in range(100):
            n, system = nearest_truncation(rng, kind)
            h = 1.0 / int(rng.choice([32, 64, 128, 256]))
            upper = float(rng.uniform(2.0, 60.0))
            want = fd_eigenvalues_one_at_a_time(system, n, h, upper)
            got = fd_oracle_eigenvalues(system, n, h, upper=upper).values
            assert got.tobytes() == want.tobytes()
            roots = truncated_eigenvalues(system, n, (float(rng.uniform(0.01, 1.0)), upper)).values
            for lams in (roots, rng.uniform(0.0, 3.0 * upper, 4)):
                taken = len(fallbacks)
                values, count = spectrum.fd_oracle_nearest(system, n, h, lams, upper)
                held = len(fallbacks) == taken  # the certificate held
                certified += lams is roots and held
                assert_nearest(system, n, h, lams, values, held, want)
                assert count == len(want)
        assert 25 <= certified < 100

    @pytest.mark.parametrize("kind", ["delta", "delta_prime"])
    def test_equals_the_full_list(self, kind, monkeypatch):
        # the nearest values against the whole list searched, at the
        # shooting roots and at random energies (beyond upper and the
        # spectrum among them); the roots take both the certificate and
        # the fallback
        fallbacks = record_fallbacks(monkeypatch)
        rng = np.random.default_rng(43 if kind == "delta" else 44)
        certified = 0
        for _ in range(200):
            n, system = nearest_truncation(rng, kind)
            h = 1.0 / int(rng.choice([32, 64, 128, 256]))
            upper = float(rng.uniform(2.0, 60.0))
            roots = truncated_eigenvalues(system, n, (float(rng.uniform(0.01, 1.0)), upper)).values
            for lams in (roots, rng.uniform(0.0, 3.0 * upper, 4)):
                taken = len(fallbacks)
                values, count = spectrum.fd_oracle_nearest(system, n, h, lams, upper)
                held = len(fallbacks) == taken  # the certificate held
                certified += lams is roots and held
                want = fd_oracle_eigenvalues(system, n, h, upper=upper).values
                assert_nearest(system, n, h, lams, values, held, want)
                assert count == len(want) and type(count) is int
        assert 50 <= certified < 200

    def test_certifies_past_the_counted_grid(self, monkeypatch):
        # an FD eigenvalue just above the first grid point above upper: it
        # is certified from its interval by count calls that take no grid
        # point, and the whole list reads its grid counted whole, in one call
        system = SystemSpec("delta", SparseSet.explicit([0.0, 1.0, 2.5]),
                            StrengthSequence.explicit([3.0, 0.0]))
        oracle = spectrum._FdOracle(system, 2, 1 / 16)
        fd = fd_oracle_eigenvalues(system, 2, 1 / 16, count=oracle.size).values
        below = oracle.grid[np.searchsorted(oracle.grid, fd) - 1]  # the grid point under each
        k = np.argmin((fd - below) / fd)
        lam, point = fd[k], below[k]
        upper = float(np.nextafter(point, -np.inf))
        assert upper < point < lam < upper * (1 + spectrum._FD_NEAR / 2)
        original = spectrum._fd_count_below

        def record_energies():
            energies = []
            monkeypatch.setattr(spectrum, "_fd_count_below",
                                lambda *args: energies.append(args[-1]) or original(*args))
            return energies
        certificate = record_energies()
        monkeypatch.setattr(spectrum._FdOracle, "through", None)  # no fallback
        values, count = spectrum.fd_oracle_nearest(system, 2, 1 / 16, [lam], upper)
        monkeypatch.undo()
        assert not np.isin(oracle.grid, np.concatenate(certificate)).any()
        whole = record_energies()
        want = fd_oracle_eigenvalues(system, 2, 1 / 16, upper=upper).values
        monkeypatch.undo()
        reads = [e for e in whole if np.isin(e, oracle.grid[1:-1]).any()]
        assert len(reads) == 1 and np.array_equal(reads[0], oracle.grid[1:-1])
        assert_nearest(system, 2, 1 / 16, np.array([lam]), values, True, want)
        assert count == len(want)

    def test_no_energies(self):
        system = SystemSpec("delta", SparseSet.explicit([0.0, 1.0, 2.5]),
                            StrengthSequence.explicit([3.0, 0.0]))
        values, count = spectrum.fd_oracle_nearest(system, 2, 1 / 64, [], 30.0)
        assert len(values) == 0
        assert count == len(fd_oracle_eigenvalues(system, 2, 1 / 64, upper=30.0))

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    def test_energies_must_be_finite(self, energy):
        # NaN once took the list's first value, inf failed in a subtraction
        system = SystemSpec("delta", SparseSet.explicit([0.0, 1.0, 2.5]),
                            StrengthSequence.explicit([3.0, 0.0]))
        with pytest.raises(ValueError, match=r"energies must be finite, got \[.*\]"):
            spectrum.fd_oracle_nearest(system, 2, 1 / 16, [3.0, energy], 30.0)

    def test_upper_must_be_a_number(self):
        system = SystemSpec("delta", SparseSet.explicit([0.0, 1.0, 2.5]),
                            StrengthSequence.explicit([3.0, 0.0]))
        with pytest.raises(ValueError, match="upper must be a number, got nan"):
            spectrum.fd_oracle_nearest(system, 2, 1 / 16, [3.0], math.nan)

    def test_count_calls_on_the_golden_config(self, tmp_path, monkeypatch):
        # tests/golden/eigs.config.json: the whole list took 9 count calls of
        # 2725 energies; the certificate rides on the first call, and so
        # does the first tree of each interval's bisection
        energies = []
        original = spectrum._fd_count_below
        monkeypatch.setattr(spectrum, "_fd_count_below",
                            lambda *args: energies.append(len(args[-1])) or original(*args))
        config = Path(__file__).parent / "golden" / "eigs.config.json"
        assert main(["eigs", "--config", str(config), "--out", str(tmp_path / "out.csv")]) == 0
        assert len(energies) <= 6
        assert sum(energies) <= 1665

    def test_count_calls_on_a_benchmark_shaped_request(self, tmp_path, monkeypatch):
        # a 16-point delta-prime truncation at fd_h 1/128, as the spectrum
        # workload draws them: 9 shooting calls (coarse grid, fine grid, 6
        # bisection rounds, residuals) and 6 FD calls (the certificate with
        # the first tree of each interval, then 5 rounds); the printed
        # roots are those of one-at-a-time bisection on the shooting count,
        # the FD values those of one-at-a-time bisection from their
        # certified intervals
        system = random_truncation(np.random.default_rng(1), "delta_prime", 16)
        doc = {"system": {"kind": "delta_prime",
                          "positions": {"type": "explicit",
                                        "points": list(system.lattice.points[1:])},
                          "strengths": {"type": "explicit",
                                        "values": list(system.strengths.values)}},
               "params": {"n_points": 16, "lambda_range": [0.1, 12.0], "oracle": "fd",
                          "fd_h": 1 / 128}}
        config, out = tmp_path / "eigs.json", tmp_path / "out.csv"
        config.write_text(json.dumps(doc))
        fallbacks = record_fallbacks(monkeypatch)
        calls = {"_count_below": 0, "_fd_count_below": 0}
        for name in calls:
            def counted(*args, name=name, original=getattr(spectrum, name)):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(spectrum, name, counted)
        assert main(["eigs", "--config", str(config), "--out", str(out)]) == 0
        assert calls["_count_below"] <= 9 and calls["_fd_count_below"] <= 6
        assert not fallbacks
        monkeypatch.undo()
        roots = eigenvalues_one_at_a_time(system, 16, (0.1, 12.0)).values
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]
                if not line.startswith("#")]
        assert [row[1] for row in rows] == [repr(v) for v in roots.tolist()]
        values = np.array([float(row[4]) for row in rows])
        assert_nearest(system, 16, 1 / 128, roots, values, True,
                       fd_eigenvalues_one_at_a_time(system, 16, 1 / 128, 12.0))


class TestEigenvalueList:
    def test_must_be_ascending(self):
        for values in ([1.0, 0.5], [1.0, 1.0]):
            with pytest.raises(ValueError):
                EigenvalueList(values=np.array(values))


@pytest.mark.parametrize("call, error, message", [
    (lambda: fd_oracle_eigenvalues(factorial_system("delta", 0.5), 3, 0.0, upper=10.0),
     ValueError, "need positive mesh size"),
    (lambda: fd_oracle_eigenvalues(factorial_system("delta", 0.5), 171, 0.25, upper=10.0),
     OverflowError, "truncation endpoint beyond double range"),
    (lambda: fd_oracle_eigenvalues(factorial_system("delta", 0.5), 3, 0.25, count=0),
     ValueError, "need count >= 1"),
    (lambda: dirichlet_eigenvalues(0.0, 3), ValueError, "interval length must be positive"),
], ids=["fd_mesh_size", "fd_endpoint", "fd_count", "dirichlet_length"])
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
