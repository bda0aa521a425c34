"""The blocked window scan against the full-array formulas it replaced.

The oracle below evaluates a window as one array per quantity, exactly as
classify, series_verdict and estimate_threshold did before windows were
scanned a block at a time; every field must come out the same, bit for bit.
"""

import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from pointspec import (ClassifyConfig, SparseSet, StrengthSequence, SystemSpec,
                       classify, estimate_threshold, lattice, series_verdict)
from pointspec.growth import DivergenceVerdict
from pointspec.lattice import (WINDOW_BLOCK, ThresholdEstimate, _scan_block,
                               _tail_trend, _Workspace, window_scan)

B = WINDOW_BLOCK
CAP = 10**7 - 1


def oracle_window(system, n_lo, n_hi):
    log_sparse = system.lattice.log_gap_ratios(n_lo, n_hi)
    alphas = system.strengths.alphas(n_lo, n_hi)
    log_threshold = system.strengths.log_abs_alphas(n_lo, n_hi)
    log_threshold *= -2.0
    log_threshold += log_sparse
    return log_sparse, np.abs(alphas), log_threshold, bool(np.all(alphas > 0))


def oracle_threshold(system, window, infinity_threshold):
    logr = oracle_window(system, *window)[2]
    with np.errstate(over="ignore"):
        value = float(np.exp(np.min(logr)))
        last = float(np.exp(logr[-1]))
    trend = _tail_trend(logr[-25:])
    return ThresholdEstimate(value=value,
                             diverging=trend == "increasing" and last > infinity_threshold,
                             trend=trend, window=tuple(window), last_ratio=last,
                             infinity_threshold=infinity_threshold)


def oracle_verdict(system, lam0, window, margin=0.05, tail_fraction=0.5):
    n_lo, n_hi = window
    log_sparse, abs_alphas = oracle_window(system, n_lo, n_hi)[:2]
    tail_len = max(2, int(math.ceil((n_hi - n_lo + 1) * tail_fraction)))
    lam_eff = lam0 if system.kind == "delta" else 1.0 / lam0
    tail = np.log1p(abs_alphas[-tail_len:] / math.sqrt(lam_eff))
    tail *= -2.0
    tail += log_sparse[-tail_len:]
    tail_min = np.min(tail)
    with np.errstate(over="ignore"):
        est = float(np.exp(tail_min))
    diverges = bool(np.all(np.diff(tail) >= -1e-12)) and tail_min > math.log1p(margin)
    return DivergenceVerdict(verdict="diverges" if diverges else "inconclusive",
                             liminf_ratio_estimate=est, window=(n_lo, n_hi),
                             tail_start=n_hi - tail_len + 1, margin=margin)


def oracle_preconditions(system, window, config):
    log_sparse, abs_alphas, _, positive = oracle_window(system, *window)
    sparse_trend = _tail_trend(log_sparse[-25:])
    last_sparse = float(np.exp(min(log_sparse[-1], 700.0)))
    abs_trend = _tail_trend(abs_alphas[-25:])
    last_abs = float(abs_alphas[-1])
    return {
        "sparseness_ok": (sparse_trend == "increasing"
                          and last_sparse > config.sparseness_threshold),
        "sparseness_trend": sparse_trend,
        "last_sparseness_ratio": last_sparse,
        "strength_ok": abs_trend == "increasing" and last_abs > config.strength_threshold,
        "strength_trend": abs_trend,
        "last_abs_strength": last_abs,
        "all_strengths_positive": positive,
    }


GRID = [0.05, 1.3, 40.0]
CONFIG = ClassifyConfig()


def assert_matches_oracle(system, window, grid=GRID):
    """Every field classify, series_verdict and estimate_threshold report."""
    res = classify(system, window, grid, CONFIG)
    assert repr(res.threshold) == repr(
        oracle_threshold(system, window, CONFIG.divergence_threshold))
    pre = oracle_preconditions(system, window, CONFIG)
    assert repr({k: res.diagnostics[k] for k in pre}) == repr(pre)
    assert res.diagnostics["exclusion_verdicts"] == [
        "excluded" if oracle_verdict(system, g, window, CONFIG.margin).verdict == "diverges"
        else "inconclusive" for g in grid]
    assert repr(estimate_threshold(system, *window)) == repr(
        oracle_threshold(system, window, 1e6))
    for g in grid:
        for margin, fraction in ((0.05, 0.5), (1e-3, 0.3), (0.5, 1.0)):
            assert repr(series_verdict(system, g, window, margin, fraction)) == repr(
                oracle_verdict(system, g, window, margin, fraction))
    return res


def explicit_system(kind, n_points, seed=3):
    rng = np.random.default_rng(seed)
    points = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 5.0, n_points))])
    return SystemSpec(kind, SparseSet.explicit(points),
                      StrengthSequence.explicit(rng.uniform(-1.0, 8.0, n_points)))


LATTICES = {
    "factorial": SparseSet.factorial(),
    "power": SparseSet.power(1.2, 2.0),
    "exponential": SparseSet.exponential(1.1, 0.7),
    "exponential_r": SparseSet.exponential(1.0, 0.5, r=1.5),
}

# (n_lo, length): lengths around one and two blocks; n_lo = 1 puts the
# first gap ratio, from x_0 = 0, in the partial block; length 2B puts the
# tail start on a block boundary, length 2B + 1 one index below it
WINDOWS = [(40, B - 1), (40, B), (40, B + 1), (40, 2 * B + 1), (1, B + 1),
           (1, 2 * B + 1), (7, 2 * B), (5, 2)]


@pytest.mark.parametrize("kind", ["delta", "delta_prime"])
@pytest.mark.parametrize("family", sorted(LATTICES))
@pytest.mark.parametrize("n_lo,length", WINDOWS)
def test_generated_lattices_match_full_arrays(family, kind, n_lo, length):
    system = SystemSpec(kind, LATTICES[family], StrengthSequence.power(1.5, 0.25))
    assert_matches_oracle(system, (n_lo, n_lo + length - 1))


@pytest.mark.parametrize("kind", ["delta", "delta_prime"])
@pytest.mark.parametrize("n_lo,length", WINDOWS)
def test_explicit_lattices_match_full_arrays(kind, n_lo, length):
    system = explicit_system(kind, n_lo + length + 1)
    assert_matches_oracle(system, (n_lo, n_lo + length - 1))


def test_nan_ratios_propagate_as_in_full_arrays():
    # n^100 leaves double range near n = 1209: every later gap ratio is NaN,
    # and the NaN blocks must spoil the minimum of the finite one below them
    system = SystemSpec("delta", SparseSet.exponential(1.0, 1.0, r=100.0),
                        StrengthSequence.power(1.5, 0.25))
    res = assert_matches_oracle(system, (2, 2 * B + 500))
    assert math.isnan(res.threshold.value)


def test_cap_window_matches_full_arrays():
    system = SystemSpec("delta", SparseSet.factorial(), StrengthSequence.power(1.5, 0.25))
    res = assert_matches_oracle(system, (CAP - CAP // 4, CAP), grid=[0.1])
    assert res.case == "case_ii"


def straddling_system(dip):
    """Gap ratios increasing in n, but for one fall at n = 2B + 2 if dip.

    With the window [1, 2B + 1 + B] the blocks start at B + 2 and 2B + 2, so
    the fall is the step across a block boundary, inside the tail.
    """
    n = 3 * B + 2
    log_ratios = 1e-3 + 1e-8 * np.arange(1, n + 1)
    if dip:
        log_ratios[2 * B + 1] = log_ratios[2 * B] - 1e-6
    log_gaps = np.concatenate([[0.0], np.cumsum(log_ratios)])
    points = np.concatenate([[0.0], np.cumsum(np.exp(log_gaps))])
    return SystemSpec("delta", SparseSet.explicit(points), StrengthSequence.constant(1e-3))


@pytest.mark.parametrize("dip", [False, True])
def test_tail_fall_across_a_block_boundary(dip):
    system = straddling_system(dip)
    window = (1, 3 * B + 1)
    args = (system, 1e6, window, 1e-4)
    assert repr(series_verdict(*args)) == repr(oracle_verdict(*args))
    assert series_verdict(*args).verdict == ("inconclusive" if dip else "diverges")
    assert_matches_oracle(system, window, grid=[1e6])


def featured_system(alpha1, steps):
    """A delta system whose log d'Alembert ratios rise by 1e-8 a step at the
    energies 100, 1e6 and 1e10, but for the steps at the indices ``steps``
    maps to "up" or "down".

    |alpha_n| is alpha1 up to the first such index.  At "up" it becomes 2e-3
    and the log gap ratio gains 2e-5: the step falls at lam = 100 only.  At
    "down" it becomes 1e-3 and the log gap ratio loses 2e-7: the step falls
    at lam = 1e10 only.  Every tail ratio stays above e^(5e-4), so with the
    margin 1e-5 an energy's verdict is "inconclusive" exactly where it falls.
    """
    n = 3 * B + 2
    log_ratios = 1e-3 + 1e-8 * np.arange(1, n + 1)  # entry i: n = i + 1
    alphas = np.full(n, alpha1)
    for at, step in steps.items():
        log_ratios[at - 1:] += 2e-5 if step == "up" else -2e-7
        alphas[at - 1:] = 2e-3 if step == "up" else 1e-3
    log_gaps = np.concatenate([[0.0], np.cumsum(log_ratios)])
    points = np.concatenate([[0.0], np.cumsum(np.exp(log_gaps))])
    return SystemSpec("delta", SparseSet.explicit(points), StrengthSequence.explicit(alphas))


# With the window [1, 3B + 1] the tail starts at 3B/2 + 1 in the block
# [B + 2, 2B + 1], and the last block starts at 2B + 2.
FALLS = {
    # lam = 100 falls only in the last block, lam = 1e10 only across its start
    "last_block": (2e-3, {2 * B + 2: "down", 2 * B + 2 + B // 2: "up"}),
    # lam = 100 falls in the first tail block, lam = 1e10 as above
    "first_block": (1e-3, {3 * B // 2 + 100: "up", 2 * B + 2: "down"}),
}
FALL_GRID = [100.0, 1e6, 1e10]


def falling_steps(system, lam, window):
    """Indices n of the tail whose log d'Alembert ratio falls below n - 1's."""
    n_hi = window[1]
    tail = oracle_verdict(system, lam, window).tail_start
    log_sparse, abs_alphas = oracle_window(system, tail, n_hi)[:2]
    ratios = log_sparse - 2.0 * np.log1p(abs_alphas / math.sqrt(lam))
    return [tail + 1 + int(k) for k in np.flatnonzero(np.diff(ratios) < -1e-12)]


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("name", sorted(FALLS))
def test_settled_energies_keep_the_oracle_verdicts(monkeypatch, name, workers):
    alpha1, steps = FALLS[name]
    system = featured_system(alpha1, steps)
    window = (1, 3 * B + 1)
    ups = [n for n, step in steps.items() if step == "up"]
    assert [falling_steps(system, lam, window) for lam in FALL_GRID] == [
        ups, [], [2 * B + 2]]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # workers read and set the flags interleaved
    try:
        res = classify(system, window, FALL_GRID, ClassifyConfig(margin=1e-5))
    finally:
        sys.setswitchinterval(interval)
    verdicts = res.diagnostics["exclusion_verdicts"]
    assert verdicts == [
        "excluded" if oracle_verdict(system, lam, window, 1e-5).verdict == "diverges"
        else "inconclusive" for lam in FALL_GRID]
    assert verdicts == ["inconclusive", "excluded", "inconclusive"]
    for lam in FALL_GRID:  # series_verdict keeps each falling tail's minimum
        assert repr(series_verdict(system, lam, window, 1e-5)) == repr(
            oracle_verdict(system, lam, window, 1e-5))


def test_settled_energies_skip_the_later_blocks(monkeypatch):
    # the tail falls at every energy and in every block: ln(gap ratio) is q,
    # and |alpha_n| = 1.5 sqrt(n) grows
    system = SystemSpec("delta", SparseSet.exponential(1.1, 0.7),
                        StrengthSequence.power(1.5, 0.5))
    window = (CAP - CAP // 4, CAP)
    tail_blocks = -(-math.ceil((CAP // 4 + 1) / 2) // B)
    scales = []
    tail_part = lattice._tail_part

    def counting(abs_alphas, log_sparse, scale, *args):
        scales.append(scale)
        return tail_part(abs_alphas, log_sparse, scale, *args)

    monkeypatch.setattr(lattice, "_tail_part", counting)
    for workers in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, w=workers: set(range(w)))
        scales.clear()
        res = classify(system, window, [0.1, 1.0, 10.0])
        assert res.diagnostics["exclusion_verdicts"] == ["inconclusive"] * 3
        assert len(set(scales)) == 3
        assert all(scales.count(s) <= workers for s in scales)
        # series_verdict reads the minimum of every tail block
        scales.clear()
        assert series_verdict(system, 1.0, window).verdict == "inconclusive"
        assert len(scales) == tail_blocks

    calls = []
    alphas = StrengthSequence.alphas

    def recording(self, n_lo, n_hi, **kwargs):
        calls.append((n_lo, n_hi))
        return alphas(self, n_lo, n_hi, **kwargs)

    monkeypatch.setattr(StrengthSequence, "alphas", recording)
    for scan in (lambda: estimate_threshold(system, *window),
                 lambda: classify(system, window)):
        calls.clear()
        scan()
        assert calls == [(CAP - 24, CAP)]  # the trailing entries only


def assert_thread_count_free(monkeypatch, system, window):
    """The scan runs on one thread per usable CPU, with the same result."""
    threads = set()
    log_gap_ratios = SparseSet.log_gap_ratios

    def recording(self, n_lo, n_hi, **kwargs):
        # the Thread object, not its ident: a finished worker's ident may be
        # handed to a worker started after it
        threads.add(threading.current_thread())
        return log_gap_ratios(self, n_lo, n_hi, **kwargs)

    def scan_threads(cpus):
        """Threads that evaluated the window for one classify call."""
        threads.clear()
        results[cpus] = repr(classify(system, window, GRID, CONFIG))
        return len(threads)

    monkeypatch.setattr(SparseSet, "log_gap_ratios", recording)
    results = {}
    running = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches than cores: workers interleave
    try:
        for cpus in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)))
            assert scan_threads(cpus) == cpus
            assert_matches_oracle(system, window)
        monkeypatch.delattr(os, "sched_getaffinity")  # platforms without affinity
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert scan_threads(3) == 3
    finally:
        sys.setswitchinterval(interval)
    assert results[1] == results[4] == results[3]
    assert threading.active_count() == running  # every worker joined


def test_results_do_not_depend_on_the_thread_count(monkeypatch):
    system = SystemSpec("delta_prime", SparseSet.power(1.2, 2.0),
                        StrengthSequence.power(1.5, 0.5))
    assert_thread_count_free(monkeypatch, system, (11, 11 + 9 * B))


def test_explicit_lattices_scan_on_every_worker(monkeypatch):
    # five blocks: an explicit block reads only its own slice of the points
    system = explicit_system("delta", 4 * B + 20)
    assert_thread_count_free(monkeypatch, system, (11, 11 + 4 * B))


def test_workers_keep_the_callers_numpy_errors(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    system = SystemSpec("delta", SparseSet.factorial(), StrengthSequence.power(1.5, 0.25))
    log_gap_ratios = SparseSet.log_gap_ratios  # every block calls it

    def overflowing(self, n_lo, n_hi, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            _ = np.float64(1e308) * 10.0
        return log_gap_ratios(self, n_lo, n_hi, **kwargs)

    monkeypatch.setattr(SparseSet, "log_gap_ratios", overflowing)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        classify(system, (100, 100 + 4 * B))


def test_cap_window_memory_is_bounded_by_blocks(monkeypatch):
    # each worker holds one workspace, ~3 MiB here: pin two workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    system = SystemSpec("delta", SparseSet.factorial(), StrengthSequence.power(1.5, 0.25))
    tracemalloc.start()
    try:
        res = classify(system, (CAP - CAP // 4, CAP), [0.1, 1.0, 10.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.diagnostics["exclusion_verdicts"] == ["excluded"] * 3
    # the full-array window held about 77 MB here
    assert peak < 16 * 2**20


def test_concurrent_scans_keep_their_own_workspaces(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    jobs = [(SystemSpec("delta", SparseSet.factorial(), StrengthSequence.power(1.5, 0.25)),
             (40, 40 + 3 * B)),
            (SystemSpec("delta_prime", SparseSet.power(1.2, 2.0), StrengthSequence.power(1.5, 0.5)),
             (7, 7 + 3 * B + 100))]
    errors = []

    def check(system, window):
        try:
            assert_matches_oracle(system, window)
        except BaseException as exc:  # reported on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=check, args=job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the two scans interleave block by block
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors


SCAN_SYSTEMS = {
    "factorial": SystemSpec("delta", SparseSet.factorial(), StrengthSequence.power(1.5, 0.25)),
    "power": SystemSpec("delta", SparseSet.power(1.2, 2.0), StrengthSequence.power(-1.5, -0.5)),
    "exponential": SystemSpec("delta_prime", SparseSet.exponential(1.0, 0.5, r=1.5),
                              StrengthSequence.power(1.5, 0.5)),
    "exponential_r1": SystemSpec("delta", SparseSet.exponential(1.1, 0.7),
                                 StrengthSequence.constant(2.0)),
}


@pytest.mark.parametrize("family", sorted(SCAN_SYSTEMS))
def test_blocks_after_the_first_allocate_no_arrays(family):
    system = SCAN_SYSTEMS[family]
    ws = _Workspace(B + 1)
    hi = CAP - 2 * B
    scales = [0.3, 1.0, 3.0]
    _scan_block(system, hi - B + 1, hi, hi - B // 2, scales, False, ws)
    tracemalloc.start()
    try:
        _scan_block(system, hi + 1, hi + B, hi - B // 2, scales, True, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < B  # one block-sized array is 8 B bytes


def test_integer_parameters_give_float_trailing_entries():
    def scan(q, c):
        system = SystemSpec("delta", SparseSet.exponential(1.0, q), StrengthSequence.constant(c))
        return window_scan(system, 2, 40, [1.0])

    got, expected = scan(1, 2), scan(1.0, 2.0)
    for field in ("log_sparse", "abs_alphas", "log_threshold"):
        assert getattr(got, field).dtype == np.float64, field
    assert repr(got) == repr(expected)
