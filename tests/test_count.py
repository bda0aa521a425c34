"""The shooting count's cotangent maps against the angle stepping they replaced.

``spectrum._count_below`` and ``count_reference.angle_count_below`` give the
same count in exact arithmetic; in doubles they may part only within
rounding of an eigenvalue, which mpmath decides.
"""

import math
import tracemalloc

import numpy as np
import pytest

from pointspec import SparseSet, StrengthSequence, SystemSpec
from pointspec import spectrum

from count_reference import angle_count_below, mp_count_below

SPECIAL_STRENGTHS = (0.0, 1e-3, -1e-3, 1e3, -1e3)
# whole half-turns on every integer gap: the unit and factorial lattices
HALF_TURNS = (np.pi * np.arange(1, 8)) ** 2
NEAR = 1e-12  # relative distance from an eigenvalue where rounding decides


def strengths(rng, n):
    """Uniform strengths in [-8, 8], each replaced by one of 0, +-1e-3 and
    +-1e3 with probability 5/6."""
    values = rng.uniform(-8.0, 8.0, n)
    pick = rng.integers(0, len(SPECIAL_STRENGTHS) + 1, n)
    special = pick < len(SPECIAL_STRENGTHS)
    values[special] = np.array(SPECIAL_STRENGTHS)[pick[special]]
    return StrengthSequence.explicit(values)


def lattices(rng):
    gaps = rng.choice([0.25, 0.5, 1.0, 1.5, 2.75], 40) * rng.choice([1.0, 1.0, 0.9], 40)
    yield "power", SparseSet.power(1.0, 1.5), 200, (1e-3, 20.0)
    yield "factorial", SparseSet.factorial(), 12, (1e-3, 60.0)
    yield "exponential", SparseSet.exponential(1.0, 0.5, 1.5), 14, (1e-3, 20.0)
    yield "explicit", SparseSet.explicit(np.concatenate([[0.0], np.cumsum(gaps)])), 40, \
        (1e-3, 200.0)
    yield "unit", SparseSet.explicit(np.arange(31.0)), 30, (1e-3, 60.0)


def count(system, n, lams):
    return spectrum._count_below(*spectrum._shooting_cells(system, n), lams)[0]


CASES = [(name, kind) for name in ("power", "factorial", "exponential", "explicit", "unit")
         for kind in ("delta", "delta_prime")]


@pytest.mark.parametrize("name, kind", CASES)
def test_equals_the_angle_count(name, kind):
    # 10^4 log-uniform energies and the whole half-turns; where the two
    # roundings part, an exact eigenvalue lies within NEAR of the energy and
    # the cotangent count is one of the counts on either side of it
    rng = np.random.default_rng(sum(map(ord, name + kind)))
    lattice, n, (lo, hi) = next((lat, n, r) for key, lat, n, r in lattices(rng) if key == name)
    system = SystemSpec(kind, lattice, strengths(rng, n))
    lams = np.concatenate([np.exp(rng.uniform(math.log(lo), math.log(hi), 10**4)),
                           HALF_TURNS[HALF_TURNS < hi]])
    got, want = count(system, n, lams), angle_count_below(system, n, lams)
    assert got.dtype == np.int64 and np.all(np.diff(got[np.argsort(lams)]) >= 0)
    for lam, c in zip(lams[got != want].tolist(), got[got != want].tolist()):
        below = mp_count_below(system, n, lam * (1 - NEAR))[0]
        above = mp_count_below(system, n, lam * (1 + NEAR))[0]
        assert below < above and below <= c <= above, (lam, c, below, above)
    assert np.count_nonzero(got != want) <= 10
    # and against the exact count, at energies away from eigenvalues
    for lam in rng.choice(lams, 8, replace=False).tolist():
        assert count(system, n, [lam])[0] == mp_count_below(system, n, lam)[0]


def test_half_turns_on_unit_gaps_at_the_eigenvalues():
    # free unit gaps at lam = (k pi)^2: every cell turns phi by k half-turns
    # exactly, psi vanishes at every node, and lam is the k-th eigenvalue of
    # the N-cell box, up to the rounding of pi^2
    for n in (1, 2, 7, 30):
        system = SystemSpec("delta", SparseSet.explicit(np.arange(n + 1.0)),
                            StrengthSequence.explicit(np.zeros(n)))
        for k, lam in enumerate(HALF_TURNS.tolist(), 1):
            below, above = count(system, n, [lam * (1 - NEAR), lam * (1 + NEAR)])
            assert (below, above) == (k * n - 1, k * n)
            assert below <= count(system, n, [lam])[0] <= above


@pytest.mark.parametrize("kind", ["delta", "delta_prime"])
def test_zero_energies(kind):
    system = SystemSpec(kind, SparseSet.explicit([0.0, 1.0, 2.5, 3.0]),
                        StrengthSequence.explicit([2.0, -1.0, 0.5]))
    for got in (count(system, 3, []),
                spectrum._fd_count_below(*spectrum._fd_runs(system, 3, 1 / 64)[0], [])):
        assert got.dtype == np.int64 and got.shape == (0,)


def test_memory_is_energies_times_block():
    # a 10^5-point truncation: a (cells x energies) array would take 400 MB;
    # the count holds a few (block x energies) arrays at once: some 7 of
    # them (1.9 MB) as a block's maps are formed while the last one's live
    system = SystemSpec("delta", SparseSet.power(1.0, 1.5), StrengthSequence.power(1.0, 0.5))
    n, lams = 10**5, np.linspace(0.01, 1.0, 512)
    cells = spectrum._shooting_cells(system, n)
    tracemalloc.start()
    try:
        got = spectrum._count_below(*cells, lams)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * spectrum._FD_BLOCK * len(lams) * 8
    assert np.all(np.diff(got) >= 0) and got[-1] > got[0]
