import math

import numpy as np
import pytest

from pointspec import (SparseSet, StrengthSequence, SystemSpec, diagonalizer,
                       fundamental_matrix, inverse_step_diagonalized,
                       jump_matrix, operator_norm, propagate, sample_solution,
                       step_matrix)
from pointspec.transfer import PropagationOverflow, _log_norm, free_flow

from conftest import random_small_system


class TestFundamentalMatrix:
    def test_zero_displacement_is_identity(self):
        assert np.array_equal(fundamental_matrix(1.0, 0.0), np.eye(2))
        assert np.array_equal(fundamental_matrix(7.3, 0.0), np.eye(2))

    def test_quarter_period(self):
        m = fundamental_matrix(1.0, math.pi / 2)
        assert np.allclose(m, [[0, 1], [-1, 0]], atol=1e-15)

    def test_full_period(self):
        m = fundamental_matrix(4.0, math.pi)
        assert np.allclose(m, np.eye(2), atol=1e-12)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            fundamental_matrix(0.0, 1.0)
        with pytest.raises(ValueError):
            fundamental_matrix(-2.0, 1.0)

    def test_determinant_semigroup_inverse(self, rng):
        for _ in range(300):
            lam = rng.uniform(0.1, 100.0)
            d1, d2 = rng.uniform(-10, 10, 2)
            m1 = fundamental_matrix(lam, d1)
            m2 = fundamental_matrix(lam, d2)
            assert abs(np.linalg.det(m1) - 1.0) < 1e-12
            assert np.allclose(m1 @ m2, fundamental_matrix(lam, d1 + d2),
                               atol=1e-11)
            assert np.allclose(m1 @ fundamental_matrix(lam, -d1), np.eye(2),
                               atol=1e-11)


class TestJumpMatrix:
    def test_forms(self):
        assert np.array_equal(jump_matrix("delta", 0.0), np.eye(2))
        assert np.array_equal(jump_matrix("delta", 2.0), [[1, 0], [2, 1]])
        assert np.array_equal(jump_matrix("delta_prime", -3.0),
                              [[1, -3], [0, 1]])

    def test_inverse_is_negated_strength(self, rng):
        for _ in range(50):
            a = rng.uniform(-20, 20)
            for kind in ("delta", "delta_prime"):
                prod = jump_matrix(kind, a) @ jump_matrix(kind, -a)
                assert np.array_equal(prod, np.eye(2))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            jump_matrix("robin", 1.0)


class TestStepMatrix:
    def test_zero_strength_reduces_to_free(self):
        lat = SparseSet.explicit([0.0, 1.7, 4.0])
        sys = SystemSpec("delta", lat, StrengthSequence.explicit([0.0, 1.0]))
        assert np.allclose(step_matrix(sys, 2.0, 1),
                           fundamental_matrix(2.0, 1.7), atol=0)

    def test_hand_multiplied_example(self):
        lat = SparseSet.explicit([0.0, math.pi / 2, 4.0])
        sys = SystemSpec("delta", lat, StrengthSequence.explicit([2.0, 0.0]))
        assert np.allclose(step_matrix(sys, 1.0, 1), [[0, 1], [-1, 2]],
                           atol=1e-15)

    def test_unimodular(self, rng):
        for _ in range(100):
            sys = random_small_system(rng, "delta_prime", 3)
            lam = rng.uniform(0.1, 50)
            for n in (1, 2, 3):
                assert abs(np.linalg.det(step_matrix(sys, lam, n)) - 1) < 1e-12

    def test_gap_overflow_raises(self):
        sys = SystemSpec("delta", SparseSet.factorial(),
                         StrengthSequence.constant(1.0))
        with pytest.raises(OverflowError):
            step_matrix(sys, 1.0, 171)

    def test_strength_past_double_range_raises(self):
        # alpha_n = n^400 is past double range from n = 6; step 7 reads alpha_7 alone
        sys = SystemSpec("delta", SparseSet.factorial(), StrengthSequence.power(1.0, 400.0))
        with pytest.raises(OverflowError) as info:
            step_matrix(sys, 1.0, 7)
        assert str(info.value) == "|alpha_n| is past double range from n=7"

    @pytest.mark.parametrize("kind", ["delta", "delta_prime"])
    def test_columns_are_propagate_vectors_to_the_bit(self, kind, rng):
        # one cell, one formula: not a product of rounded jump and free matrices
        for _ in range(1000):
            lam = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
            sys = random_small_system(rng, kind, 4, gap_range=(1e-3, 1e3),
                                      alpha_range=(-20.0, 20.0))
            n = int(rng.integers(1, 5))
            cell = SystemSpec(kind, SparseSet.explicit([sys.lattice.gap(n - 1)]),
                              StrengthSequence.explicit(sys.strengths.alphas(n, n)))
            m = step_matrix(sys, lam, n)
            assert np.array_equal(m[:, 0], propagate(cell, lam, (1.0, 0.0), 1)[1])
            assert np.array_equal(m[:, 1], propagate(cell, lam, (0.0, 1.0), 1)[1])


def step_product(system, lam, xi0, n_max):
    """One step_matrix product per step: the propagation reference."""
    out = np.zeros((n_max + 1, 2))
    out[0] = xi0
    for n in range(1, n_max + 1):
        out[n] = step_matrix(system, lam, n) @ out[n - 1]
    return out


ALL_LATTICES = [
    (SparseSet.factorial(), StrengthSequence.power(1.0, 0.5), 15),
    (SparseSet.power(1.3, 1.7), StrengthSequence.power(0.8, 0.25), 60),
    (SparseSet.exponential(0.7, 0.4, 1.1), StrengthSequence.constant(1.5), 25),
    (SparseSet.explicit(np.cumsum([0.0, 0.7, 1.3, 2.9, 0.6, 4.0, 0.1])),
     StrengthSequence.explicit([2.0, -3.0, 0.5, 0.0, -1.0, 4.0]), 6),
]


class TestPropagate:
    @pytest.mark.parametrize("kind", ["delta", "delta_prime"])
    @pytest.mark.parametrize("lat,strengths,n_max", ALL_LATTICES,
                             ids=[lat.kind for lat, _, _ in ALL_LATTICES])
    def test_matches_step_matrix_product(self, lat, strengths, n_max, kind):
        sys = SystemSpec(kind, lat, strengths)
        for lam in (0.3, 1.0, 7.5):
            for xi0 in ((0.0, 1.0), (1.0, -0.4)):
                got = propagate(sys, lam, xi0, n_max)
                want = step_product(sys, lam, xi0, n_max)
                scale = np.hypot(want[:, 0], want[:, 1])[:, None]
                assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_factorial_overflow_at_first_infinite_gap(self):
        sys = SystemSpec("delta", SparseSet.factorial(),
                         StrengthSequence.constant(1.0))
        with pytest.raises(PropagationOverflow, match="n=171") as info:
            propagate(sys, 1.0, (0.0, 1.0), 180)
        assert info.value.n == 171
        assert np.array_equal(info.value.vectors,
                              propagate(sys, 1.0, (0.0, 1.0), 170))

    def test_overflow_carries_finite_prefix(self):
        lat = SparseSet.explicit(np.arange(6.0))
        sys = SystemSpec("delta", lat,
                         StrengthSequence.explicit([1e200, 1e200, 0, 0, 0]))
        with pytest.raises(OverflowError) as info:
            propagate(sys, 1.0, (0.0, 1.0), 5)
        assert info.value.n == 2
        assert np.array_equal(info.value.vectors,
                              propagate(sys, 1.0, (0.0, 1.0), 1))

    def test_complex_start_refused(self):
        sys = SystemSpec("delta", SparseSet.factorial(),
                         StrengthSequence.constant(1.0))
        for xi0 in ((0.0, 1j), np.array([1.0, 0.0], dtype=complex)):
            with pytest.raises(ValueError, match="must be real"):
                propagate(sys, 2.0, xi0, 3)

    def test_integer_start_steps_float64_rows(self):
        sys = SystemSpec("delta", SparseSet.explicit([0.0, 1.0, 2.5]),
                         StrengthSequence.explicit([0.5, -1.0]))
        vecs = propagate(sys, 2.0, (0, 1), 2)
        assert vecs.dtype == np.float64
        assert np.array_equal(vecs, propagate(sys, 2.0, (0.0, 1.0), 2))

    def test_zero_steps_returns_start(self):
        sys = SystemSpec("delta", SparseSet.factorial(),
                         StrengthSequence.constant(1.0))
        assert np.array_equal(propagate(sys, 2.0, (0, 1)), [[0.0, 1.0]])

    def test_free_propagation_is_fundamental_flow(self):
        lat = SparseSet.explicit([0.0, 0.9, 2.2, 4.5, 8.0])
        sys = SystemSpec("delta", lat, StrengthSequence.constant(0.0))
        lam = 3.7
        vecs = propagate(sys, lam, (0.0, 1.0), 4)
        for n in range(5):
            expected = fundamental_matrix(lam, lat.position(n)) @ [0.0, 1.0]
            assert np.allclose(vecs[n], expected, atol=1e-12)

    def test_delta_jump_condition(self, rng):
        for _ in range(20):
            sys = random_small_system(rng, "delta", 2, alpha_range=(-8, 8))
            lam = rng.uniform(0.2, 30)
            vecs = propagate(sys, lam, (0.0, 1.0), 1)
            before = fundamental_matrix(lam, sys.lattice.gap(0)) @ vecs[0]
            a1 = sys.strengths.alphas(1, 1)[0]
            assert vecs[1][0] == pytest.approx(before[0], rel=1e-12, abs=1e-12)
            assert vecs[1][1] - before[1] == pytest.approx(a1 * before[0],
                                                           rel=1e-10, abs=1e-12)

    def test_delta_prime_jump_condition(self, rng):
        for _ in range(20):
            sys = random_small_system(rng, "delta_prime", 2, alpha_range=(-8, 8))
            lam = rng.uniform(0.2, 30)
            vecs = propagate(sys, lam, (0.0, 1.0), 1)
            before = fundamental_matrix(lam, sys.lattice.gap(0)) @ vecs[0]
            a1 = sys.strengths.alphas(1, 1)[0]
            assert vecs[1][1] == pytest.approx(before[1], rel=1e-12, abs=1e-12)
            assert vecs[1][0] - before[0] == pytest.approx(a1 * before[1],
                                                           rel=1e-10, abs=1e-12)

    def test_against_marching_oracle(self):
        # independent second-order marching solve of the interface problem
        lam = 1.3
        points = [0.0, 1.0, 3.0, 9.0, 33.0, 153.0]
        alphas = [1.0, -2.0, 0.5, 3.0, -1.0]
        sys = SystemSpec("delta", SparseSet.explicit(points),
                         StrengthSequence.explicit(alphas))
        h = 1e-3
        n_steps = int(round(points[-1] / h))
        nodes = {int(round(x / h)): a for x, a in zip(points[1:], alphas)}
        psi_prev = 0.0
        psi = h * (1.0 - lam * h * h / 6.0)  # Taylor start for psi'(0) = 1
        for j in range(1, n_steps):
            extra = h * nodes.get(j, 0.0)
            psi, psi_prev = (2.0 - h * h * lam + extra) * psi - psi_prev, psi
        vecs = propagate(sys, lam, (0.0, 1.0), 5)
        assert psi == pytest.approx(vecs[5][0], rel=1e-3)

    def test_entry_overflow_names_step(self):
        lat = SparseSet.explicit(np.arange(6.0))
        sys = SystemSpec("delta", lat,
                         StrengthSequence.explicit([1e200, 1e200, 0, 0, 0]))
        with pytest.raises(OverflowError, match="n=2"):
            propagate(sys, 1.0, (0.0, 1.0), 5)

    def test_rejects_zero_start(self):
        lat = SparseSet.explicit([0.0, 1.0])
        sys = SystemSpec("delta", lat, StrengthSequence.constant(1.0))
        with pytest.raises(ValueError):
            propagate(sys, 1.0, (0.0, 0.0), 1)


class TestDiagonalizer:
    def test_inverse_pair(self, rng):
        for lam in rng.uniform(0.05, 80, 25):
            u, u_inv = diagonalizer(lam)
            assert np.allclose(u @ u_inv, np.eye(2), atol=1e-14)

    def test_unit_energy_form(self):
        _, u_inv = diagonalizer(1.0)
        assert np.allclose(u_inv, [[0.5, -0.5j], [0.5, 0.5j]], atol=0)

    def test_conjugation_matches_closed_form(self, rng):
        # two construction routes: conjugate the step matrix vs invert the
        # closed-form inverse
        for _ in range(60):
            lam = rng.uniform(0.1, 60)
            dx = rng.uniform(0.05, 10)
            alpha = rng.uniform(-15, 15)
            kind = "delta" if rng.random() < 0.5 else "delta_prime"
            u, u_inv = diagonalizer(lam)
            step = jump_matrix(kind, alpha) @ fundamental_matrix(lam, dx)
            tilde = u_inv @ step @ u
            inv = inverse_step_diagonalized(kind, lam, dx, alpha)
            # closed 2x2 inverse of the unimodular closed form
            closed = np.array([[inv[1, 1], -inv[0, 1]],
                               [-inv[1, 0], inv[0, 0]]])
            assert np.allclose(tilde, closed, atol=1e-12 * max(1, abs(alpha)))
            assert np.allclose(inv @ tilde, np.eye(2), atol=1e-12)


class TestInverseStepDiagonalized:
    def test_zero_strength_is_pure_phase(self):
        lam, dx = 2.5, 1.3
        m = inverse_step_diagonalized("delta", lam, dx, 0.0)
        rt = math.sqrt(lam)
        expected = np.diag([np.exp(-1j * rt * dx), np.exp(1j * rt * dx)])
        assert np.allclose(m, expected, atol=0)

    @pytest.mark.parametrize("kind", ["delta", "delta_prime"])
    def test_norm_bound(self, kind, rng):
        for _ in range(1000):
            lam = rng.uniform(0.1, 100)
            dx = rng.uniform(0.1, 20)
            alpha = rng.uniform(-20, 20)
            m = inverse_step_diagonalized(kind, lam, dx, alpha)
            bound = (1 + abs(alpha) / math.sqrt(lam) if kind == "delta"
                     else 1 + abs(alpha) * math.sqrt(lam))
            assert operator_norm(m) <= bound + 1e-12


class TestOperatorNorm:
    def test_known_values(self):
        assert operator_norm(np.eye(2)) == pytest.approx(1.0, abs=1e-15)
        assert operator_norm(np.array([[1.0, 0.0], [2.0, 1.0]])) == \
            pytest.approx(1 + math.sqrt(2), rel=1e-12)
        assert operator_norm(np.diag([3.0, 1 / 3.0])) == pytest.approx(3.0)

    def test_matches_svd(self, rng):
        for _ in range(200):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            ref = np.linalg.svd(m, compute_uv=False)[0]
            assert operator_norm(m) == pytest.approx(ref, rel=1e-10)

    def test_exact_on_rotations(self):
        # coincident singular values must not lose digits
        for d in np.linspace(0, 6, 25):
            assert abs(operator_norm(fundamental_matrix(1.0, d)) - 1.0) < 1e-14


def test_cli_import_leaves_scipy_optimize_unloaded():
    # no scipy module at all: the package needs numpy alone
    import subprocess
    import sys as system
    code = ("import sys, pointspec.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([system.executable, "-c", code], check=True,
                          capture_output=True, text=True)
    assert proc.stdout.strip() == "[]"


class TestFreeFlow:
    def test_rows_match_fundamental_matrix(self, rng):
        for lam in np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 20)):
            vecs = rng.normal(size=(100, 2))
            d = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 100))
            psi, dpsi = free_flow(lam, d, vecs)
            m = np.array([fundamental_matrix(lam, x) for x in d])
            # the matrix applied by hand: matmul may fuse a multiply-add
            assert np.array_equal(psi, m[:, 0, 0] * vecs[:, 0] + m[:, 0, 1] * vecs[:, 1])
            assert np.array_equal(dpsi, m[:, 1, 0] * vecs[:, 0] + m[:, 1, 1] * vecs[:, 1])


class TestSampleSolution:
    def test_free_solution_is_sine(self):
        lat = SparseSet.explicit([0.0, 10.0])
        sys = SystemSpec("delta", lat, StrengthSequence.constant(0.0))
        s = sample_solution(sys, 1.0, (0.0, 1.0), 1, dense_per_interval=96)
        assert np.array_equal(s.x, np.linspace(0.0, 10.0, 98))
        assert np.array_equal(s.n, [0] * 97 + [1]) and s.n.dtype == np.int64
        assert np.allclose(s.psi, np.sin(s.x), atol=1e-10)
        assert np.allclose(s.dpsi, np.cos(s.x), atol=1e-10)

    def test_delta_keeps_value_continuous(self, rng):
        sys = random_small_system(rng, "delta", 2, alpha_range=(2, 6))
        lam = 2.0
        x1 = sys.lattice.position(1)
        right = sample_solution(sys, lam, (0.0, 1.0), 1)
        assert right.x[-1] == x1 and right.n[-1] == 1
        left_vec = fundamental_matrix(lam, x1) @ [0.0, 1.0]
        assert right.psi[-1] == pytest.approx(left_vec[0], rel=1e-10)

    def test_delta_prime_keeps_derivative_continuous(self, rng):
        sys = random_small_system(rng, "delta_prime", 2, alpha_range=(2, 6))
        lam = 2.0
        x1 = sys.lattice.position(1)
        right = sample_solution(sys, lam, (0.0, 1.0), 1)
        assert right.x[-1] == x1 and right.n[-1] == 1
        left_vec = fundamental_matrix(lam, x1) @ [0.0, 1.0]
        assert right.dpsi[-1] == pytest.approx(left_vec[1], rel=1e-10)

    @pytest.mark.parametrize("kind", ["delta", "delta_prime"])
    def test_interface_conditions_at_every_lattice_point(self, kind, rng):
        sys = random_small_system(rng, kind, 5, alpha_range=(-6, 6))
        lam = 3.1
        vecs = propagate(sys, lam, (0.0, 1.0), 5)
        for n in range(1, 6):
            gap = sys.lattice.gap(n - 1)
            left = fundamental_matrix(lam, gap) @ vecs[n - 1]
            a = sys.strengths.alphas(n, n)[0]
            scale = max(np.abs(left).max(), 1.0)
            if kind == "delta":
                assert abs(vecs[n][0] - left[0]) < 1e-10 * scale
                assert abs(vecs[n][1] - left[1] - a * left[0]) < 1e-10 * scale
            else:
                assert abs(vecs[n][1] - left[1]) < 1e-10 * scale
                assert abs(vecs[n][0] - left[0] - a * left[1]) < 1e-10 * scale

    def test_negative_energy_rejected_everywhere(self):
        with pytest.raises(ValueError):
            diagonalizer(-1.0)
        with pytest.raises(ValueError):
            inverse_step_diagonalized("delta", -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            sample_solution(UNIT, -1.0, n_max=2)

    def test_free_equation_residual_inside_cells(self, rng):
        sys = random_small_system(rng, "delta", 3, alpha_range=(-4, 4))
        lam = 2.5
        x1, x2 = sys.lattice.position(1), sys.lattice.position(2)
        h = (x2 - x1) / 400
        s = sample_solution(sys, lam, (0.0, 1.0), 2, dense_per_interval=399)
        cell = s.n == 1  # x_1 (its right limit), then 399 points inside
        assert np.allclose(np.diff(s.x[cell]), h, rtol=1e-9)
        psi = s.psi[cell]
        second = (psi[2:] - 2 * psi[1:-1] + psi[:-2]) / h**2
        residual = np.abs(second + lam * psi[1:-1])
        assert residual.max() < 1e-4 * max(np.abs(psi).max(), 1.0)

    def test_lattice_rows_are_propagate_vectors(self, rng):
        sys = random_small_system(rng, "delta_prime", 6)
        s = sample_solution(sys, 1.7, (0.3, -1.0), 6, dense_per_interval=3)
        assert len(s.x) == 6 * 4 + 1
        assert np.array_equal(s.n[::4], np.arange(7))
        assert np.array_equal(s.x[::4], sys.lattice.positions(6))
        vecs = propagate(sys, 1.7, (0.3, -1.0), 6)
        assert np.array_equal(np.stack([s.psi[::4], s.dpsi[::4]], axis=1), vecs)

    def test_factorial_rows_end_before_x171(self):
        # gap 170 = 170 * 170! is past double range, so step 171 overflows
        s = sample_solution(FACTORIAL, 1.0, n_max=180, dense_per_interval=2)
        assert len(s.x) == 171 + 170 * 2 < 180 * 3 + 1
        assert s.n[-1] == 170 and s.x[-1] == float(math.factorial(170))
        assert np.isfinite(s.psi).all() and np.isfinite(s.dpsi).all()


UNIT = SystemSpec("delta", SparseSet.explicit([0.0, 1.0, 2.0]),
                  StrengthSequence.explicit([1.0, -1.0]))
FACTORIAL = SystemSpec("delta", SparseSet.factorial(), StrengthSequence.constant(1.0))


@pytest.mark.parametrize("call, error, message", [
    (lambda: step_matrix(UNIT, 1.0, 0), IndexError, "step index must be >= 1"),
    (lambda: propagate(UNIT, 1.0, (0.0, 1.0, 0.0), 2), ValueError,
     "initial boundary vector must have two components"),
    (lambda: inverse_step_diagonalized("delta_triple", 1.0, 1.0, 1.0), ValueError,
     "kind must be one of ('delta', 'delta_prime'), got 'delta_triple'"),
    (lambda: sample_solution(UNIT, 1.0, n_max=2, dense_per_interval=-1), ValueError,
     "dense_per_interval must be >= 0"),
    # a non-finite start is refused before any step, not reported as an overflow
    (lambda: propagate(UNIT, 1.0, (math.nan, 1.0), 0), ValueError,
     "initial boundary vector must be finite"),
    (lambda: propagate(FACTORIAL, 1.0, (1.0, -math.inf), 3), ValueError,
     "initial boundary vector must be finite"),
    (lambda: sample_solution(FACTORIAL, 1.0, (math.inf, 1.0), 3), ValueError,
     "initial boundary vector must be finite"),
], ids=["step_matrix", "propagate", "inverse_step_diagonalized",
        "sample_solution-negative-dense", "propagate-nan-start", "propagate-inf-start",
        "sample_solution-inf-start"])
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_log_norm_is_log_hypot_where_that_is_finite(rng):
    # magnitudes from subnormal to the largest double, and exact zeros
    psi, dpsi = (rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-320, 308.2, 20000)
                 for _ in range(2))
    psi[:100] = 0.0
    dpsi[50:150] = 0.0
    with np.errstate(over="ignore", divide="ignore"):
        want = np.log(np.hypot(psi, dpsi))
    finite = np.isfinite(want)
    assert finite.sum() > 19000
    assert np.array_equal(_log_norm(psi, dpsi)[finite], want[finite])


def test_log_norm_where_only_the_norm_passes_double_range(rng):
    mpmath = pytest.importorskip("mpmath")
    psi, dpsi = (rng.choice([-1.0, 1.0], 20000) * rng.uniform(0.0, 1.79e308, 20000)
                 for _ in range(2))
    with np.errstate(over="ignore"):
        big = np.isinf(np.hypot(psi, dpsi))
    assert big.sum() > 4000
    got = _log_norm(psi[big], dpsi[big])
    with mpmath.workdps(50):
        want = [float(mpmath.log(mpmath.hypot(a, b))) for a, b in zip(psi[big], dpsi[big])]
    assert np.all(np.abs(got - want) <= 2e-16 * np.abs(want))


def test_log_norm_of_zero_is_minus_inf():
    assert _log_norm(np.zeros(2), np.array([0.0, -0.0])).tolist() == [-math.inf] * 2
