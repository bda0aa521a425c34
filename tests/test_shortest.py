"""The numpy table kernel against Python's repr, its reference.

Every value goes through ``_shortest.rows_text`` one column a block at a
time, as the CLI renders large tables, and must come out as ``repr`` of the
Python float or int, byte for byte.
"""

import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from pointspec import _shortest

BLOCK = 4096
QUOTED = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}


def kernel_lines(values, quote=False):
    column = np.asarray(values)
    return [line for start in range(0, len(column), BLOCK)
            for line in _shortest.rows_text([column[start:start + BLOCK]], ",",
                                            "\n", quote).split("\n")]


def assert_matches_repr(values, quote=False):
    values = np.asarray(values)
    got = kernel_lines(values, quote)
    want = [repr(v) for v in values.tolist()]
    if quote:
        want = [QUOTED.get(t, t) for t in want]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:10]


def with_neighbours(values):
    """Each value, the doubles either side of it, and all their negatives."""
    values = np.asarray(values, dtype=np.float64)
    near = np.concatenate([np.nextafter(values, -np.inf), values,
                           np.nextafter(values, np.inf)])
    return np.concatenate([near, -near])


def test_random_bit_patterns():
    # 2^20 doubles: every biased exponent (subnormals and the nan/inf one
    # included) 512 times, random mantissas, random signs
    rng = np.random.default_rng(20261018)
    n = 2**20
    bits = (np.arange(n, dtype=np.uint64) % np.uint64(2048)) << np.uint64(52)
    bits |= rng.integers(0, 2**52, n, dtype=np.uint64)
    bits |= rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    assert_matches_repr(bits.view(np.float64))


def test_special_values():
    values = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
              -5e-324, sys.float_info.max, -sys.float_info.max,
              sys.float_info.min, 1.0, -1.0, 0.1, 1 / 3]
    assert_matches_repr(values)


@pytest.mark.parametrize("quote", [False, True])
def test_nonfinite_spellings(quote):
    assert_matches_repr([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
                         2.5], quote)
    assert kernel_lines([math.nan, math.inf, -math.inf], quote) == (
        ['"nan"', '"inf"', '"-inf"'] if quote else ["nan", "inf", "-inf"])


def test_powers_of_two_and_ten():
    powers = [2.0**k for k in range(-1074, 1024)]
    powers += [float(f"1e{k}") for k in range(-323, 309)]
    assert_matches_repr(with_neighbours(powers))


def test_integers_up_to_2_53():
    rng = np.random.default_rng(7)
    ints = np.concatenate([
        np.arange(0, 100_000), 2**53 - np.arange(0, 1000),
        rng.integers(0, 2**53, 100_000),
        [10**k + d for k in range(16) for d in (-1, 0, 1)]])
    assert_matches_repr(with_neighbours(ints.astype(np.float64)))


def test_layout_switches():
    # fixed notation for 1e-4 <= |x| < 1e16, scientific outside; the digit
    # counts that put the point just inside or outside the digits
    switches = [1e16, 9999999999999998.0, 1e15, 123456789012345.6,
                1234567890123456.7, 1e-4, 1e-5, 0.00012345678901234567,
                0.000099999999999999, 1.2345678901234567e-5]
    scaled = [s * f for s in switches for f in (1.0, 1.5, 9.99, 0.999)]
    assert_matches_repr(with_neighbours(scaled))


def test_decimal_digit_counts():
    # every shortest length 1..17 at every decimal point position near the
    # layout switches
    rng = np.random.default_rng(11)
    values = []
    for digits in range(1, 18):
        mantissas = rng.integers(10**(digits - 1), 10**digits, 20)
        values += [float(f"{m}e{e}") for m in mantissas for e in range(-30, 30)]
    assert_matches_repr(with_neighbours(values))


def test_int64_columns():
    rng = np.random.default_rng(3)
    edges = [0, 1, -1, 9, -9, 10, -10, 2**63 - 1, -2**63, -2**63 + 1]
    edges += [s * (10**k + d) for k in range(1, 19) for d in (-1, 0, 1)
              for s in (1, -1)]
    values = np.concatenate([np.array(edges, dtype=np.int64),
                             rng.integers(-2**63, 2**63 - 1, 100_000,
                                          dtype=np.int64, endpoint=True)])
    for quote in (False, True):
        assert_matches_repr(values, quote)


def test_several_columns_and_other_dtypes():
    # int64 and float64 columns side by side, and an int32 column (numpy's
    # default integer on some platforms before numpy 2), which reads as int64
    ints = np.arange(-3, 4, dtype=np.int64) * 10**17
    floats = np.arange(-3, 4) * 0.25
    narrow = np.arange(-3, 4, dtype=np.int32)
    text = _shortest.rows_text([ints, floats, narrow], ", ", ";\n", False)
    assert text == ";\n".join(f"{i!r}, {f!r}, {o!r}" for i, f, o in
                              zip(ints.tolist(), floats.tolist(), narrow.tolist()))


def test_stacked_columns_give_each_columns_cells():
    # one kernel call over columns end to end gives the slots of one call per
    # column, whatever the other columns hold
    rng = np.random.default_rng(13)
    bits = rng.integers(0, 2**64, 5000, dtype=np.uint64, endpoint=False)
    columns = [bits.view(np.float64), rng.standard_normal(4096) * 1e-7,
               np.arange(1.0, 301.0), np.array([math.nan, -0.0, math.inf, 5e-324]),
               np.array([-1e300])]
    for quote in (False, True):
        alone = np.hstack([_shortest._float_cells([c], quote) for c in columns])
        assert np.array_equal(
            _shortest._float_cells([np.concatenate(columns)], quote), alone)
        assert np.array_equal(_shortest._float_cells(columns, quote), alone)


def test_kernel_scratch_per_value():
    # 16 384 values, a growth block's four float columns: the call's array,
    # its slots and every temporary stay within 160 bytes a value
    rng = np.random.default_rng(17)
    x = rng.standard_normal(4 * 4096) * 10.0 ** rng.integers(-30, 30, 4 * 4096)
    _shortest._float_cells([x[:8]], False)  # the tables, built once per process
    tracemalloc.start()
    try:
        _shortest._float_cells([x], False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 160 * len(x), peak / len(x)


GUARD = """
import json, sys
from pointspec.cli import main
main(["propagate", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps("pointspec._shortest" in sys.modules))
"""


def test_cli_and_small_tables_leave_the_kernel_unloaded(tmp_path):
    # a fresh interpreter: importing the CLI and rendering a table below the
    # crossover neither imports the kernel nor builds its tables
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "system": {"kind": "delta",
                   "positions": {"type": "power", "c": 1.0, "p": 1.2},
                   "strengths": {"type": "constant", "c": 0.5}},
        "params": {"lambda": 2.0, "n_max": 200, "dense_per_interval": 4}}))
    proc = subprocess.run([sys.executable, "-c", GUARD, str(config),
                           str(tmp_path / "out.csv")],
                          check=True, capture_output=True, text=True)
    assert json.loads(proc.stdout) is False
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "n,x,re_psi,re_dpsi,log_norm_xi" and len(lines) > 1000


def test_tables_wait_for_first_use():
    code = ("import pointspec._shortest as s; "
            "print(s._exponent_tables.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True)
    assert proc.stdout.strip() == "0"
