"""The numpy table kernel against Python's repr, its reference.

Every value goes through ``_shortest.rows_text`` one column a block at a
time, as the CLI renders large tables, and must come out as ``repr`` of the
Python float or int, byte for byte.
"""

import json
import math
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from pointspec import _shortest, cli
from shortest_reference import exponent_tables

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


def test_low_words_decide_where_high_words_tie():
    # the 128-bit comparison reads the low words only where the high words
    # are equal, a case no double in the other tests reaches
    column = np.arange(5)
    b_hi = np.full(5, 5, np.uint64)
    b_lo = np.full(5, 10, np.uint64)
    hi = np.array([4, 5, 5, 5, 6], np.uint64)
    lo = np.array([99, 9, 10, 11, 0], np.uint64)
    below = _shortest._below(hi, lo, b_hi, b_lo, column, np.empty(5, np.uint64))
    assert below.tolist() == [True, True, False, False, False]


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


def rows_repr(columns, quote):
    """The text ``rows_text`` must give for ``columns``, cell by cell from repr."""
    cells = [[repr(v) for v in c.tolist()] for c in columns]
    if quote:
        cells = [[QUOTED.get(t, t) for t in c] for c in cells]
    return "\n".join(map(",".join, zip(*cells)))


FLOAT_OUTLIERS = [1234567890123456.0, 1e16, 0.0001234, 1.5e-05, 1.5e-300,
                  -0.0, math.nan, -math.inf]


@pytest.mark.parametrize("quote", [False, True])
def test_single_float_outliers(quote):
    # four float columns whose cells each share one layout (short fixed
    # numbers, the third negative, the last below 1) beside an int column;
    # each outlier in turn takes the first, a middle or the last row of one
    # column, whose slots must come from its own cells and no other column's
    n = 257
    ints = np.arange(n, dtype=np.int64)
    base = [100000.0 + ints / 4, 10.0 + ints / 8, -1000.0 - ints / 2,
            0.25 + ints / 2048]
    assert _shortest.rows_text(base + [ints], ",", "\n", quote) == rows_repr(
        base + [ints], quote)
    for value in FLOAT_OUTLIERS:
        for j in range(len(base)):
            for row in (0, n // 2, n - 1):
                columns = [c.copy() for c in base] + [ints]
                columns[j][row] = value
                text = _shortest.rows_text(columns, ",", "\n", quote)
                assert text == rows_repr(columns, quote), (value, j, row)


def test_single_int_outliers():
    # a column of small values with -2^63 or a 19-digit value in one row,
    # beside a float column and another small int column
    n = 300
    small = np.arange(n, dtype=np.int64)
    floats = np.linspace(1.0, 2.0, n)
    for value in (-2**63, 1234567890123456789):
        for row in (0, n // 2, n - 1):
            column = small.copy()
            column[row] = value
            for columns in ([column, floats, small], [small, column],
                            [floats, column]):
                for quote in (False, True):
                    text = _shortest.rows_text(columns, ",", "\n", quote)
                    assert text == rows_repr(columns, quote), (value, row)


def test_kernel_scratch_per_value():
    # 16 384 values, a growth block's four float columns: the call's array,
    # its slots and every temporary stay within 160 bytes a value
    rng = np.random.default_rng(17)
    x = rng.standard_normal(4 * 4096) * 10.0 ** rng.integers(-30, 30, 4 * 4096)
    _shortest._float_cells([x], False)  # the columns x reads, filled once per process
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


def propagate_config(path, n_max, dense):
    """A power-lattice chain of 5 (n_max (dense + 1) + 1) cells."""
    path.write_text(json.dumps({
        "system": {"kind": "delta",
                   "positions": {"type": "power", "c": 1.0, "p": 1.2},
                   "strengths": {"type": "constant", "c": 0.5}},
        "params": {"lambda": 2.0, "n_max": n_max, "dense_per_interval": dense}}))
    return str(path)


def test_cli_and_small_tables_leave_the_kernel_unloaded(tmp_path):
    # a fresh interpreter: importing the CLI and rendering a table below the
    # cold crossover neither imports the kernel nor fills its constants
    config = propagate_config(tmp_path / "config.json", 200, 4)
    proc = subprocess.run([sys.executable, "-c", GUARD, config,
                           str(tmp_path / "out.csv")],
                          check=True, capture_output=True, text=True)
    assert json.loads(proc.stdout) is False
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "n,x,re_psi,re_dpsi,log_norm_xi" and len(lines) > 1000
    cells = 5 * (len(lines) - 2)  # less the header and the footer
    assert cli.KERNEL_MIN_CELLS <= cells < cli.KERNEL_COLD_MIN_CELLS


WARM = """
import json, sys
from pointspec.cli import main
mid, small, growth, out = sys.argv[1:]
chains = {"mid": mid, "small": small}
for name, config in chains.items():
    main(["propagate", "--config", config, "--out", f"{out}/{name}_cold.csv"])
loaded = "pointspec._shortest" in sys.modules
main(["growth", "--config", growth, "--out", f"{out}/growth.csv"])
from pointspec import _shortest
rows_text, calls = _shortest.rows_text, []
_shortest.rows_text = lambda *args: calls.append(args) or rows_text(*args)
counts = []
for name, config in chains.items():
    main(["propagate", "--config", config, "--out", f"{out}/{name}_warm.csv"])
    counts.append(len(calls))
print(json.dumps([loaded, counts]))
"""


def test_loaded_kernel_takes_mid_size_tables(tmp_path):
    # a fresh interpreter: a mid-size table renders by repr until a table
    # past the cold crossover has loaded the kernel, and through the kernel
    # after; a table below KERNEL_MIN_CELLS never does; the bytes are equal
    mid = propagate_config(tmp_path / "mid.json", 200, 4)  # 5005 cells
    small = propagate_config(tmp_path / "small.json", 50, 0)  # 255 cells
    growth = tmp_path / "growth.json"  # 20 000 cells
    growth.write_text(json.dumps({
        "system": {"kind": "delta", "positions": {"type": "factorial"},
                   "strengths": {"type": "power", "c": 1.0, "p": 0.5}},
        "params": {"lambda0": 4.0, "window": [0, 3999]}}))
    assert 255 < cli.KERNEL_MIN_CELLS <= 5005 < cli.KERNEL_COLD_MIN_CELLS <= 20_000
    proc = subprocess.run([sys.executable, "-c", WARM, mid, small, str(growth),
                           str(tmp_path)], check=True, capture_output=True,
                          text=True)
    assert json.loads(proc.stdout) == [False, [1, 1]]
    for name in ("mid", "small"):
        assert ((tmp_path / f"{name}_cold.csv").read_bytes()
                == (tmp_path / f"{name}_warm.csv").read_bytes())


def test_tables_wait_for_first_use():
    # importing the kernel fills no column of its constants
    code = ("import pointspec._shortest as s; "
            "print(int(s._FILLED.sum()), int(s._COLUMNS.any()))")
    proc = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True)
    assert proc.stdout.split() == ["0", "0"]


@pytest.fixture
def empty_columns(monkeypatch):
    """The kernel's constants as a process that never ran it holds them."""
    monkeypatch.setattr(_shortest, "_COLUMNS", np.zeros_like(_shortest._COLUMNS))
    monkeypatch.setattr(_shortest, "_FILLED", np.zeros_like(_shortest._FILLED))


def test_every_column_equals_the_reference(empty_columns):
    _shortest._tables(np.arange(len(_shortest._FILLED)))
    assert _shortest._FILLED.all()
    assert np.array_equal(_shortest._COLUMNS, exponent_tables())


def test_columns_filled_where_read_once_each(empty_columns, monkeypatch):
    # values over 131 binary exponents, with powers of two (w = 0), zeros,
    # subnormals, nan and inf among them
    rng = np.random.default_rng(20)
    x = np.concatenate([
        rng.standard_normal(3000) * 2.0 ** rng.integers(-60, 61, 3000),
        [2.0**k for k in range(-8, 9)], [0.0, -0.0, 5e-324, 1e-310, -2.0**-1022,
                                         math.nan, math.inf, -math.inf]])
    fills = []
    column = _shortest._column
    monkeypatch.setattr(_shortest, "_column", lambda c: fills.append(c) or column(c))
    text = _shortest.rows_text([x, x[::-1]], ",", "\n", False)
    assert text.split("\n") == [f"{a!r},{b!r}" for a, b in
                                zip(x.tolist(), x[::-1].tolist())]
    _shortest.rows_text([x], ",", "\n", True)  # every column already filled

    bits = x.view(np.uint64)
    exponent = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    wide = ((bits & np.uint64((1 << 52) - 1)) != 0) | (exponent <= 1)
    read = set((2 * exponent + wide).tolist())
    assert sorted(fills) == sorted(read)  # each read column once, no other
    assert set(np.flatnonzero(_shortest._FILLED).tolist()) == read
    assert len(read) <= 2 * len(set(exponent.tolist()))
    filled = _shortest._FILLED
    assert np.array_equal(_shortest._COLUMNS[:, filled], exponent_tables()[:, filled])


def test_threads_fill_each_column_once(empty_columns, monkeypatch):
    # more threads than cores, switching every microsecond and started
    # together, each rendering values over five binary exponents, three of
    # them its neighbours'; computing a column yields the interpreter:
    # every column is computed once, and every text is repr's
    fills = []
    column = _shortest._column

    def computing(c):
        fills.append(c)
        time.sleep(1e-4)
        return column(c)

    monkeypatch.setattr(_shortest, "_column", computing)
    columns = [np.ldexp(1.0 + np.arange(600) / 601.0, np.arange(600) % 5 + 2 * k)
               for k in range(16)]
    texts = [None] * len(columns)
    start = threading.Barrier(len(columns))

    def render(k):
        start.wait(timeout=30)
        texts[k] = _shortest.rows_text([columns[k]], ",", "\n", False)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=render, args=(k,))
                   for k in range(len(columns))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for values, text in zip(columns, texts):
        assert text.split("\n") == list(map(repr, values.tolist()))
    assert len(fills) == len(set(fills)) == _shortest._FILLED.sum()
