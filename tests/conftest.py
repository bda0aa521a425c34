import re
import warnings

import numpy as np
import pytest

from pointspec import SparseSet, StrengthSequence, SystemSpec


def parse_interval(s):
    """Turn a rendered interval like '[0,1.5)' into (lo, hi)."""
    m = re.fullmatch(r"[\[(]([^,]+),([^,\])]+)[\])]", s)
    assert m, f"not an interval rendering: {s!r}"
    def val(t):
        return float("inf") if t == "inf" else float(t)
    return val(m.group(1)), val(m.group(2))


def factorial_system(kind, p):
    return SystemSpec(kind, SparseSet.factorial(), StrengthSequence.power(1.0, p))


def random_small_system(rng, kind, n_gaps, gap_range=(0.5, 5.0),
                        alpha_range=(-5.0, 5.0)):
    gaps = rng.uniform(*gap_range, n_gaps)
    points = np.concatenate([[0.0], np.cumsum(gaps)])
    alphas = rng.uniform(*alpha_range, n_gaps)
    return SystemSpec(kind, SparseSet.explicit(points),
                      StrengthSequence.explicit(alphas))


def pytest_collection_modifyitems(items):
    """Skip the tests marked ``requires_scipy`` only where ``scipy.linalg``
    cannot be imported; everywhere else they run."""
    needs = [item for item in items if item.get_closest_marker("requires_scipy")]
    if not needs:
        return
    try:
        import scipy.linalg  # noqa: F401
    except ImportError:
        for item in needs:
            item.add_marker(pytest.mark.skip(reason="scipy.linalg is not installed"))


@pytest.fixture(autouse=True)
def runtime_warnings_fail():
    """A RuntimeWarning (numpy's overflow, divide by zero, invalid value)
    fails the test: where a non-finite value is intended, the code says so
    with ``np.errstate``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
