"""Output checks against references the benchmark computes itself.

* ``classify``: the case and the threshold estimate must agree with the
  closed-form gap ratio of each lattice family (no ``gammaln`` differences).
* ``eigs``: every printed root must sit within 1e-3 (relative) of an
  eigenvalue of the benchmark's own finite-difference matrix, and the printed
  ``rel_deviation`` column must be <= 1e-3.
* ``growth`` / ``propagate``: row counts and footers must be exact, every row
  must match a double-precision reference, and sampled rows must match
  ``mpmath``.

A check returns a :class:`Verdict`.  Failures that the parent code is known
to produce are tagged with an id from :data:`KNOWN_FAILURES`; any other
failure is unexpected and makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import mpmath
import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

KNOWN_FAILURES = {
    "factorial-trend-noise":
        "classify on a factorial lattice with p = 0.25 near the 10^7-1 cap "
        "returns case_i_* with trend 'mixed' instead of case_ii: the log "
        "threshold ratios are differences of gammaln values near 1e8 whose "
        "rounding noise exceeds the fixed 1e-14 trend slop",
    "fd-count-ignores-negative":
        "eigs prints rel_deviation > 1e-3 although every root matches the full "
        "FD spectrum: the default fd_count = max(len(roots)+4, 8) counts from "
        "the bottom of the FD spectrum, so negative (and below-range) FD "
        "eigenvalues push the top roots past the oracle's list",
    "propagate-lognorm-overflow":
        "propagate prints log_norm_xi = inf for finite boundary vectors above "
        "~1e154: the column is log(np.linalg.norm(v)), and the norm squares its "
        "entries in double precision",
}

ROOT_TOL = 1e-3
ESTIMATE_RTOL = 1e-6


@dataclass
class Verdict:
    ok: bool
    known: str | None = None  # KNOWN_FAILURES id when a known defect explains it
    detail: str = ""
    info: dict = field(default_factory=dict)


def _fail(detail, known=None, **info):
    return Verdict(False, known, detail, info)


def check(command: str, config: dict, args: tuple, data: bytes) -> Verdict:
    text = data.decode("utf-8")
    try:
        if command == "classify":
            return check_classify(config, text)
        if command == "eigs":
            return check_eigs(config, text)
        fmt = "json" if "json" in args else "csv"
        if command == "growth":
            return check_growth(config, text, fmt)
        if command == "propagate":
            return check_propagate(config, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return _fail(f"malformed output: {type(exc).__name__}: {exc}")
    raise ValueError(f"no check for command {command!r}")


# ---------------------------------------------------------------------------
# classify


def _tail_trend(values: np.ndarray, slop: float = 1e-14) -> str:
    """The classifier's documented trend rule, applied to reference values."""
    d = np.diff(values[-25:])
    if np.all(np.abs(d) <= slop):
        return "flat"
    if np.all(d >= -slop):
        return "increasing"
    if np.all(d <= slop):
        return "decreasing"
    return "mixed"


def _log_gap_ratio(positions: dict, n: np.ndarray) -> np.ndarray:
    """Closed-form ln(gap(n) / gap(n-1)) for n >= 2."""
    kind = positions["type"]
    if kind == "factorial":
        # gap(n) = n * n!  =>  gap(n) / gap(n-1) = n^2 / (n-1)
        return 2.0 * np.log(n) - np.log(n - 1.0)
    if kind == "power":
        # gap(n) = c n^p expm1(p log1p(1/n))
        p = positions["p"]
        return (p * np.log1p(1.0 / (n - 1.0))
                + np.log(np.expm1(p * np.log1p(1.0 / n)))
                - np.log(np.expm1(p * np.log1p(1.0 / (n - 1.0)))))
    if kind == "exponential" and positions.get("r", 1.0) == 1.0:
        # gap(n) = c e^{qn} (e^q - 1) for n >= 1
        return np.full(n.shape, float(positions["q"]))
    raise ValueError(f"no closed form for positions {positions}")


def expected_classify(config: dict) -> tuple[str, float]:
    """Reference case and threshold estimate from the closed-form ratio."""
    system = config["system"]
    lo, hi = config["params"]["window"]
    c = system["strengths"]["c"]
    p = system["strengths"]["p"]
    n = np.arange(lo, hi + 1, dtype=float)
    log_sparse = _log_gap_ratio(system["positions"], n)
    log_alpha = math.log(c) + p * np.log(n)
    logr = log_sparse - 2.0 * log_alpha
    estimate = float(np.exp(np.min(logr)))
    last = math.exp(logr[-1])
    diverging = _tail_trend(logr) == "increasing" and last > 500.0
    sparse_ok = (_tail_trend(log_sparse) == "increasing"
                 and math.exp(log_sparse[-1]) > 100.0)
    alphas = np.exp(log_alpha[-25:])
    strength_ok = _tail_trend(alphas) == "increasing" and alphas[-1] > 10.0
    if not (sparse_ok and strength_ok):
        case = "no_conclusion"
    elif diverging:
        case = "case_ii"  # strengths are positive in every generated config
    elif estimate > 1e-8:
        case = "case_i_" + system["kind"]
    else:
        case = "no_conclusion"
    return case, estimate


def check_classify(config: dict, text: str) -> Verdict:
    doc = json.loads(text)
    result = doc["result"]
    case, estimate = expected_classify(config)
    got = result["case"]
    got_est = result["threshold"]["estimate"]
    if doc["command"] != "classify" or doc["params"]["window"] != config["params"]["window"]:
        return _fail("output does not echo the request")
    if got != case:
        known = None
        if (config["system"]["positions"]["type"] == "factorial" and case == "case_ii"
                and got.startswith("case_i_") and result["threshold"]["trend"] == "mixed"):
            known = "factorial-trend-noise"
        return _fail(f"case {got} != reference {case}", known)
    if not abs(got_est - estimate) <= ESTIMATE_RTOL * estimate:
        return _fail(f"estimate {got_est!r} != reference {estimate!r}")
    return Verdict(True)


# ---------------------------------------------------------------------------
# eigs


def fd_reference(config: dict, upper: float) -> np.ndarray:
    """FD eigenvalues <= upper of the truncation, assembled from its quadratic form.

    Unknowns run left to right with lumped masses; consecutive unknowns are
    joined by bonds of weight 1/h, except the two sides of a split
    delta-prime node, which are joined by 1/alpha.  psi(0) = 0; the right
    end is Dirichlet for delta and Neumann for delta-prime.
    """
    system = config["system"]
    params = config["params"]
    h = params["fd_h"]
    n_pts = params["n_points"]
    points = system["positions"]["points"][:n_pts]
    alphas = system["strengths"]["values"][:n_pts]
    delta = system["kind"] == "delta"
    m = int(round(points[-1] / h))
    at_node = {int(round(x / h)): a for x, a in zip(points, alphas)}

    mass, pot, bond = [], [], []  # bond[i] joins unknown i to unknown i+1
    for node in range(1, m + 1):
        a = at_node.get(node, 0.0)
        if node == m:
            if delta:
                break
            mass.append(h / 2); pot.append(0.0); bond.append(None)
        elif not delta and a != 0.0:
            mass += [h / 2, h / 2]; pot += [0.0, 0.0]; bond += [1.0 / a, 1.0 / h]
        else:
            mass.append(h); pot.append(a if delta else 0.0); bond.append(1.0 / h)
    bond = np.array(bond[:-1], dtype=float)
    mass = np.array(mass)
    diag = np.array(pot)
    diag[0] += 1.0 / h  # bond to the Dirichlet node at x = 0
    diag[:-1] += bond
    diag[1:] += bond
    if delta:
        diag[-1] += 1.0 / h  # bond to the Dirichlet node at x_N
    scale = 1.0 / np.sqrt(mass)
    d = diag * scale * scale
    e = -bond * scale[:-1] * scale[1:]
    lower = float(np.min(d) - 2.0 * np.max(np.abs(e))) - 1.0
    return eigh_tridiagonal(d, e, select="v", select_range=(lower, upper),
                            eigvals_only=True)


EIGS_HEADER = "index,lambda,residual,bracket_width,fd_lambda,rel_deviation"


def check_eigs(config: dict, text: str) -> Verdict:
    params = config["params"]
    lo, hi = params["lambda_range"]
    lines = text.splitlines()
    if lines[0] != EIGS_HEADER:
        return _fail("unexpected header")
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    footers = [ln for ln in lines[1:] if ln.startswith("#")]
    rows = np.array([[float(v) for v in ln.split(",")] for ln in body]).reshape(-1, 6)
    want_footer = (f"# n_points={params['n_points']} lambda_range=[{lo!r},{hi!r}] "
                   f"grid_resolution={params['grid_resolution']} tol=1e-10")
    if not footers or footers[-1] != want_footer:
        return _fail("parameter footer differs")
    suspected = 0
    if len(footers) == 2:
        suspected = int(footers[0].split(":")[2].split("(")[0])
    elif len(footers) != 1:
        return _fail("unexpected footers")
    ref = fd_reference(config, hi * (1 + 2 * ROOT_TOL))
    info = {"roots": len(rows), "suspected_missed": suspected,
            "fd_in_range": int(np.count_nonzero((ref >= lo) & (ref <= hi)))}
    if len(rows) == 0:
        return Verdict(True, info=info)
    index, lam, _, _, fd_lam, rel = rows.T
    if not np.array_equal(index, np.arange(len(rows))):
        return _fail("index column is not 0..k-1", **info)
    if not (np.all(np.diff(lam) > 0) and lam[0] >= lo and lam[-1] <= hi):
        return _fail("roots not ascending inside lambda_range", **info)
    nearest = np.min(np.abs(ref[None, :] - lam[:, None]), axis=1)
    if np.any(nearest > ROOT_TOL * np.abs(lam)):
        return _fail("a printed root has no FD eigenvalue within 1e-3", **info)
    if not np.allclose(rel, np.abs(fd_lam - lam) / np.abs(lam), rtol=1e-12, atol=0):
        return _fail("rel_deviation column inconsistent with fd_lambda", **info)
    if np.any(rel > ROOT_TOL):
        fd_count = max(len(rows) + 4, 8)
        below_top = int(np.count_nonzero(ref <= lam[-1] * (1 + ROOT_TOL)))
        known = "fd-count-ignores-negative" if below_top > fd_count else None
        return _fail(f"{int(np.sum(rel > ROOT_TOL))} rows with rel_deviation > 1e-3",
                     known, **info)
    return Verdict(True, info=info)


# ---------------------------------------------------------------------------
# growth

GROWTH_HEADER = ["n", "log_gap", "log_coupling_product", "dalembert_ratio",
                 "series_term"]
GROWTH_RTOL = 1e-10


def _growth_reference(config: dict, ns: np.ndarray):
    """log_gap, log_product and term in double precision for indices ns."""
    system = config["system"]
    lam0 = config["params"]["lambda0"]
    lam_eff = lam0 if system["kind"] == "delta" else 1.0 / lam0
    pos = system["positions"]
    pos_n = np.maximum(ns, 1.0)
    if pos["type"] == "factorial":
        log_gap = np.log(pos_n) + gammaln(pos_n + 1.0)
        log_gap = np.where(ns == 0, 0.0, log_gap)
    else:
        c, p = pos["c"], pos["p"]
        log_gap = (math.log(c) + p * np.log(pos_n)
                   + np.log(np.expm1(p * np.log1p(1.0 / pos_n))))
        log_gap = np.where(ns == 0, math.log(c), log_gap)
    factor = math.log1p(abs(system["strengths"]["c"]) / math.sqrt(lam_eff))
    log_prod = ns * factor
    return log_gap, log_prod, log_gap - 2.0 * log_prod


def _growth_mp(config: dict, n: int):
    system = config["system"]
    lam0 = mpmath.mpf(config["params"]["lambda0"])
    lam_eff = lam0 if system["kind"] == "delta" else 1 / lam0
    pos = system["positions"]
    if n == 0:
        log_gap = mpmath.mpf(0) if pos["type"] == "factorial" else mpmath.log(pos["c"])
    elif pos["type"] == "factorial":
        log_gap = mpmath.log(n) + mpmath.loggamma(n + 1)
    else:
        c, p = mpmath.mpf(pos["c"]), mpmath.mpf(pos["p"])
        log_gap = mpmath.log(c * ((n + 1) ** p - mpmath.mpf(n) ** p))
    log_prod = n * mpmath.log1p(abs(mpmath.mpf(system["strengths"]["c"]))
                                / mpmath.sqrt(lam_eff))
    return log_gap, log_prod, log_gap - 2 * log_prod


def _close(got, want, scale, rtol=GROWTH_RTOL):
    return abs(got - want) <= rtol * max(1.0, abs(scale))


def check_growth(config: dict, text: str, fmt: str) -> Verdict:
    params = config["params"]
    lo, hi = params["window"]
    footer = (f"lambda0={float(params['lambda0'])!r} window=[{lo},{hi}] "
              f"kind={config['system']['kind']}")
    if fmt == "json":
        doc = json.loads(text)
        if doc["columns"] != GROWTH_HEADER or doc["footers"] != [footer]:
            return _fail("columns or footers differ")
        rows = doc["rows"]
        if lo == 0 and rows and rows[0][3] == "nan":
            rows[0][3] = math.nan
        rows = np.array(rows, dtype=float)
    else:
        lines = text.split("\n")
        if lines[0] != ",".join(GROWTH_HEADER) or lines[-2:] != ["# " + footer, ""]:
            return _fail("header or footer differs")
        rows = np.array(",".join(lines[1:-2]).split(","), dtype=float).reshape(-1, 5)
    ns = np.arange(max(lo - 1, 0), hi + 1, dtype=float)
    if rows.shape != (hi - lo + 1, 5) or not np.array_equal(rows[:, 0], ns[-len(rows):]):
        return _fail("row count or n column differs")
    log_gap, log_prod, term = _growth_reference(config, ns)
    scale = np.maximum.reduce([np.abs(log_gap), 2 * np.abs(log_prod), np.ones_like(ns)])
    k = len(ns) - len(rows)  # reference carries index lo - 1 when lo > 0
    ratio_log = np.full(len(ns), math.nan)
    ratio_log[1:] = np.minimum(np.diff(term), 700.0)
    tol = GROWTH_RTOL * scale[k:]
    for col, want in ((1, log_gap), (2, log_prod), (4, term)):
        if np.any(np.abs(rows[:, col] - want[k:]) > tol):
            return _fail(f"column {GROWTH_HEADER[col]} differs from reference")
    ratios = rows[:, 3]
    first_nan = ns[k] == 0
    if first_nan and not math.isnan(ratios[0]):
        return _fail("dalembert_ratio at n=0 must be nan")
    sl = slice(1 if first_nan else 0, None)
    got_log = np.log(ratios[sl])
    if np.any(np.abs(got_log - ratio_log[k:][sl]) > 2 * tol[sl]):
        return _fail("column dalembert_ratio differs from reference")

    # mpmath on sampled rows: first, last and three seeded picks
    rng = random.Random(f"{lo}:{hi}")
    picks = sorted({lo, hi, *(rng.randint(lo, hi) for _ in range(3))})
    with mpmath.workdps(30):
        for n in picks:
            row = rows[n - lo]
            mg, mp_, mt = _growth_mp(config, n)
            s = float(max(abs(mg), 2 * abs(mp_), 1))
            if not (_close(row[1], float(mg), s) and _close(row[2], float(mp_), s)
                    and _close(row[4], float(mt), s)):
                return _fail(f"row n={n} differs from mpmath")
            if n > 0:
                mr = float(mt - _growth_mp(config, n - 1)[2])
                if not _close(math.log(row[3]), min(mr, 700.0), s, 2 * GROWTH_RTOL):
                    return _fail(f"dalembert_ratio at n={n} differs from mpmath")
    return Verdict(True)


# ---------------------------------------------------------------------------
# propagate

PROPAGATE_HEADER = "n,x,re_psi,re_dpsi,log_norm_xi"
PROPAGATE_RTOL = 1e-6
FACTORIAL_EXACT_N = 10  # beyond this, factorial gaps times sqrt(lam) lose the phase


def _position(pos: dict, n: int) -> float:
    if n == 0:
        return 0.0
    if pos["type"] == "factorial":
        try:
            return float(math.factorial(n))
        except OverflowError:
            return math.inf
    return pos["c"] * float(n) ** pos["p"]


def _alpha(strengths: dict, n: int) -> float:
    if strengths["type"] == "constant":
        return strengths["c"]
    return strengths["c"] * float(n) ** strengths["p"]


def _flow(lam, d, v):
    rt = math.sqrt(lam)
    c, s = math.cos(d * rt), math.sin(d * rt)
    return (c * v[0] + s / rt * v[1], -rt * s * v[0] + c * v[1])


def _jump(kind, a, v):
    return (v[0], v[1] + a * v[0]) if kind == "delta" else (v[0] + a * v[1], v[1])


def propagate_reference(config: dict):
    """Expected rows (n, x, psi, dpsi) in double precision, plus overflow index."""
    system, params = config["system"], config["params"]
    lam, n_max = params["lambda"], params["n_max"]
    dense = params.get("dense_per_interval", 0)
    pos = system["positions"]
    xs, vecs = [0.0], [(0.0, 1.0)]
    overflow = None
    for n in range(1, n_max + 1):
        x = _position(pos, n)
        if not math.isfinite(x):
            overflow = n
            break
        v = _jump(system["kind"], _alpha(system["strengths"], n),
                  _flow(lam, x - xs[-1], vecs[-1]))
        if not all(math.isfinite(t) for t in v):
            overflow = n
            break
        xs.append(x)
        vecs.append(v)
    rows = []
    for n, (x, v) in enumerate(zip(xs, vecs)):
        rows.append((n, x, v[0], v[1], False))
        if dense and n < len(xs) - 1:
            for xg in np.linspace(x, xs[n + 1], dense + 2)[1:-1]:
                w = _flow(lam, float(xg) - x, v)
                rows.append((n, float(xg), w[0], w[1], True))
    return rows, overflow


def _mp_chain(config: dict, n_top: int):
    """Exact-position boundary vectors xi_0..xi_{n_top} in mpmath."""
    system, params = config["system"], config["params"]
    pos = system["positions"]
    rt = mpmath.sqrt(mpmath.mpf(params["lambda"]))

    def x_of(n):
        if n == 0:
            return mpmath.mpf(0)
        if pos["type"] == "factorial":
            return mpmath.mpf(math.factorial(n))
        return mpmath.mpf(pos["c"]) * mpmath.mpf(n) ** mpmath.mpf(pos["p"])

    def flow(d, v):
        c, s = mpmath.cos(d * rt), mpmath.sin(d * rt)
        return (c * v[0] + s / rt * v[1], -rt * s * v[0] + c * v[1])

    xs, vecs = [mpmath.mpf(0)], [(mpmath.mpf(0), mpmath.mpf(1))]
    for n in range(1, n_top + 1):
        x = x_of(n)
        v = flow(x - xs[-1], vecs[-1])
        v = _jump(system["kind"], mpmath.mpf(_alpha(system["strengths"], n)), v)
        xs.append(x)
        vecs.append(v)
    return xs, vecs, flow


def check_propagate(config: dict, text: str) -> Verdict:
    params = config["params"]
    lines = text.split("\n")
    if lines[0] != PROPAGATE_HEADER or lines[-1] != "":
        return _fail("header or trailing newline differs")
    body = [ln for ln in lines[1:-1] if not ln.startswith("#")]
    footers = [ln for ln in lines[1:-1] if ln.startswith("#")]
    ref, overflow = propagate_reference(config)
    xi0 = params.get("xi0", [0.0, 1.0])
    want_footers = ([f"#overflow at n={overflow}"] if overflow else []) + [
        f"# lambda={float(params['lambda'])!r} n_max={params['n_max']} "
        f"xi0={xi0!r} dense_per_interval={params.get('dense_per_interval', 0)}"]
    if footers != want_footers:
        return _fail(f"footers {footers} != {want_footers}")
    if len(body) != len(ref):
        return _fail(f"{len(body)} rows, expected {len(ref)}")
    rows = np.array(",".join(body).split(","), dtype=float).reshape(-1, 5)
    want = np.array([r[:4] for r in ref])
    if not np.array_equal(rows[:, 0], want[:, 0]):
        return _fail("n column differs")
    if not np.allclose(rows[:, 1], want[:, 1], rtol=1e-13, atol=0):
        return _fail("x column differs")
    norm = np.hypot(want[:, 2], want[:, 3])
    exact = (want[:, 0] <= FACTORIAL_EXACT_N
             if config["system"]["positions"]["type"] == "factorial"
             else np.ones(len(want), dtype=bool))
    err = np.hypot(rows[:, 2] - want[:, 2], rows[:, 3] - want[:, 3])
    if np.any(err[exact] > PROPAGATE_RTOL * norm[exact]):
        return _fail("psi/dpsi differ from the double-precision reference")
    if not np.all(np.isfinite(rows[:, 2:4])):
        return _fail("non-finite psi/dpsi")
    got_norm = np.log(np.hypot(rows[:, 2], rows[:, 3]))
    bad = np.abs(rows[:, 4] - got_norm) > 1e-12 * np.maximum(1.0, np.abs(got_norm))
    if np.any(bad):
        overflow = np.all(np.isposinf(rows[bad, 4]) & (got_norm[bad] > 354.0))
        return _fail(f"log_norm_xi is not log |(psi, dpsi)| in {int(bad.sum())} rows",
                     "propagate-lognorm-overflow" if overflow else None)

    # mpmath on sampled rows within the resolvable range
    candidates = [i for i in range(len(ref)) if exact[i]]
    rng = random.Random(f"{params['lambda']}:{params['n_max']}")
    picks = sorted(set(rng.sample(candidates, min(5, len(candidates)))
                       + [candidates[-1]]))
    n_top = int(max(ref[i][0] for i in picks))
    with mpmath.workdps(30):
        xs, vecs, flow = _mp_chain(config, n_top)
        for i in picks:
            n, _, _, _, is_dense = ref[i]
            v = vecs[n]
            if is_dense:
                v = flow(mpmath.mpf(rows[i, 1]) - xs[n], v)
            v = (float(v[0]), float(v[1]))
            if not (math.hypot(rows[i, 2] - v[0], rows[i, 3] - v[1])
                    <= PROPAGATE_RTOL * math.hypot(*v)):
                return _fail(f"row {i} (n={n}) differs from mpmath")
    return Verdict(True)
