"""Seeded request generators for the three benchmark workloads.

A workload is an endless sequence of *rounds*.  Each round is one complete
input mix: every combination the workload varies appears once, and the
parameter that drives the cost (window end, truncation size, row count,
chain length) is stratified across the round, at positions inside the
strata that move along a golden-ratio sequence from round to round.  Runs
stop only at round boundaries, so every run serves the stated mix in whole
rounds, and two seeds give nearly the same cost distribution while drawing
different inputs (the seed jitters the cost parameter and draws everything
else).  Round ``r`` of seed ``s`` depends on nothing but ``(workload, s, r)``.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable
from dataclasses import dataclass

CAP = 10**7 - 1  # largest window end the default max_index = 10^7 admits


@dataclass(frozen=True)
class Request:
    """One CLI request: subcommand, config document and extra arguments."""

    key: str
    command: str
    config: dict
    args: tuple[str, ...] = ()
    cost: float = 0.0  # rough relative cost, used only to pick the cold sample

    def config_bytes(self) -> bytes:
        return json.dumps(self.config, sort_keys=True).encode()


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _position(rng: random.Random, r: int, i: int, k: int) -> float:
    """Where round r draws inside stratum i of k.

    A golden-ratio sequence over rounds covers each stratum evenly for every
    seed; offsetting stratum i by i/k spreads one round's draws across their
    strata, so rounds cost about the same; the seed adds a small jitter.
    """
    base = (r * 0.6180339887498949 + (i + 0.5) / k) % 1.0
    return min(max(base + rng.uniform(-0.02, 0.02), 0.0), 0.999999)


def _strata(rng: random.Random, r: int, lo: float, hi: float, k: int) -> list[float]:
    """One log-uniform value from each of k equal log-width strata of [lo, hi)."""
    width = (math.log(hi) - math.log(lo)) / k
    return [math.exp(math.log(lo) + width * (i + _position(rng, r, i, k)))
            for i in range(k)]


def _rotation(round_index: int, k: int) -> int:
    """Latin-square offset: over k consecutive rounds each slot meets each stratum."""
    return round_index % k


def _sig(x: float, digits: int = 6) -> float:
    return float(f"{x:.{digits - 1}e}")


# ---------------------------------------------------------------------------
# verdict: classify over large windows

VERDICT_FAMILIES = ("factorial", "power", "exponential")
VERDICT_P = (0.25, 0.5, 0.75)
KINDS = ("delta", "delta_prime")
STRENGTH_C = 1.5  # keeps alpha_n > strength_threshold = 10 at every window end


def verdict_round(seed: int, r: int) -> list[Request]:
    rng = _rng("verdict", seed, r)
    combos = [(p, kind) for p in VERDICT_P for kind in KINDS]
    shift = _rotation(r, len(combos))
    out = []
    for family in VERDICT_FAMILIES:
        # five log-uniform strata over [10^4, 10^6.5) plus the cap itself
        ends = [int(e) for e in _strata(rng, r, 1e4, 10**6.5, len(combos) - 1)]
        ends.append(CAP)
        if family == "factorial":
            positions = {"type": "factorial"}
        elif family == "power":
            positions = {"type": "power", "c": _sig(rng.uniform(0.5, 2.0)),
                         "p": _sig(rng.uniform(1.5, 3.0))}
        else:
            positions = {"type": "exponential", "c": _sig(rng.uniform(0.5, 2.0)),
                         "q": _sig(rng.uniform(0.5, 2.0))}
        for j, (p, kind) in enumerate(combos):
            hi = ends[(j + shift) % len(combos)]
            grid = sorted(_sig(_log_uniform(rng, 1e-2, 1e2)) for _ in range(3))
            config = {
                "system": {"kind": kind, "positions": positions,
                           "strengths": {"type": "power", "c": STRENGTH_C, "p": p}},
                "params": {"window": [hi - hi // 4, hi], "lambda0_grid": grid},
            }
            per_elem = {"factorial": 1.0, "power": 1.6, "exponential": 1.9}[family]
            out.append(Request(key=f"v{r}-{family}-{p}-{kind}", command="classify",
                               config=config, cost=per_elem * hi))
    return out


# ---------------------------------------------------------------------------
# spectrum: shooting eigenvalues of random explicit truncations, FD-checked

FD_H = 1.0 / 128  # divides every gap (multiples of 0.25) exactly
SPECTRUM_STRATA = 5


def spectrum_round(seed: int, r: int) -> list[Request]:
    rng = _rng("spectrum", seed, r)
    shift = _rotation(r, SPECTRUM_STRATA)
    # strata of equal width in 1/n^3: many small truncations, few large ones
    lo, hi = 1 / 32.5**3, 1 / 8**3
    inv = [lo + (hi - lo) * (i + _position(rng, r, i, SPECTRUM_STRATA)) / SPECTRUM_STRATA
           for i in range(SPECTRUM_STRATA)]
    sizes = [min(32, max(8, int(round(x**(-1 / 3))))) for x in inv]
    out = []
    for ki, kind in enumerate(KINDS):
        for j in range(SPECTRUM_STRATA):
            n = sizes[(j + shift + 2 * ki) % SPECTRUM_STRATA]
            x, points, values = 0.0, [], []
            for _ in range(n):
                x += 0.25 * rng.randint(1, 4)
                points.append(x)
                a = 0.0
                while abs(a) < 1e-3:
                    a = round(rng.uniform(-8.0, 8.0), 3)
                values.append(a)
            lo = _sig(_log_uniform(rng, 0.01, 0.5))
            hi = _sig(rng.uniform(5.0, 20.0))
            config = {
                "system": {"kind": kind,
                           "positions": {"type": "explicit", "points": points},
                           "strengths": {"type": "explicit", "values": values}},
                "params": {"n_points": n, "lambda_range": [lo, hi],
                           "grid_resolution": 2000, "oracle": "fd", "fd_h": FD_H},
            }
            out.append(Request(key=f"s{r}-{kind}-{j}", command="eigs",
                               config=config, cost=float(n)))
    return out


# ---------------------------------------------------------------------------
# table: large growth tables and long propagate chains

GROWTH_PER_ROUND = 2
GROWTH_ROWS_MAX = 10**5
PROPAGATE_STRATA = 3
PROPAGATE_MAX = 400
FACTORIAL_DENSE = (0, 2, 4, 8)


def table_round(seed: int, r: int) -> list[Request]:
    rng = _rng("table", seed, r)
    out = []
    # two of the four (lattice, format) slots per round, rows from log-uniform
    # strata over [1e4, 1e5]; round 0, the cold sample's source, gives exactly
    # 1e5 rows to factorial JSON, the memory peak
    slots = [("factorial", "json"), ("power", "csv"), ("factorial", "csv"),
             ("power", "json")]
    rows = [int(x) for x in _strata(rng, r, 1e4, GROWTH_ROWS_MAX + 1, GROWTH_PER_ROUND)]
    if r == 0:
        rows[0] = GROWTH_ROWS_MAX
    for j in range(GROWTH_PER_ROUND):
        family, fmt = slots[(GROWTH_PER_ROUND * r + j) % len(slots)]
        n_rows = rows[(j + r) % GROWTH_PER_ROUND] if r else rows[j]
        lo = rng.randint(0, 100)
        positions = ({"type": "factorial"} if family == "factorial" else
                     {"type": "power", "c": _sig(rng.uniform(0.5, 2.0)),
                      "p": _sig(rng.uniform(1.5, 3.0))})
        config = {
            "system": {"kind": rng.choice(KINDS), "positions": positions,
                       "strengths": {"type": "constant",
                                     "c": _sig(rng.uniform(0.5, 2.0))}},
            "params": {"lambda0": _sig(_log_uniform(rng, 0.1, 10.0)),
                       "window": [lo, lo + n_rows - 1]},
        }
        out.append(Request(key=f"t{r}-growth-{family}-{fmt}", command="growth",
                           config=config, args=("--format", fmt),
                           cost=n_rows * (1.6 if fmt == "json" else 1.0) * 1e-5))

    # power chains with n_max log-uniform over [50, 400]: three strata without
    # dense sampling, and one chain with 1..8 points per interval (rotating
    # across rounds; a sampled chain costs ~n_max^2 whatever the point count).
    # A round is four cheap chains, three dense factorial chains of about one
    # cost and three costly requests, so the median request sits inside the
    # factorial plateau instead of on the jump up from the cheap chains.
    shift = _rotation(r, PROPAGATE_STRATA)
    n_maxes = [int(x) for x in _strata(rng, r, 50, PROPAGATE_MAX + 1, PROPAGATE_STRATA)]
    chains = [(n_maxes[(j + shift) % PROPAGATE_STRATA], 0) for j in range(PROPAGATE_STRATA)]
    chains += [(int(_strata(rng, r, 50, PROPAGATE_MAX + 1, 1)[0]), 1 + (3 * r) % 8)]
    for j, (n_max, dense) in enumerate(chains):
        config = {
            "system": {"kind": rng.choice(KINDS),
                       "positions": {"type": "power", "c": _sig(rng.uniform(0.5, 2.0)),
                                     "p": _sig(rng.uniform(1.0, 1.5))},
                       "strengths": {"type": "constant",
                                     "c": _sig(rng.uniform(0.2, 1.0))}},
            "params": {"lambda": _sig(_log_uniform(rng, 1.0, 10.0)),
                       "n_max": n_max, "dense_per_interval": dense},
        }
        out.append(Request(key=f"t{r}-propagate-power-{j}", command="propagate",
                           config=config,
                           cost=(1.2e-5 * n_max**2 if dense else 3e-5 * n_max)))

    # factorial chains run past x_170 into the overflow footer
    for j, dense in enumerate(FACTORIAL_DENSE):
        n_max = rng.randint(172, PROPAGATE_MAX)
        config = {
            "system": {"kind": KINDS[j % 2],
                       "positions": {"type": "factorial"},
                       "strengths": {"type": "power", "c": _sig(rng.uniform(0.5, 2.0)),
                                     "p": rng.choice([0.0, 0.25, 0.5])}},
            "params": {"lambda": _sig(_log_uniform(rng, 0.1, 10.0)),
                       "n_max": n_max, "dense_per_interval": dense},
        }
        out.append(Request(key=f"t{r}-propagate-factorial-{j}", command="propagate",
                           config=config, cost=(0.15 if dense else 0.005)))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mix: str
    round: Callable[[int, int], list[Request]]


WORKLOADS = {
    "verdict": Workload(
        "verdict",
        "classify over windows up to the 10^7 cap: vectorised lattice log-gaps, "
        "threshold estimation and series_verdict plus import; transfer is never called",
        "18 classify requests per round: {factorial, power, exponential} lattices x "
        "strength exponent p in {0.25, 0.5, 0.75} x {delta, delta_prime}; window "
        "[end - end//4, end] with end drawn from five log-uniform strata over "
        "[1e4, 10^6.5) plus end = 10^7-1 once per family; lambda0_grid of 3 "
        "log-uniform energies in [0.01, 100]",
        verdict_round),
    "spectrum": Workload(
        "spectrum",
        "eigs with the FD oracle on random explicit truncations: thousands of short "
        "transfer.propagate calls at distinct energies plus FD assembly; lattice "
        "log-gaps sit idle",
        "10 eigs requests per round: {delta, delta_prime} x 5 strata of n_points "
        "over [8, 32], equal width in 1/n^3; gaps 0.25*{1..4}, strengths uniform in [-8, 8], "
        "lambda_range [log-uniform 0.01..0.5, uniform 5..20], grid_resolution 2000, "
        "fd_h 1/128",
        spectrum_round),
    "table": Workload(
        "table",
        "growth tables of 1e4-1e5 rows and long propagate chains with quadratic dense "
        "re-sampling: one energy, long chains and large rendered outputs",
        "10 requests per round: 2 growth (slots rotate over {factorial, power} x "
        "{csv, json}; rows log-uniform over [1e4, 1e5], 1e5 itself once in round 0); "
        "4 power-lattice propagate (n_max log-uniform over [50, 400]: 3 strata with "
        "dense_per_interval 0, 1 chain with it rotating through 1..8); 4 factorial "
        "propagate (dense_per_interval 0, 2, 4, 8) with n_max "
        "in [172, 400] that hit the "
        "'#overflow at n=171' footer",
        table_round),
}


def rounds(workload: str, seed: int):
    """Endless iterator over the workload's rounds for one seed."""
    make = WORKLOADS[workload].round
    r = 0
    while True:
        yield make(seed, r)
        r += 1


def cold_sample(requests: list[Request]) -> tuple[Request, Request]:
    """The median-cost request and the costliest one.

    Repeats of the median-cost request give the cold median; the costliest
    request fixes the peak memory.  Both keep their cost rank across seeds.
    """
    ordered = sorted(requests, key=lambda q: (q.cost, q.key))
    return ordered[(len(ordered) - 1) // 2], ordered[-1]
