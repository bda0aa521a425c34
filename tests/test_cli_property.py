"""Seeded configurations at the edges of double range, through ``cli.main``.

Each seed builds one small request for one of the five commands from edge
values: zero, +-1, tiny and huge magnitudes, 2^53, the factorial indices
where n! leaves double range, strength exponents up to 1e300 and explicit
gaps of 1e-9 and 1e300.  Whatever the request, the CLI answers with exit 0,
2 or 3, and a failure says which kind it is on stderr.  The autouse fixture
of ``conftest`` fails any request that lets a RuntimeWarning through.
"""

import json
import random

import pytest

from pointspec.cli import main

COMMANDS = ["classify", "avalue", "growth", "eigs", "propagate"]
SEEDS = [*range(300), 1797, 2239]

TINY_TO_HUGE = [1e-300, 1e-12, 1, 2, 1e300, 1e308, 2.0**53]
EDGES = [0, 1, -1, *TINY_TO_HUGE[:-1], -1e300, -1e308, 2**53]
EXPONENTS = [0, 0.5, 1, -1, 2, 44.6, 400, 1e12, 1e300, -1e300]
INDICES = [1, 2, 100, 169, 170, 171, 10**7 - 300, 2**53 - 300]
GAPS = [1e-9, 0.25, 1, 3, 1e300]


def positions(rng):
    kind = rng.choice(["factorial", "power", "exponential", "explicit"])
    if kind == "explicit":
        gaps = [rng.choice(GAPS) for _ in range(rng.randint(1, 8))]
        return {"type": kind, "points": [sum(gaps[:k + 1]) for k in range(len(gaps))]}
    block = {"type": kind}
    if kind == "power":
        block.update(c=rng.choice(TINY_TO_HUGE), p=rng.choice(TINY_TO_HUGE))
    elif kind == "exponential":
        block.update(c=rng.choice(TINY_TO_HUGE), q=rng.choice(TINY_TO_HUGE),
                     r=rng.choice(TINY_TO_HUGE))
    if rng.random() < 0.5:
        block["max_index"] = rng.choice([169, 170, 171, 300, 2**53])
    return block


def strengths(rng):
    kind = rng.choice(["power", "constant", "explicit"])
    if kind == "power":
        return {"type": kind, "c": rng.choice(EDGES), "p": rng.choice(EXPONENTS)}
    if kind == "constant":
        return {"type": kind, "c": rng.choice(EDGES)}
    return {"type": kind, "values": [rng.choice(EDGES) for _ in range(rng.randint(1, 8))]}


def window(rng, first=1):
    start = rng.choice([first, *INDICES])
    return [start, start + rng.randint(1, 299)]


def params(rng, command):
    energies = [rng.choice(TINY_TO_HUGE) for _ in range(3)]
    if command == "classify":
        return {"window": window(rng), "lambda0_grid": energies[:rng.randint(1, 3)]}
    if command == "avalue":
        return {"window": window(rng), "infinity_threshold": energies[0]}
    if command == "growth":
        return {"lambda0": energies[0], "window": window(rng, first=0)}
    if command == "eigs":
        doc = {"n_points": rng.randint(1, 8), "lambda_range": sorted(energies[:2]),
               "grid_resolution": rng.choice([2, 50, 2000])}
        if rng.random() < 0.5:
            doc.update(oracle="fd", fd_h=rng.choice([0.25, 1, 1e-9, 1e300]))
        return doc
    return {"lambda": energies[0], "n_max": rng.randint(1, 200),
            "xi0": [rng.choice(EDGES), rng.choice(EDGES)],
            "dense_per_interval": rng.choice([0, 1, 3])}


def config(seed):
    rng = random.Random(seed)
    command = COMMANDS[seed % len(COMMANDS)]
    system = {"kind": rng.choice(["delta", "delta_prime"]),
              "positions": positions(rng), "strengths": strengths(rng)}
    return command, {"system": system, "params": params(rng, command)}


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


@pytest.mark.parametrize("seed", SEEDS)
def test_exit_code_and_message(seed, config_dir, capsys):
    command, doc = config(seed)
    path = config_dir / f"{seed}.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--config", str(path)])
    _, err = capsys.readouterr()
    assert code in (0, 2, 3), (command, doc)
    if code:
        assert err.startswith(("config error: ", "numerical failure: ")), (command, doc, err)
