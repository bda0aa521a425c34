"""Every subcommand's output bytes against committed golden files.

Each case runs a config from ``tests/golden/`` through ``cli.main`` and
compares the written file byte for byte with the expected output beside it.
After an intended output change, regenerate a golden with

    python -m pointspec.cli COMMAND --config tests/golden/CONFIG \
        --out tests/golden/EXPECTED [--format json]

and say in the change record which bytes moved and why.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pointspec
from pointspec.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (command, config file, expected output file, extra arguments); CI's run
# with AVX-512 switched off deselects the growth and propagate cases and the
# no-scipy run of them all, whose bytes depend on numpy's CPU dispatch
CASES = [
    ("classify", "classify.config.json", "classify.out.json", ()),
    ("avalue", "avalue.config.json", "avalue.out.json", ()),
    ("growth", "growth.config.json", "growth.out.csv", ()),
    ("growth", "growth.config.json", "growth.out.json", ("--format", "json")),
    ("eigs", "eigs.config.json", "eigs.out.csv", ()),  # with the FD oracle
    # the echoed params, fd_h and fd_count included
    ("eigs", "eigs.config.json", "eigs.out.json", ("--format", "json")),
    # the FD oracle on a delta-prime truncation
    ("eigs", "eigs_delta_prime.config.json", "eigs_delta_prime.out.csv", ()),
    # shooting roots past the FD spectrum: the oracle bisects its whole list
    ("eigs", "eigs_fallback.config.json", "eigs_fallback.out.csv", ()),
    ("propagate", "propagate.config.json", "propagate.out.csv", ()),  # dense_per_interval = 2
    # the echoed params, the default xi0 included
    ("propagate", "propagate.config.json", "propagate.out.json", ("--format", "json")),
]


@pytest.mark.parametrize("command, config, expected, args",
                         [pytest.param(*case, id=case[2]) for case in CASES])
def test_output_bytes(command, config, expected, args, tmp_path):
    out = tmp_path / expected
    code = main([command, "--config", str(GOLDEN / config), "--out", str(out), *args])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / expected).read_bytes()


# every case, the FD oracle included, run where importing scipy fails
NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from pointspec.cli import main
for command, config, out, args in json.loads(sys.argv[1]):
    config = sys.argv[2] + "/" + config
    if main([command, "--config", config, "--out", out, *args]) != 0:
        sys.exit(1)
"""


def test_output_bytes_without_scipy(tmp_path):
    cases = [(command, config, str(tmp_path / expected), list(args))
             for command, config, expected, args in CASES]
    src = str(Path(pointspec.__file__).parents[1])
    subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(cases), str(GOLDEN)],
                   check=True, env={**os.environ, "PYTHONPATH": src})
    for _, _, out, _ in cases:
        name = Path(out).name
        assert Path(out).read_bytes() == (GOLDEN / name).read_bytes(), name
