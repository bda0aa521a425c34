"""Every subcommand's output bytes against committed golden files.

Each case runs a config from ``tests/golden/`` through ``cli.main`` and
compares the written file byte for byte with the expected output beside it.
After an intended output change, regenerate a golden with

    python -m pointspec.cli COMMAND --config tests/golden/COMMAND.config.json \
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

# (command, expected output file, extra arguments)
CASES = [
    ("classify", "classify.out.json", ()),
    ("avalue", "avalue.out.json", ()),
    ("growth", "growth.out.csv", ()),
    ("growth", "growth.out.json", ("--format", "json")),
    ("eigs", "eigs.out.csv", ()),  # with the FD oracle
    ("propagate", "propagate.out.csv", ()),  # dense_per_interval = 2
]


@pytest.mark.parametrize("command, expected, args", [
    pytest.param(*case, id=case[1],
                 marks=[pytest.mark.requires_scipy] if case[0] == "eigs" else [])
    for case in CASES])
def test_output_bytes(command, expected, args, tmp_path):
    out = tmp_path / expected
    code = main([command, "--config", str(GOLDEN / f"{command}.config.json"),
                 "--out", str(out), *args])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / expected).read_bytes()


# every case but the FD oracle, run where importing scipy fails
NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from pointspec.cli import main
for command, out, args in json.loads(sys.argv[1]):
    config = sys.argv[2] + "/" + command + ".config.json"
    if main([command, "--config", config, "--out", out, *args]) != 0:
        sys.exit(1)
"""


def test_output_bytes_without_scipy(tmp_path):
    cases = [(command, str(tmp_path / expected), list(args))
             for command, expected, args in CASES if command != "eigs"]
    src = str(Path(pointspec.__file__).parents[1])
    subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(cases), str(GOLDEN)],
                   check=True, env={**os.environ, "PYTHONPATH": src})
    for _, out, _ in cases:
        name = Path(out).name
        assert Path(out).read_bytes() == (GOLDEN / name).read_bytes(), name
