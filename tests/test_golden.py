"""Every subcommand's output bytes against committed golden files.

Each case runs a config from ``tests/golden/`` through ``cli.main`` and
compares the written file byte for byte with the expected output beside it.
After an intended output change, regenerate a golden with

    python -m pointspec.cli COMMAND --config tests/golden/COMMAND.config.json \
        --out tests/golden/EXPECTED [--format json]

and say in the change record which bytes moved and why.
"""

from pathlib import Path

import pytest

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


@pytest.mark.parametrize("command, expected, args", CASES,
                         ids=[case[1] for case in CASES])
def test_output_bytes(command, expected, args, tmp_path):
    out = tmp_path / expected
    code = main([command, "--config", str(GOLDEN / f"{command}.config.json"),
                 "--out", str(out), *args])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / expected).read_bytes()
