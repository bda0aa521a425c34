import errno
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pointspec import cli, fundamental_matrix
from pointspec.cli import ConfigError, main, parse_config
from schemas import AVALUE_SCHEMA, CLASSIFY_SCHEMA, TABLE_SCHEMA

jsonschema = pytest.importorskip("jsonschema")


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def config_dict(run):
    """A config document that parses to ``run``: the system as every output
    echoes it, and the params."""
    return {"system": cli._system_dict(run.system), "params": run.params}


def edited(doc, path, value):
    """A copy of ``doc`` with the entry at the keys ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    block = doc
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    return doc


FACTORIAL_QUARTER = {
    "system": {"kind": "delta",
               "positions": {"type": "factorial"},
               "strengths": {"type": "power", "c": 1.0, "p": 0.25}},
    "params": {"window": [2, 1000000]},
}

FACTORIAL_SQRT = {
    "system": {"kind": "delta",
               "positions": {"type": "factorial"},
               "strengths": {"type": "power", "c": 1.0, "p": 0.5}},
    "params": {"window": [100, 10000]},
}

FREE_PI = {
    "system": {"kind": "delta",
               "positions": {"type": "explicit", "points": [0.0, math.pi]},
               "strengths": {"type": "explicit", "values": [0.0]}},
    "params": {"n_points": 1, "lambda_range": [0.5, 17.0], "tol": 1e-12},
}

# each generator as given, and as echoed: defaults filled in, numbers as
# floats, 0 prepended to explicit points; a strength's c may be negative
POSITIONS = {
    "factorial": ({"type": "factorial"},
                  {"type": "factorial", "max_index": 10**7}),
    "power": ({"type": "power", "c": 2, "p": 1.5},
              {"type": "power", "c": 2.0, "p": 1.5, "max_index": 10**7}),
    "exponential": ({"type": "exponential", "c": 1, "q": 0.5, "max_index": 50},
                    {"type": "exponential", "c": 1.0, "q": 0.5, "r": 1.0,
                     "max_index": 50}),
    "explicit": ({"type": "explicit", "points": [1, 2.5]},
                 {"type": "explicit", "points": [0.0, 1.0, 2.5]}),
}
STRENGTHS = {
    "power": ({"type": "power", "c": 1, "p": 0.5},
              {"type": "power", "c": 1.0, "p": 0.5}),
    "constant": ({"type": "constant", "c": -2},
                 {"type": "constant", "c": -2.0}),
    "explicit": ({"type": "explicit", "values": [1, -0.5]},
                 {"type": "explicit", "values": [1.0, -0.5]}),
}


class TestConfigParsing:
    def test_round_trip(self):
        run = parse_config(FACTORIAL_QUARTER)
        doc = config_dict(run)
        again = parse_config(doc)
        assert again == run
        assert config_dict(again) == doc

    def test_unknown_key_rejected(self):
        doc = {"system": dict(FACTORIAL_QUARTER["system"], bogus=1),
               "params": {}}
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(doc)

    def test_unknown_generator_key_rejected(self):
        doc = json.loads(json.dumps(FACTORIAL_QUARTER))
        doc["system"]["positions"]["extra"] = 2
        with pytest.raises(ConfigError, match="extra"):
            parse_config(doc)

    def test_bad_kind_names_field(self):
        doc = json.loads(json.dumps(FACTORIAL_QUARTER))
        doc["system"]["kind"] = "delta_triple"
        with pytest.raises(ConfigError, match="system.kind"):
            parse_config(doc)

    @pytest.mark.parametrize("positions", POSITIONS)
    @pytest.mark.parametrize("strengths", STRENGTHS)
    def test_round_trip_every_generator(self, positions, strengths):
        given_p, echo_p = POSITIONS[positions]
        given_s, echo_s = STRENGTHS[strengths]
        run = parse_config({"system": {"kind": "delta_prime", "positions": given_p,
                                       "strengths": given_s}})
        doc = config_dict(run)
        # json.dumps tells an echoed 2.0 from 2
        assert json.dumps(doc) == json.dumps(
            {"system": {"kind": "delta_prime", "positions": echo_p,
                        "strengths": echo_s}, "params": {}})
        again = parse_config(doc)
        assert again == run
        assert config_dict(again) == doc

    @pytest.mark.parametrize("family, block, message", [
        ("positions", {"type": "power", "c": 1.0, "p": 2.0, "q": 1.0},
         "unknown key(s) in system.positions: ['q']"),
        ("positions", {"type": "exponential", "c": 1.0},
         "missing key(s) in system.positions: ['q']"),
        ("positions", {"type": "cubic"},
         "system.positions.type must be one of "
         "factorial|power|exponential|explicit, got 'cubic'"),
        ("positions", {"type": ["x"]},
         "system.positions.type must be one of "
         "factorial|power|exponential|explicit, got ['x']"),
        ("positions", {"type": "power", "c": 0, "p": 2.0},
         "system.positions.c must be positive"),
        ("positions", {"type": "exponential", "c": -1.0, "q": 1.0},
         "system.positions.c must be positive"),
        ("strengths", {"type": "constant", "c": 1.0, "p": 2.0},
         "unknown key(s) in system.strengths: ['p']"),
        ("strengths", {"type": "explicit"},
         "missing key(s) in system.strengths: ['values']"),
        ("strengths", {"type": "linear"},
         "system.strengths.type must be one of power|constant|explicit, "
         "got 'linear'"),
        ("strengths", {"type": ["x"]},
         "system.strengths.type must be one of power|constant|explicit, "
         "got ['x']"),
        ("strengths", {"type": "power", "c": "1", "p": 2.0},
         "system.strengths.c must be a number"),
    ])
    def test_generator_messages(self, family, block, message):
        doc = json.loads(json.dumps(FACTORIAL_QUARTER))
        doc["system"][family] = block
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert str(info.value) == message


# a power lattice with constant strengths; each case below puts one JSON
# constant that is not a number into the lattice's c or the params
NONFINITE_BASE = ('{"system": {"kind": "delta", "positions": {"type": "power", '
                  '"c": %s, "p": 1.5}, "strengths": {"type": "constant", "c": 1.0}}, '
                  '"params": %s}')


class TestMalformedInput:
    @pytest.mark.parametrize("command, c, params, constant", [
        ("propagate", "1.0", '{"lambda": Infinity, "n_max": 5}', "Infinity"),
        ("propagate", "1.0", '{"lambda": 2.0, "n_max": 5, "xi0": [NaN, 1]}', "NaN"),
        ("eigs", "1.0", '{"n_points": 3, "lambda_range": [0.5, 9.0], '
                        '"tol": Infinity}', "Infinity"),
        ("growth", "1.0", '{"lambda0": Infinity, "window": [0, 5]}', "Infinity"),
        ("classify", "1.0", '{"window": [100, 1000], "margin": Infinity}', "Infinity"),
        ("propagate", "Infinity", '{"lambda": 2.0, "n_max": 5}', "Infinity"),
    ], ids=["lambda", "xi0", "tol", "lambda0", "margin", "lattice_c"])
    def test_nonfinite_constant_rejected(self, tmp_path, capsys, command, c,
                                         params, constant):
        cfg = tmp_path / "config.json"
        cfg.write_text(NONFINITE_BASE % (c, params))
        target = tmp_path / "out.json"
        code, out, err = run_cli([command, "--config", str(cfg), "--format",
                                  "json", "--out", str(target)], capsys)
        assert code == 2
        assert err.startswith("config error: ") and constant in err
        assert out == "" and not target.exists()

    @pytest.mark.parametrize("command, path, value, message", [
        ("eigs", ("system", "strengths", "values"), [[1]],
         "system.strengths.values must hold only numbers"),
        ("propagate", ("system", "positions", "points"), [1.0, {"a": 1}],
         "system.positions.points must hold only numbers"),
        ("growth", ("system", "positions", "points"), [True, 2.0, 3.0],
         "system.positions.points must hold only numbers"),
        ("propagate", ("params", "xi0"), [True, 1],
         "params.xi0 must be [psi, dpsi]"),
        ("eigs", ("params", "lambda_range"), [True, 5],
         "params.lambda_range must be [lo, hi] with 0 < lo < hi"),
        ("classify", ("params", "lambda0_grid"), [True],
         "params.lambda0_grid must be an array of positive numbers"),
    ], ids=["values_list", "points_object", "points_bool", "xi0_bool",
            "lambda_range_bool", "lambda0_grid_bool"])
    def test_array_entries_must_be_numbers(self, tmp_path, capsys, command,
                                           path, value, message):
        doc = {"system": {"kind": "delta",
                          "positions": {"type": "explicit",
                                        "points": [1.0, 2.0, 3.0]},
                          "strengths": {"type": "explicit",
                                        "values": [1.0, 1.0, 1.0]}},
               "params": {"propagate": {"lambda": 1.0, "n_max": 3},
                          "eigs": {"n_points": 3, "lambda_range": [0.5, 9.0]},
                          "growth": {"lambda0": 1.0, "window": [0, 2]},
                          "classify": {"window": [1, 2]}}[command]}
        code, out, err = run_cli([command, "--config",
                                  write_config(tmp_path, edited(doc, path, value))],
                                 capsys)
        assert code == 2 and out == ""
        assert err == f"config error: {message}\n"

    # JSON reads 1e400 as inf; a 401-digit integer literal has no double
    @pytest.mark.parametrize("command, path, literal, message", [
        ("growth", ("params", "lambda0"), "1e400",
         "params.lambda0 must be a finite double"),
        ("classify", ("system", "positions"),
         '{"type": "power", "c": 1e400, "p": 2.0}',
         "system.positions.c must be a finite double"),
        ("classify", ("system", "positions"),
         '{"type": "power", "c": 1%s, "p": 2.0}' % ("0" * 400),
         "system.positions.c must be a finite double"),
        ("eigs", ("params", "n_points"), "1" + "0" * 400,
         "params.n_points must be a finite double"),
        ("classify", ("params", "lambda0_grid"), "[1e400, 1.0]",
         "params.lambda0_grid must hold only finite doubles"),
        ("propagate", ("system", "positions", "points"), "[1.0, 1e400]",
         "system.positions.points must hold only finite doubles"),
        ("eigs", ("system", "strengths", "values"), "[1.0, -1e400, 1.0]",
         "system.strengths.values must hold only finite doubles"),
        ("eigs", ("params", "lambda_range"), "[0.5, 1e400]",
         "params.lambda_range must hold only finite doubles"),
        ("propagate", ("params", "xi0"), "[0.0, 1%s]" % ("0" * 400),
         "params.xi0 must hold only finite doubles"),
    ], ids=["lambda0", "lattice_c", "lattice_c_integer", "n_points_integer",
            "lambda0_grid", "points", "values", "lambda_range", "xi0"])
    def test_numbers_outside_double_range_exit_2(self, tmp_path, capsys,
                                                 monkeypatch, command, path,
                                                 literal, message):
        def computing(run):
            raise AssertionError("a command ran on a config out of range")

        for name in ("classify", "avalue", "growth", "eigs", "propagate"):
            monkeypatch.setattr(cli, f"cmd_{name}", computing)
        doc = {"system": {"kind": "delta",
                          "positions": {"type": "explicit",
                                        "points": [1.0, 2.0, 3.0]},
                          "strengths": {"type": "explicit",
                                        "values": [1.0, 1.0, 1.0]}},
               "params": {"propagate": {"lambda": 1.0, "n_max": 3},
                          "eigs": {"n_points": 3, "lambda_range": [0.5, 9.0]},
                          "growth": {"lambda0": 1.0, "window": [0, 2]},
                          "classify": {"window": [1, 2]}}[command]}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(edited(doc, path, "LITERAL")).replace(
            '"LITERAL"', literal))
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert (code, out, err) == (2, "", f"config error: {message}\n")


GROWTH_DOC = {"system": FREE_PI["system"], "params": {"lambda0": 1.0, "window": [0, 1]}}

# (command, config file text or None for no file, message with {path} for
# the config's path)
CONFIG_ERRORS = [
    ("eigs", "[]", "config must be an object"),
    ("eigs", json.dumps(edited(FREE_PI, ("system", "positions"), {"c": 1.0})),
     "system.positions must be an object with a 'type' field"),
    ("eigs", json.dumps(edited(FREE_PI, ("system", "positions", "points"), [])),
     "system.positions.points must be a nonempty array"),
    ("eigs", json.dumps(edited(FREE_PI, ("params",), [])), "params must be an object"),
    # --format and --out choose a table's format and destination
    ("eigs", json.dumps(edited(FREE_PI, ("output",), {"format": "json"})),
     "unknown key(s) in config: ['output']"),
    ("eigs", None,
     "cannot read config {path}: [Errno 2] No such file or directory: {path!r}"),
    ("eigs", "not json",
     "config {path} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("eigs", json.dumps(edited(FREE_PI, ("params", "n_points"), 2.5)),
     "params.n_points must be an integer"),
    ("eigs", json.dumps(edited(FREE_PI, ("params", "n_points"), 0)),
     "params.n_points must be >= 1"),
    ("growth", json.dumps(edited(GROWTH_DOC, ("params", "window"), [5, 5])),
     "params.window must satisfy 0 <= start < end"),
    ("eigs", json.dumps(edited(FREE_PI, ("params", "oracle"), "lapack")),
     "params.oracle must be null or 'fd'"),
    ("eigs", json.dumps(edited(FREE_PI, ("params", "fd_h"), "coarse")),
     "params.fd_h needs params.oracle 'fd'"),
    # window indices are doubles: past 2^53 neighbours collide (a "flat"
    # trend on a lattice whose ratio tends to infinity), and a window of
    # 10^30 indices has more blocks than a list can index
    ("classify", json.dumps(edited(edited(
        FACTORIAL_QUARTER, ("system", "positions", "max_index"), 2 * 10**16),
        ("params", "window"), [19999999999000000, 19999999999999990])),
     "system.positions.max_index must be <= 9007199254740992"),
    ("classify", json.dumps(edited(edited(
        FACTORIAL_QUARTER, ("system", "positions", "max_index"), 10**30),
        ("params", "window"), [1, 10**30 - 1])),
     "system.positions.max_index must be <= 9007199254740992"),
    # gaps that round to 0: p log1p(1/n), or q ((n+1)^r - n^r), is 0 at n = 10^7 - 1
    ("avalue", json.dumps(edited(FACTORIAL_QUARTER, ("system", "positions"),
                                 {"type": "power", "c": 1.0, "p": 1e-320})),
     "p too small: gap 9999999 rounds to 0"),
    ("avalue", json.dumps(edited(FACTORIAL_QUARTER, ("system", "positions"),
                                 {"type": "exponential", "c": 1.0, "q": 1.0, "r": 1e-320})),
     "q and r too small: gap 9999999 rounds to 0"),
]


@pytest.mark.parametrize("command, text, message", CONFIG_ERRORS,
                         ids=["config_object", "positions_type", "points_empty",
                              "params_object", "output_block",
                              "unreadable", "not_json", "n_points_integer",
                              "n_points_minimum", "growth_window", "oracle",
                              "fd_h_without_oracle", "max_index_indices_collide",
                              "max_index_blocks_past_a_list", "power_gaps_round_to_0",
                              "exponential_gaps_round_to_0"])
def test_config_error_exits_2(tmp_path, capsys, command, text, message):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli([command, "--config", str(path)], capsys)
    assert (code, out, err) == (2, "", f"config error: {message.format(path=str(path))}\n")


class TestClassifyCommand:
    def test_case_ii_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FACTORIAL_QUARTER)
        code, out, _ = run_cli(["classify", "--config", cfg], capsys)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, CLASSIFY_SCHEMA)
        assert doc["result"]["case"] == "case_ii"
        assert doc["result"]["sc_contains"] == "[0,inf)"
        assert doc["result"]["pp_window"] == "empty"
        assert doc["params"]["window"] == [2, 1000000]

    def test_case_i_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FACTORIAL_SQRT)
        code, out, _ = run_cli(["classify", "--config", cfg], capsys)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, CLASSIFY_SCHEMA)
        assert doc["result"]["case"] == "case_i_delta"
        lo, hi = doc["result"]["sc_contains"].strip("[)").split(",")
        assert abs(float(lo) - 1.0) < 1.1e-3
        assert hi == "inf"
        assert doc["result"]["threshold"]["estimate"] == pytest.approx(1.0, abs=1.1e-3)

    def test_malformed_kind_exits_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(FACTORIAL_QUARTER))
        doc["system"]["kind"] = "nonsense"
        cfg = write_config(tmp_path, doc)
        code, out, err = run_cli(["classify", "--config", cfg], capsys)
        assert code == 2
        assert "system.kind" in err
        assert out == ""

    def test_no_partial_file_on_config_error(self, tmp_path, capsys):
        doc = json.loads(json.dumps(FACTORIAL_QUARTER))
        doc["params"]["window"] = "wide"
        cfg = write_config(tmp_path, doc)
        target = tmp_path / "out.json"
        code, _, _ = run_cli(["classify", "--config", cfg,
                              "--out", str(target)], capsys)
        assert code == 2
        assert not target.exists()

    def test_default_window_echoed(self, tmp_path, capsys):
        doc = edited(FACTORIAL_QUARTER, ("params",), {})
        code, out, _ = run_cli(["classify", "--config", write_config(tmp_path, doc)],
                               capsys)
        assert code == 0
        assert json.loads(out)["params"]["window"] == [100, 1000000]

    def test_csv_format_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FACTORIAL_QUARTER)
        code, _, err = run_cli(["classify", "--config", cfg,
                                "--format", "csv"], capsys)
        assert code == 2
        assert "JSON" in err


class TestAvalueCommand:
    def test_json_output(self, tmp_path, capsys):
        doc = json.loads(json.dumps(FACTORIAL_SQRT))
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["avalue", "--config", cfg], capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, AVALUE_SCHEMA)
        assert payload["result"]["estimate"] == pytest.approx(1.0, abs=1.1e-3)
        assert payload["result"]["diverging"] is False


class TestGrowthCommand:
    def config(self, tmp_path, lam0=4.0, window=(0, 10000)):
        doc = {"system": FACTORIAL_SQRT["system"],
               "params": {"lambda0": lam0, "window": list(window)}}
        return write_config(tmp_path, doc)

    def test_columns_and_first_row(self, tmp_path, capsys):
        cfg = self.config(tmp_path, window=(0, 50))
        code, out, _ = run_cli(["growth", "--config", cfg], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("n,log_gap,log_coupling_product,dalembert_ratio,"
                            "series_term")
        first = lines[1].split(",")
        assert len(first) == 5
        assert first[0] == "0"
        assert float(first[2]) == 0.0

    def test_ratio_column_approaches_probe_times_liminf(self, tmp_path, capsys):
        cfg = self.config(tmp_path, lam0=4.0, window=(0, 10000))
        code, out, _ = run_cli(["growth", "--config", cfg], capsys)
        rows = [line.split(",") for line in out.splitlines()[1:]
                if not line.startswith("#")]
        last_ratio = float(rows[-1][3])
        assert abs(last_ratio - 4.0) < 0.2
        ratios = [float(r[3]) for r in rows[2000:]]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_deterministic_bytes(self, tmp_path, capsys):
        cfg = self.config(tmp_path, window=(0, 40))
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["growth", "--config", cfg, "--out", str(f1)], capsys)[0] == 0
        assert run_cli(["growth", "--config", cfg, "--out", str(f2)], capsys)[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_json_envelope(self, tmp_path, capsys):
        cfg = self.config(tmp_path, window=(0, 20))
        code, out, _ = run_cli(["growth", "--config", cfg,
                                "--format", "json"], capsys)
        doc = json.loads(out)
        jsonschema.validate(doc, TABLE_SCHEMA)
        assert doc["columns"][2] == "log_coupling_product"
        assert doc["rows"][0][2] == 0.0

    def test_ratio_column_against_mpmath(self, tmp_path, capsys):
        mp = pytest.importorskip("mpmath")
        doc = {"system": FACTORIAL_QUARTER["system"],
               "params": {"lambda0": 1.0, "window": [99990, 100000]}}
        code, out, _ = run_cli(["growth", "--config",
                                write_config(tmp_path, doc)], capsys)
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()[1:] if not l.startswith("#")]
        assert len(rows) == 11
        with mp.workdps(40):
            for r in rows:
                n = mp.mpf(int(r[0]))
                # gap(n) / gap(n-1) = n^2 / (n-1), factor 1 + n^(1/4)
                exact = n**2 / (n - 1) / (1 + n**0.25) ** 2
                assert float(r[3]) == pytest.approx(float(exact), rel=1e-14)

    def test_ratio_column_starts_with_nan(self, tmp_path, capsys):
        cfg = self.config(tmp_path, window=(0, 3))
        code, out, _ = run_cli(["growth", "--config", cfg], capsys)
        rows = [l.split(",") for l in out.splitlines()[1:] if not l.startswith("#")]
        assert rows[0][3] == "nan"
        assert all(math.isfinite(float(r[3])) for r in rows[1:])


GOLDEN = Path(__file__).parent / "golden"
# ln(gap(n) / gap(n-1)) is about 2n + 1 on this lattice, past double range from n = 355
STEEP_EXPONENTIAL = {
    "system": {"kind": "delta",
               "positions": {"type": "exponential", "c": 1, "q": 1, "r": 2,
                             "max_index": 1000},
               "strengths": {"type": "constant", "c": 1}}}


def golden_config(name, path, value):
    return edited(json.loads((GOLDEN / f"{name}.config.json").read_text()), path, value)


class TestDoubleRange:
    """Ratios past double range print as inf, and strengths past it exit 3
    before any output (gaps that round to 0 exit 2: ``CONFIG_ERRORS``)."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_growth_ratio_past_double_range_is_inf(self, tmp_path, capsys, fmt):
        doc = {**STEEP_EXPONENTIAL, "params": {"lambda0": 1, "window": [395, 400]}}
        code, out, err = run_cli(["growth", "--config", write_config(tmp_path, doc),
                                  "--format", fmt], capsys)
        assert (code, err) == (0, "")
        if fmt == "csv":
            ratios = [l.split(",")[3] for l in out.splitlines()[1:] if l[0] != "#"]
        else:
            ratios = [row[3] for row in json.loads(out)["rows"]]
        assert ratios == ["inf"] * 6

    def test_classify_sparseness_ratio_past_double_range_is_inf(self, tmp_path, capsys):
        doc = {**STEEP_EXPONENTIAL, "params": {"window": [300, 400]}}
        code, out, err = run_cli(["classify", "--config", write_config(tmp_path, doc)],
                                 capsys)
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert result["threshold"]["last_ratio"] == "inf"
        assert result["diagnostics"]["last_sparseness_ratio"] == "inf"

    @pytest.mark.parametrize("command, doc, n", [
        ("classify", golden_config("classify", ("system", "strengths", "p"), 1e300), 100),
        ("avalue", golden_config("avalue", ("system", "strengths", "p"), 1e300), 10),
        ("growth", {"system": {"kind": "delta",
                               "positions": {"type": "power", "c": 1, "p": 1.5},
                               "strengths": {"type": "power", "c": 1, "p": 400}},
                    "params": {"lambda0": 1, "window": [1, 10]}}, 6)])
    def test_strengths_past_double_range_exit_3(self, tmp_path, capsys, command, doc, n):
        target = tmp_path / "out"
        code, out, err = run_cli([command, "--config", write_config(tmp_path, doc),
                                  "--out", str(target)], capsys)
        assert (code, out) == (3, "")
        assert err == f"numerical failure: |alpha_n| is past double range from n={n}\n"
        assert not target.exists()

    @pytest.mark.parametrize("p", [1, 1e300])
    @pytest.mark.parametrize("command", ["avalue", "classify", "growth"])
    def test_zero_power_strengths_for_any_p(self, tmp_path, capsys, command, p):
        # alpha_n = 0 n^p is 0 even where n^p is past double range: the
        # output is that of p = 1, bar the echoed p
        outs = []
        for q in (p, 1):
            doc = golden_config(command, ("system", "strengths"),
                                {"type": "power", "c": 0, "p": q})
            code, out, err = run_cli([command, "--config", write_config(tmp_path, doc)],
                                     capsys)
            assert (code, err) == (0, "")
            outs.append(out)
        if command == "growth":
            assert outs[0] == outs[1]
            return
        got, want = map(json.loads, outs)
        assert got["system"]["strengths"].pop("p") == p
        want["system"]["strengths"].pop("p")
        result = got["result"]
        assert got == want and result.get("threshold", result)["estimate"] == "inf"


class TestEigsCommand:
    def test_free_system_first_root(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FREE_PI)
        code, out, _ = run_cli(["eigs", "--config", cfg], capsys)
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()[1:] if not l.startswith("#")]
        assert abs(float(rows[0][1]) - 1.0) < 1e-8

    def test_fd_oracle_loads_no_scipy(self, tmp_path):
        # a cold eigs run with the FD oracle, in a fresh interpreter
        doc = edited(FREE_PI, ("params",), {**FREE_PI["params"], "oracle": "fd",
                                            "fd_h": math.pi / 512})
        code = ("import sys; from pointspec.cli import main; "
                "assert main(['eigs', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0; "
                "print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run([sys.executable, "-c", code, write_config(tmp_path, doc),
                               str(tmp_path / "out.csv")], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.strip() == "[]"
        assert (tmp_path / "out.csv").read_text().splitlines()[0].endswith(
            "fd_lambda,rel_deviation")

    def test_fd_oracle_columns(self, tmp_path, capsys):
        doc = json.loads(json.dumps(FREE_PI))
        doc["system"]["positions"]["points"] = [0.0, 1.0, 3.0]
        doc["system"]["strengths"]["values"] = [5.0, 0.0]
        doc["params"].update({"n_points": 2, "lambda_range": [0.05, 30.0],
                              "oracle": "fd", "fd_h": 1.0 / 1024})
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["eigs", "--config", cfg], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith("fd_lambda,rel_deviation")
        rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
        assert all(float(r[5]) < 1e-3 for r in rows)

    def test_fd_mesh_off_the_lattice_exits_2(self, tmp_path, capsys):
        # the points 1, 2 and 3.5 lie off a mesh of 0.3: refused, not snapped
        doc = json.loads(json.dumps(FREE_PI))
        doc["system"]["positions"]["points"] = [0.0, 1.0, 2.0, 3.5]
        doc["system"]["strengths"]["values"] = [2.0, -1.5, 0.0]
        doc["params"].update({"n_points": 3, "oracle": "fd", "fd_h": 0.3})
        code, out, err = run_cli(["eigs", "--config", write_config(tmp_path, doc)], capsys)
        assert (code, out, err) == (2, "", "config error: lattice point x_1 = 1.0 is off "
                                    "the FD mesh of fd_h = 0.3; choose an fd_h that "
                                    "divides the gaps\n")

    def test_empty_range_exits_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(FREE_PI))
        doc["params"]["lambda_range"] = [5.0, 5.0]
        cfg = write_config(tmp_path, doc)
        code, _, err = run_cli(["eigs", "--config", cfg], capsys)
        assert code == 2
        assert "lambda_range" in err

    def test_more_roots_than_grid_cells_exits_2(self, tmp_path, capsys):
        doc = {"system": {"kind": "delta",
                          "positions": {"type": "power", "c": 1.0, "p": 3.0},
                          "strengths": {"type": "power", "c": 1.0, "p": 0.5}},
               "params": {"n_points": 100, "lambda_range": [0.5, 10.0]}}
        cfg = write_config(tmp_path, doc)
        code, out, err = run_cli(["eigs", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert "more than grid_resolution (2000)" in err

    def test_fd_h_checked_before_the_solve(self, tmp_path, capsys, monkeypatch):
        def solver(*args, **kwargs):
            pytest.fail("the shooting solver ran before params.fd_h was checked")
        monkeypatch.setattr(cli, "truncated_eigenvalues", solver)
        doc = edited(FREE_PI, ("params", "oracle"), "fd")
        code, out, err = run_cli(["eigs", "--config", write_config(tmp_path, doc)],
                                 capsys)
        assert (code, out, err) == (2, "", "config error: missing params.fd_h\n")

    @pytest.mark.parametrize("oracle", [None, "omitted"])
    def test_fd_h_without_the_oracle_exits_2(self, tmp_path, capsys, oracle):
        params = {**FREE_PI["params"], "fd_h": math.pi / 512}
        if oracle != "omitted":
            params["oracle"] = oracle
        doc = edited(FREE_PI, ("params",), params)
        code, out, err = run_cli(["eigs", "--config", write_config(tmp_path, doc)],
                                 capsys)
        assert (code, out, err) == (2, "", "config error: params.fd_h needs "
                                           "params.oracle 'fd'\n")

    def test_fd_count_is_an_unknown_key(self, tmp_path, capsys):
        doc = edited(FREE_PI, ("params",), {**FREE_PI["params"], "oracle": "fd",
                                            "fd_h": math.pi / 512, "fd_count": 4})
        code, out, err = run_cli(["eigs", "--config", write_config(tmp_path, doc)],
                                 capsys)
        assert (code, out) == (2, "")
        assert err == "config error: unknown key(s) in params: ['fd_count']\n"

    def test_endpoint_overflow_exits_3_without_strict(self, tmp_path, capsys):
        doc = {"system": {"kind": "delta", "positions": {"type": "factorial"},
                          "strengths": {"type": "constant", "c": 1.0}},
               "params": {"n_points": 171, "lambda_range": [0.5, 10.0]}}
        code, out, err = run_cli(["eigs", "--config", write_config(tmp_path, doc)],
                                 capsys)
        assert (code, out) == (3, "")
        assert err == "numerical failure: truncation endpoint beyond double range\n"

    @pytest.mark.parametrize("kind, strengths, message", [
        ("delta", {"type": "power", "c": 1, "p": 1e300},
         "|alpha_n| is past double range from n=2"),
        # alpha / sqrt(lam) and -sqrt(lam) alpha pass double range in the range
        ("delta", {"type": "explicit", "values": [1.0, 1e308, 1.0, 1.0]},
         "Prufer cotangent passed double range"),
        ("delta_prime", {"type": "explicit", "values": [1.0, 1e308, 1.0, 1.0]},
         "Prufer cotangent passed double range"),
    ], ids=["power", "explicit-delta", "explicit-delta_prime"])
    def test_strengths_past_double_range_exit_3(self, tmp_path, capsys, kind,
                                                strengths, message):
        doc = {"system": {"kind": kind,
                          "positions": {"type": "explicit", "points": [1.0, 2.0, 3.0, 4.0]},
                          "strengths": strengths},
               "params": {"n_points": 4, "lambda_range": [0.25, 10.0]}}
        code, out, err = run_cli(["eigs", "--config", write_config(tmp_path, doc)],
                                 capsys)
        assert (code, out, err) == (3, "", f"numerical failure: {message}\n")

    def test_long_truncation_residuals_stay_in_unit_range(self, tmp_path, capsys):
        # the solution grows past double range near n = 350 here; the
        # residual is |sin phi(x_N)| and cannot overflow with it
        doc = {"system": {"kind": "delta",
                          "positions": {"type": "power", "c": 1, "p": 1.5},
                          "strengths": {"type": "power", "c": 1, "p": 0.5}},
               "params": {"n_points": 360, "lambda_range": [0.5, 0.6]}}
        code, out, err = run_cli(["eigs", "--config", write_config(tmp_path, doc)],
                                 capsys)
        assert (code, err) == (0, "")
        rows = [l.split(",") for l in out.splitlines()[1:] if not l.startswith("#")]
        residuals = [float(r[2]) for r in rows]
        assert len(residuals) > 0 and all(0.0 <= r <= 1.0 for r in residuals)

    def test_default_fd_count_reaches_past_range(self, tmp_path, capsys):
        # attractive couplings put FD eigenvalues below zero and below the
        # range; the default count must still reach the top roots
        doc = {"system": {"kind": "delta",
                          "positions": {"type": "explicit", "points": [
                              0.5, 1.5, 2.25, 2.5, 2.75, 3.25, 3.75, 4.0, 4.75,
                              5.5, 6.5, 7.25, 7.75, 8.0, 8.25]},
                          "strengths": {"type": "explicit", "values": [
                              6.842, -4.048, 0.475, 1.06, -5.647, 2.242, 5.465,
                              -2.179, -7.499, -2.237, -5.44, 7.431, -2.798,
                              -6.025, -6.019]}},
               "params": {"n_points": 15, "lambda_range": [0.09, 16.0],
                          "grid_resolution": 500, "oracle": "fd",
                          "fd_h": 1.0 / 128}}
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["eigs", "--config", cfg], capsys)
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()[1:] if not l.startswith("#")]
        assert len(rows) >= 5
        assert all(float(r[5]) <= 1e-3 for r in rows)

    def test_default_fd_count_lays_out_the_mesh_once(self, tmp_path, capsys,
                                                     monkeypatch):
        import pointspec.spectrum as spectrum
        calls = []
        original = spectrum._fd_runs

        def counting(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(spectrum, "_fd_runs", counting)
        doc = json.loads(json.dumps(FREE_PI))
        doc["system"]["positions"]["points"] = [0.0, 1.0, 3.0]
        doc["system"]["strengths"]["values"] = [5.0, 0.0]
        doc["params"].update({"n_points": 2, "lambda_range": [0.05, 30.0],
                              "oracle": "fd", "fd_h": 1.0 / 1024})
        code, out, _ = run_cli(["eigs", "--config", write_config(tmp_path, doc),
                                "--format", "json"], capsys)
        assert code == 0
        assert len(calls) == 1
        # the echoed count is one past the FD eigenvalues up to 30
        fd = spectrum.fd_oracle_eigenvalues(*calls[0], count=100)
        assert json.loads(out)["params"]["fd_count"] == \
            int(np.sum(fd.values <= 30.0)) + 1

    def test_fallback_lays_out_the_mesh_once(self, tmp_path, monkeypatch):
        # shooting roots past the FD spectrum of a 3-row mesh: no root's
        # nearest FD eigenvalue is certified, and the whole list is bisected
        # on the mesh and counts the certificate took
        import pointspec.spectrum as spectrum
        calls, fallbacks = [], []
        runs, through = spectrum._fd_runs, spectrum._FdOracle.through
        monkeypatch.setattr(spectrum, "_fd_runs",
                            lambda *args: calls.append(args) or runs(*args))
        monkeypatch.setattr(spectrum._FdOracle, "through",
                            lambda oracle, *args: fallbacks.append(args) or through(oracle, *args))
        golden = Path(__file__).parent / "golden"
        out = tmp_path / "out.csv"
        assert main(["eigs", "--config", str(golden / "eigs_fallback.config.json"),
                     "--out", str(out)]) == 0
        assert len(calls) == 1 and len(fallbacks) == 1
        assert out.read_bytes() == (golden / "eigs_fallback.out.csv").read_bytes()

    def test_unresolved_roots_warning_footer(self, tmp_path, capsys):
        # a huge positive strength nearly decouples [0, 1] from [1, 3]: the
        # pair near pi^2 (9.864, 9.870) is closer than tol, shares one
        # bracket and is reported once
        doc = json.loads(json.dumps(FREE_PI))
        doc["system"]["positions"]["points"] = [0.0, 1.0, 3.0]
        doc["system"]["strengths"]["values"] = [5000.0, 0.0]
        doc["params"].update({"n_points": 2, "lambda_range": [0.5, 30.0],
                              "grid_resolution": 10, "tol": 0.05})
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["eigs", "--config", cfg], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len([l for l in lines[1:] if not l.startswith("#")]) == 3
        assert ("# warning: suspected unresolved roots: 1 "
                "(roots closer than tol)") in lines
        code2, _, _ = run_cli(["eigs", "--config", cfg, "--strict"], capsys)
        assert code2 == 3

    def test_attractive_couplings_raise_no_phantom_warning(self, tmp_path,
                                                            capsys):
        # alpha = -6 at every point puts seven eigenvalues below zero; the one
        # in range (FD 9.8691) is found and none is missing
        doc = {"system": {"kind": "delta",
                          "positions": {"type": "explicit",
                                        "points": [float(i) for i in range(9)]},
                          "strengths": {"type": "constant", "c": -6.0}},
               "params": {"n_points": 8, "lambda_range": [0.5, 10.0]}}
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["eigs", "--config", cfg, "--strict"], capsys)
        assert code == 0
        lines = out.splitlines()
        rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
        assert len(rows) == 1
        assert abs(float(rows[0][1]) - 9.8696) < 1e-4
        assert not any(l.startswith("# warning") for l in lines)


class TestPropagateCommand:
    def config(self, tmp_path, **params):
        doc = {"system": {"kind": "delta",
                          "positions": {"type": "explicit",
                                        "points": [0.0, 1.0, 3.0, 6.0]},
                          "strengths": {"type": "explicit",
                                        "values": [5.0, -2.0, 0.0]}},
               "params": {"lambda": 1.0, "n_max": 3, **params}}
        return write_config(tmp_path, doc)

    def test_free_sine_column(self, tmp_path, capsys):
        doc = {"system": {"kind": "delta",
                          "positions": {"type": "explicit",
                                        "points": [0.0, 1.0, 3.0, 6.0]},
                          "strengths": {"type": "constant", "c": 0.0}},
               "params": {"lambda": 1.0, "n_max": 3}}
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["propagate", "--config", cfg], capsys)
        rows = [l.split(",") for l in out.splitlines()[1:] if not l.startswith("#")]
        for r in rows:
            assert abs(float(r[2]) - math.sin(float(r[1]))) < 1e-10

    def test_jump_condition_in_rows(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        code, out, _ = run_cli(["propagate", "--config", cfg], capsys)
        rows = [l.split(",") for l in out.splitlines()[1:] if not l.startswith("#")]
        x1 = float(rows[1][1])
        psi1, dpsi1 = float(rows[1][2]), float(rows[1][3])
        left = fundamental_matrix(1.0, x1) @ [0.0, 1.0]
        assert psi1 == pytest.approx(left[0], abs=1e-10)
        assert dpsi1 - left[1] == pytest.approx(5.0 * left[0], abs=1e-10)

    def test_log_norm_matches_growth_module(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        code, out, _ = run_cli(["propagate", "--config", cfg], capsys)
        rows = [l.split(",") for l in out.splitlines()[1:] if not l.startswith("#")]
        from pointspec import SparseSet, StrengthSequence, SystemSpec, propagate
        sys_ = SystemSpec("delta", SparseSet.explicit([0.0, 1.0, 3.0, 6.0]),
                          StrengthSequence.explicit([5.0, -2.0, 0.0]))
        vecs = propagate(sys_, 1.0, (0.0, 1.0), 3)
        for r, v in zip(rows, vecs):
            assert float(r[4]) == pytest.approx(
                math.log(np.linalg.norm(v)), abs=1e-10)

    def test_log_norm_finite_beyond_squared_overflow(self, tmp_path, capsys):
        mpmath = pytest.importorskip("mpmath")
        doc = {"system": {"kind": "delta",
                          "positions": {"type": "factorial"},
                          "strengths": {"type": "constant", "c": 1e4}},
               "params": {"lambda": 1.0, "n_max": 60}}
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["propagate", "--config", cfg], capsys)
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()[1:] if not l.startswith("#")]
        big = [r for r in rows if math.hypot(float(r[2]), float(r[3])) > 1e154]
        assert len(big) >= 10
        with mpmath.workdps(40):
            for r in big:
                want = mpmath.log(mpmath.hypot(mpmath.mpf(r[2]), mpmath.mpf(r[3])))
                assert float(r[4]) == pytest.approx(float(want), rel=1e-14)

    def test_overflow_footer_and_strict(self, tmp_path, capsys):
        doc = {"system": {"kind": "delta",
                          "positions": {"type": "factorial"},
                          "strengths": {"type": "constant", "c": 1.0}},
               "params": {"lambda": 1.0, "n_max": 180}}
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["propagate", "--config", cfg], capsys)
        assert code == 0
        assert any(l.startswith("#overflow at n=") for l in out.splitlines())
        code2, out2, _ = run_cli(["propagate", "--config", cfg, "--strict"],
                                 capsys)
        assert code2 == 3

    def test_position_overflow_cuts_before_the_vector(self, tmp_path, capsys):
        # x_n = n^100 leaves double range at n = 1210 while the free vector
        # stays finite
        doc = {"system": {"kind": "delta",
                          "positions": {"type": "power", "c": 1.0, "p": 100.0},
                          "strengths": {"type": "constant", "c": 0.0}},
               "params": {"lambda": 1.0, "n_max": 1210, "dense_per_interval": 1}}
        code, out, _ = run_cli(["propagate", "--config", write_config(tmp_path, doc)],
                               capsys)
        assert code == 0
        lines = out.splitlines()
        assert "#overflow at n=1210" in lines
        rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
        assert rows[-1][0] == "1209" and len(rows) == 1210 + 1209

    def test_flags_do_not_carry_over_between_calls(self, tmp_path, capsys):
        # main reuses one parser per process
        doc = {"system": {"kind": "delta",
                          "positions": {"type": "factorial"},
                          "strengths": {"type": "constant", "c": 1.0}},
               "params": {"lambda": 1.0, "n_max": 180}}
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(["propagate", "--config", cfg, "--strict",
                                "--format", "json"], capsys)
        assert code == 3
        assert json.loads(out)["command"] == "propagate"
        code2, out2, _ = run_cli(["propagate", "--config", cfg], capsys)
        assert code2 == 0
        assert out2.startswith("n,x,re_psi,re_dpsi,log_norm_xi\n")

    def test_dense_rows_between_lattice_points(self, tmp_path, capsys):
        cfg = self.config(tmp_path, dense_per_interval=3)
        code, out, _ = run_cli(["propagate", "--config", cfg], capsys)
        rows = [l.split(",") for l in out.splitlines()[1:] if not l.startswith("#")]
        assert len(rows) == 4 + 3 * 3
        xs = [float(r[1]) for r in rows]
        assert xs == sorted(xs)

    @pytest.mark.parametrize("dense", [0, 8])
    def test_one_propagation_per_request(self, tmp_path, capsys, monkeypatch,
                                         dense):
        import pointspec.cli as cli
        import pointspec.transfer as transfer
        calls = []
        original = transfer.propagate

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        for module in (transfer, cli):
            monkeypatch.setattr(module, "propagate", counting, raising=False)
        doc = {"system": {"kind": "delta_prime",
                          "positions": {"type": "power", "c": 1.3, "p": 1.5},
                          "strengths": {"type": "constant", "c": 2.0}},
               "params": {"lambda": 2.0, "n_max": 40,
                          "dense_per_interval": dense}}
        code, out, _ = run_cli(["propagate", "--config",
                                write_config(tmp_path, doc)], capsys)
        assert code == 0
        assert len(calls) == 1
        rows = [l for l in out.splitlines()[1:] if not l.startswith("#")]
        assert len(rows) == 41 + 40 * dense

    def test_dense_rows_are_free_flow_of_their_lattice_row(self, tmp_path,
                                                          capsys):
        cfg = self.config(tmp_path, dense_per_interval=4)
        code, out, _ = run_cli(["propagate", "--config", cfg], capsys)
        rows = [[float(v) for v in l.split(",")]
                for l in out.splitlines()[1:] if not l.startswith("#")]
        anchors = {}
        for n, x, psi, dpsi, log_norm in rows:
            if n not in anchors:
                anchors[n] = (x, np.array([psi, dpsi]))
                continue
            x0, v = anchors[n]
            assert x0 < x
            want = fundamental_matrix(1.0, x - x0) @ v
            assert np.allclose([psi, dpsi], want, rtol=0,
                               atol=1e-13 * np.linalg.norm(want))
            assert log_norm == pytest.approx(math.log(np.linalg.norm(want)),
                                             rel=1e-13, abs=1e-13)

    def test_overflow_footer_rows_match_library_prefix(self, tmp_path, capsys):
        from pointspec import SparseSet, StrengthSequence, SystemSpec, propagate
        doc = {"system": {"kind": "delta",
                          "positions": {"type": "factorial"},
                          "strengths": {"type": "constant", "c": 1.0}},
               "params": {"lambda": 1.0, "n_max": 180, "dense_per_interval": 2}}
        code, out, _ = run_cli(["propagate", "--config",
                                write_config(tmp_path, doc)], capsys)
        lines = out.splitlines()
        assert "#overflow at n=171" in lines
        rows = [[float(v) for v in l.split(",")]
                for l in lines[1:] if not l.startswith("#")]
        assert len(rows) == 171 + 170 * 2
        vecs = propagate(SystemSpec("delta", SparseSet.factorial(),
                                    StrengthSequence.constant(1.0)),
                         1.0, (0.0, 1.0), 170)
        assert [r[2:4] for r in rows[::3]] == vecs.tolist()
        assert [r[1] for r in rows[::3]] == \
            [float(math.factorial(n)) if n else 0.0 for n in range(171)]


def old_csv(columns, rows, footers):
    """The one-pass CSV rendering the block renderer must reproduce."""
    lines = [",".join(columns), *(",".join(map(str, row)) for row in rows), *footers]
    return "\n".join(lines) + "\n"


def old_json(command, run, columns, rows, footers, params):
    """The whole-document JSON rendering the block renderer must reproduce."""
    def safe(v):
        if isinstance(v, float) and not math.isfinite(v):
            return "nan" if v != v else "inf" if v > 0 else "-inf"
        return v

    doc = {"command": command, "system": cli._system_dict(run.system),
           "params": {k: safe(v) for k, v in params.items()}, "columns": columns,
           "rows": [[safe(v) for v in row] for row in rows],
           "footers": [f.lstrip("# ") for f in footers]}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def columnar(columns, rows):
    """``rows`` as the table commands return them: one structured array.

    A column of ints becomes int64, one of floats (or an empty one) float64,
    and any other (ints mixed with floats) keeps its objects, which
    ``_table`` refuses.
    """
    dtypes = {frozenset({int}): np.int64, frozenset({float}): np.float64}
    arrays = []
    for column in zip(*rows) if rows else [()] * len(columns):
        kinds = frozenset(map(type, column)) or frozenset({float})
        arrays.append(np.array(column, dtype=dtypes.get(kinds, object)))
    return cli._table(columns, arrays)


class TestTableRendering:
    RUN = parse_config({"system": FACTORIAL_SQRT["system"]})
    COLUMNS = ["n", "x", "y"]
    FOOTERS = ["#overflow at n=3", "# lambda=1.0"]
    CROSSOVER = cli.KERNEL_MIN_CELLS

    def assert_renders_as_before(self, rows, params=None, columns=None):
        params = {"lambda": 1.0} if params is None else params
        columns = self.COLUMNS if columns is None else columns
        table = columnar(columns, rows)
        assert len(table) == len(rows)
        assert (cli._render_csv(columns, table, self.FOOTERS)
                == old_csv(columns, rows, self.FOOTERS))
        assert (cli._table_json("propagate", self.RUN, columns, table,
                                self.FOOTERS, params)
                == old_json("propagate", self.RUN, columns, rows,
                            self.FOOTERS, params))

    def test_empty_rows(self):
        self.assert_renders_as_before([])
        assert '"rows": [],' in cli._table_json("growth", self.RUN, self.COLUMNS,
                                                columnar(self.COLUMNS, []), [], {})

    def test_nonfinite_cells(self):
        self.assert_renders_as_before(
            [(0, math.nan, math.inf), (1, -math.inf, -0.0), (2, 1e300, 5e-324),
             (3, -math.nan, 1e-05)], params={"lambda": math.inf})

    def test_int_only_columns(self):
        # int64 at both ends of its range
        self.assert_renders_as_before(
            [(i, -2**63 + i, 2**63 - 1 - i * 10**17) for i in range(7)])

    def test_mixed_int_and_float_column(self):
        # every table column is int64 or float64: a column of Python ints
        # and floats is refused, not rendered
        with pytest.raises(TypeError, match="int64 or float64"):
            columnar(self.COLUMNS, [(i, i % 2 or 0.5, -2**63 + i) for i in range(5)])

    @pytest.mark.parametrize("blocks, offset", [(1, -1), (1, 0), (1, 1), (2, 1)])
    def test_rows_around_block_size(self, blocks, offset):
        rows = [(i, i / 7.0, math.nan if i % 1000 == 3 else -i * 1e-9)
                for i in range(blocks * cli.BLOCK_ROWS + offset)]
        self.assert_renders_as_before(rows)

    def test_float_columns_with_disjoint_slots(self):
        # stacked for the kernel, each float column keeps its own slots: all
        # scientific, all fixed, only specials; beside two int64 columns, over
        # a full block and a one-row last block
        specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324]
        rows = [(i - 7, (i + 1) * 1.2345e20, 1.0 + i / 7.0,
                 specials[i % len(specials)], i * 10**15)
                for i in range(cli.BLOCK_ROWS + 1)]
        self.assert_renders_as_before(
            rows, columns=["n", "sci", "fixed", "special", "big"])

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_rows_around_kernel_crossover(self, offset):
        n_rows = -(-self.CROSSOVER // len(self.COLUMNS)) + offset
        rows = [(i - 50, i / 7.0, math.nan if i % 1000 == 3 else -i * 1e-9)
                for i in range(n_rows)]
        self.assert_renders_as_before(rows)

    def test_peak_memory_below_three_outputs(self):
        run = parse_config({"system": FACTORIAL_SQRT["system"],
                            "params": {"lambda0": 4.0, "window": [0, 20000]}})
        columns, rows, footers, params, _ = cli.cmd_growth(run)
        renderers = {
            "csv": lambda: cli._render_csv(columns, rows, footers),
            "json": lambda: cli._table_json("growth", run, columns, rows,
                                            footers, params)}
        for fmt, render in renderers.items():
            tracemalloc.start()
            try:
                text = render()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 3 * len(text), (fmt, peak / len(text))


class TestKernelRendering(TestTableRendering):
    """The same tables through the numpy kernel, whatever their size."""

    @pytest.fixture(autouse=True)
    def kernel_everywhere(self, monkeypatch):
        from pointspec import _shortest  # noqa: F401  loaded: every table takes it
        monkeypatch.setattr(cli, "KERNEL_MIN_CELLS", 0)


class TestRenderWorkers:
    """Kernel tables render on the calling thread, whatever the CPU count,
    with the same bytes."""

    @pytest.mark.parametrize("n_blocks", [3, 8, 9, 25])
    def test_bytes_do_not_depend_on_the_cpu_count(self, monkeypatch, n_blocks):
        from pointspec import _shortest
        run = parse_config({"system": FACTORIAL_SQRT["system"],
                            "params": {"lambda0": 4.0,
                                       "window": [0, n_blocks * cli.BLOCK_ROWS - 1]}})
        columns, rows, footers, params, _ = cli.cmd_growth(run)
        renderers = {
            "csv": lambda: cli._render_csv(columns, rows, footers),
            "json": lambda: cli._table_json("growth", run, columns, rows,
                                            footers, params)}
        callers, started = [], []
        rows_text, start = _shortest.rows_text, threading.Thread.start

        def recording(*args, **kwargs):
            callers.append(threading.current_thread())
            return rows_text(*args, **kwargs)

        def starting(thread):
            started.append(thread)
            return start(thread)

        monkeypatch.setattr(_shortest, "rows_text", recording)
        monkeypatch.setattr(threading.Thread, "start", starting)
        for render in renderers.values():
            render()  # the kernel's constants are filled once per process
        for fmt, render in renderers.items():
            texts = set()
            for cpus in (1, 2, 4, 8):
                monkeypatch.setattr(os, "sched_getaffinity",
                                    lambda pid, c=cpus: set(range(c)))
                callers.clear()
                tracemalloc.start()
                try:
                    text = render()
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                texts.add(text)
                assert len(callers) == n_blocks, (fmt, cpus)
                assert set(callers) == {threading.current_thread()}, (fmt, cpus)
                assert peak < 3 * len(text), (fmt, cpus, peak / len(text))
            assert len(texts) == 1, fmt
        assert started == []


class TestOutputWrite:
    def test_missing_directory_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FREE_PI)
        target = tmp_path / "no" / "such" / "dir" / "x.csv"
        code, out, err = run_cli(["eigs", "--config", cfg, "--out", str(target)],
                                 capsys)
        assert code == 2
        assert f"cannot write output {target}:" in err
        assert out == ""
        assert not target.parent.exists()

    def test_write_failing_midway_leaves_nothing(self, tmp_path, capsys,
                                                 monkeypatch):
        real_open = open

        class HalfWritten:
            """A file that takes half of a write, then reports a full disk."""

            def __init__(self, path, mode, **kwargs):
                self.fh = real_open(path, mode, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        def failing_open(path, mode="r", **kwargs):
            if "w" in mode:
                return HalfWritten(path, mode, **kwargs)
            return real_open(path, mode, **kwargs)

        cfg = write_config(tmp_path, FREE_PI)
        target = tmp_path / "out.csv"
        monkeypatch.setattr(cli, "open", failing_open, raising=False)
        code, out, err = run_cli(["eigs", "--config", cfg, "--out", str(target)],
                                 capsys)
        assert code == 2
        assert "cannot write output" in err and "No space left" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_full_stdout_exits_2(self, tmp_path, capsys, monkeypatch):
        class FullDisk:
            """A stdout that reports a full disk on every write."""

            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

            def flush(self):
                pass

        cfg = write_config(tmp_path, FREE_PI)
        monkeypatch.setattr(sys, "stdout", FullDisk())
        code, _, err = run_cli(["eigs", "--config", cfg], capsys)
        assert code == 2
        assert "cannot write output <stdout>:" in err and "No space left" in err


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(FREE_PI))
        proc = subprocess.run([sys.executable, "-m", "pointspec.cli", "eigs",
                               "--config", str(cfg)],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("index,lambda,residual,bracket_width")


class TestOutOfMemory:
    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 8.00 GiB for an array"),
         "config error: out of memory: Unable to allocate 8.00 GiB for an array\n"),
        (MemoryError(), "config error: out of memory\n")])
    def test_exits_2(self, tmp_path, capsys, monkeypatch, error, message):
        # a grid_resolution or dense_per_interval past the memory limit
        # fails in numpy's allocation; the remedy is a smaller request
        def raise_error(run):
            raise error

        monkeypatch.setattr(cli, "cmd_eigs", raise_error)
        cfg = write_config(tmp_path, FREE_PI)
        assert run_cli(["eigs", "--config", cfg], capsys) == (2, "", message)


README = Path(__file__).parents[1] / "README.md"
# a backquoted key and, if it has one, the text in parentheses after it
README_KEY = re.compile(r"`([a-z][a-z0-9_]*)`(?: \(([^)]*)\))?")


def readme_params_table() -> dict:
    """README's per-command params table: command -> (required, optional)."""
    text = README.read_text(encoding="utf-8").split("Per-command `params`:\n\n")[1]
    lines = text.split("\n\n")[0].splitlines()[2:]  # less the header rows
    cells = [[cell.strip() for cell in line.split("|")[1:-1]] for line in lines]
    return {command: (required, optional) for command, required, optional in cells}


@pytest.mark.parametrize("command", cli.PARAMS)
def test_readme_params_table_matches_the_rows(command):
    rows = cli.PARAMS[command]
    required, optional = readme_params_table()[command]
    named = README_KEY.findall(required) + README_KEY.findall(optional)
    assert sorted(key for key, _ in named) == sorted(rows)
    assert ({key for key, _ in README_KEY.findall(required)}
            == {key for key, (_, default) in rows.items() if default is cli.REQUIRED})
    for key, note in README_KEY.findall(optional):
        default = rows[key][1]
        if default is cli.LIBRARY:  # the note says what its absence means
            continue
        # the note starts with the default as JSON, then may explain it
        stated, _ = json.JSONDecoder().raw_decode(note)
        assert stated == (list(default) if isinstance(default, tuple) else default), key
