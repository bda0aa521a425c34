"""Command-line surface: classify, avalue, growth, eigs, propagate.

Configuration is a single JSON document (see README for the schema).  Each
generator family has one key table (``POSITION_KEYS``, ``STRENGTH_KEYS``) and
classify's thresholds are the fields of ``ClassifyConfig``: each drives the
accepted keys, the parse and the echo.  ``NaN``, ``Infinity`` and array
entries that are not numbers are configuration errors.  Every output echoes
the system and the resolved parameters, so results are reproducible from the
file alone; outputs are deterministic (no timestamps) and written atomically.
The table commands return int64 and float64 columns, and every cell renders
as its value's ``repr`` (JSON quotes ``nan``, ``inf`` and ``-inf``); a table
of ``KERNEL_MIN_CELLS`` cells or more renders through the numpy kernel of
``_shortest``, with the same bytes.

Exit codes: 0 success, 2 configuration error (also an output file or stdout
that cannot be written, and any ``ValueError`` or ``IndexError`` from the
library), 3 numerical failure: under ``--strict`` a propagate overflow
footer or eigs roots closer than ``tol`` reported once, and any other
``OverflowError`` with or without it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import growth as growth_mod
from .lattice import SparseSet, StrengthSequence, SystemSpec, estimate_threshold
from .spectrum import (ClassifyConfig, classify, fd_oracle_eigenvalues,
                       truncated_eigenvalues)
from .transfer import PropagationOverflow, free_flow, propagate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


def _require_keys(d: dict, allowed: set[str], required: set[str], where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {sorted(missing)}")


def _is_number(v) -> bool:
    """An int or a float; JSON true and false load as bools, which are ints."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(d: dict, key: str, where: str, default=None, positive=False):
    if key not in d:
        if default is None:
            raise ConfigError(f"missing {where}.{key}")
        return default
    v = d[key]
    if not _is_number(v):
        raise ConfigError(f"{where}.{key} must be a number")
    if positive and not v > 0:
        raise ConfigError(f"{where}.{key} must be positive")
    return float(v)


def _integer(d: dict, key: str, where: str, default=None, minimum=None):
    if key not in d:
        if default is None:
            raise ConfigError(f"missing {where}.{key}")
        return default
    v = d[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{where}.{key} must be an integer")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}")
    return v


def _int_pair(d: dict, key: str, where: str, default=None):
    if key not in d:
        if default is None:
            raise ConfigError(f"missing {where}.{key}")
        return default
    v = d[key]
    if (not isinstance(v, list) or len(v) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in v)):
        raise ConfigError(f"{where}.{key} must be a pair of integers")
    return (v[0], v[1])


# Each generator's keys in parse and echo order.  A key in OPTIONAL_KEYS takes
# the library's default when absent; every other key is required.
POSITION_KEYS = {"factorial": ("max_index",), "power": ("c", "p", "max_index"),
                 "exponential": ("c", "q", "r", "max_index"),
                 "explicit": ("points",)}
STRENGTH_KEYS = {"power": ("c", "p"), "constant": ("c",), "explicit": ("values",)}
OPTIONAL_KEYS = {"max_index", "r"}


def _parse_generator(block, where: str, keys_by_type: dict, cls, positive: bool):
    """Build ``cls`` from a generator block whose keys ``keys_by_type`` lists.

    ``max_index`` is an integer >= 1, ``points`` and ``values`` nonempty
    arrays of numbers, and every other key a number, positive if ``positive``.
    """
    if not isinstance(block, dict) or "type" not in block:
        raise ConfigError(f"{where} must be an object with a 'type' field")
    kind = block["type"]
    if not isinstance(kind, str) or kind not in keys_by_type:
        raise ConfigError(f"{where}.type must be one of {'|'.join(keys_by_type)}, "
                          f"got {kind!r}")
    keys = keys_by_type[kind]
    _require_keys(block, {"type", *keys}, {"type", *keys} - OPTIONAL_KEYS, where)
    values = {}
    for key in [k for k in keys if k in block]:
        if key == "max_index":
            values[key] = _integer(block, key, where, minimum=1)
        elif key in ("points", "values"):
            array = block[key]
            if not isinstance(array, list) or not array:
                raise ConfigError(f"{where}.{key} must be a nonempty array")
            if not all(map(_is_number, array)):
                raise ConfigError(f"{where}.{key} must hold only numbers")
            values[key] = tuple(array)
        else:
            values[key] = _number(block, key, where, positive=positive)
    return cls(kind=kind, **values)


def _generator_dict(generator, keys_by_type: dict) -> dict:
    out = {"type": generator.kind}
    for key in keys_by_type[generator.kind]:
        value = getattr(generator, key)
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _system_dict(system: SystemSpec) -> dict:
    return {"kind": system.kind,
            "positions": _generator_dict(system.lattice, POSITION_KEYS),
            "strengths": _generator_dict(system.strengths, STRENGTH_KEYS)}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Parsed configuration document."""

    system: SystemSpec
    params: dict
    output_format: str | None
    output_path: str | None


def parse_config(doc: dict) -> RunConfig:
    _require_keys(doc, {"system", "params", "output"}, {"system"}, "config")
    sysblock = doc["system"]
    _require_keys(sysblock, {"kind", "positions", "strengths"},
                  {"kind", "positions", "strengths"}, "system")
    kind = sysblock["kind"]
    if kind not in ("delta", "delta_prime"):
        raise ConfigError("system.kind must be 'delta' or 'delta_prime', "
                          f"got {kind!r}")
    system = SystemSpec(
        kind=kind,
        lattice=_parse_generator(sysblock["positions"], "system.positions",
                                 POSITION_KEYS, SparseSet, positive=True),
        strengths=_parse_generator(sysblock["strengths"], "system.strengths",
                                   STRENGTH_KEYS, StrengthSequence, positive=False))
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    fmt = path = None
    if "output" in doc:
        _require_keys(doc["output"], {"format", "path"}, set(), "output")
        fmt = doc["output"].get("format")
        if fmt is not None and fmt not in ("csv", "json"):
            raise ConfigError("output.format must be 'csv' or 'json'")
        path = doc["output"].get("path")
        if path is not None and not isinstance(path, str):
            raise ConfigError("output.path must be a string")
    return RunConfig(system=system, params=params, output_format=fmt,
                     output_path=path)


def load_config(path: str) -> RunConfig:
    def reject_constant(name):
        raise ConfigError(f"config {path} holds {name}, which is not a number")

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def _json_safe(v):
    """Spell non-finite floats as strings; every command emits Python scalars."""
    if isinstance(v, float):
        return v if math.isfinite(v) else ("inf" if v > 0 else
                                           "-inf" if v < 0 else "nan")
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    return v


def _threshold_dict(est) -> dict:
    return _json_safe({
        "estimate": est.value,
        "diverging": est.diverging,
        "trend": est.trend,
        "window": list(est.window),
        "last_ratio": est.last_ratio,
        "infinity_threshold": est.infinity_threshold,
    })


# ---------------------------------------------------------------------------
# commands


def cmd_classify(run: RunConfig) -> dict:
    p = run.params
    thresholds = dataclasses.fields(ClassifyConfig)
    _require_keys(p, {"window", "lambda0_grid", *(f.name for f in thresholds)},
                  set(), "params")
    config = ClassifyConfig(**{
        f.name: _number(p, f.name, "params", f.default, positive=True)
        for f in thresholds})
    window = _int_pair(p, "window", "params", (100, 10**6))
    grid = p.get("lambda0_grid")
    if grid is not None and (not isinstance(grid, list) or not grid
                             or not all(_is_number(g) and g > 0 for g in grid)):
        raise ConfigError("params.lambda0_grid must be an array of positive numbers")
    result = classify(run.system, window=window, lambda0_grid=grid,
                      config=config)
    return {
        "command": "classify",
        "system": _system_dict(run.system),
        "params": _json_safe({"window": list(window), "lambda0_grid": grid,
                              **dataclasses.asdict(config)}),
        "result": {
            "case": result.case,
            "threshold": _threshold_dict(result.threshold),
            "pp_window": None if result.pp_window is None else str(result.pp_window),
            "sc_contains": None if result.sc_contains is None else str(result.sc_contains),
            "sc_within": None if result.sc_within is None else str(result.sc_within),
            "ac": result.ac,
            "essential": None if result.essential is None else str(result.essential),
            "negative_axis": result.negative_axis,
            "caveats": list(result.caveats),
            "diagnostics": _json_safe(result.diagnostics),
        },
    }


def cmd_avalue(run: RunConfig) -> dict:
    p = run.params
    _require_keys(p, {"window", "infinity_threshold"}, {"window"}, "params")
    window = _int_pair(p, "window", "params")
    threshold = _number(p, "infinity_threshold", "params", 1e6, positive=True)
    est = estimate_threshold(run.system, window[0], window[1],
                             infinity_threshold=threshold)
    return {
        "command": "avalue",
        "system": _system_dict(run.system),
        "params": _json_safe({"window": list(window),
                              "infinity_threshold": threshold}),
        "result": _threshold_dict(est),
    }


def _table(columns: list[str], arrays) -> np.ndarray:
    """The named columns, each int64 or float64, as one structured array, a
    record per table row."""
    arrays = [np.asarray(a) for a in arrays]
    if any(a.dtype not in (np.int64, np.float64) for a in arrays):
        raise TypeError("table columns must be int64 or float64")
    table = np.empty(len(arrays[0]),
                     dtype=[(c, a.dtype) for c, a in zip(columns, arrays)])
    for column, array in zip(columns, arrays):
        table[column] = array
    return table


GROWTH_COLUMNS = ["n", "log_gap", "log_coupling_product", "dalembert_ratio",
                  "series_term"]


def cmd_growth(run: RunConfig) -> tuple[list[str], np.ndarray, list[str], dict, bool]:
    p = run.params
    _require_keys(p, {"lambda0", "window"}, {"lambda0", "window"}, "params")
    lam0 = _number(p, "lambda0", "params", positive=True)
    window = _int_pair(p, "window", "params")
    n_lo, n_hi = window
    if n_lo < 0 or n_hi <= n_lo:
        raise ConfigError("params.window must satisfy 0 <= start < end")
    prof = growth_mod.series_terms(run.system, lam0, n_hi)
    first = max(n_lo, 1)  # the ratio needs n >= 1
    log_ratios = growth_mod.log_dalembert_ratios(run.system, lam0, first, n_hi)
    ratios = np.concatenate([np.full(first - n_lo, math.nan),
                             np.exp(np.minimum(log_ratios, 700.0))])
    rows = _table(GROWTH_COLUMNS, [np.arange(n_lo, n_hi + 1, dtype=np.int64),
                                   prof.log_gaps[n_lo:], prof.log_products[n_lo:],
                                   ratios, prof.terms[n_lo:]])
    footers = [f"# lambda0={lam0!r} window=[{n_lo},{n_hi}] kind={run.system.kind}"]
    params = {"lambda0": lam0, "window": list(window)}
    return GROWTH_COLUMNS, rows, footers, params, False


EIGS_COLUMNS = ["index", "lambda", "residual", "bracket_width"]


def cmd_eigs(run: RunConfig) -> tuple[list[str], np.ndarray, list[str], dict, bool]:
    p = run.params
    _require_keys(p, {"n_points", "lambda_range", "grid_resolution", "tol",
                      "oracle", "fd_h"},
                  {"n_points", "lambda_range"}, "params")
    n_max = _integer(p, "n_points", "params", minimum=1)
    rng = p.get("lambda_range")
    if (not isinstance(rng, list) or len(rng) != 2
            or not all(map(_is_number, rng))
            or not 0 < rng[0] < rng[1]):
        raise ConfigError("params.lambda_range must be [lo, hi] with 0 < lo < hi")
    resolution = _integer(p, "grid_resolution", "params", 2000, minimum=2)
    tol = _number(p, "tol", "params", 1e-10, positive=True)
    oracle = p.get("oracle")
    if oracle not in (None, "fd"):
        raise ConfigError("params.oracle must be null or 'fd'")
    fd_h = _number(p, "fd_h", "params", positive=True) if oracle == "fd" else None
    eigs = truncated_eigenvalues(run.system, n_max, (float(rng[0]), float(rng[1])),
                                 grid_resolution=resolution, tol=tol)
    lam = eigs.values
    columns = list(EIGS_COLUMNS)
    arrays = [np.arange(len(lam), dtype=np.int64), lam, eigs.residuals,
              eigs.bracket_widths]
    params = {"n_points": n_max, "lambda_range": [float(rng[0]), float(rng[1])],
              "grid_resolution": resolution, "tol": tol, "oracle": oracle}
    if oracle == "fd":
        fd = fd_oracle_eigenvalues(run.system, n_max, fd_h, upper=float(rng[1]))
        # each root's nearest FD eigenvalue, the first of equals
        nearest = (np.argmin(np.abs(fd.values - lam[:, None]), axis=1) if len(lam)
                   else np.zeros(0, np.int64))
        fd_lam = fd.values[nearest]
        columns += ["fd_lambda", "rel_deviation"]
        arrays += [fd_lam, np.abs(fd_lam - lam) / np.maximum(np.abs(lam), 1e-300)]
        params["fd_h"] = fd_h
        params["fd_count"] = len(fd)  # how many FD eigenvalues were computed
    rows = _table(columns, arrays)
    footers = []
    if eigs.warning:
        footers.append(f"# warning: suspected unresolved roots: "
                       f"{eigs.suspected_missed} (roots closer than tol)")
    footers.append(f"# n_points={n_max} lambda_range=[{rng[0]!r},{rng[1]!r}] "
                   f"grid_resolution={resolution} tol={tol!r}")
    return columns, rows, footers, params, eigs.warning


PROPAGATE_COLUMNS = ["n", "x", "re_psi", "re_dpsi", "log_norm_xi"]


def cmd_propagate(run: RunConfig) -> tuple[list[str], np.ndarray, list[str], dict, bool]:
    p = run.params
    _require_keys(p, {"lambda", "n_max", "xi0", "dense_per_interval"},
                  {"lambda", "n_max"}, "params")
    lam = _number(p, "lambda", "params", positive=True)
    n_max = _integer(p, "n_max", "params", minimum=1)
    xi0 = p.get("xi0", [0.0, 1.0])
    if (not isinstance(xi0, list) or len(xi0) != 2
            or not all(map(_is_number, xi0))):
        raise ConfigError("params.xi0 must be [psi, dpsi]")
    dense = _integer(p, "dense_per_interval", "params", 0, minimum=0)

    try:
        vecs = propagate(run.system, lam, xi0, n_max)
        overflow_at = None
    except PropagationOverflow as exc:
        vecs, overflow_at = exc.vectors, exc.n
    xs = run.system.lattice.positions(len(vecs) - 1)
    if not np.all(np.isfinite(xs)):
        overflow_at = int(np.argmin(np.isfinite(xs)))
        vecs, xs = vecs[:overflow_at], xs[:overflow_at]
    # each interval's rows: its left lattice point, then the dense points,
    # which are the free flow of the lattice row's vector
    x = np.append(np.linspace(xs[:-1], xs[1:], dense + 2, axis=1)[:, :-1], xs[-1])
    n = np.arange(len(x), dtype=np.int64) // (dense + 1)
    psi, dpsi = free_flow(lam, x - xs[n], vecs[n])
    psi[::dense + 1], dpsi[::dense + 1] = vecs.T
    rows = _table(PROPAGATE_COLUMNS, [n, x, psi, dpsi, np.log(np.hypot(psi, dpsi))])
    footers = []
    if overflow_at is not None:
        footers.append(f"#overflow at n={overflow_at}")
    footers.append(f"# lambda={lam!r} n_max={n_max} xi0={xi0!r} "
                   f"dense_per_interval={dense}")
    params = {"lambda": lam, "n_max": n_max, "xi0": list(xi0),
              "dense_per_interval": dense}
    return PROPAGATE_COLUMNS, rows, footers, params, overflow_at is not None


# ---------------------------------------------------------------------------
# output plumbing


# Rows per rendered block: bounds the transient cell texts, and a block of a
# kernel table is one kernel call over its float64 columns stacked.
BLOCK_ROWS = 4096
# Tables of this many cells or more render their int64 and float64 columns
# with the numpy kernel of ``_shortest``, one block at a time on the calling
# thread.  Per-cell repr costs 0.7-1 us a cell, the kernel ~0.2 us a cell of
# a growth table plus ~30 ms at its first use in a process (import and
# tables): on a 2-vCPU VM the two break even near 30 000 cells (6000 rows of
# 5 columns) in a fresh process, and near 1500 in a warm one.
KERNEL_MIN_CELLS = 30_000
_QUOTED = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}


def _cell_texts(column: np.ndarray, quote: bool):
    """repr of each cell, the CSV and JSON spelling of a Python int or float;
    ``quote`` spells ``nan``, ``inf`` and ``-inf`` as ``_json_safe`` does."""
    texts = map(repr, column.tolist())
    if quote and not np.isfinite(column).all():
        texts = [_QUOTED.get(t, t) for t in texts]
    return texts


def _row_blocks(table: np.ndarray, cell_sep: str, row_sep: str, quote: bool):
    """``table``'s rows as text by blocks of ``BLOCK_ROWS``, ``row_sep`` also
    between; every cell as ``_cell_texts`` spells it."""
    names = table.dtype.names
    kernel = len(table) * len(names) >= KERNEL_MIN_CELLS
    if kernel:
        from . import _shortest
    for start in range(0, len(table), BLOCK_ROWS):
        if start:
            yield row_sep
        block = table[start:start + BLOCK_ROWS]
        columns = [block[name] for name in names]
        if kernel:
            yield _shortest.rows_text(columns, cell_sep, row_sep, quote)
        else:
            texts = (_cell_texts(c, quote) for c in columns)
            yield row_sep.join(map(cell_sep.join, zip(*texts)))


def _render_csv(columns, rows, footers) -> str:
    return "".join([",".join(columns), "\n", *_row_blocks(rows, ",", "\n", False),
                    "\n" if len(rows) else "", *(f + "\n" for f in footers)])


def _render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _write_output(text: str, path: str | None):
    if path is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:  # a full disk or a closed pipe
            raise ConfigError(f"cannot write output <stdout>: {exc}") from exc
        return
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:  # leave no partial temp file behind
        if os.path.exists(tmp):
            os.remove(tmp)
        raise ConfigError(f"cannot write output {path}: {exc}") from exc


def _table_json(command, run, columns, rows, footers, params) -> str:
    text = _render_json({"command": command, "system": _system_dict(run.system),
                         "params": _json_safe(params), "columns": columns, "rows": [],
                         "footers": [f.lstrip("# ") for f in footers]})
    if not len(rows):
        return text
    head, _, tail = text.partition('"rows": []')  # JSON strings escape quotes
    blocks = _row_blocks(rows, ",\n      ", "\n    ],\n    [\n      ", True)
    return "".join([head, '"rows": [\n    [\n      ', *blocks, "\n    ]\n  ]", tail])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointspec",
        description="Spectral analysis of half-line point-interaction systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("classify", "avalue", "growth", "eigs", "propagate"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--format", default=None, choices=("csv", "json"))
        sp.add_argument("--strict", action="store_true",
                        help="exit 3 on overflow or unresolved roots")
    return parser


# one parser per process: parse_args fills a fresh namespace on every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        run = load_config(args.config)
        fmt = args.format or run.output_format
        path = args.out if args.out is not None else run.output_path

        # built per call, so a cmd_* replaced on the module is the one that runs
        documents = {"classify": cmd_classify, "avalue": cmd_avalue}
        tables = {"growth": cmd_growth, "eigs": cmd_eigs, "propagate": cmd_propagate}
        if args.command in documents:
            if fmt == "csv":
                raise ConfigError(f"{args.command} emits JSON only")
            _write_output(_render_json(documents[args.command](run)), path)
            return EXIT_OK

        columns, rows, footers, params, degraded = tables[args.command](run)
        if fmt in (None, "csv"):
            text = _render_csv(columns, rows, footers)
        else:
            text = _table_json(args.command, run, columns, rows, footers, params)
        _write_output(text, path)
        return EXIT_NUMERICAL if degraded and args.strict else EXIT_OK
    except (ConfigError, ValueError, IndexError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
