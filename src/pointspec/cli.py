"""Command-line surface: classify, avalue, growth, eigs, propagate.

Configuration is a single JSON document (see README for the schema).  Each
command's ``params`` has one table of rows, ``PARAMS[command]``, and each
generator family one in ``POSITION_ROWS`` or ``STRENGTH_ROWS``: each row's
check and default drive the accepted keys, the parse and the echo.  ``NaN``,
``Infinity`` and array entries that are not numbers are configuration errors.
Every number, scalar or array entry, must be a finite double: ``1e400``, or an
integer literal past the largest double, is a configuration error before
anything is computed.
Every output echoes the system and the resolved parameters, so results are
reproducible from the file alone; outputs are deterministic (no timestamps).
A table is written piece by piece as it renders: an ``--out`` file appears
whole or not at all, while stdout keeps the pieces written before a failure.
The table commands return int64 and float64 columns, and every cell renders
as its value's ``repr`` (JSON quotes ``nan``, ``inf`` and ``-inf``).  A
table of ``KERNEL_MIN_CELLS`` cells or more renders through the numpy kernel
of ``_shortest``, with the same bytes, once the kernel is loaded in the
process; the kernel's first table in a process must also repay its import,
so it takes only tables of ``KERNEL_COLD_MIN_CELLS`` cells or more.
A propagate table ends before its first row whose x, psi or psi' is not
finite, under the footer ``#overflow at n=N``, N one past the last row's n;
``log_norm_xi`` is finite wherever psi and psi' are.

Exit codes: 0 success, 2 configuration error (also an output file or stdout
that cannot be written, a request too large for memory, and any
``ValueError`` or ``IndexError`` from the library), 3 numerical failure:
under ``--strict`` a propagate overflow footer or eigs roots closer than
``tol`` reported once, and any other ``OverflowError`` with or without it,
such as an alpha_n that the command reads past double range.
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
from .lattice import (KINDS, MAX_INDEX, SparseSet, StrengthSequence, SystemSpec,
                      _exp, _run_blocks, _usable_cpus, estimate_threshold)
from .spectrum import (ClassifyConfig, classify, fd_oracle_nearest,
                       truncated_eigenvalues)
from .transfer import DIRICHLET_START, _log_norm, sample_solution

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


def _check_finite(v, where: str, entry: bool = False):
    """Raise a ConfigError naming the key of the first number in ``v`` that
    is no finite double: JSON reads ``1e400`` as inf, and an integer literal
    can pass the largest double.  ``where`` is ``v``'s key path."""
    if isinstance(v, dict):
        for key, x in v.items():
            _check_finite(x, f"{where}.{key}" if where else key)
    elif isinstance(v, list):
        try:  # fsum is exact: it is finite only if every entry is a finite number
            if math.isfinite(math.fsum(v)):
                return
        except (TypeError, ValueError, OverflowError):  # a non-number, inf - inf, overflow
            pass
        for x in v:
            _check_finite(x, where, True)
    elif _is_number(v):
        try:
            finite = math.isfinite(v)
        except OverflowError:  # an int beyond double range
            finite = False
        if not finite:
            raise ConfigError(f"{where} must hold only finite doubles" if entry
                              else f"{where} must be a finite double")


def _check(*rules, convert=lambda v: v):
    """A row's check: ``convert(v)`` once ``v`` passes each ``(test, rule)``
    in turn, else a ValueError whose text is the first rule it breaks."""
    def check(v):
        for test, rule in rules:
            if not test(v):
                raise ValueError(rule)
        return convert(v)
    return check


def _integer(lo, hi=math.inf):
    return _check((lambda v: _is_number(v) and isinstance(v, int), "must be an integer"),
                  (lambda v: v >= lo, f"must be >= {lo}"),
                  (lambda v: v <= hi, f"must be <= {hi}"))


def _numbers(v, length=None, kind=(int, float)) -> bool:
    """A nonempty list of numbers of ``kind``, ``length`` of them if given."""
    return (isinstance(v, list) and v != [] and len(v) == (length or len(v))
            and all(_is_number(x) and isinstance(x, kind) for x in v))


_ANY = _check((_is_number, "must be a number"), convert=float)
_POSITIVE = _check((_is_number, "must be a number"),
                   (lambda v: v > 0, "must be positive"), convert=float)
_ARRAY = _check((lambda v: isinstance(v, list) and v != [], "must be a nonempty array"),
                (lambda v: all(map(_is_number, v)), "must hold only numbers"),
                convert=tuple)
_WINDOW = _check((lambda v: _numbers(v, 2, int), "must be a pair of integers"),
                 convert=tuple)

# Defaults that are no value: a REQUIRED key must be given, and a LIBRARY key
# left out stays out of the parse, so the library's default holds.
REQUIRED, LIBRARY = object(), object()

# Each generator family's rows, after ``type``, in parse and echo order.
_MAX_INDEX = (_integer(1, MAX_INDEX), LIBRARY)
POSITION_ROWS = {
    "factorial": {"max_index": _MAX_INDEX},
    "power": {"c": (_POSITIVE, REQUIRED), "p": (_POSITIVE, REQUIRED),
              "max_index": _MAX_INDEX},
    "exponential": {"c": (_POSITIVE, REQUIRED), "q": (_POSITIVE, REQUIRED),
                    "r": (_POSITIVE, LIBRARY), "max_index": _MAX_INDEX},
    "explicit": {"points": (_ARRAY, REQUIRED)}}
STRENGTH_ROWS = {
    "power": {"c": (_ANY, REQUIRED), "p": (_ANY, REQUIRED)},
    "constant": {"c": (_ANY, REQUIRED)},
    "explicit": {"values": (_ARRAY, REQUIRED)}}

# Each command's params rows, in parse and echo order.  The rules that span
# keys (growth's window order, eigs' fd_h and oracle) are the commands' own.
PARAMS = {
    "classify": {
        "window": (_WINDOW, (100, 10**6)),
        "lambda0_grid": (_check((lambda v: v is None or _numbers(v) and min(v) > 0,
                                 "must be an array of positive numbers")), None),
        **{f.name: (_POSITIVE, f.default) for f in dataclasses.fields(ClassifyConfig)}},
    "avalue": {"window": (_WINDOW, REQUIRED), "infinity_threshold": (_POSITIVE, 1e6)},
    "growth": {"lambda0": (_POSITIVE, REQUIRED), "window": (_WINDOW, REQUIRED)},
    "eigs": {
        "n_points": (_integer(1), REQUIRED),
        "lambda_range": (_check((lambda v: _numbers(v, 2) and 0 < v[0] < v[1],
                                 "must be [lo, hi] with 0 < lo < hi"),
                                convert=lambda v: tuple(map(float, v))), REQUIRED),
        "grid_resolution": (_integer(2), 2000),
        "tol": (_POSITIVE, 1e-10),
        "oracle": (_check((lambda v: v in (None, "fd"), "must be null or 'fd'")), None),
        "fd_h": (_POSITIVE, LIBRARY)},  # needed with the oracle
    "propagate": {
        "lambda": (_POSITIVE, REQUIRED),
        "n_max": (_integer(1), REQUIRED),
        "xi0": (_check((lambda v: _numbers(v, 2), "must be [psi, dpsi]")),
                list(DIRICHLET_START)),
        "dense_per_interval": (_integer(0), 0)}}


def _parse_keys(block, rows: dict, where: str) -> dict:
    """``block``'s keys through their rows' checks, defaults filled in, in row order."""
    required = {key for key, (_, default) in rows.items() if default is REQUIRED}
    _require_keys(block, set(rows), required, where)
    parsed = {}
    for key, (check, default) in rows.items():
        if key in block:
            try:
                parsed[key] = check(block[key])
            except ValueError as exc:
                raise ConfigError(f"{where}.{key} {exc}") from None
        elif default is not LIBRARY:
            parsed[key] = default
    return parsed


def _parse_generator(block, where: str, rows_by_type: dict, cls):
    """Build ``cls`` from a generator block, whose ``type`` picks its rows."""
    if not isinstance(block, dict) or "type" not in block:
        raise ConfigError(f"{where} must be an object with a 'type' field")
    kind = block["type"]
    if not isinstance(kind, str) or kind not in rows_by_type:
        raise ConfigError(f"{where}.type must be one of {'|'.join(rows_by_type)}, "
                          f"got {kind!r}")
    keys = {key: v for key, v in block.items() if key != "type"}
    return cls(kind=kind, **_parse_keys(keys, rows_by_type[kind], where))


def _generator_dict(generator, rows_by_type: dict) -> dict:
    out = {"type": generator.kind}
    for key in rows_by_type[generator.kind]:
        value = getattr(generator, key)
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _system_dict(system: SystemSpec) -> dict:
    return {"kind": system.kind,
            "positions": _generator_dict(system.lattice, POSITION_ROWS),
            "strengths": _generator_dict(system.strengths, STRENGTH_ROWS)}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Parsed configuration document."""

    system: SystemSpec
    params: dict


def parse_config(doc: dict) -> RunConfig:
    _require_keys(doc, {"system", "params"}, {"system"}, "config")
    _check_finite(doc, "")
    sysblock = doc["system"]
    _require_keys(sysblock, {"kind", "positions", "strengths"},
                  {"kind", "positions", "strengths"}, "system")
    kind = sysblock["kind"]
    if kind not in KINDS:
        raise ConfigError(f"system.kind must be {' or '.join(map(repr, KINDS))}, "
                          f"got {kind!r}")
    system = SystemSpec(
        kind=kind,
        lattice=_parse_generator(sysblock["positions"], "system.positions",
                                 POSITION_ROWS, SparseSet),
        strengths=_parse_generator(sysblock["strengths"], "system.strengths",
                                   STRENGTH_ROWS, StrengthSequence))
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    return RunConfig(system, params)


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
    except RecursionError:  # json's decoder recurses once per nested array
        raise ConfigError(f"config {path} is nested too deeply") from None
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
    params = _parse_keys(run.params, PARAMS["classify"], "params")
    config = ClassifyConfig(**{key: v for key, v in params.items()
                               if key not in ("window", "lambda0_grid")})
    result = classify(run.system, window=params["window"],
                      lambda0_grid=params["lambda0_grid"], config=config)
    return {
        "command": "classify",
        "system": _system_dict(run.system),
        "params": _json_safe(params),
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
    params = _parse_keys(run.params, PARAMS["avalue"], "params")
    (n_lo, n_hi), threshold = params.values()
    est = estimate_threshold(run.system, n_lo, n_hi, infinity_threshold=threshold)
    return {
        "command": "avalue",
        "system": _system_dict(run.system),
        "params": _json_safe(params),
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
    params = _parse_keys(run.params, PARAMS["growth"], "params")
    lam0, (n_lo, n_hi) = params.values()
    if n_lo < 0 or n_hi <= n_lo:
        raise ConfigError("params.window must satisfy 0 <= start < end")
    prof = growth_mod.series_terms(run.system, lam0, n_hi)
    first = max(n_lo, 1)  # the ratio needs n >= 1
    log_ratios = growth_mod.log_dalembert_ratios(run.system, lam0, first, n_hi)
    ratios = np.concatenate([np.full(first - n_lo, math.nan), _exp(log_ratios)])
    rows = _table(GROWTH_COLUMNS, [np.arange(n_lo, n_hi + 1, dtype=np.int64),
                                   prof.log_gaps[n_lo:], prof.log_products[n_lo:],
                                   ratios, prof.terms[n_lo:]])
    footers = [f"# lambda0={lam0!r} window=[{n_lo},{n_hi}] kind={run.system.kind}"]
    return GROWTH_COLUMNS, rows, footers, params, False


EIGS_COLUMNS = ["index", "lambda", "residual", "bracket_width"]


def cmd_eigs(run: RunConfig) -> tuple[list[str], np.ndarray, list[str], dict, bool]:
    p = run.params
    # an fd_h without the oracle is reported after the other keys, before its own check
    orphan = p.get("oracle") is None and "fd_h" in p
    params = _parse_keys({key: v for key, v in p.items() if key != "fd_h" or not orphan},
                         PARAMS["eigs"], "params")
    if orphan:
        raise ConfigError("params.fd_h needs params.oracle 'fd'")
    if params["oracle"] == "fd" and "fd_h" not in params:
        raise ConfigError("missing params.fd_h")
    n_max, rng, resolution, tol, *_ = params.values()
    eigs = truncated_eigenvalues(run.system, n_max, rng,
                                 grid_resolution=resolution, tol=tol)
    lam = eigs.values
    columns = list(EIGS_COLUMNS)
    arrays = [np.arange(len(lam), dtype=np.int64), lam, eigs.residuals,
              eigs.bracket_widths]
    if "fd_h" in params:
        # each root's nearest FD eigenvalue, the first of equals
        fd_lam, fd_count = fd_oracle_nearest(run.system, n_max, params["fd_h"],
                                             lam, rng[1])
        columns += ["fd_lambda", "rel_deviation"]
        arrays += [fd_lam, np.abs(fd_lam - lam) / lam]
        # the FD eigenvalues at or below lambda_range[1], plus one
        params["fd_count"] = fd_count
    rows = _table(columns, arrays)
    footers = []
    if eigs.warning:
        footers.append(f"# warning: suspected unresolved roots: "
                       f"{eigs.suspected_missed} (roots closer than tol)")
    lo, hi = p["lambda_range"]  # as given, where the echo holds floats
    footers.append(f"# n_points={n_max} lambda_range=[{lo!r},{hi!r}] "
                   f"grid_resolution={resolution} tol={tol!r}")
    return columns, rows, footers, params, eigs.warning


PROPAGATE_COLUMNS = ["n", "x", "re_psi", "re_dpsi", "log_norm_xi"]


def cmd_propagate(run: RunConfig) -> tuple[list[str], np.ndarray, list[str], dict, bool]:
    params = _parse_keys(run.params, PARAMS["propagate"], "params")
    lam, n_max, xi0, dense = params.values()
    s = sample_solution(run.system, lam, xi0, n_max, dense)
    rows = _table(PROPAGATE_COLUMNS, [s.n, s.x, s.psi, s.dpsi, _log_norm(s.psi, s.dpsi)])
    overflow = len(s.x) < n_max * (dense + 1) + 1  # the solution left double range
    footers = [f"#overflow at n={s.n[-1] + 1}"] if overflow else []
    footers.append(f"# lambda={lam!r} n_max={n_max} xi0={xi0!r} "
                   f"dense_per_interval={dense}")
    return PROPAGATE_COLUMNS, rows, footers, params, overflow


# ---------------------------------------------------------------------------
# output plumbing


# The least rows of a kernel table's round.
BLOCK_ROWS = 4096
# Tables of KERNEL_MIN_CELLS cells or more render their int64 and float64
# columns with the numpy kernel of ``_shortest`` once the kernel is loaded in
# the process; a table that would be the kernel's first use takes it only
# from KERNEL_COLD_MIN_CELLS cells, where it also repays the kernel's import
# and first call.  On a 2-vCPU VM, warm: per-cell repr costs 0.5-0.9 us a
# cell, the kernel ~0.45-0.9 ms a call plus ~0.2-0.3 us a cell on propagate
# tables (~0.1 us on growth blocks), and on the table workload's propagate
# tables it wins on half of them from ~1400 cells.
# Cold: repr ~1 us a cell; the kernel its import (~5 ms, compiled from
# source), ~5-10 us for each constants column a table reads (~20 for a
# power chain, 200-800 for a factorial chain) and its first call's set-up,
# and the two break even near 12 000 cells for power chains and 20 000 for
# factorial ones.
KERNEL_MIN_CELLS = 1_400
KERNEL_COLD_MIN_CELLS = 15_000
# A kernel table renders by rounds of equal length, at most KERNEL_ROUND_ROWS
# rows whatever the CPU count, and at least three rounds where blocks of
# BLOCK_ROWS allow: a round's kernel arrays take ~430 bytes a growth row,
# against ~80 of CSV text, so the memory in flight stays below twice the
# output.  A round is cut into up to one block per usable CPU, none shorter
# than KERNEL_BLOCK_ROWS rows, each one kernel call on a ``_run_blocks``
# worker; numpy releases the GIL in its loops.  On a 2-vCPU VM two workers
# render two equal blocks in 1.28x the time of one worker at 4096 rows a
# block (the kernel's calls are too short to share the GIL), 1.05x at 6144,
# 0.78x at 8192 and 0.64-0.70x from 12 288, while one worker renders a row
# in the same time in blocks of 4096 to 16 384 rows, and ~10% slower in
# blocks of 32 768.
KERNEL_ROUND_ROWS = 32_768
KERNEL_BLOCK_ROWS = 8_192
_QUOTED = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}


def _cell_texts(column: np.ndarray, quote: bool):
    """repr of each cell, the CSV and JSON spelling of a Python int or float;
    ``quote`` spells ``nan``, ``inf`` and ``-inf`` as ``_json_safe`` does."""
    texts = map(repr, column.tolist())
    if quote and not np.isfinite(column).all():
        texts = [_QUOTED.get(t, t) for t in texts]
    return texts


def _row_blocks(table: np.ndarray, cell_sep: str, row_sep: str, quote: bool):
    """``table``'s rows as text, a block at a time, ``row_sep`` also
    between; every cell as ``_cell_texts`` spells it.  A table below the
    kernel's size, whose cells bound its text, renders cell by cell as one
    piece, a kernel table in rounds of blocks on ``_run_blocks`` workers
    (see ``KERNEL_ROUND_ROWS``); the text does not depend on the blocks."""
    names = table.dtype.names
    n = len(table)
    loaded = f"{__package__}._shortest" in sys.modules
    if n * len(names) < (KERNEL_MIN_CELLS if loaded else KERNEL_COLD_MIN_CELLS):
        texts = (_cell_texts(table[name], quote) for name in names)
        yield row_sep.join(map(cell_sep.join, zip(*texts)))
        return

    from . import _shortest
    cpus = _usable_cpus()
    n_rounds = max(-(-n // KERNEL_ROUND_ROWS), min(3, n // BLOCK_ROWS), 1)
    for r in range(n_rounds):
        lo, hi = n * r // n_rounds, n * (r + 1) // n_rounds
        k = min(cpus, max(1, (hi - lo) // KERNEL_BLOCK_ROWS))
        cuts = [lo + (hi - lo) * i // k for i in range(k + 1)]

        def block(i: int, _ws):
            rows = table[cuts[i]:cuts[i + 1]]
            return _shortest.rows_text([rows[name] for name in names],
                                       cell_sep, row_sep, quote)

        for i, text in enumerate(_run_blocks(block, k, 0)):
            if r or i:
                yield row_sep
            yield text


def _render_csv(columns, rows, footers):
    """The CSV table, by pieces: its header, its row blocks and its end."""
    yield ",".join(columns) + "\n"
    yield from _row_blocks(rows, ",", "\n", False)
    yield "".join(["\n" if len(rows) else "", *(f + "\n" for f in footers)])


def _render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _table_json(command, run, columns, rows, footers, params):
    """The JSON table document, by pieces: the text before its rows, their
    blocks and the text after."""
    text = _render_json({"command": command, "system": _system_dict(run.system),
                         "params": _json_safe(params), "columns": columns, "rows": [],
                         "footers": [f.lstrip("# ") for f in footers]})
    if not len(rows):
        yield text
        return
    head, _, tail = text.partition('"rows": []')  # JSON strings escape quotes
    yield head + '"rows": [\n    [\n      '
    yield from _row_blocks(rows, ",\n      ", "\n    ],\n    [\n      ", True)
    yield "\n    ]\n  ]" + tail


def _write_output(text: str, out):
    """Write one piece of the output to the open text stream ``out``; every
    byte of every output goes through here, where ``bench/tracing.py`` times
    and counts it."""
    out.write(text)


def _emit(pieces, path: str | None):
    """Write each text of ``pieces`` as it comes, to stdout or, when a
    ``path`` is given, to a temporary file beside it that replaces ``path``
    once every piece is written.  A failure, in writing or in making a
    piece, removes the temporary file, so ``path`` is whole or untouched;
    stdout keeps the pieces written before it.  A write that fails raises a
    ConfigError."""
    tmp = None if path is None else f"{path}.tmp.{os.getpid()}"
    try:
        if tmp is None:
            for text in pieces:
                _write_output(text, sys.stdout)
            sys.stdout.flush()
        else:
            with open(tmp, "w", encoding="utf-8") as fh:
                for text in pieces:
                    _write_output(text, fh)
            os.replace(tmp, path)
    except OSError as exc:  # a full disk, a closed pipe or a missing directory
        name = "<stdout>" if path is None else path
        raise ConfigError(f"cannot write output {name}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.remove(tmp)


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
        # built per call, so a cmd_* replaced on the module is the one that runs
        documents = {"classify": cmd_classify, "avalue": cmd_avalue}
        tables = {"growth": cmd_growth, "eigs": cmd_eigs, "propagate": cmd_propagate}
        if args.command in documents:
            if args.format == "csv":
                raise ConfigError(f"{args.command} emits JSON only")
            _emit([_render_json(documents[args.command](run))], args.out)
            return EXIT_OK

        columns, rows, footers, params, degraded = tables[args.command](run)
        if args.format in (None, "csv"):
            pieces = _render_csv(columns, rows, footers)
        else:
            pieces = _table_json(args.command, run, columns, rows, footers, params)
        _emit(pieces, args.out)
        return EXIT_NUMERICAL if degraded and args.strict else EXIT_OK
    except (ConfigError, ValueError, IndexError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # the remedy is a smaller request
        print(f"config error: out of memory: {exc}".rstrip(": "), file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
