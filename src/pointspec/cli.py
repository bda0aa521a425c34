"""Command-line surface: classify, avalue, growth, eigs, propagate.

Configuration is a single JSON document (see README for the schema).  Every
output echoes the system, the resolved parameters, and any heuristic knobs,
so results are reproducible from the file alone.  Outputs are deterministic
(no timestamps) and written atomically.

Exit codes: 0 success, 2 configuration error, 3 numerical failure under
``--strict`` (overflow, or eigs roots closer than ``tol`` reported once).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

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


def _number(d: dict, key: str, where: str, default=None, positive=False):
    if key not in d:
        if default is None:
            raise ConfigError(f"missing {where}.{key}")
        return default
    v = d[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
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


def _parse_positions(block: dict) -> SparseSet:
    where = "system.positions"
    if not isinstance(block, dict) or "type" not in block:
        raise ConfigError(f"{where} must be an object with a 'type' field")
    kind = block["type"]
    if kind == "factorial":
        _require_keys(block, {"type", "max_index"}, {"type"}, where)
        return SparseSet.factorial(
            max_index=_integer(block, "max_index", where, 10**7, minimum=1))
    if kind == "power":
        _require_keys(block, {"type", "c", "p", "max_index"}, {"type", "c", "p"}, where)
        return SparseSet.power(_number(block, "c", where, positive=True),
                               _number(block, "p", where, positive=True),
                               max_index=_integer(block, "max_index", where,
                                                  10**7, minimum=1))
    if kind == "exponential":
        _require_keys(block, {"type", "c", "q", "r", "max_index"},
                      {"type", "c", "q"}, where)
        return SparseSet.exponential(_number(block, "c", where, positive=True),
                                     _number(block, "q", where, positive=True),
                                     _number(block, "r", where, 1.0, positive=True),
                                     max_index=_integer(block, "max_index",
                                                        where, 10**7, minimum=1))
    if kind == "explicit":
        _require_keys(block, {"type", "points"}, {"type", "points"}, where)
        pts = block["points"]
        if not isinstance(pts, list) or not pts:
            raise ConfigError(f"{where}.points must be a nonempty array")
        return SparseSet.explicit(pts)
    raise ConfigError(f"{where}.type must be one of "
                      "factorial|power|exponential|explicit, got "
                      f"{kind!r}")


def _parse_strengths(block: dict) -> StrengthSequence:
    where = "system.strengths"
    if not isinstance(block, dict) or "type" not in block:
        raise ConfigError(f"{where} must be an object with a 'type' field")
    kind = block["type"]
    if kind == "power":
        _require_keys(block, {"type", "c", "p"}, {"type", "c", "p"}, where)
        return StrengthSequence.power(_number(block, "c", where),
                                      _number(block, "p", where))
    if kind == "constant":
        _require_keys(block, {"type", "c"}, {"type", "c"}, where)
        return StrengthSequence.constant(_number(block, "c", where))
    if kind == "explicit":
        _require_keys(block, {"type", "values"}, {"type", "values"}, where)
        vals = block["values"]
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"{where}.values must be a nonempty array")
        return StrengthSequence.explicit(vals)
    raise ConfigError(f"{where}.type must be one of power|constant|explicit, "
                      f"got {kind!r}")


def _system_dict(system: SystemSpec) -> dict:
    lat = system.lattice
    if lat.kind == "factorial":
        positions = {"type": "factorial", "max_index": lat.max_index}
    elif lat.kind == "power":
        positions = {"type": "power", "c": lat.c, "p": lat.p,
                     "max_index": lat.max_index}
    elif lat.kind == "exponential":
        positions = {"type": "exponential", "c": lat.c, "q": lat.q,
                     "r": lat.r, "max_index": lat.max_index}
    else:
        positions = {"type": "explicit", "points": list(lat.points)}
    st = system.strengths
    if st.kind == "power":
        strengths = {"type": "power", "c": st.c, "p": st.p}
    elif st.kind == "constant":
        strengths = {"type": "constant", "c": st.c}
    else:
        strengths = {"type": "explicit", "values": list(st.values)}
    return {"kind": system.kind, "positions": positions,
            "strengths": strengths}


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration document."""

    system: SystemSpec
    params: dict
    output_format: str | None
    output_path: str | None

    def to_dict(self) -> dict:
        out = {"system": _system_dict(self.system), "params": self.params}
        output = {}
        if self.output_format is not None:
            output["format"] = self.output_format
        if self.output_path is not None:
            output["path"] = self.output_path
        if output:
            out["output"] = output
        return out


def parse_config(doc: dict) -> RunConfig:
    _require_keys(doc, {"system", "params", "output"}, {"system"}, "config")
    sysblock = doc["system"]
    _require_keys(sysblock, {"kind", "positions", "strengths"},
                  {"kind", "positions", "strengths"}, "system")
    kind = sysblock["kind"]
    if kind not in ("delta", "delta_prime"):
        raise ConfigError("system.kind must be 'delta' or 'delta_prime', "
                          f"got {kind!r}")
    system = SystemSpec(kind=kind,
                        lattice=_parse_positions(sysblock["positions"]),
                        strengths=_parse_strengths(sysblock["strengths"]))
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
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def _json_safe(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, float):
        return v if math.isfinite(v) else ("inf" if v > 0 else
                                           "-inf" if v < 0 else "nan")
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, (np.floating,)):
        return _json_safe(float(v))
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    if isinstance(v, np.ndarray):
        return [_json_safe(x) for x in v.tolist()]
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


def _fmt_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


# ---------------------------------------------------------------------------
# commands


def cmd_classify(run: RunConfig) -> dict:
    p = run.params
    _require_keys(p, {"window", "lambda0_grid", "divergence_threshold",
                      "zero_threshold", "sparseness_threshold",
                      "strength_threshold", "margin"}, set(), "params")
    defaults = ClassifyConfig()
    config = ClassifyConfig(
        divergence_threshold=_number(p, "divergence_threshold", "params",
                                     defaults.divergence_threshold, positive=True),
        zero_threshold=_number(p, "zero_threshold", "params",
                               defaults.zero_threshold, positive=True),
        sparseness_threshold=_number(p, "sparseness_threshold", "params",
                                     defaults.sparseness_threshold, positive=True),
        strength_threshold=_number(p, "strength_threshold", "params",
                                   defaults.strength_threshold, positive=True),
        margin=_number(p, "margin", "params", defaults.margin, positive=True))
    window = _int_pair(p, "window", "params", (100, 10**6))
    grid = p.get("lambda0_grid")
    if grid is not None:
        if (not isinstance(grid, list) or not grid
                or not all(isinstance(g, (int, float)) and g > 0 for g in grid)):
            raise ConfigError("params.lambda0_grid must be an array of "
                              "positive numbers")
    result = classify(run.system, window=window, lambda0_grid=grid,
                      config=config)
    return {
        "command": "classify",
        "system": _system_dict(run.system),
        "params": _json_safe({
            "window": list(window),
            "lambda0_grid": grid,
            "divergence_threshold": config.divergence_threshold,
            "zero_threshold": config.zero_threshold,
            "sparseness_threshold": config.sparseness_threshold,
            "strength_threshold": config.strength_threshold,
            "margin": config.margin,
        }),
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


GROWTH_COLUMNS = ["n", "log_gap", "log_coupling_product", "dalembert_ratio",
                  "series_term"]


def cmd_growth(run: RunConfig) -> tuple[list[str], list[list], list[str], dict]:
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
    ratios = ([math.nan] * (first - n_lo)
              + np.exp(np.minimum(log_ratios, 700.0)).tolist())
    rows = list(zip(range(n_lo, n_hi + 1), prof.log_gaps[n_lo:].tolist(),
                    prof.log_products[n_lo:].tolist(), ratios,
                    prof.terms[n_lo:].tolist()))
    footers = [f"# lambda0={lam0!r} window=[{n_lo},{n_hi}] kind={run.system.kind}"]
    params = {"lambda0": lam0, "window": list(window)}
    return GROWTH_COLUMNS, rows, footers, params


EIGS_COLUMNS = ["index", "lambda", "residual", "bracket_width"]


def cmd_eigs(run: RunConfig) -> tuple[list[str], list[list], list[str], dict, bool]:
    p = run.params
    _require_keys(p, {"n_points", "lambda_range", "grid_resolution", "tol",
                      "oracle", "fd_h", "fd_count"},
                  {"n_points", "lambda_range"}, "params")
    n_max = _integer(p, "n_points", "params", minimum=1)
    rng = p.get("lambda_range")
    if (not isinstance(rng, list) or len(rng) != 2
            or not all(isinstance(x, (int, float)) for x in rng)
            or not 0 < rng[0] < rng[1]):
        raise ConfigError("params.lambda_range must be [lo, hi] with 0 < lo < hi")
    resolution = _integer(p, "grid_resolution", "params", 2000, minimum=2)
    tol = _number(p, "tol", "params", 1e-10, positive=True)
    oracle = p.get("oracle")
    if oracle not in (None, "fd"):
        raise ConfigError("params.oracle must be null or 'fd'")
    eigs = truncated_eigenvalues(run.system, n_max, (float(rng[0]), float(rng[1])),
                                 grid_resolution=resolution, tol=tol)
    columns = list(EIGS_COLUMNS)
    rows = [[i, float(v), float(r), float(w)] for i, (v, r, w) in
            enumerate(zip(eigs.values, eigs.residuals, eigs.bracket_widths))]
    params = {"n_points": n_max, "lambda_range": [float(rng[0]), float(rng[1])],
              "grid_resolution": resolution, "tol": tol, "oracle": oracle}
    if oracle == "fd":
        fd_h = _number(p, "fd_h", "params", positive=True)
        fd_count = (_integer(p, "fd_count", "params", minimum=1)
                    if "fd_count" in p else None)
        fd = fd_oracle_eigenvalues(run.system, n_max, fd_h, fd_count,
                                   upper=float(rng[1]))
        columns += ["fd_lambda", "rel_deviation"]
        for row in rows:
            lam = row[1]
            j = int(np.argmin(np.abs(fd.values - lam)))
            row.append(float(fd.values[j]))
            row.append(abs(fd.values[j] - lam) / max(abs(lam), 1e-300))
        params["fd_h"] = fd_h
        params["fd_count"] = len(fd) if fd_count is None else fd_count
    footers = []
    if eigs.warning:
        footers.append(f"# warning: suspected unresolved roots: "
                       f"{eigs.suspected_missed} (roots closer than tol)")
    footers.append(f"# n_points={n_max} lambda_range=[{rng[0]!r},{rng[1]!r}] "
                   f"grid_resolution={resolution} tol={tol!r}")
    return columns, rows, footers, params, eigs.warning


PROPAGATE_COLUMNS = ["n", "x", "re_psi", "re_dpsi", "log_norm_xi"]


def cmd_propagate(run: RunConfig) -> tuple[list[str], list[list], list[str], dict, bool]:
    p = run.params
    _require_keys(p, {"lambda", "n_max", "xi0", "dense_per_interval"},
                  {"lambda", "n_max"}, "params")
    lam = _number(p, "lambda", "params", positive=True)
    n_max = _integer(p, "n_max", "params", minimum=1)
    xi0 = p.get("xi0", [0.0, 1.0])
    if (not isinstance(xi0, list) or len(xi0) != 2
            or not all(isinstance(x, (int, float)) for x in xi0)):
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
    n = np.arange(len(x)) // (dense + 1)
    psi, dpsi = free_flow(lam, x - xs[n], vecs[n])
    psi[::dense + 1], dpsi[::dense + 1] = vecs.T
    rows = list(zip(n.tolist(), x.tolist(), psi.tolist(), dpsi.tolist(),
                    np.log(np.hypot(psi, dpsi)).tolist()))
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


def _render_csv(columns, rows, footers) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    lines.extend(footers)
    return "\n".join(lines) + "\n"


def _render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _write_output(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
        return
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _table_json(command, run, columns, rows, footers, params) -> dict:
    return {
        "command": command,
        "system": _system_dict(run.system),
        "params": _json_safe(params),
        "columns": columns,
        "rows": [[_json_safe(v) for v in row] for row in rows],
        "footers": [f.lstrip("# ") for f in footers],
    }


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = load_config(args.config)
        fmt = args.format or run.output_format
        path = args.out if args.out is not None else run.output_path

        if args.command in ("classify", "avalue"):
            if fmt == "csv":
                raise ConfigError(f"{args.command} emits JSON only")
            doc = cmd_classify(run) if args.command == "classify" else cmd_avalue(run)
            _write_output(_render_json(doc), path)
            return EXIT_OK

        if fmt is None:
            fmt = "csv"
        degraded = False
        if args.command == "growth":
            columns, rows, footers, params = cmd_growth(run)
        elif args.command == "eigs":
            columns, rows, footers, params, degraded = cmd_eigs(run)
        else:
            columns, rows, footers, params, degraded = cmd_propagate(run)
        if fmt == "csv":
            text = _render_csv(columns, rows, footers)
        else:
            text = _render_json(_table_json(args.command, run, columns, rows,
                                            footers, params))
        _write_output(text, path)
        if degraded and args.strict:
            return EXIT_NUMERICAL
        return EXIT_OK
    except (ConfigError, ValueError, IndexError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
