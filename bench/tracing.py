"""Outside-in tracing of pointspec's public layers.

The tracer wraps functions in every ``pointspec`` module namespace that binds
them (and methods on their class), so the program itself is unchanged.
Three wrapper kinds:

* span  -- timed, recorded as (id, name, start, end, parent, request);
* hot   -- timed and aggregated, but no span is kept (per-step calls);
* count -- call count only, no timing.

A layer's self time is its duration minus the time covered by wrapped
calls made inside it.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN, HOT, COUNT = "span", "hot", "count"


def _propagate_extra(tracer, args, kwargs, result, parent):
    n_max = kwargs.get("n_max", args[3] if len(args) > 3 else 0)
    tracer.counts["transfer.propagate.steps"] += n_max
    if parent == "spectrum.truncated_eigenvalues":
        tracer.counts["spectrum.energies_evaluated"] += 1


def _log_gaps_extra(tracer, args, kwargs, result, parent):
    tracer.counts["lattice.log_gaps.elems"] += len(result)


def _eigs_extra(tracer, args, kwargs, result, parent):
    tracer.counts["spectrum.roots"] += len(result.values)
    tracer.counts["spectrum.suspected_missed"] += result.suspected_missed


def _fd_extra(tracer, args, kwargs, result, parent):
    system, n_max, h = args[0], args[1], args[2]
    length = tracer.original_position(system.lattice, n_max)
    tracer.counts["spectrum.fd_oracle.nodes"] += int(round(length / h))


def _cmd_extra(tracer, args, kwargs, result, parent):
    if isinstance(result, tuple):
        tracer.counts["cli.rows"] += len(result[1])


def _write_extra(tracer, args, kwargs, result, parent):
    tracer.counts["cli.output_bytes"] += len(args[0].encode("utf-8"))


# (module, attribute, layer name, wrapper kind, extra recorder)
TARGETS = [
    ("pointspec.lattice", "SparseSet.log_gaps", "lattice.log_gaps", HOT, _log_gaps_extra),
    ("pointspec.lattice", "SparseSet.gap", "lattice.gap", HOT, None),
    ("pointspec.lattice", "SparseSet.position", "lattice.position", COUNT, None),
    ("pointspec.lattice", "estimate_threshold", "lattice.estimate_threshold", SPAN, None),
    ("pointspec.transfer", "propagate", "transfer.propagate", SPAN, _propagate_extra),
    ("pointspec.transfer", "step_matrix", "transfer.step_matrix", COUNT, None),
    ("pointspec.transfer", "sample_solution", "transfer.sample_solution", SPAN, None),
    ("pointspec.growth", "series_verdict", "growth.series_verdict", SPAN, None),
    ("pointspec.growth", "series_terms", "growth.series_terms", SPAN, None),
    ("pointspec.spectrum", "classify", "spectrum.classify", SPAN, None),
    ("pointspec.spectrum", "truncated_eigenvalues", "spectrum.truncated_eigenvalues",
     SPAN, _eigs_extra),
    ("pointspec.spectrum", "fd_oracle_eigenvalues", "spectrum.fd_oracle", SPAN, _fd_extra),
    ("pointspec.cli", "main", "cli.main", SPAN, None),
    ("pointspec.cli", "load_config", "cli.load_config", SPAN, None),
    ("pointspec.cli", "cmd_classify", "cli.cmd", SPAN, None),
    ("pointspec.cli", "cmd_avalue", "cli.cmd", SPAN, None),
    ("pointspec.cli", "cmd_growth", "cli.cmd", SPAN, _cmd_extra),
    ("pointspec.cli", "cmd_eigs", "cli.cmd", SPAN, _cmd_extra),
    ("pointspec.cli", "cmd_propagate", "cli.cmd", SPAN, _cmd_extra),
    ("pointspec.cli", "_render_csv", "cli.render", SPAN, None),
    ("pointspec.cli", "_render_json", "cli.render", SPAN, None),
    ("pointspec.cli", "_table_json", "cli.render", SPAN, None),
    ("pointspec.cli", "_write_output", "cli.write", SPAN, _write_extra),
]


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_time, span_id]
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.request: str | None = None
        self.installed: list[tuple] = []  # (owner, attribute, original)
        self.original_position = None

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, keep_span, extra):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if keep_span:
                span_id = len(tracer.spans)
                tracer.spans.append(None)  # reserve the id in call order
            else:  # children of an unrecorded frame hang off its nearest span
                span_id = None if parent is None else parent[3]
            frame = [name, 0.0, 0.0, span_id]
            stack.append(frame)
            frame[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.total_s[name] += dur
                tracer.self_s[name] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if keep_span:
                    tracer.spans[frame[3]] = (
                        frame[3], name, start, end,
                        None if parent is None else parent[3], tracer.request)
            if extra is not None:
                extra(tracer, args, kwargs, result, None if parent is None else parent[0])
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target in every pointspec namespace that binds it."""
        modules = [m for k, m in sys.modules.items()
                   if (k == "pointspec" or k.startswith("pointspec.")) and m is not None]
        self.original_position = sys.modules["pointspec.lattice"].SparseSet.position
        for module_name, attr, name, kind, extra in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                owner_name, method = attr.split(".")
                owners = [(getattr(module, owner_name), method)]
            else:
                method = attr
                original = getattr(module, attr)
                owners = [(m, attr) for m in modules if m.__dict__.get(attr) is original]
            original = getattr(owners[0][0], method)
            if kind == COUNT:
                wrapper = self._counted(name, original)
            else:
                wrapper = self._timed(name, original, kind == SPAN, extra)
            for owner, a in owners:
                self.installed.append((owner, a, original))
                setattr(owner, a, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    def bindings(self) -> list[str]:
        """Installed bindings as 'module.attr', for inspection and tests."""
        return [f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in self.installed]

    # -- results -------------------------------------------------------------

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                sid, name, start, end, parent, request = span
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "request": request}) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        c, s, n = self.calls, self.self_s, self.counts
        steps = n["transfer.propagate.steps"]
        roots = n["spectrum.roots"]
        return {
            "lattice.log_gaps.calls": (c["lattice.log_gaps"], "count"),
            "lattice.log_gaps.elems": (n["lattice.log_gaps.elems"], "count"),
            "lattice.log_gaps.self_s": (s["lattice.log_gaps"], "s"),
            "lattice.estimate_threshold.self_s": (s["lattice.estimate_threshold"], "s"),
            "lattice.gap.calls": (c["lattice.gap"], "count"),
            "lattice.gap.self_s": (s["lattice.gap"], "s"),
            "lattice.position.calls": (c["lattice.position"], "count"),
            "transfer.propagate.calls": (c["transfer.propagate"], "count"),
            "transfer.propagate.steps": (steps, "count"),
            "transfer.propagate.self_s": (s["transfer.propagate"], "s"),
            "transfer.step_us": (1e6 * self.total_s["transfer.propagate"] / steps
                                 if steps else 0.0, "us"),
            "transfer.step_matrix.calls": (c["transfer.step_matrix"], "count"),
            "transfer.sample_solution.calls": (c["transfer.sample_solution"], "count"),
            "transfer.sample_solution.self_s": (s["transfer.sample_solution"], "s"),
            "growth.series_verdict.calls": (c["growth.series_verdict"], "count"),
            "growth.series_verdict.self_s": (s["growth.series_verdict"], "s"),
            "growth.series_terms.calls": (c["growth.series_terms"], "count"),
            "growth.series_terms.self_s": (s["growth.series_terms"], "s"),
            "spectrum.classify.self_s": (s["spectrum.classify"], "s"),
            "spectrum.truncated_eigenvalues.self_s":
                (s["spectrum.truncated_eigenvalues"], "s"),
            "spectrum.energies_evaluated": (n["spectrum.energies_evaluated"], "count"),
            "spectrum.evals_per_root": (n["spectrum.energies_evaluated"] / roots
                                        if roots else 0.0, "ratio"),
            "spectrum.suspected_missed": (n["spectrum.suspected_missed"], "count"),
            "spectrum.fd_oracle.calls": (c["spectrum.fd_oracle"], "count"),
            "spectrum.fd_oracle.self_s": (s["spectrum.fd_oracle"], "s"),
            "spectrum.fd_oracle.nodes": (n["spectrum.fd_oracle.nodes"], "count"),
            "cli.load_config.self_s": (s["cli.load_config"], "s"),
            "cli.cmd.self_s": (s["cli.cmd"], "s"),
            "cli.render.self_s": (s["cli.render"], "s"),
            "cli.write.self_s": (s["cli.write"], "s"),
            "cli.output_bytes": (n["cli.output_bytes"], "bytes"),
            "cli.rows": (n["cli.rows"], "count"),
        }
