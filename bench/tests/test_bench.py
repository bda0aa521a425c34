"""Tests of the benchmark itself: generator, checks and tracer.

Run from the repository root:  python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from pointspec import cli  # noqa: E402
from workloads import WORKLOADS, cold_sample  # noqa: E402

# layers each workload must reach; a wrapper that records nothing here is a
# binding the tracer missed
EXERCISES = {
    "verdict": ["lattice.log_gaps", "lattice.estimate_threshold",
                "growth.series_verdict", "spectrum.classify", "cli.main",
                "cli.load_config", "cli.cmd", "cli.render", "cli.write"],
    "spectrum": ["transfer.propagate", "transfer.step_matrix", "lattice.gap",
                 "lattice.position", "spectrum.truncated_eigenvalues",
                 "spectrum.fd_oracle", "cli.cmd", "cli.render", "cli.write"],
    "table": ["growth.series_terms", "lattice.log_gaps", "transfer.sample_solution",
              "transfer.propagate", "transfer.step_matrix", "lattice.gap",
              "lattice.position", "cli.cmd", "cli.render", "cli.write"],
}


def cheap_requests(workload):
    """The cheapest round-0 request of each (command, args, lattice, dense) group."""
    groups = {}
    for req in sorted(WORKLOADS[workload].round(1, 0), key=lambda q: -q.cost):
        lattice = req.config["system"]["positions"]["type"]
        dense = req.config["params"].get("dense_per_interval", 0) > 0
        groups[req.command, req.args, lattice, dense] = req
    return list(groups.values())


def run_request(tmp_path, req, config=None):
    cfg = tmp_path / f"{req.key}.json"
    out = tmp_path / f"{req.key}.out"
    cfg.write_text(json.dumps(config or req.config))
    assert cli.main([req.command, "--config", str(cfg), "--out", str(out),
                     *req.args]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_byte_deterministic(workload):
    make = WORKLOADS[workload].round
    for r in range(3):
        first = [q.config_bytes() for q in make(7, r)]
        assert first == [q.config_bytes() for q in make(7, r)]
        assert first != [q.config_bytes() for q in make(8, r)]


def test_cold_sample_holds_the_largest_table():
    table = WORKLOADS["table"].round(3, 0)
    median_req, costliest = cold_sample(table)
    costs = sorted(q.cost for q in table)
    assert median_req.cost == costs[(len(costs) - 1) // 2]
    assert costliest.key == "t0-growth-factorial-json"
    window = costliest.config["params"]["window"]
    assert window[1] - window[0] + 1 == 10**5


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_warm_rounds_depend_only_on_arguments(workload):
    per_round = len(WORKLOADS[workload].round(1, 0))
    n = run.warm_rounds(workload, 20, per_round)
    assert n * per_round >= run.MIN_WARM_REQUESTS
    assert n == run.warm_rounds(workload, 20, per_round)
    assert run.warm_rounds(workload, 60, per_round) >= n


# ---------------------------------------------------------------------------
# checks reject corrupted outputs


def test_classify_check_rejects_flipped_case(tmp_path):
    req = min(WORKLOADS["verdict"].round(1, 0), key=lambda q: q.cost)
    data = run_request(tmp_path, req)
    assert checks.check(req.command, req.config, req.args, data).ok
    doc = json.loads(data)
    doc["result"]["case"] = ("case_ii" if doc["result"]["case"] != "case_ii"
                             else "no_conclusion")
    bad = checks.check(req.command, req.config, req.args, json.dumps(doc).encode())
    assert not bad.ok and bad.known is None


def test_classify_reference_flags_the_recorded_cap_failure():
    req = next(q for q in WORKLOADS["verdict"].round(1, 5)
               if q.key.startswith("v5-factorial-0.25-delta"))
    assert req.config["params"]["window"][1] == 10**7 - 1
    assert checks.expected_classify(req.config)[0] == "case_ii"


def small_eigs_request():
    """Repulsive couplings only, so no FD eigenvalue lies below the range."""
    req = min(WORKLOADS["spectrum"].round(1, 0), key=lambda q: q.cost)
    config = json.loads(json.dumps(req.config))
    config["system"]["kind"] = "delta"
    config["system"]["strengths"]["values"] = [
        abs(a) for a in config["system"]["strengths"]["values"]]
    return req, config


def test_eigs_check_rejects_dropped_row(tmp_path):
    req, config = small_eigs_request()
    data = run_request(tmp_path, req, config)
    assert checks.check(req.command, config, req.args, data).ok
    lines = data.decode().split("\n")
    assert len([ln for ln in lines[1:] if ln and not ln.startswith("#")]) >= 3
    dropped = "\n".join(lines[:2] + lines[3:]).encode()
    bad = checks.check(req.command, config, req.args, dropped)
    assert not bad.ok and bad.known is None


def test_eigs_check_rejects_shifted_root(tmp_path):
    req, config = small_eigs_request()
    lines = run_request(tmp_path, req, config).decode().split("\n")
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) * 1.01)
    lines[1] = ",".join(cells)
    assert not checks.check(req.command, config, req.args, "\n".join(lines).encode()).ok


def perturb_cell(data: bytes, row: int, col: int, rel: float) -> bytes:
    lines = data.decode().split("\n")
    cells = lines[row].split(",")
    value = float(cells[col])
    cells[col] = repr(value + rel * (abs(value) + 1.0))
    lines[row] = ",".join(cells)
    return "\n".join(lines).encode()


@pytest.mark.parametrize("col", [1, 2, 3, 4])
def test_growth_check_rejects_perturbed_csv_cell(tmp_path, col):
    req = next(q for q in WORKLOADS["table"].round(1, 0)
               if q.command == "growth" and q.args == ("--format", "csv"))
    config = json.loads(json.dumps(req.config))
    config["params"]["window"] = [1, 3000]
    data = run_request(tmp_path, req, config)
    assert checks.check(req.command, config, req.args, data).ok
    bad = perturb_cell(data, 1500, col, 1e-4)
    assert not checks.check(req.command, config, req.args, bad).ok


def test_propagate_check_rejects_perturbed_csv_cell(tmp_path):
    req = next(q for q in WORKLOADS["table"].round(1, 0)
               if q.command == "propagate"
               and q.config["system"]["positions"]["type"] == "power"
               and q.config["params"]["dense_per_interval"] > 0)
    config = json.loads(json.dumps(req.config))
    config["params"]["n_max"] = 60
    data = run_request(tmp_path, req, config)
    assert checks.check(req.command, config, req.args, data).ok
    for col in (1, 2, 3):
        assert not checks.check(req.command, config, req.args,
                                perturb_cell(data, 40, col, 1e-3)).ok
    lines = data.decode().split("\n")
    truncated = "\n".join(lines[:30] + lines[-2:]).encode()
    assert not checks.check(req.command, config, req.args, truncated).ok


# ---------------------------------------------------------------------------
# tracer


def traced_counts(tmp_path, workload):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for req in cheap_requests(workload):
            tracer.request = req.key
            run_request(tmp_path, req)
    finally:
        tracer.uninstall()
    return tracer


def test_tracer_patches_every_binding():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bound = set(tracer.bindings())
        modules = [m for k, m in sys.modules.items()
                   if k == "pointspec" or k.startswith("pointspec.")]
        for _, _, original in tracer.installed:
            for m in modules:
                assert all(v is not original for v in vars(m).values()), m.__name__
    finally:
        tracer.uninstall()
    for name in ("pointspec.transfer.propagate", "pointspec.growth.propagate",
                 "pointspec.spectrum.propagate", "pointspec.cli.sample_solution",
                 "pointspec.spectrum.estimate_threshold", "pointspec.cli.classify"):
        assert name in bound
    from pointspec import spectrum, transfer
    assert spectrum.propagate is transfer.propagate  # restored


@pytest.mark.parametrize("workload", sorted(EXERCISES))
def test_every_wrapper_records_calls_on_its_workload(tmp_path, workload):
    tracer = traced_counts(tmp_path, workload)
    for name in EXERCISES[workload]:
        assert tracer.calls[name] > 0, name
    if workload == "verdict":
        assert tracer.calls["transfer.propagate"] == 0
    if workload == "spectrum":
        assert tracer.calls["lattice.log_gaps"] == 0
        assert tracer.counts["spectrum.energies_evaluated"] > 0
    spans = [s for s in tracer.spans if s is not None]
    assert len(spans) == len(tracer.spans)
    roots = [s for s in spans if s[4] is None]
    assert {s[1] for s in roots} == {"cli.main"}


@pytest.mark.parametrize("workload", sorted(EXERCISES))
def test_layer_counts_repeat_exactly(tmp_path, workload):
    def counts():
        metrics = traced_counts(tmp_path, workload).layer_metrics()
        return {k: v for k, (v, unit) in metrics.items()
                if unit in ("count", "bytes") or k == "spectrum.evals_per_root"}
    first = counts()
    assert any(first.values())
    assert first == counts()


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verdict",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_quantiles_are_smooth_order_statistic_averages():
    assert run._median([2.0] * 7) == pytest.approx(2.0)
    xs = [float(i) for i in range(101)]
    assert run._median(xs) == pytest.approx(50.0)
    assert run._p90(xs) == pytest.approx(90.0, abs=0.5)
