"""pointspec benchmark: cold-CLI and warm-request latency per workload.

Run from the root of a checkout:

    python3 bench/run.py --workload verdict --seed 1 --seconds 20 --trace 0

One closed-loop client.  An untraced run (``--trace 0``) serves a fixed
number of whole rounds of the workload (``warm_rounds``: about ``--seconds``
of warm requests on the reference host, never fewer than 100 requests), so
a seed always gives the same requests.  It measures

1. ``setup_s``: fresh interpreters running ``import pointspec.cli``;
2. cold requests: ``python -m pointspec.cli <cmd> --config ...`` processes,
   one at a time: repeats of the first round's median-cost request, whose
   median is ``cold_p50_s``, and its costliest request for the memory peak;
3. warm requests: after one untimed warm-up per command, every round as
   in-process ``pointspec.cli.main([...])`` calls.

The set-up imports and cold processes are spread evenly between the warm
rounds, so all three medians sample the whole run rather than one moment of
it.  Before every round the client also times ``probe()``, a fixed numpy
computation that uses nothing of pointspec; every timing is scaled by the
probe's median over the run relative to ``PROBE_REFERENCE_S``, its median on
the reference host, so host drift between runs cancels while a change to the
program shows in full.  The ``#`` lines give the unscaled values (``raw.*``)
and the factor (``host.slowdown``).  Medians and the 90th percentile are
Harrell-Davis estimates.  BLAS and OpenMP pools are held to one thread, here
and in every child.

A traced run (``--trace 1``) times imports with ``-X importtime``, then runs
the first rounds once untraced and once with every layer wrapped (see
``tracing.py``), and reports per-layer totals over that fixed request set.

Every output is checked (``checks.py``).  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  ``correct`` is
false when any failure is not one of the recorded baseline defects in
``checks.KNOWN_FAILURES``; ``failed`` counts known and unknown failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, cold_sample, rounds  # noqa: E402

SETUP_REPS = 5
COLD_REPS = 5
IMPORTTIME_REPS = 3
MIN_WARM_REQUESTS = 100  # request_p90_s needs >= 10 samples beyond it
# seconds one round of warm requests takes on the reference host (2 vCPUs of
# a shared "Intel(R) Xeon(R) Processor" VM); --seconds / ROUND_SECONDS
# rounds make a run
ROUND_SECONDS = {"verdict": 2.5, "spectrum": 2.7, "table": 2.7}
TRACE_ROUNDS = {"verdict": 1, "spectrum": 2, "table": 2}
CHILD_TIMEOUT = 120.0
# one thread per BLAS/OpenMP pool, in this process and every child: the
# client is one closed loop, and idle pool threads only add scheduler noise
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
IMPORTED = ("numpy", "scipy.special", "scipy.optimize", "scipy.linalg", "pointspec")


# a fixed computation timed PROBE_REPS times before every warm round and
# after the last; PROBE_REFERENCE_S is its median on the reference host
PROBE_REPS = 3
PROBE_REFERENCE_S = 0.016


def probe() -> float:
    """Seconds for a fixed mix of vector math, tiny numpy calls and bytecode.

    It uses nothing of pointspec, so only the host's speed moves it.
    """
    import numpy as np

    start = perf_counter()
    big = np.arange(1.0, 2.0**17)
    small = np.full((2, 2), 0.5)
    acc = 0.0
    for _ in range(20):
        acc += float(np.log(big).sum())
        m = small
        for _ in range(200):
            m = m @ small
        for k in range(2000):
            acc += k % 7
    return perf_counter() - start


def warm_rounds(workload: str, seconds: float, per_round: int) -> int:
    """Rounds an untraced run serves: a function of its arguments alone."""
    floor = -(-MIN_WARM_REQUESTS // per_round)
    return max(floor, round(seconds / ROUND_SECONDS[workload]))


def _quantile(xs, q):
    """Harrell-Davis estimate of the q-quantile.

    A Beta-weighted mean of all order statistics: unlike a single order
    statistic it does not jump when noise swaps the requests next to the
    quantile, which matters where a workload's cost distribution has gaps.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(xs, dtype=float))
    n = len(x)
    if n == 0:
        return 0.0
    a, b = q * (n + 1), (1 - q) * (n + 1)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ x)


def _median(xs):
    return _quantile(xs, 0.5)


def _p90(xs):
    return _quantile(xs, 0.9)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = BENCH / "out" / f"{workload}-{seed}-{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failures: list[tuple[str, str | None, str]] = []  # key, known id, detail
        self.verdicts: dict[tuple[str, str], object] = {}
        self.check_infos: dict[str, dict] = {}
        self.check_time = 0.0
        self.latency_log: list[tuple[str, float]] = []  # warm (key, seconds)

    # -- child processes -----------------------------------------------------

    def spawn(self, argv):
        """Run one child; return (wall seconds, max RSS in MB, exit code, stderr)."""
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, err_path.read_text()

    def import_only(self, flags=()):
        return self.spawn([sys.executable, *flags, "-c", "import pointspec.cli"])

    def setup_time(self):
        wall, _, code, err = self.import_only()
        if code != 0:
            raise RuntimeError(f"import pointspec.cli failed: {err}")
        return wall

    def import_breakdown(self):
        self.import_only()
        runs = {name: [] for name in IMPORTED}
        for _ in range(IMPORTTIME_REPS):
            _, _, code, err = self.import_only(("-X", "importtime"))
            if code != 0:
                raise RuntimeError(f"import pointspec.cli failed: {err}")
            for line in err.splitlines():
                if not line.startswith("import time:") or "cumulative" in line:
                    continue
                _, cumulative, name = line[len("import time:"):].split("|")
                if name.strip() in runs:
                    runs[name.strip()].append(int(cumulative) * 1e-6)
        return {f"import.{name}_s": (_median(v), "s") for name, v in runs.items()}

    # -- requests ------------------------------------------------------------

    def paths(self, req):
        cfg = self.work / f"{req.key}.json"
        return cfg, self.work / f"{req.key}.out"

    def write_config(self, req):
        cfg, _ = self.paths(req)
        cfg.write_bytes(req.config_bytes())

    def argv(self, req):
        cfg, out = self.paths(req)
        return [req.command, "--config", str(cfg), "--out", str(out), *req.args]

    def take_output(self, req, code, error=None):
        """Read, check (once per distinct output) and delete a request's output.

        Returns the output's hash, or None when the request produced none.
        """
        from checks import check

        _, out = self.paths(req)
        self.attempted += 1
        if error is not None or code != 0 or not out.exists():
            self.failures.append((req.key, None, error or f"exit code {code}"))
            out.unlink(missing_ok=True)
            return None
        data = out.read_bytes()
        out.unlink()
        digest = hashlib.sha256(data).hexdigest()
        verdict = self.verdicts.get((req.key, digest))
        if verdict is None:
            start = perf_counter()
            verdict = check(req.command, req.config, req.args, data)
            self.check_time += perf_counter() - start
            self.verdicts[req.key, digest] = verdict
            self.check_infos[req.key] = verdict.info
        if not verdict.ok:
            self.failures.append((req.key, verdict.known, verdict.detail))
        return digest

    def cold(self, req):
        """One cold CLI process; returns (wall seconds, max RSS in MB, output hash)."""
        self.write_config(req)
        wall, peak, code, err = self.spawn(
            [sys.executable, "-m", "pointspec.cli", *self.argv(req)])
        return wall, peak, self.take_output(req, code, err.strip() if code else None)

    def warm_call(self, cli, req):
        """One in-process request; returns (latency, exit code, error text)."""
        start = perf_counter()
        try:
            code = cli.main(self.argv(req))
            error = None
        except Exception as exc:  # a crash is a failed request, not a crashed run
            code, error = -1, f"{type(exc).__name__}: {exc}"
        return perf_counter() - start, code, error

    def warm_up(self, cli, first_round):
        seen = set()
        for req in first_round:
            if req.command not in seen:
                seen.add(req.command)
                self.write_config(req)
                self.warm_call(cli, req)
                self.paths(req)[1].unlink(missing_ok=True)

    def run_requests(self, cli, requests, latencies, digests):
        for req in requests:
            self.write_config(req)
        for req in requests:
            lat, code, error = self.warm_call(cli, req)
            latencies.append(lat)
            self.latency_log.append((req.key, lat))
            digests.setdefault(req.key, set()).add(self.take_output(req, code, error))


def _import_cli(root):
    sys.path.insert(0, str(root / "src"))
    import pointspec.cli as cli
    return cli


def untraced(bench: Bench, seconds: float):
    gen = rounds(bench.workload, bench.seed)
    batches = [next(gen)]
    batches += [next(gen) for _ in range(
        warm_rounds(bench.workload, seconds, len(batches[0])) - 1)]
    median_req, costliest = cold_sample(batches[0])
    # side jobs, alternating, spread evenly over the gaps before each round
    side = []
    for i in range(max(SETUP_REPS, COLD_REPS + 1)):
        if i < SETUP_REPS:
            side.append(None)
        if i < COLD_REPS:
            side.append(median_req)
        elif i == COLD_REPS:
            side.append(costliest)
    slots = [[] for _ in batches]
    for j, job in enumerate(side):
        slots[j * len(batches) // len(side)].append(job)

    cli = _import_cli(bench.root)
    bench.warm_up(cli, batches[0])
    setup, cold_walls, cold_rss, cold_digests = [], [], [], {}
    latencies, digests, probes = [], {}, []
    busy = 0.0
    for batch, jobs in zip(batches, slots):
        for job in jobs:
            if job is None:
                setup.append(bench.setup_time())
                continue
            wall, peak, digest = bench.cold(job)
            if job is median_req:
                cold_walls.append(wall)
            cold_rss.append(peak)
            cold_digests.setdefault(job.key, set()).add(digest)
        probes += [probe() for _ in range(PROBE_REPS)]
        check_before = bench.check_time
        start = perf_counter()
        bench.run_requests(cli, batch, latencies, digests)
        busy += perf_counter() - start - (bench.check_time - check_before)
    probes += [probe() for _ in range(PROBE_REPS)]
    for key, ds in cold_digests.items():
        if None not in ds and digests.get(key) != ds:
            bench.failures.append((key, None, "cold and warm outputs differ"))
    for key, ds in digests.items():
        if len(ds) > 1:
            bench.failures.append((key, None, "repeated outputs differ"))
    raw = {
        "setup_s": (_median(setup), "s", len(setup)),
        "cold_p50_s": (_median(cold_walls), "s", len(cold_walls)),
        "request_p50_s": (_median(latencies), "s", len(latencies)),
        "request_p90_s": (_p90(latencies), "s", len(latencies)),
        "throughput_rps": (len(latencies) / busy, "req/s", len(latencies)),
    }
    # The shared host's speed drifts by up to 2x between runs a minute apart,
    # and every timing of a run follows it.  Scaled by the probe's median over
    # the same run, the timings read as on the reference host, while a change
    # to the program, which the probe does not run, moves them in full.
    slowdown = _median(probes) / PROBE_REFERENCE_S
    scale = {"s": 1.0 / slowdown, "req/s": slowdown}
    metrics = {name: (value * scale[unit], unit, n)
               for name, (value, unit, n) in raw.items()}
    metrics["peak_rss_mb"] = (max(cold_rss), "MB", len(cold_rss))
    metrics["host.slowdown"] = (slowdown, "ratio", len(probes))
    metrics.update({f"raw.{name}": v for name, v in raw.items()})
    return metrics


def traced(bench: Bench):
    from tracing import Tracer

    metrics = bench.import_breakdown()
    gen = rounds(bench.workload, bench.seed)
    requests = [req for _ in range(TRACE_ROUNDS[bench.workload]) for req in next(gen)]
    cli = _import_cli(bench.root)
    for req in requests:  # untimed pass, so neither timed pass pays first-run costs
        bench.write_config(req)
        bench.warm_call(cli, req)
        bench.paths(req)[1].unlink(missing_ok=True)
    plain, traced_lat, digests = [], [], {}
    bench.run_requests(cli, requests, plain, digests)
    tracer = Tracer()
    tracer.install()
    try:
        for req in requests:
            tracer.request = req.key
            bench.write_config(req)
            lat, code, error = bench.warm_call(cli, req)
            traced_lat.append(lat)
            digests[req.key].add(bench.take_output(req, code, error))
    finally:
        tracer.uninstall()
    for key, ds in digests.items():
        if len(ds) > 1:
            bench.failures.append((key, None, "traced and untraced outputs differ"))
    tracer.dump(bench.work / "spans.jsonl")
    metrics.update(tracer.layer_metrics())
    missed = sum(info["fd_in_range"] - info["roots"]
                 for info in bench.check_infos.values() if "fd_in_range" in info)
    metrics["spectrum.roots_missed"] = (missed, "count")
    metrics["trace.overhead"] = (_median(traced_lat) / _median(plain) - 1.0, "ratio")
    return {k: (v, unit, IMPORTTIME_REPS if k.startswith("import.") else len(requests))
            for k, (v, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(SINGLE_THREAD)  # before anything imports numpy

    root = Path.cwd()
    if not (root / "src" / "pointspec" / "cli.py").is_file():
        print("bench: run from a pointspec checkout (src/pointspec/cli.py not found)",
              file=sys.stderr)
        return 2
    t_run = perf_counter()
    bench = Bench(root, args.workload, args.seed, bool(args.trace))
    if args.trace:
        metrics = traced(bench)
    else:
        metrics = untraced(bench, args.seconds)
        errors = len(bench.failures)
        metrics["error_rate"] = (errors / bench.attempted, "ratio", bench.attempted)

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"wall={perf_counter() - t_run:.1f}s checks={bench.check_time:.1f}s")
    for name, (value, unit, n) in metrics.items():
        print(f"# {name:<40} {value:>14.6g} {unit:<6} n={n}")
    for key, known, detail in bench.failures:
        print(f"# FAIL {key}: {detail}" + (f" [known: {known}]" if known else ""))
    if not args.trace:  # keep only the end-to-end metrics, reported above
        for name in [k for k in metrics if k == "error_rate" or "." in k]:
            metrics.pop(name)
    unknown = [f for f in bench.failures if f[1] is None]
    for cfg in bench.work.glob("*.json"):
        cfg.unlink()
    (bench.work / "latencies.json").write_text(json.dumps(bench.latency_log))
    print(json.dumps({
        "correct": not unknown,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
