"""Repeat bench/run.py over seeds and report each metric's median and spread.

Run from the repository root:

    python3 bench/repeat.py --runs 10 --first-seed 1
    python3 bench/repeat.py --runs 10 --trace-runs 2 --record bench/baseline.json

For every workload it makes ``--runs`` untraced runs with consecutive seeds
and prints, per end-to-end metric, the median, the quartiles (from
``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json.  ``--trace-runs`` adds traced runs
of the default seed and checks that their per-layer counts repeat exactly.
``--record`` writes the figures, the input mixes, the known failures and an
environment fingerprint to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from checks import KNOWN_FAILURES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
COUNT_UNITS = ("count", "bytes")


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    samples = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 5 and parts[4].startswith("n="):
            samples[parts[1]] = (float(parts[2]), int(parts[4][2:]), parts[3])
    return result, samples


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(statistics.median(values))
            if statistics.median(values) else None}


def environment():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu_model": cpu}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS))
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--record", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    record = {"default_seed": DEFAULT_SEED, "run_seconds": seconds,
              "environment": environment(), "known_failures": KNOWN_FAILURES,
              "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = [run_once(workload, args.first_seed + i, seconds, 0)
                for i in range(args.runs)]
        entry = {"why": WORKLOADS[workload].why, "mix": WORKLOADS[workload].mix,
                 "seeds": [args.first_seed, args.first_seed + args.runs - 1],
                 "attempted": sum(r["attempted"] for r, _ in runs),
                 "failed": sum(r["failed"] for r, _ in runs),
                 "all_correct": all(r["correct"] for r, _ in runs),
                 "end_to_end": {}}
        ok &= entry["all_correct"]
        print(f"{workload}: attempted={entry['attempted']} failed={entry['failed']} "
              f"correct={entry['all_correct']}")
        names = list(runs[0][0]["metrics"]) + ["error_rate", "host.slowdown"] + [
            f"raw.{name}" for name in runs[0][0]["metrics"] if f"raw.{name}" in runs[0][1]]
        for name in names:
            values = [r["metrics"][name]["value"] if name in r["metrics"] else s[name][0]
                      for r, s in runs]
            stats = summarize(values)
            stats["unit"] = (runs[0][0]["metrics"][name]["unit"]
                             if name in runs[0][0]["metrics"] else runs[0][1][name][2])
            stats["runs"] = len(values)
            stats["samples_per_run"] = statistics.median(s[name][1] for _, s in runs)
            entry["end_to_end"][name] = stats
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None and stats["spread"] is not None and name != "setup_s":
                flag = "ok" if stats["spread"] < bound / 3 else (
                    "wide" if stats["spread"] <= bound else "OVER BOUND")
                ok &= stats["spread"] <= bound
            stats["values"] = values
            spread = "-" if stats["spread"] is None else f"{stats['spread']:.3f}"
            print(f"  {name:<16} median={stats['median']:.6g} {stats['unit']:<6} "
                  f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} spread={spread} "
                  f"bound={bound} n/run={stats['samples_per_run']} {flag}")
            print("      runs: " + " ".join(f"{v:.4g}" for v in values))
        if args.trace_runs:
            traced = [run_once(workload, DEFAULT_SEED, seconds, 1)[0]["metrics"]
                      for _ in range(args.trace_runs)]
            counts = [{k: v["value"] for k, v in m.items() if v["unit"] in COUNT_UNITS}
                      for m in traced]
            same = all(c == counts[0] for c in counts)
            ok &= same
            print(f"  per-layer counts identical across {len(traced)} traced runs: {same}")
            entry["per_layer"] = {
                k: {"median": statistics.median(m[k]["value"] for m in traced),
                    "unit": traced[0][k]["unit"]} for k in traced[0]}
            entry["per_layer_counts_repeat"] = same
        record["workloads"][workload] = entry
    if args.record:
        args.record.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
