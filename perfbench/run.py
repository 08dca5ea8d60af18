"""Benchmark of the closurespaces CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from ``src`` next to this
directory and every metric and workload is declared in ``BENCHMARK.json``.
Each workload runs in fresh interpreters started one at a time (see
``worker.py``): ``SETUPS`` of them only set up, which gives the median
``setup_s``, and one more sets up and then repeats timed passes of the
workload's CLI calls for ``--seconds``.  Every call's exit code and stdout
are compared byte for byte with the expected output; a mismatch counts as a
failed operation.

With ``--trace 0`` the result holds the end-to-end metrics: the median
``setup_s``, ``wall_s`` of a pass (the sum over its calls of each call's
shortest time), ``instances_per_s`` (the ``checked=`` counts of a pass's
verify lines over ``wall_s``) and ``peak_rss_mb`` of the measuring
process.  With ``--trace 1`` the measuring process
alternates untraced and traced passes and the result holds the per-layer
metrics (see ``spans.py``).  The last line of stdout is one JSON object;
a record with the environment and every pass is written under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".perfbench"
SETUPS = 6  # set-up samples per run, alternating over the CPUs
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    pass


def spawn(args: list[str], deadline: float, cpu: int | None = None) -> dict:
    """Run worker.py with ``args``, on ``cpu`` alone if given, and return
    the JSON object it prints."""
    env = dict(
        os.environ,
        CLOSURESPACES_BACKEND="numpy",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a worker")
    t0 = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args, "--t0", repr(t0)],
            cwd=ROOT,
            env=env,
            preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {args} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_cpu(summary, samples) -> float:
    """Mean over CPUs of ``summary`` of the (cpu, value) samples taken on
    each, so that a shifting share of samples per CPU does not move it."""
    by_cpu: dict = {}
    for cpu, value in samples:
        by_cpu.setdefault(cpu, []).append(value)
    return statistics.fmean(summary(values) for values in by_cpu.values())


def source_record() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "closurespaces").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def run_workload(name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{name}-seed{seed}.json"
        args = [*common, "--mode", "trace", "--seconds", str(seconds), "--spans", str(spans)]
        worker = spawn(args, deadline)
        metrics = worker["layer_metrics"]
        errors = worker["trace_errors"]
    else:
        cpus = sorted(os.sched_getaffinity(0))
        setups = []
        for i in range(SETUPS):
            cpu = cpus[i % len(cpus)]
            setups.append((cpu, spawn([*common, "--mode", "setup"], deadline, cpu)["setup_s"]))
        worker = spawn([*common, "--mode", "measure", "--seconds", str(seconds)], deadline)
        passes = worker["passes"]
        calls_s = list(zip(*(p["calls_s"] for p in passes)))
        # Each call's shortest time over the passes, as timeit reports: on a
        # shared host other load only ever slows a call down, and the CPUs'
        # speed swings by up to 2x for seconds at a time, which moves a
        # median between runs far more than it moves a minimum.
        wall_s = sum(min(times) for times in calls_s)
        worker["wall_median_s"] = sum(statistics.median(times) for times in calls_s)
        metrics = {
            "setup_s": per_cpu(statistics.median, setups),
            "wall_s": wall_s,
            "instances_per_s": passes[0]["checked"] / wall_s,
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        errors = []
        worker["setups_s"] = setups
    if worker["env"]["backend"] != "numpy":
        errors.append(f"kernels ran on {worker['env']['backend']}, not numpy")
    worker.pop("layer_metrics", None)
    return {"workload": name, "metrics": metrics, "errors": errors, **worker}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    record = {"seed": args.seed, "nproc": os.cpu_count(), **source_record()}
    results = []
    try:
        for name in names if args.workload == "all" else [args.workload]:
            deadline = time.monotonic() + DEADLINE_S
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            if set(res["metrics"]) != set(units):
                differ = sorted(set(res["metrics"]) ^ set(units))
                raise BenchmarkError(f"metrics differ from BENCHMARK.json: {differ}")
            results.append(res)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    for res in results:
        res["record"] = {**record, **res.pop("env")}
        path = OUT / f"{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1))
        failed = len(res["mismatches"])
        print(f"workload={res['workload']} attempted={res['attempted']} failed={failed} "
              f"failed_ops_ratio={failed / res['attempted']:.4f}")
        for err in res["errors"]:
            print(f"  check failed: {err}")
        for m in res["mismatches"][:3]:
            print(f"  mismatch: {json.dumps(m)[:300]}")
        for metric, value in res["metrics"].items():
            print(f"  {metric} = {value} {units[metric]}")
        print(f"  record = {json.dumps(res['record'])}")

    def key(res, metric):
        return metric if len(results) == 1 else f"{res['workload']}.{metric}"

    print(json.dumps({
        "correct": all(not r["mismatches"] and not r["errors"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(len(r["mismatches"]) for r in results),
        "metrics": {
            key(r, metric): {"value": value, "unit": units[metric]}
            for r in results
            for metric, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
