"""One benchmark process: set up, then run timed passes of one workload.

Started by ``run.py`` with a fresh interpreter per set-up sample and per
measurement, so that ``setup_s`` and ``peak_rss_mb`` belong to a single
workload.  Imports ``closurespaces`` from the checkout's ``src`` directory,
fills the lru-cached universes the workload reads and runs each of its calls
once at n = 2 (the untimed warm-up), then, unless ``--mode setup``, repeats
timed passes for as long as the next one, taking as long as the last, ends
within ``--seconds``.  Prints one JSON object.

Modes: ``setup`` reports set-up time only; ``measure`` adds untraced passes;
``trace`` alternates untraced and traced passes and reports layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.modules["numba"] = None  # never import numba: every kernel runs on numpy
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import closurespaces  # noqa: E402
from closurespaces import _kernels, cli, enumeration  # noqa: E402

if not Path(closurespaces.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"closurespaces was imported from {closurespaces.__file__}, not from {ROOT / 'src'}")

from spans import Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_CHECKED = re.compile(r"^claim=\S+ n=\d+ checked=(\d+) ", re.M)


def run_call(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def set_up(workload, seed: int) -> None:
    for name, n in workload.caches:
        getattr(enumeration, name)(n)
    for call in workload.calls:
        argv = call.at_small_n().with_seed(seed)
        rc, _ = run_call(argv)
        if rc != 0:
            raise SystemExit(f"warm-up call {argv} exited {rc}")


def run_pass(workload, seed: int, expected: list[str]) -> dict:
    outputs, calls_s = [], []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for call in workload.calls:
        start = time.perf_counter()
        outputs.append(run_call(call.with_seed(seed)))
        calls_s.append(time.perf_counter() - start)
    t1 = time.perf_counter()
    cpu = time.process_time() - cpu0
    mismatches = [
        {"argv": list(call.argv), "rc": rc, "stdout": out[:500]}
        for call, (rc, out), want in zip(workload.calls, outputs, expected)
        if rc != 0 or out != want
    ]
    checked = sum(int(c) for _, out in outputs for c in _CHECKED.findall(out))
    return {
        "t0": t0,
        "t1": t1,
        "wall_s": t1 - t0,
        "calls_s": calls_s,
        "cpu_s": cpu,
        "checked": checked,
        "mismatches": mismatches,
    }


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "backend": _kernels.BACKEND,
        "have_numba": _kernels.HAVE_NUMBA,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--t0", type=float, required=True, help="time.time() when the process was started")
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    cpus = sorted(os.sched_getaffinity(0))
    setup_tracer = Tracer()
    if args.mode == "trace":
        setup_tracer.install()
    set_up(workload, args.seed)
    setup_s = time.time() - args.t0
    setup_tracer.uninstall()
    result = {"setup_s": setup_s, "env": environment()}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    expected = [call.expected_stdout(ROOT) for call in workload.calls]
    untraced, traced = [], []
    start = last = time.perf_counter()
    step = 0.0  # how long the last round of passes took
    while not untraced or last + step - start <= args.seconds:
        # single-threaded workloads alternate over the CPUs, which can differ
        # in speed on a shared machine
        cpu = cpus[len(untraced) % len(cpus)] if workload.threads == 1 else None
        os.sched_setaffinity(0, {cpu} if cpu is not None else cpus)
        untraced.append({"cpu": cpu, **run_pass(workload, args.seed, expected)})
        if args.mode == "trace":
            tracer = Tracer()
            tracer.install()
            try:
                traced.append((tracer, run_pass(workload, args.seed, expected)))
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        step, last = now - last, now
    os.sched_setaffinity(0, cpus)

    passes = untraced + [p for _, p in traced]
    result.update(
        passes=[{k: p[k] for k in ("cpu", "wall_s", "calls_s", "cpu_s", "checked")} for p in untraced],
        attempted=len(passes) * len(workload.calls),
        mismatches=[m for p in passes for m in p["mismatches"]],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if traced:
        metrics, errors = per_layer_metrics(
            [(tracer, p["t0"], p["t1"]) for tracer, p in traced],
            setup_tracer,
            [p["wall_s"] for p in untraced],
            statistics.median(p["cpu_s"] / p["wall_s"] for p in untraced),
            setup_s,
        )
        result.update(layer_metrics=metrics, trace_errors=errors)
        if args.spans:
            tracer, p = traced[-1]
            Path(args.spans).write_text(json.dumps(tracer.spans_dump(p["t0"])))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
