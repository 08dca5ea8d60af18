"""Measure the committed baseline and check the benchmark's steadiness.

    python3 perfbench/baseline.py [--runs 10] [--workload NAME ...] [--write]

Runs ``run.py`` once per seed (1..runs) on each workload, one process at a
time, and reports for every end-to-end metric its median, quartiles and
spread (interquartile distance over the median) against the bound in
``BENCHMARK.json``.  Then runs each workload once traced and checks the
predictions below: which layer metric should move which end-to-end metric
on which workload, and leave the others alone.  ``--write`` stores all of it
in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = Path(__file__).resolve().parent / "baseline.json"

# A layer metric "moves" an end-to-end metric on a workload when it is at
# least MOVES of it there (seconds of wall_s or setup_s, bytes of peak RSS),
# and leaves it alone when it is under NO_MOVE.
MOVES = 0.05
NO_MOVE = 0.01
ALL = ("sweep-all-n3", "kernels-maps-n3", "object-path")
NOTES = [
    "end_to_end: the ten trace-0 runs per workload, one seed each; spread is (q3 - q1) / median",
    "per_layer: one trace-1 run per workload, values per traced pass",
    "bytes_in and enumeration.materialized_bytes are computed from array shapes, not measured",
    "shares: layer metric over trace.wall_s, trace.setup_s, or the median peak RSS in bytes",
]


def _others(*on):
    return [w for w in ALL if w not in on]


# (layer metrics, end-to-end metric moved or None for "no measurable move",
#  workloads it moves on, workloads it does not move on)
PREDICTIONS = [
    (["enumeration.all_tables_block.s", "enumeration.iter_table_chunks.s"],
     "wall_s", ["sweep-all-n3"], ["kernels-maps-n3"]),
    (["enumeration.materialized_bytes"], "peak_rss_mb", ["sweep-all-n3"], _others("sweep-all-n3")),
    (["kernels.symmetry_flags.n3.s"], "wall_s", ["sweep-all-n3"], ["object-path"]),
    ([f"kernels.{k}.n3.s" for k in
      ("criteria_flags", "roundtrip_flags", "formula_flags", "axiom_flags", "isotonic_all_pairs")],
     "wall_s", ["kernels-maps-n3"], ["sweep-all-n3"]),
    (["kernels.map_flags.n3.s", "kernels.build_map_tables.s"], "wall_s", ["kernels-maps-n3"],
     _others("kernels-maps-n3")),
    (["enumeration.sample_tables.s"], "wall_s", ["object-path"], ["kernels-maps-n3"]),
    ([f"separation.{f}.s" for f in
      ("make_relation", "check_relation_conditions", "closure_from_relation", "separated_pairs")]
     + ["core.axiom_profile.s", "core.symmetry_profile.s"],
     "wall_s", ["object-path"], _others("object-path")),
    (["claims.verify_claim.self_s", "claims.hunt_counterexample.self_s"],
     "wall_s", ["sweep-all-n3"], ["kernels-maps-n3"]),
    ([f"enumeration.{f}.s" for f in ("upset_families", "isotonic_tables", "extsep_tables")],
     "setup_s", ["kernels-maps-n3", "object-path"], ["sweep-all-n3"]),
    (["formats.documents.s", "maps.make_map.s", "cli.self_s"], None, ["object-path"], _others("object-path")),
]


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    record = json.loads((ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": json.loads(proc.stdout.strip().splitlines()[-1]), "record": record["record"]}


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within_bound": spread <= bound, "within_third": spread < bound / 3, "values": values}


def share(layer: dict, e2e: dict, metric: str, moved: str | None) -> float:
    value = layer[metric]
    if moved == "peak_rss_mb":
        return value / (e2e["peak_rss_mb"]["median"] * 2**20)
    if moved == "setup_s":
        return value / layer["trace.setup_s"]
    return value / layer["trace.wall_s"]


def check_predictions(workloads: dict) -> list[dict]:
    out = []
    for metrics, moved, on, off in PREDICTIONS:
        failures = []
        shares = {}
        for w in [*on, *off]:
            layer, e2e = workloads[w]["per_layer"], workloads[w]["end_to_end"]
            shares[w] = {m: share(layer, e2e, m, moved) for m in metrics}
            for m, s in shares[w].items():
                if w in on and moved is not None and s < MOVES:
                    failures.append(f"{m} is {s:.2%} of {moved} on {w}, under {MOVES:.0%}")
                if (w in off or moved is None) and s >= NO_MOVE:
                    failures.append(f"{m} is {s:.2%} of {moved or 'wall_s'} on {w}, not under {NO_MOVE:.0%}")
        out.append({"metrics": metrics, "moves": moved or "no measurable move of wall_s",
                    "on": on, "no_move_on": off, "held": not failures,
                    "failures": failures, "shares": shares})
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", nargs="*", default=list(ALL))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--write", action="store_true", help="store perfbench/baseline.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}

    runs: dict[str, list[dict]] = {w: [] for w in args.workload}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in args.workload:
            runs[w].append(run(w, seed, 0))
            res = runs[w][-1]["result"]
            print(f"seed={seed} {w} correct={res['correct']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)

    workloads = {}
    for w, rs in runs.items():
        e2e = {m: summarize([r["result"]["metrics"][m]["value"] for r in rs], bounds[m]) for m in bounds}
        attempted = sum(r["result"]["attempted"] for r in rs)
        failed = sum(r["result"]["failed"] for r in rs)
        workloads[w] = {"why": why[w], "runs": len(rs), "attempted": attempted, "failed": failed,
                        "failed_ops_ratio": failed / attempted, "end_to_end": e2e}
        for m, s in e2e.items():
            flag = "ok" if s["within_third"] else ("WITHIN BOUND" if s["within_bound"] else "OVER BOUND")
            print(f"{w:14s} {m:16s} median={s['median']:.5g} spread={s['spread']:.4f} "
                  f"bound={s['bound']} {flag}")
    if set(args.workload) == set(ALL):
        for w in ALL:
            traced = run(w, args.first_seed, 1)
            workloads[w]["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
            workloads[w]["trace_correct"] = traced["result"]["correct"]
        predictions = check_predictions(workloads)
        for p in predictions:
            print(("held  " if p["held"] else "FAILED ") + ", ".join(p["metrics"]))
            for f in p["failures"]:
                print("    " + f)
    else:
        predictions = None
    if args.write:
        BASELINE.write_text(json.dumps({
            "record": runs[args.workload[0]][0]["record"],
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "run_seconds": bench["run_seconds"],
            "notes": NOTES,
            "thresholds": {"moves": MOVES, "no_move": NO_MOVE},
            "workloads": workloads,
            "predictions": predictions,
            "failed_predictions": [f for p in predictions or [] for f in p["failures"]],
        }, indent=1) + "\n")


if __name__ == "__main__":
    main()
