"""Check the result of a benchmark smoke run, the last line of
``perfbench/run.py`` output saved as ``last.json`` in the working directory:
it must be correct with 0 failed, the untraced sweep-all-n3 run must peak
under 200 MB, and a traced run must reach the pinned row, call and chunk
counts.

Usage: python .github/scripts/check_smoke.py TRACE  (TRACE is 0 or 1, as
passed to perfbench/run.py --trace)
"""

import json
import sys

result = json.load(open("last.json"))
if result["correct"] is not True or result["failed"] != 0:
    sys.exit(f"benchmark not correct: correct={result['correct']} failed={result['failed']}")
peak = result["metrics"].get("sweep-all-n3.peak_rss_mb")  # untraced run only
if peak is not None and peak["value"] > 200:
    sys.exit(f"sweep-all-n3 peak RSS {peak['value']:.0f} MB is over 200 MB")
if sys.argv[1] == "1":
    # the rows and chunk jobs of one pass, pinned exactly: a kernel
    # called around _kernels.kernel, or a sweep loop that bypasses
    # claims._run_ordered, would read 0 here, and a table array in
    # the transposed (2**n, count) shape would read 2**n rows a call;
    # the audit's object-level side is pinned too, so a change that
    # routed axioms-equiv-check through the kernels alone would read 0
    expected = {
        "kernels-maps-n3.kernels.axiom_flags.n3.rows": 255200,
        "kernels-maps-n3.kernels.criteria_flags.n3.rows": 255200,
        "kernels-maps-n3.kernels.formula_flags.n3.rows": 51040,
        "kernels-maps-n3.kernels.symmetry_flags.n3.rows": 8000,
        "kernels-maps-n3.kernels.roundtrip_flags.n3.rows": 1736,
        "kernels-maps-n3.kernels.map_flags.n3.rows": 8640000,
        "object-path.kernels.isotonic_all_pairs.n3.rows": 5000,
        "object-path.core.axiom_profile.calls": 5000,
        "object-path.core.symmetry_profile.calls": 5000,
        "sweep-all-n3.kernels.symmetry_flags.n3.rows": 16777216,
        "sweep-all-n3.enumeration.all_tables_block.rows": 16777216,
        "sweep-all-n3.claims.chunks": 1024,
        "kernels-maps-n3.claims.chunks": 562,
        "object-path.claims.chunks": 10,
    }
    for name, want in expected.items():
        got = result["metrics"].get(name, {}).get("value", 0)
        if got != want:
            sys.exit(f"traced {name} = {got}, expected {want}")
