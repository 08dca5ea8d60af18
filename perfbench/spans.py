"""Span tracing for the benchmark's traced run, kept outside the package.

``Tracer.install`` replaces each traced function of ``closurespaces`` in
every module namespace that binds it (``claims.iter_table_chunks`` as well
as ``enumeration.iter_table_chunks``), so calls are seen where their callers
look them up.  ``_kernels.kernel`` is wrapped so that the kernel it returns
is timed; ``SeparationRelation.contains`` is only counted, because it runs
millions of times.  ``uninstall`` restores the originals.

Spans live in memory, one stack and one segment list per thread, because
``verify --workers 2`` runs kernels on pool threads.  A segment is an
interval during which one span is the innermost open span of its thread.
``apportion`` splits wall time among the segments open at each instant:
shares are equal, except that a span marked as waiting (the main thread
blocked on the pool) gets nothing while any other thread works.  The self
times of all spans, plus the harness's time outside ``cli.main``, must then
add up to the wall time of the traced pass; ``per_layer_metrics`` checks it.
"""

from __future__ import annotations

import importlib
import re
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "claims", "enumeration", "_kernels", "core", "separation", "maps", "formats")
TABLE_KERNELS = (
    "axiom_flags",
    "symmetry_flags",
    "criteria_flags",
    "roundtrip_flags",
    "formula_flags",
    "isotonic_all_pairs",
)

# (module, attribute, span key); the key's first component names the layer
_SPANS = [
    ("cli", "main", "cli.main"),
    ("claims", "verify_claim", "claims.verify_claim"),
    ("claims", "hunt_counterexample", "claims.hunt_counterexample"),
    ("enumeration", "all_tables_block", "enumeration.all_tables_block"),
    ("enumeration", "sample_tables", "enumeration.sample_tables"),
    ("enumeration", "all_assignments", "enumeration.all_assignments"),
    ("enumeration", "upset_families", "enumeration.upset_families"),
    ("enumeration", "isotonic_tables", "enumeration.isotonic_tables"),
    ("enumeration", "extsep_tables", "enumeration.extsep_tables"),
    ("_kernels", "build_map_tables", "kernels.build_map_tables"),
    ("separation", "make_relation", "separation.make_relation"),
    ("separation", "check_relation_conditions", "separation.check_relation_conditions"),
    ("separation", "closure_from_relation", "separation.closure_from_relation"),
    ("separation", "separated_pairs", "separation.separated_pairs"),
    ("core", "axiom_profile", "core.axiom_profile"),
    ("core", "symmetry_profile", "core.symmetry_profile"),
    ("maps", "make_map", "maps.make_map"),
    ("formats", "space_document", "formats.documents"),
    ("formats", "relation_document", "formats.documents"),
    ("formats", "map_document", "formats.documents"),
]
_ROWS = {"enumeration.all_tables_block", "enumeration.sample_tables"}


def layer_of(key: str) -> str:
    head = key.split(".", 1)[0]
    return "_kernels" if head == "kernels" else head


class _Thread:
    """Per-thread span stack, segments and per-key counters."""

    __slots__ = ("stack", "last", "segments", "stats", "open_keys")

    def __init__(self) -> None:
        self.stack: list[tuple[str, bool, float]] = []
        self.last = 0.0
        self.segments: list[tuple[float, float, str, bool]] = []
        # key -> [calls, inclusive seconds, rows, bytes]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0, 0])
        self.open_keys: dict[str, int] = defaultdict(int)


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_Thread] = []
        self._patches: list[tuple[object, str, object]] = []
        self.materialized_bytes = 0

    # -- recording --------------------------------------------------------

    def _state(self) -> _Thread:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _Thread()
            with self._lock:
                self._threads.append(st)
        return st

    def _push(self, st: _Thread, key: str, waiting: bool) -> None:
        now = perf_counter()
        if st.stack:
            top_key, top_waiting, _ = st.stack[-1]
            st.segments.append((st.last, now, top_key, top_waiting))
        st.stack.append((key, waiting, now))
        st.open_keys[key] += 1
        st.last = now

    def _pop(self, st: _Thread, rows: int = 0, nbytes: int = 0) -> None:
        now = perf_counter()
        key, waiting, start = st.stack.pop()
        st.segments.append((st.last, now, key, waiting))
        st.last = now
        st.open_keys[key] -= 1
        stat = st.stats[key]
        stat[0] += 1
        if not st.open_keys[key]:  # count a recursive key's time once
            stat[1] += now - start
        stat[2] += rows
        stat[3] += nbytes

    def _span(self, fn, key: str, waiting: bool = False, measure=None):
        def traced(*args, **kwargs):
            st = self._state()
            self._push(st, key, waiting)
            rows = nbytes = 0
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    rows, nbytes = measure(args, result)
                return result
            finally:
                self._pop(st, rows, nbytes)

        return traced

    def _chunks(self, fn):
        """Time each step of a chunk generator; record the bytes one call
        yields in total, since the claims layer materializes the stream."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            total = 0
            while True:
                st = self._state()
                self._push(st, "enumeration.iter_table_chunks", False)
                try:
                    chunk = next(it)
                except StopIteration:
                    break
                finally:
                    self._pop(st)
                total += chunk.nbytes
                self.materialized_bytes = max(self.materialized_bytes, total)
                yield chunk

        return traced

    def _kernel_factory(self, fetch):
        def kernel(name, *args, **kwargs):
            k = fetch(name, *args, **kwargs)
            if name == "map_flags":
                def measure(a, out):
                    return out.shape[0] * out.shape[1] * out.shape[2], 0

                def key_of(a):
                    nx, ny = a[4], a[5]
                    return f"kernels.map_flags.n{nx}" if nx == ny else f"kernels.map_flags.n{nx}x{ny}"
            else:
                def measure(a, out):
                    rows = a[0].shape[0]
                    return rows, rows * (1 << a[1]) * 8  # computed, not measured

                def key_of(a):
                    return f"kernels.{name}.n{a[1]}"

            def timed(*a):
                return self._span(k, key_of(a), measure=measure)(*a)

            return timed

        return kernel

    def _pool(self, fn):
        """Count chunk jobs; the caller waits while pool threads evaluate."""

        def traced(jobs, job_fn, workers):
            st = self._state()
            st.stats["claims.chunks"][0] += len(jobs)
            inner = self._span(job_fn, "claims.verify_claim")
            return self._span(fn, "claims.verify_claim", waiting=True)(jobs, inner, workers)

        return traced

    def _counter(self, fn, key: str):
        def counted(*args):
            self._state().stats[key][0] += 1
            return fn(*args)

        return counted

    # -- installing -------------------------------------------------------

    def _replace(self, original, replacement) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "closurespaces" and not name.startswith("closurespaces."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        mods = {name: importlib.import_module(f"closurespaces.{name}") for name in LAYERS}
        _kernels, claims = mods["_kernels"], mods["claims"]
        enumeration, separation = mods["enumeration"], mods["separation"]

        def rows_of(args, result):
            return result.shape[0], 0

        for mod_name, attr, key in _SPANS:
            fn = getattr(mods[mod_name], attr)
            self._replace(fn, self._span(fn, key, measure=rows_of if key in _ROWS else None))
        fn = enumeration.iter_table_chunks
        self._replace(fn, self._chunks(fn))
        self._replace(_kernels.kernel, self._kernel_factory(_kernels.kernel))
        self._replace(claims._run_ordered, self._pool(claims._run_ordered))
        contains = separation.SeparationRelation.contains
        self._patches.append((separation.SeparationRelation, "contains", contains))
        separation.SeparationRelation.contains = self._counter(contains, "separation.contains")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- reading ----------------------------------------------------------

    def open_spans(self) -> int:
        return sum(len(st.stack) for st in self._threads)

    def stats(self) -> dict[str, list]:
        merged: dict[str, list] = defaultdict(lambda: [0, 0.0, 0, 0])
        for st in self._threads:
            for key, stat in st.stats.items():
                for i, v in enumerate(stat):
                    merged[key][i] += v
        return merged

    def apportion(self) -> dict[str, float]:
        """Self seconds per key: each instant goes to the innermost spans
        open on the threads at that instant (see the module docstring)."""
        events = []
        for tid, st in enumerate(self._threads):
            for t0, t1, key, waiting in st.segments:
                if t1 > t0:
                    events.append((t0, 1, tid, key, waiting))
                    events.append((t1, 0, tid, key, waiting))
        events.sort(key=lambda e: (e[0], e[1]))
        self_s: dict[str, float] = defaultdict(float)
        active: dict[int, tuple[str, bool]] = {}
        prev = 0.0
        for t, starting, tid, key, waiting in events:
            if active and t > prev:
                owners = [k for k, w in active.values() if not w] or [k for k, _ in active.values()]
                for k in owners:
                    self_s[k] += (t - prev) / len(owners)
            prev = t
            if starting:
                active[tid] = (key, waiting)
            else:
                del active[tid]
        return self_s

    def spans_dump(self, t_origin: float) -> list[list]:
        """Segments as [thread, key, start, end], relative to ``t_origin``."""
        return [
            [tid, key, round(t0 - t_origin, 7), round(t1 - t_origin, 7)]
            for tid, st in enumerate(self._threads)
            for t0, t1, key, _ in st.segments
        ]


def per_layer_metrics(
    passes: list[tuple[Tracer, float, float]],
    setup: Tracer,
    untraced_walls: list[float],
    cpu_util: float,
    setup_s: float,
) -> tuple[dict[str, float], list[str]]:
    """Per-pass layer metrics from the traced passes, and the accounting
    errors found (spans left open, self times not summing to wall time)."""
    k = len(passes)
    stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0, 0])
    self_s: dict[str, float] = defaultdict(float)
    unattributed = wall = 0.0
    errors = []
    for tracer, t0, t1 in passes:
        if tracer.open_spans():
            errors.append(f"{tracer.open_spans()} spans left open")
        for key, stat in tracer.stats().items():
            for i, v in enumerate(stat):
                stats[key][i] += v
        shares = tracer.apportion()
        for key, v in shares.items():
            self_s[key] += v
        # the harness's own time between CLI calls
        gap = (t1 - t0) - tracer.stats()["cli.main"][1]
        unattributed += gap
        wall += t1 - t0
        accounted = sum(shares.values()) + gap
        if abs(accounted - (t1 - t0)) > 1e-6:
            errors.append(f"self times and unattributed sum to {accounted:.6f}s over a {t1 - t0:.6f}s pass")

    def calls(key):
        return stats[key][0] // k

    def secs(key):
        return stats[key][1] / k

    def rows(key):
        return stats[key][2] // k

    m: dict[str, float] = {}

    def per_row(key):
        m[f"{key}.s"] = secs(key)
        m[f"{key}.rows"] = rows(key)
        m[f"{key}.us_per_row"] = stats[key][1] / stats[key][2] * 1e6 if stats[key][2] else 0.0

    per_row("enumeration.all_tables_block")
    per_row("enumeration.sample_tables")
    m["enumeration.iter_table_chunks.s"] = secs("enumeration.iter_table_chunks")
    m["enumeration.materialized_bytes"] = max(t.materialized_bytes for t, _, _ in passes)
    setup_stats = setup.stats()
    for name in ("upset_families", "isotonic_tables", "extsep_tables"):
        m[f"enumeration.{name}.s"] = setup_stats[f"enumeration.{name}"][1]

    for name in TABLE_KERNELS:
        for n in (3, 4):
            key = f"kernels.{name}.n{n}"
            per_row(key)
            m[f"{key}.bytes_in"] = stats[key][3] // k
    per_row("kernels.map_flags.n3")
    m["kernels.build_map_tables.s"] = secs("kernels.build_map_tables")
    # kernels at n <= 2, which in these workloads only the hunts run
    small = [key for key in stats if re.fullmatch(r"kernels\.\w+\.n[12](x[12])?", key)]
    m["kernels.small_n.s"] = sum(stats[key][1] for key in small) / k
    m["kernels.small_n.rows"] = sum(stats[key][2] for key in small) // k

    for key in (
        "separation.make_relation",
        "separation.check_relation_conditions",
        "separation.closure_from_relation",
        "separation.separated_pairs",
        "core.axiom_profile",
        "core.symmetry_profile",
        "formats.documents",
        "maps.make_map",
    ):
        m[f"{key}.calls"] = calls(key)
        m[f"{key}.s"] = secs(key)
    m["separation.contains.calls"] = calls("separation.contains")

    m["claims.verify_claim.self_s"] = self_s["claims.verify_claim"] / k
    m["claims.hunt_counterexample.self_s"] = self_s["claims.hunt_counterexample"] / k
    m["claims.chunks"] = calls("claims.chunks")
    m["claims.cpu_util"] = cpu_util
    m["cli.self_s"] = self_s["cli.main"] / k

    layer_self = defaultdict(float)
    for key, v in self_s.items():
        layer_self[layer_of(key)] += v
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer] / k

    m["trace.wall_s"] = wall / k
    m["trace.unattributed_s"] = unattributed / k
    m["trace.overhead_ratio"] = (wall / k) / statistics.median(untraced_walls)
    m["trace.setup_s"] = setup_s
    return m, errors
