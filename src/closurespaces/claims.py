"""Claim catalog plus the verification sweep and counterexample hunt.

Each claim is data: a tuple of :class:`Implication` between named
predicates, each over a universe: a generator class, the relations, or a
(domain class, codomain class) pair for the maps from one class to
another.  An iff is two implications, one each way, so an instance on which
its two sides differ violates exactly one of them.  A negative claim is one
implication over class 'all' that the catalog does not assert; a hunt
searches for a witness against it.  The harness evaluates every predicate
definitionally through the batch kernels (or the plain library functions
for the slow audit predicate), so no claim is checked by the implication it
states.

One evaluator, :func:`_violations`, serves the claims over spaces, maps
and relations, and the hunts: on a block of instances it counts the
(instance, implication) pairs whose hypothesis holds and whose conclusions
do not all hold, and names the instances of the first VIOLATION_CAP in
sweep order (instance by instance, implications in catalog order).
Predicate columns are bool, as the kernels return them.  One builder,
:func:`_step`, sets up every sweep step, a verify group's or a hunt's: the
block function, which returns the instances it checked, that count and the
rows of those first violations; the universe's witness formatter; and the
domain chunk size.  A verify sweep merges the block results in
:func:`verify_claim`.  A hunt evaluates its negative claim's implication and
runs one loop over size steps: n for a space claim, and (nx, ny)
ordered by nx + ny, then nx, for a map claim, whose universe is a pair.
Each step evaluates the lexicographic prefix of the domain tables at nx
that the rest of the budget affords, block by block, and stops at the
first block with a violation; a step that affords none is skipped before
its codomain is built.

A relation claim is a space claim over the universe 'relations', whose rows
are separation rows (``_kernels``' relation format) rather than tables.

The budget counts predicate evaluations: an instance costs 4**n subset-pair
evaluations as a space or a map, and 8**n as a relation, whose conditions
compare subset triples (:func:`_instance_cost`, which the hunts read too).
For each group of implications over one universe, :func:`_plan` alone reads
the budget and decides, from the universe's size and before any table is
loaded, what the sweep covers: the whole universe when it streams (n <= 3
for a class, n <= 2 for the relations and for maps with class 'all' on
either side) and fits the budget, and a seeded sample otherwise, which the
report flags with exhaustive=false.

Chunks of the universe are then evaluated one at a time, in order, on the
calling thread, and merged in that order; a report keeps the first
VIOLATION_CAP witnesses in sweep order, sorted canonically, so it is
identical for any chunk size.  A chunk of a space sweep over class 'all'
is decoded from its block of the lexicographic universe only when its turn
comes; every other chunk, a map sweep's domain chunks among them, is a
slice of an array already in memory.  A chunk's evaluation returns only its
counts and one copy of the rows of its first VIOLATION_CAP violations, so
at most one decoded chunk of class 'all' is in memory, whatever the
universe; the merge formats only the witnesses the report keeps.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np

from . import _kernels, formats
from .core import (
    AxiomProfile,
    ClosureSpaceError,
    Space,
    SymmetryProfile,
    axiom_profile,
    ground,
    symmetry_profile,
)
from .enumeration import (
    _CHUNK,
    _STREAM_MAX_N,
    SAMPLE_MAX_N,
    UniverseTooLarge,
    _matrix_rows,
    all_assignments,
    all_tables_block,
    chunk_loaders,
    class_size,
    sample_tables,
    slice_loaders,
)
from .maps import MapProfile, make_map
from .separation import SeparationRelation

DEFAULT_EVAL_BUDGET = 10**8
SAMPLE_CAP = 5000
MAP_SAMPLE_CAP = 200
VIOLATION_CAP = 100


class UnknownClaim(ClosureSpaceError):
    """Claim id not present in the catalog."""


class InvalidSweepArgument(ClosureSpaceError):
    """Carrier size or budget below 1, a budget that affords no sample, or a
    negative seed or hunt budget."""


def _require_at_least(low: int, **values: int) -> None:
    for name, value in values.items():
        if value < low:
            raise InvalidSweepArgument(f"{name} must be at least {low}, got {value}")


@dataclass(frozen=True)
class Implication:
    """On every instance of ``universe``, the hypotheses together imply the
    conclusions together.  The universe is a generator class, 'relations',
    or a (domain class, codomain class) pair for the maps between them."""

    universe: str | tuple[str, str]
    hypothesis: tuple[str, ...]
    conclusion: tuple[str, ...]


@dataclass(frozen=True)
class Claim:
    id: str
    description: str
    implications: tuple[Implication, ...]


@dataclass
class VerificationReport:
    claim_id: str
    n: int
    instances_checked: int
    violations: list[dict] = field(default_factory=list)
    total_violations: int = 0
    elapsed: float = 0.0
    exhaustive: bool = True

    def summary(self) -> str:
        flag = "true" if self.exhaustive else "false"
        return (
            f"claim={self.claim_id} n={self.n} checked={self.instances_checked} "
            f"violations={self.total_violations} exhaustive={flag}"
        )


def _canonical_key(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

CATALOG: dict[str, Claim] = {
    c.id: c
    for c in [
        Claim(
            "axioms-equiv-check",
            "fast profile evaluation agrees with the literal definitional sweep",
            (Implication("all", (), ("profile_consistent",)),),
        ),
        Claim(
            "cor-r0",
            "exterior-separated spaces are pointwise-symmetric and r0",
            (Implication("all", ("exterior_separated",), ("pointwise_symmetric", "r0")),),
        ),
        Claim(
            "thm-equiv-isotonic",
            "pointwise-symmetric, r0, and exterior-separated coincide on isotonic spaces",
            (
                Implication("isotonic", ("pointwise_symmetric",), ("r0",)),
                Implication("isotonic", ("r0",), ("exterior_separated",)),
                Implication("isotonic", ("exterior_separated",), ("pointwise_symmetric",)),
            ),
        ),
        Claim(
            "thm-clthm-formula",
            "closure tables of exterior-separated spaces are determined by their separated pairs",
            (Implication("exterior_separated", (), ("reconstruction_formula",)),),
        ),
        Claim(
            "thm-reconstruct",
            "relations passing both conditions rebuild an isotonic pointwise-symmetric space with the same separated pairs",
            (
                Implication(
                    "relations",
                    ("reconstruction_conditions",),
                    ("rebuilt_isotonic", "rebuilt_pointwise_symmetric", "rebuilt_same_pairs"),
                ),
            ),
        ),
        Claim(
            "thm-roundtrip",
            "isotonic pointwise-symmetric spaces survive the relation round-trip",
            (Implication("isotonic_pointwise_symmetric", (), ("roundtrip",)),),
        ),
        Claim(
            "thm-crit-grounded",
            "the relation-level groundedness criterion matches the axiom on exterior-separated spaces",
            (
                Implication("exterior_separated", ("grounded",), ("grounded_crit",)),
                Implication("exterior_separated", ("grounded_crit",), ("grounded",)),
            ),
        ),
        Claim(
            "thm-crit-enlarging",
            "the disjoint-pairs criterion matches the enlarging axiom on exterior-separated spaces",
            (
                Implication("exterior_separated", ("enlarging",), ("enlarging_crit",)),
                Implication("exterior_separated", ("enlarging_crit",), ("enlarging",)),
            ),
        ),
        Claim(
            "thm-crit-sublinear",
            "the union-closure criterion matches the sub-linear axiom on exterior-separated spaces",
            (
                Implication("exterior_separated", ("sublinear",), ("sublinear_crit",)),
                Implication("exterior_separated", ("sublinear_crit",), ("sublinear",)),
            ),
        ),
        Claim(
            "thm-idem-sufficient",
            "on enlarging exterior-separated spaces the sufficiency condition forces idempotence",
            (
                Implication(
                    "exterior_separated",
                    ("enlarging", "idempotent_sufficient"),
                    ("idempotent",),
                ),
            ),
        ),
        Claim(
            "thm-idem-necessary",
            "isotonic idempotent exterior-separated spaces satisfy the sufficiency condition",
            (
                Implication(
                    "exterior_separated",
                    ("isotonic", "idempotent"),
                    ("idempotent_sufficient",),
                ),
            ),
        ),
        Claim(
            "thm-cp-cont",
            "closure-preserving and continuous imply each other across isotonic sides",
            (
                Implication(("all", "isotonic"), ("closure_preserving",), ("continuous",)),
                Implication(("isotonic", "all"), ("continuous",), ("closure_preserving",)),
            ),
        ),
        Claim(
            "thm-cp-implies-ns",
            "closure-preserving maps are nonseparating, with no axioms on either side",
            (Implication(("all", "all"), ("closure_preserving",), ("nonseparating",)),),
        ),
        Claim(
            "cor-cont-implies-ns",
            "continuous maps with isotonic domain are nonseparating",
            (Implication(("isotonic", "all"), ("continuous",), ("nonseparating",)),),
        ),
        Claim(
            "thm-preimage",
            "nonseparating matches preimage separation across isotonic sides",
            (
                Implication(("all", "isotonic"), ("nonseparating",), ("preimage_separating",)),
                Implication(("isotonic", "all"), ("preimage_separating",), ("nonseparating",)),
            ),
        ),
        Claim(
            "thm-ns-iff-cp",
            "nonseparating equals closure-preserving onto exterior-separated codomains",
            (
                Implication(
                    ("all", "exterior_separated"), ("nonseparating",), ("closure_preserving",)
                ),
                Implication(
                    ("all", "exterior_separated"), ("closure_preserving",), ("nonseparating",)
                ),
            ),
        ),
        Claim(
            "cor-ns-iff-cont",
            "nonseparating equals continuous for isotonic spaces with pointwise-symmetric codomain",
            (
                Implication(
                    ("isotonic", "isotonic_pointwise_symmetric"),
                    ("nonseparating",),
                    ("continuous",),
                ),
                Implication(
                    ("isotonic", "isotonic_pointwise_symmetric"),
                    ("continuous",),
                    ("nonseparating",),
                ),
            ),
        ),
    ]
}

NEGATIVE_CATALOG: dict[str, Claim] = {
    c.id: c
    for c in [
        Claim(
            "neg-pws-not-extsep",
            "pointwise-symmetric does not imply exterior-separated in general",
            (Implication("all", ("pointwise_symmetric",), ("exterior_separated",)),),
        ),
        Claim(
            "neg-r0-not-extsep",
            "r0 does not imply exterior-separated in general",
            (Implication("all", ("r0",), ("exterior_separated",)),),
        ),
        Claim(
            "neg-cont-not-cp",
            "continuity does not imply closure preservation in general",
            (Implication(("all", "all"), ("continuous",), ("closure_preserving",)),),
        ),
        Claim(
            "neg-cp-not-cont",
            "closure preservation does not imply continuity in general",
            (Implication(("all", "all"), ("closure_preserving",), ("continuous",)),),
        ),
        Claim(
            "neg-ns-not-cp",
            "nonseparating does not imply closure-preserving in general",
            (Implication(("all", "all"), ("nonseparating",), ("closure_preserving",)),),
        ),
        Claim(
            "neg-ns-not-cont",
            "nonseparating does not imply continuity in general",
            (Implication(("all", "all"), ("nonseparating",), ("continuous",)),),
        ),
    ]
}


# ---------------------------------------------------------------------------
# predicate evaluation over table chunks
# ---------------------------------------------------------------------------


def _names(profile: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(profile))


# the predicates each kernel flags, in column order; a kernel that computes a
# library profile flags its fields.  A kernel of several columns takes the
# indices of the columns to return as a third argument; map_flags reads the
# columns of the bound words build_map_tables was asked for
_KERNEL_FLAGS = {
    "axiom_flags": _names(AxiomProfile),
    "symmetry_flags": _names(SymmetryProfile),
    "criteria_flags": ("grounded_crit", "enlarging_crit", "sublinear_crit", "idempotent_sufficient"),
    "formula_flags": ("reconstruction_formula",),
    "roundtrip_flags": ("roundtrip",),
    "reconstruct_flags": (
        "reconstruction_conditions",
        "rebuilt_isotonic",
        "rebuilt_pointwise_symmetric",
        "rebuilt_same_pairs",
    ),
    "map_flags": _names(MapProfile),
}
_FLAG_COLUMNS = {
    name: (kernel_name, column)
    for kernel_name, names in _KERNEL_FLAGS.items()
    for column, name in enumerate(names)
}


def _profile_consistent(tables: np.ndarray, n: int) -> np.ndarray:
    """Fast isotonicity against the all-pairs sweep, and the axiom and
    symmetry kernels against the plain per-space library evaluation."""
    ax = _kernels.kernel("axiom_flags")(tables, n)
    ok = ax[:, 1] == _kernels.kernel("isotonic_all_pairs")(tables, n)
    ax_rows = ax.tolist()
    sym_rows = _kernels.kernel("symmetry_flags")(tables, n).tolist()
    g = ground(n)
    for i, row in enumerate(tables.tolist()):
        sp = Space(g, tuple(row))
        same = axiom_profile(sp) == AxiomProfile(*ax_rows[i])
        ok[i] &= same and symmetry_profile(sp) == SymmetryProfile(*sym_rows[i])
    return ok


def _space_witness(n: int, row: np.ndarray) -> dict:
    sp = Space(ground(n), tuple(row.tolist()))
    return {"kind": "space", "n": n, "space": formats.space_document(sp)}


def _relation_witness(n: int, row: np.ndarray) -> dict:
    rel = SeparationRelation(ground(n), tuple(row.tolist()))
    return {"kind": "relation", "n": n, "relation": formats.relation_document(rel)}


def _map_witness(nx: int, ny: int, row: np.ndarray) -> dict:
    # row: the domain table, the codomain table, then the assignment
    sx, sy = 1 << nx, 1 << ny
    spx = Space(ground(nx), tuple(row[:sx].tolist()))
    spy = Space(ground(ny), tuple(row[sx : sx + sy].tolist()))
    mp = make_map(spx, spy, tuple(row[sx + sy :].tolist()))
    return {"kind": "map", "nx": nx, "ny": ny, "map": formats.map_document(mp)}


def _violations(shape: tuple, columns: dict, implications) -> tuple[int, tuple]:
    """Evaluate implications on a block of instances indexed by ``shape``.

    ``columns`` maps each predicate the implications name to its bool
    column over the block (broadcastable to ``shape``); a column may be a
    view of a kernel's output, so it is read, never written.  Returns the
    number of (instance, implication) pairs whose hypothesis holds and
    whose conclusions do not all hold, and the instances of the first
    VIOLATION_CAP of them in sweep order (instance by instance, each
    instance's implications in the order given) as one index array per axis
    of ``shape``.
    """

    def holds(names: tuple[str, ...]) -> np.ndarray:
        mask = np.ones(shape, bool)
        for name in names:
            mask &= columns[name]
        return mask

    bad = np.stack([holds(i.hypothesis) & ~holds(i.conclusion) for i in implications], axis=-1)
    first = np.unravel_index(np.flatnonzero(bad)[:VIOLATION_CAP], bad.shape)[:-1]
    return int(np.count_nonzero(bad)), first


def _step(nx: int, ny: int, implications, ty: np.ndarray | None = None) -> tuple:
    """Set up one sweep step over the universe of ``implications``: returns
    the block function, the witness formatter and the domain chunk size.

    The block function runs :func:`_violations` over a block of instances
    and returns the instances it checked, the violation count and a copy of
    the rows of the first VIOLATION_CAP; the formatter makes a document of
    one such row.

    The step works out once, for any universe, which columns each kernel
    must supply for the predicates the implications read, sorted, and where
    each predicate sits among them.  On each block it hands
    :func:`_violations` one view of a kernel's output per predicate, by
    name, plus the audit's ``profile_consistent`` column when it is named.

    Over spaces or relations, at n = nx, the block's rows are tables or
    separation rows, one instance each, and a chunk holds _CHUNK of them.
    A kernel is passed its columns, as a third positional argument, only
    when they are not all of its columns, so a one-column kernel never is.
    Over maps, a block is of domain tables at nx, and its instances are
    the maps into the codomain tables ``ty`` at ny, ordered by domain
    table, codomain table, then assignment (lexicographic); the bound words
    of ``ty`` for the map_flags columns are built once, here, and a chunk
    holds the domain tables that stand for at most _CHUNK maps, and at
    least one.
    """
    universe = implications[0].universe
    names = {name for i in implications for name in i.hypothesis + i.conclusion}
    # _FLAG_COLUMNS lists each kernel's columns in order, so these are sorted
    columns: dict[str, tuple[int, ...]] = {}
    for name, (kernel_name, column) in _FLAG_COLUMNS.items():
        if name in names:
            columns[kernel_name] = columns.get(kernel_name, ()) + (column,)
    where = {
        name: (k, columns[k].index(c)) for name, (k, c) in _FLAG_COLUMNS.items() if name in names
    }
    if not isinstance(universe, tuple):
        args = {k: (c,) if len(c) < len(_KERNEL_FLAGS[k]) else () for k, c in columns.items()}

        def evaluate(tables: np.ndarray) -> tuple[int, int, np.ndarray]:
            flags = {
                k: _kernels.kernel(k)(tables, nx, *a).reshape(tables.shape[0], -1)
                for k, a in args.items()
            }
            named = {name: flags[k][:, p] for name, (k, p) in where.items()}
            if "profile_consistent" in names:
                named["profile_consistent"] = _profile_consistent(tables, nx)
            total, (i,) = _violations(tables.shape[:1], named, implications)
            return tables.shape[0], total, tables[i]

        witness = _relation_witness if universe == "relations" else _space_witness
        return evaluate, partial(witness, nx), _CHUNK
    fmaps = all_assignments(nx, ny)
    # the builder's temporaries hold 2**max(nx, ny) entries per word, so it
    # takes _CHUNK // len(fmaps) codomain tables at a time
    loaders = slice_loaders(ty, max(1, _CHUNK // fmaps.shape[0]))
    bounds = np.concatenate(
        [_kernels.build_map_tables(load(), fmaps, nx, ny, columns["map_flags"]) for load in loaders]
    )
    map_flags = _kernels.kernel("map_flags")

    def evaluate(tx: np.ndarray) -> tuple[int, int, np.ndarray]:
        out = map_flags(tx, ty, fmaps, bounds, nx, ny)
        named = {name: out[..., p] for name, (_, p) in where.items()}
        total, (i, j, f) = _violations(out.shape[:3], named, implications)
        rows = np.concatenate([tx[i], ty[j], fmaps[f]], axis=1)
        return math.prod(out.shape[:3]), total, rows

    chunk = max(1, _CHUNK // (ty.shape[0] * fmaps.shape[0]))
    return evaluate, partial(_map_witness, nx, ny), chunk


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------


def _run_ordered(jobs: list, fn: Callable, workers: int) -> list:
    # workers is unused: a thread pool measured no faster than one thread on any sweep.
    # As it stands the package does not need this runner, a plain loop would do; it
    # stays because perfbench/spans.py wraps it by name to count chunk jobs, until the
    # benchmark re-pin (ROADMAP item 1) removes the workers parameter and the wrapper
    return [fn(j) for j in jobs]


def _instance_cost(n: int, universe: str | tuple[str, str] = "all") -> int:
    """Budget units one instance at carrier size n costs: 4**n subset-pair
    evaluations for a space or a map, 8**n subset triples for a relation."""
    return 8**n if universe == "relations" else 4**n


def _relation_sample(n: int, count: int, seed: int) -> np.ndarray:
    """Separation rows of ``count`` relations at size n, deterministic for a
    fixed seed.

    The sample takes the separation rows of (count + 1) // 2 isotonic
    pointwise-symmetric spaces, which meet both conditions, and follows each
    of the first count // 2 with a copy that has one uniformly drawn pair
    flipped, so that relations failing a condition are checked too."""
    size = 1 << n
    spaces = sample_tables(n, "isotonic_pointwise_symmetric", (count + 1) // 2, seed)
    derived = _kernels._separation_rows(spaces, n)
    rows = np.empty((count, size), derived.dtype, order="F")
    rows[0::2], rows[1::2] = derived, derived[: count // 2]
    flips = np.random.default_rng(seed).integers(0, size * (size + 1) // 2, size=count // 2)
    a, b = (side[flips] for side in np.triu_indices(size))
    i = np.arange(1, count, 2)  # the copies
    rows[i, a] ^= (1 << b).astype(rows.dtype)
    rows[i, b] ^= ((a != b) << a).astype(rows.dtype)  # the pair {a, a} is one bit
    return rows


def _plan(n: int, impls: list, budget: int, seed: int, gi: int) -> tuple:
    """What the sweep of one group of implications covers, decided before
    any table is loaded: returns the chunk loaders, the block function, the
    witness formatter and whether the sweep is exhaustive.  The group's step
    comes from :func:`_step`, which sets the chunk size; a map group loads
    its two sides first, and the step builds the codomain's bound words.

    The group's universe is a table class, the relations, or the maps from a
    domain class to a codomain class.  It is swept whole when it streams
    (n <= 3 for a class, n <= 2 for the relations) and its size fits the
    budget at :func:`_instance_cost` per instance; otherwise a seeded sample
    is, of at most SAMPLE_CAP rows, or MAP_SAMPLE_CAP tables per map side.
    A map sweep holds both sides, whole or sampled, and the codomain's bound
    words in memory (a whole side has at most 8,000 tables in the catalog:
    the isotonic class at n = 3), and checks one domain table per chunk once
    a domain table stands for more than _CHUNK maps, so maps with class
    'all' on either side are swept whole only up to n = 2.
    Group ``gi`` samples with seed + gi, or seed + 101 gi + 2 and + 3 for
    the two map sides.  No other part of a verify sweep reads the budget.
    Raises InvalidSweepArgument when the budget cannot pay for the smallest
    sample: one instance, or for maps one table per side under all n**n
    assignments.
    """
    if n > SAMPLE_MAX_N:
        # no universe at such n is sampled or streamed, so fail before any
        # class is counted or the n**n assignments are enumerated
        raise UniverseTooLarge(f"sampling is limited to n <= {SAMPLE_MAX_N}, got {n}")
    universe = impls[0].universe
    # a map sample's smallest unit is a domain and a codomain table under all n**n assignments
    fcount = n**n if isinstance(universe, tuple) else 1
    smallest = _instance_cost(n, universe) * fcount
    if budget < smallest:
        raise InvalidSweepArgument(
            f"budget {budget} affords no sample at n = {n}: the smallest costs {smallest}"
        )
    affordable = budget // _instance_cost(n, universe)
    rows = ty = None  # the domain rows in memory, and a map universe's codomain tables
    if isinstance(universe, tuple):  # the maps from one class to another
        cls_x, cls_y = universe
        exhaustive = (
            n <= _STREAM_MAX_N
            and ("all" not in universe or n <= 2)
            and class_size(n, cls_x) * class_size(n, cls_y) * fcount <= affordable
        )
        if exhaustive:
            rows, ty = (np.concatenate([load() for load in chunk_loaders(n, c)]) for c in universe)
        else:
            side = min(MAP_SAMPLE_CAP, math.isqrt(affordable // fcount))
            rows = sample_tables(n, cls_x, side, seed + 101 * gi + 2)
            ty = sample_tables(n, cls_y, side, seed + 101 * gi + 3)
    elif universe == "relations":
        pairs = (1 << n) * ((1 << n) + 1) // 2  # the pairs (a, b) with a <= b
        exhaustive = n <= 2 and (1 << pairs) <= affordable
        if exhaustive:  # relation m sets the pairs, in row-major order, as the bits of m
            rows = _matrix_rows(np.arange(1 << pairs), 1 << n).astype(_kernels._row_dtype(n))
        else:
            rows = _relation_sample(n, min(SAMPLE_CAP, affordable), seed + gi)
    else:
        exhaustive = n <= _STREAM_MAX_N and class_size(n, universe) <= affordable
        if not exhaustive:
            rows = sample_tables(n, universe, min(SAMPLE_CAP, affordable), seed + gi)
    evaluate, witness, chunk = _step(n, n, impls, ty)
    if rows is None:  # a whole class, decoded chunk by chunk
        loaders = chunk_loaders(n, universe, chunk_size=chunk)
    else:
        loaders = slice_loaders(rows, chunk)
    return loaders, evaluate, witness, exhaustive


def verify_claim(
    claim_id: str,
    n: int,
    budget: int = DEFAULT_EVAL_BUDGET,
    seed: int = 0,
) -> VerificationReport:
    """Sweep one catalog claim over its universe at carrier size n.

    The implications are swept in groups, one per universe, each as
    :func:`_plan` decides, one chunk at a time on the calling thread.  The
    report keeps the witnesses of the first VIOLATION_CAP violations in
    sweep order, sorted canonically.  Raises InvalidSweepArgument when n or
    budget is below 1 or seed below 0, before anything is swept, and when
    :func:`_plan` finds that the budget affords no sample of a group.
    """
    if claim_id not in CATALOG:
        raise UnknownClaim(f"unknown claim id: {claim_id!r}")
    _require_at_least(1, n=n, budget=budget)
    _require_at_least(0, seed=seed)
    claim = CATALOG[claim_id]
    start = time.perf_counter()
    report = VerificationReport(claim.id, n, 0)
    groups: dict = {}
    for impl in claim.implications:
        groups.setdefault(impl.universe, []).append(impl)
    for gi, impls in enumerate(groups.values()):
        loaders, evaluate, witness, exhaustive = _plan(n, impls, budget, seed, gi)
        results = _run_ordered(loaders, lambda load: evaluate(load()), 1)
        for checked, total, rows in results:
            report.instances_checked += checked
            report.total_violations += total
            report.violations.extend(map(witness, rows[: VIOLATION_CAP - len(report.violations)]))
        report.exhaustive = report.exhaustive and exhaustive
    report.violations.sort(key=_canonical_key)
    report.elapsed = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# counterexample hunts
# ---------------------------------------------------------------------------


def hunt_counterexample(
    claim_id: str,
    n_max: int = 2,
    budget: int = DEFAULT_EVAL_BUDGET,
) -> dict | None:
    """Search exhaustively, smallest carriers first, for a witness violating
    the negative claim ``claim_id``: an instance of class 'all' (a space,
    or a map between two such spaces) whose hypothesis holds and whose
    conclusions do not all hold.  Every negative claim is one implication
    over class 'all', the universe the hunt scans.  Returns None if the
    budget runs out.

    The witness is the first the scan meets in the documented order:
    carrier sizes ascending (for maps, by nx+ny then nx), then lexicographic
    domain table, codomain table, and assignment; the scan is deterministic,
    so it takes no seed.  It is minimal in that order only across the steps
    the budget scans whole: a step that affords no table is skipped, and one
    the rest of the budget cuts short is scanned only over its prefix, so
    either may hold a smaller witness.
    Raises InvalidSweepArgument when n_max is below 1 or budget below 0, and
    UniverseTooLarge when n_max exceeds SAMPLE_MAX_N, whose tables the
    decoder cannot number, before any class is counted.

    A map step holds every codomain table of its size pair and the two
    bound words its implication reads per codomain table and assignment:
    at ny = 3 that is 1 GB of tables, and at (3, 3) 3.6 GB of words.
    The first ny = 3 step, (1, 3), is affordable once the budget exceeds
    about 3.2e9.  Unlike the verify plan, the hunt never samples a step;
    it sets each step up with :func:`_step`, as the plan does a group.
    """
    if claim_id not in NEGATIVE_CATALOG:
        raise UnknownClaim(f"unknown negative claim id: {claim_id!r}")
    _require_at_least(1, n_max=n_max)
    _require_at_least(0, budget=budget)
    if n_max > SAMPLE_MAX_N:
        raise UniverseTooLarge(f"the hunt is limited to n <= {SAMPLE_MAX_N}, got {n_max}")
    claim = NEGATIVE_CATALOG[claim_id]
    maps = isinstance(claim.implications[0].universe, tuple)
    sizes = range(1, n_max + 1)
    if maps:
        steps = sorted(((nx, ny) for nx in sizes for ny in sizes), key=lambda p: (sum(p), p[0]))
    else:
        steps = [(n, n) for n in sizes]
    spent = 0
    for nx, ny in steps:
        # each domain table at nx stands for per_x instances: itself as a
        # space, or its maps into every codomain table under every assignment
        per_x = class_size(ny, "all") * ny**nx if maps else 1
        cost = _instance_cost(max(nx, ny)) * per_x
        scan = min(class_size(nx, "all"), (budget - spent) // cost)
        if not scan:
            # a later, smaller size pair may still fit; build nothing here
            continue
        ty = all_tables_block(ny, 0, class_size(ny, "all")) if maps else None
        evaluate, witness, block = _step(nx, ny, claim.implications, ty)
        for lo in range(0, scan, block):
            _, _, rows = evaluate(all_tables_block(nx, lo, min(lo + block, scan)))
            if len(rows):
                return {**witness(rows[0]), "claim": claim.id}
        spent += scan * cost
    return None
