"""Claim catalog plus the verification sweep and counterexample hunt.

Each claim is data: a universe (generator classes) and one or more
implications between named predicates.  The harness evaluates every
predicate definitionally through the batch kernels (or the plain library
functions for the slow audit predicates), so no claim is checked by the
implication it states.

Sweeps are exhaustive when the universe fits the evaluation budget (a count
of subset-pair predicate evaluations, 4**n per space or map instance) and
seeded samples otherwise; that choice, with its budget check, is made before
any chunk is loaded.  Chunks of the universe are then independent jobs on a
thread pool, merged in chunk order, so reports are identical for any worker
count.  Each job loads its own tables: a chunk of class 'all' is decoded from
its block of the lexicographic universe by the pool thread that evaluates it,
and a chunk of a cached or sampled universe is a slice of an array already in
memory.  A job returns only counts and capped witnesses, so the decoded
tables in memory stay within workers x chunk size, whatever the universe.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import _kernels, formats
from .core import (
    ClosureSpaceError,
    Space,
    axiom_profile,
    ground,
    symmetry_profile,
)
from .enumeration import (
    SAMPLE_MAX_N,
    UniverseTooLarge,
    all_assignments,
    all_tables_block,
    chunk_loaders,
    sample_tables,
    slice_loaders,
)
from .maps import make_map
from .separation import (
    ConditionsViolated,
    SeparationRelation,
    closure_from_relation,
    make_relation,
    separated_pairs,
)

DEFAULT_EVAL_BUDGET = 10**8
SAMPLE_CAP = 5000
MAP_SAMPLE_CAP = 200
VIOLATION_CAP = 100
_CHUNK = 1 << 14


class UnknownClaim(ClosureSpaceError):
    """Claim id not present in the catalog."""


class InvalidSweepArgument(ClosureSpaceError):
    """Carrier size, budget or worker count below 1."""


def _require_positive(**values: int) -> None:
    for name, value in values.items():
        if value < 1:
            raise InvalidSweepArgument(f"{name} must be at least 1, got {value}")


@dataclass(frozen=True)
class SpaceImplication:
    universe: str
    hypothesis: tuple[str, ...]
    conclusion: tuple[str, ...]


@dataclass(frozen=True)
class MapImplication:
    domain_class: str
    codomain_class: str
    hypothesis: tuple[str, ...]
    conclusion: tuple[str, ...]


@dataclass(frozen=True)
class Claim:
    id: str
    description: str
    kind: str  # "space" | "map" | "relation"
    implications: tuple = ()


@dataclass(frozen=True)
class NegativeClaim:
    """A converse the positive catalog does not assert; hunts search for a
    witness satisfying the hypothesis but not the conclusion."""

    id: str
    description: str
    kind: str  # "space" | "map"
    hypothesis: tuple[str, ...]
    conclusion: tuple[str, ...]


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
            "space",
            (SpaceImplication("all", (), ("profile_consistent",)),),
        ),
        Claim(
            "cor-r0",
            "exterior-separated spaces are pointwise-symmetric and r0",
            "space",
            (
                SpaceImplication(
                    "all", ("exterior_separated",), ("pointwise_symmetric", "r0")
                ),
            ),
        ),
        Claim(
            "thm-equiv-isotonic",
            "pointwise-symmetric, r0, and exterior-separated coincide on isotonic spaces",
            "space",
            (
                SpaceImplication("isotonic", ("pointwise_symmetric",), ("r0",)),
                SpaceImplication("isotonic", ("r0",), ("exterior_separated",)),
                SpaceImplication(
                    "isotonic", ("exterior_separated",), ("pointwise_symmetric",)
                ),
            ),
        ),
        Claim(
            "thm-clthm-formula",
            "closure tables of exterior-separated spaces are determined by their separated pairs",
            "space",
            (SpaceImplication("exterior_separated", (), ("reconstruction_formula",)),),
        ),
        Claim(
            "thm-reconstruct",
            "relations passing both conditions rebuild an isotonic pointwise-symmetric space with the same separated pairs",
            "relation",
        ),
        Claim(
            "thm-roundtrip",
            "isotonic pointwise-symmetric spaces survive the relation round-trip",
            "space",
            (SpaceImplication("isotonic_pointwise_symmetric", (), ("roundtrip_ok",)),),
        ),
        Claim(
            "thm-crit-grounded",
            "the relation-level groundedness criterion matches the axiom on exterior-separated spaces",
            "space",
            (SpaceImplication("exterior_separated", (), ("grounded_matches_criterion",)),),
        ),
        Claim(
            "thm-crit-enlarging",
            "the disjoint-pairs criterion matches the enlarging axiom on exterior-separated spaces",
            "space",
            (SpaceImplication("exterior_separated", (), ("enlarging_matches_criterion",)),),
        ),
        Claim(
            "thm-crit-sublinear",
            "the union-closure criterion matches the sub-linear axiom on exterior-separated spaces",
            "space",
            (SpaceImplication("exterior_separated", (), ("sublinear_matches_criterion",)),),
        ),
        Claim(
            "thm-idem-sufficient",
            "on enlarging exterior-separated spaces the sufficiency condition forces idempotence",
            "space",
            (
                SpaceImplication(
                    "exterior_separated",
                    ("enlarging", "idempotent_sufficient"),
                    ("idempotent",),
                ),
            ),
        ),
        Claim(
            "thm-idem-necessary",
            "isotonic idempotent exterior-separated spaces satisfy the sufficiency condition",
            "space",
            (
                SpaceImplication(
                    "exterior_separated",
                    ("isotonic", "idempotent"),
                    ("idempotent_sufficient",),
                ),
            ),
        ),
        Claim(
            "thm-cp-cont",
            "closure-preserving and continuous imply each other across isotonic sides",
            "map",
            (
                MapImplication("all", "isotonic", ("closure_preserving",), ("continuous",)),
                MapImplication("isotonic", "all", ("continuous",), ("closure_preserving",)),
            ),
        ),
        Claim(
            "thm-cp-implies-ns",
            "closure-preserving maps are nonseparating, with no axioms on either side",
            "map",
            (MapImplication("all", "all", ("closure_preserving",), ("nonseparating",)),),
        ),
        Claim(
            "cor-cont-implies-ns",
            "continuous maps with isotonic domain are nonseparating",
            "map",
            (MapImplication("isotonic", "all", ("continuous",), ("nonseparating",)),),
        ),
        Claim(
            "thm-preimage",
            "nonseparating matches preimage separation across isotonic sides",
            "map",
            (
                MapImplication(
                    "all", "isotonic", ("nonseparating",), ("preimage_separating",)
                ),
                MapImplication(
                    "isotonic", "all", ("preimage_separating",), ("nonseparating",)
                ),
            ),
        ),
        Claim(
            "thm-ns-iff-cp",
            "nonseparating equals closure-preserving onto exterior-separated codomains",
            "map",
            (
                MapImplication(
                    "all", "exterior_separated", ("nonseparating",), ("closure_preserving",)
                ),
                MapImplication(
                    "all", "exterior_separated", ("closure_preserving",), ("nonseparating",)
                ),
            ),
        ),
        Claim(
            "cor-ns-iff-cont",
            "nonseparating equals continuous for isotonic spaces with pointwise-symmetric codomain",
            "map",
            (
                MapImplication(
                    "isotonic",
                    "isotonic_pointwise_symmetric",
                    ("nonseparating",),
                    ("continuous",),
                ),
                MapImplication(
                    "isotonic",
                    "isotonic_pointwise_symmetric",
                    ("continuous",),
                    ("nonseparating",),
                ),
            ),
        ),
    ]
}

NEGATIVE_CATALOG: dict[str, NegativeClaim] = {
    c.id: c
    for c in [
        NegativeClaim(
            "neg-pws-not-extsep",
            "pointwise-symmetric does not imply exterior-separated in general",
            "space",
            ("pointwise_symmetric",),
            ("exterior_separated",),
        ),
        NegativeClaim(
            "neg-r0-not-extsep",
            "r0 does not imply exterior-separated in general",
            "space",
            ("r0",),
            ("exterior_separated",),
        ),
        NegativeClaim(
            "neg-cont-not-cp",
            "continuity does not imply closure preservation in general",
            "map",
            ("continuous",),
            ("closure_preserving",),
        ),
        NegativeClaim(
            "neg-cp-not-cont",
            "closure preservation does not imply continuity in general",
            "map",
            ("closure_preserving",),
            ("continuous",),
        ),
        NegativeClaim(
            "neg-ns-not-cp",
            "nonseparating does not imply closure-preserving in general",
            "map",
            ("nonseparating",),
            ("closure_preserving",),
        ),
        NegativeClaim(
            "neg-ns-not-cont",
            "nonseparating does not imply continuity in general",
            "map",
            ("nonseparating",),
            ("continuous",),
        ),
    ]
}


# ---------------------------------------------------------------------------
# predicate evaluation over table chunks
# ---------------------------------------------------------------------------

# the predicates each kernel flags, in column order
_KERNEL_FLAGS = {
    "axiom_flags": ("grounded", "isotonic", "enlarging", "idempotent", "sublinear"),
    "symmetry_flags": ("pointwise_symmetric", "r0", "exterior_separated"),
    "criteria_flags": ("grounded_crit", "enlarging_crit", "sublinear_crit", "idempotent_sufficient"),
    "formula_flags": ("reconstruction_formula",),
    "roundtrip_flags": ("roundtrip_ok",),
}
_FLAG_COLUMNS = {
    name: (kernel_name, column)
    for kernel_name, names in _KERNEL_FLAGS.items()
    for column, name in enumerate(names)
}
_MATCH_PAIRS = {
    "grounded_matches_criterion": ("grounded", "grounded_crit"),
    "enlarging_matches_criterion": ("enlarging", "enlarging_crit"),
    "sublinear_matches_criterion": ("sublinear", "sublinear_crit"),
}
MAP_PREDICATES = {
    "closure_preserving": 0,
    "continuous": 1,
    "nonseparating": 2,
    "preimage_separating": 3,
}


class _SpaceColumns:
    """Lazy per-chunk evaluation of named space predicates."""

    def __init__(self, tables: np.ndarray, n: int):
        self.tables = tables
        self.n = n
        self._cache: dict[str, np.ndarray] = {}
        self._flags_by_kernel: dict[str, np.ndarray] = {}

    def _flags(self, kernel_name: str) -> np.ndarray:
        """One kernel's flags for the chunk, a column per flag, run once."""
        if kernel_name not in self._flags_by_kernel:
            flags = _kernels.kernel(kernel_name)(self.tables, self.n)
            self._flags_by_kernel[kernel_name] = flags.reshape(self.tables.shape[0], -1)
        return self._flags_by_kernel[kernel_name]

    def get(self, name: str) -> np.ndarray:
        if name in self._cache:
            return self._cache[name]
        if name in _FLAG_COLUMNS:
            kernel_name, column = _FLAG_COLUMNS[name]
            col = self._flags(kernel_name)[:, column] == 1
        elif name in _MATCH_PAIRS:
            ax_name, crit_name = _MATCH_PAIRS[name]
            col = self.get(ax_name) == self.get(crit_name)
        elif name == "profile_consistent":
            col = self._profile_consistent()
        else:
            raise UnknownClaim(f"unknown space predicate: {name!r}")
        self._cache[name] = col
        return col

    def _profile_consistent(self) -> np.ndarray:
        # fast isotonicity against the all-pairs sweep, and the kernel flags
        # against the plain per-space library evaluation
        ax = self._flags("axiom_flags")
        sym = self._flags("symmetry_flags")
        alldef = self._flags("isotonic_all_pairs")[:, 0]
        ok = ax[:, 1] == alldef
        g = ground(self.n)
        for i in range(self.tables.shape[0]):
            sp = Space(g, tuple(int(v) for v in self.tables[i]))
            prof = axiom_profile(sp)
            symm = symmetry_profile(sp)
            expected = (
                prof.grounded,
                prof.isotonic,
                prof.enlarging,
                prof.idempotent,
                prof.sublinear,
            )
            got = tuple(bool(v) for v in ax[i])
            s_expected = (symm.pointwise_symmetric, symm.r0, symm.exterior_separated)
            s_got = tuple(bool(v) for v in sym[i])
            if expected != got or s_expected != s_got:
                ok[i] = False
        return ok


def _space_witness(n: int, row: np.ndarray) -> dict:
    sp = Space(ground(n), tuple(int(v) for v in row))
    return {"kind": "space", "n": n, "space": formats.space_document(sp)}


def _map_witness(nx: int, ny: int, tx_row, ty_row, assignment) -> dict:
    spx = Space(ground(nx), tuple(int(v) for v in tx_row))
    spy = Space(ground(ny), tuple(int(v) for v in ty_row))
    mp = make_map(spx, spy, tuple(int(v) for v in assignment))
    return {"kind": "map", "nx": nx, "ny": ny, "map": formats.map_document(mp)}


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------


def _run_ordered(jobs: list, fn: Callable, workers: int) -> list:
    if workers <= 1 or len(jobs) <= 1:
        return [fn(j) for j in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def _class_chunks(
    n: int, cls: str, table_budget: int, seed: int
) -> tuple[list[Callable[[], np.ndarray]], bool]:
    """Chunk loaders for the class universe and True, or for a seeded sample
    of it and False when the universe is over the table budget.

    The budget is checked here, before any chunk is loaded.  A loader of
    class 'all' decodes its rows when called, on the pool thread that
    evaluates the chunk."""
    try:
        return chunk_loaders(n, cls, budget=table_budget, chunk_size=_CHUNK), True
    except UniverseTooLarge:
        tables = sample_tables(n, cls, min(table_budget, SAMPLE_CAP), seed)
        return slice_loaders(tables, _CHUNK), False


def _verify_space_claim(
    claim: Claim, n: int, budget: int, seed: int, workers: int
) -> VerificationReport:
    cost = max(1, 4**n)
    table_budget = max(1, budget // cost)
    report = VerificationReport(claim.id, n, 0)

    groups: dict[str, list[SpaceImplication]] = {}
    for impl in claim.implications:
        groups.setdefault(impl.universe, []).append(impl)

    for gi, (universe, impls) in enumerate(groups.items()):
        loaders, exhaustive = _class_chunks(n, universe, table_budget, seed + gi)

        def eval_chunk(load: Callable[[], np.ndarray]) -> tuple[int, int, list[dict]]:
            tables = load()
            cols = _SpaceColumns(tables, n)
            viols: list[dict] = []
            total = 0
            for impl in impls:
                mask = np.ones(tables.shape[0], bool)
                for name in impl.hypothesis:
                    mask &= cols.get(name)
                concl = np.ones(tables.shape[0], bool)
                for name in impl.conclusion:
                    concl &= cols.get(name)
                bad = np.flatnonzero(mask & ~concl)
                total += bad.size
                for i in bad[:VIOLATION_CAP]:
                    viols.append(_space_witness(n, tables[i]))
            return tables.shape[0], total, viols

        for checked, vtotal, viols in _run_ordered(loaders, eval_chunk, workers):
            report.instances_checked += checked
            report.total_violations += vtotal
            report.violations.extend(viols)
        report.exhaustive = report.exhaustive and exhaustive

    report.violations.sort(key=_canonical_key)
    report.violations = report.violations[:VIOLATION_CAP]
    return report


def _map_hyp_columns(
    name: str,
    out: np.ndarray,
    x_cols: _SpaceColumns,
    y_cols: _SpaceColumns,
    lo: int,
    hi: int,
) -> np.ndarray:
    if name in MAP_PREDICATES:
        return out[:, :, :, MAP_PREDICATES[name]] == 1
    if name.startswith("domain_"):
        return x_cols.get(name.removeprefix("domain_"))[lo:hi, None, None]
    if name.startswith("codomain_"):
        return y_cols.get(name.removeprefix("codomain_"))[None, :, None]
    raise UnknownClaim(f"unknown map predicate: {name!r}")


def _verify_map_claim(
    claim: Claim, n: int, budget: int, seed: int, workers: int
) -> VerificationReport:
    if n > SAMPLE_MAX_N:
        # no universe at such n is sampled or within reach of a full sweep,
        # so fail before the n**n assignments are enumerated
        raise UniverseTooLarge(f"map claims are limited to n <= {SAMPLE_MAX_N}, got {n}")
    cost = max(1, 4**n)
    fmaps = all_assignments(n, n)
    fcount = fmaps.shape[0]
    imgs, pres = _kernels.build_map_tables(fmaps, n, n)
    report = VerificationReport(claim.id, n, 0)

    groups: dict[tuple[str, str], list[MapImplication]] = {}
    for impl in claim.implications:
        groups.setdefault((impl.domain_class, impl.codomain_class), []).append(impl)

    for gi, ((cls_x, cls_y), impls) in enumerate(groups.items()):
        table_budget = max(1, budget // cost)
        x_loaders, ex_x = _class_chunks(n, cls_x, table_budget, seed + 101 * gi)
        y_loaders, ex_y = _class_chunks(n, cls_y, table_budget, seed + 101 * gi + 1)
        tx = np.concatenate([load() for load in x_loaders])
        ty = np.concatenate([load() for load in y_loaders])
        exhaustive = ex_x and ex_y

        instances = tx.shape[0] * ty.shape[0] * fcount
        if instances * cost > budget:
            side = max(1, min(MAP_SAMPLE_CAP, int((budget // (cost * fcount)) ** 0.5)))
            tx = sample_tables(n, cls_x, side, seed + 101 * gi + 2)
            ty = sample_tables(n, cls_y, side, seed + 101 * gi + 3)
            exhaustive = False

        x_cols = _SpaceColumns(tx, n)
        y_cols = _SpaceColumns(ty, n)
        kernel = _kernels.kernel("map_flags")

        block = max(1, _CHUNK // max(1, ty.shape[0] * fcount))
        ranges = [(lo, min(lo + block, tx.shape[0])) for lo in range(0, tx.shape[0], block)]

        def eval_range(rng: tuple[int, int]) -> tuple[int, int, list[dict]]:
            lo, hi = rng
            out = kernel(tx[lo:hi], ty, imgs, pres, n, n)
            viols: list[dict] = []
            total = 0
            for impl in impls:
                mask = np.ones(out.shape[:3], bool)
                for name in impl.hypothesis:
                    mask = mask & _map_hyp_columns(name, out, x_cols, y_cols, lo, hi)
                concl = np.ones(out.shape[:3], bool)
                for name in impl.conclusion:
                    concl = concl & _map_hyp_columns(name, out, x_cols, y_cols, lo, hi)
                bad = np.argwhere(mask & ~concl)
                total += bad.shape[0]
                for i, j, k in bad[:VIOLATION_CAP]:
                    viols.append(_map_witness(n, n, tx[lo + i], ty[j], fmaps[k]))
            return (hi - lo) * ty.shape[0] * fcount, total, viols

        for checked, vtotal, viols in _run_ordered(ranges, eval_range, workers):
            report.instances_checked += checked
            report.total_violations += vtotal
            report.violations.extend(viols)
        report.exhaustive = report.exhaustive and exhaustive

    report.violations.sort(key=_canonical_key)
    report.violations = report.violations[:VIOLATION_CAP]
    return report


def _canonical_pairs(n: int) -> list[tuple[int, int]]:
    size = 1 << n
    return [(a, b) for a in range(size) for b in range(a, size)]


def _verify_relation_claim(
    claim: Claim, n: int, budget: int, seed: int
) -> VerificationReport:
    """Sweep relations: reconstruction must succeed exactly when both
    conditions hold, and a rebuilt space must be isotonic,
    pointwise-symmetric, and separate exactly the input pairs."""
    g = ground(n)
    pairs = _canonical_pairs(n)
    cost = max(1, 8**n)
    report = VerificationReport(claim.id, n, 0)

    def relations() -> Iterable[SeparationRelation]:
        total = 1 << len(pairs)
        if total * cost <= budget:
            for bits in range(total):
                yield make_relation(g, [p for k, p in enumerate(pairs) if (bits >> k) & 1])
        else:
            report.exhaustive = False
            rng = np.random.default_rng(seed)
            count = min(SAMPLE_CAP, max(1, budget // cost))
            derived = sample_tables(n, "isotonic_pointwise_symmetric", (count + 1) // 2, seed)
            emitted = 0
            for row in derived:
                sp = Space(g, tuple(int(v) for v in row))
                rel = separated_pairs(sp)
                yield rel
                emitted += 1
                if emitted >= count:
                    break
                # mutate one pair so invalid relations are exercised too
                flip = pairs[int(rng.integers(0, len(pairs)))]
                yield make_relation(g, rel.pairs ^ {flip})
                emitted += 1
                if emitted >= count:
                    break

    for rel in relations():
        try:
            rebuilt = closure_from_relation(rel)
        except ConditionsViolated as exc:
            # reconstruction may fail only when a condition fails
            bad = exc.report.ok
        else:
            prof = axiom_profile(rebuilt)
            sym = symmetry_profile(rebuilt)
            bad = not (
                prof.isotonic
                and sym.pointwise_symmetric
                and separated_pairs(rebuilt) == rel
            )
        if bad:
            report.total_violations += 1
            if len(report.violations) < VIOLATION_CAP:
                report.violations.append(
                    {"kind": "relation", "n": n, "relation": formats.relation_document(rel)}
                )
        report.instances_checked += 1

    report.violations.sort(key=_canonical_key)
    return report


def verify_claim(
    claim_id: str,
    n: int,
    budget: int = DEFAULT_EVAL_BUDGET,
    seed: int = 0,
    workers: int = 1,
) -> VerificationReport:
    """Sweep one catalog claim over its universe at carrier size n.

    Raises InvalidSweepArgument when n, budget or workers is below 1.
    """
    if claim_id not in CATALOG:
        raise UnknownClaim(f"unknown claim id: {claim_id!r}")
    _require_positive(n=n, budget=budget, workers=workers)
    claim = CATALOG[claim_id]
    start = time.perf_counter()
    if claim.kind == "space":
        report = _verify_space_claim(claim, n, budget, seed, workers)
    elif claim.kind == "map":
        report = _verify_map_claim(claim, n, budget, seed, workers)
    else:
        report = _verify_relation_claim(claim, n, budget, seed)
    report.elapsed = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# counterexample hunts
# ---------------------------------------------------------------------------


def _hunt_spaces(neg: NegativeClaim, n_max: int, budget: int) -> dict | None:
    spent = 0
    for n in range(1, n_max + 1):
        cost = 4**n
        size = 1 << n
        total = size**size
        allowed = (budget - spent) // cost
        scan = min(total, allowed)
        for lo in range(0, scan, _CHUNK):
            hi = min(lo + _CHUNK, scan)
            tables = all_tables_block(n, lo, hi)
            cols = _SpaceColumns(tables, n)
            mask = np.ones(tables.shape[0], bool)
            for name in neg.hypothesis:
                mask &= cols.get(name)
            for name in neg.conclusion:
                mask &= ~cols.get(name)
            hit = np.flatnonzero(mask)
            if hit.size:
                witness = _space_witness(n, tables[hit[0]])
                witness["claim"] = neg.id
                return witness
        spent += scan * cost
    return None


def _hunt_maps(neg: NegativeClaim, n_max: int, budget: int) -> dict | None:
    sizes = sorted(
        ((nx, ny) for nx in range(1, n_max + 1) for ny in range(1, n_max + 1)),
        key=lambda p: (p[0] + p[1], p[0], p[1]),
    )
    spent = 0
    kernel = _kernels.kernel("map_flags")
    for nx, ny in sizes:
        cost = 4 ** max(nx, ny)
        tx_total = (1 << nx) ** (1 << nx)
        ty_total = (1 << ny) ** (1 << ny)
        per_x = ty_total * ny**nx  # codomain tables times assignments
        allowed = (budget - spent) // max(1, cost * per_x)
        scan = min(tx_total, allowed)
        if not scan:
            # a later, smaller size pair may still fit; build nothing here
            continue
        fmaps = all_assignments(nx, ny)
        imgs, pres = _kernels.build_map_tables(fmaps, nx, ny)
        ty = all_tables_block(ny, 0, ty_total)
        block = max(1, _CHUNK // max(1, per_x))
        for lo in range(0, scan, block):
            hi = min(lo + block, scan)
            tx = all_tables_block(nx, lo, hi)
            out = kernel(tx, ty, imgs, pres, nx, ny)
            mask = np.ones(out.shape[:3], bool)
            for name in neg.hypothesis:
                mask &= out[:, :, :, MAP_PREDICATES[name]] == 1
            for name in neg.conclusion:
                mask &= ~(out[:, :, :, MAP_PREDICATES[name]] == 1)
            hit = np.argwhere(mask)
            if hit.shape[0]:
                i, j, k = hit[0]
                witness = _map_witness(nx, ny, tx[i], ty[j], fmaps[k])
                witness["claim"] = neg.id
                return witness
        spent += scan * per_x * cost
    return None


def hunt_counterexample(
    claim_id: str,
    n_max: int = 2,
    budget: int = DEFAULT_EVAL_BUDGET,
    seed: int = 0,
) -> dict | None:
    """Search exhaustively, smallest carriers first, for a witness violating
    the converse named by ``claim_id``.  Returns None if the budget runs out.

    The witness is minimal for the documented order: carrier sizes ascending
    (for maps, by nx+ny then nx), then lexicographic domain table, codomain
    table, and assignment.  ``seed`` is accepted for interface symmetry with
    verify_claim; the scan itself is deterministic.  Raises
    InvalidSweepArgument when n_max is below 1.
    """
    if claim_id not in NEGATIVE_CATALOG:
        raise UnknownClaim(f"unknown negative claim id: {claim_id!r}")
    _require_positive(n_max=n_max)
    neg = NEGATIVE_CATALOG[claim_id]
    if neg.kind == "space":
        return _hunt_spaces(neg, n_max, budget)
    return _hunt_maps(neg, n_max, budget)
