import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import closurespaces as cs
import oracles
from closurespaces import claims, formats


def test_unknown_claim():
    with pytest.raises(cs.UnknownClaim):
        cs.verify_claim("thm-nonexistent", 2)
    with pytest.raises(cs.UnknownClaim):
        cs.hunt_counterexample("neg-nonexistent", 2)


def test_catalog_ids_are_complete():
    assert set(cs.CATALOG) == {
        "axioms-equiv-check",
        "cor-r0",
        "thm-equiv-isotonic",
        "thm-clthm-formula",
        "thm-reconstruct",
        "thm-roundtrip",
        "thm-crit-grounded",
        "thm-crit-enlarging",
        "thm-crit-sublinear",
        "thm-idem-sufficient",
        "thm-idem-necessary",
        "thm-cp-cont",
        "thm-cp-implies-ns",
        "cor-cont-implies-ns",
        "thm-preimage",
        "thm-ns-iff-cp",
        "cor-ns-iff-cont",
    }
    assert set(cs.NEGATIVE_CATALOG) == {
        "neg-pws-not-extsep",
        "neg-r0-not-extsep",
        "neg-cont-not-cp",
        "neg-cp-not-cont",
        "neg-ns-not-cp",
        "neg-ns-not-cont",
    }


def _misplaced_predicates(catalog: dict) -> list:
    # the (claim, predicate) pairs whose predicate the claim's universe does
    # not evaluate: a map universe reads the map_flags columns, the relations
    # the reconstruct_flags columns, and a table class the other kernel columns
    relation = set(claims._KERNEL_FLAGS["reconstruct_flags"])
    mapping = set(claims._KERNEL_FLAGS["map_flags"])
    table = set(claims._FLAG_COLUMNS) - relation - mapping | {"profile_consistent"}
    misplaced = []
    for claim in catalog.values():
        for impl in claim.implications:
            if isinstance(impl.universe, tuple):
                assert set(impl.universe) <= set(cs.CLASSES), claim.id
                allowed = mapping
            elif impl.universe == "relations":
                allowed = relation
            else:
                assert impl.universe in cs.CLASSES, claim.id
                allowed = table
            names = impl.hypothesis + impl.conclusion
            misplaced += [(claim.id, name) for name in names if name not in allowed]
    return misplaced


def test_every_catalog_predicate_belongs_to_its_universe():
    # the sweeps look a predicate up without checking it, so the catalog is
    # checked here, against the columns of the universe's own evaluator
    assert _misplaced_predicates({**cs.CATALOG, **cs.NEGATIVE_CATALOG}) == []
    # a relation predicate in a table claim, and a table predicate in a
    # relation claim, both fail
    isotonic = claims.Implication("isotonic", (), ("rebuilt_isotonic",))
    relations = claims.Implication("relations", ("isotonic",), ("rebuilt_isotonic",))
    edited = {
        **cs.CATALOG,
        "thm-roundtrip": claims.Claim("thm-roundtrip", "edited", (isotonic,)),
        "thm-reconstruct": claims.Claim("thm-reconstruct", "edited", (relations,)),
    }
    assert _misplaced_predicates(edited) == [
        ("thm-reconstruct", "isotonic"),
        ("thm-roundtrip", "rebuilt_isotonic"),
    ]


def test_cor_r0_exhaustive_at_n2():
    report = cs.verify_claim("cor-r0", 2)
    assert report.instances_checked == 256
    assert report.total_violations == 0
    assert report.exhaustive


@pytest.mark.parametrize("claim_id", sorted(cs.CATALOG))
def test_every_claim_holds_on_one_point_carriers(claim_id):
    report = cs.verify_claim(claim_id, 1)
    assert report.total_violations == 0
    assert report.exhaustive
    assert report.instances_checked > 0


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("claim_id", sorted(cs.CATALOG))
def test_every_claim_holds_at_n4(claim_id, seed):
    # n = 4 is sampled for every claim at the default budget; the sample
    # sizes are the planner's to choose, so only the verdict is pinned
    report = cs.verify_claim(claim_id, 4, seed=seed)
    assert report.total_violations == 0
    assert report.instances_checked > 0


def test_profile_consistency_claim():
    report = cs.verify_claim("axioms-equiv-check", 2)
    assert report.instances_checked == 256
    assert report.total_violations == 0 and report.exhaustive


def test_reconstruct_claim_exhaustive_at_n2():
    report = cs.verify_claim("thm-reconstruct", 2)
    assert report.instances_checked == 1024  # every subset of the 10 canonical pairs
    assert report.total_violations == 0 and report.exhaustive


def test_reconstruct_claim_samples_n3_whatever_the_budget():
    # the 2**36 relations at n = 3 are never enumerated, even when the
    # budget would cover them at 8**3 evaluations each
    start = time.perf_counter()
    report = cs.verify_claim("thm-reconstruct", 3, budget=10**14)
    assert time.perf_counter() - start < 1.0
    assert report.summary() == "claim=thm-reconstruct n=3 checked=5000 violations=0 exhaustive=false"


@pytest.mark.parametrize(
    "n,count,seed", [(2, 7, 0), (2, 10, 1), (3, 5000, 0), (3, 11, 3), (4, 9, 0), (4, 20, 5)]
)
def test_relation_sample_matches_the_oracle(n, count, seed):
    # the sampler flips its pairs in one vector pass; the oracle builds the
    # same relations one at a time
    rows = claims._relation_sample(n, count, seed)
    assert rows.tolist() == oracles.relation_sample(n, count, seed)
    # a budget of count relations at 8**n evaluations each plans that sample
    impls = claims.CATALOG["thm-reconstruct"].implications
    loaders, evaluate, _, exhaustive = claims._plan(n, impls, count * 8**n, seed, 0)
    assert not exhaustive
    assert np.concatenate([load() for load in loaders]).tolist() == rows.tolist()
    # one instance per relation row
    assert evaluate(rows)[0] == count


def test_sampled_sweep_is_flagged_and_seed_deterministic():
    small = 10_000  # too small for the 16.7M tables at n=3
    one = cs.verify_claim("cor-r0", 3, budget=small, seed=3)
    two = cs.verify_claim("cor-r0", 3, budget=small, seed=3)
    assert not one.exhaustive
    assert one.instances_checked == two.instances_checked > 0
    assert one.total_violations == two.total_violations == 0


def test_over_budget_space_sweep_plans_before_loading(monkeypatch):
    # the 16,777,216 tables at n = 3 are over the default budget, so the
    # sweep samples without asking enumeration for the universe
    def loaders(*args, **kwargs):
        raise AssertionError("asked for the class universe")

    monkeypatch.setattr(claims, "chunk_loaders", loaders)
    report = cs.verify_claim("cor-r0", 3)
    assert report.summary() == "claim=cor-r0 n=3 checked=5000 violations=0 exhaustive=false"


def test_all_tables_at_n4_are_sampled_whatever_the_budget():
    # 16**16 tables at 4**4 evaluations each fit this budget, but class
    # 'all' streams only up to n = 3; a plan of 2**50 chunk loaders would
    # exhaust memory
    start = time.perf_counter()
    report = cs.verify_claim("cor-r0", 4, budget=10**22)
    assert time.perf_counter() - start < 1.0
    assert report.summary() == "claim=cor-r0 n=4 checked=5000 violations=0 exhaustive=false"


def test_map_sweep_onto_all_tables_at_n3_is_sampled_whatever_the_budget():
    # the budget covers the 8,000 x 16,777,216 x 27 maps, but their codomain
    # would be held in memory: 1 GB of tables and 3.6 GB of bound words, two
    # per codomain table and assignment
    start = time.perf_counter()
    report = cs.verify_claim("cor-cont-implies-ns", 3, budget=3 * 10**14)
    assert time.perf_counter() - start < 5.0
    assert report.summary() == (
        "claim=cor-cont-implies-ns n=3 checked=1080000 violations=0 exhaustive=false"
    )


def test_map_sweep_from_all_tables_at_n3_is_sampled_whatever_the_budget(monkeypatch):
    # the budget covers the 16,777,216 x 8,000 x 27 maps from class 'all' to
    # the isotonic tables, but the plan would hold the 1 GB domain in memory
    # and check it one table per chunk, since a domain table stands for more
    # than _CHUNK maps
    def loaders(*args, **kwargs):
        raise AssertionError("asked for a class universe")

    monkeypatch.setattr(claims, "chunk_loaders", loaders)
    report = cs.verify_claim("thm-cp-cont", 3, budget=3 * 10**14)
    assert report.summary() == "claim=thm-cp-cont n=3 checked=2160000 violations=0 exhaustive=false"


def test_main_theorem_holds_on_its_whole_n3_universe():
    # the paper's main theorem on all 8,000 x 1,736 x 27 maps: the one whole
    # map sweep at n = 3, which checks its domain one table per chunk
    report = cs.verify_claim("cor-ns-iff-cont", 3, budget=30_000_000_000)
    assert report.summary() == (
        "claim=cor-ns-iff-cont n=3 checked=374976000 violations=0 exhaustive=true"
    )


@pytest.mark.parametrize(
    "claim_id", ["thm-crit-grounded", "thm-crit-enlarging", "thm-crit-sublinear"]
)
def test_iff_claims_count_each_mismatching_table_once(monkeypatch, claim_id):
    # an iff is two implications; a table whose criterion is flipped
    # violates exactly one of them
    from closurespaces import _kernels

    real = _kernels.kernel("criteria_flags")
    _, column = claims._FLAG_COLUMNS[claim_id.removeprefix("thm-crit-") + "_crit"]

    def flipped(tables, n, columns):
        flags = real(tables, n, columns).copy()
        flags[::2, columns.index(column)] ^= True
        return flags

    monkeypatch.setitem(_kernels._KERNELS, "criteria_flags", flipped)
    report = cs.verify_claim(claim_id, 2)
    assert report.summary() == f"claim={claim_id} n=2 checked=52 violations=26 exhaustive=true"


def test_multi_chunk_sweep_merges_counts_and_caps_witnesses(monkeypatch):
    # 16-table chunks split the 256 tables at n = 2 into 16 jobs, whose
    # counts add up and whose witnesses stop at the cap
    bogus = claims.Claim(
        "bogus-all-grounded",
        "every space is grounded (false)",
        (claims.Implication("all", (), ("grounded",)),),
    )
    monkeypatch.setitem(claims.CATALOG, bogus.id, bogus)
    monkeypatch.setattr(claims, "_CHUNK", 16)
    loaders, _, _, exhaustive = claims._plan(2, bogus.implications, 256 * 4**2, 0, 0)
    assert len(loaders) == 16 and exhaustive
    report = cs.verify_claim(bogus.id, 2)
    assert report.summary() == "claim=bogus-all-grounded n=2 checked=256 violations=192 exhaustive=true"
    assert len(report.violations) == claims.VIOLATION_CAP


def test_all_tables_sweep_at_n3_peak_rss_stays_under_200_mb():
    # the 16,777,216 tables take 1 GB as int64; the sweep decodes them one
    # chunk at a time, so its peak memory must not grow with them.  The call
    # is the benchmark's, whose --workers the CLI ignores.
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    code = (
        "import resource, sys\n"
        "from closurespaces.cli import main\n"
        "code = main(['--quiet', 'verify', '--claim', 'cor-r0', '--n', '3',\n"
        "             '--budget', '2147483648', '--workers', '2'])\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(peak // 1024 if sys.platform == 'darwin' else peak)\n"
        "sys.exit(code)\n"
    )
    src = str(Path(cs.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    summary, peak_kib = proc.stdout.splitlines()
    assert summary == "claim=cor-r0 n=3 checked=16777216 violations=0 exhaustive=true"
    assert int(peak_kib) < 200 * 1024, f"peak RSS {int(peak_kib) / 1024:.0f} MB"


def test_roundtrip_budget_compares_the_class_size():
    # the budget compares the class's own size: its 1,736 tables fit
    # 200,000 // 4**3 = 3,125, the 8,000 isotonic tables would not
    report = cs.verify_claim("thm-roundtrip", 3, budget=200_000)
    assert report.exhaustive
    assert report.instances_checked == 1736
    assert report.total_violations == 0


def test_violations_are_reported_for_a_false_claim(monkeypatch):
    bogus = claims.Claim(
        "bogus-all-grounded",
        "every space is grounded (false)",
        (claims.Implication("all", (), ("grounded",)),),
    )
    monkeypatch.setitem(claims.CATALOG, bogus.id, bogus)
    report = cs.verify_claim("bogus-all-grounded", 1)
    assert report.instances_checked == 4
    assert report.total_violations == 2  # tables (1,0) and (1,1)
    docs = [w["space"]["closure"][""] for w in report.violations]
    assert docs == ["a", "a"]
    for w in report.violations:
        sp = formats.space_from_document(w["space"])
        assert not cs.axiom_profile(sp).grounded


def test_false_map_claim_reports_violations(monkeypatch):
    bogus = claims.Claim(
        "bogus-all-cont",
        "every map is continuous (false)",
        (claims.Implication(("all", "all"), (), ("continuous",)),),
    )
    monkeypatch.setitem(claims.CATALOG, bogus.id, bogus)
    report = cs.verify_claim("bogus-all-cont", 1)
    assert report.instances_checked == 16
    assert report.total_violations > 0
    for w in report.violations[:3]:
        mp = formats.map_from_document(w["map"])
        assert not cs.is_continuous(mp)


HUNT_IDS = [
    "neg-pws-not-extsep",
    "neg-r0-not-extsep",
    "neg-cont-not-cp",
    "neg-cp-not-cont",
    "neg-ns-not-cp",
    "neg-ns-not-cont",
]

_CHECKS = {
    "pointwise_symmetric": lambda u, cl: oracles.pointwise_symmetric(u, cl),
    "r0": lambda u, cl: oracles.r0(u, cl),
    "exterior_separated": lambda u, cl: oracles.exterior_separated(u, cl),
}

_MAP_CHECKS = {
    "closure_preserving": oracles.closure_preserving,
    "continuous": oracles.continuous,
    "nonseparating": oracles.nonseparating,
}


@pytest.mark.parametrize("claim_id", HUNT_IDS)
def test_hunts_find_witnesses_that_revalidate(claim_id):
    witness = cs.hunt_counterexample(claim_id, n_max=2)
    assert witness is not None
    (neg,) = cs.NEGATIVE_CATALOG[claim_id].implications
    if witness["kind"] == "space":
        sp = formats.space_from_document(witness["space"])
        universe, cl = oracles.from_space(sp)
        for name in neg.hypothesis:
            assert _CHECKS[name](universe, cl)
        for name in neg.conclusion:
            assert not _CHECKS[name](universe, cl)
    else:
        mp = formats.map_from_document(witness["map"])
        sets = oracles.from_map(mp)
        for name in neg.hypothesis:
            assert _MAP_CHECKS[name](*sets)
        for name in neg.conclusion:
            assert not _MAP_CHECKS[name](*sets)


@pytest.mark.parametrize("claim_id", HUNT_IDS)
def test_hunt_witnesses_are_byte_stable(claim_id):
    one = cs.hunt_counterexample(claim_id, n_max=2)
    two = cs.hunt_counterexample(claim_id, n_max=2)
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_hunt_exhausted_budget_returns_none():
    assert cs.hunt_counterexample("neg-pws-not-extsep", n_max=2, budget=0) is None


def test_map_hunt_checks_the_budget_before_building_a_codomain(monkeypatch):
    # the whole n = 3 universe is 16,777,216 tables, about 1 GB; a budget of
    # 100 affords no n = 3 codomain, so the hunt must not decode one
    real = claims.all_tables_block

    def guarded(n, start, stop):
        assert not (n == 3 and stop - start == 8**8), "decoded the whole n = 3 universe"
        return real(n, start, stop)

    monkeypatch.setattr(claims, "all_tables_block", guarded)
    assert cs.hunt_counterexample("neg-ns-not-cont", n_max=3, budget=100) is None


@pytest.mark.parametrize("claim_id", HUNT_IDS)
def test_hunt_to_n3_at_the_default_budget_skips_what_it_cannot_afford(monkeypatch, claim_id):
    # the default budget affords no table of the map step (1, 3), about
    # 3.2e9, so the hunt decodes no n = 3 universe and returns the witness
    # it finds at n <= 2, the golden one
    real = claims.all_tables_block

    def guarded(n, start, stop):
        assert n < 3, "decoded an n = 3 universe"
        return real(n, start, stop)

    monkeypatch.setattr(claims, "all_tables_block", guarded)
    witness = cs.hunt_counterexample(claim_id, n_max=3)
    golden = Path(__file__).parent / "goldens" / f"{claim_id}.json"
    assert json.dumps(witness, indent=2, sort_keys=True) + "\n" == golden.read_text()


@pytest.mark.parametrize("chunk", [1, 16])
@pytest.mark.parametrize("claim_id", HUNT_IDS)
def test_hunt_witnesses_do_not_depend_on_chunk_size(monkeypatch, claim_id, chunk):
    # at _CHUNK = 1 a block is one domain table and a codomain slice one
    # table; the hunt scans in the same order, so it meets the same witness
    monkeypatch.setattr(claims, "_CHUNK", chunk)
    witness = cs.hunt_counterexample(claim_id, n_max=2)
    golden = Path(__file__).parent / "goldens" / f"{claim_id}.json"
    assert json.dumps(witness, indent=2, sort_keys=True) + "\n" == golden.read_text()


def test_equivalence_theorem_witness_has_non_extsep_codomain():
    # the positive catalog forces any ns-but-not-cp witness to have a
    # codomain violating exterior separation
    witness = cs.hunt_counterexample("neg-ns-not-cp", n_max=2)
    mp = formats.map_from_document(witness["map"])
    assert not cs.symmetry_profile(mp.codomain).exterior_separated


def test_witness_list_does_not_depend_on_chunk_size(monkeypatch):
    # far more than VIOLATION_CAP violations: the report keeps the first ones
    # in sweep order, so the chunk size may not change which
    space = claims.Claim(
        "bogus-grounded-enlarging",
        "every space is grounded, and enlarging ones are isotonic (false)",
        (
            claims.Implication("all", (), ("grounded",)),
            claims.Implication("all", ("enlarging",), ("isotonic",)),
        ),
    )
    maps = claims.Claim(
        "bogus-all-cont",
        "every map is continuous (false)",
        (claims.Implication(("all", "all"), (), ("continuous",)),),
    )
    for bogus in (space, maps):
        monkeypatch.setitem(claims.CATALOG, bogus.id, bogus)
        default = cs.verify_claim(bogus.id, 2)
        with monkeypatch.context() as m:
            m.setattr(claims, "_CHUNK", 16)
            small = cs.verify_claim(bogus.id, 2)
        assert default.total_violations > claims.VIOLATION_CAP
        assert small.summary() == default.summary()
        assert small.violations == default.violations


def test_map_sweep_decides_before_loading_a_universe(monkeypatch):
    # the 16,777,216**2 * 27 maps between n = 3 tables are over the default
    # budget, so the sweep draws its two 200-table samples and loads no
    # class universe
    calls = []
    real_sample = claims.sample_tables

    def loaders(*args, **kwargs):
        calls.append(("chunk_loaders", args))
        raise AssertionError("loaded a class universe")

    def sample(n, cls, count, seed):
        calls.append(("sample_tables", (n, cls, count)))
        return real_sample(n, cls, count, seed)

    monkeypatch.setattr(claims, "chunk_loaders", loaders)
    monkeypatch.setattr(claims, "sample_tables", sample)
    report = cs.verify_claim("thm-cp-implies-ns", 3)
    assert calls == [("sample_tables", (3, "all", 200)), ("sample_tables", (3, "all", 200))]
    assert report.instances_checked == 200 * 200 * 27
    assert report.total_violations == 0 and not report.exhaustive


def test_hunt_reads_several_conclusions_as_their_conjunction(monkeypatch):
    # table (0, 0) is grounded but not enlarging: hypothesis true, the
    # conjunction of the conclusions false
    neg = claims.Claim(
        "neg-x",
        "grounded and enlarging (false)",
        (claims.Implication("all", (), ("grounded", "enlarging")),),
    )
    monkeypatch.setitem(claims.NEGATIVE_CATALOG, neg.id, neg)
    witness = cs.hunt_counterexample(neg.id, n_max=1)
    assert witness["claim"] == neg.id
    assert formats.space_from_document(witness["space"]).table == (0, 0)


def test_hunt_rejects_a_negative_budget(monkeypatch):
    def refuse(*args):
        raise AssertionError("decoded tables for a negative budget")

    monkeypatch.setattr(claims, "all_tables_block", refuse)
    for claim_id in ("neg-pws-not-extsep", "neg-ns-not-cont"):
        with pytest.raises(cs.InvalidSweepArgument, match="budget must be at least 0"):
            cs.hunt_counterexample(claim_id, n_max=2, budget=-1)


def _counted(monkeypatch, owner, name):
    """Count the calls of ``owner.name``, which still runs."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize(
    "implication,document",
    [
        (claims.Implication("all", (), ("grounded",)), "space_document"),
        (claims.Implication(("all", "all"), (), ("continuous",)), "map_document"),
        (claims.Implication("relations", (), ("rebuilt_same_pairs",)), "relation_document"),
    ],
    ids=["space", "map", "relation"],
)
def test_sweep_formats_only_the_witnesses_it_keeps(monkeypatch, implication, document):
    # 16-row chunks: every job finds violations, but only the first
    # VIOLATION_CAP of the whole sweep become documents
    bogus = claims.Claim("bogus", "a false claim", (implication,))
    monkeypatch.setitem(claims.CATALOG, bogus.id, bogus)
    default = cs.verify_claim(bogus.id, 2)
    assert default.total_violations > claims.VIOLATION_CAP
    monkeypatch.setattr(claims, "_CHUNK", 16)
    calls = _counted(monkeypatch, formats, document)
    small = cs.verify_claim(bogus.id, 2)
    assert len(calls) == claims.VIOLATION_CAP
    assert small.summary() == default.summary()
    assert small.violations == default.violations


def test_hunt_formats_only_its_witness(monkeypatch):
    calls = _counted(monkeypatch, formats, "map_document")
    witness = cs.hunt_counterexample("neg-cont-not-cp", n_max=2)
    assert witness is not None and len(calls) == 1


def test_map_bounds_are_built_a_codomain_slice_at_a_time(monkeypatch):
    # a hunt holds every codomain table of a size pair, 16,777,216 at ny = 3,
    # so the builder, whose temporaries grow with its codomain block,
    # gets _CHUNK // len(fmaps) tables a call
    from closurespaces import _kernels

    default = cs.hunt_counterexample("neg-cont-not-cp", n_max=2)
    monkeypatch.setattr(claims, "_CHUNK", 64)
    calls = _counted(monkeypatch, _kernels, "build_map_tables")
    assert cs.hunt_counterexample("neg-cont-not-cp", n_max=2) == default
    assert len(calls) > 2
    assert all(ty.shape[0] <= max(1, 64 // fmaps.shape[0]) for ty, fmaps, *_ in calls)


def test_sweeps_pass_kernel_columns_by_position(monkeypatch):
    # the benchmark's traced run hands out each kernel wrapped in a function
    # of positional arguments alone, so a sweep that passed a kernel its
    # columns by keyword would fail there
    from closurespaces import _kernels

    def outcome():
        reports = [
            cs.verify_claim(claim_id, 2)
            for claim_id in ("thm-idem-necessary", "thm-crit-sublinear", "thm-cp-cont")
        ]
        witness = cs.hunt_counterexample("neg-ns-not-cont", n_max=2)
        return [(r.summary(), r.violations) for r in reports], witness

    default = outcome()
    fetch = _kernels.kernel
    arities = []

    def kernel(name):
        k = fetch(name)

        def positional(*args):
            arities.append(len(args))
            return k(*args)

        return positional

    monkeypatch.setattr(_kernels, "kernel", kernel)
    assert outcome() == default
    assert 3 in arities  # some kernel was asked for part of its columns


@pytest.mark.parametrize("claim_id,groups", [("thm-cp-implies-ns", 1), ("thm-cp-cont", 2)])
def test_map_bounds_are_built_once_per_group(monkeypatch, claim_id, groups):
    # the codomain bounds serve every domain chunk of their group: at n = 3
    # a group's 200 sampled domain tables make 67 chunks
    from closurespaces import _kernels

    calls = _counted(monkeypatch, _kernels, "build_map_tables")
    report = cs.verify_claim(claim_id, 3)
    assert report.total_violations == 0
    assert len(calls) == groups
