"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or plain ``pytest``; the
lines then show only for failures).  Timing bounds are enforced on the sweep
itself; the module fixture first runs every kernel once, so one-time costs
such as imports are not billed to any criterion.
"""

import itertools
import json
import random
import time
from pathlib import Path

import pytest

import closurespaces as cs
import oracles
from closurespaces import _kernels, enumeration, formats
from closurespaces.cli import main

GOLDEN_DIR = Path(__file__).parent / "goldens"


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    tables = enumeration.all_tables_block(2, 0, 16)
    for name in ("axiom_flags", "symmetry_flags", "formula_flags", "criteria_flags",
                 "roundtrip_flags", "isotonic_all_pairs"):
        _kernels.kernel(name)(tables, 2)
    fmaps = enumeration.all_assignments(2, 2)
    bounds = _kernels.build_map_tables(tables[:4], fmaps, 2, 2)
    _kernels.kernel("map_flags")(tables[:4], tables[:4], fmaps, bounds, 2, 2)


def _passed(line):
    print(f"ACCEPTANCE {line}: PASS")


def test_criterion_01_corollary_exhaustive_n2():
    start = time.perf_counter()
    report = cs.verify_claim("cor-r0", 2)
    elapsed = time.perf_counter() - start
    assert report.instances_checked == 256
    assert report.total_violations == 0
    assert report.exhaustive
    assert elapsed < 1.0
    _passed("01 cor-r0 over all 256 tables at n=2")


def test_criterion_02_equivalence_on_isotonic_universes():
    r2 = cs.verify_claim("thm-equiv-isotonic", 2)
    assert r2.instances_checked == 36
    assert r2.total_violations == 0 and r2.exhaustive
    start = time.perf_counter()
    r3 = cs.verify_claim("thm-equiv-isotonic", 3)
    elapsed = time.perf_counter() - start
    assert r3.instances_checked == 8000
    assert r3.total_violations == 0 and r3.exhaustive
    assert elapsed < 30.0
    _passed("02 three-way equivalence over 36 + 8000 isotonic tables")


def test_criterion_03_reconstruction_formula():
    checked = 0
    for n in (1, 2, 3):
        report = cs.verify_claim("thm-clthm-formula", n)
        assert report.total_violations == 0 and report.exhaustive
        assert report.instances_checked == cs.class_size(n, "exterior_separated")
        checked += report.instances_checked
    assert checked == 4 + 52 + 51040
    _passed("03 closure formula on every exterior-separated table, n<=3")


def test_criterion_04_roundtrip_and_uniqueness():
    seen_relations = {}
    for n in (1, 2, 3):
        report = cs.verify_claim("thm-roundtrip", n)
        assert report.total_violations == 0 and report.exhaustive
        chunks = enumeration.iter_table_chunks(n, "isotonic_pointwise_symmetric")
        for table in (row for chunk in chunks for row in chunk.tolist()):
            sp = cs.make_space(cs.ground(n), table)
            key = (n, cs.separated_pairs(sp).pairs)
            assert key not in seen_relations, "separated pairs collide"
            seen_relations[key] = sp.table
    _passed("04 round-trip plus injectivity on isotonic pointwise-symmetric tables")


def test_criterion_05_relation_conditions_soundness():
    rng = random.Random(20240)
    g = cs.ground(2)
    universe_pairs = [(a, b) for a in range(4) for b in range(a, 4)]
    valid = invalid = 0
    for _ in range(1000):
        bits = rng.randrange(1 << len(universe_pairs))
        rel = cs.make_relation(g, [p for k, p in enumerate(universe_pairs) if (bits >> k) & 1])
        report = cs.check_relation_conditions(rel)
        try:
            rebuilt = cs.closure_from_relation(rel)
            succeeded = True
        except cs.ConditionsViolated:
            rebuilt = None
            succeeded = False
        assert succeeded == report.ok
        if rebuilt is None:
            invalid += 1
        else:
            valid += 1
            assert cs.separated_pairs(rebuilt).pairs == rel.pairs
    assert valid > 0 and invalid > 0
    _passed(f"05 conditions soundness on 1000 seeded relations ({valid} valid)")


def test_criterion_06_axiom_criteria_on_extsep_universe():
    for claim_id in (
        "thm-crit-grounded",
        "thm-crit-enlarging",
        "thm-crit-sublinear",
        "thm-idem-sufficient",
        "thm-idem-necessary",
    ):
        for n in (1, 2, 3):
            report = cs.verify_claim(claim_id, n)
            assert report.total_violations == 0, f"{claim_id} n={n}"
            assert report.exhaustive
            assert report.instances_checked == cs.class_size(n, "exterior_separated")
    _passed("06 relation-level axiom criteria across 51096 exterior-separated tables")


MAP_CLAIMS = (
    "thm-cp-cont",
    "thm-cp-implies-ns",
    "cor-cont-implies-ns",
    "thm-preimage",
    "thm-ns-iff-cp",
    "cor-ns-iff-cont",
)


def test_criterion_07_map_theorems_at_n2():
    start = time.perf_counter()
    total = 0
    for claim_id in MAP_CLAIMS:
        report = cs.verify_claim(claim_id, 2, workers=1)
        assert report.total_violations == 0, claim_id
        assert report.exhaustive
        total += report.instances_checked
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    # the axiom-free claim sweeps the full 256*256*4 instance universe
    assert cs.verify_claim("thm-cp-implies-ns", 2).instances_checked == 256 * 256 * 4
    # parallel merge contract: worker count cannot change the report
    for claim_id in ("thm-cp-implies-ns", "thm-ns-iff-cp"):
        solo = cs.verify_claim(claim_id, 2, workers=1)
        quad = cs.verify_claim(claim_id, 2, workers=4)
        assert (solo.instances_checked, solo.total_violations, solo.exhaustive) == (
            quad.instances_checked,
            quad.total_violations,
            quad.exhaustive,
        )
        assert solo.violations == quad.violations
    _passed(f"07 map theorems, {total} instances in {elapsed:.1f}s single-threaded")


def test_criterion_08_negative_witnesses():
    checks = {
        "pointwise_symmetric": oracles.pointwise_symmetric,
        "r0": oracles.r0,
        "exterior_separated": oracles.exterior_separated,
    }
    map_checks = {
        "closure_preserving": oracles.closure_preserving,
        "continuous": oracles.continuous,
        "nonseparating": oracles.nonseparating,
    }
    for claim_id, claim in cs.NEGATIVE_CATALOG.items():
        (neg,) = claim.implications
        witness = cs.hunt_counterexample(claim_id, n_max=2)
        assert witness is not None, claim_id
        again = cs.hunt_counterexample(claim_id, n_max=2)
        text = json.dumps(witness, indent=2, sort_keys=True) + "\n"
        assert text == json.dumps(again, indent=2, sort_keys=True) + "\n"
        assert text == (GOLDEN_DIR / f"{claim_id}.json").read_text()
        if isinstance(neg.universe, str):  # a space claim; a map claim's is a pair
            sp = formats.space_from_document(witness["space"])
            universe, cl = oracles.from_space(sp)
            assert all(checks[h](universe, cl) for h in neg.hypothesis)
            assert all(not checks[c](universe, cl) for c in neg.conclusion)
        else:
            mp = formats.map_from_document(witness["map"])
            sets = oracles.from_map(mp)
            assert all(map_checks[h](*sets) for h in neg.hypothesis)
            assert all(not map_checks[c](*sets) for c in neg.conclusion)
    _passed("08 all six negative hunts succeed, revalidate, and match goldens")


def test_criterion_09_enumeration_counts():
    for cls, count in [("all", 256), ("isotonic", 36)]:
        chunks = enumeration.iter_table_chunks(2, cls)
        assert sum(chunk.shape[0] for chunk in chunks) == count
    assert sum(1 for _ in enumeration.iter_table_chunks(3, "isotonic")) >= 1
    assert enumeration.isotonic_tables(3).shape[0] == 8000

    # independent oracles: raw product count, set-oracle filter, family filter
    assert sum(1 for _ in itertools.product(range(4), repeat=4)) == 256
    filtered = 0
    for table in itertools.product(range(4), repeat=4):
        sp = cs.make_space(cs.ground(2), table)
        universe, cl = oracles.from_space(sp)
        filtered += oracles.isotonic(universe, cl)
    assert filtered == 36
    families = 0
    for fam_bits in range(1 << 8):
        fam = {a for a in range(8) if (fam_bits >> a) & 1}
        if all(b in fam for a in fam for b in range(8) if a & ~b == 0):
            families += 1
    assert families**3 == 8000
    _passed("09 enumeration counts 256 / 36 / 8000 against filter oracles")


def test_criterion_10_format_roundtrips_and_error_corpus(tmp_path):
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(1, 4)
        size = 1 << n
        sp = cs.make_space(cs.ground(n), [rng.randrange(size) for _ in range(size)])
        assert formats.parse_space(formats.serialize_space(sp)).table == sp.table

        pairs = [(a, b) for a in range(size) for b in range(a, size) if rng.random() < 0.3]
        rel = cs.make_relation(sp.ground, pairs)
        assert formats.parse_relation(formats.serialize_relation(rel)).pairs == rel.pairs

        ncod = rng.randint(1, 4)
        cod = cs.make_space(
            cs.ground(ncod), [rng.randrange(1 << ncod) for _ in range(1 << ncod)]
        )
        mp = cs.make_map(sp, cod, [rng.randrange(ncod) for _ in range(n)])
        back = formats.parse_map(formats.serialize_map(mp))
        assert (back.domain.table, back.codomain.table, back.assignment) == (
            sp.table,
            cod.table,
            mp.assignment,
        )

    corpus = [
        ("{", formats.DocumentSyntaxError),
        ('{"elements": ["a"], "closure": {"": ""}}', formats.MissingSubsetKey),
        ('{"elements": ["a"], "closure": {"": "z", "a": ""}}', formats.UnknownElement),
        ('{"elements": ["a", "a"], "closure": {}}', formats.DuplicateElement),
        (
            '{"elements": ["a", "b"], "closure": {"": "", "a": "a,a", "b": "", "a,b": ""}}',
            formats.DuplicateElement,
        ),
    ]
    for text, err in corpus:
        with pytest.raises(err):
            formats.parse_space(text)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["--quiet", "check", str(bad)]) == 2
    with pytest.raises(formats.DuplicatePair):
        formats.parse_relation('{"elements": ["a"], "pairs": [["", "a"], ["a", ""]]}')
    _passed("10 one hundred seeded round-trips and the malformed-document corpus")
