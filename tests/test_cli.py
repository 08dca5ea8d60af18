import json
import time
from pathlib import Path

import pytest

import closurespaces as cs
from closurespaces import claims, enumeration, formats
from closurespaces.cli import main

D2 = cs.make_space(cs.ground(2), [0, 1, 2, 3])


@pytest.fixture
def d2_file(tmp_path):
    path = tmp_path / "d2.json"
    path.write_text(formats.serialize_space(D2))
    return str(path)


def test_check_all_flags_true(d2_file, capsys):
    assert main(["check", d2_file]) == 0
    out = capsys.readouterr().out
    assert out == (
        "grounded=true\nisotonic=true\nenlarging=true\nidempotent=true\n"
        "sublinear=true\npointwise_symmetric=true\nr0=true\nexterior_separated=true\n"
    )


def test_check_reads_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(formats.serialize_space(D2)))
    assert main(["check", "-"]) == 0
    assert "grounded=true" in capsys.readouterr().out


def test_check_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"elements": ["a"], "closure": {"": ""}}')
    assert main(["check", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["check", "/nonexistent/space.json"]) == 2


def test_separate_output(d2_file, capsys):
    assert main(["separate", d2_file]) == 0
    assert capsys.readouterr().out == (
        "{} | {}\n{} | {a}\n{} | {b}\n{} | {a,b}\n{a} | {b}\n"
    )


def test_derive_roundtrip(tmp_path, d2_file, capsys):
    rel_path = tmp_path / "rel.json"
    rel_path.write_text(formats.serialize_relation(cs.separated_pairs(D2)))
    out_path = tmp_path / "derived.json"
    assert main(["derive", str(rel_path), "-o", str(out_path)]) == 0
    assert formats.parse_space(out_path.read_text()).table == D2.table


def test_derive_conditions_violated_exits_1(tmp_path, capsys):
    rel_path = tmp_path / "rel.json"
    rel_path.write_text('{"elements": ["a"], "pairs": []}')
    assert main(["derive", str(rel_path)]) == 1
    out = capsys.readouterr().out
    assert "condition1=true" in out
    assert "condition2=false" in out
    assert "witness2={} | {}" in out


def test_map_check(tmp_path, capsys):
    mp = cs.make_map(D2, D2, [0, 1])
    path = tmp_path / "map.json"
    path.write_text(formats.serialize_map(mp))
    assert main(["map-check", str(path)]) == 0
    assert capsys.readouterr().out == (
        "closure_preserving=true\ncontinuous=true\nnonseparating=true\n"
        "preimage_separating=true\n"
    )


# bytes that are not UTF-8, and valid JSON nested past the parser's recursion limit
_UNPARSABLE = {
    "not-utf8": b'{"elements": ["\xff"], "closure": {}}',
    "over-deep": b"[" * 100_000 + b"]" * 100_000,
}


def _assert_malformed(code, capsys):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("content", list(_UNPARSABLE.values()), ids=list(_UNPARSABLE))
@pytest.mark.parametrize("command", ["check", "separate", "derive", "map-check"])
def test_unparsable_document_exits_2(tmp_path, capsys, command, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    _assert_malformed(main(["--quiet", command, str(path)]), capsys)


def test_map_document_naming_a_non_utf8_space_exits_2(tmp_path, capsys):
    (tmp_path / "x.json").write_bytes(_UNPARSABLE["not-utf8"])
    (tmp_path / "y.json").write_text(formats.serialize_space(D2))
    doc = {"domain": "x.json", "codomain": "y.json", "assignment": {"a": "a", "b": "b"}}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    _assert_malformed(main(["--quiet", "map-check", str(path)]), capsys)


def test_non_utf8_stdin_exits_2(monkeypatch, capsys):
    import io

    stdin = io.TextIOWrapper(io.BytesIO(_UNPARSABLE["not-utf8"]), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    _assert_malformed(main(["--quiet", "check", "-"]), capsys)


def test_verify_summary_and_exit_code(capsys):
    assert main(["--quiet", "verify", "--claim", "cor-r0", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "checked=256 violations=0 exhaustive=true" in out


def test_verify_unknown_claim_exits_2(capsys):
    assert main(["--quiet", "verify", "--claim", "thm-unknown", "--n", "2"]) == 2


def test_verify_violations_exit_1_and_print(monkeypatch, capsys):
    from closurespaces import claims

    bogus = claims.Claim(
        "bogus-all-grounded",
        "every space is grounded (false)",
        (claims.Implication("all", (), ("grounded",)),),
    )
    monkeypatch.setitem(claims.CATALOG, bogus.id, bogus)
    assert main(["--quiet", "verify", "--claim", "bogus-all-grounded", "--n", "1"]) == 1
    out = capsys.readouterr().out
    assert "checked=4 violations=2 exhaustive=true" in out
    witness_lines = [line for line in out.splitlines() if line.startswith("{")]
    assert len(witness_lines) == 2
    for line in witness_lines:
        doc = json.loads(line)
        sp = formats.space_from_document(doc["space"])
        assert not cs.axiom_profile(sp).grounded


def test_verify_stdout_is_byte_stable(capsys):
    main(["--quiet", "verify", "--claim", "thm-equiv-isotonic", "--n", "2"])
    first = capsys.readouterr().out
    main(["--quiet", "verify", "--claim", "thm-equiv-isotonic", "--n", "2"])
    assert capsys.readouterr().out == first


def test_sampled_map_violations_at_n3_match_the_golden(monkeypatch, capsys):
    # a false map claim over the seeded n = 3 samples: the summary and the
    # first 100 witnesses pin which instances the map sweep checks
    bogus = claims.Claim(
        "bogus-iso-pws-cont",
        "every map from an isotonic space to an isotonic pointwise-symmetric "
        "space is continuous (false)",
        (
            claims.Implication(
                ("isotonic", "isotonic_pointwise_symmetric"), (), ("continuous",)
            ),
        ),
    )
    monkeypatch.setitem(claims.CATALOG, bogus.id, bogus)
    golden = Path(__file__).parent / "goldens" / "verify-bogus-map-n3.txt"
    assert main(["--quiet", "verify", "--claim", bogus.id, "--n", "3", "--seed", "0"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("claim=bogus-iso-pws-cont n=3 checked=1080000 violations=1010189 ")
    assert out == golden.read_text()


def test_verify_stdout_matches_the_golden(capsys):
    # every claim of the catalog at n = 1 and 2, then at n = 3, byte for byte
    for name, sizes in (("verify-n1-n2.txt", (1, 2)), ("verify-n3.txt", (3,))):
        golden = Path(__file__).parent / "goldens" / name
        for n in sizes:
            for claim_id in claims.CATALOG:
                assert main(["--quiet", "verify", "--claim", claim_id, "--n", str(n)]) == 0
        assert capsys.readouterr().out == golden.read_text(), name


def test_hunt_writes_witness(tmp_path, capsys):
    out_path = tmp_path / "witness.json"
    code = main(
        ["--quiet", "hunt", "--claim", "neg-pws-not-extsep", "--n", "2", "-o", str(out_path)]
    )
    assert code == 0
    witness = json.loads(out_path.read_text())
    sp = formats.space_from_document(witness["space"])
    sym = cs.symmetry_profile(sp)
    assert sym.pointwise_symmetric and not sym.exterior_separated


def test_hunt_budget_exhausted_exits_3(capsys):
    assert (
        main(["--quiet", "hunt", "--claim", "neg-pws-not-extsep", "--n", "2", "--budget", "0"])
        == 3
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--claim", "cor-r0", "--n", "0"],
        ["verify", "--claim", "cor-r0", "--n", "-1"],
        ["verify", "--claim", "cor-r0", "--n", "2", "--budget", "0"],
        ["verify", "--claim", "cor-r0", "--n", "2", "--budget", "-5"],
        ["verify", "--claim", "cor-r0", "--n", "2", "--workers", "0"],
        ["hunt", "--claim", "neg-pws-not-extsep", "--n", "0"],
    ],
)
def test_out_of_range_sweep_arguments_exit_2(argv, capsys):
    assert main(["--quiet", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least 1" in captured.err


@pytest.mark.parametrize(
    "argv, smallest",
    [
        (["cor-r0", "--n", "3", "--budget", "1"], 64),
        (["thm-reconstruct", "--n", "3", "--budget", "1"], 512),
        (["thm-reconstruct", "--n", "4", "--budget", "1000"], 4096),
        (["thm-cp-cont", "--n", "3", "--budget", "1000"], 1728),
        (["cor-ns-iff-cont", "--n", "4", "--budget", "1000"], 65536),
    ],
)
def test_budget_that_affords_no_sample_exits_2(argv, smallest, capsys):
    # one table or relation, or for maps one table per side under all n**n
    # assignments; a budget below that must not report a sampled sweep
    assert main(["--quiet", "verify", "--claim", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"affords no sample at n = {argv[2]}: the smallest costs {smallest}" in captured.err


@pytest.mark.parametrize(
    "argv, checked",
    [
        (["cor-r0", "--n", "3", "--budget", "64"], 1),
        (["thm-cp-cont", "--n", "3", "--budget", "1728"], 54),
        (["thm-reconstruct", "--n", "4", "--budget", "4096"], 1),
        (["cor-ns-iff-cont", "--n", "4", "--budget", "65536"], 256),
    ],
)
def test_budget_that_affords_the_smallest_sample_sweeps_it(argv, checked, capsys):
    assert main(["--quiet", "verify", "--claim", *argv]) == 0
    assert capsys.readouterr().out == (
        f"claim={argv[0]} n={argv[2]} checked={checked} violations=0 exhaustive=false\n"
    )


def test_verify_workers_flag_does_not_change_stdout(monkeypatch, capsys):
    # 16 chunks at n = 2 and far more than VIOLATION_CAP violations: the
    # flag is accepted and ignored, so the witness list cannot move
    bogus = claims.Claim(
        "bogus-all-grounded",
        "every space is grounded (false)",
        (claims.Implication("all", (), ("grounded",)),),
    )
    monkeypatch.setitem(claims.CATALOG, bogus.id, bogus)
    monkeypatch.setattr(claims, "_CHUNK", 16)
    outputs = []
    for workers in ("1", "3"):
        argv = ["--quiet", "verify", "--claim", bogus.id, "--n", "2", "--workers", workers]
        assert main(argv) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("claim=bogus-all-grounded n=2 checked=256 violations=192 ")
    assert outputs[0].count("\n") == 1 + claims.VIOLATION_CAP


@pytest.mark.parametrize("claim_id", ["neg-pws-not-extsep", "neg-cont-not-cp"])
def test_negative_hunt_budget_exits_2(claim_id, capsys):
    assert main(["--quiet", "hunt", "--claim", claim_id, "--n", "2", "--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget must be at least 0, got -1" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--claim", "cor-r0", "--n", "2", "--seed", "-1"],
        ["verify", "--claim", "cor-r0", "--n", "3", "--seed", "-1"],
        ["verify", "--claim", "thm-reconstruct", "--n", "3", "--seed", "-1"],
        ["verify", "--claim", "thm-cp-cont", "--n", "3", "--seed", "-3"],
        ["hunt", "--claim", "neg-pws-not-extsep", "--n", "2", "--seed", "-5"],
    ],
)
def test_negative_seed_exits_2(argv, capsys):
    # exhaustive or sampled, the seed is refused before any sweep, and the
    # hunt, whose scan ignores the seed, refuses it too
    assert main(["--quiet", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"seed must be at least 0, got {argv[-1]}" in captured.err


def test_budget_beyond_the_float_range_samples_the_capped_map_sides(capsys):
    # the sample side is an integer square root, so a budget no float holds
    # prints the line of any budget that reaches the 200-table cap
    for budget in (10**300, 10**320):
        argv = ["--quiet", "verify", "--claim", "thm-cp-cont", "--n", "3"]
        assert main([*argv, "--budget", str(budget)]) == 0
        assert capsys.readouterr().out == (
            "claim=thm-cp-cont n=3 checked=2160000 violations=0 exhaustive=false\n"
        )


@pytest.mark.parametrize("argv", [["--n", "5"], ["--n", "21", "--budget", "0"]])
def test_hunt_beyond_the_decoder_exits_2_before_counting(argv, capsys):
    # (2**21)**(2**21) tables at n = 21 would take seconds just to count
    start = time.perf_counter()
    assert main(["--quiet", "hunt", "--claim", "neg-cp-not-cont", *argv]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "limited to n <= 4" in captured.err


def test_map_claim_beyond_sampler_exits_2_before_enumerating(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("assignments enumerated before the size check")

    monkeypatch.setattr(claims, "all_assignments", refuse)
    assert main(["--quiet", "verify", "--claim", "thm-cp-cont", "--n", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "limited to n <= 4" in captured.err


@pytest.mark.parametrize("claim_id", ["thm-clthm-formula", "thm-crit-grounded", "thm-reconstruct"])
def test_space_claim_beyond_enumeration_exits_2_before_counting(monkeypatch, capsys, claim_id):
    parts = enumeration._extsep_parts

    def refuse(n):
        if n > 3:
            raise AssertionError("exterior-separated tables counted before the size check")
        return parts(n)

    monkeypatch.setattr(enumeration, "_extsep_parts", refuse)
    assert main(["--quiet", "verify", "--claim", claim_id, "--n", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "limited to n <= 4" in captured.err
