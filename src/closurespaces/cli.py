"""Command-line surface over the library.

Exit codes: 0 success, 1 claim violations or failed reconstruction
conditions, 2 malformed input, unknown claim/universe, a sweep argument
below 1 or a negative hunt budget, 3 hunt exhausted its budget without a
witness.  Stdout is byte-stable for fixed inputs and flags; timing chatter
goes to stderr and is silenced by --quiet.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import claims, formats
from .core import ClosureSpaceError, axiom_profile, symmetry_profile
from .maps import map_profile
from .separation import ConditionsViolated, closure_from_relation, separated_pairs


def _read(path: str) -> tuple[str, Path | None]:
    if path == "-":
        return formats.read_text(None), None
    p = Path(path)
    return formats.read_text(p), p.parent


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _print_profile(profile) -> None:
    """One name=value line per field of a profile, in field order."""
    for name, value in asdict(profile).items():
        print(f"{name}={_bool(value)}")


def _cmd_check(args) -> int:
    text, _ = _read(args.space)
    sp = formats.parse_space(text)
    _print_profile(axiom_profile(sp))
    _print_profile(symmetry_profile(sp))
    return 0


def _cmd_separate(args) -> int:
    text, _ = _read(args.space)
    sp = formats.parse_space(text)
    rel = separated_pairs(sp)
    for a, b in sorted(rel.pairs):
        left = formats.subset_to_text(sp.ground, a)
        right = formats.subset_to_text(sp.ground, b)
        print("{%s} | {%s}" % (left, right))
    return 0


def _cmd_derive(args) -> int:
    text, _ = _read(args.relation)
    rel = formats.parse_relation(text)
    try:
        sp = closure_from_relation(rel)
    except ConditionsViolated as exc:
        rep = exc.report
        print(f"condition1={_bool(rep.condition1)}")
        print(f"condition2={_bool(rep.condition2)}")
        if rep.witness1 is not None:
            a, b, c = (formats.subset_to_text(rel.ground, m) for m in rep.witness1)
            print("witness1={%s} | {%s} | {%s}" % (a, b, c))
        if rep.witness2 is not None:
            a, b = (formats.subset_to_text(rel.ground, m) for m in rep.witness2)
            print("witness2={%s} | {%s}" % (a, b))
        return 1
    out = formats.serialize_space(sp)
    if args.output:
        Path(args.output).write_text(out)
    else:
        sys.stdout.write(out)
    return 0


def _cmd_map_check(args) -> int:
    text, base = _read(args.map)
    mp = formats.parse_map(text, base)
    _print_profile(map_profile(mp))
    return 0


def _cmd_verify(args) -> int:
    report = claims.verify_claim(
        args.claim, args.n, budget=args.budget, seed=args.seed, workers=args.workers
    )
    print(report.summary())
    for doc in report.violations:
        print(json.dumps(doc, sort_keys=True))
    if not args.quiet:
        print(f"elapsed={report.elapsed:.3f}s", file=sys.stderr)
    return 0 if report.total_violations == 0 else 1


def _cmd_hunt(args) -> int:
    witness = claims.hunt_counterexample(
        args.claim, n_max=args.n, budget=args.budget, seed=args.seed
    )
    if witness is None:
        if not args.quiet:
            print("no witness found within budget", file=sys.stderr)
        return 3
    text = json.dumps(witness, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        if not args.quiet:
            print(f"witness written to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="closurespaces",
        description="Inspect finite closure spaces and sweep the claim catalog.",
    )
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress stderr chatter")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="print the axiom and symmetry profile of a space")
    p.add_argument("space", help="space document, or - for stdin")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("separate", help="print the separated pairs of a space")
    p.add_argument("space", help="space document, or - for stdin")
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("derive", help="rebuild a space from a separation relation")
    p.add_argument("relation", help="relation document, or - for stdin")
    p.add_argument("-o", "--output", help="write the space document here instead of stdout")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("map-check", help="print the morphism profile of a map")
    p.add_argument("map", help="map document, or - for stdin")
    p.set_defaults(func=_cmd_map_check)

    p = sub.add_parser("verify", help="sweep one claim of the catalog")
    p.add_argument("--claim", required=True, help="claim id")
    p.add_argument("--n", required=True, type=int, help="carrier size")
    p.add_argument("--budget", type=int, default=claims.DEFAULT_EVAL_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("hunt", help="search for a counterexample to an omitted converse")
    p.add_argument("--claim", required=True, help="negative claim id")
    p.add_argument("--n", required=True, type=int, help="largest carrier size to scan")
    p.add_argument("--budget", type=int, default=claims.DEFAULT_EVAL_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="write the witness here instead of stdout")
    p.set_defaults(func=_cmd_hunt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ClosureSpaceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
