"""The benchmark's workloads: pinned CLI calls with their expected output.

Every call pins ``--budget`` (and ``--workers`` for ``verify``), so a later
change to a default does not change the work a workload does.  The seed is
appended per run.  Expected stdout is what the seed commit of this
repository prints; it does not depend on ``--seed`` because every sweep
finds zero violations and the hunts are exhaustive scans.  For hunts the
expected stdout is the committed golden witness under ``tests/goldens``.
Why each workload was chosen is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

BUDGET = "100000000"
SWEEP_ALL_BUDGET = "2147483648"

KERNEL_CLAIMS = (
    "thm-equiv-isotonic",
    "thm-clthm-formula",
    "thm-roundtrip",
    "thm-crit-grounded",
    "thm-crit-enlarging",
    "thm-crit-sublinear",
    "thm-idem-sufficient",
    "thm-idem-necessary",
)
MAP_CLAIMS = (
    "thm-cp-cont",
    "thm-cp-implies-ns",
    "cor-cont-implies-ns",
    "thm-preimage",
    "thm-ns-iff-cp",
    "cor-ns-iff-cont",
)
HUNT_CLAIMS = (
    "neg-pws-not-extsep",
    "neg-r0-not-extsep",
    "neg-cont-not-cp",
    "neg-cp-not-cont",
    "neg-ns-not-cp",
    "neg-ns-not-cont",
)

# checked= counts printed by the seed commit, per (claim, n)
_CHECKED = {
    ("cor-r0", 3): (16777216, True),
    ("thm-equiv-isotonic", 3): (8000, True),
    ("thm-clthm-formula", 3): (51040, True),
    ("thm-roundtrip", 3): (1736, True),
    ("thm-crit-grounded", 3): (51040, True),
    ("thm-crit-enlarging", 3): (51040, True),
    ("thm-crit-sublinear", 3): (51040, True),
    ("thm-idem-sufficient", 3): (51040, True),
    ("thm-idem-necessary", 3): (51040, True),
    ("thm-cp-cont", 3): (2160000, False),
    ("thm-cp-implies-ns", 3): (1080000, False),
    ("cor-cont-implies-ns", 3): (1080000, False),
    ("thm-preimage", 3): (2160000, False),
    ("thm-ns-iff-cp", 3): (1080000, False),
    ("cor-ns-iff-cont", 3): (1080000, False),
    ("thm-reconstruct", 3): (5000, False),
    ("axioms-equiv-check", 3): (5000, False),
    **{(claim, 4): (5000, False) for claim in KERNEL_CLAIMS},
}


@dataclass(frozen=True)
class Call:
    """One CLI invocation; ``argv`` excludes the seed, which each run adds."""

    argv: tuple[str, ...]
    expected: str | None = None  # None: the hunt golden for argv's claim

    def with_seed(self, seed: int) -> list[str]:
        return ["-q", *self.argv, "--seed", str(seed)]

    def at_small_n(self) -> "Call":
        """The same call at n = 2, used to warm up code paths untimed."""
        argv = list(self.argv)
        argv[argv.index("--n") + 1] = "2"
        return Call(tuple(argv))

    def expected_stdout(self, root: Path) -> str:
        if self.expected is not None:
            return self.expected
        claim = self.argv[self.argv.index("--claim") + 1]
        return (root / "tests" / "goldens" / f"{claim}.json").read_text()


def verify(claim: str, n: int, budget: str = BUDGET, workers: int = 1) -> Call:
    checked, exhaustive = _CHECKED[(claim, n)]
    line = (
        f"claim={claim} n={n} checked={checked} violations=0 "
        f"exhaustive={'true' if exhaustive else 'false'}\n"
    )
    argv = ("verify", "--claim", claim, "--n", str(n), "--budget", budget, "--workers", str(workers))
    return Call(argv, line)


def hunt(claim: str) -> Call:
    return Call(("hunt", "--claim", claim, "--n", "2", "--budget", BUDGET))


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    # lru-cached universes the calls read, filled during set-up
    caches: tuple[tuple[str, int], ...] = ()
    threads: int = 1  # the largest --workers of its calls


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "sweep-all-n3",
            (verify("cor-r0", 3, budget=SWEEP_ALL_BUDGET, workers=2),),
            threads=2,
        ),
        Workload(
            "kernels-maps-n3",
            tuple(verify(claim, 3) for claim in (*KERNEL_CLAIMS, *MAP_CLAIMS)),
            (("isotonic_tables", 3), ("extsep_tables", 3)),
        ),
        Workload(
            "object-path",
            (
                verify("thm-reconstruct", 3),
                verify("axioms-equiv-check", 3),
                *(verify(claim, 4) for claim in KERNEL_CLAIMS),
                *(hunt(claim) for claim in HUNT_CLAIMS),
            ),
            (("upset_families", 3), ("upset_families", 4)),
        ),
    ]
}
