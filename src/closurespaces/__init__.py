"""Finite generalized closure spaces.

Closure tables over carriers of up to 16 labeled elements, the derived
interior/exterior/neighborhood operators, axiom and separation predicates,
separation relations with reconstruction, total maps with the four morphism
predicates, desk-scale enumeration, and a claim catalog swept exhaustively
for counterexamples.
"""

from .core import (
    AxiomProfile,
    ClosureSpaceError,
    ElementOutOfRange,
    GroundSet,
    LengthMismatch,
    MaskOutOfRange,
    Space,
    SymmetryProfile,
    are_separated,
    axiom_profile,
    closure,
    exterior,
    ground,
    interior,
    is_neighborhood,
    make_space,
    symmetry_profile,
)
from .separation import (
    ConditionReport,
    ConditionsViolated,
    SeparationRelation,
    check_relation_conditions,
    closure_from_relation,
    make_relation,
    separated_pairs,
)
from .maps import (
    MapProfile,
    SpaceMap,
    image,
    is_closure_preserving,
    is_continuous,
    is_nonseparating,
    make_map,
    map_profile,
    preimage,
    preimage_separation,
)
from .enumeration import (
    CLASSES,
    UniverseTooLarge,
    class_size,
)
from .claims import (
    CATALOG,
    NEGATIVE_CATALOG,
    InvalidSweepArgument,
    UnknownClaim,
    VerificationReport,
    hunt_counterexample,
    verify_claim,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomProfile",
    "CATALOG",
    "CLASSES",
    "ClosureSpaceError",
    "ConditionReport",
    "ConditionsViolated",
    "ElementOutOfRange",
    "GroundSet",
    "InvalidSweepArgument",
    "LengthMismatch",
    "MapProfile",
    "MaskOutOfRange",
    "NEGATIVE_CATALOG",
    "SeparationRelation",
    "Space",
    "SpaceMap",
    "SymmetryProfile",
    "UniverseTooLarge",
    "UnknownClaim",
    "VerificationReport",
    "are_separated",
    "axiom_profile",
    "check_relation_conditions",
    "class_size",
    "closure",
    "closure_from_relation",
    "exterior",
    "ground",
    "hunt_counterexample",
    "image",
    "interior",
    "is_closure_preserving",
    "is_continuous",
    "is_neighborhood",
    "is_nonseparating",
    "make_map",
    "make_relation",
    "make_space",
    "map_profile",
    "preimage",
    "preimage_separation",
    "separated_pairs",
    "symmetry_profile",
    "verify_claim",
]
