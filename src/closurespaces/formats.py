"""JSON documents for spaces, relations, and maps.

Subsets are written as comma-joined element names in carrier order, the
empty string for the empty set.  Serializers emit a canonical form (closure
keys in numeric subset order, relation pairs sorted, two-space indents, one
trailing newline); parsers accept any key order but reject non-canonical
subset strings, so the canonical form of a document is unique.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from .core import ClosureSpaceError, GroundSet, MAX_ELEMENTS, Space, make_space
from .maps import SpaceMap, make_map
from .separation import SeparationRelation, make_relation


class FormatError(ClosureSpaceError):
    """Base class for document errors; the CLI maps these to exit code 2."""


class DocumentSyntaxError(FormatError):
    pass


class MissingSubsetKey(FormatError):
    pass


class UnknownElement(FormatError):
    pass


class DuplicateElement(FormatError):
    pass


class DuplicatePair(FormatError):
    pass


class PartialAssignment(FormatError):
    pass


def _loads(text: str) -> Any:
    def hook(pairs):
        d = {}
        for k, v in pairs:
            if k in d:
                raise DocumentSyntaxError(f"duplicate key {k!r}")
            d[k] = v
        return d

    try:
        return json.loads(text, object_pairs_hook=hook)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentSyntaxError("document nests too deeply to parse") from exc


def read_text(path: Path | None) -> str:
    """The text of the document file ``path``, or of stdin when None; bytes
    that do not decode make the document malformed."""
    try:
        return sys.stdin.read() if path is None else path.read_text()
    except UnicodeDecodeError as exc:
        raise DocumentSyntaxError(f"{path or 'stdin'} is not text: {exc}") from exc


def _expect_object(obj: Any, keys: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise DocumentSyntaxError(f"{what} must be an object")
    if set(obj) != keys:
        raise DocumentSyntaxError(
            f"{what} must have exactly the keys {sorted(keys)}, got {sorted(obj)}"
        )


def subset_to_text(gset: GroundSet, mask: int) -> str:
    return ",".join(gset.labels[i] for i in range(gset.n) if (mask >> i) & 1)


def text_to_subset(gset: GroundSet, text: str) -> int:
    if not isinstance(text, str):
        raise DocumentSyntaxError(f"subset must be a string, got {text!r}")
    if text == "":
        return 0
    index = {label: i for i, label in enumerate(gset.labels)}
    mask = 0
    prev = -1
    for name in text.split(","):
        if name not in index:
            raise UnknownElement(f"unknown element {name!r} in subset {text!r}")
        i = index[name]
        if i == prev:
            raise DuplicateElement(f"duplicate element {name!r} in subset {text!r}")
        if i < prev:
            raise DocumentSyntaxError(f"subset {text!r} is not in canonical element order")
        mask |= 1 << i
        prev = i
    return mask


def _ground_from_elements(elements: Any) -> GroundSet:
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise DocumentSyntaxError("'elements' must be a list of strings")
    if not 1 <= len(elements) <= MAX_ELEMENTS:
        raise DocumentSyntaxError(
            f"'elements' must list between 1 and {MAX_ELEMENTS} names"
        )
    if len(set(elements)) != len(elements):
        raise DuplicateElement("element names must be pairwise distinct")
    for e in elements:
        if e == "" or "," in e:
            raise DocumentSyntaxError(f"invalid element name {e!r}")
    return GroundSet(tuple(elements))


# --- spaces ---------------------------------------------------------------


def space_document(space: Space) -> dict:
    gset = space.ground
    return {
        "elements": list(gset.labels),
        "closure": {
            subset_to_text(gset, m): subset_to_text(gset, space.table[m])
            for m in range(gset.size)
        },
    }


def space_from_document(obj: Any) -> Space:
    _expect_object(obj, {"elements", "closure"}, "space document")
    gset = _ground_from_elements(obj["elements"])
    closure = obj["closure"]
    if not isinstance(closure, dict):
        raise DocumentSyntaxError("'closure' must be an object")
    table = [-1] * gset.size
    for key, value in closure.items():
        table[text_to_subset(gset, key)] = text_to_subset(gset, value)
    for m in range(gset.size):
        if table[m] < 0:
            raise MissingSubsetKey(
                f"closure is missing the subset {subset_to_text(gset, m)!r}"
            )
    return make_space(gset, table)


def parse_space(text: str) -> Space:
    return space_from_document(_loads(text))


def serialize_space(space: Space) -> str:
    return json.dumps(space_document(space), indent=2) + "\n"


# --- relations ------------------------------------------------------------


def relation_document(rel: SeparationRelation) -> dict:
    gset = rel.ground
    return {
        "elements": list(gset.labels),
        "pairs": [
            [subset_to_text(gset, a), subset_to_text(gset, b)]
            for a, b in sorted(rel.pairs)
        ],
    }


def relation_from_document(obj: Any) -> SeparationRelation:
    _expect_object(obj, {"elements", "pairs"}, "relation document")
    gset = _ground_from_elements(obj["elements"])
    raw = obj["pairs"]
    if not isinstance(raw, list):
        raise DocumentSyntaxError("'pairs' must be a list")
    pairs = set()
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise DocumentSyntaxError(f"each pair must be a two-element list, got {item!r}")
        a = text_to_subset(gset, item[0])
        b = text_to_subset(gset, item[1])
        key = (a, b) if a <= b else (b, a)
        if key in pairs:
            raise DuplicatePair(f"pair [{item[0]!r}, {item[1]!r}] repeats after canonicalization")
        pairs.add(key)
    return make_relation(gset, pairs)


def parse_relation(text: str) -> SeparationRelation:
    return relation_from_document(_loads(text))


def serialize_relation(rel: SeparationRelation) -> str:
    return json.dumps(relation_document(rel), indent=2) + "\n"


# --- maps -----------------------------------------------------------------


def map_document(mp: SpaceMap) -> dict:
    dom = mp.domain.ground
    cod = mp.codomain.ground
    return {
        "domain": space_document(mp.domain),
        "codomain": space_document(mp.codomain),
        "assignment": {
            dom.labels[i]: cod.labels[mp.assignment[i]] for i in range(dom.n)
        },
    }


def _space_operand(value: Any, base_dir: str | Path | None) -> Space:
    if isinstance(value, str):
        path = Path(base_dir) / value if base_dir is not None else Path(value)
        return parse_space(read_text(path))
    return space_from_document(value)


def map_from_document(obj: Any, base_dir: str | Path | None = None) -> SpaceMap:
    _expect_object(obj, {"domain", "codomain", "assignment"}, "map document")
    domain = _space_operand(obj["domain"], base_dir)
    codomain = _space_operand(obj["codomain"], base_dir)
    raw = obj["assignment"]
    if not isinstance(raw, dict):
        raise DocumentSyntaxError("'assignment' must be an object")
    cod_index = {label: i for i, label in enumerate(codomain.ground.labels)}
    assignment = []
    for label in domain.ground.labels:
        if label not in raw:
            raise PartialAssignment(f"assignment is missing element {label!r}")
        target = raw[label]
        if not isinstance(target, str) or target not in cod_index:
            raise UnknownElement(f"assignment target {target!r} is not a codomain element")
        assignment.append(cod_index[target])
    for key in raw:
        if key not in domain.ground.labels:
            raise UnknownElement(f"assignment names unknown element {key!r}")
    return make_map(domain, codomain, assignment)


def parse_map(text: str, base_dir: str | Path | None = None) -> SpaceMap:
    return map_from_document(_loads(text), base_dir)


def serialize_map(mp: SpaceMap) -> str:
    return json.dumps(map_document(mp), indent=2) + "\n"
