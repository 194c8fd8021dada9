"""Bundled JSON schemas for every report the CLI emits, and their writer.

The schemas use a small, self-contained subset of JSON Schema (type,
properties, required, items, enum).  ``dump_report`` is the one entry
point: it compiles a kind's schema, on its first use, into a tree of
closures that walks a report, applies every rule and writes the report's
text in the same pass: the bytes ``json.dumps`` writes with
``sort_keys=True`` and ``indent=2``.  The first violation raises
``SchemaError`` with its path, and nothing is written.  Subtrees the
schemas leave free (``witness``, ``params``, ...) and keys no schema
names go through a plain sorted indent-2 writer.

A report holds report values only: dicts with str keys, lists, str, int,
bool and None, each of exactly that class.  Anything else (a float, NaN
or Infinity among them, a tuple, a set, a subclass, a non-str key) raises
TypeError before anything is written, so every report is strict JSON.
"""

from __future__ import annotations

import json.encoder
from functools import lru_cache
from typing import Any, Callable


class SchemaError(Exception):
    pass


_POINT = {
    "type": "object",
    "required": ["coords", "field"],
    "properties": {
        "coords": {"type": "array", "items": {"type": "integer"}},
        "field": {"type": "string"},
    },
}

_DESCRIPTOR = {
    "type": "object",
    "required": ["order", "abelian", "element_order_histogram", "tag", "params"],
    "properties": {
        "order": {"type": "integer"},
        "abelian": {"type": "boolean"},
        "element_order_histogram": {"type": "object"},
        "tag": {"type": "string",
                "enum": ["trivial", "cyclic", "klein", "elementary_abelian",
                         "s3", "a4", "semidirect_p_cyclic", "other"]},
        "params": {"type": "object"},
    },
}

_GROUP = {
    "type": ["object", "null"],
    "required": ["order", "field", "dimension", "elements"],
    "properties": {
        "order": {"type": "integer"},
        "field": {"type": "string"},
        "dimension": {"type": "integer"},
        "elements": {"type": "array",
                     "items": {"type": "array", "items": {"type": "integer"}}},
    },
}

GALOIS_REPORT = {
    "type": "object",
    "required": ["point", "point_class", "projection_degree", "verdict",
                 "method", "trials", "notes", "group", "descriptor", "witness"],
    "properties": {
        "point": _POINT,
        "point_class": {"type": "string", "enum": ["inner", "outer", "invalid"]},
        "projection_degree": {"type": "integer"},
        "verdict": {"type": "string",
                    "enum": ["certified_galois", "certified_not_galois",
                             "probably_galois", "inconclusive"]},
        "method": {"type": ["string", "null"],
                   "enum": ["collineation", "deck", "monte_carlo", None]},
        "trials": {"type": "integer"},
        "notes": {"type": "array", "items": {"type": "string"}},
        "group": _GROUP,
        "descriptor": {"type": ["object", "null"], **{
            k: v for k, v in _DESCRIPTOR.items() if k != "type"}},
        "witness": {"type": ["object", "null"]},
    },
}

_PRODUCT = {
    "type": ["object", "null"],
    "required": ["joint_order", "joint_descriptor", "intersection_order",
                 "product_set_equals_joint", "g1_normal", "g2_normal",
                 "classification"],
    "properties": {
        "joint_order": {"type": "integer"},
        "joint_descriptor": _DESCRIPTOR,
        "intersection_order": {"type": "integer"},
        "product_set_equals_joint": {"type": "boolean"},
        "g1_normal": {"type": "boolean"},
        "g2_normal": {"type": "boolean"},
        "classification": {"type": "string",
                           "enum": ["direct", "left_semidirect",
                                    "right_semidirect", "neither",
                                    "not_a_product"]},
    },
}

_CURVE = {
    "type": "object",
    "required": ["field", "modulus", "degree", "form", "affine_poly",
                 "assume_irreducible"],
    "properties": {
        "field": {"type": "string"},
        "modulus": {"type": "array", "items": {"type": "integer"}},
        "degree": {"type": "integer"},
        "form": {"type": "string"},
        "affine_poly": {"type": "string"},
        "assume_irreducible": {"type": "boolean"},
    },
}

_LEMMA_LINE = {
    "type": "object",
    "required": ["support_size", "is_1_or_d", "is_dP", "support_meets_singular"],
    "properties": {
        "support_size": {"type": "integer"},
        "is_1_or_d": {"type": "boolean"},
        "is_dP": {"type": "boolean"},
        "support_meets_singular": {"type": "boolean"},
    },
}

_CHECK = {
    "type": "object",
    "required": ["name", "passed"],
    "properties": {"name": {"type": "string"}, "passed": {"type": "boolean"}},
}

PAIR_REPORT = {
    "type": "object",
    "required": ["inner", "outer", "joint", "lemma_line"],
    "properties": {
        "inner": GALOIS_REPORT,
        "outer": GALOIS_REPORT,
        "joint": _PRODUCT,
        "lemma_line": _LEMMA_LINE,
    },
}

EMBEDDING_RESULT = {
    "type": "object",
    "required": ["f", "g", "field", "curve", "image_P", "Q", "inner_report",
                 "outer_report", "joint", "witness", "checks"],
    "properties": {
        "f": {"type": "object"},
        "g": {"type": "object"},
        "field": {"type": "string"},
        "curve": _CURVE,
        "image_P": {"type": "array", "items": {"type": "integer"}},
        "Q": {"type": "array", "items": {"type": "integer"}},
        "inner_report": GALOIS_REPORT,
        "outer_report": GALOIS_REPORT,
        "joint": _PRODUCT,
        "witness": {"type": "object"},
        "checks": {"type": "array", "items": _CHECK},
    },
}

FAMILY_VERDICT = {
    "type": "object",
    "required": ["curve", "inner", "outer", "joint", "lemma_line", "checks",
                 "success"],
    "properties": {
        "curve": _CURVE,
        "inner": GALOIS_REPORT,
        "outer": GALOIS_REPORT,
        "joint": _PRODUCT,
        "lemma_line": _LEMMA_LINE,
        "checks": {"type": "array", "items": _CHECK},
        "success": {"type": "boolean"},
    },
}

BRANCH_CERTIFICATE = {
    "type": "object",
    "required": ["d", "field", "constants", "beta_power", "beta", "identity"],
    "properties": {
        "d": {"type": "integer", "enum": [3, 4]},
        "field": {"type": "string"},
        "constants": {"type": "object"},
        "beta_power": {"type": "integer"},
        "beta": {"type": "object"},
        "identity": {"type": "string"},
    },
}

ERROR_REPORT = {
    "type": "object",
    "required": ["error", "message"],
    "properties": {
        "error": {"type": "string"},
        "message": {"type": "string"},
    },
}

SCHEMAS = {
    "galois_report": GALOIS_REPORT,
    "pair_report": PAIR_REPORT,
    "embedding_result": EMBEDDING_RESULT,
    "family_verdict": FAMILY_VERDICT,
    "branch_certificate": BRANCH_CERTIFICATE,
    "error": ERROR_REPORT,
}


# The class of each schema type, and so of every value a report holds
_TYPES = {"object": dict, "array": list, "string": str, "integer": int,
          "boolean": bool, "null": type(None)}
_VALUES = set(_TYPES.values())

_ESC = json.encoder.encode_basestring_ascii     # the C escaper
_BOOLS = {True: "true", False: "false"}

# A compiled writer: write(value, indent) -> the value's indent=2 text
Writer = Callable[[Any, str], str]


class _Violation(Exception):
    """The first violation a walk meets: the message after the path, and
    the path's segments, innermost first, added only as the walk unwinds."""

    def __init__(self, tail: str):
        self.tail = tail
        self.segments: list = []


# The text of a scalar of exactly one of these classes
_SCALARS = {str: _ESC, int: int.__repr__, bool: _BOOLS.__getitem__,
            type(None): lambda v: "null"}


def _not_a_report_value(v: Any) -> TypeError:
    return TypeError(f"{v.__class__.__name__} is not a report value")


def _plain(v: Any, ind: str) -> str:
    """The sorted indent-2 text of v at indentation ``ind``, for the
    subtrees no schema describes."""
    scalar = _SCALARS.get(v.__class__)
    if scalar is not None:
        return scalar(v)
    inner = ind + "  "
    if v.__class__ is list:
        if not v:
            return "[]"
        return (f"[\n{inner}" + f",\n{inner}".join([_plain(x, inner) for x in v])
                + f"\n{ind}]")
    if v.__class__ is dict:
        if not v:
            return "{}"
        parts = [_ESC(k) + ": " + _plain(x, inner) for k, x in sorted(v.items())]
        return f"{{\n{inner}" + f",\n{inner}".join(parts) + f"\n{ind}}}"
    raise _not_a_report_value(v)


class _Node:
    """A compiled schema node.  ``write`` checks a value and writes it or
    raises _Violation.  ``fmts`` maps each scalar class the node accepts
    whatever the value (no enum) to its formatter, so that a dict or list
    writes such a leaf without calling ``write``."""

    __slots__ = ("write", "fmts")

    def __init__(self, write: Writer, fmts: dict):
        self.write, self.fmts = write, fmts


_FREE = _Node(_plain, _SCALARS)


def _write_object(v: dict, ind: str, props: dict) -> str:
    """A dict in sorted key order: each named property by its node, any
    other key plain."""
    if not v:
        return "{}"
    inner = ind + "  "
    parts = []
    key = None
    try:
        for key, x in sorted(v.items()):
            node = props.get(key, _FREE)
            fmt = node.fmts.get(x.__class__)
            parts.append(_ESC(key) + ": "
                         + (fmt(x) if fmt else node.write(x, inner)))
    except _Violation as exc:
        exc.segments.append(f".{key}")
        raise
    return f"{{\n{inner}" + f",\n{inner}".join(parts) + f"\n{ind}}}"


def _write_array(v: list, ind: str, item: _Node) -> str:
    if not v:
        return "[]"
    inner = ind + "  "
    fmts, write = item.fmts, item.write
    parts = []
    i = 0
    try:
        for i, x in enumerate(v):
            fmt = fmts.get(x.__class__)
            parts.append(fmt(x) if fmt else write(x, inner))
    except _Violation as exc:
        exc.segments.append(f"[{i}]")
        raise
    return f"[\n{inner}" + f",\n{inner}".join(parts) + f"\n{ind}]"


def _compile(schema: dict) -> _Node:
    """The node of one schema.  Its writer applies the rules in order:
    type, null, enum, then the required keys and properties of a dict or
    the items of a list.  A type matches by exact class, so a bool is no
    integer, and a value of no report class raises TypeError."""
    types = schema["type"]
    if isinstance(types, str):
        types = [types]
    classes = frozenset(_TYPES[t] for t in types)
    enum = schema.get("enum")
    required = schema.get("required", ())
    props = {k: _compile(sub) for k, sub in schema.get("properties", {}).items()}
    item = _compile(schema["items"]) if "items" in schema else None

    def write(v: Any, ind: str) -> str:
        if v.__class__ not in classes:
            if v.__class__ not in _VALUES:
                raise _not_a_report_value(v)
            raise _Violation(f"expected {types}, got {type(v).__name__}")
        if v is None:
            return "null"
        if enum is not None and v not in enum:
            raise _Violation(f"{v!r} not in {enum}")
        if v.__class__ is dict and (required or props):
            for req in required:
                if req not in v:
                    raise _Violation(f"missing required key {req!r}")
            return _write_object(v, ind, props)
        if v.__class__ is list and item is not None:
            return _write_array(v, ind, item)
        return _plain(v, ind)

    fmts = {} if enum is not None else {
        c: _SCALARS[c] for c in classes if c in _SCALARS}
    return _Node(write, fmts)


@lru_cache(maxsize=None)
def _report_writer(kind: str) -> Writer:
    """The writer of ``kind``'s bundled schema, compiled on first use: a
    run writes one kind, or two when it fails."""
    if kind not in SCHEMAS:
        raise SchemaError(f"unknown report kind {kind!r}")
    return _compile(SCHEMAS[kind]).write


def dump_report(kind: str, report: Any) -> str:
    """The report validated against the schema of ``kind`` and written,
    sorted at indent 2, plus a newline.  Raises SchemaError on the first
    violation and TypeError on the first value a report cannot hold,
    before anything is written.  The walk meets them in writing order: a
    dict's required keys first, then its keys in sorted order."""
    try:
        return _report_writer(kind)(report, "") + "\n"
    except _Violation as exc:
        raise SchemaError("$" + "".join(reversed(exc.segments))
                          + ": " + exc.tail) from None
