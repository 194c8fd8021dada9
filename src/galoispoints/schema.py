"""Bundled JSON schemas for every report the CLI emits, and their writer.

The schemas use a small, self-contained subset of JSON Schema (type,
properties, required, items, enum).  Each schema is compiled, on its
first use, into a tree of closures that walks a report, applies every
rule and writes the report's text in the same pass: the bytes
``json.dumps`` writes with ``sort_keys=True`` and ``indent=2``.  The
first violation raises ``SchemaError`` with its path, and nothing is
written.  ``dump_report`` is that writer, so every report is validated
as it is written; ``validate`` and ``validate_report`` run the same walk
and drop its text, and the test suite validates golden outputs with
them.  Subtrees the schemas leave free (``witness``, ``params``, ...)
and keys no schema names go through a plain sorted indent-2 writer.
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


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "boolean": bool,
    "null": type(None),
}

_ESC = json.encoder.encode_basestring_ascii     # the C escaper
_INF = float("inf")
_BOOLS = {True: "true", False: "false"}

# A compiled writer: write(value, indent) -> the value's indent=2 text
Writer = Callable[[Any, str], str]


class _Violation(Exception):
    """The first violation a walk meets: the message after the path, and
    the path's segments, innermost first, added only as the walk unwinds."""

    def __init__(self, tail: str):
        self.tail = tail
        self.segments: list = []


def _float(v: float) -> str:
    if v != v:
        return "NaN"
    if v == _INF:
        return "Infinity"
    if v == -_INF:
        return "-Infinity"
    return float.__repr__(v)


# The text of a scalar of exactly one of these classes
_SCALARS = {str: _ESC, int: int.__repr__, bool: _BOOLS.__getitem__,
            type(None): lambda v: "null", float: _float}


def _key(k) -> str:
    """A dict key as ``json`` writes it."""
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float(k)
    if k is True:
        return "true"
    if k is False:
        return "false"
    if k is None:
        return "null"
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {k.__class__.__name__}")


def _plain(v: Any, ind: str) -> str:
    """The text ``json.dumps`` writes for v with ``sort_keys=True`` and
    ``indent=2``, at indentation ``ind``, for the subtrees no schema
    describes."""
    scalar = _SCALARS.get(v.__class__)
    if scalar is not None:
        return scalar(v)
    # subclasses: None and bool have none
    if isinstance(v, str):
        return _ESC(v)
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return _float(v)
    inner = ind + "  "
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        return (f"[\n{inner}" + f",\n{inner}".join([_plain(x, inner) for x in v])
                + f"\n{ind}]")
    if isinstance(v, dict):
        if not v:
            return "{}"
        parts = [_ESC(_key(k)) + ": " + _plain(x, inner)
                 for k, x in sorted(v.items())]
        return f"{{\n{inner}" + f",\n{inner}".join(parts) + f"\n{ind}}}"
    raise TypeError(f"Object of type {v.__class__.__name__} "
                    "is not JSON serializable")


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
            parts.append(_ESC(_key(key)) + ": "
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
    the items of a list."""
    types = schema.get("type")
    if isinstance(types, str):
        types = [types]
    enum = schema.get("enum")
    required = schema.get("required", ())
    props = {k: _compile(sub) for k, sub in schema.get("properties", {}).items()}
    item = _compile(schema["items"]) if "items" in schema else None
    others = tuple(_TYPES[t] for t in types or () if t != "integer")
    ints = types is not None and "integer" in types

    def write(v: Any, ind: str) -> str:
        if types is not None and not (
                isinstance(v, others)
                or ints and isinstance(v, int) and v.__class__ is not bool):
            raise _Violation(f"expected {types}, got {type(v).__name__}")
        if v is None:
            return "null"
        if enum is not None and v not in enum:
            raise _Violation(f"{v!r} not in {enum}")
        if isinstance(v, dict) and (required or props):
            for req in required:
                if req not in v:
                    raise _Violation(f"missing required key {req!r}")
            return _write_object(v, ind, props)
        if isinstance(v, list) and item is not None:
            return _write_array(v, ind, item)
        return _plain(v, ind)

    fmts = {} if enum is not None else {
        _TYPES[t]: _SCALARS[_TYPES[t]] for t in types or ()
        if _TYPES[t] in _SCALARS}
    return _Node(write, fmts)


def _walk(write: Writer, obj: Any, path: str) -> str:
    try:
        return write(obj, "")
    except _Violation as exc:
        raise SchemaError(path + "".join(reversed(exc.segments))
                          + ": " + exc.tail) from None


@lru_cache(maxsize=None)
def _report_writer(kind: str) -> Writer:
    """The writer of ``kind``'s bundled schema, compiled on first use: a
    run writes one kind, or two when it fails."""
    if kind not in SCHEMAS:
        raise SchemaError(f"unknown report kind {kind!r}")
    return _compile(SCHEMAS[kind]).write


def validate(obj: Any, schema: dict, path: str = "$") -> None:
    """Validate obj against a schema subset; raises SchemaError on failure.

    The walk is the writer's, run on a schema compiled for this call, so
    two things differ from a check that writes nothing: a dict's keys are
    visited in sorted order, so of two violations under one dict the one
    under the smaller key is reported (its required keys are still
    checked first); and a subtree the schema leaves free must be one that
    ``json`` can write, or the walk raises its TypeError (say, for an
    object of another class, or a dict whose keys cannot be sorted)."""
    _walk(_compile(schema).write, obj, path)


def validate_report(kind: str, obj: Any) -> None:
    """``validate`` against the bundled schema of ``kind``."""
    _walk(_report_writer(kind), obj, "$")


def dump_report(kind: str, report: Any) -> str:
    """The report validated against the schema of ``kind`` and written:
    exactly what ``json.dumps`` writes with ``sort_keys=True`` and
    ``indent=2``, plus a newline.  Raises SchemaError on the first
    violation (as ``validate`` orders them), before anything is
    written."""
    return _walk(_report_writer(kind), report, "$") + "\n"
