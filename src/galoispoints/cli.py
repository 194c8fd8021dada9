"""Batch front door: JSON in, deterministic JSON verification reports out.

Subcommands (all inputs and outputs are JSON; there is no interactive mode):

    check  <curve.json> --point "x:y:z" [--strategy ...]   -> galois_report
    pair   <curve.json> --inner "x:y:z" --outer "x:y:z"    -> pair_report
    embed  <groups.json> [--point t]                       -> embedding_result
    family <spec.json>                                     -> family_verdict
    branch --d {3,4} --field p^k                           -> branch_certificate

Exit codes: 0 when the operation completed and every expected check passed,
2 when a verification-type check failed (family verdict failure, embedding
verification failure, degenerate branch), 1 on malformed input.  Two runs
with identical inputs and configuration produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import Optional

from . import __version__
from .config import RunConfig
from .curve import PlaneCurve, curve_from_affine
from .embedder import construct_embedding
from .errors import (
    CenterSingular,
    ConditionBFails,
    DegenerateOnly,
    GaloisPointError,
    InputError,
    VerificationFailed,
)
from .families import (
    FamilySpec,
    branch_certificate,
    build_family,
    lemma_line_predicates,
    verify_family,
)
from .galois import GaloisReport, is_galois_point
from .gf import FieldCtx, parse_field_spec
from .polyring import parse_poly
from .projective import Projectivity, ProjPoint, generate_group, product_structure
from .schema import dump_report


# RunConfig's integer knobs: each is a --flag, echoed in a report's "config"
_KNOBS = tuple(f for f in dataclasses.fields(RunConfig) if f.name != "output")


def _emit(payload: dict, kind: str, cfg: RunConfig) -> str:
    report = dict(payload)
    report["kind"] = kind
    report["tool"] = {"name": "galoispoints", "version": __version__}
    report["config"] = {k.name: getattr(cfg, k.name) for k in _KNOBS}
    return dump_report(kind, report)


def _write(text: str, cfg: RunConfig) -> None:
    if cfg.output and cfg.output != "-":
        try:
            with open(cfg.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(
                f"cannot write {cfg.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}")


# The top-level keys each kind of input file may carry
_CURVE_KEYS = ("field", "modulus", "affine_poly", "assume_irreducible")
_GROUPS_KEYS = ("field", "modulus", "g1", "g2", "point")


def _reject_unknown_keys(data: dict, allowed: tuple, path: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise InputError(f"{path}: unknown key {unknown[0]!r}; allowed keys "
                         f"are {', '.join(allowed)}")


def _field_from_file(data: dict, path: str) -> FieldCtx:
    if "field" not in data:
        raise InputError(f"{path}: missing 'field'")
    ctx = parse_field_spec(str(data["field"]))
    if "modulus" in data:
        modulus = data["modulus"]
        if not isinstance(modulus, list) or any(
                type(c) is not int for c in modulus):   # no floats or bools
            raise InputError(f"{path}: 'modulus' must be a list of integers")
        modulus = tuple(modulus)
        if modulus != ctx.modulus:
            try:
                ctx = FieldCtx(ctx.p, ctx.k, modulus)
            except GaloisPointError as exc:
                raise InputError(f"{path}: bad modulus: {exc}") from None
    return ctx


def load_curve(path: str) -> PlaneCurve:
    """Read a curve file: {"field", "modulus"?, "affine_poly",
    "assume_irreducible"?}."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: curve file must be a JSON object")
    _reject_unknown_keys(data, _CURVE_KEYS, path)
    ctx = _field_from_file(data, path)
    if "affine_poly" not in data:
        raise InputError(f"{path}: missing 'affine_poly'")
    poly = parse_poly(str(data["affine_poly"]), ctx, 2)
    if not isinstance(assume := data.get("assume_irreducible", True), bool):
        raise InputError(f"{path}: 'assume_irreducible' must be true or false")
    try:
        curve = curve_from_affine(poly, assume_irreducible=assume)
    except GaloisPointError as exc:
        raise InputError(f"{path}: bad curve: {exc}")
    if curve.degree < 2:
        raise InputError(f"{path}: bad curve: degree {curve.degree}; Galois "
                         "points are checked on curves of degree >= 2")
    return curve


def _elements(values, ctx: FieldCtx, what: str) -> list:
    """The field elements of integer encodings 0..q-1 (ints or their
    decimal strings); anything else is rejected, not reduced or truncated."""
    try:
        codes = [int(str(v)) for v in values]     # no floats, no booleans
    except ValueError:
        raise InputError(f"{what} must be integers (base-{ctx.p} encodings)")
    if not all(0 <= v < ctx.order for v in codes):
        raise InputError(f"{what} must be encodings 0..{ctx.order - 1} of "
                         f"{ctx.spec}")
    return [ctx.element(v) for v in codes]


def _encodings(text: str, ctx: FieldCtx, count: int) -> list:
    """The field elements of ``count`` ":"-separated encodings."""
    parts = text.strip().split(":")
    if len(parts) != count:
        raise InputError(f"point {text!r} must have {count} coordinates")
    return _elements(parts, ctx, f"point {text!r}: coordinates")


def parse_point(text: str, ctx: FieldCtx) -> ProjPoint:
    """A point of P^2 given as "x:y:z"."""
    coords = _encodings(text, ctx, 3)
    if not any(coords):
        raise InputError(f"point {text!r} is the zero vector")
    return ProjPoint(ctx, coords)


def cmd_check(args, cfg: RunConfig) -> int:
    curve = load_curve(args.curve)
    point = parse_point(args.point, curve.ctx)
    try:
        payload = is_galois_point(curve, point, strategy=args.strategy,
                                  cfg=cfg).to_jsonable()
    except CenterSingular as exc:
        raise InputError(str(exc))
    _write(_emit(payload, "galois_report", cfg), cfg)
    return 0


def _pair_side(curve: PlaneCurve, pt: ProjPoint, cfg: RunConfig):
    """One side of a pair report; a singular center yields an 'invalid'
    entry instead of aborting the whole pair."""
    try:
        report = is_galois_point(curve, pt, cfg=cfg)
        return report.to_jsonable(), report
    except CenterSingular as exc:
        stub = GaloisReport(pt, "invalid", 0, "inconclusive", notes=[str(exc)])
        return stub.to_jsonable(), None


def cmd_pair(args, cfg: RunConfig) -> int:
    curve = load_curve(args.curve)
    inner_pt = parse_point(args.inner, curve.ctx)
    outer_pt = parse_point(args.outer, curve.ctx)
    if inner_pt == outer_pt:
        raise InputError(f"--inner and --outer are the same point "
                         f"{inner_pt.spec_str()}; a pair needs two")
    inner_payload, inner = _pair_side(curve, inner_pt, cfg)
    outer_payload, outer = _pair_side(curve, outer_pt, cfg)
    joint = None
    if (inner is not None and outer is not None
            and inner.group is not None and outer.group is not None
            and inner.group.n == outer.group.n):
        joint = product_structure(inner.group, outer.group,
                                  cap=cfg.closure_cap)
    lemma_line, _ = lemma_line_predicates(curve, inner_pt, outer_pt,
                                          cfg.ext_cap)
    payload = {
        "inner": inner_payload,
        "outer": outer_payload,
        "joint": joint.to_jsonable() if joint else None,
        "lemma_line": lemma_line,
    }
    _write(_emit(payload, "pair_report", cfg), cfg)
    return 0


def _load_group(data, ctx: FieldCtx, name: str, cap: int):
    mats = data.get(name)
    if not isinstance(mats, list) or not mats:
        raise InputError(f"groups file: '{name}' must be a nonempty list of "
                         "2x2 row-major matrices")
    gens = []
    for m in mats:
        if not (isinstance(m, list) and len(m) == 4):
            raise InputError(f"groups file: each {name} matrix needs 4 entries")
        e = _elements(m, ctx, f"groups file: {name} matrix {m}: entries")
        try:
            gens.append(Projectivity(ctx, [e[:2], e[2:]]))
        except ValueError as exc:
            raise InputError(f"groups file: bad matrix {m}: {exc}")
    return generate_group(gens, cap=cap)


def cmd_embed(args, cfg: RunConfig) -> int:
    data = _load_json(args.groups)
    if not isinstance(data, dict):
        raise InputError(f"{args.groups}: groups file must be a JSON object")
    _reject_unknown_keys(data, _GROUPS_KEYS, args.groups)
    ctx = _field_from_file(data, args.groups)
    G1 = _load_group(data, ctx, "g1", cfg.closure_cap)
    G2 = _load_group(data, ctx, "g2", cfg.closure_cap)
    if len(G2) < 2:
        raise InputError("groups file: 'g2' generates the trivial group; "
                         "the outer group needs order at least 2")
    point_text = args.point if args.point is not None else data.get("point")
    if point_text is None:
        raise InputError("no point given (groups file 'point' or --point)")
    from .projective import point_p1
    point_text = str(point_text).strip()
    if point_text in ("inf", "oo", "infinity"):
        P = point_p1(ctx, infinity=True)
    else:
        P = point_p1(ctx, *_encodings(point_text, ctx, 1))
    try:
        result = construct_embedding(G1, G2, P, cfg)
    except (ConditionBFails, VerificationFailed) as exc:
        _write(_emit({"error": type(exc).__name__, "message": str(exc)},
                     "error", cfg), cfg)
        return 2
    _write(_emit(result.to_jsonable(), "embedding_result", cfg), cfg)
    return 0


def cmd_family(args, cfg: RunConfig) -> int:
    data = _load_json(args.spec)
    spec = FamilySpec.from_dict(data)
    curve, expected = build_family(spec)
    verdict = verify_family(curve, expected, cfg)
    _write(_emit(verdict.to_jsonable(), "family_verdict", cfg), cfg)
    return 0 if verdict.success else 2


def cmd_branch(args, cfg: RunConfig) -> int:
    ctx = parse_field_spec(args.field)
    try:
        cert = branch_certificate(args.d, ctx, ext_cap=cfg.ext_cap)
    except DegenerateOnly as exc:
        _write(_emit({"error": "DegenerateOnly", "message": str(exc)},
                     "error", cfg), cfg)
        return 2
    _write(_emit(cert.to_jsonable(), "branch_certificate", cfg), cfg)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise InputError (exit 1 with
    a JSON error) instead of printing usage and exiting 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, so every ``dispatch`` call can share it."""
    parser = _Parser(
        prog="galoispoints",
        description="Construct, detect and certify Galois points of plane "
                    "curves over finite fields.")
    parser.add_argument("--version", action="version",
                        version=f"galoispoints {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    for knob in _KNOBS:
        common.add_argument("--" + knob.name.replace("_", "-"), type=int,
                            default=knob.default)
    common.add_argument("--output", default=None,
                        help="write the report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="classify one projection center")
    p.add_argument("curve", help="curve JSON file")
    p.add_argument("--point", required=True, help='projective point "x:y:z"')
    p.add_argument("--strategy", default="auto",
                   choices=["auto", "collineation", "monte_carlo"])
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("pair", parents=[common],
                       help="analyze an inner/outer pair and their joint group")
    p.add_argument("curve")
    p.add_argument("--inner", required=True)
    p.add_argument("--outer", required=True)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("embed", parents=[common],
                       help="build a plane model from two PGL(2) groups")
    p.add_argument("groups", help="groups JSON file (g1, g2 matrices)")
    p.add_argument("--point", default=None,
                   help="base point t (field encoding or 'inf')")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("family", parents=[common],
                       help="build and verify a classified family curve")
    p.add_argument("spec", help="family spec JSON file")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("branch", parents=[common],
                       help="solve and certify the d=3/d=4 branch systems")
    p.add_argument("--d", type=int, required=True, choices=[3, 4])
    p.add_argument("--field", required=True, help='field spec "p^k"')
    p.set_defaults(func=cmd_branch)
    return parser


def dispatch(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            cfg = RunConfig(output=args.output,
                            **{k.name: getattr(args, k.name) for k in _KNOBS})
        except ValueError as exc:
            raise InputError(str(exc)) from None
        return args.func(args, cfg)
    except GaloisPointError as exc:     # InputError included
        sys.stderr.write(dump_report("error", {
            "kind": "error", "error": type(exc).__name__, "message": str(exc)}))
        return 1 if isinstance(exc, InputError) else 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
