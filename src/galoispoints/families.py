"""Constructors and verifiers for the classified curve families.

Every family that the classification names is built here together with an
expectation skeleton: designated inner/outer centers, expected group
orders and tags, the expected joint classification, and named structural
checks (line divisor shapes, smooth-point counts on the fixed line,
non-commuting pairs, normality failures).  ``verify_family`` re-derives
everything through the certification engine and diffs against the
skeleton, so the test surface doubles as an empirical check of the
classification statements.

Families:

* ``thm2_tame(d, c)``  -- x^(d-1) + y^d + c, tame (p coprime to d(d-1)),
  direct product of cyclic groups of orders d-1 and d.
* ``thm2_wild(p, e, m, c)`` -- x^(d-1) + g(y)^m + c with g additive of
  degree p^e and d = p^e m; the outer group is (Z/p)^e x| Z/m.
* ``thm3_cubic`` / ``thm3_quartic`` -- the two sporadic normal forms with
  joint group S3 and A4 (semidirect, not direct).
* ``prop4(p, e)``       -- y^(d-1) x + (x+1)^d with d = p^e; also the
  projectively equivalent power form x - y^q with its parametrization
  t -> (t^q, t).
* ``gk(q)``             -- the degree q^3 + 1 plane model with an inner and
  an outer Galois point whose outer group is NOT normal in the joint group.

Additive polynomials are synthesized from explicit additive subgroups and
verified as exact identities (additivity and scaling equivariance).  The
branch-coefficient certificates for d = 3 and d = 4 re-solve the defining
coefficient systems from scratch over the requested field and verify the
resulting curve identities term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .config import RunConfig
from .curve import (
    PlaneCurve,
    check_degree,
    curve_from_affine,
    line_intersection_divisor,
    pencil_parametrization,
)
from .errors import (
    DegenerateOnly,
    FieldTooSmall,
    InputError,
    NotSubgroup,
    ScalingUnstable,
    SoundnessError,
)
from .galois import GaloisReport, is_galois_point, transported_deck_group
from .gf import (FieldCtx, FqElement, nth_root_of_unity,
                 parse_field_spec)
from .polyring import Polynomial, factor_univariate, splitting_roots
from .projective import (
    PointDivisor,
    ProductReport,
    ProjLine,
    ProjPoint,
    line_through,
    product_structure,
)
from .ratfunc import RationalMap1D


# ---------------------------------------------------------------------------
# Family specifications and expectations
# ---------------------------------------------------------------------------

FAMILY_TAGS = ("thm2_tame", "thm2_wild", "thm3_cubic", "thm3_quartic",
               "prop4", "gk")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class FamilySpec:
    """A family selector plus its parameters and ground field."""

    tag: str
    field: str                      # "p^k" spec string
    d: Optional[int] = None         # thm2_tame
    c: int = 1                      # thm2_tame / thm2_wild constant term (0 or 1)
    p: Optional[int] = None         # thm2_wild / prop4
    e: Optional[int] = None         # thm2_wild / prop4
    m: Optional[int] = None         # thm2_wild
    alphas: Optional[dict] = None   # thm2_wild: {i: coefficient encoding}
    q: Optional[int] = None         # gk
    variant: str = "pencil"         # prop4: "pencil" | "power"

    @classmethod
    def from_dict(cls, data: dict) -> "FamilySpec":
        if not isinstance(data, dict) or "tag" not in data:
            raise InputError("family spec must be an object with a 'tag'")
        tag = data["tag"]
        if tag not in FAMILY_TAGS:
            raise InputError(f"unknown family tag {tag!r}; "
                             f"expected one of {FAMILY_TAGS}")
        params = ("d", "c", "p", "e", "m", "alphas", "q", "variant")
        unknown = sorted(set(data) - {"tag", "field", *params})
        if unknown:
            raise InputError(f"unknown key {unknown[0]!r}; allowed keys are "
                             f"tag, field, {', '.join(params)}")
        if "field" not in data:
            raise InputError("family spec needs a 'field' (\"p^k\")")
        kwargs = {k: data[k] for k in params if k in data}
        for k, v in kwargs.items():
            if k == "variant":
                ok, want = isinstance(v, str), "a string"
            elif k == "alphas":
                ok = isinstance(v, dict) and all(
                    i.isdigit() and _is_int(c) for i, c in v.items())
                want = "an object from digit strings to integers"
            else:
                ok, want = _is_int(v), "an integer"
            if not ok:
                raise InputError(f"family parameter {k!r} must be {want}, "
                                 f"got {v!r}")
        return cls(tag=tag, field=str(data["field"]), **kwargs)


@dataclass
class FamilyExpectation:
    """What verify_family should find: data, not assertions."""

    P: ProjPoint
    Q: ProjPoint
    inner_order: int
    outer_order: int
    inner_strategy: str = "collineation"
    outer_strategy: str = "collineation"
    parametrization: Optional[tuple] = None
    classification: str = "direct"
    joint_order: Optional[int] = None
    joint_tag: Optional[str] = None
    inner_tag: Optional[str] = None
    outer_tag: Optional[str] = None
    ell_P: Optional[ProjLine] = None
    extra_checks: tuple = ()


# ---------------------------------------------------------------------------
# Additive polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdditivePolynomial:
    """g(y) = a_e y^(p^e) + ... + a_1 y^p + a_0 y with verified identities."""

    p: int
    e: int
    m: int
    coeffs: dict            # i -> FqElement (only p-power exponents)
    poly: Polynomial


def additive_poly_from_subgroup(S: Sequence[FqElement], m: int) -> AdditivePolynomial:
    """The additive polynomial with root set S, checked against the
    scaling-stability requirement for the exponent m.

    S must be an additive subgroup of its field of size p^e with m | p^e - 1
    and zeta_m * S = S.  The result g = prod_{a in S} (y - a) is verified to
    be additive (g(y+z) = g(y) + g(z) exactly), to carry only p-power
    exponents with nonzero top and bottom coefficients, and to satisfy
    g(zeta y) = zeta g(y); nonzero coefficients a_i appear only where m
    divides p^i - 1, the index i = 0 being admitted vacuously.
    """
    if not S:
        raise NotSubgroup("empty set")
    ctx = S[0].ctx
    p = ctx.p
    elems = set()
    for a in S:
        if a.ctx != ctx:
            raise NotSubgroup("elements live in different fields")
        elems.add(a)
    if ctx.zero not in elems:
        raise NotSubgroup("0 is missing")
    size = len(elems)
    e = 0
    n = size
    while n % p == 0:
        n //= p
        e += 1
    if n != 1 or e == 0:
        raise NotSubgroup(f"size {size} is not a positive power of p = {p}")
    # encoding order, so the reported failing pair does not depend on hashing
    ordered = sorted(elems, key=lambda x: x.encoding())
    for a in ordered:
        for b in ordered:
            if a + b not in elems:
                raise NotSubgroup(f"not closed under addition at "
                                  f"{a.encoding()} + {b.encoding()}")
    if (p ** e - 1) % m != 0:
        raise InputError(f"m = {m} does not divide p^e - 1 = {p ** e - 1}")
    zeta = nth_root_of_unity(ctx, m)
    if zeta is None:
        raise FieldTooSmall(f"no primitive {m}-th root of unity in {ctx.spec}")
    scaled = {zeta * a for a in elems}
    if scaled != elems:
        bad = sorted(x.encoding() for x in scaled - elems)
        raise ScalingUnstable(
            f"zeta = {zeta.encoding()} of order {m} moves the subgroup "
            f"(new elements {bad})")
    y = Polynomial.variable(ctx, 1, 0)
    g = Polynomial.const(ctx, 1, 1)
    for a in ordered:
        g = g * (y - a)
    coeffs: dict[int, FqElement] = {}
    powers = {p ** i: i for i in range(e + 1)}
    for (exp,), rep in g.terms.items():
        if exp not in powers:
            raise SoundnessError(  # pragma: no cover - roots form a group
                f"non-additive exponent {exp} appeared")
        coeffs[powers[exp]] = FqElement(ctx, rep)
    if not coeffs.get(0) or not coeffs.get(e):
        raise NotSubgroup("vanishing bottom or top coefficient")
    for i, a_i in coeffs.items():
        if i > 0 and a_i and (p ** i - 1) % m != 0:
            raise ScalingUnstable(
                f"coefficient at y^(p^{i}) allowed only when m | p^{i} - 1")
    # exact additivity: g(y + z) = g(y) + g(z)
    y2 = Polynomial.variable(ctx, 2, 0)
    z2 = Polynomial.variable(ctx, 2, 1)
    g2 = lambda arg: sum(
        (arg ** (p ** i) * a_i for i, a_i in coeffs.items()),
        Polynomial.zero(ctx, 2))
    if g2(y2 + z2) != g2(y2) + g2(z2):
        raise SoundnessError("additivity identity failed")  # pragma: no cover
    # exact scaling equivariance: g(zeta y) = zeta g(y)
    gz = Polynomial.zero(ctx, 1)
    for i, a_i in coeffs.items():
        gz = gz + (y * zeta) ** (p ** i) * a_i
    if gz != g * zeta:
        raise SoundnessError("g(zeta y) != zeta g(y)")  # pragma: no cover
    return AdditivePolynomial(p, e, m, coeffs, g)


# ---------------------------------------------------------------------------
# Branch certificates (d = 3 and d = 4)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchCertificate:
    """Solved branch constants with the verified curve identity."""

    d: int
    constants: dict          # name -> encoding (a, c, and d0 for d = 4)
    beta_power: int          # encoding of beta^2 (d=3) or beta^3 (d=4)
    beta: FqElement          # a concrete root in the smallest extension
    field: FieldCtx
    identity: str            # text of the verified identity

    def to_jsonable(self) -> dict:
        return {
            "d": self.d,
            "field": self.field.spec,
            "constants": dict(sorted(self.constants.items())),
            "beta_power": self.beta_power,
            "beta": {"value": self.beta.encoding(), "field": self.beta.ctx.spec},
            "identity": self.identity,
        }


def branch_certificate(d: int, field: FieldCtx, ext_cap: int = 12) -> BranchCertificate:
    """Solve the branch-coefficient system for the sporadic families.

    d = 3: a + 2 = 3c, 2a + beta^2 + 1 = 3c^2, a = c^3, which forces
    (c - 1)^2 (c + 2) = 0; the c = 1 root gives beta = 0 and is discarded.
    d = 4: a + 3 = 2c, 3a + 3 = c^2 + 2 d0, 3a + beta^3 + 1 = 2 c d0,
    a = d0^2, which forces (d0 - 1)^3 (d0 + 3) = 0; d0 = 1 is degenerate.
    The surviving constants are verified against the displayed curve
    identities exactly, over any field of characteristic not 2 or 3.
    """
    if d not in (3, 4):
        raise InputError("branch certificates exist for d = 3 and d = 4")
    if field.p in (2, 3):
        raise DegenerateOnly(
            f"characteristic {field.p} only admits the degenerate branch")
    ctx = field
    one = ctx.one
    t = Polynomial.variable(ctx, 1, 0)
    if d == 3:
        # c^3 - 3c + 2 = 0
        poly = t ** 3 - t * 3 + 2
        solutions = []
        for root_poly, _ in factor_univariate(poly):
            if root_poly.degree() != 1:
                continue
            c = -root_poly.coefficient((0,))
            a = c * 3 - 2
            beta_sq = c * c * 3 - a * 2 - one
            if not beta_sq:
                continue
            # all three relations, re-checked independently
            if not (a + 2 == c * 3 and a * 2 + beta_sq + one == c * c * 3
                    and a == c ** 3):
                raise SoundnessError("d = 3 branch relations fail")
            solutions.append((c, a, beta_sq))
        if not solutions:
            raise DegenerateOnly("only the beta = 0 branch exists")
        c, a, beta_sq = solutions[0]
        rm = splitting_roots(t * t - beta_sq, ext_cap=ext_cap)
        beta = rm.roots[0][0]
        # identity: y^2 x + (x+1)^2 (x+a) == y^2 x + beta^2 x + (x+c)^3 - 3c...
        # exactly: (x+1)^2 (x+a) - (x+c)^3 + beta^2 x == 0
        lhs = (t + 1) ** 2 * (t + a) - (t + c) ** 3 + t * beta_sq
        if not lhs.is_zero:
            raise SoundnessError("branch identity failed")  # pragma: no cover
        ident = "y^2*x+(x+1)^2*(x+a) = y^2*x-beta^2*x+(x+c)^3 with beta^2*x moved"
        return BranchCertificate(
            3,
            {"a": a.encoding(), "c": c.encoding()},
            beta_sq.encoding(), beta, ctx,
            f"(x+1)^2*(x+{a.encoding()}) - (x+{c.encoding()})^3 "
            f"+ {beta_sq.encoding()}*x == 0")
    # d == 4: d0^4 - 6 d0^2 + 8 d0 - 3 = 0
    poly = t ** 4 - t * t * 6 + t * 8 - 3
    solutions = []
    for root_poly, _ in factor_univariate(poly):
        if root_poly.degree() != 1:
            continue
        d0 = -root_poly.coefficient((0,))
        a = d0 * d0
        two_inv = (ctx.element(2)).inverse()
        c = (a + 3) * two_inv
        beta_cu = c * d0 * 2 - a * 3 - one
        if not beta_cu:
            continue
        if not (a + 3 == c * 2 and a * 3 + 3 == c * c + d0 * 2
                and a * 3 + beta_cu + one == c * d0 * 2 and a == d0 * d0):
            raise SoundnessError("d = 4 branch relations fail")
        solutions.append((d0, a, c, beta_cu))
    if not solutions:
        raise DegenerateOnly("only the beta = 0 branch exists")
    d0, a, c, beta_cu = solutions[0]
    rm = splitting_roots(t ** 3 - beta_cu, ext_cap=ext_cap)
    beta = rm.roots[0][0]
    lhs = (t + 1) ** 3 * (t + a) - (t * t + t * c + d0) ** 2 + t * beta_cu
    if not lhs.is_zero:
        raise SoundnessError("branch identity failed")  # pragma: no cover
    return BranchCertificate(
        4,
        {"a": a.encoding(), "c": c.encoding(), "d0": d0.encoding()},
        beta_cu.encoding(), beta, ctx,
        f"(x+1)^3*(x+{a.encoding()}) - (x^2+{c.encoding()}*x+{d0.encoding()})^2 "
        f"+ {beta_cu.encoding()}*x == 0")


# ---------------------------------------------------------------------------
# Family construction
# ---------------------------------------------------------------------------

def _subfield_elements(ctx: FieldCtx, e: int) -> list[FqElement]:
    """The elements of the subfield F_{p^e} inside ctx (e must divide k)."""
    if ctx.k % e != 0:
        raise FieldTooSmall(
            f"{ctx.spec} does not contain F_{{{ctx.p}^{e}}}")
    q = ctx.p ** e
    return [x for x in ctx.elements() if x ** q == x]


def _wild_tag(p: int, e: int, m: int) -> str:
    """The catalogue tag of (Z/p)^e x| Z/m, in identify_group's priority."""
    pe = p ** e
    if m == 1:
        return "cyclic" if e == 1 else (
            "klein" if pe == 4 else "elementary_abelian")
    if pe == 4 and m == 3:
        return "a4"
    return "s3" if pe * m == 6 else "semidirect_p_cyclic"


def build_family(spec: FamilySpec) -> tuple[PlaneCurve, FamilyExpectation]:
    """Construct the family curve and its expectation skeleton.  The thm3
    and prop4 pencil curves are parametrized by the pencil of lines through
    their (d-1)-fold point (-1:0:1); ``pencil_parametrization`` checks its
    multiplicity and verifies the result on the curve exactly."""
    ctx = parse_field_spec(spec.field)
    p = ctx.p
    if spec.tag == "thm2_tame":
        d = spec.d
        if d is None or d < 3:
            raise InputError("thm2_tame needs d >= 3")
        check_degree(d)
        if (d * (d - 1)) % p == 0:
            raise InputError(
                f"thm2_tame needs p coprime to d(d-1); got p = {p}, d = {d}")
        if spec.c not in (0, 1):
            raise InputError("c must be 0 or 1")
        x = Polynomial.variable(ctx, 2, 0)
        y = Polynomial.variable(ctx, 2, 1)
        curve = curve_from_affine(x ** (d - 1) + y ** d + spec.c)
        P = ProjPoint(ctx, [1, 0, 0])
        Q = ProjPoint(ctx, [0, 1, 0])
        extra = ["pq_line_is_dP"]
        extra.append("singular_locus_empty" if spec.c == 1 else "cusp_at_001")
        return curve, FamilyExpectation(
            P=P, Q=Q, inner_order=d - 1, outer_order=d,
            classification="direct", joint_order=d * (d - 1),
            inner_tag="cyclic", outer_tag="cyclic",
            extra_checks=tuple(extra))
    if spec.tag == "thm2_wild":
        if spec.p is None or spec.e is None or spec.m is None:
            raise InputError("thm2_wild needs p, e, m")
        if spec.e < 1 or spec.m < 1:
            raise InputError("thm2_wild needs e >= 1 and m >= 1")
        if spec.p != p:
            raise InputError(f"field characteristic {p} != spec p = {spec.p}")
        if spec.m % p == 0 or (p ** spec.e - 1) % spec.m != 0:
            raise InputError("need p coprime to m and m | p^e - 1")
        d = p ** spec.e * spec.m
        check_degree(d)
        if (d - 1) % p == 0:
            raise InputError("d - 1 must be coprime to p")  # pragma: no cover
        if spec.c not in (0, 1):
            raise InputError("c must be 0 or 1")
        if spec.alphas is not None:
            g = Polynomial.zero(ctx, 1)
            y1 = Polynomial.variable(ctx, 1, 0)
            for i_str, enc in spec.alphas.items():
                i = int(i_str)
                if i > spec.e:
                    raise InputError(f"alpha index {i} exceeds e = {spec.e}")
                if not 0 <= int(enc) < ctx.order:
                    raise InputError(f"family parameter 'alphas': alpha_{i} "
                                     f"= {enc} is not an encoding "
                                     f"0..{ctx.order - 1} of {ctx.spec}")
                if int(enc) and i > 0 and (p ** i - 1) % spec.m != 0:
                    raise InputError(
                        f"alpha_{i} must vanish unless m | p^{i} - 1")
                g = g + y1 ** (p ** i) * ctx.element(int(enc))
            if not g.coefficient((p ** spec.e,)) or not g.coefficient((1,)):
                raise InputError("alpha_e and alpha_0 must be nonzero")
        else:
            S = _subfield_elements(ctx, spec.e)
            g = additive_poly_from_subgroup(S, spec.m).poly
        x = Polynomial.variable(ctx, 2, 0)
        gy = g.compose([Polynomial.variable(ctx, 2, 1)])
        curve = curve_from_affine(x ** (d - 1) + gy ** spec.m + spec.c)
        P = ProjPoint(ctx, [1, 0, 0])
        Q = ProjPoint(ctx, [0, 1, 0])
        return curve, FamilyExpectation(
            P=P, Q=Q, inner_order=d - 1, outer_order=d,
            classification="direct", joint_order=d * (d - 1),
            inner_tag="cyclic", outer_tag=_wild_tag(p, spec.e, spec.m),
            extra_checks=("pq_line_is_dP",))
    if spec.tag in ("thm3_cubic", "thm3_quartic"):
        if p in (2, 3):
            raise InputError("thm3 families need characteristic not 2, 3")
        x = Polynomial.variable(ctx, 2, 0)
        y = Polynomial.variable(ctx, 2, 1)
        if spec.tag == "thm3_cubic":
            d = 3
            curve = curve_from_affine(y ** 2 * x + (x + 1) ** 2 * (x - 8))
            joint_tag, joint_order = "s3", 6
            extra = ("smooth_on_ellP_eq_1", "noncommuting_pair")
        else:
            d = 4
            curve = curve_from_affine(y ** 3 * x + (x + 1) ** 3 * (x + 9))
            joint_tag, joint_order = "a4", 12
            extra = ("mult3_singular_on_ellP", "noncommuting_pair")
        P = ProjPoint(ctx, [0, 1, 0])
        Q = ProjPoint(ctx, [1, 0, 0])
        param = pencil_parametrization(curve, ProjPoint(ctx, [-1, 0, 1]))
        return curve, FamilyExpectation(
            P=P, Q=Q, inner_order=d - 1, outer_order=d,
            inner_strategy="collineation", outer_strategy="deck",
            parametrization=param,
            classification="right_semidirect",
            joint_order=joint_order, joint_tag=joint_tag,
            inner_tag="cyclic",
            outer_tag="klein" if d == 4 else "cyclic",
            ell_P=ProjLine(ctx, [0, 1, 0]),
            extra_checks=extra)
    if spec.tag == "prop4":
        if spec.p is None or spec.e is None:
            raise InputError("prop4 needs p and e")
        if spec.p != p:
            raise InputError(f"field characteristic {p} != spec p = {spec.p}")
        d = p ** spec.e
        if d < 3:
            raise InputError("prop4 needs d = p^e >= 3")
        check_degree(d)
        if ctx.k % spec.e != 0:
            raise FieldTooSmall(
                f"{ctx.spec} lacks the order-(d-1) scalars; use k divisible by e")
        x = Polynomial.variable(ctx, 2, 0)
        y = Polynomial.variable(ctx, 2, 1)
        if spec.variant == "power":
            curve = curve_from_affine(x - y ** d)
            P = ProjPoint(ctx, [0, 0, 1])
            Q = ProjPoint(ctx, [1, 1, 0])
            t_poly = Polynomial.variable(ctx, 1, 0)
            param = (RationalMap1D.from_poly(t_poly ** d),
                     RationalMap1D.from_poly(t_poly))
            ell_P = None
        elif spec.variant == "pencil":
            curve = curve_from_affine(y ** (d - 1) * x + (x + 1) ** d)
            P = ProjPoint(ctx, [0, 1, 0])
            Q = ProjPoint(ctx, [1, 0, 0])
            param = pencil_parametrization(curve, ProjPoint(ctx, [-1, 0, 1]))
            ell_P = ProjLine(ctx, [0, 1, 0])
        else:
            raise InputError(f"unknown prop4 variant {spec.variant!r}")
        return curve, FamilyExpectation(
            P=P, Q=Q, inner_order=d - 1, outer_order=d,
            inner_strategy="collineation", outer_strategy="deck",
            parametrization=param,
            classification="right_semidirect",
            joint_order=d * (d - 1),
            inner_tag="cyclic", outer_tag=_wild_tag(p, spec.e, 1),
            ell_P=ell_P,
            extra_checks=("pq_support_d_distinct", "noncommuting_pair"))
    if spec.tag == "gk":
        q = spec.q
        if q is None or q < 2:
            raise InputError("gk needs q >= 2")
        n = q
        while n % p == 0:
            n //= p
        if n != 1:
            raise InputError(f"q = {q} is not a power of p = {p}")
        d = q ** 3 + 1
        check_degree(d)
        x = Polynomial.variable(ctx, 2, 0)
        y = Polynomial.variable(ctx, 2, 1)
        curve = curve_from_affine(
            x ** (q ** 3) + x - (x ** q + x) ** (q * q - q + 1) - y ** d)
        P = ProjPoint(ctx, [1, 0, 0])
        Q = ProjPoint(ctx, [0, 1, 0])
        # the inner group of this model is wild (p | d - 1) and is not
        # realized by collineations; auto strategy surfaces the Monte Carlo
        # screen's verdict instead of a bare inconclusive
        return curve, FamilyExpectation(
            P=P, Q=Q, inner_order=d - 1, outer_order=d,
            inner_strategy="auto",
            classification="left_semidirect",
            joint_order=d * (d - 1),
            outer_tag="cyclic",
            extra_checks=("g2_not_normal",))
    raise InputError(f"unknown family tag {spec.tag!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass
class FamilyVerdict:
    """Re-derived facts about a family curve, diffed against expectations."""

    curve: PlaneCurve
    inner: GaloisReport
    outer: GaloisReport
    joint: Optional[ProductReport]
    lemma_line: dict
    checks: list                      # of {"name", "expected", "got", "passed"}
    success: bool

    def to_jsonable(self) -> dict:
        return {
            "curve": self.curve.to_jsonable(),
            "inner": self.inner.to_jsonable(),
            "outer": self.outer.to_jsonable(),
            "joint": self.joint.to_jsonable() if self.joint else None,
            "lemma_line": self.lemma_line,
            "checks": self.checks,
            "success": self.success,
        }


def lemma_line_predicates(curve: PlaneCurve, P: ProjPoint, Q: ProjPoint,
                          ext_cap: int) -> tuple[dict, PointDivisor]:
    """The line predicates for the line through P and Q, and its divisor.

    The divisor is the one cut on the curve by the line PQ; the predicates
    record its support size, whether that size is 1 or deg C, whether the
    divisor is d*P, and whether the support meets Sing(C).
    """
    d = curve.degree
    div = line_intersection_divisor(curve, line_through(P, Q), ext_cap=ext_cap)
    support_size = len(div.support)
    is_dP = div == PointDivisor(P.ctx, 2, {P: d})
    meets_singular = any(curve.contains(pt) and not curve.is_smooth_at(pt)
                         for pt in div.support)
    return {
        "support_size": support_size,
        "is_1_or_d": support_size in (1, d),
        "is_dP": bool(is_dP),
        "support_meets_singular": bool(meets_singular),
    }, div


def _check(checks: list, name: str, expected, got) -> None:
    checks.append({"name": name, "expected": expected, "got": got,
                   "passed": expected == got})


def verify_family(curve: PlaneCurve, expected: FamilyExpectation,
                  cfg: Optional[RunConfig] = None) -> FamilyVerdict:
    """Re-derive the family's Galois structure and diff against the skeleton.

    Runs the certification engine on both designated centers, computes the
    joint product structure (from deck groups in PGL(2) when the
    expectation carries a parametrization), evaluates the line predicates
    for the line through P and Q, and all named extra checks.  Per-check
    failures are recorded, not raised.
    """
    cfg = cfg or RunConfig()
    checks: list = []
    inner = is_galois_point(curve, expected.P, strategy=expected.inner_strategy,
                            parametrization=expected.parametrization, cfg=cfg)
    outer = is_galois_point(curve, expected.Q, strategy=expected.outer_strategy,
                            parametrization=expected.parametrization, cfg=cfg)
    _check(checks, "inner_certified", "certified_galois", inner.verdict)
    _check(checks, "outer_certified", "certified_galois", outer.verdict)
    _check(checks, "inner_order", expected.inner_order,
           len(inner.group) if inner.group else None)
    _check(checks, "outer_order", expected.outer_order,
           len(outer.group) if outer.group else None)
    if expected.inner_tag and inner.descriptor:
        _check(checks, "inner_tag", expected.inner_tag, inner.descriptor.tag)
    if expected.outer_tag and outer.descriptor:
        _check(checks, "outer_tag", expected.outer_tag, outer.descriptor.tag)

    # joint structure in one common representation: with a
    # parametrization, deck groups in PGL(2); a certified collineation
    # group is transported there, and only a center without a certified
    # group is searched
    joint = None
    g_inner, g_outer = inner.group, outer.group
    if expected.parametrization is not None:
        groups = []
        for rep, pt in ((inner, expected.P), (outer, expected.Q)):
            g = rep.group
            if rep.method == "collineation" and rep.verdict == "certified_galois":
                g = transported_deck_group(g, pt, expected.parametrization)
            elif g is None or g.n != 2:
                g = is_galois_point(curve, pt, strategy="deck",
                                    parametrization=expected.parametrization,
                                    cfg=cfg).group
            groups.append(g)
        g_inner, g_outer = groups
    if g_inner is not None and g_outer is not None and g_inner.n == g_outer.n:
        joint = product_structure(g_inner, g_outer, cap=cfg.closure_cap)
        _check(checks, "classification", expected.classification,
               joint.classification)
        if expected.joint_order is not None:
            _check(checks, "joint_order", expected.joint_order, len(joint.joint))
        if expected.joint_tag is not None:
            _check(checks, "joint_tag", expected.joint_tag,
                   joint.joint_descriptor.tag)
    else:
        _check(checks, "classification", expected.classification, None)

    # Lemma-line predicates on the line through P and Q
    d = curve.degree
    lemma_line, div = lemma_line_predicates(curve, expected.P, expected.Q,
                                            cfg.ext_cap)
    _check(checks, "lemma_line_support_1_or_d", True, lemma_line["is_1_or_d"])

    for token in expected.extra_checks:
        if token == "pq_line_is_dP":
            _check(checks, token, True, lemma_line["is_dP"])
        elif token == "pq_support_d_distinct":
            _check(checks, token, True,
                   lemma_line["support_size"] == d
                   and all(m == 1 for m in div.support.values()))
        elif token == "smooth_on_ellP_eq_1":
            ell = expected.ell_P
            ell_div = line_intersection_divisor(curve, ell, ext_cap=cfg.ext_cap)
            smooth = [pt for pt in ell_div.support if curve.is_smooth_at(pt)]
            _check(checks, token, True, len(smooth) == 1)
        elif token == "mult3_singular_on_ellP":
            ell = expected.ell_P
            hit = any(m == 3 and ell.contains(pt)
                      for pt, m in curve.singular_locus(cfg.ext_cap).points)
            _check(checks, token, True, hit)
        elif token == "noncommuting_pair":
            # joint exists exactly when both groups do, in one dimension
            ok = False
            if joint is not None:
                J = joint.joint
                s2 = J.positions(g_outer)
                ok = any(J.mul(a, b) != J.mul(b, a)
                         for a in J.positions(g_inner) for b in s2)
            _check(checks, token, True, ok)
        elif token == "g2_not_normal":
            _check(checks, token, False,
                   joint.g2_normal if joint is not None else None)
        elif token == "singular_locus_empty":
            _check(checks, token, True,
                   curve.singular_locus(cfg.ext_cap).is_empty())
        elif token == "cusp_at_001":
            hit = any(pt.lift_to(pt.ctx).encoding() == (0, 0, 1) and m >= 2
                      for pt, m in curve.singular_locus(cfg.ext_cap).points)
            _check(checks, token, True, hit)
        else:
            _check(checks, token, "known check token", "unknown")
    success = all(c["passed"] for c in checks)
    return FamilyVerdict(curve, inner, outer, joint, lemma_line, checks, success)
