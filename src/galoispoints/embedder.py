"""Constructive birational embeddings of P^1 with inner and outer Galois points.

Given finite subgroups G1, G2 of PGL(2) and a point P of P^1 such that

    P + sum_{sigma in G1} sigma(eta(P)) = sum_{tau in G2} tau(P)

for some eta in G2 (the divisor condition; the quotient condition is
automatic for subgroups of PGL(2) and is recorded, not tested), the map
phi = (f : g : 1) built from invariant generators

    f with k(t)^G1 = k(f) and pole divisor sum_{sigma} sigma(eta(P)),
    g with k(t)^G2 = k(g) and pole divisor sum_{tau} tau(P),

is birational onto a plane curve of degree |G2| whose point phi(P) = (0:1:0)
is an inner Galois point with group G1 and Q = (1:0:0) an outer Galois point
with group G2.  This module builds the witnesses, the invariants, the
implicit curve (by resultant elimination), and certifies both Galois
points by verifying G1 and G2 as deck groups; nothing is returned
unverified.

Invariant generators come from a symmetrization ladder: power sums
sum_sigma sigma(t)^j for j = 1, 2, ... are tried first, then group norms
prod_sigma (sigma(t) - c) for small shifts c (power sums all degenerate
when the characteristic divides |G|, e.g. for translation groups, where
the norm form succeeds).  The first symmetrization of exact degree |G|
generates the fixed field; postcomposing with a Moebius map moves its
poles onto the required orbit divisor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .config import RunConfig
from .curve import PlaneCurve
from .errors import (
    ConditionBFails,
    DegreeMismatch,
    LadderExhausted,
    SoundnessError,
    VerificationFailed,
    ZeroInput,
)
from .galois import GaloisReport, is_galois_point
from .gf import FqElement, common_field
from .polyring import Polynomial, content_in, exact_div, poly_gcd, squarefree_part
from .projective import (
    FiniteProjectivityGroup,
    PointDivisor,
    ProductReport,
    Projectivity,
    ProjPoint,
    orbit,
    product_structure,
)
from .ratfunc import RationalMap1D


# ---------------------------------------------------------------------------
# Condition (b) witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionBWitness:
    """An eta in G2 realizing the divisor identity, with both sides."""

    eta: Projectivity
    lhs: PointDivisor
    rhs: PointDivisor

    def to_jsonable(self) -> dict:
        return {
            "eta": self.eta.row_major(),
            "field": self.eta.ctx.spec,
            "lhs": self.lhs.to_jsonable(),
            "rhs": self.rhs.to_jsonable(),
        }


def check_condition_b(G1: FiniteProjectivityGroup, G2: FiniteProjectivityGroup,
                      P: ProjPoint) -> list[ConditionBWitness]:
    """All eta in G2 with P + sum_{G1} sigma(eta(P)) = sum_{G2} tau(P).

    The quotient condition (both quotients rational) holds automatically
    for finite subgroups of PGL(2) and is not tested.  An empty list means
    the divisor condition fails for every eta.
    """
    if G1.n != 2 or G2.n != 2 or P.dim != 1:
        raise ZeroInput("condition check lives on P^1")
    ctx = common_field(common_field(G1.ctx, G2.ctx), P.ctx)
    H1 = G1.lift_to(ctx)
    H2 = G2.lift_to(ctx)
    Pt = P.lift_to(ctx)
    rhs = orbit(H2, Pt)
    base = PointDivisor(ctx, 1, {Pt: 1})
    out = []
    for eta in sorted(H2.elements, key=Projectivity.row_major):
        lhs = base + orbit(H1, eta.apply(Pt))
        if lhs == rhs:
            out.append(ConditionBWitness(eta, lhs, rhs))
    return out


# ---------------------------------------------------------------------------
# Invariant generators
# ---------------------------------------------------------------------------

def _mobius_maps(G: FiniteProjectivityGroup) -> list[RationalMap1D]:
    ctx = G.ctx
    t = Polynomial.variable(ctx, 1, 0)
    maps = []
    for g in G.elements:
        (a, b), (c, d) = g.mat
        num = t * FqElement(ctx, a) + FqElement(ctx, b)
        den = t * FqElement(ctx, c) + FqElement(ctx, d)
        maps.append(RationalMap1D(num, den))
    return maps


def invariant_generator(G: FiniteProjectivityGroup, Q0: ProjPoint) -> RationalMap1D:
    """A generator f of the G-invariant subfield with poles on the orbit of Q0.

    deg f = |G| exactly, f o sigma = f for every sigma in G, and the pole
    divisor of f equals the formal orbit sum of Q0 (stabilizer-weighted).
    All three properties are verified before returning.
    """
    ctx = common_field(G.ctx, Q0.ctx)
    H = G.lift_to(ctx)
    Q = Q0.lift_to(ctx)
    n = len(H)
    maps = _mobius_maps(H)

    def ladder():
        powers = [RationalMap1D.const(ctx, 1) for _ in maps]
        for j in range(1, 2 * n + 1):
            for i, m in enumerate(maps):
                powers[i] = powers[i] * m
            acc = RationalMap1D.const(ctx, 0)
            for pw in powers:
                acc = acc + pw
            yield acc
        # norm ladder: prod (sigma(t) - c) for small canonical shifts c
        for code in range(min(ctx.order, 16)):
            c = FqElement(ctx, ctx.decode(code))
            acc = RationalMap1D.const(ctx, 1)
            for m in maps:
                acc = acc * (m - c)
            yield acc

    F = None
    for cand in ladder():
        if cand.degree() == n and not cand.is_constant:
            F = cand
            break
    if F is None:
        raise LadderExhausted(
            f"no invariant of degree {n} found; retry over an extension")
    v0 = F.value_at_point(Q)
    from .projective import p1_value
    val = p1_value(v0)
    if val is None:
        f = F
    else:
        f = (F - val).reciprocal()
    # exact verification of all three contract clauses
    for sigma in H.elements:
        if not f.invariant_under(sigma):
            raise SoundnessError("invariant candidate failed invariance")
    if f.degree() != n:
        raise SoundnessError("invariant candidate degree drop")
    expected = orbit(H, Q)
    if f.pole_divisor() != expected:
        raise SoundnessError("pole divisor mismatch")
    return f


# ---------------------------------------------------------------------------
# Implicitization
# ---------------------------------------------------------------------------

def projective_triple(f: RationalMap1D, g: RationalMap1D
                      ) -> tuple[Polynomial, Polynomial, Polynomial]:
    """phi = (f : g : 1) as a coprime polynomial triple (X(t), Y(t), Z(t))."""
    ctx = common_field(f.ctx, g.ctx)
    fn, fd = f.num.lift_to(ctx), f.den.lift_to(ctx)
    gn, gd = g.num.lift_to(ctx), g.den.lift_to(ctx)
    X = fn * gd
    Y = gn * fd
    Z = fd * gd
    gcd = poly_gcd(poly_gcd(X, Y), Z)
    if gcd.degree() > 0:
        X, Y, Z = exact_div(X, gcd), exact_div(Y, gcd), exact_div(Z, gcd)
    return X, Y, Z


def evaluate_triple(triple, pt: ProjPoint) -> ProjPoint:
    """Evaluate a projective polynomial triple at a P^1 point."""
    ctx = common_field(triple[0].ctx, pt.ctx)
    xz = [FqElement(ctx, c) for c in pt.lift_to(ctx).coords]
    D = max(poly.degree() for poly in triple)
    return ProjPoint(ctx, [poly.homogenize(D).evaluate(xz) for poly in triple])


def implicitize(f: RationalMap1D, g: RationalMap1D,
                expected_degree: Optional[int] = None) -> PlaneCurve:
    """The implicit equation of the image of phi = (f : g : 1).

    Eliminates t from (num_f - x den_f, num_g - y den_g) by a resultant,
    strips content in each variable, takes the squarefree part and
    homogenizes.  The result is checked by degree (when expected) and by
    the exact identity form(X(t), Y(t), Z(t)) = 0 on the coprime triple
    of phi (``projective_triple``): VerificationFailed otherwise.
    """
    if f.is_constant or g.is_constant:
        raise ZeroInput("implicitization needs nonconstant coordinates")
    ctx = common_field(f.ctx, g.ctx)
    fl, gl = f.lift_to(ctx), g.lift_to(ctx)
    # ring in (t, x, y)
    t, xvar, yvar = (Polynomial.variable(ctx, 3, i) for i in range(3))
    A = fl.num.compose([t]) - xvar * fl.den.compose([t])
    B = gl.num.compose([t]) - yvar * gl.den.compose([t])
    from .polyring import resultant
    res = resultant(A, B, 0)
    if res.is_zero:
        raise ZeroInput("resultant vanished; the pair does not separate points")
    flat = res.dehomogenize(0)   # t no longer occurs
    for var in (0, 1):
        cont = content_in(flat, var)
        if cont.degree() > 0:
            flat = exact_div(flat, cont)
    flat = squarefree_part(flat)
    curve = PlaneCurve(flat.homogenize(), assume_irreducible=True)
    if expected_degree is not None and curve.degree != expected_degree:
        raise DegreeMismatch(
            f"implicit curve has degree {curve.degree}, expected {expected_degree}")
    if not curve.form.compose(list(projective_triple(fl, gl))).is_zero:
        raise VerificationFailed("implicit form does not vanish on phi")
    return curve


# ---------------------------------------------------------------------------
# The main construction
# ---------------------------------------------------------------------------

@dataclass
class EmbeddingResult:
    """A verified embedding with its two Galois points and joint structure."""

    f: RationalMap1D
    g: RationalMap1D
    curve: PlaneCurve
    image_P: ProjPoint
    Q: ProjPoint
    inner_report: GaloisReport
    outer_report: GaloisReport
    joint: ProductReport
    witness: ConditionBWitness
    checks: list = field(default_factory=list)

    def to_jsonable(self) -> dict:
        return {
            "f": {"num": self.f.num.to_text(), "den": self.f.den.to_text()},
            "g": {"num": self.g.num.to_text(), "den": self.g.den.to_text()},
            "field": self.curve.ctx.spec,
            "curve": self.curve.to_jsonable(),
            "image_P": list(self.image_P.encoding()),
            "Q": list(self.Q.encoding()),
            "inner_report": self.inner_report.to_jsonable(),
            "outer_report": self.outer_report.to_jsonable(),
            "joint": self.joint.to_jsonable(),
            "witness": self.witness.to_jsonable(),
            "checks": [{"name": n, "passed": bool(p)} for n, p in self.checks],
        }


def _divisor_pointwise_max(d1: PointDivisor, d2: PointDivisor) -> PointDivisor:
    ctx = common_field(d1.ctx, d2.ctx)
    a, b = d1.lift_to(ctx), d2.lift_to(ctx)
    out = dict(a.support)
    for pt, m in b.support.items():
        out[pt] = max(out.get(pt, 0), m)
    return PointDivisor(ctx, 1, out)


def construct_embedding(G1: FiniteProjectivityGroup,
                        G2: FiniteProjectivityGroup,
                        P: ProjPoint,
                        cfg: Optional[RunConfig] = None) -> EmbeddingResult:
    """Build and certify the plane model with an inner and an outer Galois point.

    Picks the first condition witness in the deterministic element order,
    synthesizes the two invariant generators, implicitizes, and verifies:
    phi(P) = (0:1:0) is inner Galois with deck group exactly G1, (1:0:0) is
    outer Galois with deck group exactly G2, and the joint group is the
    closure of both.  Raises VerificationFailed naming the failing stage.
    No deck group is searched: each element of G_i is verified as a deck
    map of the projection, and G_i has deg h_i elements, so it is all of
    Deck(h_i).
    """
    cfg = cfg or RunConfig()
    if len(G2) < 2:
        raise ZeroInput("the outer group must have order at least 2")
    witnesses = check_condition_b(G1, G2, P)
    if not witnesses:
        raise ConditionBFails("no eta in G2 satisfies the divisor identity")
    wit = witnesses[0]
    ctx = wit.eta.ctx
    H1 = G1.lift_to(ctx)
    H2 = G2.lift_to(ctx)
    Pt = P.lift_to(ctx)
    f = invariant_generator(H1, wit.eta.apply(Pt))
    g = invariant_generator(H2, Pt)
    curve = implicitize(f, g, expected_degree=len(G2))
    image_P = ProjPoint(curve.ctx, [0, 1, 0])
    Qpt = ProjPoint(curve.ctx, [1, 0, 0])
    checks: list = []
    phiP = evaluate_triple(projective_triple(f, g), Pt)
    checks.append(("phi_P_is_0_1_0", phiP.lift_to(curve.ctx) ==
                   image_P.lift_to(phiP.ctx) if phiP.ctx != curve.ctx
                   else phiP == image_P))
    checks.append(("Q_off_curve", not curve.contains(Qpt)))
    reports = []
    for name, G, pt, H in (("inner", "G1", image_P, H1),
                           ("outer", "G2", Qpt, H2)):
        rep = is_galois_point(curve, pt, strategy="deck",
                              parametrization=(f, g), cfg=cfg,
                              deck_maps=H.elements)
        if rep.verdict != "certified_galois" or len(rep.group) != len(H):
            raise VerificationFailed(
                f"{name} certificate failed: verdict {rep.verdict}, "
                f"group order {len(rep.group) if rep.group else None}, "
                f"expected {len(H)}")
        # the deck group must coincide with the input group, not merely
        # match in order
        wctx = common_field(rep.group.ctx, ctx)
        checks.append((f"deck_group_equals_{G}",
                       {e.lift_to(wctx) for e in rep.group.elements} ==
                       {e.lift_to(wctx) for e in H.elements}))
        reports.append(rep)
    inner, outer = reports
    joint = product_structure(inner.group, outer.group, cap=cfg.closure_cap)
    # converse check: the pullback of the line Z = 0 under phi equals the
    # G2-orbit divisor of P (poles of the pair (f, g) pointwise-max)
    pullback = _divisor_pointwise_max(f.pole_divisor(cfg.ext_cap),
                                      g.pole_divisor(cfg.ext_cap))
    checks.append(("line_pullback_is_G2_orbit", pullback == orbit(H2, Pt)))
    if not all(p for _, p in checks):
        failing = [n for n, p in checks if not p]
        raise VerificationFailed(f"embedding checks failed: {failing}")
    return EmbeddingResult(f, g, curve, image_P, Qpt, inner, outer, joint,
                           wit, checks)
