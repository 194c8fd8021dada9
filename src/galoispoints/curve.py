"""Plane-curve geometry: construction, singular locus, tangents, divisors.

A :class:`PlaneCurve` is a reduced homogeneous trivariate form of degree
d >= 1 with the affine chart convention z = 1.  Irreducibility is NOT
verified in general (there is no multivariate factorization here); family
constructors guarantee it structurally and user-supplied curves carry an
``assume_irreducible`` flag that is surfaced in reports.

The singular locus is computed by resultant elimination over the affine
chart plus a direct sweep of the line at infinity, taking roots only of
factors that can hold a singular point (see ``singular_points``); a curve
keeps its locus per ``ext_cap`` (``PlaneCurve.singular_locus``), so the
callers that need it on one curve compute it once.

Intersection of a line with the curve restricts the form to a binary form
on the line and reads multiplicities off the root multiplicities of that
restriction.  Local branch separation at singular points is out of scope:
divisors whose support meets Sing(C) are flagged, not refined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from typing import Optional

from .errors import (
    ExtensionCapExceeded,
    InputError,
    LineIsComponent,
    NotSquarefree,
    PointNotOnCurve,
    SoundnessError,
    ZeroInput,
)
from .gf import FieldCtx, FqElement, common_field, lift
from .polyring import (Polynomial, _dense_rows, _squarefree_specializer,
                       _u_diff, _u_prs, exact_div, poly_gcd, splitting_roots)
from .projective import PointDivisor, ProjLine, ProjPoint
from .ratfunc import RationalMap1D


class PlaneCurve:
    """A reduced plane curve: homogeneous trivariate form of degree d."""

    __slots__ = ("form", "degree", "ctx", "assume_irreducible", "_loci")

    def __init__(self, form: Polynomial, assume_irreducible: bool = True):
        if form.nvars != 3 or form.is_zero:
            raise ZeroInput("curve form must be a nonzero trivariate polynomial")
        if not form.is_homogeneous():
            raise ValueError("curve form must be homogeneous")
        self.form = form.monic()
        self.degree = form.degree()
        self.ctx = form.ctx
        self.assume_irreducible = assume_irreducible
        self._loci: dict = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlaneCurve):
            return NotImplemented
        return self.form == other.form

    def __hash__(self) -> int:
        return hash(self.form)

    def lift_to(self, ctx2: FieldCtx) -> "PlaneCurve":
        if ctx2 == self.ctx:
            return self
        return PlaneCurve(self.form.lift_to(ctx2), self.assume_irreducible)

    # -- point queries -----------------------------------------------------

    def value_at(self, pt: ProjPoint) -> FqElement:
        ctx = common_field(self.ctx, pt.ctx)
        return self.form.lift_to(ctx).evaluate(
            [FqElement(ctx, c) for c in pt.lift_to(ctx).coords])

    def contains(self, pt: ProjPoint) -> bool:
        return not self.value_at(pt)

    def gradient_at(self, pt: ProjPoint) -> list[FqElement]:
        ctx = common_field(self.ctx, pt.ctx)
        form = self.form.lift_to(ctx)
        vals = [FqElement(ctx, c) for c in pt.lift_to(ctx).coords]
        return [form.derivative(i).evaluate(vals) for i in range(3)]

    def is_smooth_at(self, pt: ProjPoint) -> bool:
        if not self.contains(pt):
            raise PointNotOnCurve(f"{pt!r} is not on the curve")
        return any(self.gradient_at(pt))

    def singular_locus(self, ext_cap: int = 12) -> "SingularLocus":
        """``singular_points(self, ext_cap)``, computed once per cap and
        kept on this curve."""
        locus = self._loci.get(ext_cap)
        if locus is None:
            locus = self._loci[ext_cap] = singular_points(self, ext_cap)
        return locus

    def affine(self) -> Polynomial:
        """The affine chart z = 1."""
        return self.form.dehomogenize(2)

    def to_jsonable(self) -> dict:
        return {
            "field": self.ctx.spec,
            "modulus": list(self.ctx.modulus),
            "degree": self.degree,
            "form": self.form.to_text(),
            "affine_poly": self.affine().to_text(),
            "assume_irreducible": self.assume_irreducible,
        }

    def __repr__(self) -> str:
        return f"Curve(deg {self.degree}: {self.form.to_text()})"


# The largest total degree of a curve: the dense kernels hold about d^2
# coefficients.  Fixture, test and benchmark curves have degree <= 9.
MAX_DEGREE = 1024


def check_degree(d: int) -> None:
    """InputError when a curve of total degree d exceeds MAX_DEGREE."""
    if d > MAX_DEGREE:
        raise InputError(f"total degree {d} exceeds the bound {MAX_DEGREE}")


def curve_from_affine(f: Polynomial, assume_irreducible: bool = True) -> PlaneCurve:
    """Homogenize a squarefree affine bivariate polynomial into a curve.

    Squarefreeness is proven on dense rows first
    (``_squarefree_certificate``); only a polynomial that proof leaves
    undecided takes the exact test gcd(f, f_x, f_y) = 1, which names the
    repeated factor in NotSquarefree.  A degree above MAX_DEGREE is an
    InputError.
    """
    if f.nvars != 2 or f.is_zero or f.degree() < 1:
        raise ZeroInput("need a nonconstant bivariate polynomial")
    check_degree(f.degree())
    if not _squarefree_certificate(f):
        g = poly_gcd(poly_gcd(f, f.derivative(0)), f.derivative(1))
        if g.degree() > 0:
            raise NotSquarefree(f"repeated factor {g.to_text()}")
    return PlaneCurve(f.homogenize(), assume_irreducible)


def _squarefree_certificate(f: Polynomial) -> bool:
    """True when f(x, y) is proven squarefree: its y-content is squarefree
    and f(x0, y) is squarefree of full y-degree at some x0 in F_q, or the
    same holds with x and y swapped.  False leaves f undecided.

    Suppose g^2 h = f with g nonconstant.  If deg_y g = 0, g^2 divides
    the content.  Otherwise lc_y g(x0) != 0, as lc_y f(x0) != 0, so
    g(x0, y)^2 divides f(x0, y).  When disc_y(f) != 0, x0 fails only on
    the zeros of lc_y(f) disc_y(f), at most d^2 of them for total degree
    d, so at most d^2 + 1 values of x0 are tried.
    """
    ctx = f.ctx
    tries = min(ctx.order, f.degree() ** 2 + 1)

    def proves(h: Polynomial) -> bool:
        rows = _dense_rows(h, ctx)
        content = reduce(partial(_u_prs, ctx), rows)
        if len(content) > 1:
            der = _u_diff(ctx, content)
            if not der or len(_u_prs(ctx, content, der)) > 1:
                return False
        if len(rows) == 1:
            return True
        specialize = _squarefree_specializer(ctx, rows, len(rows) - 1)
        return any(specialize(FqElement(ctx, ctx.decode(code))) is not None
                   for code in range(tries))

    return proves(f) or proves(Polynomial(ctx, 2, {
        (b, a): rep for (a, b), rep in f.terms.items()}))


# ---------------------------------------------------------------------------
# Singular locus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularLocus:
    """Singular points with multiplicities, over one common extension."""

    points: tuple  # tuple[(ProjPoint, int), ...]
    ext: FieldCtx

    def is_empty(self) -> bool:
        return not self.points

    def support(self) -> list[ProjPoint]:
        return [pt for pt, _ in self.points]


def _roots_bounded(poly: Polynomial, ext_cap: int, relevance_bound: int):
    """Roots of factors whose degree can matter for a 0-dimensional system.

    A common zero of two curves of total degrees m, n has residue degree at
    most m*n (the Bezout bound on the number of zeros), so irreducible
    factors beyond that bound cannot carry common zeros and are skipped;
    factors inside the bound but beyond ext_cap raise honestly.  A factor
    x^v gives the root 0 without factoring, first, where the factor x
    would sort.
    """
    from .polyring import factor_univariate
    out = []
    v = min(e for (e,) in poly.terms)
    if v:
        out.append(poly.ctx.zero)
        poly = Polynomial(poly.ctx, 1, {(e - v,): rep
                                        for (e,), rep in poly.terms.items()})
        if poly.degree() < 1:
            return out
    for irr, _mult in factor_univariate(poly):
        deg = irr.degree()
        if deg > relevance_bound:
            continue
        if deg > ext_cap:
            raise ExtensionCapExceeded(
                f"a candidate zero needs extension degree {deg} > cap {ext_cap}")
        out.extend(r for r, _ in splitting_roots(irr, ext_cap=ext_cap).roots)
    return out


def _common_zeros_pair(A: Polynomial, B: Polynomial, rest: Optional[Polynomial],
                       ext_cap: int):
    """Common zeros of two coprime bivariate polynomials (a finite set)
    that are also zeros of ``rest`` (None: no third condition).

    Over each root x0 of the elimination in x, the y-polynomial is cut
    down by its gcd with rest(x0, y) before any root is taken.  Yields
    (x0, y0) pairs of FqElements over per-point extensions.
    """
    from .polyring import resultant

    bez = max(A.degree(), 1) * max(B.degree(), 1)

    def y_roots(x0, h):
        if rest is not None:
            r0 = rest.partial_evaluate(0, x0)
            if not r0.is_zero:
                h = poly_gcd(h, r0)
        if h.degree() < 1:
            return []
        out = []
        for y0 in _roots_bounded(h, ext_cap, bez):
            ectx = common_field(x0.ctx, y0.ctx)
            out.append((lift(x0, ectx), lift(y0, ectx)))
        return out

    da, db = A.degree_in(1), B.degree_in(1)
    if da == 0 and db == 0:
        # both free of y: coprime univariates in x share no root
        return []
    if da == 0 or db == 0:
        u = A if da == 0 else B
        other = B if da == 0 else A
        ux = u.dehomogenize(1)
        if ux.degree() < 1:
            return []
        out = []
        for x0 in _roots_bounded(ux, ext_cap, bez):
            spec = other.partial_evaluate(0, x0)
            if not spec.is_zero:
                out += y_roots(x0, spec)
        return out
    r = resultant(A, B, 1)   # eliminate y -> polynomial in x
    rx = r.dehomogenize(1)
    if rx.is_zero:
        raise ZeroInput("internal: resultant of coprime pair vanished")
    if rx.degree() < 1:
        return []
    out = []
    for x0 in _roots_bounded(rx, ext_cap, bez):
        a0 = A.partial_evaluate(0, x0)
        b0 = B.partial_evaluate(0, x0)
        if a0.is_zero and b0.is_zero:
            continue  # a common component through x = x0 cannot happen (coprime)
        if a0.is_zero:
            g = b0
        elif b0.is_zero:
            g = a0
        else:
            g = poly_gcd(a0, b0)
        out += y_roots(x0, g)
    return out


def _affine_singular_candidates(f: Polynomial, ext_cap: int):
    """Zeros of (f, f_x, f_y) in the affine chart, by gcd decomposition."""
    fx = f.derivative(0)
    fy = f.derivative(1)
    if fx.is_zero and fy.is_zero:
        raise NotSquarefree("curve form is a p-th power")
    if fx.is_zero or fy.is_zero:
        # f squarefree forces gcd(f, the other partial) to be constant
        return _common_zeros_pair(f, fy if fx.is_zero else fx, None, ext_cap)
    g = poly_gcd(f, fx)
    f1, fx1 = exact_div(f, g), exact_div(fx, g)
    candidates = []
    if g.degree() > 0:
        # gcd(g, fy) = 1 because f is squarefree; g divides f and f_x
        candidates += _common_zeros_pair(g, fy, None, ext_cap)
    if f1.degree() > 0 and fx1.degree() > 0:
        # the other zeros of f and f_x; fx1 is nonzero as f_x is
        candidates += _common_zeros_pair(f1, fx1, fy, ext_cap)
    return candidates


def _translate_to_origin(form: Polynomial, pt: ProjPoint):
    """Move ``pt`` to the origin of the affine chart of its last nonzero
    coordinate; form and pt share one field.

    Returns (shifted, chart, others, a0, a1): the chart variable is set to
    1, (a0, a1) is pt's position in the variables others[0], others[1],
    and shifted(u, v) is the chart polynomial at (u + a0, v + a1).
    """
    ctx = form.ctx
    coords = [FqElement(ctx, c) for c in pt.coords]
    chart = max(i for i, c in enumerate(coords) if c)
    others = [i for i in range(3) if i != chart]
    inv = coords[chart].inverse()
    a0 = coords[others[0]] * inv
    a1 = coords[others[1]] * inv
    aff = form.dehomogenize(chart)  # in vars others[0], others[1]
    u = Polynomial.variable(ctx, 2, 0)
    v = Polynomial.variable(ctx, 2, 1)
    return aff.compose([u + a0, v + a1]), chart, others, a0, a1


def point_multiplicity(C: PlaneCurve, pt: ProjPoint) -> int:
    """Order of vanishing at a point: degree of the lowest homogeneous part
    after translating the point to the origin of an affine chart."""
    ctx = common_field(C.ctx, pt.ctx)
    shifted = _translate_to_origin(C.form.lift_to(ctx), pt.lift_to(ctx))[0]
    return min(sum(e) for e in shifted.terms)


def singular_points(C: PlaneCurve, ext_cap: int = 12) -> SingularLocus:
    """All singular points of the curve with multiplicities.

    Solves form = dF/dX = dF/dY = dF/dZ = 0 on the affine chart z = 1 by
    gcd/resultant elimination and sweeps the line z = 0 separately; results
    are lifted to the smallest common extension.  Over each root x0 of an
    elimination of two of f, f_x, f_y, the y-polynomial is replaced by its
    gcd with the third specialized at x0, so no root is taken of a factor
    that cannot hold a singular point (for x^(d-1) + y^d + 1, none of
    y^d + 1), and F(1, y, 0) on z = 0 is cut by the partials alike; a
    power of x gives its root 0 without factoring.  Every candidate is
    still re-checked exactly.  Each call computes the locus afresh;
    ``PlaneCurve.singular_locus`` keeps one per curve and cap.
    """
    ctx = C.ctx
    f = C.form.dehomogenize(2)
    found: list[ProjPoint] = []
    if f.degree() >= 1:
        for x0, y0 in _affine_singular_candidates(f, ext_cap):
            ectx = common_field(x0.ctx, y0.ctx)
            pt = ProjPoint(ectx, [lift(x0, ectx), lift(y0, ectx), ectx.one])
            # exact re-check of all three projective partials plus the form
            if C.contains(pt) and not any(C.gradient_at(pt)):
                if pt not in found:
                    found.append(pt)
    # line z = 0: points (1 : y : 0) plus (0 : 1 : 0)
    on_line = C.form.partial_evaluate(2, ctx.zero)  # binary form in (x, y)
    if on_line.is_zero:
        raise NotSquarefree("z divides the curve form; form is not reduced")
    # roots of F(1, y, 0), cut by the partials on the line as in the chart
    h = on_line.dehomogenize(0)
    for i in range(3):
        partial = C.form.derivative(i).partial_evaluate(2, ctx.zero)
        if not partial.is_zero:
            h = poly_gcd(h, partial.dehomogenize(0))
    candidates = []
    if h.degree() >= 1:
        for y0 in _roots_bounded(h, ext_cap, h.degree()):
            candidates.append(ProjPoint(y0.ctx, [y0.ctx.one, y0, y0.ctx.zero]))
    candidates.append(ProjPoint(ctx, [ctx.zero, ctx.one, ctx.zero]))
    for pt in candidates:
        if C.contains(pt) and not any(C.gradient_at(pt)):
            if pt not in found:
                found.append(pt)
    if not found:
        return SingularLocus((), ctx)
    target = ctx
    for pt in found:
        target = common_field(target, pt.ctx)
    lifted = sorted({pt.lift_to(target) for pt in found},
                    key=lambda p: p.encoding())
    pts = tuple((pt, point_multiplicity(C, pt)) for pt in lifted)
    if any(m < 2 for _, m in pts):
        raise SoundnessError("a singular point has multiplicity below 2")
    return SingularLocus(pts, target)


def line_intersection_divisor(C: PlaneCurve, L: ProjLine,
                              ext_cap: int = 12) -> PointDivisor:
    """The divisor cut on C by a line, of degree exactly deg(C).

    The line is parametrized by two spanning points; the form restricts to
    a degree-d binary form whose root multiplicities are the intersection
    multiplicities.
    """
    ctx = common_field(C.ctx, L.ctx)
    curve = C.lift_to(ctx)
    line = L.lift_to(ctx)
    A, B = line.spanning_points()
    # restrict: G(s, u) = F(s*A + u*B)
    s = Polynomial.variable(ctx, 2, 0)
    u = Polynomial.variable(ctx, 2, 1)
    imgs = []
    for i in range(3):
        imgs.append(s * FqElement(ctx, A.coords[i]) + u * FqElement(ctx, B.coords[i]))
    G = curve.form.compose(imgs)
    if G.is_zero:
        raise LineIsComponent(f"{L!r} is a component of the curve")
    d = curve.degree
    # dehomogenize at u = 1: roots give points s0*A + B; the deficit in
    # degree lands on the point A itself (s : u) = (1 : 0)
    g = G.dehomogenize(1)
    support: dict[ProjPoint, int] = {}
    ectx = ctx
    if g.degree() >= 1:
        rm = splitting_roots(g, ext_cap=ext_cap)
        ectx = rm.ext
        for s0, m in rm.roots:
            coords = [lift(FqElement(ctx, A.coords[i]), ectx) * s0
                      + lift(FqElement(ctx, B.coords[i]), ectx)
                      for i in range(3)]
            support[ProjPoint(ectx, coords)] = m
    extra = d - max(g.degree(), 0)
    if extra > 0:
        support[A.lift_to(ectx)] = support.get(A.lift_to(ectx), 0) + extra
    div = PointDivisor(ectx, 2, support)
    if div.degree() != d:
        raise SoundnessError(f"line divisor has degree {div.degree()} != {d}")
    return div


# ---------------------------------------------------------------------------
# Rational parametrization through a point of multiplicity d-1
# ---------------------------------------------------------------------------

def pencil_parametrization(C: PlaneCurve, S: ProjPoint
                           ) -> tuple[RationalMap1D, RationalMap1D]:
    """Parametrize a degree-d curve with a point S of multiplicity d-1.

    Each line of the pencil through S meets the curve residually in a
    single point, so slopes give a birational parametrization.  Returns
    (x(t), y(t)) in the affine chart z = 1; the result is verified to lie
    on the curve exactly.
    """
    ctx = common_field(C.ctx, S.ctx)
    curve = C.lift_to(ctx)
    d = curve.degree
    # g has the singular point at the origin
    g, chart, others, a0, a1 = _translate_to_origin(curve.form, S.lift_to(ctx))
    m = min(sum(e) for e in g.terms)
    if m != d - 1:
        raise ZeroInput(f"pencil parametrization needs multiplicity d-1, got {m}")
    parts: dict[int, dict] = {}
    for exp, rep in g.terms.items():
        parts.setdefault(sum(exp), {})[exp] = rep
    if set(parts) != {d - 1, d}:
        raise ZeroInput("unexpected homogeneous parts at the singular point")
    low, top = (Polynomial(ctx, 2, parts[e]) for e in (d - 1, d))
    # restrict to the line v = t*u:  g = u^(d-1) (low(1,t) + u top(1,t)),
    # so the residual point has u = -low(1,t) / top(1,t) and v = t*u
    r = RationalMap1D(-low.dehomogenize(0), top.dehomogenize(0))
    # back to the original chart coordinates
    local = {others[0]: r + a0,
             others[1]: r * Polynomial.variable(ctx, 1, 0) + a1,
             chart: RationalMap1D.const(ctx, 1)}
    denom = local[2]
    if denom.num.is_zero:
        raise ZeroInput("parametrization degenerates on the z = 0 chart")
    x_t = local[0] / denom
    y_t = local[1] / denom
    verify_on_curve(curve, x_t, y_t)
    return x_t, y_t


def verify_on_curve(C: PlaneCurve, x_t: RationalMap1D, y_t: RationalMap1D) -> None:
    """Exact check that form(x(t), y(t), 1) vanishes identically."""
    from .errors import ParametrizationInvalid
    ctx = common_field(common_field(C.ctx, x_t.ctx), y_t.ctx)
    x = x_t.lift_to(ctx)
    y = y_t.lift_to(ctx)
    # (x.den y.den)^d form(x, y, 1): a nonzero multiple, so the zero test holds
    if not C.form.compose([x.num * y.den, y.num * x.den,
                           x.den * y.den]).is_zero:
        raise ParametrizationInvalid("parametrization does not satisfy the curve")
