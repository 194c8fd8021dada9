"""Rational functions on P^1: reduced fractions of univariate polynomials.

A :class:`RationalMap1D` is a pair num/den with gcd(num, den) = 1 and a
monic denominator.  These are at once field elements of k(t) and morphisms
P^1 -> P^1 of degree max(deg num, deg den); both views are used: the
embedding pipeline builds invariant functions, the certification engine
tests their invariance under Moebius transformations (one dense identity,
:func:`_mobius_fixes`, for both) and reads off fibers and pole divisors.

Evaluation is projective: ``evaluate`` returns None for a pole, and the
point at infinity is handled through the homogeneous pair.
"""

from __future__ import annotations

from typing import Optional

from .gf import FieldCtx, FqElement, common_field, lift
from .polyring import (Polynomial, _u_add, _u_mul, exact_div, poly_gcd,
                       splitting_roots)
from .projective import PointDivisor, ProjPoint, Projectivity, point_p1


class RationalMap1D:
    """A reduced rational function num(t)/den(t) over one field context."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if num.nvars != 1 or den.nvars != 1:
            raise ValueError("rational maps are univariate")
        num._check(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            den = Polynomial.const(num.ctx, 1, 1)
        else:
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num = exact_div(num, g)
                den = exact_div(den, g)
        lc = den.coefficient((den.degree(),))
        inv = lc.inverse()
        self.num = num * inv
        self.den = den * inv
        self.ctx = num.ctx

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, ctx: FieldCtx, value) -> "RationalMap1D":
        return cls(Polynomial.const(ctx, 1, value), Polynomial.const(ctx, 1, 1))

    @classmethod
    def variable(cls, ctx: FieldCtx) -> "RationalMap1D":
        return cls(Polynomial.variable(ctx, 1, 0), Polynomial.const(ctx, 1, 1))

    @classmethod
    def from_poly(cls, num: Polynomial) -> "RationalMap1D":
        return cls(num, Polynomial.const(num.ctx, 1, 1))

    # -- structure -----------------------------------------------------------

    def degree(self) -> int:
        """Degree as a morphism P^1 -> P^1 (0 for a constant map)."""
        return max(self.num.degree(), self.den.degree(), 0)

    @property
    def is_constant(self) -> bool:
        return self.num.degree() <= 0 and self.den.degree() <= 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMap1D):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def lift_to(self, ctx2: FieldCtx) -> "RationalMap1D":
        if ctx2 == self.ctx:
            return self
        return RationalMap1D(self.num.lift_to(ctx2), self.den.lift_to(ctx2))

    # -- field arithmetic in k(t) ----------------------------------------------

    def _coerce(self, other) -> "RationalMap1D":
        if isinstance(other, RationalMap1D):
            return other
        if isinstance(other, Polynomial):
            return RationalMap1D.from_poly(other)
        if isinstance(other, int):
            return RationalMap1D.const(self.ctx, other % self.ctx.p)
        if isinstance(other, FqElement):
            return RationalMap1D.const(self.ctx, other)
        raise TypeError(f"cannot coerce {other!r} to a rational map")

    def __add__(self, other):
        o = self._coerce(other)
        return RationalMap1D(self.num * o.den + o.num * self.den,
                             self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalMap1D(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        return RationalMap1D(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.num.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return RationalMap1D(self.num * o.den, self.den * o.num)

    def reciprocal(self) -> "RationalMap1D":
        if self.num.is_zero:
            raise ZeroDivisionError("reciprocal of zero")
        return RationalMap1D(self.den, self.num)

    def __pow__(self, n: int) -> "RationalMap1D":
        if n < 0:
            return self.reciprocal() ** (-n)
        return RationalMap1D(self.num ** n, self.den ** n)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, t: FqElement) -> Optional[FqElement]:
        """Value at an affine point, or None when t is a pole."""
        dv = self.den.evaluate([t])
        nv = self.num.evaluate([t])
        if not dv:
            return None
        return nv / dv

    def value_at_point(self, pt: ProjPoint) -> ProjPoint:
        """Image of a P^1 point under the morphism (projective, total)."""
        ectx = common_field(self.ctx, pt.ctx)
        xz = [FqElement(ectx, c) for c in pt.lift_to(ectx).coords]
        deg = self.degree()
        # homogenize both to degree deg and evaluate at (x : z)
        nv = self.num.homogenize(deg).evaluate(xz)
        dv = self.den.homogenize(deg).evaluate(xz)
        if not nv and not dv:
            # common root of the homogenized pair cannot happen (reduced);
            # reaching here means deg-truncation at infinity: split by lc
            raise ArithmeticError("unreduced projective evaluation")
        return ProjPoint(ectx, [nv, dv])

    # -- composition ----------------------------------------------------------

    def invariant_under(self, sigma: Projectivity) -> bool:
        """Whether h o sigma = h, by the dense identity of
        :func:`_mobius_fixes`."""
        if sigma.n != 2:
            raise ValueError("need a PGL(2) element")
        ectx = common_field(self.ctx, sigma.ctx)
        h = self.lift_to(ectx)
        (a, b), (c, d) = sigma.lift_to(ectx).mat
        return _mobius_fixes(ectx, h.num.to_dense(), h.den.to_dense(),
                             a, b, c, d)

    # -- divisors ----------------------------------------------------------------

    def pole_divisor(self, ext_cap: int = 12) -> PointDivisor:
        """(h)_infinity as an effective divisor on P^1 (degree = deg h)."""
        return self.fiber_divisor(None, ext_cap=ext_cap)

    def fiber_divisor(self, value: Optional[FqElement], ext_cap: int = 12) -> PointDivisor:
        """Pullback divisor h^*(value); value None means infinity, whose
        affine part is cut out by the denominator."""
        if value is None:
            ectx = self.ctx
            g = self.den
        else:
            ectx = common_field(self.ctx, value.ctx)
            g = self.num.lift_to(ectx) - self.den.lift_to(ectx) * lift(value, ectx)
        support: dict[ProjPoint, int] = {}
        if g.degree() > 0:
            rm = splitting_roots(g, ext_cap=ext_cap)
            ectx = rm.ext
            for r, m in rm.roots:
                support[point_p1(ectx, r)] = m
        extra = self.degree() - max(g.degree(), 0)
        if extra > 0:
            support[point_p1(ectx, infinity=True)] = extra
        return PointDivisor(ectx, 1, {pt.lift_to(ectx): m
                                      for pt, m in support.items()})

    def __repr__(self) -> str:
        return f"({self.num.to_text()})/({self.den.to_text()})"


def _mobius_fixes(ctx: FieldCtx, num: list, den: list,
                  a: int, b: int, c: int, d: int) -> bool:
    """Whether the reduced map num/den (dense lists of reps) equals its
    composite with t -> (a t + b)/(c t + d) for an invertible matrix.

    With N^h, D^h the binary forms of degree n = max(deg num, deg den),
    h o sigma = N^h(at + b, ct + d) / D^h(at + b, ct + d), whose
    denominator is not zero, so equality is the cross-multiplied identity
    N^h(at + b, ct + d) den = D^h(at + b, ct + d) num.  Each form is
    evaluated by Horner's rule in at + b over the powers of ct + d."""
    n = max(len(num), len(den)) - 1
    A, B = [b, a], [d, c]
    powers = [[1]]
    for _ in range(n):
        powers.append(_u_mul(ctx, powers[-1], B))
    mul = ctx.mul_t

    def at(f):
        acc = []
        for k in range(n, -1, -1):
            acc = _u_mul(ctx, acc, A)
            if k < len(f) and f[k]:
                acc = _u_add(ctx, acc, [mul(f[k], x) for x in powers[n - k]])
        return acc

    return _u_mul(ctx, at(num), den) == _u_mul(ctx, at(den), num)
