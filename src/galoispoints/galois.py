"""The certification engine: is a given point a Galois point?

A point P (smooth on the curve, or off it) is a Galois point when the
function-field extension induced by projecting from P is Galois.  Three
methods are implemented, in decreasing order of authority:

* ``collineation`` -- the group of central collineations with center P
  preserving the curve, read off the rows of the fiber polynomial in
  closed form with no fiber search and no seed, and written down at tame
  and wild centers alike by one builder from (lam, beta, delta) triples,
  each verified by a dense exact test, with no matrix product
  (``central_collineation_group``).  Order = degree certifies; more than
  n maps prove the curve reducible: an input error.
* ``deck`` -- for rational curves with a supplied parametrization, the
  projection factors through P^1 and its Galois group is the deck group
  {sigma in PGL(2) : h o sigma = h} of a rational function h = N/D.  A
  known group is verified, not searched (``verify_deck_group``): each map
  passes the dense identity N^h(at + b, ct + d) D = D^h(at + b, ct + d) N
  and the maps generate deg h elements; the generators of a certified
  collineation group reach PGL(2) through the parametrization
  (``transported_deck_group``).  Otherwise the deck group is enumerated
  completely (``deck_group``) through the Moebius maps sending three
  anchor roots of one fiber (two when deg h = 2), found by a seed-free
  walk over t0 and lifted into one working field as zeros of the
  straight-lifted fiber, to distinct roots, filtered by fiber membership
  on reps and verified by the same identity.  Order = degree certifies.
* ``monte_carlo`` -- a statistical screen: over an unramified squarefree
  specialization of the fiber polynomial, a Galois cover has all residue
  degrees equal, so two distinct irreducible factor degrees refute
  Galois-ness with a checkable witness.  Uniformity over many trials is
  necessary but not sufficient, so the best positive verdict here is
  ``probably_galois``; it is never upgraded.

Specialization sampling cycles extension degrees 1..3, which does not
decouple Frobenius from geometric monodromy: over a field lacking roots of
unity the geometric group needs, a point that is Galois over the algebraic
closure can show two factor degrees.

Every method reads one ``ProjectionFiber``, built once per center by
``fiber_polynomial``: the curve and center lifted to one field, the center
moved to (0:1:0) by a closed-form projectivity, and the s-rows of the
moved form in the chart z = 1 computed by Horner's rule on dense arrays,
one linear form per step, with no sparse composition.  The center's
class is read off the top two rows, with no point evaluation and no
gradient.

The Monte Carlo screen and the deck fiber search share one
specialization, ``polyring._squarefree_specializer``: F(t0, s) is built,
tested for full degree and squarefreeness, and (in the screen) given its
factor degrees on the dense kernel of ``polyring``, with no sparse
polynomial per trial.  The screen is the only random search here, and
it takes no seed: trial i draws its t0 from the fixed stream
``mc:0:{i}``.  It does each piece of work once: a trial's draw is seeded
once while ``_mc_draw`` keeps it (the last 4096 draws), a t0 drawn again
in the same screen reuses the first decision instead of being
specialized and factored again, and a degree-2 fiber is never factored,
since its degrees [1, 1] or [2] cannot refute.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import count, islice, product
from typing import Optional

from .config import RunConfig
from .curve import PlaneCurve
from .errors import (
    AllSpecializationsRamified,
    CenterSingular,
    ClosureCapExceeded,
    DegenerateFibers,
    ExactModeDegenerate,
    ExtensionCapExceeded,
    InputError,
    MissingParametrization,
    ParametrizationInvalid,
    SoundnessError,
    ZeroInput,
)
from .gf import (FieldCtx, FqElement, common_field, lift, make_field,
                 nth_root_of_unity, try_descend)
from .polyring import (
    Polynomial,
    _dd_parts,
    _dense_rows,
    _lift_rows,
    _squarefree_specializer,
    _u_add,
    _u_deg,
    _u_divmod,
    _u_eval,
    _u_factor_degrees,
    _u_gcd,
    _u_mul,
    _u_sub,
    _u_trim,
    splitting_roots,
)
from .projective import (
    FiniteProjectivityGroup,
    GroupDescriptor,
    Projectivity,
    ProjPoint,
    _close,
    _normalize,
    generate_group,
    identify_group,
    trivial_group,
)
from .ratfunc import RationalMap1D, _mobius_fixes


# ---------------------------------------------------------------------------
# Projection fibers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionFiber:
    """The fiber polynomial F(t, s) of a projection, as its s-rows.

    ``curve`` and ``center`` are lifted to one field.  The projectivity
    ``normalizer`` moves the center to (0:1:0), and ``denormalizer`` is
    its inverse; in the curve's form composed with the inverse,
    moved(x, y, z), lines through the center are x = const, and in the
    chart z = 1, F(t, s) = moved(t, s, 1) has exact s-degree n, with
    n = d - 1 for an inner center and n = d for an outer one.  ``rows``
    holds F: row b is the coefficient of s^b, a trimmed dense list in t
    on reps of the curve's field, with row n nonzero on top.  The chart
    keeps every term of the form, so F determines moved.  ``poly`` is F
    as a sparse polynomial, built from the rows on request.
    """

    center: ProjPoint
    inner: bool
    degree: int
    rows: list
    normalizer: Projectivity  # maps center to (0:1:0)
    curve: PlaneCurve
    denormalizer: Projectivity  # maps (0:1:0) to center

    @property
    def point_class(self) -> str:
        return "inner" if self.inner else "outer"

    @cached_property
    def poly(self) -> Polynomial:
        """F as a bivariate polynomial: var 0 = pencil t, var 1 = fiber s."""
        return Polynomial(self.curve.ctx, 2, {
            (a, b): rep for b, row in enumerate(self.rows)
            for a, rep in enumerate(row) if rep})


def _move_center(ctx: FieldCtx, center: ProjPoint) -> tuple:
    """A deterministic projectivity g with g(center) = (0:1:0), and its
    inverse g^-1 = (e_i | P | e_j) for the first (i, j) of (0, 1), (0, 2),
    (1, 2) whose remaining coordinate P_k is nonzero (det g^-1 = +-P_k).
    In closed form, P_k g has rows P_k e_i - P_i e_k, e_k and
    P_k e_j - P_j e_k; both are normalized like every projectivity."""
    P, neg = center.coords, ctx.neg_t
    k = next(k for k in (2, 1, 0) if P[k])
    i, j = (r for r in range(3) if r != k)
    g = [0] * 9
    g[i], g[k], g[3 + k], g[6 + j], g[6 + k] = \
        P[k], neg(P[i]), 1, P[k], neg(P[j])
    g_inv = [0] * 9
    g_inv[1::3] = P
    g_inv[3 * i] = g_inv[3 * j + 2] = 1
    return (Projectivity._invertible(ctx, 3, g),
            Projectivity._invertible(ctx, 3, g_inv))


def _fiber_rows(ctx: FieldCtx, form: Polynomial, mat: tuple) -> list:
    """The d + 1 s-rows of F(t, s) = form(M (t, s, 1)), M = ``mat``, on
    reps of ``ctx``, by Horner's rule on dense arrays.

    M = c (e_i | P | e_j) (``_move_center``), so row i of M is the only
    one holding t: with the coordinates x_i = L_i(t, s) and x_m, x_r
    linear in s alone, F = sum_a L_i^a Q_a(s) for the binary forms
    Q_a = sum_b c_(a, b) L_m^b L_r^(d - a - b).  Each Q_a is found by
    Horner's rule in L_m over the powers of L_r, dense in s, and F by
    Horner's rule in L_i over the s-rows; every step multiplies by one
    linear form."""
    d = form.degree()
    i = next(v for v in range(3) if mat[v][0])
    m, r = (v for v in range(3) if v != i)
    mul = ctx.mul_t
    coef = [[0] * (d - a + 1) for a in range(d + 1)]
    for exp, rep in form.terms.items():
        coef[exp[i]][exp[m]] = rep
    lm, lr = (_u_trim([mat[v][2], mat[v][1]]) for v in (m, r))
    powers = [[1]]
    for _ in range(d):
        powers.append(_u_mul(ctx, powers[-1], lr))
    alpha, beta, gamma = mat[i]
    rows: list = []
    for a in range(d, -1, -1):
        if rows:    # rows <- rows (alpha t + beta s + gamma)
            out, below = [], []
            for row in rows + [[]]:
                new = [0] + [mul(alpha, c) for c in row]
                if gamma:
                    new = _u_add(ctx, new, [mul(gamma, c) for c in row])
                if beta and below:
                    new = _u_add(ctx, new, [mul(beta, c) for c in below])
                out.append(_u_trim(new))
                below = row
            rows = out
        e, q = d - a, []
        for b in range(e, -1, -1):
            q = _u_mul(ctx, q, lm)
            if coef[a][b]:
                q = _u_add(ctx, q, [mul(coef[a][b], c)
                                    for c in powers[e - b]])
        rows += [[] for _ in range(len(q) - len(rows))]
        for b, c in enumerate(q):
            rows[b] = _u_add(ctx, rows[b], [c])
    return rows + [[] for _ in range(d + 1 - len(rows))]


def fiber_polynomial(C: PlaneCurve, center: ProjPoint) -> ProjectionFiber:
    """Fiber polynomial of the projection from a center on or off the curve.

    Lifts C and the center to one field, moves the center to (0:1:0) and
    reads its class off the rows of F (``_fiber_rows``): row d is
    form(P), so the center is inner iff it is empty, and row d - 1 is
    grad form(P) applied to e_j + t e_i, which with Euler's identity
    sum P_r d_r form(P) = d form(P) = 0 and P_k != 0 vanishes iff the
    gradient does.  Every certifier reads the returned fiber.  Raises
    CenterSingular when the center is a singular point of C.
    """
    ctx = common_field(C.ctx, center.ctx)
    curve = C.lift_to(ctx)
    pt = center.lift_to(ctx)
    g, g_inv = _move_center(ctx, pt)
    rows = _fiber_rows(ctx, curve.form, g_inv.mat)
    d = curve.degree
    inner = not rows[d]
    if inner and not rows[d - 1]:
        raise CenterSingular(f"{center!r} lies in Sing(C)")
    n = d - 1 if inner else d
    return ProjectionFiber(pt, inner, n, rows[:n + 1], g, curve, g_inv)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class GaloisReport:
    """Certified verdict for one projection center."""

    point: ProjPoint
    point_class: str                     # inner | outer | invalid
    projection_degree: int
    verdict: str                         # certified_galois | certified_not_galois
                                         # | probably_galois | inconclusive
    group: Optional[FiniteProjectivityGroup] = None
    descriptor: Optional[GroupDescriptor] = None
    witness: Optional[dict] = None
    method: Optional[str] = None         # collineation | deck | monte_carlo
    trials: int = 0
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if self.verdict == "certified_galois" and (
                self.group is None
                or len(self.group) != self.projection_degree):
            raise SoundnessError(
                "certified_galois needs a group of order equal to the "
                "projection degree")
        if self.verdict == "certified_not_galois" and (
                self.witness is None
                or len(set(self.witness["factor_degrees"])) < 2):
            raise SoundnessError(
                "certified_not_galois needs a witness with two distinct "
                "factor degrees")

    def to_jsonable(self) -> dict:
        out = {
            "point": {"coords": list(self.point.encoding()),
                      "field": self.point.ctx.spec},
            "point_class": self.point_class,
            "projection_degree": self.projection_degree,
            "verdict": self.verdict,
            "method": self.method,
            "trials": self.trials,
            "notes": sorted(self.notes),
        }
        if self.group is not None:
            out["group"] = {
                "order": len(self.group),
                "field": self.group.ctx.spec,
                "dimension": self.group.n - 1,
                "elements": sorted(g.row_major() for g in self.group.elements),
            }
        else:
            out["group"] = None
        out["descriptor"] = self.descriptor.to_jsonable() if self.descriptor else None
        out["witness"] = self.witness
        return out


# ---------------------------------------------------------------------------
# Monte Carlo screen
# ---------------------------------------------------------------------------

# 4096 draws hold the default 64-trial screen for 64 base fields; a longer
# screen or a wider caller evicts the least recently used draws and
# reseeds them, with the same values
@lru_cache(maxsize=4096)
def _mc_draw(trial: int, order: int) -> int:
    """The screen's draw for ``trial``: ``randrange(order)`` from the
    stream seeded with ``mc:0:{trial}``, seeded once while cached."""
    return random.Random(f"mc:0:{trial}").randrange(order)


def monte_carlo_galois(fib: ProjectionFiber, trials: int = 64) -> GaloisReport:
    """Factor-degree census over random unramified specializations.

    Any squarefree full-degree specialization whose irreducible factors
    have two distinct degrees certifies NOT Galois, with the witness
    recorded.  The degrees come from distinct-degree factorization of the
    dense specialization alone; the factors themselves are never split
    out, so the only randomness is the ``mc:0:{trial}`` choice of t0.
    A degree-2 fiber is only tested for being unramified: its degrees
    [1, 1] or [2] are uniform either way, so it is never factored.  Each
    draw is cached by ``_mc_draw``, and a t0 drawn again at the same
    extension degree counts as usable iff it was the first time, with no
    second specialization or factorization: a repeated usable draw had
    uniform degrees, or the screen would have returned.  So ``trials``,
    the usable count and every witness are those of a screen that decides
    each trial afresh.  Uniform degrees across all trials give
    ``probably_galois`` only: cycle-type uniformity does not prove a cover
    Galois.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = fib.degree
    base = fib.curve.ctx
    if n < 1:
        raise ZeroInput("degenerate curve for the Monte Carlo screen")
    if n == 1:
        return GaloisReport(fib.center, fib.point_class, n, "probably_galois",
                            method="monte_carlo", trials=trials,
                            notes=["degree-1 projection is trivially Galois"])
    specialize = _squarefree_specializer(base, fib.rows, n)
    usable, seen = 0, {}
    for trial in range(trials):
        j = (trial % 3) + 1
        ectx = base if j == 1 else make_field(base.p, base.k * j)
        code = _mc_draw(trial, ectx.order)
        if (j, code) in seen:
            usable += seen[j, code]
            continue
        t0 = FqElement(ectx, ectx.decode(code))
        spec = specialize(t0)
        seen[j, code] = spec is not None
        if spec is None:
            continue
        usable += 1
        if n == 2:      # [1, 1] or [2]: never two degrees
            continue
        degrees = _u_factor_degrees(ectx, spec)
        if len(set(degrees)) >= 2:
            witness = {
                "t0": t0.encoding(),
                "field": ectx.spec,
                "factor_degrees": degrees,
            }
            return GaloisReport(fib.center, fib.point_class, n,
                                "certified_not_galois", witness=witness,
                                method="monte_carlo", trials=trial + 1)
    if usable == 0:
        raise AllSpecializationsRamified(
            "every sampled specialization was ramified or degenerate")
    return GaloisReport(fib.center, fib.point_class, n, "probably_galois",
                        method="monte_carlo", trials=trials,
                        notes=[f"usable_specializations={usable}"])


# ---------------------------------------------------------------------------
# Central collineations
# ---------------------------------------------------------------------------

def _shifted_rows(ctx: FieldCtx, rows: list, ell: list):
    """The y^j-rows sum_{i >= j} C(i, j) a_i ell^(i - j) of F(x, y + ell),
    for j = n - 1 down to 0, on reps of ``ctx``.

    ``rows`` are the y-rows a_i(x) of F, dense lists with a_n on top, and
    ``ell`` is a trimmed dense polynomial in x.  Each row is found by
    Horner's rule in ell, with the binomials taken mod p; for ell = 0 it
    is the trimmed row a_j itself, read with no arithmetic.
    """
    n = len(rows) - 1
    p, smul = ctx.p, ctx.smul_t
    for j in range(n - 1, -1, -1):
        if not ell:
            yield j, rows[j]
            continue
        acc = []
        for i in range(n, j - 1, -1):
            acc = _u_mul(ctx, acc, ell)
            c = math.comb(i, j) % p
            if c and rows[i]:
                acc = _u_add(ctx, acc, [smul(c, x) for x in rows[i]])
        yield j, acc


def _collineation_fixes(ctx: FieldCtx, rows: list, lam: int, beta: int,
                        delta: int) -> bool:
    """Exact test that (x : beta x + lam y + delta z : z) sends the moved
    form to a scalar multiple of itself, on reps of ``ctx``.

    ``rows`` are the y-rows a_i(x) of the form in the chart z = 1, dense
    lists with a_n != 0 on top.  With l = beta x + delta, the y^j-row of
    F(x, lam y + l) is lam^j sum_{i >= j} C(i, j) a_i l^(i - j).  Its
    y^n-row forces the scalar to be lam^n, so row j must equal
    lam^n a_j: the sum (``_shifted_rows``) must equal lam^(n - j) a_j.
    Both sides are forms of one degree, so the chart loses nothing.  The
    rows are compared from the top down to the first that differs.
    """
    if not lam:
        return False
    mul = ctx.mul_t
    scale = 1
    for j, row in _shifted_rows(ctx, rows, _u_trim([delta, beta])):
        scale = mul(scale, lam)
        if row != [mul(scale, x) for x in rows[j]]:
            return False
    return True


def _shift_order(ctx: FieldCtx, rows: list, ell: list) -> int:
    """The p-free part m of gcd{n - j : b_j != 0} over the rows b_j, j < n,
    of F(t, s + ell), as lam^(p^e m) = 1 forces lam^m = 1; InputError when
    all vanish: F = a_n (s - ell)^n is not reduced."""
    n, p, m = len(rows) - 1, ctx.p, 0
    for j, row in _shifted_rows(ctx, rows, ell):
        if row:
            m = math.gcd(m, n - j)
            while m % p == 0:
                m //= p
            if m == 1:
                return 1
    if m == 0:
        raise InputError("the curve is not reduced: its fiber polynomial "
                         "is a power a_n (s - l)^n")
    return m


def _tame_order(fib: ProjectionFiber, ext_cap: int) -> Optional[tuple]:
    """(wctx, rows, T, m, x) at a tame center (p does not divide n), as
    ``_wild_order`` gives it, None at a wild one: T = {0}, m = 1 unless
    c = a_(n-1) / (n a_n) is a polynomial of degree <= 1, and then
    ``_shift_order`` at the section x = -c = (gamma, eps); wctx is
    F_(q^j), j = ord_m(q), the least field holding the m-th roots of
    unity (ExactModeDegenerate past ``ext_cap``), and the rows and x are
    lifted straight into it."""
    ctx, n, rows = fib.curve.ctx, fib.degree, fib.rows
    if n % ctx.p == 0:
        return None
    c, rem = _u_divmod(ctx, rows[n - 1],
                       [ctx.smul_t(n % ctx.p, x) for x in rows[n]])
    if rem or _u_deg(c) > 1:
        return ctx, rows, [(0, 0)], 1, (0, 0)
    eps, gamma = (ctx.neg_t(x) for x in c + [0] * (2 - len(c)))
    m = _shift_order(ctx, rows, _u_trim([eps, gamma]))
    j = next(i for i in count(1) if (ctx.order ** i - 1) % m == 0)
    if j > ext_cap:
        raise ExactModeDegenerate(
            f"tame collineation group needs extension degree {j} > "
            f"cap {ext_cap}")
    wctx = ctx if j == 1 else make_field(ctx.p, ctx.k * j)
    gamma, eps = (lift(FqElement(ctx, v), wctx).rep for v in (gamma, eps))
    return wctx, _lift_rows(ctx, wctx, rows), [(0, 0)], m, (gamma, eps)


def _line_gcds(ctx: FieldCtx, rows: list, js, k0: int,
               bound: int) -> list[tuple[list, int]]:
    """[(g0, j0), (ginf, jinf)]: g0(eps) = ginf(gamma) = 0 for each line
    X = gamma t + eps of degree <= ``bound`` over ``ctx`` dividing every
    P_j = sum_(k >= k0) C(j + k, k) a_(j + k) X^k, j in ``js``: the factors
    of degree <= ``bound`` of gcd_j P_j(0, X), t-content divided out, and of
    gcd_j (top form of P_j)(1, X), with the lcm of their degrees."""
    n, p, smul = len(rows) - 1, ctx.p, ctx.smul_t
    g0 = ginf = []
    for j in js:
        P = [_u_trim([smul(math.comb(j + k, k) % p, a) for a in rows[j + k]])
             if k >= k0 else [] for k in range(n - j + 1)]
        if any(P):
            low = min(next(i for i, a in enumerate(c) if a) for c in P if c)
            top = max(k + len(c) for k, c in enumerate(P) if c)
            g0 = _u_gcd(ctx, g0, _u_trim(
                [c[low] if low < len(c) else 0 for c in P]))
            ginf = _u_gcd(ctx, ginf, _u_trim(
                [c[-1] if c and k + len(c) == top else 0
                 for k, c in enumerate(P)]))
    out = []
    for g in (g0, ginf):
        prod, jj = [1], 1
        for f, dd, _ in _dd_parts(ctx, g) if len(g) > 2 else [(g, 1, 1)]:
            if dd <= bound:
                prod, jj = _u_mul(ctx, prod, f), math.lcm(jj, dd)
        out.append((prod, jj))
    return out


def _wild_order(fib: ProjectionFiber, ext_cap: int) -> tuple:
    """(wctx, rows, T, m, x) at a wild center (p | n): the translations T
    as (beta, delta), the order m of C, the section x = (gamma, eps) it
    fixes and the rows, on reps of wctx, the least F_(q^j) holding them and
    the m-th roots of unity, into which every polynomial is lifted straight
    (ExactModeDegenerate past ``ext_cap``).  T holds the lines of the rows
    of F(t, s + X) - F(t, s) that pass the exact test with lam = 1, x the
    line of the rows b_(n - p^i), p^i | n, with the largest _shift_order,
    as lam^(p^i) != 1.  Frobenius permutes T - {0} and the |T| sections
    complements fix: lines of degree below |n|_p, resp. <= |T|, suffice."""
    ctx, n, rows = fib.curve.ctx, fib.degree, fib.rows
    shifts = [n - ctx.p ** i for i in range(n.bit_length()) if n % ctx.p ** i == 0]
    tparts = _line_gcds(ctx, rows, range(n), 1, n - min(shifts) - 1)
    has_t = max(_u_deg(g) for g, _ in tparts) > 1    # X divides each R_j
    j = math.lcm(*(jj for _, jj in tparts)) if has_t else 1
    while True:
        if j > ext_cap:
            raise ExactModeDegenerate(f"wild collineation group needs "
                                      f"extension degree {j} > cap {ext_cap}")
        wctx = ctx if j == 1 else make_field(ctx.p, ctx.k * j)
        wrows = _lift_rows(ctx, wctx, rows)

        def roots(g):
            lifted = Polynomial.from_dense(ctx, g).lift_to(wctx)
            return [r.rep for r, _ in splitting_roots(lifted, 1).roots]

        T = [(b, d) for b in roots(tparts[1][0]) for d in roots(tparts[0][0])
             if _collineation_fixes(wctx, wrows, 1, b, d)] if has_t else [(0, 0)]
        cparts = _line_gcds(ctx, rows, shifts, 0, len(T))
        i, m, x = math.lcm(j, *(jj for _, jj in cparts)), 1, (0, 0)
        if i == j and min(_u_deg(g) for g, _ in cparts) > 0:
            m, x = max(((_shift_order(wctx, wrows, _u_trim([e, g])), (g, e))
                        for g in roots(cparts[1][0])
                        for e in roots(cparts[0][0])), key=lambda mx: mx[0])
        i = next(k for k in count(i, i) if (ctx.order ** k - 1) % m == 0)
        if i == j:
            return wctx, wrows, T, m, x
        j = i


def _closed_form_group(fib: ProjectionFiber, wctx: FieldCtx, rows: list,
                       T: list, m: int, x: tuple) -> FiniteProjectivityGroup:
    """The group {s -> lam s + (1 - lam) x + tau : lam^m = 1, tau in T} of
    an order finder (``_tame_order``, ``_wild_order``) in the original
    coordinates, with no matrix product, descended to F_q(zeta).

    The maps are (lam, beta, delta) triples, s -> lam s + beta t + delta,
    each but the identity verified by the exact test, and their table is
    their closure under (lam, b, d)(lam', b', d') = (lam lam', b + lam b',
    d + lam d') (``projective._close``), which must not outgrow them
    (ClosureCapExceeded otherwise).  Conjugated back, a map is
    D sigma' N = s I + u w^T for the denormalizer D and normalizer N,
    D N = s I, the center u = D e_1 and w = (beta, lam - 1, delta) N, as
    sigma' = I + e_1 (beta, lam - 1, delta).  It fixes a point c iff u
    and c are proportional or w c = 0.  On an irreducible curve the maps
    act faithfully on k(C) over k(t), so more than n of them prove the
    curve reducible: InputError.  A failed exact test, D N != s I or a
    moved center raise SoundnessError.  A homology's eigenvalue ratio lies
    in every field the group is defined over, so F_q(zeta) is the floor
    of the descent, and at a tame center, where wctx = F_q(zeta), there is
    none."""
    ctx, n = fib.curve.ctx, fib.degree
    if len(T) * m == 1:
        return trivial_group(ctx, 3)
    if len(T) * m > n:
        raise InputError(
            f"the curve is reducible: {len(T) * m} collineations with center "
            f"{fib.center.spec_str()} fix every line through it and generate "
            f"more than the projection degree {n}")
    add, sub, mul = wctx.add_t, wctx.sub_t, wctx.mul_t
    zeta, lams = nth_root_of_unity(wctx, m).rep, [1]
    while len(lams) < m:
        lams.append(mul(lams[-1], zeta))
    maps = [(lam, add(b, mul(l1, x[0])), add(d, mul(l1, x[1])))
            for lam in lams for l1 in [sub(1, lam)] for b, d in T]
    if not all(_collineation_fixes(wctx, rows, *mp)
               for mp in maps if mp != (1, 0, 0)):
        raise SoundnessError(
            "a closed-form collineation fails the exact test")
    D, N = fib.denormalizer.mat, fib.normalizer.mat
    DN = [[ctx.add_t(ctx.add_t(ctx.mul_t(r[0], N[0][k]),
                               ctx.mul_t(r[1], N[1][k])),
                     ctx.mul_t(r[2], N[2][k])) for k in range(3)] for r in D]
    s = DN[0][0]
    if DN != [[s, 0, 0], [0, s, 0], [0, 0, s]]:
        raise SoundnessError("D N is not the scalar matrix s I")
    # 0 and 1 are the reps of zero and one in every field shape
    up = (lambda v: v) if wctx == ctx else \
        (lambda v: v if v < 2 else lift(FqElement(ctx, v), wctx).rep)
    s, u, c = up(s), [up(r[1]) for r in D], fib.center.lift_to(wctx).coords
    N = [[(k, up(v)) for k, v in enumerate(row) if v] for row in N]
    moved = any(sub(mul(u[i], c[k]), mul(u[k], c[i]))
                for i, k in ((0, 1), (0, 2), (1, 2)))

    def compose(a, b):
        return (mul(a[0], b[0]), add(a[1], mul(a[0], b[1])),
                add(a[2], mul(a[0], b[2])))

    triples, table = _close(maps, len(maps), (1, 0, 0), compose)
    elements = [Projectivity.identity(wctx, 3)]
    for lam, beta, delta in triples[1:]:
        w = [0, 0, 0]
        for v, row in ((beta, N[0]), (sub(lam, 1), N[1]), (delta, N[2])):
            if v:
                for k, nv in row:
                    w[k] = add(w[k], mul(v, nv))
        if moved and add(add(mul(w[0], c[0]), mul(w[1], c[1])),
                         mul(w[2], c[2])):
            raise SoundnessError("a collineation moves its center")
        flat = []
        for ui in u:
            flat += [mul(ui, wk) for wk in w] if ui else (0, 0, 0)
        for i in (0, 4, 8):
            flat[i] = add(flat[i], s)
        elements.append(Projectivity._invertible(wctx, 3, flat))
    group = FiniteProjectivityGroup(wctx, 3, elements, table)
    i = next(k for k in count(1) if (ctx.order ** k - 1) % m == 0)
    return group.descend_to(ctx if i == 1 else make_field(ctx.p, ctx.k * i))


def central_collineation_group(fib: ProjectionFiber,
                               cfg: Optional[RunConfig] = None
                               ) -> FiniteProjectivityGroup:
    """All projectivities fixing the fiber's center and every line through
    it that send the curve to a scalar multiple of itself, in the original
    coordinates, possibly over an extension, read off the fiber's rows with
    no fiber search, no seed and no matrix product: ``_tame_order`` at a
    tame center (p does not divide n) or ``_wild_order`` at a wild one
    finds T, m and x, and ``_closed_form_group`` writes the group down;
    ExactModeDegenerate past ``cfg.ext_cap``.

    In the moved coordinates a collineation is s -> lam s + l,
    l = beta t + delta.  The translations T (lam = 1) form a normal
    p-subgroup and lam runs over roots of unity of order prime to p, so
    G = T x| C, C cyclic of order m, fixing the section x = l0 / (1 - zeta)
    of its generator s -> zeta s + l0.  So lam^(n - j) = 1 for each nonzero
    row b_j of F(t, s + x), and each such lam gives a map, the form being a
    sum of terms b_j (s - x)^j with lam^j = lam^n: m is ``_shift_order``
    at x, and smaller at a section no complement fixes.  At a tame center
    T = {0} and the s^(n-1)-row n a_n l = (lam - 1) a_(n-1) of the exact
    test gives x = -a_(n-1) / (n a_n)."""
    cfg = cfg or RunConfig()
    n = fib.degree
    if n < 1:
        raise ZeroInput("degenerate curve for collineation search")
    if n == 1:
        return trivial_group(fib.curve.ctx, 3)
    return _closed_form_group(fib, *(_tame_order(fib, cfg.ext_cap)
                                     or _wild_order(fib, cfg.ext_cap)))


# ---------------------------------------------------------------------------
# Deck transformations of rational maps
# ---------------------------------------------------------------------------

def _walk(base: FieldCtx):
    """t0 = 0, 1, 2, ... (by encoding) over F_q, then over F_(q^2) and
    F_(q^3) without the elements of F_q, one of each orbit of x -> x^q
    (the least encoding): conjugate values give conjugate fibers.  No
    seed."""
    q = base.order
    for j in (1, 2, 3):
        ectx = base if j == 1 else make_field(base.p, base.k * j)
        for code in range(ectx.order):
            orbit = [ectx.decode(code)]
            for _ in range(j - 1):
                orbit.append(ectx.pow_t(orbit[-1], q))
            if j == 1 or orbit[1] != orbit[0] and code == min(
                    map(ectx.encode, orbit)):
                yield FqElement(ectx, orbit[0])


def _framed_lift(base: FieldCtx, mid: FieldCtx, src: FieldCtx,
                 dst: FieldCtx):
    """x -> its image, as a rep, under the embedding src -> dst that agrees
    with the straight lift base -> dst on the lift base -> mid -> src.  The
    ``gf`` embeddings do not commute through an intermediate field, so this
    is the straight lift composed with a power of Frobenius of src, fixed
    on a generator of base."""
    if base.k == 1:
        return lambda x: lift(x, dst).rep
    g = FqElement(base, base.decode(base.p))
    x, want = lift(lift(g, mid), src).rep, lift(g, dst)
    for i in range(src.k):
        if lift(FqElement(src, x), dst) == want:
            e = src.p ** i
            return lambda y: lift(FqElement(src, src.pow_t(y.rep, e)), dst).rep
        x = src.pow_t(x, src.p)
    raise SoundnessError("no embedding extends the lift of the base field")


def _fiber_search(fpoly: Polynomial, n: int, ext_cap: int, count: int,
                  attempts: int = 32) -> tuple[FieldCtx, list]:
    """``count`` squarefree full-degree fibers of F(t, s), split in one field.

    The first ``attempts`` values of ``_walk`` are tried in turn.  A fiber
    over F_(q^j) is kept when it splits over at most ``ext_cap // j``
    further degrees and the field W holding the kept fibers' roots has
    degree at most ``ext_cap`` over F_q.  Returns W and, per fiber, t0 and
    its roots as reps of W.  Each fiber's t0 and roots reach W by the
    embedding that extends the straight lift of F's field
    (``_framed_lift``), so every root is a zero of F lifted straight into
    W and specialized at t0.
    """
    base = fpoly.ctx
    specialize = _squarefree_specializer(base, _dense_rows(fpoly, base), n)
    found = []
    for t0 in islice(_walk(base), attempts):
        spec = specialize(t0)
        if spec is None:
            continue
        try:
            rm = splitting_roots(Polynomial.from_dense(t0.ctx, spec),
                                 ext_cap=max(1, ext_cap // (t0.ctx.k // base.k)))
        except ExtensionCapExceeded:
            continue
        if found and math.lcm(found[0][1].ext.k, rm.ext.k) > ext_cap * base.k:
            continue
        found.append((t0, rm))
        if len(found) == count:
            break
    else:
        raise DegenerateFibers(f"needs {count} usable fiber(s), found "
                               f"{len(found)} within {attempts} attempts")
    wctx = reduce(common_field, (rm.ext for _, rm in found))
    fibers = []
    for t0, rm in found:
        to_w = _framed_lift(base, t0.ctx, rm.ext, wctx)
        fibers.append((to_w(lift(t0, rm.ext)), [to_w(r) for r, _ in rm.roots]))
    return wctx, fibers


def _mobius_through(ctx: FieldCtx, src: tuple, dst: tuple) -> tuple:
    """The Moebius map sending three distinct finite points src[i] to
    dst[i] (reps of ``ctx``), as the normalized matrix (a, b, c, d) of
    S(dst) adj(S(src)), where S(x) = [[u x1, v x2], [u, v]] with
    u = x3 - x2, v = x1 - x3 sends (1:0), (0:1), (1:1) to (x1:1), (x2:1),
    (x3:1)."""
    sub, mul = ctx.sub_t, ctx.mul_t
    (x1, x2, x3), (y1, y2, y3) = src, dst
    u, v = sub(x3, x2), sub(x1, x3)
    p0, p1, p2, p3 = mul(u, x1), mul(v, x2), u, v
    u, v = sub(y3, y2), sub(y1, y3)
    m0, m1, m2, m3 = mul(u, y1), mul(v, y2), u, v
    return _normalize(ctx, (sub(mul(m0, p3), mul(m1, p2)),
                            sub(mul(m1, p0), mul(m0, p1)),
                            sub(mul(m2, p3), mul(m3, p2)),
                            sub(mul(m3, p0), mul(m2, p1))))


def deck_group(h: RationalMap1D, ext_cap: int = 12) -> FiniteProjectivityGroup:
    """{sigma in PGL(2) : h o sigma = h}, certified complete.

    A deck map permutes each unramified fiber and is determined by the
    images of three points, so every one is among the maps sending three
    anchor roots to distinct roots: three of one fiber when n >= 3, two
    of one and one of another when n = 2 (``_fiber_search``).  Deck(h)
    acts freely on a fiber, so the scan takes the first map that passes
    for each image of the first anchor.  Each candidate is a raw matrix
    over the working field (every fiber root is finite), verified by the
    dense identity of ``ratfunc._mobius_fixes``.
    """
    n = h.degree()
    if n == 0:
        raise ZeroInput("deck group of a constant map")
    base = h.ctx
    if n == 1:
        return trivial_group(base, 2)
    # the fiber over t = v is num(s) - v den(s) = 0
    sv = [Polynomial.variable(base, 2, 1)]
    fpoly = h.num.compose(sv) - Polynomial.variable(base, 2, 0) * h.den.compose(sv)
    wctx, fibers = _fiber_search(fpoly, n, ext_cap, 1 if n >= 3 else 2)
    hw = h.lift_to(wctx)
    num, den = hw.num.to_dense(), hw.den.to_dense()
    add, mul, inv = wctx.add_t, wctx.mul_t, wctx.inv_t
    roots = [r for _, rs in fibers for r in rs]
    rset, first, last = set(roots), fibers[0][1], fibers[-1][1]
    anchors = tuple(roots[:3])

    def permutes(a, b, c, d):
        for x in roots:
            q = add(mul(c, x), d)
            if not q or mul(add(mul(a, x), b), inv(q)) not in rset:
                return False
        return True

    def deck_map(b1):
        """The deck map sending the first anchor to b1, or None."""
        for b2, b3 in product(first, last):
            if len({b1, b2, b3}) == 3:
                key = _mobius_through(wctx, anchors, (b1, b2, b3))
                if permutes(*key) and _mobius_fixes(wctx, num, den, *key):
                    return Projectivity._invertible(wctx, 2, list(key))
        return None

    found = [sigma for sigma in map(deck_map, first) if sigma is not None]
    group = _deck_closure(hw, found, base)
    if len(group) != len(found):
        raise SoundnessError("scan returned a non-closed set")
    return group


def _deck_closure(hw: RationalMap1D, found: list[Projectivity],
                  base: FieldCtx) -> FiniteProjectivityGroup:
    """The group that verified deck maps of hw (over their field)
    generate: closed with cap deg h, every element re-verified by
    ``RationalMap1D.invariant_under``, descended to ``base``.
    SoundnessError when the maps generate more than deg h of them."""
    try:
        group = generate_group(found, cap=hw.degree())
    except ClosureCapExceeded:
        raise SoundnessError("deck group order exceeds the degree") from None
    if not all(hw.invariant_under(sigma) for sigma in group.elements):
        raise SoundnessError("a deck map does not preserve the map")
    return group.descend_to(base)


def verify_deck_group(h: RationalMap1D,
                      maps: list[Projectivity]) -> FiniteProjectivityGroup:
    """Deck(h) from a generating set of maps claimed to lie in it, with no
    search: each map passes the dense identity of
    ``ratfunc._mobius_fixes``, and the group they generate
    (``_deck_closure``, which re-verifies every element) must have order
    n = deg h.  Then it is all of Deck(h), which has at most n elements.
    SoundnessError otherwise."""
    n = h.degree()
    wctx = reduce(common_field, (m.ctx for m in maps), h.ctx)
    hw = h.lift_to(wctx)
    num, den = hw.num.to_dense(), hw.den.to_dense()
    found = [m.lift_to(wctx) for m in maps]
    if not all(_mobius_fixes(wctx, num, den, *m.mat[0], *m.mat[1])
               for m in found):
        raise SoundnessError("a known deck map fails the exact test")
    group = _deck_closure(hw, found, h.ctx)
    if len(group) != n:
        raise SoundnessError(
            f"the known deck maps generate {len(group)} maps, not deg h = {n}")
    return group


def transported_deck_group(group: FiniteProjectivityGroup, center: ProjPoint,
                           parametrization: tuple[RationalMap1D, RationalMap1D]
                           ) -> FiniteProjectivityGroup:
    """The deck group in PGL(2) of the projection from ``center``, as the
    image of its certified collineation group: tau = phi^-1 sigma phi for
    each generator sigma, phi = (x(t) : y(t) : 1) the parametrization,
    and the group the taus generate is verified by ``verify_deck_group``
    against h = the parametrization composed with rows 0 and 2 of the
    normalizer, so no fiber is searched.  tau is read off three points of
    a field W of at least 64 elements (``_transport``), an extension of
    the group's field G into which phi is lifted through G, and each tau
    descends back to G."""
    x_t, y_t = parametrization
    base = common_field(common_field(center.ctx, x_t.ctx), y_t.ctx)
    h = _projection(_move_center(base, center.lift_to(base))[0],
                    parametrization, len(group))
    gctx = common_field(base, group.ctx)
    wctx = make_field(gctx.p, gctx.k * next(
        r for r in count(1) if gctx.order ** r >= 64))
    coords = [[[lift(lift(FqElement(m.ctx, c), gctx), wctx).rep
                for c in f.to_dense()] for f in (m.num, m.den)]
              for m in (x_t, y_t)]
    taus = [_transport(wctx, coords, s.lift_to(gctx).lift_to(wctx))
            for s in group.generators]
    if None in taus:
        raise ZeroInput("no three parameter points to transport a deck map")
    down = [[try_descend(FqElement(wctx, x), gctx) for x in tau]
            for tau in taus]
    if any(None in tau for tau in down):
        raise SoundnessError("a transported deck map is not defined over "
                             "the field of its collineation")
    return verify_deck_group(h, [Projectivity(gctx, [tau[:2], tau[2:]])
                                 for tau in down])


def _transport(wctx: FieldCtx, coords: list,
               sigma: Projectivity) -> Optional[tuple]:
    """The normalized matrix (a, b, c, d) over wctx of tau = phi^-1 sigma
    phi, coords = [[x num, x den], [y num, y den]] dense, or None when
    fewer than three points t qualify.  For (X : Y : Z) = sigma(phi(t)),
    Z != 0, tau(t) is the root of the gcd of the numerators of x(u) - X/Z
    and y(u) - Y/Z when it is linear and one of them keeps its degree (u =
    infinity is no preimage); t at a pole of phi or with another preimage
    is skipped."""
    add, mul = wctx.add_t, wctx.mul_t
    ts, us = [], []
    for code in range(wctx.order):
        t = wctx.decode(code)
        vals = [(_u_eval(wctx, num, t), _u_eval(wctx, den, t))
                for num, den in coords]
        if not all(d for _, d in vals):
            continue
        x, y = (mul(v, wctx.inv_t(d)) for v, d in vals)
        X, Y, Z = (add(add(mul(a, x), mul(b, y)), c) for a, b, c in sigma.mat)
        if not Z:
            continue
        eqs = [_u_sub(wctx, [mul(Z, v) for v in num], [mul(V, v) for v in den])
               for (num, den), V in zip(coords, (X, Y))]
        g = _u_gcd(wctx, *eqs)
        if len(g) == 2 and any(len(e) == max(map(len, f))
                               for e, f in zip(eqs, coords)):
            ts.append(t)
            us.append(wctx.neg_t(g[0]))
            if len(ts) == 3:
                return _mobius_through(wctx, tuple(ts), tuple(us))
    return None


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------

def _projection(normalizer: Projectivity,
                parametrization: tuple[RationalMap1D, RationalMap1D],
                n: int) -> RationalMap1D:
    """The parametrization composed with rows 0 and 2 of a normalizer
    (sending the center to (0:1:0)), which must have degree n: the moved
    x-coordinate over the moved z-coordinate, since lines through (0:1:0)
    are x = const.  With x = xn/xd and y = yn/yd, a row (a, b, c) gives
    a xn yd + b yn xd + c xd yd over xd yd."""
    ctx = reduce(common_field, (m.ctx for m in parametrization), normalizer.ctx)
    (xn, xd), (yn, yd) = ((m.num.lift_to(ctx), m.den.lift_to(ctx))
                          for m in parametrization)
    terms = (xn * yd, yn * xd, xd * yd)
    num, den = (sum((f * FqElement(ctx, c) for f, c in zip(terms, row)),
                    Polynomial.zero(ctx, 1))
                for row in normalizer.lift_to(ctx).mat[::2])
    if den.is_zero:
        raise ZeroInput("projection denominator is identically zero")
    h = RationalMap1D(num, den)
    if h.degree() != n:
        raise ParametrizationInvalid(
            f"projection degree {h.degree()} != fiber degree {n}; "
            "the parametrization is not birational")
    return h


def projection_map(fib: ProjectionFiber,
                   parametrization: tuple[RationalMap1D, RationalMap1D]
                   ) -> RationalMap1D:
    """The projection from the fiber's center composed with a
    parametrization of its curve, checked to lie on the curve."""
    from .curve import verify_on_curve
    verify_on_curve(fib.curve, *parametrization)
    return _projection(fib.normalizer, parametrization, fib.degree)


def is_galois_point(C: PlaneCurve, P: ProjPoint, strategy: str = "auto",
                    parametrization: Optional[tuple] = None,
                    cfg: Optional[RunConfig] = None,
                    deck_maps: Optional[list] = None) -> GaloisReport:
    """Decide whether P is a Galois point of C.

    strategy: "auto" tries deterministic certificates first (collineation,
    then deck when a parametrization is supplied) and falls back to the
    Monte Carlo screen; or force one of "collineation", "deck",
    "monte_carlo".  Certified verdicts carry the group and its descriptor.
    ``deck_maps``, maps in PGL(2) known to be deck maps of the projection,
    are verified (``verify_deck_group``) instead of searched for.
    """
    cfg = cfg or RunConfig()
    fib = fiber_polynomial(C, P)
    n = fib.degree
    notes: list[str] = []
    if not C.assume_irreducible:
        notes.append("curve irreducibility was assumed, not verified")

    if n == 1:
        deckish = strategy == "deck" or (strategy == "auto"
                                         and parametrization is not None)
        grp = trivial_group(fib.curve.ctx, 2 if deckish else 3)
        return GaloisReport(fib.center, fib.point_class, 1, "certified_galois",
                            group=grp, descriptor=identify_group(grp),
                            method="deck" if deckish else "collineation",
                            notes=notes +
                            ["degree-1 projection is trivially Galois"])

    coll_group = None
    if strategy in ("auto", "collineation"):
        try:
            coll_group = central_collineation_group(fib, cfg)
        except ExactModeDegenerate as exc:
            notes.append(f"exact collineation search degenerate: {exc}")
        if coll_group is not None and len(coll_group) == n:
            return GaloisReport(fib.center, fib.point_class, n,
                                "certified_galois", group=coll_group,
                                descriptor=identify_group(coll_group),
                                method="collineation", notes=notes)
        if strategy == "collineation":
            if coll_group is not None:
                notes.append(f"collineation group order {len(coll_group)} < {n}")
            return GaloisReport(fib.center, fib.point_class, n, "inconclusive",
                                group=coll_group,
                                descriptor=identify_group(coll_group)
                                if coll_group else None,
                                method="collineation", notes=notes)

    if strategy in ("auto", "deck"):
        if parametrization is None:
            if strategy == "deck":
                raise MissingParametrization(
                    "deck certification needs a parametrization")
        else:
            h = projection_map(fib, parametrization)
            dg = deck_group(h, ext_cap=cfg.ext_cap) if deck_maps is None \
                else verify_deck_group(h, deck_maps)
            if len(dg) == n:
                return GaloisReport(fib.center, fib.point_class, n,
                                    "certified_galois", group=dg,
                                    descriptor=identify_group(dg),
                                    method="deck", notes=notes)
            notes.append(f"deck group order {len(dg)} < {n}")
            if strategy == "deck":
                return GaloisReport(fib.center, fib.point_class, n,
                                    "inconclusive", group=dg,
                                    descriptor=identify_group(dg),
                                    method="deck", notes=notes)

    mc = monte_carlo_galois(fib, trials=cfg.trials)
    mc.notes = notes + mc.notes
    if coll_group is not None and len(coll_group) > 1 \
            and mc.verdict == "certified_not_galois":
        # a nontrivial collineation group never contradicts a refutation,
        # but record it for the report
        mc.notes.append(f"collineation subgroup of order {len(coll_group)} found")
    return mc
