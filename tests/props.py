"""Randomized property suites shared by module tests and the acceptance run.

Each function implements one numbered invariant from a module contract and
asserts it over ``cases`` randomized instances (seeded, deterministic).
The acceptance suite runs every suite at >= 500 cases; module tests reuse
them at lower counts for quick iteration.
"""

import itertools
import json
import math
import random

from galoispoints.curve import PlaneCurve, singular_points
from galoispoints.errors import (AllSpecializationsRamified, CenterSingular,
                                 DegenerateFibers, GaloisPointError,
                                 InputError, SoundnessError, ZeroInput)
from galoispoints.galois import (
    GaloisReport,
    _collineation_fixes,
    _fiber_search,
    _mobius_through,
    _tame_order,
    central_collineation_group,
    deck_group,
    fiber_polynomial,
    monte_carlo_galois,
    verify_deck_group,
)
from galoispoints.gf import (
    FieldCtx,
    FqElement,
    _subgroup_log,
    _unit_group_factors,
    common_field,
    embed,
    lift,
    make_field,
    multiplicative_generator,
    nth_root_of_unity,
    try_descend,
)
from galoispoints.polyring import (
    Polynomial,
    _dense_rows,
    _distinct_degree,
    _split_by_var,
    _squarefree_specializer,
    _u_deg,
    _u_diff,
    _u_divmod,
    _u_eval,
    _u_frobenius_map,
    _u_gcd,
    _u_half_power,
    _u_monic,
    _u_mul,
    _u_powmod,
    _u_prs,
    _u_sub,
    _u_trim,
    exact_div,
    factor_degrees,
    factor_univariate,
    poly_gcd,
    resultant,
    splitting_roots,
)
from galoispoints.errors import ClosureCapExceeded
from galoispoints.ratfunc import RationalMap1D
from galoispoints.schema import SCHEMAS, dump_report, validate_report
from galoispoints.projective import (
    FiniteProjectivityGroup,
    Projectivity,
    ProjPoint,
    _factorized_joint,
    generate_group,
    identify_group,
    orbit,
    point_p1,
    product_structure,
    trivial_group,
)

from conftest import rand_poly, rand_univ


# ---------------------------------------------------------------------------
# gf
# ---------------------------------------------------------------------------

class DigitField:
    """Reference arithmetic of F_p[x]/(modulus) on digit tuples, lowest
    digit first: schoolbook products reduced by the rows x^(k+i) mod m,
    inverses by the extended Euclid over F_p on digit lists.  It shares no
    code with the int reps of galoispoints.gf, whose results it checks."""

    def __init__(self, p, k, modulus):
        self.p, self.k, self.modulus = p, k, tuple(c % p for c in modulus)
        red = []
        cur = [(-c) % p for c in self.modulus[:-1]]  # x^k
        red.append(tuple(cur))
        for _ in range(k - 2):
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [(c + top * r) % p for c, r in zip(cur, red[0])]
            red.append(tuple(cur))
        self.red = red

    def digits(self, code):
        out = []
        for _ in range(self.k):
            code, d = divmod(code, self.p)
            out.append(d)
        return tuple(out)

    def code(self, digits):
        out = 0
        for d in reversed(digits):
            out = out * self.p + d
        return out

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def smul(self, c, a):
        return tuple((c * x) % self.p for x in a)

    def mul(self, a, b):
        p, k = self.p, self.k
        conv = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
        out = [c % p for c in conv[:k]]
        for idx in range(k, 2 * k - 1):
            c = conv[idx] % p
            for i, r in enumerate(self.red[idx - k]):
                out[i] = (out[i] + c * r) % p
        return tuple(out)

    def inv(self, a):
        p = self.p
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        r0, r1 = list(self.modulus), _fp_trim(list(a))
        s0, s1 = [], [1]
        while r1:
            q, rem = _fp_divmod(r0, r1, p)
            r0, r1 = r1, rem
            s0, s1 = s1, _fp_sub(s0, _fp_mul(q, s1, p), p)
        lead_inv = pow(r0[-1], p - 2, p)
        res = _fp_divmod([(c * lead_inv) % p for c in s0], list(self.modulus), p)[1]
        return tuple(res + [0] * (self.k - len(res)))

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        result = (1,) + (0,) * (self.k - 1)
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result


def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _fp_trim(out)


def _fp_divmod(a, b, p):
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - len(b) + 1, 1)
    rem = a[:]
    db = len(b) - 1
    while rem and len(rem) - 1 >= db:
        c = (rem[-1] * inv) % p
        off = len(rem) - 1 - db
        q[off] = c
        for i, bi in enumerate(b):
            rem[off + i] = (rem[off + i] - c * bi) % p
        rem.pop()
    return _fp_trim(q), _fp_trim(rem)


def _fp_sub(a, b, p):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _fp_trim([(x - y) % p for x, y in zip(a, b)])


def gf_matches_digit_oracle(ctx, cases=200):
    """Every raw operation of ``ctx`` agrees with DigitField on encodings:
    add, sub, neg, smul, mul, inv and pow, the encode/decode round trip and
    elements built from digit lists; inv of zero raises.  Operands mix
    uniform draws with 0, 1, -1 and the all-(p-1) digit vector, which
    exercise the zero tests, the table sentinels and the slot carries."""
    rng = random.Random(f"oracle:{ctx.p}^{ctx.k}:{ctx.modulus}")
    ref = DigitField(ctx.p, ctx.k, ctx.modulus)
    q, p = ctx.order, ctx.p
    edges = [0, 1, p - 1, q - 1]

    def draw():
        return rng.choice(edges) if rng.random() < 0.2 else rng.randrange(q)

    try:
        ctx.inv_t(0)
        raise AssertionError(f"inverse of zero in {ctx!r}")
    except ZeroDivisionError:
        pass
    for _ in range(cases):
        a, b = draw(), draw()
        ra, rb = ctx.decode(a), ctx.decode(b)
        da, db = ref.digits(a), ref.digits(b)
        assert ctx.encode(ra) == a
        assert ctx.element(list(da)).rep == ra
        enc = ctx.encode
        assert enc(ctx.add_t(ra, rb)) == ref.code(ref.add(da, db))
        assert enc(ctx.sub_t(ra, rb)) == ref.code(ref.sub(da, db))
        assert enc(ctx.neg_t(ra)) == ref.code(ref.neg(da))
        c = rng.randrange(-2 * p, 2 * p)
        assert enc(ctx.smul_t(c, ra)) == ref.code(ref.smul(c, da))
        assert enc(ctx.mul_t(ra, rb)) == ref.code(ref.mul(da, db))
        e = rng.choice([0, 1, 2, p, q - 1, q, rng.randrange(3 * q)])
        assert enc(ctx.pow_t(ra, e)) == ref.code(ref.pow(da, e))
        if a:
            assert enc(ctx.inv_t(ra)) == ref.code(ref.inv(da))
            assert enc(ctx.pow_t(ra, -e)) == ref.code(ref.pow(da, -e))


def gf_embed_descend_round_trip(src, dst, cases=50):
    """try_descend inverts embed on the subfield copy and finds nothing
    outside it; embed is a ring homomorphism on random pairs."""
    rng = random.Random(f"descend:{src.spec}:{dst.spec}")
    for _ in range(cases):
        a = src.element(rng.randrange(src.order))
        b = src.element(rng.randrange(src.order))
        ea = embed(src, dst, a)
        assert try_descend(ea, src) == a
        assert embed(src, dst, a * b) == ea * embed(src, dst, b)
        assert embed(src, dst, a - b) == ea - embed(src, dst, b)
        x = dst.element(rng.randrange(dst.order))
        down = try_descend(x, src)
        assert (down is not None) == (x ** src.order == x)
        if down is not None:
            assert embed(src, dst, down) == x


def embed_scan_oracle(src, dst):
    """The image of x in ``dst`` by the subfield-cycle scan that fixed the
    embeddings before they came from root finding: the first delta^i, for
    delta = g^((p^b - 1)/(p^a - 1)) and g the canonical generator of dst,
    at which the source modulus vanishes.  It walks up to p^a - 1
    elements, so it serves small pairs only."""
    step = (dst.order - 1) // (src.order - 1)
    delta = dst.pow_t(multiplicative_generator(dst).rep, step)
    cur = 1
    for _ in range(src.order - 1):
        if not _u_eval(dst, list(src.modulus), cur):
            return cur
        cur = dst.mul_t(cur, delta)
    raise AssertionError(f"{src!r} has no root in {dst!r}")


def gf_embed_matches_scan(src, dst, cases=20):
    """embed sends x to the scan oracle's root, so its image of a = sum
    a_i x^i is sum a_i root^i; a prime field maps onto the constants."""
    rng = random.Random(f"scan:{src.spec}:{dst.spec}")
    if src.k == 1:
        for a in src.elements():
            assert embed(src, dst, a).rep == a.rep
        return
    root = embed_scan_oracle(src, dst)
    assert embed(src, dst, src.element(src.p)).rep == root
    for _ in range(cases):
        a = src.element(rng.randrange(src.order))
        want = 0
        for digit in reversed(src._digits(a.rep)):
            want = dst.add_t(dst.mul_t(want, root), digit)
        assert embed(src, dst, a).rep == want


def gf_subgroup_log(ctx, cases=50):
    """_subgroup_log(delta, n, r) is the least i with delta^i = r, for delta
    of order n: exhaustively against a walk on every divisor n <= 64 of
    q - 1, and for r = delta^i with random i in [0, n) on random larger
    divisors n <= 4096 and on n = q - 1."""
    rng = random.Random(f"log:{ctx.spec}")
    q1 = ctx.order - 1
    primes = _unit_group_factors(ctx)
    g = multiplicative_generator(ctx).rep
    divisors = [n for n in range(1, min(q1, 4096) + 1) if q1 % n == 0]
    large = [n for n in divisors if n > 64] + [q1] * (q1 > 4096)
    for n in divisors:
        if n > 64:
            continue
        delta, cur = ctx.pow_t(g, q1 // n), 1
        for i in range(n):
            assert _subgroup_log(ctx, delta, n, cur, primes) == i
            cur = ctx.mul_t(cur, delta)
    for c in range(cases if large else 0):
        n = q1 if c % 2 else rng.choice(large)
        delta, i = ctx.pow_t(g, q1 // n), rng.randrange(n)
        r = ctx.pow_t(delta, i)
        assert _subgroup_log(ctx, delta, n, r, primes) == i


def gf_frobenius_closure(cases=500):
    """a^(p^k) = a for every element, exhaustively on fields up to 4096."""
    fields = [make_field(7), make_field(2, 2), make_field(13, 2),
              make_field(2, 6), make_field(3, 4), make_field(5, 3),
              make_field(2, 12)]
    total = 0
    for ctx in fields:
        if ctx.order > 4096:
            continue
        for a in ctx.elements():
            assert a ** ctx.order == a
            total += 1
    assert total >= cases


def gf_frobenius_hom(cases=1000):
    """phi(a) = a^p is additive and multiplicative on random pairs."""
    rng = random.Random(101)
    fields = [make_field(7, 2), make_field(2, 5), make_field(13, 2),
              make_field(3, 3)]
    for i in range(cases):
        ctx = fields[i % len(fields)]
        a = ctx.element(rng.randrange(ctx.order))
        b = ctx.element(rng.randrange(ctx.order))
        p = ctx.p
        assert (a + b) ** p == a ** p + b ** p
        assert (a * b) ** p == a ** p * b ** p


def gf_embed_hom(cases=1000):
    """embed is injective and commutes with arithmetic."""
    rng = random.Random(102)
    pairs = [(make_field(2, 2), make_field(2, 4)),
             (make_field(2, 2), make_field(2, 6)),
             (make_field(3, 2), make_field(3, 4)),
             (make_field(13, 1), make_field(13, 2)),
             (make_field(5, 2), make_field(5, 4))]
    for src, dst in pairs:
        images = {embed(src, dst, a).rep for a in src.elements()}
        assert len(images) == src.order  # injective
    for i in range(cases):
        src, dst = pairs[i % len(pairs)]
        a = src.element(rng.randrange(src.order))
        b = src.element(rng.randrange(src.order))
        assert embed(src, dst, a + b) == embed(src, dst, a) + embed(src, dst, b)
        assert embed(src, dst, a * b) == embed(src, dst, a) * embed(src, dst, b)


# ---------------------------------------------------------------------------
# polyring
# ---------------------------------------------------------------------------

def polyring_gcd_iff_resultant(cases=500):
    """gcd(f, g) = 1 iff resultant(f, g) != 0, univariate deg <= 6 over F_13."""
    rng = random.Random(201)
    F13 = make_field(13)
    done = 0
    while done < cases:
        f = rand_poly(rng, F13, 1, 6, 4)
        g = rand_poly(rng, F13, 1, 6, 4)
        if f.is_zero or g.is_zero:
            continue
        coprime = poly_gcd(f, g).degree() == 0
        assert coprime == (not resultant(f, g, 0).is_zero)
        done += 1


def polyring_factor_remultiplies(cases=500):
    """factor_univariate output re-multiplies to the input over F_49."""
    rng = random.Random(202)
    F49 = make_field(7, 2)
    for i in range(cases):
        f = rand_univ(rng, F49, rng.randrange(1, 11))
        factors = factor_univariate(f, seed=i)
        prod = Polynomial.const(F49, 1, 1)
        for p, e in factors:
            assert p.degree() >= 1
            prod = prod * p ** e
        assert prod * f.coefficient((f.degree(),)) == f


def polyring_factor_degrees(cases=500):
    """factor_degrees of a squarefree product of distinct irreducibles, with
    several sharing one degree, matches the full factorization over F_13,
    F_4, F_9, F_(2^13) and F_(5^6).  Squarefree quadratics that are not
    monic, split and irreducible in turn, read [1, 1] and [2]: the degrees
    match the construction, distinct-degree factorization and the full
    factorization over F_3, F_13, F_9, F_(3^6) (log tables) and F_(5^6)
    (packed)."""
    rng = random.Random(204)
    fields = [make_field(13), make_field(2, 2), make_field(3, 2),
              make_field(2, 13), make_field(5, 6)]
    irreducibles = {}
    for ctx in fields:
        found = irreducibles[ctx] = {}
        for d in (1, 2, 3):
            while len(found.setdefault(d, set())) < 3:
                g = rand_univ(rng, ctx, d).monic()
                fs = factor_univariate(g)
                if len(fs) == 1 and fs[0] == (g, 1):
                    found[d].add(g)
        for d in found:
            found[d] = sorted(found[d], key=Polynomial.to_text)
    for i in range(cases):
        ctx = fields[i % len(fields)]
        repeated = rng.choice((1, 2, 3))
        chosen = rng.sample(irreducibles[ctx][repeated], rng.choice((2, 3)))
        for d in (1, 2, 3):
            chosen += rng.sample(irreducibles[ctx][d], rng.randrange(2))
        f = Polynomial.const(ctx, 1, rng.randrange(1, ctx.order))
        for g in set(chosen):
            f = f * g
        expect = sorted(g.degree() for g in set(chosen))
        assert factor_degrees(f) == expect
        assert expect == sorted(g.degree() for g, _ in factor_univariate(f))
    for i in range(cases):
        ctx = make_field(*((3, 1), (13, 1), (3, 2), (3, 6), (5, 6))[i % 5])
        if i // 5 % 2:
            expect, g = [2], _dense_irreducible(rng, ctx, 2)
        else:
            r1, r2 = rng.sample(range(ctx.order), 2)
            expect = [1, 1]
            g = _u_mul(ctx, [ctx.neg_t(ctx.decode(r1)), 1],
                       [ctx.neg_t(ctx.decode(r2)), 1])
        lc = ctx.decode(rng.randrange(1, ctx.order))
        f = Polynomial.from_dense(ctx, [ctx.mul_t(lc, c) for c in g])
        assert factor_degrees(f) == expect, f
        assert expect == sorted(d for h, d in _distinct_degree(ctx, g)
                                for _ in range(_u_deg(h) // d)), f
        assert expect == [h.degree() for h, _ in factor_univariate(f)], f


def _euclid_gcd(ctx, a, b):
    """Reference monic gcd: Euclid's algorithm by division with remainder,
    one inversion per round.  It shares no code with polyring._u_prs,
    whose remainder sequence polyring._u_gcd makes monic."""
    while b:
        a, b = b, _u_divmod(ctx, a, b)[1]
    if not a:
        return a
    inv = ctx.inv_t(a[-1])
    return [ctx.mul_t(inv, c) for c in a]


def _powmod_distinct_degree(ctx, f):
    """Reference distinct-degree factorization of a monic squarefree f:
    h = x^(q^dd) mod f by one full powmod per step, parts by the monic
    Euclid gcd.  It shares no Frobenius map or pseudo-remainder code with
    polyring._distinct_degree, whose parts it checks."""
    out = []
    h = x = [0, 1]
    dd = 1
    while _u_deg(f) >= 2 * dd:
        h = _u_powmod(ctx, h, ctx.order, f)
        g = _euclid_gcd(ctx, _u_sub(ctx, h, x), f)
        if _u_deg(g) > 0:
            out.append((g, dd))
            f = _u_divmod(ctx, f, g)[0]
            h = _u_divmod(ctx, h, f)[1]
        dd += 1
    if _u_deg(f) > 0:
        out.append((f, _u_deg(f)))
    return out


# One field of every shape: prime, tabled odd, tabled 2^k, bit-polynomial
# 2^k above 4096 elements, packed odd (two slot layouts).
_DENSE_FIELDS = [(13, 1), (3, 2), (2, 2), (2, 6), (2, 13), (5, 6), (3, 8)]


def _rand_dense(rng, ctx, degree, monic=False):
    """A random dense univariate of exact degree ``degree`` (raw reps)."""
    out = [ctx.decode(rng.randrange(ctx.order)) for _ in range(degree)]
    return out + [1 if monic else ctx.decode(rng.randrange(1, ctx.order))]


def _dense_irreducible(rng, ctx, d):
    while True:
        g = _rand_dense(rng, ctx, d, monic=True)
        if _powmod_distinct_degree(ctx, g) == [(g, d)]:
            return g


# Factor-degree patterns whose product f sheds a part at step 1, at step 2
# with later steps to run, or at several steps.
_DDF_SHRINK = [(1, 3), (1, 2, 3), (2, 3, 3), (1, 1, 2, 4), (2, 2, 4), (1, 7),
               (2, 6), (1, 2, 5)]


def polyring_ddf_matches_oracle(cases=500):
    """_distinct_degree (Frobenius maps, pseudo-remainder gcds) returns the
    parts of the repeated-powmod oracle, on every field shape, for monic
    squarefree inputs of degree 1 to 8: random ones, and products of
    distinct irreducibles whose degrees make f shrink after a found part."""
    rng = random.Random(206)
    for i in range(cases):
        ctx = make_field(*_DENSE_FIELDS[i % len(_DENSE_FIELDS)])
        if i % 2:
            pattern = _DDF_SHRINK[(i // 2) % len(_DDF_SHRINK)]
            pieces = []
            while len(pieces) < len(pattern):
                g = _dense_irreducible(rng, ctx, pattern[len(pieces)])
                if g not in pieces:
                    pieces.append(g)
            f = [1]
            for g in pieces:
                f = _u_mul(ctx, f, g)
        else:
            while True:
                f = _rand_dense(rng, ctx, rng.randrange(1, 9), monic=True)
                der = _u_diff(ctx, f)
                if der and _u_deg(_euclid_gcd(ctx, f, der)) == 0:
                    break
        assert _distinct_degree(ctx, f) == _powmod_distinct_degree(ctx, f)


# Odd fields of every shape with the orders q of their subfields: q = Q
# runs the F_Q-linear q-power map, a proper subfield the semilinear one.
_HALF_POWER_FIELDS = [((13, 1), [13]), ((3, 2), [3, 9]), ((5, 3), [5, 125]),
                      ((5, 6), [5, 25, 125, 5 ** 6]), ((3, 8), [3, 9, 81]),
                      ((19, 3), [19, 19 ** 3])]


def polyring_half_power_matches_powmod(cases=500):
    """_u_half_power, the product of Frobenius images raised to (q-1)/2,
    equals u^((q^m - 1)/2) mod f by one full powmod, for random monic f of
    degree 1 to 6, random u reduced mod f and m from 1 to 4, on odd fields
    of every shape with both the linear and the semilinear q-power map."""
    rng = random.Random(208)
    for i in range(cases):
        spec, qs = _HALF_POWER_FIELDS[i % len(_HALF_POWER_FIELDS)]
        ctx = make_field(*spec)
        q = qs[(i // len(_HALF_POWER_FIELDS)) % len(qs)]
        f = _rand_dense(rng, ctx, rng.randrange(1, 7), monic=True)
        u = _u_divmod(ctx, _rand_dense(rng, ctx, rng.randrange(0, 7)), f)[1]
        m = rng.randrange(1, 5)
        frob = _u_frobenius_map(ctx, f, q)
        assert (_u_half_power(ctx, u, f, q, m, frob)
                == _u_powmod(ctx, u, (q ** m - 1) // 2, f))


def polyring_gcd_matches_euclid(cases=500):
    """The inversion-free remainder sequence _u_prs gives a scalar multiple
    of the Euclid oracle's monic gcd, so the same degree, and _u_gcd (that
    sequence made monic) equals the oracle, on every field shape: random
    pairs of degree 0 to 8, half of them with a planted common factor, and
    zero operands."""
    rng = random.Random(207)
    for i in range(cases):
        ctx = make_field(*_DENSE_FIELDS[i % len(_DENSE_FIELDS)])
        a = _rand_dense(rng, ctx, rng.randrange(0, 6))
        b = _rand_dense(rng, ctx, rng.randrange(0, 6))
        if i % 2:
            c = _rand_dense(rng, ctx, rng.randrange(1, 4))
            a, b = _u_mul(ctx, a, c), _u_mul(ctx, b, c)
        if i % 11 == 0:
            a = []
        g, r = _euclid_gcd(ctx, a, b), _u_prs(ctx, a, b)
        assert _u_deg(r) == _u_deg(g)
        assert _u_gcd(ctx, a, b) == g


def polyring_splitting_roots(cases=500):
    """Multiplicity sum = degree, exact zeros, exhaustive agreement when the
    splitting field is small enough to enumerate."""
    rng = random.Random(203)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for i in range(cases):
        p = primes[i % len(primes)]
        ctx = make_field(p)
        f = rand_univ(rng, ctx, rng.randrange(1, 5))
        rm = splitting_roots(f, ext_cap=4)
        assert rm.degree() == f.degree()
        lifted = f.lift_to(rm.ext)
        for r, m in rm.roots:
            assert not lifted.evaluate([r])
            # multiplicity: (x - r)^m divides f exactly and (x - r)^(m+1) does not
            xr = Polynomial.variable(rm.ext, 1, 0) - r
            q = lifted
            for _ in range(m):
                q = exact_div(q, xr)
            assert q.evaluate([r])
        if rm.ext.order <= 2500:
            brute = {e.rep for e in rm.ext.elements() if not lifted.evaluate([e])}
            assert brute == {r.rep for r, _ in rm.roots}


def _refactored_roots(f, seed=0):
    """Reference root multiset of f: every irreducible factor is lifted into
    the splitting field and factored there again into linear factors.
    Returns (ext, sorted (encoding, multiplicity) pairs)."""
    factors = factor_univariate(f, seed=seed)
    ext = make_field(f.ctx.p, f.ctx.k * math.lcm(*(g.degree() for g, _ in factors)))
    roots = []
    for irr, mult in factors:
        for lin, m2 in factor_univariate(irr.lift_to(ext), seed=seed):
            assert lin.degree() == 1
            roots.append(((-lin.coefficient((0,))).encoding(), mult * m2))
    return ext, sorted(roots)


# (p, k, degree choices): every field shape as base and as splitting field.
_ROOT_SHAPES = [
    (13, 1, [(1, 1, 1)]),                       # prime
    (2, 2, [(3,), (1, 3)]),                     # 2^k tabled: 2^2 -> 2^6
    (2, 4, [(4,), (2, 4)]),                     # 2^k bit polynomials: -> 2^16
    (3, 2, [(2,), (1, 2)]),                     # odd tabled: 3^2 -> 3^4
    (5, 2, [(3,), (1, 3)]),                     # odd packed: 5^2 -> 5^6
    (13, 1, [(4,), (2, 4)]),                    # odd packed: 13 -> 13^4
    (2, 1, [(2,), (3,), (4,), (5,), (6,)]),     # one factor, degree 2..6
    (3, 1, [(2,), (3,), (4,), (5,), (6,)]),
    (2, 1, [(2, 3)]),                           # d < j: degrees 2, 3, j = 6
    (3, 1, [(2, 3)]),
    (2, 2, [(2, 3)]),
    (5, 1, [(2, 3)]),
]


def polyring_roots_match_refactor(cases=500):
    """splitting_roots (one split per factor, Frobenius conjugates) agrees
    with the lift-and-refactor oracle on the splitting field and the root
    multiset, over every field shape, with repeated factors."""
    rng = random.Random(205)

    def irreducible(ctx, d):
        while True:
            g = rand_univ(rng, ctx, d).monic()
            if factor_univariate(g) == [(g, 1)]:
                return g

    for i in range(cases):
        p, k, choices = _ROOT_SHAPES[i % len(_ROOT_SHAPES)]
        ctx = make_field(p, k)
        f = Polynomial.const(ctx, 1, rng.randrange(1, ctx.order))
        for d in rng.choice(choices):
            f = f * irreducible(ctx, d) ** rng.choice((1, 1, 2, 3))
        rm = splitting_roots(f, ext_cap=12, seed=i)
        ext, roots = _refactored_roots(f, seed=i)
        assert rm.ext == ext
        assert sorted((r.encoding(), m) for r, m in rm.roots) == roots


def polyring_resultant_multiplicative(cases=500):
    """Res(fg, h) = Res(f, h) Res(g, h) on random univariate triples."""
    rng = random.Random(204)
    F13 = make_field(13)
    done = 0
    while done < cases:
        f = rand_poly(rng, F13, 1, 4, 3)
        g = rand_poly(rng, F13, 1, 4, 3)
        h = rand_poly(rng, F13, 1, 4, 3)
        if f.is_zero or g.is_zero or h.is_zero:
            continue
        assert resultant(f * g, h, 0) == resultant(f, h, 0) * resultant(g, h, 0)
        done += 1


# ---------------------------------------------------------------------------
# projective
# ---------------------------------------------------------------------------

def _group_pool():
    F13 = make_field(13)
    F5 = make_field(5)
    F7 = make_field(7)
    z3 = nth_root_of_unity(F13, 3)
    z4 = nth_root_of_unity(F13, 4)
    z6 = nth_root_of_unity(F13, 6)
    return [
        generate_group([Projectivity(F13, [[z3, 0], [0, 1]])]),
        generate_group([Projectivity(F13, [[z4, 0], [0, 1]])]),
        generate_group([Projectivity(F13, [[z6, 0], [0, 1]])]),
        generate_group([Projectivity(F13, [[-1, 0], [0, 1]]),
                        Projectivity(F13, [[0, 1], [1, 0]])]),
        generate_group([Projectivity(F5, [[1, 1], [0, 1]])]),
        generate_group([Projectivity(F5, [[1, 1], [0, 1]]),
                        Projectivity(F5, [[2, 0], [0, 1]])]),
        generate_group([Projectivity(F7, [[0, -1], [1, 0]])]),
        trivial_group(F13, 2),
    ]


def _assorted_groups(rng, count):
    pool = _group_pool()
    return [pool[rng.randrange(len(pool))] for _ in range(count)]


def is_closed(G):
    """Matrix-product oracle: G's elements are closed under product and
    inverse.  It never reads G's multiplication table, so it can check the
    closure that built that table."""
    elements = set(G.elements)
    return all(g.inverse() in elements and all(g * h in elements for h in G)
               for g in G)


def projective_group_closure(cases=500):
    """Exhaustive closure and inverse membership for |G| <= 64."""
    rng = random.Random(301)
    checked = 0
    for G in _assorted_groups(rng, 24):
        assert len(G) <= 64
        assert is_closed(G)
        checked += len(G) ** 2 + len(G)
    assert checked >= cases


def _table_groups(rng):
    """Every group of _assorted_groups, the same groups rebuilt by lift_to,
    conjugate and descend_to (tables carried over), and joint groups of
    product_structure."""
    F5, F13 = make_field(5), make_field(13)
    F25 = make_field(5, 2)
    z3, z4 = nth_root_of_unity(F13, 3), nth_root_of_unity(F13, 4)
    pool = _group_pool()
    out = list(pool)
    for G in pool:
        ctx = G.ctx
        h = Projectivity(ctx, [[rng.randrange(ctx.order), 1], [1, 0]])
        out.append(G.conjugate(h))
        out.append(G.lift_to(make_field(ctx.p, 2)).descend_to(ctx))
    pairs = [
        ([Projectivity(F13, [[z3, 0], [0, 1]])], [Projectivity(F13, [[0, 1], [1, 0]])]),
        ([Projectivity(F13, [[-1, 0], [0, 1]]), Projectivity(F13, [[0, 1], [1, 0]])],
         [Projectivity(F13, [[z3, 0], [0, 1]])]),
        ([Projectivity(F5, [[1, 1], [0, 1]])], [Projectivity(F5, [[0, -1], [1, 0]])]),
        ([Projectivity(F25, [[1, 1], [0, 1]])], [Projectivity(F5, [[2, 0], [0, 1]])]),
        ([Projectivity(F13, [[z4, 0, 0], [0, 1, 0], [0, 0, 1]])],
         [Projectivity(F13, [[1, 0, 0], [0, z3, 0], [0, 0, 1]]),
          Projectivity(F13, [[1, 0, 0], [0, 1, 0], [3, 0, 1]])]),
        # G1 and G2 meet in t -> -t, so their products are not distinct
        ([Projectivity(F13, [[z4, 0], [0, 1]])],
         [Projectivity(F13, [[z3, 0], [0, 1]]),
          Projectivity(F13, [[-1, 0], [0, 1]])]),
    ]
    for g1, g2 in pairs:
        out.append(product_structure(generate_group(g1), generate_group(g2)).joint)
    return out


def _check_table(G, rng) -> int:
    """Assert that G's table agrees with matrix arithmetic (mul, inv and
    order against ``*``, ``inverse()`` and ``Projectivity.order``), and
    that closing its elements in shuffled order gives the same elements
    and descriptor from at most log2|G| generators, with the cap tripping
    exactly above |G|.  Returns the number of products compared."""
    els, N = G.elements, len(G)
    checked = 0
    for a in range(N):
        inv, order = G.inv(a), G.order(a)
        assert els[inv] == els[a].inverse()
        assert order == els[a].order()
        for b in rng.sample(range(N), min(N, 12)):
            ab = G.mul(a, b)
            assert els[ab] == els[a] * els[b]
            checked += 1
    shuffled = list(els)
    rng.shuffle(shuffled)
    H = generate_group(shuffled, cap=N)
    desc_h, desc_g = identify_group(H), identify_group(G)
    assert set(H.elements) == set(els)
    assert desc_h == desc_g
    assert 2 ** len(H.table[0]) <= N
    if N > 1:
        try:
            generate_group(shuffled, cap=N - 1)
            raise AssertionError("closure cap not enforced")
        except ClosureCapExceeded:
            pass
    return checked


def projective_table(cases=500):
    """``_check_table`` on every group of ``_table_groups``."""
    rng = random.Random(306)
    checked = sum(_check_table(G, rng) for G in _table_groups(rng))
    assert checked >= cases


def _check_build_order(G, rng) -> None:
    """G keeps the order its builder found: position 0 is the identity,
    ``generators`` are the elements at the table's kept positions (the
    identity alone when none is kept), the table agrees with matrix
    products (``_check_table``), and a report writes G's elements in
    encoding order."""
    els = G.elements
    assert els[0] == Projectivity.identity(G.ctx, G.n)
    assert G.index == {g: i for i, g in enumerate(els)}
    assert G.generators == ([els[g] for g in G.table[0]] or els[:1])
    _check_table(G, rng)
    report = GaloisReport(ProjPoint(G.ctx, [0, 1, 0]), "outer", len(G),
                          "certified_galois", group=G,
                          descriptor=identify_group(G), method="collineation")
    rows = report.to_jsonable()["group"]["elements"]
    assert rows == sorted(g.row_major() for g in els)


def projective_builders_keep_order(cases=12):
    """``_check_build_order`` on the groups of every builder:
    ``generate_group`` on shuffled generators; the closed form of
    ``central_collineation_group`` at tame and wild centers; the joints of
    ``product_structure``, read off an exact factorization and closed;
    ``deck_group`` and ``verify_deck_group``; ``lift_to``, ``conjugate``
    and ``descend_to``.  ``cases`` joints, closed forms of each kind and
    deck groups are drawn, and joints of both kinds occur."""
    rng = random.Random(2801)
    table_rng = random.Random(2802)
    groups = _table_groups(rng)
    for G in _group_pool():
        gens = list(G.elements)
        rng.shuffle(gens)
        groups.append(generate_group(gens))
        groups.append(G.lift_to(make_field(G.ctx.p, 2)))
    closed, joints = set(), 0
    while len(closed) < 2 or joints < cases:
        G1, G2 = _assorted_groups(rng, 2)
        if G1.ctx.p != G2.ctx.p:
            continue
        try:
            groups.append(product_structure(G1, G2).joint)
        except GaloisPointError:
            continue
        ctx = common_field(G1.ctx, G2.ctx)
        closed.add(_factorized_joint(G1.lift_to(ctx), G2.lift_to(ctx),
                                     4096) is None)
        joints += 1
    tame = wild = 0
    while tame < cases:
        fib = _tame_center(rng, make_field(*_TAME_FIELDS[tame % 4]))
        if fib is not None:
            try:
                groups.append(central_collineation_group(fib))
            except InputError:
                continue
            tame += 1
    while wild < cases:
        fib = _wild_center(rng, _WILD_SHAPES[wild % len(_WILD_SHAPES)])
        if fib is not None:
            try:
                groups.append(central_collineation_group(fib))
            except InputError:
                continue
            wild += 1
    fields = [make_field(*f) for f in ((2, 2), (5, 1), (7, 1), (3, 2),
                                       (13, 1))]
    decks = 0
    while decks < cases:
        F = fields[decks % len(fields)]
        mu, tau = (_random_projectivity(rng, F) for _ in range(2))
        h = compose(compose(_as_map(mu), rng.choice(_galois_maps(F))),
                    _as_map(tau))
        try:
            G = deck_group(h)
        except DegenerateFibers:
            continue
        maps = list(G.generators)
        rng.shuffle(maps)
        groups += [G, verify_deck_group(h, maps)]
        decks += 1
    for G in groups:
        _check_build_order(G, table_rng)


def projective_orbit_degree(cases=500):
    """Orbit divisor degree always equals |G|."""
    rng = random.Random(302)
    groups = _assorted_groups(rng, cases)
    for i, G in enumerate(groups):
        ctx = G.ctx
        pt = point_p1(ctx, ctx.element(rng.randrange(ctx.order))) \
            if i % 5 else point_p1(ctx, infinity=True)
        div = orbit(G, pt)
        assert div.degree() == len(G)


def projective_direct_iff_commuting(cases=500):
    """classification = direct iff all cross pairs commute and the
    intersection is trivial (when the product set fills the closure)."""
    rng = random.Random(303)
    done = 0
    while done < cases:
        G1, G2 = _assorted_groups(rng, 2)
        if G1.ctx.p != G2.ctx.p:
            continue
        try:
            pr = product_structure(G1, G2, cap=4096)
        except GaloisPointError:
            continue
        ctx = common_field(G1.ctx, G2.ctx)
        H1, H2 = G1.lift_to(ctx), G2.lift_to(ctx)
        commute = all(a * b == b * a for a in H1.elements for b in H2.elements)
        trivial_meet = len(set(H1.elements) & set(H2.elements)) == 1
        assert (pr.classification == "direct") == (commute and trivial_meet
                                                   and pr.product_set_equals_joint)
        done += 1


def projective_identify_conjugation_stable(cases=500):
    """identify_group tags are invariant under conjugation."""
    rng = random.Random(304)
    groups = _assorted_groups(rng, cases)
    for G in groups:
        ctx = G.ctx
        while True:
            a, b, c, d = (rng.randrange(ctx.order) for _ in range(4))
            try:
                h = Projectivity(ctx, [[a, b], [c, d]])
                break
            except ValueError:
                continue
        tag_h, tag = identify_group(G.conjugate(h)).tag, identify_group(G).tag
        assert tag_h == tag


# (p, k, k2): lifts from F_{p^k} to F_{p^k2}, binary, odd and prime
LIFT_PAIRS = [(2, 1, 2), (2, 2, 4), (3, 1, 2), (5, 2, 4), (13, 1, 2)]


def projective_lift_matches_constructor(cases=500):
    """Projectivity.lift_to, which writes the lifted reps without
    normalizing them or checking the determinant, equals the constructor
    on the lifted rows, in PGL(2) and PGL(3)."""
    rng = random.Random(305)
    for i in range(cases):
        p, k, k2 = LIFT_PAIRS[i % len(LIFT_PAIRS)]
        ctx, ctx2 = make_field(p, k), make_field(p, k2)
        g = _random_projectivity(rng, ctx, 2 + i % 2)
        rows = [[lift(FqElement(ctx, c), ctx2) for c in row] for row in g.mat]
        lifted = g.lift_to(ctx2)
        assert lifted == Projectivity(ctx2, rows), (g, ctx2)
        assert (lifted.ctx, lifted.n) == (ctx2, g.n)
        assert lifted.lift_to(ctx2) is lifted


def _to_standard(pts):
    """The projectivity of P^1 sending (1:0), (0:1) and (1:1) to three
    distinct points of one field, in that order."""
    ctx = pts[0].ctx
    (p0, p1, p2) = pts
    # solve lam*p0 + mu*p1 = p2
    a, b = p0.coords, p1.coords
    c = p2.coords
    mul, sub = ctx.mul_t, ctx.sub_t
    det = sub(mul(a[0], b[1]), mul(a[1], b[0]))
    if not det:
        raise ValueError("anchor points are not distinct")
    inv = ctx.inv_t(det)
    lam = ctx.mul_t(inv, sub(mul(c[0], b[1]), mul(c[1], b[0])))
    mu = ctx.mul_t(inv, sub(mul(a[0], c[1]), mul(a[1], c[0])))
    cols = [[FqElement(ctx, ctx.mul_t(lam, a[0])), FqElement(ctx, ctx.mul_t(mu, b[0]))],
            [FqElement(ctx, ctx.mul_t(lam, a[1])), FqElement(ctx, ctx.mul_t(mu, b[1]))]]
    return Projectivity(ctx, cols)


def mobius_three_points(src, dst):
    """The unique projectivity of P^1 sending three distinct points to
    three distinct points, src[i] -> dst[i]."""
    ctx = src[0].ctx
    for p in list(src) + list(dst):
        ctx = common_field(ctx, p.ctx)
    src = [p.lift_to(ctx) for p in src]
    dst = [p.lift_to(ctx) for p in dst]
    m_src = _to_standard(src)
    m_dst = _to_standard(dst)
    return m_dst * m_src.inverse()


# ---------------------------------------------------------------------------
# galois: the dense exact tests of the scans against sparse oracles
# ---------------------------------------------------------------------------

# One field of every shape: prime, log-tabled, 2^k above 4096 elements
# (bit polynomials) and odd p^k above 4096 elements (packed digit slots).
_SHAPE_FIELDS = ((13, 1), (3, 1), (2, 1), (5, 2), (2, 4), (2, 13), (3, 8),
                 (7, 5))


def _semi_invariance_check(a_parts, formP, beta, lam, delta, ctx) -> bool:
    """Sparse oracle of ``galois._collineation_fixes``: the exact test
    form' o sigma = c * form' for the central shape
    (x : beta x + lam y + delta z : z), composing the whole form through
    its y-coefficient split."""
    L = Polynomial(ctx, 3, {k: v for k, v in
                            (((1, 0, 0), beta.rep), ((0, 1, 0), lam.rep),
                             ((0, 0, 1), delta.rep)) if v})
    if L.is_zero:
        return False
    acc = Polynomial.zero(ctx, 3)
    power = Polynomial.const(ctx, 3, 1)
    for i, a in enumerate(a_parts):
        if i > 0:
            power = power * L
        if not a.is_zero:
            acc = acc + power * a
    lead_exp, lead_c = formP.leading_term()
    c = acc.coefficient(lead_exp) / lead_c
    if not c:
        return False
    return acc == formP * c


def _symmetric_form(rng, ctx, wild):
    """A form F0 in x, y, z with its y-part invariant under known maps
    y -> zeta y + c0 z, and the list of (zeta, c0).  Kummer forms
    y^n z^(d-n) + g(x, z) take the n-th roots of unity; wild forms, with
    p | n, take A(y)^e z^(d-n) + g(x, z) for A = y^p - y z^(p-1), and the
    translations c0 in F_p.  The inner shape d = n + 1 and the outer one
    d = n are both drawn."""
    p = ctx.p
    X, Y, Z = (Polynomial.variable(ctx, 3, i) for i in range(3))
    if wild:
        e = rng.choice((1, 2) if p < 5 else (1,))
        n = p * e
        top = (Y ** p - Y * Z ** (p - 1)) ** e
        maps = [(ctx.one, ctx.element(c0)) for c0 in range(p)]
    else:
        n = rng.choice([m for m in (2, 3, 4, 5) if m % p])
        top = Y ** n
        zeta = nth_root_of_unity(ctx, n) or ctx.one
        maps = [(zeta ** i, ctx.zero) for i in range(n)]
    d = n + rng.randrange(2)
    g = Polynomial.zero(ctx, 3)
    for i in range(d + 1):
        g = g + X ** i * Z ** (d - i) * ctx.element(rng.randrange(ctx.order))
    return top * Z ** (d - n) + g, maps


def galois_collineation_test_matches_sparse(cases=300):
    """``galois._collineation_fixes`` on the dense y-rows of the chart
    z = 1 agrees with the sparse oracle on every field shape, for Kummer
    and wild (p | n) forms moved by a random central collineation tau:
    verified maps tau^-1 sigma0 tau, their perturbations, random triples
    and triples with lam = 0."""
    rng = random.Random(911)
    done = accepted = 0
    while done < cases:
        ctx = make_field(*_SHAPE_FIELDS[done // 8 % len(_SHAPE_FIELDS)])
        F0, maps = _symmetric_form(rng, ctx, wild=rng.random() < 0.5)
        X, Y, Z = (Polynomial.variable(ctx, 3, i) for i in range(3))

        def draw(nonzero=False):
            return ctx.element(rng.randrange(1 if nonzero else 0, ctx.order))

        lam_t, beta_t, delta_t = draw(True), draw(), draw()
        F = F0.compose([X, Y * lam_t + X * beta_t + Z * delta_t, Z])
        chart = F.compose([Polynomial.variable(ctx, 2, 0),
                           Polynomial.variable(ctx, 2, 1),
                           Polynomial.const(ctx, 2, 1)])
        rows = _dense_rows(chart, ctx)
        a_parts = _split_by_var(F, 1)
        cands = []
        for zeta, c0 in maps[:4]:
            beta = (zeta - 1) * beta_t / lam_t
            delta = ((zeta - 1) * delta_t + c0) / lam_t
            cands.append((zeta, beta, delta, True))
            cands.append((zeta, beta, delta + draw(True), False))
        cands += [(draw(), draw(), draw(), False) for _ in range(3)]
        cands.append((ctx.zero, draw(), draw(), False))
        for lam, beta, delta, verified in cands:
            dense = _collineation_fixes(ctx, rows, lam.rep, beta.rep,
                                        delta.rep)
            sparse = _semi_invariance_check(a_parts, F, beta, lam, delta, ctx)
            assert dense == sparse, (ctx, F, lam, beta, delta)
            assert sparse or not verified
            accepted += dense
            done += 1
    assert accepted >= cases // 8


# The field shapes of the tame-order oracle: prime, log-tabled, 2^k and
# odd p^k, with bit polynomials and packed digit slots above 4096 elements.
_TAME_FIELDS = ((13, 1), (3, 1), (5, 2), (2, 4), (2, 13), (3, 8), (7, 5))


def _random_projectivity(rng, ctx, n=2):
    while True:
        try:
            return Projectivity(ctx, [[ctx.element(rng.randrange(ctx.order))
                                       for _ in range(n)] for _ in range(n)])
        except ValueError:
            continue


def _tame_center(rng, ctx, wild=False):
    """A fiber at a center P with a known symmetric shape, moved by a random
    projectivity A: the form F0(A v) of ``_symmetric_form`` at
    P = A^-1 (0:1:0), inner or outer, with F0 perturbed half the time by
    one or two monomials x^a y^b z^c, b < n, that keep the fiber degree n
    and the center smooth.  None when P is singular."""
    F0, _ = _symmetric_form(rng, ctx, wild)
    d, n = F0.degree(), F0.degree_in(1)
    X, Y, Z = (Polynomial.variable(ctx, 3, i) for i in range(3))
    if rng.random() < 0.5:
        for _ in range(rng.randrange(1, 3)):
            b = rng.randrange(n)
            a = rng.randrange(d - b + 1)
            F0 = F0 + X ** a * Y ** b * Z ** (d - a - b) * \
                ctx.element(rng.randrange(1, ctx.order))
    A = _random_projectivity(rng, ctx, 3)
    F = F0.compose([X * FqElement(ctx, a) + Y * FqElement(ctx, b)
                    + Z * FqElement(ctx, c) for a, b, c in A.mat])
    center = A.inverse().apply(ProjPoint(ctx, [0, 1, 0]))
    try:
        return fiber_polynomial(PlaneCurve(F), center)
    except CenterSingular:
        return None


def sparse_fiber(C: PlaneCurve, center: ProjPoint) -> tuple:
    """The projection fiber built on sparse polynomials, as
    ``fiber_polynomial`` did before it read the rows off dense arrays:
    (rows, point class, normalizer, denormalizer).  The center is
    classified by ``contains`` and ``gradient_at`` (CenterSingular on a
    singular point), completed to the basis (e_i | P | e_j) by the first
    (i, j) whose matrix the checked constructor accepts, inverted by
    cofactors, and the form is composed with the inverse's rows."""
    ctx = common_field(C.ctx, center.ctx)
    curve = C.lift_to(ctx)
    pt = center.lift_to(ctx)
    inner = curve.contains(pt)
    if inner and not any(curve.gradient_at(pt)):
        raise CenterSingular(f"{center!r} lies in Sing(C)")
    basis = [[ctx.element(int(i == r)) for r in range(3)] for i in range(3)]
    for i, j in itertools.permutations(range(3), 2):
        cols = (basis[i], pt.elements(), basis[j])
        try:
            g_inv = Projectivity(ctx, [[col[r] for col in cols]
                                       for r in range(3)])
        except ValueError:
            continue
        break
    t, s = Polynomial.variable(ctx, 2, 0), Polynomial.variable(ctx, 2, 1)
    fib = curve.form.compose([
        t * FqElement(ctx, a) + s * FqElement(ctx, b) + FqElement(ctx, c)
        for a, b, c in g_inv.mat])
    assert fib.degree_in(1) == curve.degree - inner, fib
    return (_dense_rows(fib, ctx), "inner" if inner else "outer",
            g_inv.inverse(), g_inv)


# Fields of the fiber oracle: 2^1, 2^2, 2^3, 3^1, 3^2, 5^1 and 13^1.
_FIBER_FIELDS = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (13, 1))


def _random_form(rng, ctx, d, keep=lambda exp: True):
    """A nonzero random ternary form of degree d over its monomials that
    ``keep`` accepts, each present with probability one half."""
    monomials = [(a, b, d - a - b) for a in range(d + 1)
                 for b in range(d + 1 - a) if keep((a, b, d - a - b))]
    while True:
        data = {e: rng.randrange(1, ctx.order) for e in monomials
                if rng.random() < 0.5}
        if data:
            return Polynomial.from_terms(ctx, 3, data)


def _random_point(rng, ctx, kind):
    """A point of P^2 over ctx: affine (z = 1), at infinity (z = 0, y = 1)
    or (1:0:0)."""
    def draw():
        return ctx.element(rng.randrange(ctx.order))
    if kind == "affine":
        return ProjPoint(ctx, [draw(), draw(), ctx.one])
    if kind == "infinity":
        return ProjPoint(ctx, [draw(), ctx.one, ctx.zero])
    return ProjPoint(ctx, [ctx.one, ctx.zero, ctx.zero])


def galois_fiber_matches_sparse(cases=300):
    """``fiber_polynomial`` agrees with ``sparse_fiber`` on random forms of
    degree 2 to 6 over every field of ``_FIBER_FIELDS``: equal rows, point
    class, normalizer and denormalizer, and CenterSingular on both sides or
    neither.  Centers run over affine points, points at infinity and
    (1:0:0) (each (i, j) branch of the center move), points of the curve,
    singular points (the form moved so that it has order 2 at the center)
    and points over the quadratic extension of the curve's field."""
    rng = random.Random(2203)
    seen = set()
    for case in range(cases):
        ctx = make_field(*_FIBER_FIELDS[case % len(_FIBER_FIELDS)])
        d = 2 + case // len(_FIBER_FIELDS) % 5
        kind = ("affine", "infinity", "origin", "on", "singular",
                "extension")[case // 35 % 6]
        where = rng.choice(("affine", "infinity", "origin"))
        if kind == "singular":
            # F0 has no monomial z^d, x z^(d-1), y z^(d-1): order >= 2 at
            # (0:0:1); A^-1 sends (0:0:1) to the center
            center = _random_point(rng, ctx, where)
            F0 = _random_form(rng, ctx, d, lambda e: e[2] < d - 1)
            other = [ProjPoint(ctx, [int(i == r) for r in range(3)])
                     for i in range(3)]
            A_inv = next(
                m for u, v in itertools.combinations(other, 2)
                for m in [_try_projectivity(ctx, [
                    [u.elements()[r], v.elements()[r], center.elements()[r]]
                    for r in range(3)])] if m is not None)
            A = A_inv.inverse()
            X, Y, Z = (Polynomial.variable(ctx, 3, i) for i in range(3))
            form = F0.compose([X * FqElement(ctx, a) + Y * FqElement(ctx, b)
                               + Z * FqElement(ctx, c) for a, b, c in A.mat])
        else:
            form = _random_form(rng, ctx, d)
        C = PlaneCurve(form)
        if kind in ("affine", "infinity", "origin"):
            center = _random_point(rng, ctx, kind)
        elif kind == "on":
            on = [pt for pt in _plane_points(ctx) if C.contains(pt)]
            center = rng.choice(on) if on else _random_point(rng, ctx, where)
        elif kind == "extension":
            ectx = make_field(ctx.p, 2 * ctx.k)
            center = _random_point(rng, ectx, where)
        try:
            want = sparse_fiber(C, center)
        except CenterSingular:
            want = None
        try:
            fib = fiber_polynomial(C, center)
        except CenterSingular:
            assert want is None, (C, center)
            seen.add("singular")
            continue
        assert want is not None, (C, center)
        rows, point_class, g, g_inv = want
        assert fib.rows == rows, (C, center)
        assert fib.point_class == point_class, (C, center)
        assert fib.normalizer == g and fib.denormalizer == g_inv, (C, center)
        assert fib.poly.ctx == fib.curve.ctx
        coords = fib.center.coords
        seen |= {point_class, (2 if coords[2] else 1 if coords[1] else 0),
                 "extension" if fib.center.ctx != C.ctx else "base"}
    assert seen >= {"singular", "inner", "outer", 0, 1, 2, "extension",
                    "base"}, seen


def reference_screen(fib, trials=64):
    """The Monte Carlo screen deciding every trial afresh: a new
    ``random.Random`` per trial, no memo of repeated draws, and factor
    degrees by distinct-degree factorization alone.  It shares only the
    specializer with ``galois.monte_carlo_galois``, whose reports it
    checks."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, base = fib.degree, fib.curve.ctx
    if n < 1:
        raise ZeroInput("degenerate curve for the Monte Carlo screen")
    if n == 1:
        return GaloisReport(fib.center, fib.point_class, n, "probably_galois",
                            method="monte_carlo", trials=trials,
                            notes=["degree-1 projection is trivially Galois"])
    specialize = _squarefree_specializer(base, fib.rows, n)
    usable = 0
    for trial in range(trials):
        j = (trial % 3) + 1
        ectx = base if j == 1 else make_field(base.p, base.k * j)
        rng = random.Random(f"mc:0:{trial}")
        t0 = FqElement(ectx, ectx.decode(rng.randrange(ectx.order)))
        spec = specialize(t0)
        if spec is None:
            continue
        usable += 1
        parts = _distinct_degree(ectx, _u_monic(ectx, spec))
        degrees = sorted(d for g, d in parts for _ in range(_u_deg(g) // d))
        if len(set(degrees)) >= 2:
            witness = {"t0": t0.encoding(), "field": ectx.spec,
                       "factor_degrees": degrees}
            return GaloisReport(fib.center, fib.point_class, n,
                                "certified_not_galois", witness=witness,
                                method="monte_carlo", trials=trial + 1)
    if usable == 0:
        raise AllSpecializationsRamified(
            "every sampled specialization was ramified or degenerate")
    return GaloisReport(fib.center, fib.point_class, n, "probably_galois",
                        method="monte_carlo", trials=trials,
                        notes=[f"usable_specializations={usable}"])


# Fields of the screen suite: 4, 8, 9, 5, 13, 25, 31.
_SCREEN_FIELDS = ((2, 2), (2, 3), (3, 2), (5, 1), (13, 1), (5, 2), (31, 1))


def _screen_fiber(rng, ctx, kind):
    """A fiber for the screen suite, or None at a singular centre.  Kinds:
    a random form of degree 2 to 5 from a random centre ("random"); a
    conic from a random centre or a cubic from one of its points (a random
    centre if it has none), mostly degree-2 projections, which a screen
    never refutes ("quadratic"); and
    Y^p Z^(d-p) + G(X, Z) from (0:1:0) in characteristic p <= 5, whose
    every fiber s^p + G(t, 1) is inseparable ("inseparable")."""
    if kind == "inseparable":
        X, Y, Z = (Polynomial.variable(ctx, 3, i) for i in range(3))
        d = ctx.p + rng.randrange(2)
        G = _random_form(rng, ctx, d, lambda e: e[1] == 0)
        center = ProjPoint(ctx, [0, 1, 0])
        form = Y ** ctx.p * Z ** (d - ctx.p) + G
    elif kind == "quadratic":
        d = rng.choice((2, 3))
        form = _random_form(rng, ctx, d)
        curve = PlaneCurve(form)
        on = [pt for pt in _plane_points(ctx) if curve.contains(pt)]
        if d == 3 and on:
            center = rng.choice(on)
        else:
            center = _random_point(rng, ctx, rng.choice(
                ("affine", "infinity", "origin")))
    else:
        form = _random_form(rng, ctx, rng.randrange(2, 6))
        center = _random_point(rng, ctx, rng.choice(
            ("affine", "infinity", "origin")))
    try:
        return fiber_polynomial(PlaneCurve(form), center)
    except CenterSingular:
        return None


def galois_screen_matches_reference(cases=200):
    """``monte_carlo_galois`` (draws cached, repeated draws decided once,
    degree-2 fibers never factored) gives the report of
    ``reference_screen`` on random fibers over every field of
    ``_SCREEN_FIELDS``, with AllSpecializationsRamified on both sides or
    neither, across trial counts 1 to 64.  The fibers
    take in refuted centres, ``probably_galois`` centres and centres
    whose every sampled specialization is ramified."""
    rng = random.Random(2301)
    seen = set()
    done = 0
    while done < cases:
        ctx = make_field(*_SCREEN_FIELDS[done % len(_SCREEN_FIELDS)])
        kinds = ("random", "quadratic") + (("inseparable",)
                                           if ctx.p <= 5 else ())
        fib = _screen_fiber(rng, ctx, kinds[done // 7 % len(kinds)])
        if fib is None or fib.degree < 1:
            continue
        trials = rng.choice((1, 2, 3, 5, 16, 64))
        try:
            want = reference_screen(fib, trials).to_jsonable()
        except AllSpecializationsRamified:
            want = "ramified"
        try:
            got = monte_carlo_galois(fib, trials).to_jsonable()
        except AllSpecializationsRamified:
            got = "ramified"
        assert got == want, (fib.curve, fib.center, trials)
        seen.add(want if want == "ramified" else want["verdict"])
        done += 1
    assert seen == {"ramified", "probably_galois", "certified_not_galois"}, seen


def _try_projectivity(ctx, mat):
    try:
        return Projectivity(ctx, mat)
    except ValueError:
        return None


def _plane_points(ctx):
    """Every point of P^2 over ctx."""
    els = list(ctx.elements())
    yield from (ProjPoint(ctx, [x, y, ctx.one]) for x in els for y in els)
    yield from (ProjPoint(ctx, [x, ctx.one, ctx.zero]) for x in els)
    yield ProjPoint(ctx, [ctx.one, ctx.zero, ctx.zero])


def _fiber_permutation_scan(fpoly: Polynomial, search) -> list[Projectivity]:
    """Enumerate central collineations via their affine action on two
    fibers, on reps of the working field: s -> lam s + mu must permute
    each fiber's roots, and mu = beta t + delta is read off the two.
    ``search`` is what ``galois._fiber_search`` returns."""
    wctx, ((tv1, r1), (tv2, r2)) = search
    set1, set2 = set(r1), set(r2)
    rows = _dense_rows(fpoly, wctx)
    add, sub, mul = wctx.add_t, wctx.sub_t, wctx.mul_t
    s1, s2, s3 = r1[0], r1[1], r2[0]
    ds_inv = wctx.inv_t(sub(s1, s2))
    dt_inv = wctx.inv_t(sub(tv1, tv2))
    out = {}
    for b1 in r1:
        for b2 in r1:
            if b1 == b2:
                continue
            lam = mul(sub(b1, b2), ds_inv)
            mu1 = sub(b1, mul(lam, s1))
            # quick filter on fiber 1
            if any(add(mul(lam, r), mu1) not in set1 for r in r1):
                continue
            lam_r2 = [mul(lam, r) for r in r2]
            for b3 in r2:
                mu2 = sub(b3, mul(lam, s3))
                if any(add(lr, mu2) not in set2 for lr in lam_r2):
                    continue
                beta = mul(sub(mu1, mu2), dt_inv)
                delta = sub(mu1, mul(beta, tv1))
                key = (lam, beta, delta)
                if key in out:
                    continue
                if _collineation_fixes(wctx, rows, lam, beta, delta):
                    out[key] = _central(wctx, lam, beta, delta)
    return list(out.values())


# ---------------------------------------------------------------------------
# Collineation oracle: the exhaustive scan over the base field
# ---------------------------------------------------------------------------

def _brute_scan(fpoly: Polynomial, ctx: FieldCtx, n: int) -> list[Projectivity]:
    """Exhaustive scan of central collineations over the base field."""
    rows = _dense_rows(fpoly, ctx)
    # cheap point filter: images of a few curve points must stay on the curve
    probe = _probe_points(rows, ctx)
    add, mul = ctx.add_t, ctx.mul_t
    out = []
    for lam_code in range(1, ctx.order):
        lam = ctx.decode(lam_code)
        for b_code in range(ctx.order):
            beta = ctx.decode(b_code)
            for d_code in range(ctx.order):
                delta = ctx.decode(d_code)
                if any(_u_eval(ctx, spec, add(add(mul(beta, px), mul(lam, py)),
                                              delta))
                       for px, py, spec in probe):
                    continue
                if _collineation_fixes(ctx, rows, lam, beta, delta):
                    out.append(_central(ctx, lam, beta, delta))
    return out


def _probe_points(rows: list, ctx: FieldCtx, want: int = 3) -> list:
    """A few affine points (x0, y0) on the moved curve, each with the
    dense fiber F(x0, y) it lies on, for cheap filtering."""
    out = []
    for code in range(ctx.order):
        x0 = ctx.decode(code)
        spec = _u_trim([_u_eval(ctx, row, x0) for row in rows])
        if _u_deg(spec) < 1:
            continue
        for root_code in range(ctx.order):
            y0 = ctx.decode(root_code)
            if not _u_eval(ctx, spec, y0):
                out.append((x0, y0, spec))
                break
        if len(out) >= want:
            break
    return out


def _central(ctx: FieldCtx, lam: int, beta: int, delta: int) -> Projectivity:
    """The collineation (x : beta x + lam y + delta z : z), lam != 0."""
    return Projectivity._invertible(ctx, 3, [1, 0, 0, beta, lam, delta, 0, 0, 1])


def _scanned_group(fib, found: list) -> FiniteProjectivityGroup:
    """The group of verified maps in the moved coordinates, assembled with
    no closed form: each conjugated back by matrix products, closed by
    ``generate_group``, descended to the smallest field that holds it, with
    the center's fixity checked.  On an irreducible curve the maps act
    faithfully on k(C) over k(t), so a closure of more than n proves the
    curve reducible: the InputError of ``central_collineation_group``."""
    wctx = found[0].ctx     # the identity is always found
    g_fwd, g_back = (g.lift_to(wctx) for g in (fib.normalizer,
                                               fib.denormalizer))
    elements = [g_back * sigma * g_fwd for sigma in found]
    try:
        group = generate_group(elements, cap=fib.degree)
    except ClosureCapExceeded:
        raise InputError(
            f"the curve is reducible: {len(found)} collineations with center "
            f"{fib.center.spec_str()} fix every line through it and generate "
            f"more than the projection degree {fib.degree}") from None
    if len(group) != len(elements):
        raise ZeroInput("scan returned a non-closed set")
    group = group.descend_to(fib.curve.ctx)
    c = fib.center.lift_to(group.ctx)
    if any(e.apply(c) != c for e in group.elements):
        raise SoundnessError("a collineation moves its center")
    return group


def brute_collineation_group(fib):
    """The central collineation group of ``fib`` over its base field, by
    the exhaustive scan of every (beta, lam, delta), conjugated, closed
    and descended by matrix products (``_scanned_group``), sharing no group
    assembly with ``galois._closed_form_group``.  Costs q^3 exact tests:
    meant for fields of at most 64 elements."""
    return _scanned_group(fib, _brute_scan(fib.poly, fib.curve.ctx,
                                           fib.degree))


def galois_tame_order_matches_scan(cases=40):
    """``galois._tame_order`` is the order of the group that
    ``central_collineation_group`` builds in closed form on every tame
    center, and equals the order of the exact collineation scan
    (``_fiber_search`` and ``_fiber_permutation_scan``) on every tame
    center where the seed-free fiber walk finds two fibers: Kummer forms
    and perturbed ones, inner and outer, moved by random projectivities,
    on every field shape.  The fibers' roots are zeros of the fiber
    polynomial lifted straight into the working field, so the scan misses
    no map.  Over fields of at most 16 elements the brute scan finds the
    base-field part, gcd(m, q - 1) maps.  At wild centers (p | n) the
    closed form is None."""
    rng = random.Random(914)
    table_rng = random.Random(915)
    done = trivial = wild = 0
    orders = set()
    while done < cases:
        ctx = make_field(*_TAME_FIELDS[done % len(_TAME_FIELDS)])
        if rng.random() < 0.25:
            fib = _tame_center(rng, ctx, wild=True)
            if fib is not None:
                tame = _tame_order(fib, 12)
                assert fib.degree % ctx.p == 0
                assert tame is None
                wild += 1
            continue
        fib = _tame_center(rng, ctx)
        if fib is None:
            continue
        try:
            m = _tame_order(fib, 12)[3]
        except InputError:      # F = a_n (s + c)^n: every fiber is a power
            continue
        group = central_collineation_group(fib)
        assert len(group) == m, (ctx, fib.poly, m)
        # the closed table is exact, and nothing descends
        _check_table(group, table_rng)
        assert group.descend_to(fib.curve.ctx) is group
        try:
            search = _fiber_search(fib.poly, fib.degree, 4, 2)
        except DegenerateFibers:
            continue
        scan = len(_fiber_permutation_scan(fib.poly, search))
        assert m == scan, (ctx, fib.poly, m, scan)
        if ctx.order <= 16:
            brute = brute_collineation_group(fib)
            assert len(brute) == math.gcd(m, ctx.order - 1)
        trivial += m == 1
        orders.add(m)
        done += 1
    assert wild and trivial and len(orders) >= 3


# Shapes (p, k, e, m, K) of the wild oracle over F_(p^k): V = F_(p^e), so
# that lam V = V for lam in mu_m, and n = p^e K with m | K and p | n
_WILD_SHAPES = ((2, 1, 1, 1, 1), (2, 1, 1, 1, 3), (2, 1, 0, 1, 2),
                (2, 2, 0, 3, 6), (2, 2, 1, 1, 2), (2, 2, 2, 1, 1),
                (2, 2, 2, 3, 3), (3, 1, 1, 2, 2), (3, 1, 0, 2, 6),
                (3, 2, 1, 2, 2), (3, 2, 0, 2, 6))


def _wild_center(rng, shape):
    """A fiber at a wild center P = A^-1 (0:1:0) of F0(A v), A a random
    projectivity.  F0 = sum_k c_k(x, z) U^k over k = K, K - m, ..., 0, with
    U = y^(p^e) - y z^(p^e - 1) (U = y for e = 0), c_K = z^(d - n), d = n
    or n + 1, and c_0 != 0: the translations y -> y + v z, v in F_(p^e),
    and the scalings y -> lam y, lam^m = 1, preserve it.  Half the time one
    or two monomials x^a y^b z^c, b < n, perturb it.  A fifth of the time,
    when p^e > 2, F0 = U(y + b x, z) instead: p^e lines through one point,
    with the p^e (p^e - 1) maps y + b x -> lam (y + b x) + v z, lam in
    F_(p^e)*, more than n = p^e.  The x^(d-1) z term of c_0 is not zero,
    so that F0 is no p-th power.  None when P is singular."""
    p, k, e, m, K = shape
    ctx = make_field(p, k)
    X, Y, Z = (Polynomial.variable(ctx, 3, i) for i in range(3))
    pe = p ** e

    def U(y):
        return y if e == 0 else y ** pe - y * Z ** (pe - 1)

    n = pe * K
    if pe > 2 and rng.random() < 0.2:
        F0 = U(Y + X * ctx.element(rng.randrange(1, ctx.order)))
        n = d = pe
    else:
        d = n + rng.randrange(2)
        F0 = U(Y) ** K * Z ** (d - n)
        for j in range(K - m, -1, -m):
            deg = d - pe * j
            c = X ** deg * ctx.element(rng.randrange(1, ctx.order))
            for i in range(deg):
                c = c + X ** i * Z ** (deg - i) * ctx.element(
                    rng.randrange(j == 0 and i == deg - 1, ctx.order))
            F0 = F0 + c * U(Y) ** j
        if rng.random() < 0.5:
            for _ in range(rng.randrange(1, 3)):
                b = rng.randrange(n)
                a = rng.randrange(d - b + 1)
                F0 = F0 + X ** a * Y ** b * Z ** (d - a - b) * \
                    ctx.element(rng.randrange(1, ctx.order))
    A = _random_projectivity(rng, ctx, 3)
    F = F0.compose([X * FqElement(ctx, a) + Y * FqElement(ctx, b)
                    + Z * FqElement(ctx, c) for a, b, c in A.mat])
    center = A.inverse().apply(ProjPoint(ctx, [0, 1, 0]))
    try:
        return fiber_polynomial(PlaneCurve(F), center)
    except CenterSingular:
        return None


def galois_wild_group_matches_brute(cases=60):
    """At wild centers (p | n) over F_2, F_4, F_3 and F_9, the closed-form
    collineation group of ``central_collineation_group`` equals, as a set,
    the exhaustive base-field scan (``brute_collineation_group``) whenever
    it lives over the base field, and contains it otherwise; or both raise
    the reducibility InputError.  Every closed-form group has an exact
    table and no smaller field: it was descended to F_q(zeta), and a
    homology's eigenvalue ratio zeta lies in every field it is defined
    over.  The drawn groups T x| C cover p = 2 and 3, |T| = p^e for e = 0,
    1 and 2, |C| = 1 and > 1, and reducible curves."""
    rng = random.Random(920)
    table_rng = random.Random(921)
    seen, reducible, done = set(), 0, 0
    while done < cases:
        fib = _wild_center(rng, _WILD_SHAPES[done % len(_WILD_SHAPES)])
        if fib is None:
            continue
        base = fib.poly.ctx
        assert fib.degree % base.p == 0
        try:
            group = central_collineation_group(fib)
        except InputError as exc:
            assert "reducible" in str(exc)
            try:
                brute_collineation_group(fib)
            except InputError as brute_exc:
                assert "reducible" in str(brute_exc)
            else:
                raise AssertionError(("brute scan finds no more than n", fib.poly))
            reducible += 1
            done += 1
            continue
        _check_table(group, table_rng)
        assert group.descend_to(base) is group
        brute = brute_collineation_group(fib)
        got = {tuple(g.row_major()) for g in group.elements}
        want = {tuple(g.row_major()) for g in brute.elements}
        if group.ctx == base:
            assert got == want, (base, fib.poly, len(got), len(want))
            order, e = len(group), 0
            while order % base.p == 0:
                order //= base.p
                e += 1
            seen.add((base.p, e, order > 1))
        else:
            assert len(group) % len(brute) == 0, (base, fib.poly)
        done += 1
    assert reducible and {p for p, _, _ in seen} == {2, 3}, seen
    assert {e for _, e, _ in seen} >= {0, 1, 2}, seen
    assert {big for _, _, big in seen} == {False, True}, seen


# Fields and subspace dimensions e of the split-additive suite: curves of
# degree p^e or p^e + 1 over F_2 to F_9
_ADDITIVE_CASES = ((2, 1, 1), (2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2),
                   (3, 1, 1), (3, 2, 1), (5, 1, 1), (7, 1, 1))


def galois_split_additive_never_degenerate(cases=60):
    """At (0:1:0) of A(y) + B(x), A = prod_{w in W} (y - w) for a random
    e-dimensional F_p-subspace W of the field and B random of degree 1 to
    p^e + 1, the translations y -> y + w give p^e = n collineations, so
    ``central_collineation_group`` either certifies order n (the wild
    scan finds all of them) or proves the curve reducible (InputError,
    exit 1); it never degenerates.  Both outcomes are drawn."""
    rng = random.Random(919)
    outcomes = {"galois": 0, "reducible": 0}
    for done in range(cases):
        p, k, e = _ADDITIVE_CASES[done % len(_ADDITIVE_CASES)]
        ctx = make_field(p, k)
        x, y = (Polynomial.variable(ctx, 2, i) for i in range(2))
        while True:
            basis = [ctx.element(rng.randrange(1, ctx.order))
                     for _ in range(e)]
            W = {ctx.zero}
            for b in basis:
                W |= {w + ctx.element(c) * b for w in W for c in range(1, p)}
            if len(W) == p ** e:
                break
        A = Polynomial.const(ctx, 2, 1)
        for w in sorted(W, key=lambda w: w.rep):
            A = A * (y - w)
        deg_b = rng.randrange(1, p ** e + 2)
        B = x ** deg_b * ctx.element(rng.randrange(1, ctx.order))
        for i in range(deg_b):
            B = B + x ** i * ctx.element(rng.randrange(ctx.order))
        fib = fiber_polynomial(PlaneCurve((A + B).homogenize()),
                               ProjPoint(ctx, [0, 1, 0]))
        assert fib.degree == p ** e
        try:
            group = central_collineation_group(fib)
        except InputError as exc:
            assert "reducible" in str(exc)
            outcomes["reducible"] += 1
            continue
        assert len(group) == fib.degree, (ctx, A + B)
        outcomes["galois"] += 1
    assert all(outcomes.values()), outcomes


def ratfunc_invariant_matches_compose(cases=300):
    """``RationalMap1D.invariant_under`` (the dense identity of
    ``ratfunc._mobius_fixes``) agrees with ``compose_mobius`` equality on
    every field shape, for h = mu o h0 o tau with h0 = t^n (deck maps
    t -> zeta t) or a wild h0 = (t^p - t)^e (translations by F_p), and
    candidates tau^-1 sigma0 tau, their perturbations and random maps."""
    rng = random.Random(912)
    done = accepted = 0
    while done < cases:
        ctx = make_field(*_SHAPE_FIELDS[done // 8 % len(_SHAPE_FIELDS)])
        p, t = ctx.p, RationalMap1D.variable(ctx)
        if rng.random() < 0.5:
            h0 = (t ** p - t) ** rng.choice((1, 2) if p < 5 else (1,))
            deck = [Projectivity(ctx, [[1, c0], [0, 1]]) for c0 in range(p)]
        else:
            n = rng.choice([m for m in (2, 3, 4, 5) if m % p])
            h0 = t ** n
            zeta = nth_root_of_unity(ctx, n) or ctx.one
            deck = [Projectivity(ctx, [[zeta ** i, 0], [0, 1]])
                    for i in range(n)]
        tau, mu = (_random_projectivity(rng, ctx) for _ in range(2))
        (a, b), (c, d) = (tuple(FqElement(ctx, x) for x in row)
                          for row in mu.mat)
        h1 = compose_mobius(h0, tau)
        h = (h1 * a + b) / (h1 * c + d)
        cands = [(tau.inverse() * s * tau, True) for s in deck[:4]]
        cands += [(s * _random_projectivity(rng, ctx), False)
                  for s, _ in cands]
        cands += [(_random_projectivity(rng, ctx), False) for _ in range(2)]
        for sigma, verified in cands:
            dense = h.invariant_under(sigma)
            oracle = compose_mobius(h, sigma) == h
            assert dense == oracle, (ctx, h, sigma)
            assert oracle or not verified
            accepted += dense
            done += 1
    assert accepted >= cases // 8


def galois_mobius_through_matches_oracle(cases=300):
    """The deck scan's raw candidate ``galois._mobius_through`` is, after
    normalization, the matrix of the three-point map of
    ``mobius_three_points`` (through ``_to_standard``), on every field
    shape."""
    rng = random.Random(913)
    for case in range(cases):
        ctx = make_field(*_SHAPE_FIELDS[case % len(_SHAPE_FIELDS)])
        if ctx.order < 3:
            ctx = make_field(ctx.p, 2)
        src = rng.sample(range(ctx.order), 3)
        dst = rng.sample(range(ctx.order), 3)
        src_el = [ctx.element(x) for x in src]
        dst_el = [ctx.element(x) for x in dst]
        m = mobius_three_points([point_p1(ctx, x) for x in src_el],
                                [point_p1(ctx, x) for x in dst_el])
        raw = _mobius_through(ctx, tuple(x.rep for x in src_el),
                              tuple(x.rep for x in dst_el))
        assert raw == tuple(c for row in m.mat for c in row)


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def _random_reduced_curve(rng, ctx, degree):
    from galoispoints.curve import curve_from_affine
    from galoispoints.errors import NotSquarefree, ZeroInput
    while True:
        data = {}
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                if rng.random() < 0.5:
                    data[(a, b)] = rng.randrange(ctx.order)
        data[(degree, 0)] = rng.randrange(1, ctx.order)
        f = Polynomial.from_terms(ctx, 2, data)
        try:
            return curve_from_affine(f)
        except (NotSquarefree, ZeroInput):
            continue


# Fields of the squarefree certificate suite: 2^1, 2^2, 3^1, 3^2, 5^1.
_SQUAREFREE_FIELDS = ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1))


def _random_bivariate(rng, ctx, degree, xstep=1, ystep=1):
    """A random nonconstant f(x, y) of total degree at most ``degree``,
    at least max(xstep, ystep), whose x- and y-exponents are multiples of
    ``xstep`` and ``ystep``."""
    degree = max(degree, xstep, ystep)
    while True:
        data = {(a, b): rng.randrange(1, ctx.order)
                for a in range(0, degree + 1, xstep)
                for b in range(0, degree + 1 - a, ystep)
                if rng.random() < 0.5}
        f = Polynomial.from_terms(ctx, 2, data)
        if f.degree() >= 1:
            return f


def curve_squarefree_certificate(cases=300):
    """``curve._squarefree_certificate`` proves no f = g^2 h with g
    nonconstant (g = g(x), g in F[x^p, y^p] or any g), over every field
    of ``_SQUAREFREE_FIELDS``, and ``curve_from_affine`` raises
    NotSquarefree naming gcd(f, f_x, f_y), as the exact test alone did.
    On random f, a third of them in F[x, y^p], every f it proves has
    gcd(f, f_x, f_y) = 1."""
    from galoispoints.curve import _squarefree_certificate, curve_from_affine
    from galoispoints.errors import NotSquarefree
    rng = random.Random(2204)
    proven = 0
    for case in range(cases):
        ctx = make_field(*_SQUAREFREE_FIELDS[case % len(_SQUAREFREE_FIELDS)])
        x = Polynomial.variable(ctx, 2, 0)
        kind = case // len(_SQUAREFREE_FIELDS) % 4
        if kind == 0:
            g = _random_bivariate(rng, ctx, 2).compose(
                [x, Polynomial.zero(ctx, 2)])
            if g.degree() < 1:
                g = x + ctx.element(rng.randrange(ctx.order))
        elif kind == 1:
            g = _random_bivariate(rng, ctx, ctx.p, ctx.p, ctx.p)
        elif kind == 2:
            g = _random_bivariate(rng, ctx, 2)
        else:
            # one in three separable in x only: f in F[x, y^p]
            f = _random_bivariate(rng, ctx, rng.randrange(2, 6), 1,
                                  rng.choice((1, 1, ctx.p)))
            if _squarefree_certificate(f):
                proven += 1
                exact = poly_gcd(poly_gcd(f, f.derivative(0)),
                                 f.derivative(1))
                assert exact.degree() == 0, f
            continue
        f = g * g * _random_bivariate(rng, ctx, 3)
        assert not _squarefree_certificate(f), (f, g)
        exact = poly_gcd(poly_gcd(f, f.derivative(0)), f.derivative(1))
        try:
            curve_from_affine(f)
        except NotSquarefree as exc:
            assert str(exc) == f"repeated factor {exact.to_text()}", (f, exc)
        else:
            raise AssertionError(("a square factor passed", f, g))
    assert proven >= cases // 8, proven


def curve_bezout_on_lines(cases=500):
    """Every line intersection divisor has degree exactly d."""
    from galoispoints.curve import line_intersection_divisor
    from galoispoints.errors import LineIsComponent
    from galoispoints.projective import ProjLine
    rng = random.Random(401)
    F13 = make_field(13)
    done = 0
    while done < cases:
        C = _random_reduced_curve(rng, F13, rng.randrange(2, 5))
        coeffs = [rng.randrange(13) for _ in range(3)]
        if not any(coeffs):
            continue
        line = ProjLine(F13, coeffs)
        try:
            div = line_intersection_divisor(C, line)
        except LineIsComponent:
            continue
        assert div.degree() == C.degree
        done += 1


def curve_singular_points_annihilate(cases=500):
    """Every reported singular point kills all three partials exactly."""
    from galoispoints.curve import singular_points
    rng = random.Random(402)
    F7 = make_field(7)
    done = 0
    while done < cases:
        C = _random_reduced_curve(rng, F7, rng.randrange(2, 5))
        sl = singular_points(C)
        for pt, m in sl.points:
            assert C.contains(pt)
            assert not any(C.gradient_at(pt))
            assert m >= 2
            done += 1
        done += 1  # curves with empty loci still count as a case


def _brute_singular_points(C, j):
    """Every point of P^2(F_(q^j)) where the form and its three partials
    vanish, by exhaustive evaluation on reps: the oracle for the
    completeness of ``singular_points``."""
    base = C.ctx
    ctx = base if j == 1 else make_field(base.p, base.k * j)
    form = C.form.lift_to(ctx)
    polys = [form] + [form.derivative(i) for i in range(3)]
    add, mul, pw = ctx.add_t, ctx.mul_t, ctx.pow_t

    def vanishes(poly, pt):
        acc = 0
        for exp, rep in poly.terms.items():
            for x, e in zip(pt, exp):
                if e:
                    rep = mul(rep, pw(x, e))
            acc = add(acc, rep)
        return not acc

    reps = [ctx.decode(code) for code in range(ctx.order)]
    pts = ([(1, y, z) for y in reps for z in reps]
           + [(0, 1, z) for z in reps] + [(0, 0, 1)])
    return ctx, {ProjPoint(ctx, [FqElement(ctx, x) for x in pt])
                 for pt in pts if all(vanishes(f, pt) for f in polys)}


def _locus_matches_brute(C, j) -> tuple:
    """``singular_points(C)``, and whether its points defined over
    F_(q^j) are exactly the brute-force singular points there, compared
    in one field that holds both (subfields of a finite field are
    unique)."""
    ctx, brute = _brute_singular_points(C, j)
    locus = singular_points(C)
    common = common_field(ctx, locus.ext)
    q = ctx.order
    small = {pt for pt in (p.lift_to(common) for p in locus.support())
             if all(common.pow_t(x, q) == x for x in pt.coords)}
    return locus, small == {pt.lift_to(common) for pt in brute}


def curve_singular_points_complete(cases=60):
    """``singular_points`` finds every singular point: on random reduced
    curves over F_2, F_3, F_4, F_5 and F_7 its points over F_(q^j),
    j = 2 for q <= 5 and 1 for q = 7, equal the brute-force locus of
    P^2(F_(q^j)).  Curves whose locus needs an extension past the cap
    are skipped; most curves have no singular point, so singular ones
    are counted too."""
    from galoispoints.errors import ExtensionCapExceeded
    rng = random.Random(404)
    fields = [make_field(*pk) for pk in ((2, 1), (3, 1), (2, 2), (5, 1),
                                          (7, 1))]
    done = singular = 0
    while done < cases:
        ctx = fields[done % len(fields)]
        C = _random_reduced_curve(rng, ctx, rng.randrange(2, 5))
        j = 2 if ctx.order <= 5 else 1
        try:
            locus, ok = _locus_matches_brute(C, j)
        except ExtensionCapExceeded:
            continue
        assert ok, (ctx, C.form.to_text())
        singular += not locus.is_empty()
        done += 1
    assert singular >= cases // 10


def curve_family_loci_complete(specs):
    """``singular_points`` on the curve of every family spec in ``specs``
    equals the brute-force locus over its field (squared for fields of at
    most 5 elements); each family's singular points lie over its field."""
    from galoispoints.families import FamilySpec, build_family
    for spec in specs:
        C, _ = build_family(FamilySpec.from_dict(spec))
        _, ok = _locus_matches_brute(C, 2 if C.ctx.order <= 5 else 1)
        assert ok, spec


def pencil_point_by_singular_locus(C: PlaneCurve) -> ProjPoint:
    """The one point of C's whole singular locus, required to have
    multiplicity d - 1: the oracle for the (d-1)-fold point that the
    family catalogue names for its pencil curves."""
    (S, mult), = C.singular_locus().points
    if mult != C.degree - 1:
        raise SoundnessError(
            f"pencil point has multiplicity {mult} != {C.degree - 1}")
    return S


def curve_tangent_multiplicity(cases=500):
    """The tangent line divisor has multiplicity >= 2 at the point."""
    from galoispoints.curve import line_intersection_divisor
    from galoispoints.errors import LineIsComponent
    rng = random.Random(403)
    F13 = make_field(13)
    done = 0
    while done < cases:
        C = _random_reduced_curve(rng, F13, rng.randrange(2, 5))
        # find a smooth rational point by scanning a few candidates
        found = None
        for _ in range(40):
            x0 = F13.element(rng.randrange(13))
            fib = C.form.partial_evaluate(0, x0).partial_evaluate(1, F13.one)
            if fib.degree() < 1:
                continue
            small = [irr for irr, _ in factor_univariate(fib) if irr.degree() <= 2]
            if not small:
                continue
            rm = splitting_roots(small[0], ext_cap=2)
            for r, _m in rm.roots:
                pt = ProjPoint(r.ctx, [lift(x0, r.ctx), r, r.ctx.one])
                if C.contains(pt) and C.is_smooth_at(pt):
                    found = pt
                    break
            if found:
                break
        if not found:
            continue
        try:
            div = line_intersection_divisor(C, tangent_line(C, found))
        except LineIsComponent:
            continue
        assert div.multiplicity(found) >= 2
        done += 1


def curve_family_smoothness(cases=1):
    """x^(d-1) + y^d + 1 is smooth for d in {4, 5} over admissible primes."""
    from galoispoints.curve import curve_from_affine, singular_points
    for d, p in ((4, 13), (4, 11), (5, 11), (5, 13)):
        ctx = make_field(p)
        x = Polynomial.variable(ctx, 2, 0)
        y = Polynomial.variable(ctx, 2, 1)
        C = curve_from_affine(x ** (d - 1) + y ** d + 1)
        locus = singular_points(C)
        assert locus.is_empty()


# ---------------------------------------------------------------------------
# Oracles that no command reaches: PGL(2) enumeration and the A4 / S3
# triple searches, composition with a Moebius map, the value at infinity,
# the multiplicative order and the tangent line
# ---------------------------------------------------------------------------

def pgl2_elements(ctx: FieldCtx) -> list[Projectivity]:
    """All of PGL(2, F_q), deduplicated and canonically ordered."""
    seen = {}
    q = ctx.order
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    ra = ctx.decode(a)
                    rb = ctx.decode(b)
                    rc = ctx.decode(c)
                    rd = ctx.decode(d)
                    det = ctx.sub_t(ctx.mul_t(ra, rd), ctx.mul_t(rb, rc))
                    if not det:
                        continue
                    g = Projectivity(ctx, [[FqElement(ctx, ra), FqElement(ctx, rb)],
                                           [FqElement(ctx, rc), FqElement(ctx, rd)]])
                    seen[g.mat] = g
    return sorted(seen.values(), key=lambda g: g.row_major())


def fixed_points_p1(g: Projectivity, ctx=None) -> list[ProjPoint]:
    """Fixed points of a PGL(2) element among the rational points of P^1."""
    ctx = ctx or g.ctx
    out = []
    h = g.lift_to(ctx)
    for code in range(ctx.order):
        pt = point_p1(ctx, FqElement(ctx, ctx.decode(code)))
        if h.apply(pt) == pt:
            out.append(pt)
    inf = point_p1(ctx, infinity=True)
    if h.apply(inf) == inf:
        out.append(inf)
    return out


def search_tetrahedral_triple(ctx: FieldCtx) -> tuple:
    """Exhaustive PGL(2, q) search for (G1 cyclic order 3, G2 Klein, P) with
    <G1 u G2> = A4 and P the G1-fixed point; first hit in canonical order."""
    from galoispoints.embedder import check_condition_b
    elements = pgl2_elements(ctx)
    ident = Projectivity.identity(ctx, 2)
    cap = ctx.order + 2
    order2 = [g for g in elements if g.order(cap=cap) == 2]
    order3 = [g for g in elements if g.order(cap=cap) == 3]
    for s in order3:
        sinv = s.inverse()
        for u in order2:
            u1 = s * u * sinv
            if u1 == u:
                continue
            u2 = s * u1 * sinv
            V = {ident, u, u1, u2}
            if len(V) != 4 or u * u1 not in V:
                continue
            G2 = generate_group([u, u1], cap=16)
            if len(G2) != 4:
                continue
            G12 = generate_group([s, u], cap=16)
            if len(G12) != 12 or identify_group(G12).tag != "a4":
                continue
            G1 = generate_group([s], cap=8)
            for P in fixed_points_p1(s):
                if check_condition_b(G1, G2, P):
                    return G1, G2, P
    raise ZeroInput(f"no tetrahedral triple found in PGL(2, {ctx.spec})")


def search_dihedral_triple(ctx: FieldCtx) -> tuple:
    """Search for (G1 = <involution>, G2 cyclic order 3, P) generating S3
    with the divisor condition; first hit in canonical order."""
    from galoispoints.embedder import check_condition_b
    elements = pgl2_elements(ctx)
    cap = ctx.order + 2
    order2 = [g for g in elements if g.order(cap=cap) == 2]
    order3 = [g for g in elements if g.order(cap=cap) == 3]
    for s in order3:
        sinv = s.inverse()
        for u in order2:
            if u * s * u.inverse() != sinv:
                continue
            G1 = generate_group([u], cap=8)
            G2 = generate_group([s], cap=8)
            for P in fixed_points_p1(u):
                if check_condition_b(G1, G2, P):
                    return G1, G2, P
    raise ZeroInput(f"no dihedral triple found in PGL(2, {ctx.spec})")


def compose_mobius(h: RationalMap1D, sigma: Projectivity) -> RationalMap1D:
    """h o sigma for sigma = (a t + b)/(c t + d) in PGL(2), by substitution
    into the homogenized numerator and denominator."""
    if sigma.n != 2:
        raise ValueError("need a PGL(2) element")
    ectx = common_field(h.ctx, sigma.ctx)
    (a, b), (c, d) = sigma.lift_to(ectx).mat
    t = Polynomial.variable(ectx, 1, 0)
    lin1 = t * FqElement(ectx, a) + FqElement(ectx, b)   # a t + b
    lin2 = t * FqElement(ectx, c) + FqElement(ectx, d)   # c t + d
    deg = h.degree()
    return RationalMap1D(h.num.homogenize(deg).compose([lin1, lin2]),
                         h.den.homogenize(deg).compose([lin1, lin2]))


def value_at_infinity(h: RationalMap1D) -> ProjPoint:
    return h.value_at_point(point_p1(h.ctx, infinity=True))


def multiplicative_order(a: FqElement) -> int:
    """The order of a nonzero field element in the unit group."""
    if not a.rep:
        raise ZeroDivisionError("order of zero is undefined")
    n = a.ctx.order - 1
    for q in _unit_group_factors(a.ctx):
        while n % q == 0 and a.ctx.pow_t(a.rep, n // q) == 1:
            n //= q
    return n


def tangent_line(C: PlaneCurve, P: ProjPoint):
    """Tangent line at a smooth point: gradient coefficients at P."""
    from galoispoints.errors import PointNotOnCurve, PointSingular
    from galoispoints.projective import ProjLine
    if not C.contains(P):
        raise PointNotOnCurve(f"{P!r} is not on the curve")
    grad = C.gradient_at(P)
    if not any(grad):
        raise PointSingular(f"{P!r} is a singular point")
    return ProjLine(grad[0].ctx, grad)


def compose(h: RationalMap1D, inner: RationalMap1D) -> RationalMap1D:
    """h o inner as rational functions."""
    ectx = common_field(h.ctx, inner.ctx)
    inn = inner.lift_to(ectx)
    deg = h.degree()
    return RationalMap1D(h.num.homogenize(deg).compose([inn.num, inn.den]),
                         h.den.homogenize(deg).compose([inn.num, inn.den]))


def linear_fraction(xmap: RationalMap1D, ymap: RationalMap1D,
                    row_num, row_den) -> RationalMap1D:
    """(a x(t) + b y(t) + c) / (d x(t) + e y(t) + f) by rational-function
    arithmetic, rows being length-3 coefficient vectors applied to
    (x, y, 1): the oracle for ``galois._projection``."""
    ctx = common_field(xmap.ctx, ymap.ctx)
    for c in list(row_num) + list(row_den):
        ctx = common_field(ctx, c.ctx)
    x = xmap.lift_to(ctx)
    y = ymap.lift_to(ctx)

    def combo(row):
        a, b, c = (lift(v, ctx) for v in row)
        acc = RationalMap1D.const(ctx, 0)
        if a:
            acc = acc + x * a
        if b:
            acc = acc + y * b
        if c:
            acc = acc + RationalMap1D.const(ctx, c)
        return acc

    return combo(row_num) / combo(row_den)


def _deck_fibers(h: RationalMap1D) -> tuple:
    """What ``_fiber_search`` returns inside ``galois.deck_group(h)``: the
    working field and the (t0, roots) fibers."""
    from galoispoints import galois
    search, seen = galois._fiber_search, []

    def recorded(*args, **kwargs):
        seen.append(search(*args, **kwargs))
        return seen[-1]

    galois._fiber_search = recorded
    try:
        galois.deck_group(h)
    finally:
        galois._fiber_search = search
    return seen[0]


def galois_deck_fibers_are_zeros(cases=60):
    """The fibers ``galois._fiber_search`` returns for the deck search of a
    random map h = N/D of degree n = 2 to 5 over a field that is not prime
    are one fiber when n >= 3 and two when n = 2, and every root is a zero
    of F(t0, s) = N(s) - t0 D(s), F lifted straight into the working
    field: fibers over F_(q^j), j > 1, or splitting in different fields
    reach it by the embedding that extends the straight lift."""
    rng = random.Random(2121)
    done = 0
    while done < cases:
        F = make_field(*rng.choice([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                    (5, 2), (7, 2)]))
        n = rng.randrange(2, 6)
        t = Polynomial.variable(F, 1, 0)
        num = t ** n + rand_univ(rng, F, n - 1)
        den = t ** rng.randrange(1, n) + rand_univ(rng, F, 0)
        if poly_gcd(num, den).degree() > 0:
            continue
        h = RationalMap1D(num, den)
        try:
            wctx, fibers = _deck_fibers(h)
        except DegenerateFibers:
            continue
        assert len(fibers) == (1 if n >= 3 else 2), (F, h)
        s = [Polynomial.variable(F, 2, 1)]
        fpoly = h.num.compose(s) - Polynomial.variable(F, 2, 0) * h.den.compose(s)
        rows = _dense_rows(fpoly, wctx)
        for t0, roots in fibers:
            spec = [_u_eval(wctx, row, t0) for row in rows]
            values = [_u_eval(wctx, spec, r) for r in roots]
            assert len(roots) == n and values == [0] * n, (F, h)
        done += 1


def _galois_maps(F: FieldCtx) -> list:
    """Maps of degree 2 to 5 over F that are Galois over the algebraic
    closure: t^n for p not dividing n (deck maps t -> zeta t, zeta^n = 1,
    over F only when n | q - 1), and the additive polynomials prod (t - v)
    over V = F_p and, in characteristic 2, V = {0, 1, g, g + 1} (deck maps
    t -> t + v, v in V)."""
    t = RationalMap1D.variable(F)
    maps = [t ** n for n in range(2, 6) if n % F.p]
    spaces = [[F.element(a) for a in range(F.p)]] if F.p <= 5 else []
    if F.p == 2 and F.k > 1:
        g = F.element(2)
        spaces.append([F.zero, F.one, g, g + F.one])
    for V in spaces:
        acc = RationalMap1D.const(F, 1)
        for v in V:
            acc = acc * (t - RationalMap1D.const(F, v))
        maps.append(acc)
    return maps


def _as_map(sigma: Projectivity) -> RationalMap1D:
    """(a t + b) / (c t + d) for sigma = [[a, b], [c, d]] in PGL(2)."""
    (a, b), (c, d) = sigma.mat
    return RationalMap1D(Polynomial.from_dense(sigma.ctx, [b, a]),
                         Polynomial.from_dense(sigma.ctx, [d, c]))


def _agrees_on_points(h: RationalMap1D, sigma: Projectivity) -> bool:
    """Whether N(sigma x) D(x) = N(x) D(sigma x) at every x of F with
    sigma x finite, h = N/D and sigma over F: a necessary condition for
    h o sigma = h."""
    F = h.ctx
    num, den = h.num.to_dense(), h.den.to_dense()
    add, mul = F.add_t, F.mul_t
    (a, b), (c, d) = sigma.mat
    for code in range(F.order):
        x = F.decode(code)
        q = add(mul(c, x), d)
        if q:
            y = mul(add(mul(a, x), b), F.inv_t(q))
            if mul(_u_eval(F, num, y), _u_eval(F, den, x)) != \
                    mul(_u_eval(F, num, x), _u_eval(F, den, y)):
                return False
    return True


def galois_deck_group_matches_brute(cases=48):
    """The maps of ``galois.deck_group(h)`` that are defined over F are
    the brute set {sigma in PGL(2, F) : h o sigma = h} (``pgl2_elements``
    and ``compose_mobius``), for random h of degree 2 to 5 over F_4, F_5,
    F_7, F_8, F_9 and F_13.  Half are Galois, h = mu o h0 o tau with h0
    from ``_galois_maps`` and mu, tau random in PGL(2, F), and their deck
    group has order deg h; the others are random N/D, whose anchor images
    mostly have no deck map."""
    rng = random.Random(2525)
    fields = [make_field(*f) for f in ((2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                       (13, 1))]
    pgl2 = {F: pgl2_elements(F) for F in fields}
    done = galois_cases = 0
    while done < cases:
        F = fields[done % len(fields)]
        els = pgl2[F]
        is_galois = done // len(fields) % 2 == 0
        if is_galois:
            mu, tau = (rng.choice(els) for _ in range(2))
            h0 = rng.choice(_galois_maps(F))
            h = compose(compose(_as_map(mu), h0), _as_map(tau))
        else:
            n = rng.randrange(2, 6)
            num = rand_univ(rng, F, n)
            den = rand_univ(rng, F, rng.randrange(0, n + 1))
            if poly_gcd(num, den).degree() > 0:
                continue
            h = RationalMap1D(num, den)
        try:
            G = deck_group(h)
        except DegenerateFibers:
            continue
        n = h.degree()
        if is_galois:
            assert len(G) == n, (F, h)
            galois_cases += 1
        over_f = set()
        for g in G.elements:
            entries = [try_descend(FqElement(G.ctx, c), F)
                       for row in g.mat for c in row]
            if None not in entries:
                over_f.add(Projectivity(F, [entries[:2], entries[2:]]).mat)
        brute = {s.mat for s in els
                 if _agrees_on_points(h, s) and compose_mobius(h, s) == h}
        assert over_f == brute, (F, h)
        done += 1
    assert galois_cases >= cases // 3


# ---------------------------------------------------------------------------
# schema: the report writer against json.dumps
# ---------------------------------------------------------------------------

# Strings json escapes: quotes, backslashes, control characters, non-ASCII
# in and beyond the basic plane, separators JavaScript treats as newlines
AWKWARD_TEXT = ["", "plain", 'quote " and back \\ slash', "tab\tnew\nline",
                "nul \x00 bell \x07 esc \x1b del \x7f", "naïve Ω ∞",
                "F_{3^2} ⊂ F_{3^4}", "\u2028\u2029", "emoji \U0001F600",
                "\udcff lone surrogate"]
AWKWARD_INTS = [0, 1, -1, 2 ** 31, -2 ** 63, 10 ** 40, -(10 ** 40) - 7]
AWKWARD_FLOATS = [0.5, -0.0, 1e300, -2.5e-300, float("inf"),
                  float("-inf"), float("nan")]


def json_text(obj) -> str:
    """The reference bytes the CLI writes for a report."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _random_text(rng):
    if rng.random() < 0.5:
        return rng.choice(AWKWARD_TEXT)
    ranges = [(32, 127), (0, 32), (127, 0x3000), (0x10000, 0x10400)]
    return "".join(chr(rng.randrange(*rng.choice(ranges)))
                   for _ in range(rng.randrange(8)))


def _random_int(rng):
    return rng.choice(AWKWARD_INTS + [rng.randrange(-10 ** 6, 10 ** 6)])


def _random_free(rng, depth=0):
    """A value for a subtree no schema describes: scalars, lists, tuples,
    and dicts keyed by str, int or float (one key type per dict, as the
    sorted writers need)."""
    r = rng.random()
    if depth >= 3 or r < 0.5:
        return rng.choice([_random_text(rng), _random_int(rng), None, True,
                           False, rng.choice(AWKWARD_FLOATS)])
    size = rng.randrange(4)
    if r < 0.75:
        items = [_random_free(rng, depth + 1) for _ in range(size)]
        return tuple(items) if rng.random() < 0.2 else items
    key = rng.choice([_random_text, _random_int,
                      lambda rng: rng.choice(AWKWARD_FLOATS[:4])])
    return {key(rng): _random_free(rng, depth + 1) for _ in range(size)}


def random_payload(rng, schema):
    """A random value that satisfies ``schema``: every required key, most
    optional ones, now and then a key no schema names, in shuffled
    insertion order."""
    if "enum" in schema:
        return rng.choice(schema["enum"])
    types = schema["type"]
    kind = rng.choice(types if isinstance(types, list) else [types])
    if kind == "null":
        return None
    if kind == "string":
        return _random_text(rng)
    if kind == "integer":
        return _random_int(rng)
    if kind == "boolean":
        return rng.random() < 0.5
    if kind == "array":
        item = schema.get("items")
        return [random_payload(rng, item) if item else _random_free(rng)
                for _ in range(rng.randrange(5))]
    props, required = schema.get("properties", {}), schema.get("required", [])
    if not props:
        return {_random_text(rng): _random_free(rng)
                for _ in range(rng.randrange(4))}
    keys = [k for k in props if k in required or rng.random() < 0.7]
    if rng.random() < 0.3:
        keys.append("extra_" + _random_text(rng))
    rng.shuffle(keys)
    return {k: random_payload(rng, props[k]) if k in props
            else _random_free(rng) for k in keys}


def schema_writer_matches_json(cases=500):
    """dump_report writes the bytes of json.dumps(sort_keys=True,
    indent=2) for random valid payloads of every report kind, with the
    kind, tool and config keys the CLI adds, and validates them."""
    rng = random.Random(1201)
    kinds = sorted(SCHEMAS)
    for i in range(cases):
        kind = kinds[i % len(kinds)]
        report = random_payload(rng, SCHEMAS[kind])
        if rng.random() < 0.8:
            report.update(kind=kind, tool={"name": "galoispoints",
                                           "version": "0.1.0"},
                          config={"trials": 64, "ext_cap": _random_int(rng)})
        assert dump_report(kind, report) == json_text(report), (kind, report)
        validate_report(kind, report)
