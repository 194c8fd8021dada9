import random

import pytest
from hypothesis import given, settings, strategies as st

from galoispoints.errors import ExtensionCapExceeded, SoundnessError, ZeroInput
from galoispoints.gf import FqElement, make_field
from galoispoints.polyring import (
    Polynomial,
    _conjugate_roots,
    _split_by_var,
    _split_once,
    _u_add,
    _u_divmod,
    _u_mul,
    _u_trim,
    exact_div,
    factor_degrees,
    factor_univariate,
    parse_poly,
    poly_gcd,
    resultant,
    splitting_roots,
    squarefree_part,
)

import props
from conftest import rand_poly, upoly


def sylvester_matrix(f, g, var):
    """Rows: deg_var(f) shifted copies of g's coefficient vector followed by
    deg_var(g) shifted copies of f's (descending powers of var)."""
    m, n = f.degree_in(var), g.degree_in(var)
    if m + n == 0:
        return [[Polynomial.const(f.ctx, f.nvars, 1)]]
    zero = Polynomial.zero(f.ctx, f.nvars)
    rows = []
    for count, coeffs in ((m, _split_by_var(g, var)), (n, _split_by_var(f, var))):
        for i in range(count):
            row = [zero] * (m + n)
            for j, c in enumerate(reversed(coeffs)):
                row[i + j] = c
            rows.append(row)
    return rows


def determinant(matrix):
    """Cofactor expansion along the first row, over the polynomial ring."""
    if len(matrix) == 1:
        return matrix[0][0]
    acc = Polynomial.zero(matrix[0][0].ctx, matrix[0][0].nvars)
    for j, entry in enumerate(matrix[0]):
        if entry.is_zero:
            continue
        term = entry * determinant([row[:j] + row[j + 1:] for row in matrix[1:]])
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


class TestResultant:
    def test_linear_pair(self, F13):
        # Res_t(t - a, t - b) = b - a
        f = upoly(F13, [-2, 1])
        g = upoly(F13, [-5, 1])
        assert resultant(f, g, 0) == Polynomial.const(F13, 1, 3)

    def test_substitution_of_linear_root(self, F13):
        # Res_t(t^2 - x, t - y) = y^2 - x, eliminating var 0 of (t, x, y)
        f = Polynomial.from_terms(F13, 3, {(2, 0, 0): 1, (0, 1, 0): -1})
        g = Polynomial.from_terms(F13, 3, {(1, 0, 0): 1, (0, 0, 1): -1})
        expect = Polynomial.from_terms(F13, 3, {(0, 0, 2): 1, (0, 1, 0): -1})
        assert resultant(f, g, 0) == expect

    def test_direct_evaluation(self, F7):
        # Res_t(t^3 - 2, t - 3) = 3^3 - 2 = 4 mod 7
        f = upoly(F7, [-2, 0, 0, 1])
        g = upoly(F7, [-3, 1])
        assert resultant(f, g, 0) == Polynomial.const(F7, 1, 4)

    def test_zero_input(self, F7):
        with pytest.raises(ZeroInput):
            resultant(Polynomial.zero(F7, 1), upoly(F7, [1, 1]), 0)

    def test_agrees_with_sylvester_determinant(self, F13):
        rng = random.Random(5)
        done = 0
        while done < 60:
            nvars = rng.choice([1, 2, 3])
            f = rand_poly(rng, F13, nvars, 3, 4)
            g = rand_poly(rng, F13, nvars, 3, 4)
            if f.is_zero or g.is_zero:
                continue
            var = rng.randrange(nvars)
            assert resultant(f, g, var) == determinant(sylvester_matrix(f, g, var))
            done += 1


class TestFactorUnivariate:
    def test_cube_roots_of_unity(self, F7):
        fs = factor_univariate(upoly(F7, [-1, 0, 0, 1]))  # y^3 - 1
        roots = sorted((-f.coefficient((0,))).encoding() for f, _ in fs)
        assert roots == [1, 2, 4]
        assert all(f.degree() == 1 and e == 1 for f, e in fs)

    def test_irreducible_quadratic(self, F7):
        # -1 is a non-residue mod 7: exhaustive residue check
        assert all(pow(x, 2, 7) != 6 for x in range(7))
        fs = factor_univariate(upoly(F7, [1, 0, 1]))
        assert len(fs) == 1 and fs[0][0].degree() == 2 and fs[0][1] == 1

    def test_perfect_cube(self, F13):
        fs = factor_univariate(upoly(F13, [-2, 1]) ** 3)
        assert fs == [(upoly(F13, [-2, 1]), 3)]

    def test_deterministic_given_seed(self, F13):
        rng = random.Random(6)
        f = rand_poly(rng, F13, 1, 9, 6)
        assert factor_univariate(f, seed=4) == factor_univariate(f, seed=4)

    def test_zero_raises(self, F13):
        with pytest.raises(ZeroInput):
            factor_univariate(Polynomial.zero(F13, 1))


class TestDenseDivmod:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("monic", [True, False])
    def test_quotient_and_remainder(self, k, monic):
        # q*b + r == a and deg r < deg b, whether or not b is monic
        ctx = make_field(13, k)
        rng = random.Random(10 * k + monic)
        for _ in range(40):
            a = _u_trim([ctx.decode(rng.randrange(ctx.order))
                         for _ in range(rng.randrange(0, 9))])
            b = [ctx.decode(rng.randrange(ctx.order))
                 for _ in range(rng.randrange(0, 5))]
            b.append(1 if monic else ctx.decode(rng.randrange(2, ctx.order)))
            q, r = _u_divmod(ctx, a, b)
            assert _u_add(ctx, _u_mul(ctx, q, b), r) == a
            assert len(r) < len(b)


class TestSplittingRoots:
    def test_already_split(self, F13):
        f = upoly(F13, [-2, 1]) ** 3 * upoly(F13, [1, 1])
        rm = splitting_roots(f)
        assert rm.ext == F13
        assert {r.encoding(): m for r, m in rm.roots} == {2: 3, 12: 1}

    def test_quadratic_nonresidue(self):
        # 27 = 2 mod 5 is a non-residue: roots live in F_25
        F5 = make_field(5)
        assert all(pow(x, 2, 5) != 2 for x in range(5))
        rm = splitting_roots(upoly(F5, [-27 % 5, 0, 1]))
        assert rm.ext.order == 25
        assert all(m == 1 and r * r == r.ctx.element(2) for r, m in rm.roots)

    def test_cube_roots_of_minus_64(self, F13):
        rm = splitting_roots(upoly(F13, [64 % 13, 0, 0, 1]))
        assert rm.degree() == 3
        for r, _ in rm.roots:
            assert r ** 3 == r.ctx.element(-64)
        # -4 is among the roots in the base field
        base_roots = {r.encoding() for r, _ in rm.roots if r.ctx == F13}
        assert (-4) % 13 in base_roots or rm.ext != F13

    def test_cap_exceeded(self, F13):
        rng = random.Random(11)
        # an irreducible of degree 5 needs a degree-5 extension
        while True:
            f = rand_poly(rng, F13, 1, 5, 6)
            fs = f.is_zero or factor_univariate(f)
            if not f.is_zero and len(fs) == 1 and fs[0][0].degree() == 5:
                break
        with pytest.raises(ExtensionCapExceeded):
            splitting_roots(f, ext_cap=4)

    def test_cap_checked_before_any_split(self, F13, monkeypatch):
        # two distinct degree-5 irreducibles: full factoring would split
        # their product by equal-degree draws, but the extension degree 5
        # is read off the distinct-degree part and fails the cap first
        import galoispoints.polyring as polyring
        rng = random.Random(12)
        quintics = []
        while len(quintics) < 2:
            f = rand_poly(rng, F13, 1, 5, 6)
            fs = f.is_zero or factor_univariate(f)
            if not f.is_zero and len(fs) == 1 and fs[0][0].degree() == 5 \
                    and fs[0][0] not in quintics:
                quintics.append(fs[0][0])

        def no_split(*args, **kwargs):
            raise AssertionError("equal-degree split before the cap check")

        monkeypatch.setattr(polyring, "_split_once", no_split)
        with pytest.raises(ExtensionCapExceeded):
            splitting_roots(quintics[0] * quintics[1], ext_cap=4)
        with pytest.raises(AssertionError):
            splitting_roots(quintics[0] * quintics[1], ext_cap=5)

    def test_orbit_guard_rejects_wrong_frobenius(self):
        # x^2 + x + 3 is irreducible over F_9 (3 is the encoding of the
        # generator a, a^2 = -1): its roots are conjugate under x -> x^9,
        # and x -> x^3 leaves the root set
        F9, F81 = make_field(3, 2), make_field(3, 4)
        f = upoly(F9, [3, 1, 1])
        assert factor_univariate(f) == [(f, 1)]
        dense = f.lift_to(F81).to_dense()
        roots = _conjugate_roots(F81, dense, 9, random.Random(0))
        assert len(set(roots)) == 2
        assert not any(f.lift_to(F81).evaluate([FqElement(F81, r)]) for r in roots)
        with pytest.raises(SoundnessError):
            _conjugate_roots(F81, dense, 3, random.Random(0))

    def test_split_guard_stops_on_an_unsplittable_factor(self):
        # x^2 + 1 is irreducible over F_3: degree-1 draws never split it
        F3 = make_field(3)
        with pytest.raises(SoundnessError):
            _split_once(F3, [1, 0, 1], 1, random.Random(0), 3)


class TestSquarefreePart:
    def test_simple(self, F13):
        f = upoly(F13, [-1, 1]) ** 2 * upoly(F13, [2, 1])
        assert squarefree_part(f) == (upoly(F13, [-1, 1]) * upoly(F13, [2, 1])).monic()

    def test_inseparable_pth_root(self):
        # x^p - a = (x - a^(1/p))^p over F_p
        F5 = make_field(5)
        sf = squarefree_part(upoly(F5, [-3, 0, 0, 0, 0, 1]))
        assert sf.degree() == 1
        root = -sf.coefficient((0,))
        assert root ** 5 == F5.element(3)

    def test_idempotent(self, F13):
        g = upoly(F13, [1, 2, 3, 1])
        assert squarefree_part(squarefree_part(g)) == squarefree_part(g)

    def test_multivariate_char2(self, F4):
        x = Polynomial.variable(F4, 2, 0)
        y = Polynomial.variable(F4, 2, 1)
        f = (x ** 2 + y) ** 2 * (x + y)
        assert squarefree_part(f) == ((x ** 2 + y) * (x + y)).monic()


class TestHomogenize:
    def test_univariate_to_given_degree(self, F13):
        # 2 + t^2 padded to degree 3 is the binary form 2 z^3 + t^2 z
        f = upoly(F13, [2, 0, 1])
        h = f.homogenize(3)
        assert h == Polynomial.from_terms(F13, 2, {(0, 3): 2, (2, 1): 1})
        # its value at (a : b) is b^3 f(a / b)
        a, b = F13.element(5), F13.element(7)
        assert h.evaluate([a, b]) == b ** 3 * f.evaluate([a / b])

    def test_default_degree_is_total_degree(self, F13):
        f = Polynomial.from_terms(F13, 2, {(2, 1): 1, (0, 1): 3, (0, 0): 4})
        assert f.homogenize() == Polynomial.from_terms(
            F13, 3, {(2, 1, 0): 1, (0, 1, 2): 3, (0, 0, 3): 4})
        assert f.homogenize().dehomogenize(2) == f

    def test_degree_below_total_degree_raises(self, F13):
        with pytest.raises(ValueError):
            upoly(F13, [1, 0, 1]).homogenize(1)


class TestTextForm:
    def test_roundtrip(self):
        F169 = make_field(13, 2)
        f = Polynomial.from_terms(F169, 2, {(2, 0): 100, (0, 3): 5, (0, 0): 1})
        assert parse_poly(f.to_text(), F169, 2) == f

    def test_graded_lex_descending(self, F13):
        f = Polynomial.from_terms(F13, 3, {(0, 0, 3): 1, (1, 1, 1): 2,
                                           (2, 1, 0): 1, (2, 0, 0): 5})
        # degree 3 terms first, lex inside a degree: (2,1,0) > (1,1,1) > (0,0,3)
        assert f.to_text() == ("1*x^2*y^1*z^0+2*x^1*y^1*z^1+1*x^0*y^0*z^3"
                               "+5*x^2*y^0*z^0")

    def test_parse_error(self, F13):
        from galoispoints.errors import InputError
        with pytest.raises(InputError):
            parse_poly("1*w^2", F13, 2)


@st.composite
def f13_polys(draw, nvars=1, maxdeg=5):
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, maxdeg)] * nvars),
        st.integers(0, 12), min_size=0, max_size=6))
    F13 = make_field(13)
    return Polynomial.from_terms(F13, nvars, terms)


class TestRingLaws:
    @given(f13_polys(), f13_polys(), f13_polys())
    @settings(max_examples=150, deadline=None)
    def test_ring_axioms(self, f, g, h):
        assert f + g == g + f
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert (f - g) + g == f

    @given(f13_polys(), f13_polys())
    @settings(max_examples=150, deadline=None)
    def test_degree_of_product_adds(self, f, g):
        # integral domain: deg(fg) = deg f + deg g for nonzero inputs
        if f.is_zero or g.is_zero:
            assert (f * g).is_zero
        else:
            assert (f * g).degree() == f.degree() + g.degree()

    @given(f13_polys(nvars=2, maxdeg=3), f13_polys(nvars=2, maxdeg=3))
    @settings(max_examples=60, deadline=None)
    def test_exact_div_roundtrip(self, f, g):
        if f.is_zero or g.is_zero:
            return
        assert exact_div(f * g, g) == f


class TestGcdExactDiv:
    def test_gcd_of_products(self, F13):
        rng = random.Random(8)
        done = 0
        while done < 30:
            g0 = rand_poly(rng, F13, 2, 2, 3)
            a = rand_poly(rng, F13, 2, 2, 2)
            b = rand_poly(rng, F13, 2, 2, 2)
            if g0.degree() < 1 or a.is_zero or b.is_zero:
                continue
            gc = poly_gcd(g0 * a, g0 * b)
            # g0 divides the gcd, and the gcd divides both products
            exact_div(gc, poly_gcd(gc, g0.monic()))
            exact_div((g0 * a).monic(), gc)
            exact_div((g0 * b).monic(), gc)
            done += 1

    def test_exact_div_raises_on_remainder(self, F13):
        x = Polynomial.variable(F13, 2, 0)
        y = Polynomial.variable(F13, 2, 1)
        with pytest.raises(ValueError):
            exact_div(x * x + y, x + 1)


class TestProperties:
    def test_gcd_iff_resultant(self):
        props.polyring_gcd_iff_resultant(200)

    def test_factor_remultiplies(self):
        props.polyring_factor_remultiplies(150)

    def test_factor_degrees(self):
        props.polyring_factor_degrees(150)

    def test_discriminant_matches_oracle(self):
        props.polyring_discriminant_matches_oracle(280)

    def test_ddf_matches_oracle(self):
        props.polyring_ddf_matches_oracle(140)

    def test_gcd_matches_euclid(self):
        props.polyring_gcd_matches_euclid(280)

    def test_half_power_matches_powmod(self):
        props.polyring_half_power_matches_powmod(240)

    def test_splitting_roots(self):
        props.polyring_splitting_roots(150)

    def test_roots_match_refactor(self):
        props.polyring_roots_match_refactor(120)

    def test_resultant_multiplicative(self):
        props.polyring_resultant_multiplicative(200)


class TestSympyOracle:
    """Differential checks against sympy over F_p, random univariates of
    degree at most 8: factor_degrees, factor_univariate, poly_gcd and the
    univariate resultant."""

    PRIMES = (2, 3, 5, 7, 13, 31)

    @pytest.fixture(scope="class")
    def sp(self):
        return pytest.importorskip("sympy")

    @staticmethod
    def draws(tag, count):
        rng = random.Random(f"sympy:{tag}")
        for i in range(count):
            p = TestSympyOracle.PRIMES[i % len(TestSympyOracle.PRIMES)]
            yield rng, make_field(p), p

    @staticmethod
    def coeffs(rng, p, degree):
        return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]

    @staticmethod
    def to_sympy(sp, coeffs, p):
        return sp.Poly(list(reversed(coeffs)), sp.Symbol("x"), modulus=p)

    @staticmethod
    def monic_coeffs(sp_poly, p):
        """Ascending coefficients in [0, p) of a sympy Poly made monic."""
        c = [int(v) % p for v in reversed(sp_poly.all_coeffs())]
        inv = pow(c[-1], -1, p)
        return [v * inv % p for v in c]

    def test_factor_univariate(self, sp):
        for rng, F, p in self.draws("factor", 150):
            c = self.coeffs(rng, p, rng.randrange(1, 9))
            ours = sorted((f.to_dense(), m)
                          for f, m in factor_univariate(upoly(F, c), seed=1))
            _, theirs = self.to_sympy(sp, c, p).factor_list()
            assert ours == sorted((self.monic_coeffs(g, p), m)
                                  for g, m in theirs)

    def test_factor_degrees(self, sp):
        done = 0
        for rng, F, p in self.draws("degrees", 400):
            c = self.coeffs(rng, p, rng.randrange(1, 9))
            _, theirs = self.to_sympy(sp, c, p).factor_list()
            if any(m > 1 for _, m in theirs):
                continue
            assert factor_degrees(upoly(F, c)) == sorted(
                h.degree() for h, _ in theirs)
            done += 1
        assert done >= 150

    def test_poly_gcd(self, sp):
        for rng, F, p in self.draws("gcd", 150):
            common = self.coeffs(rng, p, rng.randrange(0, 4))
            a = _u_mul(F, self.coeffs(rng, p, rng.randrange(0, 6)), common)
            b = _u_mul(F, self.coeffs(rng, p, rng.randrange(0, 6)), common)
            theirs = self.to_sympy(sp, a, p).gcd(self.to_sympy(sp, b, p))
            assert poly_gcd(upoly(F, a), upoly(F, b)).to_dense() == \
                self.monic_coeffs(theirs, p)

    def test_resultant(self, sp):
        for rng, F, p in self.draws("resultant", 150):
            a = self.coeffs(rng, p, rng.randrange(1, 9))
            b = self.coeffs(rng, p, rng.randrange(1, 9))
            ours = resultant(upoly(F, a), upoly(F, b), 0)
            # resultant(f, g) puts g's rows first, so it is Res(g, f) =
            # (-1)^(deg f deg g) Res(f, g).  sympy 1.14 returns the same
            # value for both orders of operands of unequal degree, which is
            # right only with the higher degree first; so sympy computes
            # that order, over the integers, reduced mod p.
            x = sp.Symbol("x")
            hi, lo = sorted((a, b), key=len, reverse=True)
            theirs = int(sp.Poly(hi[::-1], x).resultant(sp.Poly(lo[::-1], x)))
            if hi is a and (len(a) - 1) * (len(b) - 1) % 2:
                theirs = -theirs
            assert ours == Polynomial.const(F, 1, theirs % p)
