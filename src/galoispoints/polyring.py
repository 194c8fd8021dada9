"""Sparse multivariate polynomial arithmetic over a finite field context.

Polynomials are maps from exponent vectors (length 1..3) to nonzero field
elements, immutable by convention, over exactly one :class:`~galoispoints.gf.FieldCtx`.
The module provides the computational substrate used everywhere else:

* ring arithmetic, substitution/composition, homogenization,
* univariate factorization (squarefree decomposition, then distinct-degree,
  then randomized equal-degree splitting with deterministic seed threading),
* factor degrees of a squarefree univariate by distinct-degree
  factorization alone (the Monte Carlo screen needs nothing more),
* Frobenius maps on residues mod a monic f: x^p by left-to-right squaring,
  x^q through the p-power map, and the q-power matrix whose columns are
  x^(qi) mod f, so distinct-degree factorization raises to the q-th power
  by one matrix product per step, and a Cantor-Zassenhaus draw u goes to
  u^((q^m - 1)/2) as (u u^q ... u^(q^(m-1)))^((q-1)/2) (the Rabin test in
  ``gf`` reuses them),
* one univariate remainder loop, an inversion-free pseudo-remainder
  sequence that scales by leading coefficients instead of inverting them:
  the monic gcd makes its result monic once, and where only the degree of
  a gcd matters (a distinct-degree step, a squarefree test) it is used
  as it stands,
* the dense s-rows of a bivariate f(t, s), lifted into extensions, and
  the specialization f(t0, s) at field values t0 read off them, screened
  for full degree and squarefreeness (the Monte Carlo screen and the fiber
  search of ``galois``, the squarefree certificate of ``curve``); up to
  degree 3 squarefreeness is a nonzero discriminant, whose quadratic
  character over an odd field also tells a cubic's factor degrees
  (Stickelberger),
* roots over the smallest splitting extension: one root per irreducible
  factor by equal-degree splitting, the others as its Frobenius conjugates,
* resultants by the subresultant polynomial remainder sequence alone, one
  code path for one to three variables,
* gcds and exact division in one to three variables (primitive PRS); a
  curve takes the gcd of f, f_x and f_y only when its dense squarefree
  certificate leaves it undecided.

Coefficients are stored as raw int reps (see :mod:`galoispoints.gf`);
FqElement wrappers appear only at the public boundary.
``resultant(f, g, var)`` is the determinant of the Sylvester matrix whose
first deg(f) rows are shifted copies of g's coefficients; for univariate
f, g it equals
``lc(g)^deg(f) * prod f(beta)`` over the roots beta of g.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (ExtensionCapExceeded, IncompatibleFields, SoundnessError,
                     ZeroInput)
from .gf import FieldCtx, FqElement, embed, make_field

_VAR_NAMES = ("x", "y", "z")


def _accumulate(ctx: FieldCtx, out: dict, exp: tuple, rep: int) -> None:
    """out[exp] += rep in a sparse term map, deleting the term on zero."""
    cur = out.get(exp)
    if cur is None:
        out[exp] = rep
    else:
        s = ctx.add_t(cur, rep)
        if s:
            out[exp] = s
        else:
            del out[exp]


class Polynomial:
    """A sparse polynomial in 1..3 variables over one field context."""

    __slots__ = ("ctx", "nvars", "terms", "_hash")

    def __init__(self, ctx: FieldCtx, nvars: int, terms: dict):
        # terms: exponent tuple -> raw nonzero rep; internal constructor,
        # callers must pass reduced data (use from_terms for safety)
        self.ctx = ctx
        self.nvars = nvars
        self.terms = terms
        self._hash: Optional[int] = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx, nvars: int) -> "Polynomial":
        return cls(ctx, nvars, {})

    @classmethod
    def const(cls, ctx: FieldCtx, nvars: int, value) -> "Polynomial":
        rep = ctx.element(value).rep
        if not rep:
            return cls(ctx, nvars, {})
        return cls(ctx, nvars, {(0,) * nvars: rep})

    @classmethod
    def variable(cls, ctx: FieldCtx, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError("variable index out of range")
        exp = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(ctx, nvars, {exp: 1})

    @classmethod
    def from_terms(cls, ctx: FieldCtx, nvars: int, data: dict) -> "Polynomial":
        terms = {}
        for exp, coeff in data.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp}")
            rep = ctx.element(coeff).rep
            if rep:
                terms[exp] = rep
        return cls(ctx, nvars, terms)

    @classmethod
    def from_dense(cls, ctx: FieldCtx, reps: Sequence) -> "Polynomial":
        """Univariate polynomial from an ascending coefficient list."""
        terms = {}
        for i, rep in enumerate(reps):
            if isinstance(rep, FqElement):
                rep = rep.rep
            if rep:
                terms[(i,)] = rep
        return cls(ctx, 1, terms)

    # -- basic queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, exp: Sequence[int]) -> FqElement:
        rep = self.terms.get(tuple(exp))
        if rep is None:
            return self.ctx.zero
        return FqElement(self.ctx, rep)

    def leading_term(self) -> tuple[tuple[int, ...], FqElement]:
        """Graded-lex leading term (highest total degree, then lex)."""
        if not self.terms:
            raise ZeroInput("zero polynomial has no leading term")
        exp = max(self.terms, key=lambda e: (sum(e), e))
        return exp, FqElement(self.ctx, self.terms[exp])

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ctx != other.ctx or self.nvars != other.nvars:
            raise IncompatibleFields("polynomials live in different rings")

    def __add__(self, other):
        if isinstance(other, int):
            # integers coerce through Z -> F_q, not as encodings
            other = Polynomial.const(self.ctx, self.nvars, other % self.ctx.p)
        if isinstance(other, FqElement):
            other = Polynomial.const(self.ctx, self.nvars, other)
        self._check(other)
        ctx = self.ctx
        out = dict(self.terms)
        for exp, rep in other.terms.items():
            _accumulate(ctx, out, exp, rep)
        return Polynomial(ctx, self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        ctx = self.ctx
        return Polynomial(ctx, self.nvars,
                          {e: ctx.neg_t(r) for e, r in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial.const(self.ctx, self.nvars, other % self.ctx.p)
        if isinstance(other, FqElement):
            other = Polynomial.const(self.ctx, self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, FqElement)):
            if isinstance(other, int):
                other %= self.ctx.p
            rep = self.ctx.element(other).rep
            if not rep:
                return Polynomial.zero(self.ctx, self.nvars)
            ctx = self.ctx
            return Polynomial(ctx, self.nvars,
                              {e: ctx.mul_t(r, rep) for e, r in self.terms.items()})
        self._check(other)
        ctx = self.ctx
        mul = ctx.mul_t
        out: dict = {}
        for e1, r1 in self.terms.items():
            for e2, r2 in other.terms.items():
                _accumulate(ctx, out, tuple(a + b for a, b in zip(e1, e2)),
                            mul(r1, r2))
        return Polynomial(ctx, self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.const(self.ctx, self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.ctx == other.ctx and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ctx, self.nvars,
                               frozenset(self.terms.items())))
        return self._hash

    def monic(self) -> "Polynomial":
        """Divide by the graded-lex leading coefficient."""
        if self.is_zero:
            return self
        _, lc = self.leading_term()
        return self * lc.inverse()

    # -- calculus and substitution ----------------------------------------------

    def derivative(self, var: int) -> "Polynomial":
        ctx = self.ctx
        out: dict = {}
        for exp, rep in self.terms.items():
            e = exp[var]
            if e == 0:
                continue
            c = ctx.smul_t(e, rep)
            if not c:
                continue
            _accumulate(ctx, out, exp[:var] + (e - 1,) + exp[var + 1:], c)
        return Polynomial(ctx, self.nvars, out)

    def lift_to(self, ctx2: FieldCtx) -> "Polynomial":
        """Embed all coefficients into an extension context."""
        if ctx2 == self.ctx:
            return self
        out = {}
        for exp, rep in self.terms.items():
            out[exp] = embed(self.ctx, ctx2, FqElement(self.ctx, rep)).rep
        return Polynomial(ctx2, self.nvars, out)

    def evaluate(self, vals: Sequence[FqElement]) -> FqElement:
        """Evaluate at a point; the values' context must contain self.ctx."""
        if len(vals) != self.nvars:
            raise ValueError("wrong number of values")
        ectx = vals[0].ctx
        f = self.lift_to(ectx) if ectx != self.ctx else self
        pow_cache: list[dict[int, int]] = [{} for _ in range(self.nvars)]

        def vpow(i: int, e: int):
            cache = pow_cache[i]
            got = cache.get(e)
            if got is None:
                got = ectx.pow_t(vals[i].rep, e)
                cache[e] = got
            return got

        acc = 0
        for exp, rep in f.terms.items():
            term = rep
            for i, e in enumerate(exp):
                if e:
                    term = ectx.mul_t(term, vpow(i, e))
            acc = ectx.add_t(acc, term)
        return FqElement(ectx, acc)

    def compose(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute images[i] for variable i (all in one target ring)."""
        if len(images) != self.nvars:
            raise ValueError("wrong number of images")
        tgt = images[0]
        f = self.lift_to(tgt.ctx) if tgt.ctx != self.ctx else self
        one = Polynomial.const(tgt.ctx, tgt.nvars, 1)
        pow_cache: list[dict[int, Polynomial]] = [{0: one} for _ in images]

        def ipow(i: int, e: int) -> Polynomial:
            cache = pow_cache[i]
            if e not in cache:
                half = ipow(i, e // 2)
                sq = half * half
                cache[e] = sq * images[i] if e & 1 else sq
            return cache[e]

        acc = Polynomial.zero(tgt.ctx, tgt.nvars)
        for exp, rep in f.terms.items():
            term = Polynomial.const(tgt.ctx, tgt.nvars, FqElement(tgt.ctx, rep))
            for i, e in enumerate(exp):
                if e:
                    term = term * ipow(i, e)
            acc = acc + term
        return acc

    def partial_evaluate(self, var: int, value: FqElement) -> "Polynomial":
        """Fix one variable to a field value; drops that variable."""
        ectx = value.ctx
        f = self.lift_to(ectx) if ectx != self.ctx else self
        out: dict = {}
        pw: dict[int, int] = {}

        def vpow(e):
            if e not in pw:
                pw[e] = ectx.pow_t(value.rep, e)
            return pw[e]

        for exp, rep in f.terms.items():
            e = exp[var]
            c = ectx.mul_t(rep, vpow(e)) if e else rep
            if not c:
                continue
            _accumulate(ectx, out, exp[:var] + exp[var + 1:], c)
        return Polynomial(ectx, self.nvars - 1, out)

    def homogenize(self, degree: Optional[int] = None) -> "Polynomial":
        """Append one variable whose exponent pads each term to ``degree``.

        ``degree`` defaults to the total degree d and may not be smaller.
        A bivariate f(x, y) becomes the form z^d f(x/z, y/z); a univariate
        f(t) becomes the binary form z^degree f(t/z), whose value at
        (a : b) is b^degree f(a/b).
        """
        d = self.degree() if degree is None else degree
        if d < self.degree():
            raise ValueError("homogenizing degree below the total degree")
        return Polynomial(self.ctx, self.nvars + 1,
                          {exp + (d - sum(exp),): rep
                           for exp, rep in self.terms.items()})

    def dehomogenize(self, var: int) -> "Polynomial":
        """Set one variable to 1 and drop it."""
        ctx = self.ctx
        out: dict = {}
        for exp, rep in self.terms.items():
            _accumulate(ctx, out, exp[:var] + exp[var + 1:], rep)
        return Polynomial(ctx, self.nvars - 1, out)

    # -- univariate dense view --------------------------------------------------

    def to_dense(self) -> list:
        if self.nvars != 1:
            raise ValueError("dense view is univariate only")
        d = self.degree()
        out = [0] * (d + 1)
        for (e,), rep in self.terms.items():
            out[e] = rep
        return out

    # -- text form -----------------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text: terms "c*x^a*y^b*z^c" joined by "+", graded-lex
        descending, coefficients as base-p integer encodings."""
        if not self.terms:
            return "0"
        names = _VAR_NAMES[:self.nvars]
        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]),
                       reverse=True)
        pieces = []
        for exp, rep in items:
            factors = [str(self.ctx.encode(rep))]
            factors += [f"{n}^{e}" for n, e in zip(names, exp)]
            pieces.append("*".join(factors))
        return "+".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self.to_text()} over {self.ctx!r})"


def parse_poly(text: str, ctx: FieldCtx, nvars: int) -> Polynomial:
    """Parse the canonical text form (tolerates omitted exponents/coefficients)."""
    from .errors import InputError
    names = _VAR_NAMES[:nvars]
    text = text.replace(" ", "").replace("-", "+-")
    if not text:
        raise InputError("empty polynomial text")
    terms: dict = {}
    for raw in text.split("+"):
        if not raw:
            continue
        neg = raw.startswith("-")
        if neg:
            raw = raw[1:]
        coeff = 1
        exp = [0] * nvars
        for factor in raw.split("*"):
            if not factor:
                raise InputError(f"empty factor in term {raw!r}")
            if factor[0].isdigit():
                try:
                    coeff = coeff * int(factor)
                except ValueError:
                    raise InputError(f"bad coefficient {factor!r}") from None
                continue
            name, _, e = factor.partition("^")
            if name not in names:
                raise InputError(f"unknown variable {name!r} in {raw!r}")
            try:
                exp[names.index(name)] += int(e) if e else 1
            except ValueError:
                raise InputError(f"bad exponent in {factor!r}") from None
        try:
            c = ctx.element(coeff)
        except ValueError:
            raise InputError(
                f"coefficient {coeff} out of range for {ctx.spec}") from None
        if neg:
            c = -c
        key = tuple(exp)
        prev = terms.get(key, ctx.zero)
        terms[key] = prev + c
    return Polynomial.from_terms(ctx, nvars, terms)


# ---------------------------------------------------------------------------
# Dense univariate helpers (lists of raw reps, ascending degree)
# ---------------------------------------------------------------------------

def _u_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _u_deg(a: list) -> int:
    return len(a) - 1


def _u_add(ctx, a, b):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _u_trim(list(map(ctx.add_t, a, b)))


def _u_sub(ctx, a, b):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _u_trim(list(map(ctx.sub_t, a, b)))


def _u_mul(ctx, a, b):
    if not a or not b:
        return []
    add, mul = ctx.add_t, ctx.mul_t
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return _u_trim(out)


def _u_divmod(ctx, a, b):
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    sub, mul = ctx.sub_t, ctx.mul_t
    # a monic divisor (every powmod and DDF modulus) needs no inverse
    inv = None if b[-1] == 1 else ctx.inv_t(b[-1])
    q = [0] * max(len(a) - len(b) + 1, 1)
    rem = a[:]
    db = len(b) - 1
    while rem and len(rem) - 1 >= db:
        c = rem[-1] if inv is None else mul(rem[-1], inv)
        off = len(rem) - 1 - db
        if c:
            q[off] = c
            for i, bi in enumerate(b):
                if bi:
                    rem[off + i] = sub(rem[off + i], mul(c, bi))
        rem.pop()
    return _u_trim(q), _u_trim(rem)


def _u_monic(ctx, a):
    if not a:
        return a
    inv = ctx.inv_t(a[-1])
    return [ctx.mul_t(inv, x) for x in a]


def _u_prs(ctx, a, b):
    """gcd(a, b) up to a nonzero scalar, by a pseudo-remainder sequence
    that never inverts: each elimination step scales the remainder by
    lc(b) instead of dividing by lc(b), and a monic b skips the scaling.
    Callers that need only the gcd's degree stop here."""
    if len(a) < len(b):
        a, b = b, a
    sub, mul = ctx.sub_t, ctx.mul_t
    while b:
        lc, db = b[-1], len(b) - 1
        r = a[:]
        while len(r) > db:
            c = r.pop()
            off = len(r) - db
            if lc != 1:
                r = [mul(lc, x) for x in r]
            for i in range(db):
                if b[i]:
                    r[off + i] = sub(r[off + i], mul(c, b[i]))
            _u_trim(r)
        a, b = b, r
    return a


def _u_gcd(ctx, a, b):
    """The monic gcd(a, b): ``_u_prs`` made monic by one inversion."""
    return _u_monic(ctx, _u_prs(ctx, a, b))


def _u_powmod(ctx, a, e, m):
    result = [1]
    _, base = _u_divmod(ctx, a, m)
    while e:
        if e & 1:
            _, result = _u_divmod(ctx, _u_mul(ctx, result, base), m)
        base_sq = _u_mul(ctx, base, base)
        _, base = _u_divmod(ctx, base_sq, m)
        e >>= 1
    return result


def _u_mulx(ctx, a, f):
    """x a mod a monic f, for deg a < deg f: one shift, one reduction step."""
    if not a:
        return a
    a = [0] + a
    if len(a) == len(f):
        c = a.pop()
        sub, mul = ctx.sub_t, ctx.mul_t
        for i, fi in enumerate(f[:-1]):
            if fi:
                a[i] = sub(a[i], mul(c, fi))
        _u_trim(a)
    return a


def _u_powx(ctx, e, f):
    """x^e mod a monic f of positive degree, by left-to-right squaring."""
    r = [1]
    for bit in bin(e)[2:]:
        r = _u_divmod(ctx, _u_mul(ctx, r, r), f)[1]
        if bit == "1":
            r = _u_mulx(ctx, r, f)
    return r


def _u_power_columns(ctx, y, f):
    """The columns y^i mod f, i < deg f, of the F_q-linear map h -> h(y)
    mod f on residues mod a monic f, for y reduced mod f."""
    cols = [[1], y][:_u_deg(f)]
    while len(cols) < _u_deg(f):
        cols.append(_u_divmod(ctx, _u_mul(ctx, cols[-1], y), f)[1])
    return cols


def _u_apply_columns(ctx, cols, h):
    """sum h_i cols[i], which is h(y) mod f for the columns of
    ``_u_power_columns`` and deg h < deg f."""
    add, mul = ctx.add_t, ctx.mul_t
    out = [0] * len(cols)
    for hi, col in zip(h, cols):
        if hi:
            for j, c in enumerate(col):
                if c:
                    out[j] = add(out[j], mul(hi, c))
    return _u_trim(out)


def _u_frobenius_x(ctx, f):
    """x^q mod a monic f of positive degree, for q = p^k: x^p by
    left-to-right squaring, then k - 1 times the p-power map h -> h^p =
    sum h_i^p (x^p)^i mod f, read off the columns (x^p)^i mod f."""
    y = _u_powx(ctx, ctx.p, f)
    if ctx.k == 1:
        return y
    cols = _u_power_columns(ctx, y, f)
    p, power = ctx.p, ctx.pow_t
    h = y
    for _ in range(ctx.k - 1):
        h = _u_apply_columns(ctx, cols, [power(c, p) for c in h])
    return h


def _u_eval(ctx, a, x):
    acc = 0
    for c in reversed(a):
        acc = ctx.add_t(ctx.mul_t(acc, x), c)
    return acc


def _u_diff(ctx, a):
    return _u_trim([ctx.smul_t(i, a[i]) for i in range(1, len(a))])


def _u_pth_root(ctx, a):
    """Inverse Frobenius on a polynomial in x^p (exponents all divisible by p)."""
    p, k = ctx.p, ctx.k
    root_exp = p ** (k - 1)  # c -> c^(p^(k-1)) is the p-th root in F_{p^k}
    out = []
    for i in range(0, len(a), p):
        out.append(ctx.pow_t(a[i], root_exp))
    return _u_trim(out)


# ---------------------------------------------------------------------------
# Univariate factorization
# ---------------------------------------------------------------------------

def _squarefree_decomposition(ctx, f) -> list[tuple[list, int]]:
    """Monic squarefree decomposition, valid in characteristic p.

    Returns pairwise-coprime monic squarefree parts with multiplicities such
    that f = lc(f) * prod part^mult.
    """
    out: list[tuple[list, int]] = []
    p = ctx.p

    def helper(g, scale):
        if _u_deg(g) <= 0:
            return
        dg = _u_diff(ctx, g)
        if not dg:
            helper(_u_pth_root(ctx, g), scale * p)
            return
        c = _u_gcd(ctx, g, dg)
        w, _ = _u_divmod(ctx, g, c)
        i = 1
        while _u_deg(w) > 0:
            y = _u_gcd(ctx, w, c)
            z, _ = _u_divmod(ctx, w, y)
            if _u_deg(z) > 0:
                out.append((z, i * scale))
            w = y
            if _u_deg(y) > 0:
                c, _ = _u_divmod(ctx, c, y)
            i += 1
        if _u_deg(c) > 0:
            helper(_u_pth_root(ctx, c), scale * p)

    helper(_u_monic(ctx, f), 1)
    return out


def _distinct_degree(ctx, f) -> list[tuple[list, int]]:
    """Split a monic squarefree f into products of same-degree irreducibles.

    Step dd takes gcd(h - x, f) for h = x^(q^dd) mod f.  Step 1 gets x^q
    from ``_u_frobenius_x``; every later step reads h^q off the q-power
    (Berlekamp) matrix, whose columns x^(qi) mod f are built once at step
    2 and reduced mod f whenever f sheds a part (von zur Gathen and Shoup,
    "Computing Frobenius maps and factoring polynomials", 1992).  Until a
    part is found only the gcd's degree matters, so the gcd runs without
    inversions (``_u_prs``) and a found part is made monic once.
    """
    out = []
    h = cols = None
    dd = 1
    while _u_deg(f) >= 2 * dd:
        if h is None:
            h = _u_frobenius_x(ctx, f)
        else:
            if cols is None:
                cols = _u_power_columns(ctx, h, f)   # h = x^q mod f here
            h = _u_apply_columns(ctx, cols, h)
        g = _u_prs(ctx, f, _u_sub(ctx, h, [0, 1]))
        if _u_deg(g) > 0:
            g = _u_monic(ctx, g)
            out.append((g, dd))
            f = _u_divmod(ctx, f, g)[0]
            h = _u_divmod(ctx, h, f)[1]
            if cols is not None:
                cols = [_u_divmod(ctx, c, f)[1] for c in cols[:_u_deg(f)]]
        dd += 1
    if _u_deg(f) > 0:
        out.append((f, _u_deg(f)))
    return out


def _u_frobenius_map(ctx, f, q):
    """The map h -> h^q on residues mod a monic f over F_Q = ctx, for q a
    power of p with Q a power of q.  For q = Q it is F_Q-linear, through
    the columns (x^Q)^i mod f with x^Q from ``_u_frobenius_x``; otherwise
    it is semilinear: each coefficient goes to its q-th power, then
    through the columns (x^q)^i mod f with x^q from ``_u_powx``."""
    if q == ctx.order:
        cols = _u_power_columns(ctx, _u_frobenius_x(ctx, f), f)
        return lambda h: _u_apply_columns(ctx, cols, h)
    cols = _u_power_columns(ctx, _u_powx(ctx, q, f), f)
    power = ctx.pow_t
    return lambda h: _u_apply_columns(ctx, cols, [power(c, q) for c in h])


def _u_half_power(ctx, u, f, q, m, frob):
    """u^((q^m - 1)/2) mod a monic f, for odd q and u reduced mod f, as
    (u u^q ... u^(q^(m-1)))^((q-1)/2) with the q-th powers from ``frob``
    (a ``_u_frobenius_map``; unused when m = 1)."""
    t = acc = u
    for _ in range(m - 1):
        t = frob(t)
        acc = _u_divmod(ctx, _u_mul(ctx, acc, t), f)[1]
    return _u_powmod(ctx, acc, (q - 1) // 2, f)


def _split_once(ctx, f, dd, rng, q) -> list:
    """A proper monic factor of a monic product f of degree-dd irreducibles
    (deg f > dd) by Cantor-Zassenhaus draws from ``rng``.  ctx is F_Q for
    Q = q^j; for odd q a draw u is raised to (Q^dd - 1)/2 = (q^m - 1)/2,
    m = j dd, by ``_u_half_power``, whose q-power map is built once per
    f.  A draw splits f about half the time, so 128 failed draws raise
    SoundnessError."""
    n = _u_deg(f)
    j = 1
    while q ** j < ctx.order:
        j += 1
    m, frob = j * dd, None
    for _ in range(128):
        u = _u_trim([ctx.decode(rng.randrange(ctx.order)) for _ in range(n)])
        if _u_deg(u) < 1:
            continue
        g = _u_gcd(ctx, u, f)
        if _u_deg(g) == 0 and ctx.p == 2:
            # trace map over F_2: T(u) = u + u^2 + ... + u^(2^(k*dd - 1))
            t = acc = u
            for _ in range(ctx.k * dd - 1):
                t = _u_divmod(ctx, _u_mul(ctx, t, t), f)[1]
                acc = _u_add(ctx, acc, t)
            g = _u_gcd(ctx, acc, f)
        elif _u_deg(g) == 0:
            if frob is None and m > 1:
                frob = _u_frobenius_map(ctx, f, q)
            s = _u_half_power(ctx, u, f, q, m, frob)
            g = _u_gcd(ctx, _u_sub(ctx, s, [1]), f)
        if 0 < _u_deg(g) < n:
            return g
    raise SoundnessError("no equal-degree split in 128 draws")


def _equal_degree(ctx, f, dd, rng) -> list[list]:
    """Cantor-Zassenhaus split of a monic product of degree-dd irreducibles."""
    if _u_deg(f) == dd:
        return [f]
    g = _split_once(ctx, f, dd, rng, ctx.order)
    rest, _ = _u_divmod(ctx, f, g)
    return _equal_degree(ctx, g, dd, rng) + _equal_degree(ctx, rest, dd, rng)


def _conjugate_roots(ectx, f, q, rng) -> list[int]:
    """The roots in ectx of a monic f irreducible over F_q and split in ectx:
    degree-1 splits keep the smaller part down to x - r, and the others are
    r^q, ..., r^(q^(d-1)); SoundnessError unless that orbit closes, has d
    distinct values and annihilates f."""
    d = _u_deg(f)
    g = f
    while _u_deg(g) > 1:
        h = _split_once(ectx, g, 1, rng, q)
        g = min(h, _u_divmod(ectx, g, h)[0], key=len)
    roots = [ectx.neg_t(g[0])]
    for _ in range(d):
        roots.append(ectx.pow_t(roots[-1], q))
    if roots.pop() != roots[0] or len(set(roots)) != d or any(
            _u_eval(ectx, f, r) for r in roots):
        raise SoundnessError("Frobenius orbit is not the root set of its factor")
    return roots


def _dd_parts(ctx, dense) -> list[tuple[list, int, int]]:
    """(product, dd, multiplicity) for every distinct-degree part of every
    squarefree part of a dense nonconstant f: each product is monic and
    holds irreducibles of degree dd only."""
    return [(prod, dd, mult)
            for part, mult in _squarefree_decomposition(ctx, dense)
            for prod, dd in _distinct_degree(ctx, part)]


def _irreducibles(ctx, parts, seed: int) -> list[tuple[Polynomial, int]]:
    """The monic irreducible factors with multiplicities of ``_dd_parts``,
    by equal-degree splits drawn from ``random.Random(seed)``, sorted by
    (degree, canonical text)."""
    rng = random.Random(seed)
    out = [(Polynomial.from_dense(ctx, _u_monic(ctx, irr)), mult)
           for prod, dd, mult in parts
           for irr in _equal_degree(ctx, prod, dd, rng)]
    out.sort(key=lambda fm: (fm[0].degree(), fm[0].to_text()))
    return out


def factor_univariate(f: Polynomial, seed: int = 0) -> list[tuple[Polynomial, int]]:
    """Factor a nonzero univariate polynomial into monic irreducibles.

    Returns (factor, exponent) pairs sorted by (degree, canonical text);
    the product of factor^exponent times the unit lc(f) equals f.  The
    randomized equal-degree stage draws from ``random.Random(seed)``, so
    results are deterministic for a fixed seed.
    """
    if f.nvars != 1:
        raise ValueError("factor_univariate expects a univariate polynomial")
    if f.is_zero:
        raise ZeroInput("cannot factor the zero polynomial")
    ctx = f.ctx
    dense = f.to_dense()
    if _u_deg(dense) == 0:
        return []
    return _irreducibles(ctx, _dd_parts(ctx, dense), seed)


def _u_factor_degrees(ctx, a) -> list[int]:
    """``factor_degrees`` of a dense squarefree a."""
    parts = _distinct_degree(ctx, _u_monic(ctx, a))
    return sorted(d for g, d in parts for _ in range(_u_deg(g) // d))


def factor_degrees(f: Polynomial) -> list[int]:
    """Sorted degrees of the irreducible factors of a squarefree univariate f.

    Precondition: f is squarefree (gcd(f, f') = 1); a repeated factor makes
    the distinct-degree parts hold powers and the count wrong.  Each part g
    of distinct-degree factorization collecting degree-d irreducibles holds
    deg(g)/d of them, so no equal-degree splitting is needed.
    """
    return _u_factor_degrees(f.ctx, f.to_dense())


def _u_discriminant(ctx, a) -> int:
    """The discriminant of a dense polynomial of degree 1, 2 or 3, as a
    rep: 1, b^2 - 4ac for ax^2 + bx + c, and b^2c^2 - 4ac^3 - 4b^3d -
    27a^2d^2 + 18abcd for ax^3 + bx^2 + cx + d.  It is lc^(2n-2)
    prod_{i<j} (r_i - r_j)^2 over the roots r_i, an identity over Z, so in
    every characteristic it is zero exactly when there is a repeated
    root."""
    add, sub, mul, smul = ctx.add_t, ctx.sub_t, ctx.mul_t, ctx.smul_t
    if len(a) == 3:
        c, b, lc = a
        return sub(mul(b, b), smul(4, mul(lc, c)))
    if len(a) == 2:
        return 1
    d, c, b, lc = a
    bc, ad = mul(b, c), mul(lc, d)
    # bc (bc + 18 ad) - 4 (ac c^2 + bd b^2) - 27 (ad)^2
    cubes = add(mul(mul(lc, c), mul(c, c)), mul(mul(b, d), mul(b, b)))
    return sub(sub(mul(bc, add(bc, smul(18, ad))), smul(4, cubes)),
               smul(27, mul(ad, ad)))


def _u_disc_character(ctx, a) -> int:
    """The quadratic character of the discriminant of a dense a of degree
    1, 2 or 3 over F_Q, Q odd: 0 when a has a repeated root, else 1 or -1,
    as disc^((Q-1)/2).  By Stickelberger's theorem a squarefree f of
    degree n with r irreducible factors has chi(disc f) = (-1)^(n-r)
    (Swan, "Factorization of polynomials over finite fields", Pacific J.
    Math. 12, 1962), so a squarefree cubic has factor degrees [1, 2]
    exactly when this is -1, and [1, 1, 1] or [3] when it is 1."""
    disc = _u_discriminant(ctx, a)
    if not disc:
        return 0
    return 1 if ctx.pow_t(disc, ctx.order >> 1) == 1 else -1


def _dense_rows(f: Polynomial, ctx: FieldCtx) -> list[list]:
    """The s-rows of a bivariate f(t, s): row b is the coefficient of s^b
    as a trimmed dense list in t, lifted into ctx (an extension of f's
    field)."""
    rows = [[0] * (f.degree_in(0) + 1) for _ in range(f.degree_in(1) + 1)]
    for (a, b), rep in f.terms.items():
        rows[b][a] = rep
    return _lift_rows(f.ctx, ctx, [_u_trim(row) for row in rows])


def _lift_rows(base: FieldCtx, ctx: FieldCtx, rows: list[list]) -> list[list]:
    """Dense rows on reps of ``base`` lifted into ctx, an extension."""
    if ctx == base:
        return rows
    return [[embed(base, ctx, FqElement(base, rep)).rep if rep else 0
             for rep in row] for row in rows]


def _specializer(base: FieldCtx, rows: list[list], n: int):
    """For a bivariate f(t, s) given by its s-rows on reps of ``base``
    (``_dense_rows``), the map t0 -> f(t0, s), a dense list over t0's
    field, or None unless it has degree n.  The rows are lifted into each
    field on first request, and f(t0, s) is their Horner values at t0."""
    lifted: dict = {base: rows}

    def at(t0: FqElement) -> Optional[list]:
        ctx, t = t0.ctx, t0.rep
        got = lifted.get(ctx)
        if got is None:
            got = lifted[ctx] = _lift_rows(base, ctx, rows)
        spec = _u_trim([_u_eval(ctx, row, t) for row in got])
        return spec if _u_deg(spec) == n else None
    return at


def _squarefree_specializer(base: FieldCtx, rows: list[list], n: int):
    """``_specializer`` screened for squarefreeness as well: None unless
    f(t0, s) has degree n and is squarefree.  Up to degree 3 the test is
    a nonzero discriminant; above it needs only the degree of gcd(f(t0,
    s), its s-derivative), so it runs without inversions."""
    full = _specializer(base, rows, n)

    def at(t0: FqElement) -> Optional[list]:
        spec = full(t0)
        if spec is None:
            return None
        ctx = t0.ctx
        if n <= 3:
            return spec if _u_discriminant(ctx, spec) else None
        der = _u_diff(ctx, spec)
        if not der or _u_deg(_u_prs(ctx, spec, der)) > 0:
            return None
        return spec
    return at


@dataclass(frozen=True)
class RootMultiset:
    """Roots with multiplicities, over the minimal splitting extension."""

    roots: tuple  # tuple[(FqElement, int), ...]
    ext: FieldCtx

    def degree(self) -> int:
        return sum(m for _, m in self.roots)

    def support(self) -> list:
        return [r for r, _ in self.roots]


def splitting_roots(f: Polynomial, ext_cap: int = 12, seed: int = 0) -> RootMultiset:
    """All roots of a univariate f over the smallest extension where it splits.

    The extension degree j is the lcm of the irreducible factor degrees,
    read off the distinct-degree parts; if it exceeds ``ext_cap`` (relative
    to f's own field F_q) the search aborts before any equal-degree split.
    Each irreducible factor is split over F_{q^j} only down to one root r,
    and its other roots are the Frobenius conjugates of r.  Roots are sorted
    by encoding, so the seeded splitting draws never reach the result.
    """
    if f.nvars != 1:
        raise ValueError("splitting_roots expects a univariate polynomial")
    if f.is_zero or f.degree() < 1:
        raise ZeroInput("need a nonconstant polynomial")
    ctx = f.ctx
    parts = _dd_parts(ctx, f.to_dense())
    j = math.lcm(*(dd for _, dd, _ in parts))
    if j > ext_cap:
        raise ExtensionCapExceeded(
            f"splitting needs extension degree {j} > cap {ext_cap}")
    factors = _irreducibles(ctx, parts, seed)
    ectx = ctx if j == 1 else make_field(ctx.p, ctx.k * j)
    rng = random.Random(seed)
    roots: list[tuple[FqElement, int]] = []
    for irr, mult in factors:
        dense = irr.lift_to(ectx).to_dense()
        roots += [(FqElement(ectx, r), mult)
                  for r in _conjugate_roots(ectx, dense, ctx.order, rng)]
    roots.sort(key=lambda rm: rm[0].encoding())
    return RootMultiset(tuple(roots), ectx)


# ---------------------------------------------------------------------------
# Multivariate gcd / exact division / squarefree part
# ---------------------------------------------------------------------------

def exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    """Exact quotient a / b; raises if the division leaves a remainder."""
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero:
        return a
    a._check(b)
    ctx = a.ctx
    if b.degree() == 0:
        inv = FqElement(ctx, ctx.inv_t(next(iter(b.terms.values()))))
        return a * inv
    if a.nvars == 1:
        q, r = _u_divmod(ctx, a.to_dense(), b.to_dense())
        if r:
            raise ValueError("division is not exact")
        return Polynomial.from_dense(ctx, q)
    lt_exp, lt_c = b.leading_term()
    lt_inv = lt_c.inverse()
    rem = a
    qterms: dict = {}
    while not rem.is_zero:
        rexp, rc = rem.leading_term()
        qexp = tuple(x - y for x, y in zip(rexp, lt_exp))
        if any(e < 0 for e in qexp):
            raise ValueError("division is not exact")
        qc = rc * lt_inv
        qterms[qexp] = qc.rep
        rem = rem - Polynomial(ctx, a.nvars, {qexp: qc.rep}) * b
    return Polynomial(ctx, a.nvars, qterms)


def _split_by_var(f: Polynomial, var: int) -> list[Polynomial]:
    """Coefficients of f as a polynomial in ``var`` (same ring, var-degree 0)."""
    d = f.degree_in(var)
    coeffs = [dict() for _ in range(d + 1)]
    for exp, rep in f.terms.items():
        e = exp[var]
        nexp = exp[:var] + (0,) + exp[var + 1:]
        coeffs[e][nexp] = rep
    return [Polynomial(f.ctx, f.nvars, c) for c in coeffs]


def _join_by_var(coeffs: Sequence[Polynomial], var: int, ctx, nvars) -> Polynomial:
    out: dict = {}
    for e, c in enumerate(coeffs):
        for exp, rep in c.terms.items():
            nexp = exp[:var] + (e,) + exp[var + 1:]
            out[nexp] = rep
    return Polynomial(ctx, nvars, out)


def content_in(f: Polynomial, var: int) -> Polynomial:
    """Gcd of the coefficients of f viewed as a polynomial in ``var``."""
    coeffs = _split_by_var(f, var)
    acc = Polynomial.zero(f.ctx, f.nvars)
    for c in coeffs:
        if not c.is_zero:
            acc = poly_gcd(acc, c)
    return acc


def _prem(A: list[Polynomial], B: list[Polynomial], ctx, nvars):
    """Pseudo-remainder of recursive-dense A by B: lc(B)^(dA-dB+1) A mod B."""
    dB = len(B) - 1
    lcB = B[-1]
    R = A[:]
    e = len(A) - 1 - dB + 1
    while R and len(R) - 1 >= dB:
        lead = R[-1]
        off = len(R) - 1 - dB
        R = [c * lcB for c in R]
        for i in range(dB + 1):
            R[off + i] = R[off + i] - lead * B[i]
        R.pop()
        while R and R[-1].is_zero:
            R.pop()
        e -= 1
    if e > 0 and R:
        scale = lcB ** e
        R = [c * scale for c in R]
    return R


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Gcd in up to three variables, normalized to leading coefficient 1."""
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    f._check(g)
    ctx = f.ctx
    if f.degree() == 0 or g.degree() == 0:
        return Polynomial.const(ctx, f.nvars, 1)
    if f.nvars == 1:
        return Polynomial.from_dense(ctx, _u_gcd(ctx, f.to_dense(), g.to_dense()))
    # choose the last variable in which either has positive degree
    var = max(i for i in range(f.nvars)
              if f.degree_in(i) > 0 or g.degree_in(i) > 0)
    df, dg = f.degree_in(var), g.degree_in(var)
    if df == 0 or dg == 0:
        # the gcd cannot involve var; reduce through the content
        a = f if df == 0 else content_in(f, var)
        b = g if dg == 0 else content_in(g, var)
        return poly_gcd(a, b)
    cf, cg = content_in(f, var), content_in(g, var)
    pf, pg = exact_div(f, cf), exact_div(g, cg)
    A, B = _split_by_var(pf, var), _split_by_var(pg, var)
    if len(A) < len(B):
        A, B = B, A
    while True:
        R = _prem(A, B, ctx, f.nvars)
        if not R:
            gcd_pp = _join_by_var(B, var, ctx, f.nvars)
            break
        if len(R) - 1 == 0:
            gcd_pp = Polynomial.const(ctx, f.nvars, 1)
            break
        Rpoly = _join_by_var(R, var, ctx, f.nvars)
        Rpp = exact_div(Rpoly, content_in(Rpoly, var))
        A, B = B, _split_by_var(Rpp, var)
    cont = poly_gcd(cf, cg)
    result = cont * exact_div(gcd_pp, content_in(gcd_pp, var))
    return result.monic()


def _poly_pth_root(f: Polynomial) -> Polynomial:
    ctx = f.ctx
    p = ctx.p
    root_exp = p ** (ctx.k - 1)
    out = {}
    for exp, rep in f.terms.items():
        if any(e % p for e in exp):
            raise ValueError("polynomial is not a p-th power")
        out[tuple(e // p for e in exp)] = ctx.pow_t(rep, root_exp)
    return Polynomial(ctx, f.nvars, out)


def squarefree_part(f: Polynomial) -> Polynomial:
    """Product of the distinct irreducible factors of f (monic-normalized).

    Handles the inseparable case (all partials zero) by p-th-root descent.
    """
    if f.is_zero:
        raise ZeroInput("squarefree part of zero is undefined")
    if f.degree() == 0:
        return Polynomial.const(f.ctx, f.nvars, 1)
    partials = [f.derivative(i) for i in range(f.nvars)]
    if all(d.is_zero for d in partials):
        return squarefree_part(_poly_pth_root(f))
    c = f
    for d in partials:
        if not d.is_zero:
            c = poly_gcd(c, d)
    w = exact_div(f, c).monic()           # product of factors with p-coprime mult
    r = c
    while True:
        h = poly_gcd(r, w)
        if h.degree() == 0:
            break
        r = exact_div(r, h)
    # r = product of factors with multiplicity divisible by p, full power
    if r.degree() == 0:
        return w.monic()
    return (w * squarefree_part(_poly_pth_root(r))).monic()


# ---------------------------------------------------------------------------
# Resultants
# ---------------------------------------------------------------------------

def _res_multi(A: list[Polynomial], B: list[Polynomial], ctx, nvars) -> Polynomial:
    """Standard resultant by the subresultant PRS over the coefficient ring."""
    one = Polynomial.const(ctx, nvars, 1)
    sign = 1
    dA, dB = len(A) - 1, len(B) - 1
    if dA < dB:
        if (dA * dB) % 2 == 1:
            sign = -sign
        A, B = B, A
        dA, dB = dB, dA
    if dB == 0:
        res = B[0] ** dA if dA > 0 else one
        return res if sign == 1 else -res
    g = one
    h = one
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if (dA % 2 == 1) and (dB % 2 == 1):
            sign = -sign
        R = _prem(A, B, ctx, nvars)
        A = B
        denom = g * h ** delta
        B = [exact_div(c, denom) for c in R] if R else []
        g = A[-1]
        if delta == 0:
            pass
        elif delta == 1:
            h = g
        else:
            h = exact_div(g ** delta, h ** (delta - 1))
        if not B:
            return Polynomial.zero(ctx, nvars)
        if len(B) - 1 == 0:
            break
    dA = len(A) - 1
    lcB = B[0]
    if dA == 1:
        res = lcB
    else:
        res = exact_div(lcB ** dA, h ** (dA - 1))
    return res if sign == 1 else -res


def resultant(f: Polynomial, g: Polynomial, var: int = 0) -> Polynomial:
    """Resultant of f and g with respect to one variable.

    Zero iff f and g share a factor of positive degree in ``var``; equal to
    the determinant of the Sylvester matrix of f and g in ``var``.  For
    univariate inputs the result is a constant polynomial.
    """
    if f.is_zero or g.is_zero:
        raise ZeroInput("resultant of zero polynomial")
    f._check(g)
    ctx = f.ctx
    if f.degree_in(var) == 0 and g.degree_in(var) == 0:
        return Polynomial.const(ctx, f.nvars, 1)
    A = _split_by_var(g, var)
    B = _split_by_var(f, var)
    return _res_multi(A, B, ctx, f.nvars)
