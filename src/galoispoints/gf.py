"""Exact arithmetic in finite prime fields and their extensions.

F_{p^k} is modelled as the quotient F_p[x]/(m(x)) for a monic irreducible
modulus m of degree k.  Elements are coefficient vectors of length k over
F_p, always kept reduced; all arithmetic is exact.

Design notes
------------
* ``make_field(p, k)`` is deterministic: the modulus is the first monic
  irreducible polynomial in base-p counting order of its non-leading
  coefficients.  This makes every derived object (embeddings, roots of
  unity, reports) reproducible across runs and platforms.
* An algebraic closure is never materialised.  Callers that need roots
  request the smallest extension in which the relevant polynomial splits;
  compatible embeddings F_{p^a} -> F_{p^b} (a | b) are computed once per
  pair and cached.  Each embedding maps the source generator to the
  canonical root of the source modulus inside the multiplicative copy of
  the subfield, so the same homomorphism is used every time.
* ``FqElement`` is immutable.  ``FieldCtx`` is not: its multiplicative
  generator (``_gen``) and unit-group factorization (``_unit_factors``) are
  filled in lazily on first use.  The embedding and descent tables
  (``_EMBED_CACHE``, ``_DESCEND_CACHE``) are module-level dicts that grow
  without bound, one entry per field pair.  Nothing here takes a lock.

Characteristic-0 statements are emulated by choosing a prime p that does
not divide the degrees involved; this is an approximation of tameness, not
an equivalence, and is documented where it is used.
"""

from __future__ import annotations

import functools
from typing import Iterator, Optional

from .errors import (
    IncompatibleFields,
    InputError,
    IrreducibleSearchExhausted,
    NonPrimeCharacteristic,
    PDividesN,
)


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk-scale inputs)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, as a prime -> exponent map."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Dense univariate arithmetic over F_p, used only for modulus bookkeeping.
# Polynomials are lists of ints in [0, p), ascending degree, no trailing zeros.
# ---------------------------------------------------------------------------

def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return _fp_trim(out)


def _fp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a nonzero b."""
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - len(b) + 1, 1)
    rem = a[:]
    db = len(b) - 1
    while rem and len(rem) - 1 >= db:
        c = (rem[-1] * inv) % p
        off = len(rem) - 1 - db
        if c:
            q[off] = c
            for i, bi in enumerate(b):
                rem[off + i] = (rem[off + i] - c * bi) % p
        rem.pop()
    return _fp_trim(q), _fp_trim(rem)


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _fp_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _fp_trim([(x - y) % p for x, y in zip(a, b)])


def _fp_powmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    result = [1]
    base = _fp_divmod(a, m, p)[1]
    while e:
        if e & 1:
            result = _fp_divmod(_fp_mul(result, base, p), m, p)[1]
        base = _fp_divmod(_fp_mul(base, base, p), m, p)[1]
        e >>= 1
    return result


def _fp_is_irreducible(m: list[int], p: int) -> bool:
    """Rabin irreducibility test for a monic m over F_p."""
    k = len(m) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    x = [0, 1]
    # x^(p^j) mod m for j = 0..k
    frob = [x]
    h = x
    for _ in range(k):
        h = _fp_powmod(h, p, m, p)
        frob.append(h)
    if _fp_sub(frob[k], x, p):
        return False
    for r in factorize(k):
        if len(_fp_gcd(_fp_sub(frob[k // r], x, p), m, p)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Field contexts
# ---------------------------------------------------------------------------

class FieldCtx:
    """The field F_{p^k} presented as F_p[x]/(modulus).

    Raw element representations are tuples of k ints in [0, p); the
    ``*_t`` methods operate on those tuples directly and are the fast path
    used by the polynomial layer.  ``element`` wraps a representation in an
    :class:`FqElement` for the public API.

    Two contexts interoperate only if they are equal (same p, k and
    modulus); cross-field data must be moved explicitly with :func:`embed`.
    """

    __slots__ = ("p", "k", "modulus", "order", "_red", "_mod_bits", "_gen",
                 "_unit_factors", "_hash")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...],
                 _validate: bool = True):
        if _validate:
            if not is_prime(p):
                raise NonPrimeCharacteristic(f"{p} is not prime")
            if k < 1:
                raise IncompatibleFields("extension degree must be >= 1")
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise IncompatibleFields("modulus must be monic of degree k")
            if k > 1 and not _fp_is_irreducible(list(modulus), p):
                raise IrreducibleSearchExhausted(
                    f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.k = k
        self.modulus = tuple(c % p for c in modulus)
        self.order = p ** k
        # reduction table: x^(k+i) mod modulus, i = 0..k-2
        red = []
        cur = [(-c) % p for c in self.modulus[:-1]]  # x^k
        red.append(tuple(cur))
        for _ in range(k - 2):
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [(c + top * r) % p for c, r in zip(cur, red[0])]
            red.append(tuple(cur))
        self._red = tuple(red)
        self._mod_bits = sum(c << i for i, c in enumerate(self.modulus)) if p == 2 else 0
        self._gen: Optional[tuple[int, ...]] = None
        self._unit_factors: Optional[dict[int, int]] = None
        self._hash = hash((p, k, self.modulus))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (self is other) or (
            isinstance(other, FieldCtx)
            and self.p == other.p and self.k == other.k
            and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"

    @property
    def spec(self) -> str:
        """Field spec string "p^k" used in files and reports."""
        return f"{self.p}^{self.k}"

    # -- raw tuple arithmetic ------------------------------------------------

    @property
    def zero_t(self) -> tuple[int, ...]:
        return (0,) * self.k

    @property
    def one_t(self) -> tuple[int, ...]:
        return (1,) + (0,) * (self.k - 1)

    def add_t(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub_t(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg_t(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def smul_t(self, c: int, a):
        p = self.p
        c %= p
        return tuple((c * x) % p for x in a)

    def mul_t(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return ((a[0] * b[0]) % p,)
        if p == 2:
            return self._mul2(a, b)
        conv = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = [c % p for c in conv[:k]]
        red = self._red
        for idx in range(k, 2 * k - 1):
            c = conv[idx] % p
            if c:
                row = red[idx - k]
                for i in range(k):
                    ri = row[i]
                    if ri:
                        out[i] = (out[i] + c * ri) % p
        return tuple(out)

    def _mul2(self, a, b):
        k = self.k
        ai = 0
        for i in range(k):
            if a[i]:
                ai |= 1 << i
        bi = 0
        for i in range(k):
            if b[i]:
                bi |= 1 << i
        acc = 0
        while ai:
            low = ai & -ai
            acc ^= bi << low.bit_length() - 1
            ai ^= low
        mod = self._mod_bits
        for j in range(2 * k - 2, k - 1, -1):
            if acc >> j & 1:
                acc ^= mod << (j - k)
        return tuple((acc >> i) & 1 for i in range(k))

    def inv_t(self, a):
        p, k = self.p, self.k
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        if k == 1:
            return (pow(a[0], p - 2, p),)
        # extended Euclid in F_p[x] against the modulus
        r0, r1 = list(self.modulus), _fp_trim(list(a))
        s0, s1 = [], [1]
        while r1:
            q, rem = _fp_divmod(r0, r1, p)
            r0, r1 = r1, rem
            s0, s1 = s1, _fp_sub(s0, _fp_mul(q, s1, p), p)
        lead_inv = pow(r0[-1], p - 2, p)
        res = [(c * lead_inv) % p for c in s0]
        res = _fp_divmod(res, list(self.modulus), p)[1]
        return tuple(res + [0] * (k - len(res)))

    def pow_t(self, a, e: int):
        if e < 0:
            a = self.inv_t(a)
            e = -e
        result = self.one_t
        base = a
        while e:
            if e & 1:
                result = self.mul_t(result, base)
            base = self.mul_t(base, base)
            e >>= 1
        return result

    # -- element factory and enumeration -------------------------------------

    def element(self, v) -> "FqElement":
        """Build an element from an int encoding, an int constant, an
        iterable of F_p digits, or another FqElement of this context."""
        if isinstance(v, FqElement):
            if v.ctx != self:
                raise IncompatibleFields("element belongs to another field")
            return v
        if isinstance(v, int):
            if 0 <= v < self.p:
                return FqElement(self, (v,) + (0,) * (self.k - 1))
            if self.k == 1 or v < 0:
                return FqElement(self, ((v % self.p),) + (0,) * (self.k - 1))
            return FqElement(self, self.decode(v))
        rep = tuple(int(c) % self.p for c in v)
        if len(rep) != self.k:
            raise IncompatibleFields("representation length mismatch")
        return FqElement(self, rep)

    @property
    def zero(self) -> "FqElement":
        return FqElement(self, self.zero_t)

    @property
    def one(self) -> "FqElement":
        return FqElement(self, self.one_t)

    def encode(self, rep: tuple[int, ...]) -> int:
        out = 0
        for c in reversed(rep):
            out = out * self.p + c
        return out

    def decode(self, code: int) -> tuple[int, ...]:
        if not 0 <= code < self.order:
            raise ValueError(f"encoding {code} out of range for {self!r}")
        rep = []
        for _ in range(self.k):
            rep.append(code % self.p)
            code //= self.p
        return tuple(rep)

    def elements(self) -> Iterator["FqElement"]:
        """All field elements in canonical (encoding) order."""
        for code in range(self.order):
            yield FqElement(self, self.decode(code))


class FqElement:
    """An element of a :class:`FieldCtx`, immutable, with exact arithmetic."""

    __slots__ = ("ctx", "rep")

    def __init__(self, ctx: FieldCtx, rep: tuple[int, ...]):
        self.ctx = ctx
        self.rep = rep

    def _coerce(self, other) -> "FqElement":
        if isinstance(other, FqElement):
            if other.ctx != self.ctx:
                raise IncompatibleFields(
                    f"cannot mix {self.ctx!r} and {other.ctx!r}; embed first")
            return other
        if isinstance(other, int):
            return self.ctx.element(other % self.ctx.p)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FqElement(self.ctx, self.ctx.add_t(self.rep, o.rep))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FqElement(self.ctx, self.ctx.sub_t(self.rep, o.rep))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FqElement(self.ctx, self.ctx.sub_t(o.rep, self.rep))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FqElement(self.ctx, self.ctx.mul_t(self.rep, o.rep))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FqElement(self.ctx, self.ctx.mul_t(self.rep, self.ctx.inv_t(o.rep)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FqElement(self.ctx, self.ctx.mul_t(o.rep, self.ctx.inv_t(self.rep)))

    def __pow__(self, e: int):
        return FqElement(self.ctx, self.ctx.pow_t(self.rep, e))

    def __neg__(self):
        return FqElement(self.ctx, self.ctx.neg_t(self.rep))

    def __bool__(self) -> bool:
        return any(self.rep)

    def __eq__(self, other) -> bool:
        if isinstance(other, FqElement):
            return self.ctx == other.ctx and self.rep == other.rep
        if isinstance(other, int):
            return self.rep == ((other % self.ctx.p),) + (0,) * (self.ctx.k - 1)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ctx._hash, self.rep))

    def inverse(self) -> "FqElement":
        return FqElement(self.ctx, self.ctx.inv_t(self.rep))

    def encoding(self) -> int:
        """Base-p integer encoding; used in text forms and reports."""
        return self.ctx.encode(self.rep)

    def multiplicative_order(self) -> int:
        if not any(self.rep):
            raise ZeroDivisionError("order of zero is undefined")
        n = self.ctx.order - 1
        for q, e in _unit_group_factors(self.ctx).items():
            while n % q == 0 and self.ctx.pow_t(self.rep, n // q) == self.ctx.one_t:
                n //= q
        return n

    def __repr__(self) -> str:
        if self.ctx.k == 1:
            return f"Fq({self.rep[0]} in {self.ctx!r})"
        return f"Fq({self.encoding()} in {self.ctx!r})"


# ---------------------------------------------------------------------------
# Public constructors and maps
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def make_field(p: int, k: int = 1) -> FieldCtx:
    """Return F_{p^k} with the canonical deterministic modulus.

    For k = 1 the modulus is x (prime-field convention).  For k > 1 the
    modulus is x^k + c_{k-1} x^{k-1} + ... + c_0 for the smallest value of
    sum(c_i * p^i) that makes the polynomial irreducible.
    """
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"{p} is not prime")
    if k < 1:
        raise IncompatibleFields("extension degree must be >= 1")
    if k == 1:
        return FieldCtx(p, 1, (0, 1), _validate=False)
    for code in range(p ** k):
        coeffs = []
        c = code
        for _ in range(k):
            coeffs.append(c % p)
            c //= p
        m = coeffs + [1]
        if _fp_is_irreducible(m, p):
            return FieldCtx(p, k, tuple(m), _validate=False)
    raise IrreducibleSearchExhausted(
        f"no irreducible modulus of degree {k} over GF({p})")


def _unit_group_factors(ctx: FieldCtx) -> dict[int, int]:
    if ctx._unit_factors is None:
        ctx._unit_factors = factorize(ctx.order - 1)
    return ctx._unit_factors


def multiplicative_generator(ctx: FieldCtx) -> FqElement:
    """The canonical generator of the unit group: the first element in
    encoding order whose order is p^k - 1.  Cached on the context."""
    if ctx._gen is not None:
        return FqElement(ctx, ctx._gen)
    n = ctx.order - 1
    primes = list(_unit_group_factors(ctx))
    for code in range(2, ctx.order):
        rep = ctx.decode(code)
        if all(ctx.pow_t(rep, n // q) != ctx.one_t for q in primes):
            ctx._gen = rep
            return FqElement(ctx, rep)
    raise IrreducibleSearchExhausted("no multiplicative generator found")


def nth_root_of_unity(ctx: FieldCtx, n: int) -> Optional[FqElement]:
    """An element of exact multiplicative order n, or None if n does not
    divide p^k - 1.  Deterministic: a fixed power of the canonical
    generator."""
    if n < 1:
        raise ValueError("n must be positive")
    if n % ctx.p == 0:
        raise PDividesN(f"characteristic {ctx.p} divides {n}")
    if n == 1:
        return ctx.one
    if (ctx.order - 1) % n != 0:
        return None
    g = multiplicative_generator(ctx)
    return FqElement(ctx, ctx.pow_t(g.rep, (ctx.order - 1) // n))


_EMBED_CACHE: dict[tuple[tuple, tuple], tuple[tuple[int, ...], ...]] = {}


def embed(src: FieldCtx, dst: FieldCtx, a: FqElement) -> FqElement:
    """Image of ``a`` under the fixed field homomorphism F_{p^a} -> F_{p^b}.

    Requires src.p == dst.p and src.k | dst.k.  The map sends the source
    generator to the first root of the source modulus on the canonical
    subfield cycle of ``dst``, so repeated calls agree.
    """
    if a.ctx != src:
        raise IncompatibleFields("element does not belong to src")
    if src.p != dst.p or dst.k % src.k != 0:
        raise IncompatibleFields(
            f"no embedding {src!r} -> {dst!r} (degree divisibility fails)")
    if src == dst:
        return a
    if src.k == 1:
        return FqElement(dst, (a.rep[0],) + (0,) * (dst.k - 1))
    key = ((src.p, src.k, src.modulus), (dst.p, dst.k, dst.modulus))
    powers = _EMBED_CACHE.get(key)
    if powers is None:
        # subfield units of dst = <gen^((q_dst-1)/(q_src-1))>
        step = (dst.order - 1) // (src.order - 1)
        delta = dst.pow_t(multiplicative_generator(dst).rep, step)
        root = None
        cur = dst.one_t
        for _ in range(src.order - 1):
            # evaluate src.modulus at cur
            acc = dst.zero_t
            for c in reversed(src.modulus):
                acc = dst.mul_t(acc, cur)
                if c:
                    acc = dst.add_t(acc, dst.smul_t(c, dst.one_t))
            if acc == dst.zero_t:
                root = cur
                break
            cur = dst.mul_t(cur, delta)
        if root is None:
            raise IncompatibleFields("source modulus has no root in dst")
        pw = [dst.one_t]
        for _ in range(src.k - 1):
            pw.append(dst.mul_t(pw[-1], root))
        powers = tuple(pw)
        _EMBED_CACHE[key] = powers
    acc = dst.zero_t
    for digit, pw in zip(a.rep, powers):
        if digit:
            acc = dst.add_t(acc, dst.smul_t(digit, pw))
    return FqElement(dst, acc)


def common_field(c1: FieldCtx, c2: FieldCtx) -> FieldCtx:
    """Smallest canonical context both arguments embed into."""
    if c1.p != c2.p:
        raise IncompatibleFields("different characteristics")
    if c1 == c2:
        return c1
    if c2.k % c1.k == 0:
        return c2
    if c1.k % c2.k == 0:
        return c1
    import math
    return make_field(c1.p, math.lcm(c1.k, c2.k))


def lift(a: FqElement, dst: FieldCtx) -> FqElement:
    """Embed ``a`` into ``dst`` (identity if already there)."""
    if a.ctx == dst:
        return a
    return embed(a.ctx, dst, a)


_DESCEND_CACHE: dict[tuple[tuple, tuple], dict] = {}


def try_descend(a: FqElement, sub: FieldCtx) -> Optional[FqElement]:
    """The preimage of ``a`` under sub -> a.ctx, or None when a is outside
    the canonical subfield copy (the Frobenius-fixed set of size |sub|)."""
    if a.ctx == sub:
        return a
    if a.ctx.p != sub.p or a.ctx.k % sub.k != 0:
        return None
    if a.ctx.pow_t(a.rep, sub.order) != a.rep:
        return None
    key = ((sub.p, sub.k, sub.modulus), (a.ctx.p, a.ctx.k, a.ctx.modulus))
    reverse = _DESCEND_CACHE.get(key)
    if reverse is None:
        reverse = {embed(sub, a.ctx, x).rep: x for x in sub.elements()}
        _DESCEND_CACHE[key] = reverse
    return reverse.get(a.rep)


def parse_field_spec(spec: str) -> FieldCtx:
    """Parse a "p^k" (or bare "p") field spec string; InputError unless p
    is prime and k >= 1."""
    ps, caret, ks = spec.strip().partition("^")
    try:
        p, k = int(ps), int(ks) if caret else 1
    except ValueError:
        raise InputError(f"field spec {spec!r} is not \"p^k\"") from None
    if not is_prime(p):
        raise InputError(f"field spec {spec!r}: {p} is not prime")
    if k < 1:
        raise InputError(f"field spec {spec!r}: extension degree must be >= 1")
    return make_field(p, k)
