"""Exact arithmetic in finite prime fields and their extensions.

F_{p^k} is modelled as the quotient F_p[x]/(m(x)) for a monic irreducible
modulus m of degree k.  An element is the residue of a coefficient vector
(c_0, ..., c_{k-1}) over F_p; its *encoding* is the integer sum(c_i p^i),
which is what files and reports print.  Internally every element is one
Python ``int``, its *rep*; all arithmetic is exact.

Representations
---------------
A :class:`FieldCtx` picks its arithmetic once, at construction, from p and
k alone:

* prime fields (k = 1): the rep is the residue in [0, p), with integer
  arithmetic mod p.
* extension fields with at most ``_TABLE_BOUND`` = 4096 elements: the rep
  is the encoding.  Multiplication, inversion and powers read log/antilog
  tables over the canonical multiplicative generator; for odd p, addition,
  subtraction and negation read Zech-logarithm and negation tables too.
  The tables are ``array('H')`` buffers built on the first arithmetic
  call, about 12 bytes per element for odd p and 6 for p = 2: at most
  45 KB per field.
* larger fields of characteristic 2: the rep is the bit polynomial, again
  the encoding.  Addition is xor, multiplication shift-and-xor with
  reduction by the modulus, inversion the binary extended Euclid.
* larger fields of odd characteristic: the rep packs digit i into bits
  [i w, (i + 1) w), with a slot width w (a power of two: at most 64
  bits up to 19^29 and 31^17) derived once from p and k so that no slot
  of any intermediate overflows.  Addition adds slot-wise within one
  int and subtracts p from each slot that reached p.  Multiplication is a
  fixed sequence of big-int operations on whole reps: the product, a
  polynomial Barrett reduction mod m through the packed constants
  floor(x^(2k-1) / m) and -m, and an exact slot-wise Barrett division by
  p.  Inversion is the Itoh-Tsujii norm map: a^-1 = N(a)^-1 a^(p + ... +
  p^(k-1)), with the Frobenius powers as precomputed F_p-linear maps on
  the slots.  Only this shape's rep differs from the encoding;
  ``encode``/``decode`` convert at I/O and for sort keys.

A constant c in [0, p) has rep c in every shape, so 0 and 1 are the reps
of zero and one everywhere, and a zero test is the int's truthiness.

Design notes
------------
* ``make_field(p, k)`` is deterministic: the modulus is the first monic
  irreducible polynomial in base-p counting order of its non-leading
  coefficients.  This makes every derived object (embeddings, roots of
  unity, reports) reproducible across runs and platforms.
* An algebraic closure is never materialised.  Callers that need roots
  request the smallest extension in which the relevant polynomial splits;
  one embedding F_{p^a} -> F_{p^b} (a | b) per pair is computed once and
  cached.  Each embedding maps the source generator to the canonical root
  of the source modulus: the one of least index i on the subfield cycle
  delta^i, delta = g^((p^b - 1)/(p^a - 1)) for the canonical generator g
  of F_{p^b}, so the same homomorphism is used every time.  The roots
  come from the root finder of ``polyring`` and the index from a discrete
  log by Pohlig-Hellman with baby-step giant-step per digit
  (:func:`_subgroup_log`).  A first embedding costs about sqrt(l)
  multiplications per digit, for the largest prime l of p^a - 1, plus
  the factorization of p^b - 1 that :func:`multiplicative_generator`
  does anyway.  Descent (:func:`try_descend`) solves an F_p-linear system
  on the digits of the powers of that root, eliminated once per pair.
  The embeddings are fixed per pair but not compatible: through an
  intermediate field the composite can differ from the direct map by a
  power of Frobenius (F_9 -> F_81 -> F_6561 sends the generator of F_9 to
  the conjugate of its direct image).
* ``FqElement`` is immutable.  ``FieldCtx`` is not: its tables, its
  multiplicative generator (``_gen``) and unit-group factorization
  (``_unit_factors``) are filled in lazily on first use.  The embedding
  and descent caches (``_EMBED_CACHE``, ``_DESCEND_CACHE``) are
  module-level dicts that grow without bound, one entry of k reps or a
  k x k matrix over F_p per field pair.
  Nothing here takes a lock.

Characteristic-0 statements are emulated by choosing a prime p that does
not divide the degrees involved; this is an approximation of tameness, not
an equivalence, and is documented where it is used.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from array import array
from typing import Iterator, Optional

from .errors import (
    IncompatibleFields,
    InputError,
    IrreducibleSearchExhausted,
    NonPrimeCharacteristic,
    PDividesN,
)

# Extension fields with at most this many elements do their arithmetic
# through log tables (see the module docstring).
_TABLE_BOUND = 1 << 12

# The raw operations every FieldCtx binds, in the order the builders return
_OPS = ("add_t", "sub_t", "neg_t", "smul_t", "mul_t", "inv_t", "pow_t")


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


def _code_digits(code: int, p: int, k: int) -> list[int]:
    """The k base-p digits of an encoding, lowest first."""
    out = []
    for _ in range(k):
        code, d = divmod(code, p)
        out.append(d)
    return out


def _digits_code(digits, p: int) -> int:
    """The encoding of a digit vector, lowest digit first."""
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


def _is_irreducible(m: list[int], p: int) -> bool:
    """Rabin irreducibility test for a monic m of degree k over F_p:
    x^(p^k) = x mod m and gcd(x^(p^(k/r)) - x, m) = 1 for each prime r | k.
    x^p comes from left-to-right squaring and each later x^(p^j) from the
    p-power matrix, whose columns are x^(pi) mod m (Frobenius fixes F_p);
    the gcds are tested by degree alone, without inversions."""
    from .polyring import (_u_apply_columns, _u_power_columns, _u_powx,
                           _u_prs, _u_sub)
    k = len(m) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    fp = _prime_field(p)
    x = [0, 1]
    cols = _u_power_columns(fp, _u_powx(fp, p, m), m)
    # x^(p^j) mod m for j = 0..k
    frob = [x]
    for _ in range(k):
        frob.append(_u_apply_columns(fp, cols, frob[-1]))
    if _u_sub(fp, frob[k], x):
        return False
    for r in factorize(k):
        if len(_u_prs(fp, m, _u_sub(fp, frob[k // r], x))) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Arithmetic of each field shape.  A builder returns the closures for _OPS
# on int reps; see the module docstring for the representations.
# ---------------------------------------------------------------------------

def _square_and_multiply(mul, inv):
    def power(a, e):
        if e < 0:
            a, e = inv(a), -e
        result = 1
        while e:
            if e & 1:
                result = mul(result, a)
            e >>= 1
            if e:
                a = mul(a, a)
        return result
    return power


def _prime_ops(p: int) -> tuple:
    def add(a, b):
        return (a + b) % p

    def sub(a, b):
        return (a - b) % p

    def neg(a):
        return -a % p

    def smul(c, a):
        return c * a % p

    def mul(a, b):
        return a * b % p

    def inv(a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, p)

    def power(a, e):
        if e < 0:
            a, e = inv(a), -e
        return pow(a, e, p)

    return add, sub, neg, smul, mul, inv, power


def _bitpoly_ops(k: int, modulus: tuple) -> tuple:
    m = _digits_code(modulus, 2)

    def add(a, b):
        return a ^ b

    def neg(a):
        return a

    def smul(c, a):
        return a if c & 1 else 0

    def mul(a, b):
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
            if a >> k:
                a ^= m
        return acc

    def inv(a):
        # binary extended Euclid: a*g1 = u and a*g2 = v mod m throughout
        if not a:
            raise ZeroDivisionError("inverse of zero")
        u, v, g1, g2 = a, m, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    return add, add, neg, smul, mul, inv, _square_and_multiply(mul, inv)


def _packed_ops(p: int, k: int, modulus: tuple) -> tuple:
    """Packed-slot arithmetic for odd p: the _OPS closures, then the
    (digits, from_digits) converters between a rep and its digit list."""
    # Slot bounds, for operands with every slot in [0, p).  A product c =
    # a*b holds at most k terms (p-1)^2 in a slot: bc.  Its high half times
    # MU (below) holds at most k-1 terms bc*(p-1): bq, which bounds the
    # quotient q.  c + q*MNEG holds at most bc + (k-1)*bq*(p-1) = bt in a
    # slot, and bt >= bc also bounds c*a and a Frobenius image.  A slot
    # t_i <= bt < 2^N goes to t_i mod p as t_i - floor(t_i bm / 2^bshift) p,
    # with bshift = N + bitlen(p) and bm = ceil(2^bshift / p): that quotient
    # is exact for every t_i < 2^N (Granlund and Montgomery, "Division by
    # invariant integers using multiplication", 1994, theorem 4.2).  The
    # width w is the first power of two above bt*bm, so no slot of any
    # intermediate carries into the next, and p < 2^(w-1) as add needs.
    bc = k * (p - 1) ** 2
    bq = (k - 1) * bc * (p - 1)
    bt = bc + (k - 1) * bq * (p - 1)
    bshift = bt.bit_length() + p.bit_length()
    bm = -(-(1 << bshift) // p)
    w = 8
    while (bt * bm) >> w:
        w *= 2
    nbytes = w // 8
    code = next((t for t in "BHIQ" if array(t).itemsize == nbytes), None)
    if code is not None:
        def unpack(x):
            return array(code, x.to_bytes(k * nbytes, "little"))

        def pack(ds):
            return int.from_bytes(array(code, ds).tobytes(), "little")
    else:
        mask = (1 << w) - 1

        def unpack(x):
            return [x >> (i * w) & mask for i in range(k)]

        def pack(ds):
            return sum(d << (i * w) for i, d in enumerate(ds))

    ones = sum(1 << (i * w) for i in range(k))
    half, shift = 1 << (w - 1), w - 1
    full, bias, tops = p * ones, (half - p) * ones, half * ones
    qmask = ((1 << (w - bshift)) - 1) * ones

    def add(a, b):
        # a slot holding s in [0, 2p) gets its top bit set by s + half - p
        # exactly when s >= p, and loses p then
        s = a + b
        return s - (((s + bias) & tops) >> shift) * p

    def sub(a, b):
        s = a + full - b
        return s - (((s + bias) & tops) >> shift) * p

    def neg(a):
        s = full - a
        return s - (((s + bias) & tops) >> shift) * p

    def reduce(t):
        # every slot t_i <= bt to t_i mod p
        return t - (t * bm >> bshift & qmask) * p

    def smul(c, a):
        return reduce(c % p * a)

    # Barrett reduction mod m (von zur Gathen and Gerhard, Modern Computer
    # Algebra, 9.1): with MU = floor(x^(2k-1) / m), the quotient of c
    # (degree <= 2k-2) by m is q = floor((c div x^k) MU / x^(k-1)), and
    # c mod m = (c - q m) mod x^k = (c + q MNEG) mod x^k for MNEG = -m.
    # Both maps are F_p-linear, so they run on unreduced slots.  (c div
    # x^k) MU has 2k-2 slots, so the shift leaves exactly q's k-1.
    from .polyring import _u_divmod
    mu = _u_divmod(_prime_field(p), [0] * (2 * k - 1) + [1], list(modulus))[0]
    mu, mneg = pack(mu), pack([-c % p for c in modulus[:-1]])
    kw, k1w, low = k * w, (k - 1) * w, (1 << k * w) - 1

    def mul(a, b):
        c = a * b
        q = (c >> kw) * mu >> k1w
        t = (c + q * mneg) & low
        return t - (t * bm >> bshift & qmask) * p       # reduce(t), inline

    def frob(images, a):
        # the F_p-linear map sending x^i to images[i], applied to a
        return reduce(sum(map(operator.mul, unpack(a), images)))

    def frob_images(y):
        out = [1]
        for _ in range(k - 1):
            out.append(mul(out[-1], y))
        return out

    def inv(a):
        # Itoh and Tsujii (Information and Computation 78, 1988): b_j =
        # a^(1 + p + ... + p^(j-1)) climbs the binary prefixes j of k - 1
        # by b_2j = b_j sigma^j(b_j) and b_(j+1) = a sigma(b_j), for sigma
        # the Frobenius a -> a^p.  Then r = sigma(b_(k-1)) = a^(p + ... +
        # p^(k-1)), and the norm a r lies in F_p, so a^-1 = r / (a r).
        if not a:
            raise ZeroDivisionError("inverse of zero")
        b = a
        for images, one in chain:
            b = mul(b, frob(images, b))
            if one:
                b = mul(a, frob(sigma, b))
        r = frob(sigma, b)
        return smul(pow(mul(a, r), -1, p), r)

    power = _square_and_multiply(mul, inv)
    # sigma^j as the images (x^(p^j))^i of x^i, for j = 1 and for each
    # prefix j that inv doubles
    sigma = images = frob_images(power(1 << w, p))
    chain = []
    bits = bin(k - 1)[3:]
    for i, bit in enumerate(bits):
        chain.append((images, bit == "1"))
        if i + 1 < len(bits):
            y = frob(images, images[1])
            if bit == "1":
                y = frob(sigma, y)
            images = frob_images(y)

    def digits(rep):
        return list(unpack(rep))

    return (add, sub, neg, smul, mul, inv, power), (digits, pack)


def _table_ops(p: int, n: int, exp: array, log: array,
               zech: Optional[array], negt: Optional[array]) -> dict:
    """Log-table operations over a generator g: exp[i] = g^i (twice over,
    then zeros), log[exp[i]] = i; for odd p, g^zech[i] = 1 + g^i (2n
    when that is 0) and negt[a] = -a.  Returns the bindings to replace."""

    def mul(a, b):
        if a and b:
            return exp[log[a] + log[b]]
        return 0

    def inv(a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return exp[n - log[a]]

    def power(a, e):
        if a:
            return exp[log[a] * e % n]
        if e < 0:
            raise ZeroDivisionError("inverse of zero")
        return 0 if e else 1

    ops = {"mul_t": mul, "inv_t": inv, "pow_t": power}
    if p == 2:
        return ops

    def add(a, b):
        # g^la + g^lb = g^la (1 + g^(lb - la)); a negative index wraps mod n
        if a and b:
            la = log[a]
            return exp[la + zech[log[b] - la]]
        return a or b

    def sub(a, b):
        b = negt[b]
        if a and b:
            la = log[a]
            return exp[la + zech[log[b] - la]]
        return a or b

    def neg(a):
        return negt[a]

    def smul(c, a):
        return mul(c % p, a)

    ops.update(add_t=add, sub_t=sub, neg_t=neg, smul_t=smul)
    return ops


def _first_generator(ctx: FieldCtx, decode, power) -> int:
    """The first encoding in 2..q-1 whose element has order q - 1.  For
    k > 1 the scan starts at p: the encodings below p are the elements of
    F_p, whose orders divide p - 1."""
    q, primes = ctx.order, _unit_group_factors(ctx)
    n = q - 1
    for code in range(2 if ctx.k == 1 else ctx.p, q):
        g = decode(code)
        if all(power(g, n // r) != 1 for r in primes):
            return code
    raise IrreducibleSearchExhausted("no multiplicative generator found")


# ---------------------------------------------------------------------------
# Field contexts
# ---------------------------------------------------------------------------

class FieldCtx:
    """The field F_{p^k} presented as F_p[x]/(modulus).

    Raw element representations (reps) are ints, in the shape the module
    docstring describes for (p, k): residues for prime fields, encodings
    with log tables up to ``_TABLE_BOUND`` = 4096 elements (built on the
    first arithmetic call, at most 45 KB, held until the context is
    dropped), bit polynomials above it for p = 2, packed digit slots above
    it for odd p (Barrett multiplication and norm inversion, with a few
    packed constants and the Frobenius maps built at construction).
    The ``*_t`` attributes (``add_t``, ``sub_t``, ``neg_t``, ``smul_t``,
    ``mul_t``, ``inv_t``, ``pow_t``) are the shape's closures on reps and
    the fast path of the polynomial layer; zero and one are the reps 0
    and 1.  ``element`` wraps a rep in an :class:`FqElement` for the
    public API, and ``encode``/``decode`` convert reps to and from
    encodings.

    Two contexts interoperate only if they are equal (same p, k and
    modulus); cross-field data must be moved explicitly with :func:`embed`.
    """

    __slots__ = ("p", "k", "modulus", "order") + _OPS + (
        "_packed", "_tables", "_gen", "_unit_factors", "_hash")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...],
                 _validate: bool = True):
        if _validate:
            if not is_prime(p):
                raise NonPrimeCharacteristic(f"{p} is not prime")
            if k < 1:
                raise IncompatibleFields("extension degree must be >= 1")
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise IncompatibleFields("modulus must be monic of degree k")
            if k > 1 and not _is_irreducible(list(modulus), p):
                raise IrreducibleSearchExhausted(
                    f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.k = k
        self.modulus = tuple(c % p for c in modulus)
        self.order = p ** k
        self._packed: Optional[tuple] = None   # (digits, from_digits)
        self._tables: Optional[tuple] = None
        self._gen: Optional[int] = None
        self._unit_factors: Optional[dict[int, int]] = None
        self._hash = hash((p, k, self.modulus))
        tabled = k > 1 and self.order <= _TABLE_BOUND
        if k == 1:
            ops = _prime_ops(p)
        elif p == 2:
            ops = _bitpoly_ops(k, self.modulus)
        elif not tabled:
            ops, self._packed = _packed_ops(p, k, self.modulus)
        else:
            ops = (None,) * len(_OPS)
        for name, fn in zip(_OPS, ops):
            setattr(self, name, fn)
        if tabled:
            for name in (_OPS[4:] if p == 2 else _OPS):
                setattr(self, name, self._first_use(name))

    def _first_use(self, name: str):
        """A stand-in for one table operation that builds the tables."""
        # callers may keep this stand-in in a local past the first call
        def first_use(*args):
            if self._tables is None:
                self._build_tables()
            return getattr(self, name)(*args)
        return first_use

    def _build_tables(self) -> None:
        """Build the log tables over the canonical generator (found with
        the shape's table-free arithmetic) and bind the table operations."""
        p, k, q = self.p, self.k, self.order
        n = q - 1
        if p == 2:
            raw = _bitpoly_ops(k, self.modulus)

            def to_raw(code):
                return code

            from_raw = to_raw
        else:
            raw, (digits, from_digits) = _packed_ops(p, k, self.modulus)

            def to_raw(code):
                return from_digits(_code_digits(code, p, k))

            def from_raw(rep):
                return _digits_code(digits(rep), p)

        mul, power = raw[4], raw[6]
        gen = _first_generator(self, to_raw, power)
        exp = array("H", bytes(2 * (2 if p == 2 else 3) * n))
        log = array("H", bytes(2 * q))
        g, cur = to_raw(gen), 1
        for i in range(n):
            e = from_raw(cur)
            exp[i] = exp[i + n] = e
            log[e] = i
            cur = mul(cur, g)
        zech = negt = None
        if p > 2:
            zech = array("H", bytes(2 * n))
            negt = array("H", bytes(2 * q))
            for i in range(n):
                e = exp[i]
                s = e - e % p + (e + 1) % p          # e + 1, digit-wise
                zech[i] = log[s] if s else 2 * n
                negt[e] = exp[i + n // 2]             # -1 = g^(n/2)
        self._tables = tuple(t for t in (exp, log, zech, negt) if t is not None)
        self._gen = gen
        for name, fn in _table_ops(p, n, exp, log, zech, negt).items():
            setattr(self, name, fn)

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

    # -- element factory, conversions and enumeration --------------------------

    def element(self, v) -> "FqElement":
        """Build an element from an int encoding, an int constant, an
        iterable of F_p digits, or another FqElement of this context."""
        if isinstance(v, FqElement):
            if v.ctx != self:
                raise IncompatibleFields("element belongs to another field")
            return v
        if isinstance(v, int):
            if 0 <= v < self.p or self.k == 1 or v < 0:
                return FqElement(self, v % self.p)
            return FqElement(self, self.decode(v))
        digits = [int(c) % self.p for c in v]
        if len(digits) != self.k:
            raise IncompatibleFields("representation length mismatch")
        return FqElement(self, self._from_digits(digits))

    @property
    def zero(self) -> "FqElement":
        return FqElement(self, 0)

    @property
    def one(self) -> "FqElement":
        return FqElement(self, 1)

    def _digits(self, rep: int) -> list[int]:
        if self._packed:
            return self._packed[0](rep)
        return _code_digits(rep, self.p, self.k)

    def _from_digits(self, digits: list[int]) -> int:
        if self._packed:
            return self._packed[1](digits)
        return _digits_code(digits, self.p)

    def encode(self, rep: int) -> int:
        """The base-p encoding of a rep."""
        if self._packed:
            return _digits_code(self._packed[0](rep), self.p)
        return rep

    def decode(self, code: int) -> int:
        """The rep of a base-p encoding in [0, order)."""
        if not 0 <= code < self.order:
            raise ValueError(f"encoding {code} out of range for {self!r}")
        if self._packed:
            return self._packed[1](_code_digits(code, self.p, self.k))
        return code

    def elements(self) -> Iterator["FqElement"]:
        """All field elements in canonical (encoding) order."""
        for code in range(self.order):
            yield FqElement(self, self.decode(code))


class FqElement:
    """An element of a :class:`FieldCtx`, immutable, with exact arithmetic."""

    __slots__ = ("ctx", "rep")

    def __init__(self, ctx: FieldCtx, rep: int):
        self.ctx = ctx
        self.rep = rep

    def _coerce(self, other) -> "FqElement":
        if isinstance(other, FqElement):
            if other.ctx != self.ctx:
                raise IncompatibleFields(
                    f"cannot mix {self.ctx!r} and {other.ctx!r}; embed first")
            return other
        if isinstance(other, int):
            return FqElement(self.ctx, other % self.ctx.p)
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
        return bool(self.rep)

    def __eq__(self, other) -> bool:
        if isinstance(other, FqElement):
            return self.ctx == other.ctx and self.rep == other.rep
        if isinstance(other, int):
            return self.rep == other % self.ctx.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ctx._hash, self.rep))

    def inverse(self) -> "FqElement":
        return FqElement(self.ctx, self.ctx.inv_t(self.rep))

    def encoding(self) -> int:
        """Base-p integer encoding; used in text forms and reports."""
        return self.ctx.encode(self.rep)

    def __repr__(self) -> str:
        return f"Fq({self.encoding()} in {self.ctx!r})"


# ---------------------------------------------------------------------------
# Public constructors and maps
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _prime_field(p: int) -> FieldCtx:
    return FieldCtx(p, 1, (0, 1), _validate=False)


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
        return _prime_field(p)
    for code in range(p ** k):
        m = _code_digits(code, p, k) + [1]
        if _is_irreducible(m, p):
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
    if ctx._gen is None:
        ctx._gen = ctx.decode(_first_generator(ctx, ctx.decode, ctx.pow_t))
    return FqElement(ctx, ctx._gen)


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


def _subgroup_log(ctx: FieldCtx, delta: int, n: int, r: int,
                  primes) -> int:
    """The least i >= 0 with delta^i = r, for delta of order n and r in
    <delta> (reps of ``ctx``), by Pohlig-Hellman (IEEE Trans. Inf. Theory
    24, 1978): for each prime power l^e exactly dividing n, the residue i
    mod l^e one base-l digit at a time, each digit by baby-step giant-step
    in the subgroup of order l, then the Chinese remainder theorem.  It
    costs about sqrt(l) multiplications per digit for the largest prime l
    of n.  ``primes`` is a superset of the primes of n."""
    mul, power = ctx.mul_t, ctx.pow_t
    i, mod = 0, 1
    for l in primes:
        e, m = 0, n
        while m % l == 0:
            e, m = e + 1, m // l
        if not e:
            continue
        le = l ** e
        g_inv = ctx.inv_t(power(delta, n // le))    # of order l^e
        h = power(r, n // le)
        gl = power(delta, n // l)                   # of order l
        s = math.isqrt(l - 1) + 1
        baby, cur = {}, 1
        for j in range(s):
            baby[cur] = j
            cur = mul(cur, gl)
        giant = ctx.inv_t(cur)
        x = 0
        for j in range(e):
            # gl^d = (h g^-x)^(l^(e-1-j)) for the digit d of l^j
            t = power(mul(h, power(g_inv, x)), le // l ** (j + 1))
            for step in range(s):
                d = baby.get(t)
                if d is not None:
                    break
                t = mul(t, giant)
            else:
                raise ValueError("element is not in the subgroup")
            x += (d + step * s) % l * l ** j
        i += mod * ((x - i) * pow(mod, -1, le) % le)
        mod *= le
    return i


_EMBED_CACHE: dict[tuple[tuple, tuple], tuple[int, ...]] = {}


def embed(src: FieldCtx, dst: FieldCtx, a: FqElement) -> FqElement:
    """Image of ``a`` under the fixed field homomorphism F_{p^a} -> F_{p^b}.

    Requires src.p == dst.p and src.k | dst.k.  The map sends the source
    generator to the root of the source modulus of least index i on the
    subfield cycle delta^i of ``dst``, delta = g^((p^b - 1)/(p^a - 1)) for
    the canonical generator g, so repeated calls agree.  The a roots come
    from one chain of degree-1 Cantor-Zassenhaus splits in ``dst`` and
    their Frobenius conjugates r^(p^j), whose indices are i_0 p^j mod
    p^a - 1; i_0 is one discrete log by :func:`_subgroup_log`, over the
    primes of p^b - 1 that :func:`multiplicative_generator` factors
    anyway.  A first embedding of a pair costs that factorization plus
    about sqrt(l) multiplications in ``dst`` per base-l digit of i_0, for
    the largest prime l of p^a - 1.
    """
    if a.ctx != src:
        raise IncompatibleFields("element does not belong to src")
    if src.p != dst.p or dst.k % src.k != 0:
        raise IncompatibleFields(
            f"no embedding {src!r} -> {dst!r} (degree divisibility fails)")
    if src == dst:
        return a
    if src.k == 1:
        return FqElement(dst, a.rep)
    key = ((src.p, src.k, src.modulus), (dst.p, dst.k, dst.modulus))
    powers = _EMBED_CACHE.get(key)
    if powers is None:
        from .polyring import _conjugate_roots
        n = src.order - 1
        delta = dst.pow_t(multiplicative_generator(dst).rep,
                          (dst.order - 1) // n)
        roots = _conjugate_roots(dst, list(src.modulus), src.p,
                                 random.Random(0))
        i0 = _subgroup_log(dst, delta, n, roots[0], _unit_group_factors(dst))
        root = roots[min(range(src.k), key=lambda j: i0 * src.p ** j % n)]
        pw = [1]
        for _ in range(src.k - 1):
            pw.append(dst.mul_t(pw[-1], root))
        powers = tuple(pw)
        _EMBED_CACHE[key] = powers
    acc = 0
    for digit, pw in zip(src._digits(a.rep), powers):
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
    return make_field(c1.p, math.lcm(c1.k, c2.k))


def lift(a: FqElement, dst: FieldCtx) -> FqElement:
    """Embed ``a`` into ``dst`` (identity if already there)."""
    if a.ctx == dst:
        return a
    return embed(a.ctx, dst, a)


_DESCEND_CACHE: dict[tuple[tuple, tuple], tuple] = {}


def _descent_solver(sub: FieldCtx, dst: FieldCtx) -> tuple:
    """(pivots, rows) for reading a preimage in ``sub`` off the digits of
    an element of the subfield copy in ``dst``.  The digit vectors of the
    images root^i of the basis x^i, each with the unit vector e_i
    appended, are brought to reduced row echelon form over F_p; pivot k
    sits in digit pivots[k], and rows[k] is its row of the transform.  An
    image v = sum_i x_i root^i then has x_i = sum_k v[pivots[k]]
    rows[k][i] mod p."""
    p, a, b = sub.p, sub.k, dst.k
    aug = []
    for i in range(a):
        unit = [int(i == j) for j in range(a)]
        image = embed(sub, dst, FqElement(sub, sub._from_digits(unit))).rep
        aug.append(list(dst._digits(image)) + unit)
    pivots = []
    for col in range(b):
        r = len(pivots)
        piv = next((i for i in range(r, a) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = pow(aug[r][col], -1, p)
        aug[r] = [x * inv % p for x in aug[r]]
        for i in range(a):
            c = aug[i][col]
            if i != r and c:
                aug[i] = [(x - c * y) % p for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        if len(pivots) == a:
            break
    return tuple(pivots), [row[b:] for row in aug]


def try_descend(a: FqElement, sub: FieldCtx) -> Optional[FqElement]:
    """The preimage of ``a`` under sub -> a.ctx, or None when a is outside
    the canonical subfield copy (the Frobenius-fixed set of size |sub|).
    The preimage's digits solve the F_p-linear system sum_i x_i root^i =
    a over the digits of ``a.ctx``, with the elimination done once per
    pair (:func:`_descent_solver`): k^2 operations in F_p per call, for
    k the degree of ``sub``."""
    if a.ctx == sub:
        return a
    if a.ctx.p != sub.p or a.ctx.k % sub.k != 0:
        return None
    if a.ctx.pow_t(a.rep, sub.order) != a.rep:
        return None
    key = ((sub.p, sub.k, sub.modulus), (a.ctx.p, a.ctx.k, a.ctx.modulus))
    solver = _DESCEND_CACHE.get(key)
    if solver is None:
        solver = _DESCEND_CACHE[key] = _descent_solver(sub, a.ctx)
    pivots, rows = solver
    v = a.ctx._digits(a.rep)
    x = [0] * sub.k
    for c, row in zip(pivots, rows):
        if v[c]:
            x = [(xi + v[c] * ri) % sub.p for xi, ri in zip(x, row)]
    return FqElement(sub, sub._from_digits(x))


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
