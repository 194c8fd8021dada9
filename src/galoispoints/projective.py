"""Points, lines and projectivities of P^1 and P^2 over finite fields.

Scalar normalization (first nonzero coordinate equal to 1) gives every
point, line and projectivity a unique representative, so equality in
PGL(2) / PGL(3) is syntactic and hash-set group closure works.  Groups are
explicit element lists, identity first and in the order their builder
found, each with a multiplication table on those positions from the start
(built by the closure or written down where the structure is known: a
cyclic group, an exact factorization), so orders, normality and product
sets cost no matrix products; structure identification matches the order
histogram against the small catalogue that the classification needs
(trivial, cyclic, Klein, elementary abelian, S3, A4, p-group-by-cyclic
semidirect) and reports "other" instead of guessing anything finer.

Objects over different extensions of the same prime field are lifted to a
common context on demand; see :func:`galoispoints.gf.common_field`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import ClosureCapExceeded, DimensionMismatch, SoundnessError
from .gf import FieldCtx, FqElement, common_field, lift


def _normalize(ctx: FieldCtx, vec: tuple) -> tuple:
    for c in vec:
        if c == 1:
            return vec
        if c:
            inv = ctx.inv_t(c)
            return tuple(ctx.mul_t(inv, x) for x in vec)
    raise ValueError("zero vector cannot be normalized")


class ProjPoint:
    """A point of P^1 or P^2, scalar-normalized for decidable equality."""

    __slots__ = ("ctx", "coords")

    def __init__(self, ctx: FieldCtx, coords: Sequence):
        reps = tuple(ctx.element(c).rep for c in coords)
        if len(reps) not in (2, 3):
            raise DimensionMismatch("points live in P^1 or P^2")
        self.ctx = ctx
        self.coords = _normalize(ctx, reps)

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.ctx == other.ctx and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.ctx, self.coords))

    def lift_to(self, ctx2: FieldCtx) -> "ProjPoint":
        if ctx2 == self.ctx:
            return self
        return ProjPoint(ctx2, [lift(FqElement(self.ctx, c), ctx2)
                                for c in self.coords])

    def elements(self) -> list[FqElement]:
        return [FqElement(self.ctx, c) for c in self.coords]

    def encoding(self) -> tuple[int, ...]:
        return tuple(self.ctx.encode(c) for c in self.coords)

    def spec_str(self) -> str:
        return ":".join(str(e) for e in self.encoding())

    def __repr__(self) -> str:
        return f"({self.spec_str()}) over {self.ctx!r}"


def point_p1(ctx: FieldCtx, t=None, infinity: bool = False) -> ProjPoint:
    """Affine P^1 point (t : 1), or (1 : 0) when infinity is requested."""
    if infinity:
        return ProjPoint(ctx, [ctx.one, ctx.zero])
    return ProjPoint(ctx, [ctx.element(t), ctx.one])


def p1_value(pt: ProjPoint) -> Optional[FqElement]:
    """The affine value of a P^1 point, or None for the point at infinity."""
    if pt.dim != 1:
        raise DimensionMismatch("expected a P^1 point")
    x, z = pt.elements()
    if not z:
        return None
    return x / z


class ProjLine:
    """A line of P^2 given by a scalar-normalized coefficient covector."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: Sequence):
        reps = tuple(ctx.element(c).rep for c in coeffs)
        if len(reps) != 3:
            raise DimensionMismatch("lines need 3 coefficients")
        self.ctx = ctx
        self.coeffs = _normalize(ctx, reps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjLine):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ctx, self.coeffs))

    def lift_to(self, ctx2: FieldCtx) -> "ProjLine":
        if ctx2 == self.ctx:
            return self
        return ProjLine(ctx2, [lift(FqElement(self.ctx, c), ctx2)
                               for c in self.coeffs])

    def contains(self, pt: ProjPoint) -> bool:
        ctx = common_field(self.ctx, pt.ctx)
        line = self.lift_to(ctx)
        p = pt.lift_to(ctx)
        acc = 0
        for c, x in zip(line.coeffs, p.coords):
            acc = ctx.add_t(acc, ctx.mul_t(c, x))
        return not acc

    def spanning_points(self) -> tuple[ProjPoint, ProjPoint]:
        """Two distinct points spanning the line (deterministic kernel basis)."""
        ctx = self.ctx
        pivot = next(i for i, c in enumerate(self.coeffs) if c)
        inv = ctx.inv_t(self.coeffs[pivot])
        basis = []
        for j in range(3):
            if j == pivot:
                continue
            vec = [0] * 3
            vec[j] = 1
            vec[pivot] = ctx.neg_t(ctx.mul_t(inv, self.coeffs[j]))
            basis.append(ProjPoint(ctx, [FqElement(ctx, c) for c in vec]))
        return basis[0], basis[1]

    def encoding(self) -> tuple[int, ...]:
        return tuple(self.ctx.encode(c) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"Line{self.encoding()} over {self.ctx!r}"


def line_through(a: ProjPoint, b: ProjPoint) -> ProjLine:
    """The unique line through two distinct P^2 points (cross product)."""
    ctx = common_field(a.ctx, b.ctx)
    a, b = a.lift_to(ctx), b.lift_to(ctx)
    if a.dim != 2 or b.dim != 2:
        raise DimensionMismatch("line_through expects P^2 points")
    if a == b:
        raise ValueError("points coincide; line is not unique")
    (a0, a1, a2), (b0, b1, b2) = a.coords, b.coords
    m = ctx.mul_t
    s = ctx.sub_t
    coeffs = (s(m(a1, b2), m(a2, b1)),
              s(m(a2, b0), m(a0, b2)),
              s(m(a0, b1), m(a1, b0)))
    return ProjLine(ctx, [FqElement(ctx, c) for c in coeffs])


class Projectivity:
    """An element of PGL(2) or PGL(3): an invertible matrix mod scalars."""

    __slots__ = ("ctx", "n", "mat")

    def __init__(self, ctx: FieldCtx, mat: Sequence[Sequence]):
        rows = [tuple(ctx.element(c).rep for c in row) for row in mat]
        n = len(rows)
        if n not in (2, 3) or any(len(r) != n for r in rows):
            raise DimensionMismatch("projectivities are 2x2 or 3x3")
        flat = [c for row in rows for c in row]
        norm = _normalize(ctx, tuple(flat))
        self.ctx = ctx
        self.n = n
        self.mat = tuple(tuple(norm[i * n + j] for j in range(n))
                         for i in range(n))
        if not self._det():
            raise ValueError("projectivity matrix is singular")

    def _det(self):
        ctx, m = self.ctx, self.mat
        mul, sub, add = ctx.mul_t, ctx.sub_t, ctx.add_t
        if self.n == 2:
            return sub(mul(m[0][0], m[1][1]), mul(m[0][1], m[1][0]))
        t0 = mul(m[0][0], sub(mul(m[1][1], m[2][2]), mul(m[1][2], m[2][1])))
        t1 = mul(m[0][1], sub(mul(m[1][0], m[2][2]), mul(m[1][2], m[2][0])))
        t2 = mul(m[0][2], sub(mul(m[1][0], m[2][1]), mul(m[1][1], m[2][0])))
        return add(sub(t0, t1), t2)

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "Projectivity":
        # already normalized: 1 is the rep of one in every field shape
        ident = object.__new__(cls)
        ident.ctx, ident.n = ctx, n
        ident.mat = tuple(tuple(int(i == j) for j in range(n))
                          for i in range(n))
        return ident

    def __eq__(self, other) -> bool:
        if not isinstance(other, Projectivity):
            return NotImplemented
        return self.ctx == other.ctx and self.mat == other.mat

    def __hash__(self) -> int:
        return hash((self.ctx, self.mat))

    def __mul__(self, other: "Projectivity") -> "Projectivity":
        if not isinstance(other, Projectivity):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch("dimension mismatch in composition")
        ctx = common_field(self.ctx, other.ctx)
        a = self.lift_to(ctx)
        b = other.lift_to(ctx)
        n = self.n
        mul, add = ctx.mul_t, ctx.add_t
        flat = []
        for i in range(n):
            for j in range(n):
                acc = 0
                for l in range(n):
                    acc = add(acc, mul(a.mat[i][l], b.mat[l][j]))
                flat.append(acc)
        # a product of invertible matrices needs no determinant check
        return Projectivity._invertible(ctx, n, flat)

    @classmethod
    def _invertible(cls, ctx: FieldCtx, n: int, flat: list) -> "Projectivity":
        """The projectivity of a row-major list of reps of a matrix known
        to be invertible, normalized without a determinant check."""
        g = object.__new__(cls)
        norm = _normalize(ctx, tuple(flat))
        g.ctx, g.n = ctx, n
        g.mat = tuple(norm[i * n:i * n + n] for i in range(n))
        return g

    def inverse(self) -> "Projectivity":
        ctx, m, n = self.ctx, self.mat, self.n
        mul, sub = ctx.mul_t, ctx.sub_t
        if n == 2:
            adj = [[m[1][1], ctx.neg_t(m[0][1])],
                   [ctx.neg_t(m[1][0]), m[0][0]]]
        else:
            def cof(i, j):
                r = [k for k in range(3) if k != i]
                c = [k for k in range(3) if k != j]
                val = sub(mul(m[r[0]][c[0]], m[r[1]][c[1]]),
                          mul(m[r[0]][c[1]], m[r[1]][c[0]]))
                return val if (i + j) % 2 == 0 else ctx.neg_t(val)
            adj = [[cof(j, i) for j in range(3)] for i in range(3)]
        return Projectivity(ctx, [[FqElement(ctx, c) for c in row]
                                  for row in adj])

    def order(self, cap: int = 4096) -> int:
        acc = self
        ident = Projectivity.identity(self.ctx, self.n)
        for k in range(1, cap + 1):
            if acc == ident:
                return k
            acc = acc * self
        raise ClosureCapExceeded(f"element order exceeds {cap}")

    def lift_to(self, ctx2: FieldCtx) -> "Projectivity":
        """The same projectivity over an extension.  A field embedding is
        an injective ring map: it keeps the leading 1 of the normalized
        matrix and a nonzero determinant, so the lifted reps need neither
        normalization nor a determinant check."""
        if ctx2 == self.ctx:
            return self
        ctx = self.ctx
        g = object.__new__(Projectivity)
        g.ctx, g.n = ctx2, self.n
        g.mat = tuple(tuple(lift(FqElement(ctx, c), ctx2).rep for c in row)
                      for row in self.mat)
        return g

    def apply(self, x: ProjPoint) -> ProjPoint:
        """Normalized image g(x); auto-embeds into a common extension."""
        if x.dim + 1 != self.n:
            raise DimensionMismatch("point/projectivity dimension mismatch")
        ctx = common_field(self.ctx, x.ctx)
        g = self.lift_to(ctx)
        p = x.lift_to(ctx)
        mul, add = ctx.mul_t, ctx.add_t
        out = []
        for i in range(self.n):
            acc = 0
            for j in range(self.n):
                acc = add(acc, mul(g.mat[i][j], p.coords[j]))
            out.append(FqElement(ctx, acc))
        return ProjPoint(ctx, out)

    def row_major(self) -> list[int]:
        """Row-major list of coefficient encodings (report serialization)."""
        return [self.ctx.encode(c) for row in self.mat for c in row]

    def __repr__(self) -> str:
        return f"PGL{self.n}{tuple(self.row_major())} over {self.ctx!r}"


# ---------------------------------------------------------------------------
# Finite groups of projectivities
# ---------------------------------------------------------------------------

class FiniteProjectivityGroup:
    """An explicitly closed finite subgroup of PGL(2) or PGL(3).

    ``elements`` keep the order their builder found, the identity first;
    ``index`` maps each to its position.  The table on positions is
    ``(gens, cols, words)``: a reduced generating set, ``cols[j][x] = x *
    gens[j]`` and ``words[x]``, the columns whose product is x.
    ``generate_group`` builds it while closing, ``_factorized_joint``
    writes it down, ``galois`` closes the collineations' (lam, beta,
    delta) triples for it, and ``lift_to``, ``conjugate`` and
    ``descend_to`` carry it over: every group comes with its table.
    ``generators`` are the elements at ``gens``, or the identity alone.
    """

    __slots__ = ("ctx", "n", "elements", "generators", "index", "table")

    def __init__(self, ctx: FieldCtx, n: int, elements: list[Projectivity],
                 table: tuple):
        self.ctx = ctx
        self.n = n
        self.elements = elements
        self.index = {g: i for i, g in enumerate(elements)}
        self.table = table
        self.generators = [elements[g] for g in table[0]] or elements[:1]

    def mul(self, a: int, b: int) -> int:
        """Position of the product of the elements at positions a and b."""
        _, cols, words = self.table
        for j in words[b]:
            a = cols[j][a]
        return a

    def order(self, a: int) -> int:
        x = a
        for k in range(1, len(self) + 1):
            if x == 0:
                return k
            x = self.mul(x, a)
        raise SoundnessError("element order exceeds the group order")

    def inv(self, a: int) -> int:
        x = 0
        for _ in range(self.order(a) - 1):
            x = self.mul(x, a)
        return x

    def positions(self, H: "FiniteProjectivityGroup") -> set[int]:
        """Positions of the elements of a subgroup H."""
        return {self.index[h.lift_to(self.ctx)] for h in H.elements}

    def normalizes(self, S: set[int]) -> bool:
        """Whether g S = S g for every generator g, i.e. S is normal."""
        gens, cols, _ = self.table
        return all({self.mul(g, a) for a in S} == {col[a] for a in S}
                   for g, col in zip(gens, cols))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g: Projectivity) -> bool:
        if g.ctx == self.ctx:
            return g in self.index
        ctx = common_field(self.ctx, g.ctx)
        return g.lift_to(ctx) in {e.lift_to(ctx) for e in self.elements}

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteProjectivityGroup):
            return NotImplemented
        return self.ctx == other.ctx and self.index.keys() == other.index.keys()

    def __hash__(self) -> int:
        return hash((self.ctx, frozenset(self.index)))

    def _map(self, ctx: FieldCtx, image) -> "FiniteProjectivityGroup":
        """The isomorphic group of the images, carrying the table over."""
        return FiniteProjectivityGroup(ctx, self.n,
                                       [image(g) for g in self.elements],
                                       self.table)

    def lift_to(self, ctx2: FieldCtx) -> "FiniteProjectivityGroup":
        if ctx2 == self.ctx:
            return self
        return self._map(ctx2, lambda g: g.lift_to(ctx2))

    def conjugate(self, h: Projectivity) -> "FiniteProjectivityGroup":
        hinv = h.inverse()
        ctx = common_field(self.ctx, h.ctx)
        return self._map(ctx, lambda g: (h * g * hinv).lift_to(ctx))

    def descend_to(self, sub: FieldCtx) -> "FiniteProjectivityGroup":
        """Rewrite over the smallest field between ``sub`` and the current
        context that holds every matrix entry; identity when nothing
        descends.  Keeps joint computations in small fields."""
        from .gf import try_descend
        if sub == self.ctx or self.ctx.p != sub.p or self.ctx.k % sub.k != 0:
            return self
        # smallest intermediate degree that splits every entry
        divisors = sorted(j for j in range(sub.k, self.ctx.k)
                          if j % sub.k == 0 and self.ctx.k % j == 0)
        for j in divisors:
            from .gf import make_field
            target = sub if j == sub.k else make_field(sub.p, j)
            down = {}
            for g in self.elements:
                rows = [[try_descend(FqElement(self.ctx, c), target)
                         for c in row] for row in g.mat]
                if any(None in row for row in rows):
                    break
                down[g] = Projectivity(target, rows)
            else:
                return self._map(target, down.__getitem__)
        return self

    def __repr__(self) -> str:
        return f"Group(order {len(self.elements)}, PGL{self.n}, {self.ctx!r})"


def _close(gens: Sequence, cap: int, ident, product=operator.mul
           ) -> tuple[list, tuple]:
    """Closure of ``gens`` under right products by a reduced generating
    set: a generator already in the group built so far is skipped, so at
    most log2|G| of them are kept.  The elements are any hashable values
    with the identity ``ident`` and the associative ``product`` (matrix
    products of projectivities of one context by default; galois closes
    (lam, beta, delta) triples).  Returns the elements in discovery order,
    identity first, and their table (see FiniteProjectivityGroup); each
    (element, kept generator) pair costs one product."""
    elements, index, words = [ident], {ident: 0}, [()]
    kept, cols = [], []
    for g in gens:
        if g in index:
            continue
        kept.append(g)
        cols.append([])
        x = 0
        while x < len(elements):
            for j, col in enumerate(cols):
                if len(col) == x:
                    prod = product(elements[x], kept[j])
                    k = index.get(prod)
                    if k is None:
                        if len(elements) >= cap:
                            raise ClosureCapExceeded(
                                f"group closure exceeded cap {cap}")
                        k = index[prod] = len(elements)
                        elements.append(prod)
                        words.append(words[x] + (j,))
                    col.append(k)
            x += 1
    return elements, ([index[g] for g in kept], cols, words)


def generate_group(gens: Sequence[Projectivity], cap: int = 4096) -> FiniteProjectivityGroup:
    """Closure of a generating set under products, with its table.

    Candidates already in the group built so far are dropped, so the
    closure costs |G| matrix products per kept generator and keeps at most
    log2|G| of them as ``generators`` (the identity alone for the trivial
    group).  Raises ClosureCapExceeded exactly when the group's order
    exceeds ``cap`` (an infinite or too-large group).
    """
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    ctx = gens[0].ctx
    for g in gens:
        if g.n != n:
            raise DimensionMismatch("mixed dimensions in generating set")
        ctx = common_field(ctx, g.ctx)
    return FiniteProjectivityGroup(ctx, n, *_close(
        [g.lift_to(ctx) for g in gens], cap, Projectivity.identity(ctx, n)))


def trivial_group(ctx: FieldCtx, n: int) -> FiniteProjectivityGroup:
    return FiniteProjectivityGroup(ctx, n, [Projectivity.identity(ctx, n)],
                                   ([], [], [()]))


# ---------------------------------------------------------------------------
# Structure identification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupDescriptor:
    """Order, abelianness, element-order histogram and a catalogue tag."""

    order: int
    abelian: bool
    element_order_histogram: dict
    tag: str
    params: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "order": self.order,
            "abelian": self.abelian,
            "element_order_histogram": {str(k): v for k, v in
                                        sorted(self.element_order_histogram.items())},
            "tag": self.tag,
            "params": dict(sorted(self.params.items())),
        }


def identify_group(G: FiniteProjectivityGroup) -> GroupDescriptor:
    """Match a finite projectivity group against the named catalogue.

    Tags: trivial, cyclic, klein, elementary_abelian (params p, e), s3, a4,
    semidirect_p_cyclic (params p, e, m), other.  The tag is derived from
    the order histogram and abelianness only; anything unmatched is
    "other" rather than a guess.  Orders, commutation of the generators and
    the p-part tests are read off G's table, without matrix products.
    """
    order = len(G)
    orders = [G.order(a) for a in range(order)]
    hist: dict[int, int] = {}
    for o in orders:
        hist[o] = hist.get(o, 0) + 1
    gens = G.table[0]
    abelian = all(G.mul(a, b) == G.mul(b, a) for a in gens for b in gens)

    def mk(tag, **params):
        return GroupDescriptor(order, abelian, hist, tag, params)

    if order == 1:
        return mk("trivial")
    if abelian and hist.get(order, 0) > 0:
        return mk("cyclic")
    if order == 4 and hist.get(2, 0) == 3:
        return mk("klein")
    p = G.ctx.p
    if abelian:
        # elementary abelian q-group for some prime q
        nontrivial = [o for o in hist if o > 1]
        if len(nontrivial) == 1:
            q = nontrivial[0]
            from .gf import is_prime
            if is_prime(q):
                e = 0
                o = order
                while o % q == 0:
                    o //= q
                    e += 1
                if o == 1:
                    return mk("elementary_abelian", p=q, e=e)
        return mk("other")
    if order == 6:
        return mk("s3")
    if order == 12 and hist.get(1) == 1 and hist.get(2) == 3 and hist.get(3) == 8:
        return mk("a4")
    # semidirect (p-group) x| (cyclic m): p-power-order elements form a
    # normal subgroup of order p^e with a cyclic complement of order m
    pe = 1
    o = order
    while o % p == 0:
        o //= p
        pe *= p
    m = order // pe
    if pe > 1 and m > 1:
        p_part = {a for a in range(order) if _is_p_power(orders[a], p)}
        if len(p_part) == pe:
            closed = all(G.mul(a, b) in p_part for a in p_part for b in p_part)
            if closed and G.normalizes(p_part) and m in orders:
                e = 0
                q = pe
                while q % p == 0:
                    q //= p
                    e += 1
                return mk("semidirect_p_cyclic", p=p, e=e, m=m)
    return mk("other")


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


# ---------------------------------------------------------------------------
# Products of two groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductReport:
    """Joint structure of two finite projectivity groups."""

    joint: FiniteProjectivityGroup
    joint_descriptor: GroupDescriptor
    intersection_order: int
    product_set_equals_joint: bool
    g1_normal: bool
    g2_normal: bool
    classification: str  # direct | left_semidirect | right_semidirect | neither | not_a_product

    def to_jsonable(self) -> dict:
        return {
            "joint_order": len(self.joint),
            "joint_descriptor": self.joint_descriptor.to_jsonable(),
            "intersection_order": self.intersection_order,
            "product_set_equals_joint": self.product_set_equals_joint,
            "g1_normal": self.g1_normal,
            "g2_normal": self.g2_normal,
            "classification": self.classification,
        }


def product_structure(G1: FiniteProjectivityGroup, G2: FiniteProjectivityGroup,
                      cap: int = 4096) -> ProductReport:
    """Compute J = <G1 u G2> and classify how G1 and G2 sit inside it.

    classification:
      * ``direct``          -- product set = J, trivial intersection, both normal
      * ``left_semidirect`` -- product set = J, trivial intersection, G1 normal only
      * ``right_semidirect``-- product set = J, trivial intersection, G2 normal only
      * ``neither``         -- product set = J but no semidirect structure
      * ``not_a_product``   -- the product set is smaller than J

    Only the construction of J multiplies matrices: when G1 G2 is an exact
    factorization (``_factorized_joint``) J is the product set, with its
    table read off G1's and G2's, and otherwise J is closed over both
    groups' generators.  G1 and G2 become sets of positions in J, and the
    product set, the intersection and normality (g S = S g for each
    generator g of J) are computed on J's table.
    """
    if G1.n != G2.n:
        raise DimensionMismatch("groups act on different spaces")
    # lifted once: J lives over ctx, so positions() lifts nothing again
    ctx = common_field(G1.ctx, G2.ctx)
    G1, G2 = G1.lift_to(ctx), G2.lift_to(ctx)
    J = _factorized_joint(G1, G2, cap)
    factorized = J is not None
    if not factorized:
        J = generate_group(G1.generators + G2.generators, cap=cap)
    s1, s2 = J.positions(G1), J.positions(G2)
    inter = s1 & s2
    product_equals = factorized or len(
        {J.mul(a, b) for a in s1 for b in s2}) == len(J)
    g1_normal = J.normalizes(s1)
    g2_normal = J.normalizes(s2)
    if not product_equals:
        cls = "not_a_product"
    elif len(inter) != 1:
        cls = "neither"
    elif g1_normal and g2_normal:
        cls = "direct"
    elif g1_normal:
        cls = "left_semidirect"
    elif g2_normal:
        cls = "right_semidirect"
    else:
        cls = "neither"
    return ProductReport(J, identify_group(J), len(inter), product_equals,
                         g1_normal, g2_normal, cls)


def _factorized_joint(G1: FiniteProjectivityGroup, G2: FiniteProjectivityGroup,
                      cap: int) -> Optional[FiniteProjectivityGroup]:
    """J = <G1 u G2> as the product set G1 G2 = {a b}, or None when that
    set is not shown to be a group; G1 and G2 share one context.

    It is one when its |G1| |G2| products are distinct and b g lies in it
    for every b in G2 and kept generator g of G1: then (a b) g =
    a (a' b') and (a b) h = a (b h) for h in G2 stay in the set, so it is
    closed, and it holds the identity.  The table needs no further
    product: with x = a_i b_k at position i |G2| + k, J's generators are
    G1's then G2's, x g = (a_i a_i') b_k' where b_k g = a_i' b_k', x h =
    a_i (b_k h), and x's word is a_i's followed by b_k's.  None also when
    |G1| |G2| exceeds ``cap``, so the closure keeps its cap error.
    """
    n2 = len(G2)
    if len(G1) * n2 > cap:
        return None
    gens1, _, words1 = G1.table
    gens2, cols2, words2 = G2.table
    elements = [b if not i else a if not k else a * b
                for i, a in enumerate(G1.elements)
                for k, b in enumerate(G2.elements)]
    index = {x: i for i, x in enumerate(elements)}
    if len(index) != len(elements):
        return None
    cols = []
    for g in gens1:
        right = []
        for b in G2.elements:
            pos = index.get(b * G1.elements[g])
            if pos is None:
                return None
            right.append(divmod(pos, n2))
        cols.append([G1.mul(i, right[k][0]) * n2 + right[k][1]
                     for i in range(len(G1)) for k in range(n2)])
    cols += [[base + col[k] for base in range(0, len(elements), n2)
              for k in range(n2)] for col in cols2]
    shift = len(gens1)
    words = [w1 + tuple(shift + j for j in w2)
             for w1 in words1 for w2 in words2]
    gens = [g * n2 for g in gens1] + gens2
    return FiniteProjectivityGroup(G1.ctx, G1.n, elements, (gens, cols, words))


# ---------------------------------------------------------------------------
# Divisors and orbits
# ---------------------------------------------------------------------------

class PointDivisor:
    """An effective divisor: points of P^1 or P^2 with multiplicities."""

    __slots__ = ("ctx", "dim", "support")

    def __init__(self, ctx: FieldCtx, dim: int, support: dict):
        self.ctx = ctx
        self.dim = dim
        self.support = {pt: int(m) for pt, m in support.items() if m}
        for pt, m in self.support.items():
            if m < 1:
                raise ValueError("divisor multiplicities must be >= 1")
            if pt.dim != dim:
                raise DimensionMismatch("mixed ambient spaces in divisor")

    def degree(self) -> int:
        return sum(self.support.values())

    def points(self) -> list[ProjPoint]:
        return sorted(self.support, key=lambda p: p.encoding())

    def multiplicity(self, pt: ProjPoint) -> int:
        if pt.ctx == self.ctx:
            return self.support.get(pt, 0)
        ctx = common_field(self.ctx, pt.ctx)
        target = pt.lift_to(ctx)
        for q, m in self.support.items():
            if q.lift_to(ctx) == target:
                return m
        return 0

    def lift_to(self, ctx2: FieldCtx) -> "PointDivisor":
        if ctx2 == self.ctx:
            return self
        return PointDivisor(ctx2, self.dim,
                            {pt.lift_to(ctx2): m for pt, m in self.support.items()})

    def __add__(self, other: "PointDivisor") -> "PointDivisor":
        if self.dim != other.dim:
            raise DimensionMismatch("mixed ambient spaces")
        ctx = common_field(self.ctx, other.ctx)
        a = self.lift_to(ctx)
        out = dict(a.support)
        for pt, m in other.lift_to(ctx).support.items():
            out[pt] = out.get(pt, 0) + m
        return PointDivisor(ctx, self.dim, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointDivisor):
            return NotImplemented
        if self.dim != other.dim:
            return False
        ctx = common_field(self.ctx, other.ctx)
        return self.lift_to(ctx).support == other.lift_to(ctx).support

    def __hash__(self) -> int:
        return hash((self.ctx, self.dim, frozenset(self.support.items())))

    def to_jsonable(self) -> dict:
        return {
            "field": self.ctx.spec,
            "degree": self.degree(),
            "points": [{"coords": list(pt.encoding()), "multiplicity": m}
                       for pt, m in sorted(self.support.items(),
                                           key=lambda kv: kv[0].encoding())],
        }

    def __repr__(self) -> str:
        inner = " + ".join(f"{m}*({pt.spec_str()})"
                           for pt, m in sorted(self.support.items(),
                                               key=lambda kv: kv[0].encoding()))
        return f"Div[{inner}]"


def orbit(G: FiniteProjectivityGroup, x: ProjPoint) -> PointDivisor:
    """The formal sum over group elements of g(x).

    Each orbit point appears with multiplicity equal to the stabilizer
    order, so the divisor degree is exactly |G|.
    """
    ctx = common_field(G.ctx, x.ctx)
    counts: dict[ProjPoint, int] = {}
    for g in G.elements:
        img = g.apply(x).lift_to(ctx)
        counts[img] = counts.get(img, 0) + 1
    div = PointDivisor(ctx, x.dim, counts)
    if div.degree() != len(G):
        raise SoundnessError(
            f"orbit divisor degree {div.degree()} != |G| = {len(G)}")
    return div
