"""Seeded job generator for the verdict benchmark.

A job is one CLI invocation: ``{"id", "argv", "files", "expect"}``.  The
``argv`` names input files by bare file name; the worker writes ``files``
into its work directory and resolves the names there.  ``expect`` holds
what the paper's theorems say the program must report, worked out here
from the spec alone (see ``check.py``); nothing in this module imports
the program.

Every curve this module writes has coefficients in the prime field, so
smoothness of a centre with prime-field coordinates is decided by
arithmetic mod p, whatever the extension degree of the field.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("census", "certify", "refute")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)

# Fields (p, k) by workload and field shape, and the largest curve degree
# per shape.  Job cost grows steeply with the degree and the field size;
# these caps keep every job of a workload far below its time limit (see
# run.py) while each family still meets all three field shapes.  Refute
# leaves out the draws whose collineation scan often climbs into a huge
# working field (quartics over F_25 and over primes, curves over F_16):
# those runs last minutes, so how many a seed draws would decide its
# throughput.  The scan's tail is measured by one fixed input instead
# (REFUTE_TAIL), which every refute run checks before its timed loop.
FIELDS = {
    "census": {"prime": tuple((p, 1) for p in PRIMES), "bin": ((2, 2),),
               "odd_ext": ((3, 2), (5, 2), (7, 2))},
    "certify": {"prime": tuple((p, 1) for p in PRIMES),
                "bin": ((2, 2), (2, 4)), "odd_ext": ((3, 2), (5, 2))},
    "refute": {"prime": ((5, 1), (7, 1), (11, 1), (13, 1)),
               "bin": ((2, 2),), "odd_ext": ((3, 2),)},
}
MAX_D = {
    "census": {"prime": 5, "bin": 4, "odd_ext": 4},
    "certify": {"prime": 6, "bin": 4, "odd_ext": 6},
    "refute": {"prime": 3, "bin": 4, "odd_ext": 3},
}


def field_spec(p: int, k: int = 1) -> str:
    return f"{p}^{k}"


# ---------------------------------------------------------------------------
# Polynomials over F_p as {(a, b): c} for c * x^a * y^b
# ---------------------------------------------------------------------------

def _add_term(poly: dict, exp: tuple, c: int, p: int) -> None:
    v = (poly.get(exp, 0) + c) % p
    if v:
        poly[exp] = v
    else:
        poly.pop(exp, None)


def poly_text(poly: dict) -> str:
    terms = sorted(poly.items(), key=lambda t: (-(t[0][0] + t[0][1]),
                                                 -t[0][0], -t[0][1]))
    return "+".join(f"{c}*x^{a}*y^{b}" for (a, b), c in terms)


def _binom_mod(n: int, k: int, p: int) -> int:
    # Lucas' theorem
    out = 1
    while n or k:
        a, b = n % p, k % p
        if b > a:
            return 0
        num = den = 1
        for i in range(b):
            num = num * (a - i) % p
            den = den * (i + 1) % p
        out = out * num * pow(den, p - 2, p) % p
        n //= p
        k //= p
    return out


def tame_poly(d: int, c: int, p: int) -> dict:
    """x^(d-1) + y^d + c."""
    poly: dict = {}
    _add_term(poly, (d - 1, 0), 1, p)
    _add_term(poly, (0, d), 1, p)
    _add_term(poly, (0, 0), c, p)
    return poly


def wild_poly(p: int, e: int, m: int, c: int) -> dict:
    """x^(d-1) + (y^(p^e) - y)^m + c, with d = p^e m.

    y^(p^e) - y is the additive polynomial whose roots are the subfield
    F_{p^e}, the polynomial the family builds when no alphas are given.
    """
    q = p ** e
    d = q * m
    poly: dict = {}
    _add_term(poly, (d - 1, 0), 1, p)
    for i in range(m + 1):
        # C(m, i) (y^q)^i (-y)^(m-i)
        coef = _binom_mod(m, i, p) * (-1) ** (m - i)
        _add_term(poly, (0, q * i + (m - i)), coef, p)
    _add_term(poly, (0, 0), c, p)
    return poly


def power_poly(d: int, p: int) -> dict:
    """x - y^d (the power form of prop4)."""
    poly: dict = {}
    _add_term(poly, (1, 0), 1, p)
    _add_term(poly, (0, d), -1, p)
    return poly


def _eval_hom(poly: dict, deg: int, pt: tuple, p: int) -> int:
    x, y, z = pt
    return sum(c * pow(x, a, p) * pow(y, b, p) * pow(z, deg - a - b, p)
               for (a, b), c in poly.items()) % p


def _gradient(poly: dict, deg: int, pt: tuple, p: int) -> tuple:
    x, y, z = pt
    gx = gy = gz = 0
    for (a, b), c in poly.items():
        w = deg - a - b
        if a:
            gx += c * a * pow(x, a - 1, p) * pow(y, b, p) * pow(z, w, p)
        if b:
            gy += c * b * pow(x, a, p) * pow(y, b - 1, p) * pow(z, w, p)
        if w:
            gz += c * w * pow(x, a, p) * pow(y, b, p) * pow(z, w - 1, p)
    return gx % p, gy % p, gz % p


def degree(poly: dict) -> int:
    return max(a + b for a, b in poly)


def centre_class(poly: dict, pt: tuple, p: int) -> str:
    """'outer', 'inner' (smooth on the curve) or 'singular'."""
    deg = degree(poly)
    if _eval_hom(poly, deg, pt, p):
        return "outer"
    return "inner" if any(_gradient(poly, deg, pt, p)) else "singular"


def _trim(a: list, p: int) -> list:
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _uni_gcd(a: list, b: list, p: int) -> list:
    """gcd of two univariate polynomials mod p, ascending coefficients."""
    a, b = _trim(a, p), _trim(b, p)
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            q = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            a = _trim(a, p)
        a, b = b, a
    return a


def squarefree(poly: dict, p: int) -> bool:
    """A sufficient test that the curve has no repeated component.

    A repeated factor in one variable alone divides the content of f in the
    other variable.  A repeated factor g^2 in both variables divides
    f(x, y0) for every y0 that keeps the x-degree of f, and f(x0, y) for
    every x0 that keeps its y-degree; so one squarefree full-degree
    specialization rules it out.  Curves the test cannot clear are
    redrawn.
    """
    def slices(var: int) -> dict:
        # f as a polynomial in ``var`` with coefficients in the other one
        out: dict = {}
        for exp, c in poly.items():
            row = out.setdefault(exp[var], [0] * (degree(poly) + 1))
            row[exp[1 - var]] += c
        return out

    for var in (0, 1):
        content: list = []
        for coeff in slices(var).values():
            content = _uni_gcd(content, coeff, p)
        if len(content) > 1:
            return False
    for var in (0, 1):
        deg = max(e[var] for e in poly)
        for v in range(p):
            uni = [0] * (deg + 1)
            for exp, c in poly.items():
                uni[exp[var]] += c * pow(v, exp[1 - var], p)
            uni = _trim(uni, p)
            der = [i * c for i, c in enumerate(uni)][1:]
            if len(uni) == deg + 1 and len(_uni_gcd(uni, der, p)) == 1:
                return True
    return False


def pt_text(pt: tuple) -> str:
    return ":".join(str(v) for v in pt)


def curve_file(field: str, poly: dict) -> dict:
    return {"field": field, "affine_poly": poly_text(poly),
            "assume_irreducible": True}


# ---------------------------------------------------------------------------
# Family parameter ranges, by field shape
# ---------------------------------------------------------------------------

def tame_params(p: int, k: int, max_d: int) -> list:
    """(d, c) with 3 <= d <= max_d and p coprime to d(d-1)."""
    return [(d, c) for d in range(3, max_d + 1) for c in (0, 1)
            if (d * (d - 1)) % p]


def wild_params(p: int, k: int, max_d: int) -> list:
    """(e, m, c) with m | p^e - 1, p coprime to m, e | k, p^e m <= max_d."""
    out = []
    for e in range(1, k + 1):
        if k % e:
            continue
        q = p ** e
        for m in range(1, q):
            if (q - 1) % m or q * m < 3 or q * m > max_d:
                continue
            out += [(e, m, 0), (e, m, 1)]
    return out


def power_params(p: int, k: int, max_d: int) -> list:
    """e with d = p^e >= 3 and e | k."""
    return [e for e in range(1, k + 1)
            if k % e == 0 and 3 <= p ** e <= max_d]


# ---------------------------------------------------------------------------
# Cells.  A workload's candidate jobs are grouped into cells of one family,
# field shape and degree.  Within the degree caps, census and certify have
# few enough candidates to run them all: every run meets every family,
# field and centre, the known failures included, and a seed changes only
# the order of the timed jobs.  Refute draws its perturbed curves per
# (field, degree) cell.
# ---------------------------------------------------------------------------

def _check_job(jid: str, field: str, poly: dict, point: tuple,
               strategy: str, expect: dict) -> dict:
    argv = ["check", "curve.json", "--point", pt_text(point)]
    if strategy != "auto":
        argv += ["--strategy", strategy]
    return {"id": f"{jid}@{pt_text(point)}", "argv": argv,
            "files": {"curve.json": curve_file(field, poly)},
            "expect": expect}


def kummer_splits(n: int, q: int) -> bool:
    """Whether F_q lacks the n-th roots of unity, n not dividing q - 1.
    Then x^n - a has factors of distinct degrees for most a in F_q, and
    the Monte Carlo screen refutes a Kummer-type centre of degree n."""
    return (q - 1) % n != 0


def _fields(workload: str):
    for shape, fields in FIELDS[workload].items():
        for p, k in fields:
            yield shape, p, k, field_spec(p, k), MAX_D[workload][shape]


def census_cells() -> dict:
    """Monte Carlo checks at theorem-Galois centres, by (family, field
    shape, degree, centre class, expected screen outcome).

    The inner centres of thm2_tame and thm2_wild and the outer centre of
    thm2_tame are Kummer covers (x^(d-1) = ... and y^d = ...).  The other
    centres are Artin-Schreier covers by the subfield F_(p^e), which the
    field contains, so their specializations always split evenly.
    """
    cells: dict = {}

    def add(key, jid, field, poly, pt, cls, n):
        cells.setdefault(key, []).append(_check_job(
            jid, field, poly, pt, "monte_carlo",
            {"rule": "census", "point_class": cls, "degree": n}))

    for shape, p, k, f, md in _fields("census"):
        q = p ** k
        for d, c in tame_params(p, k, md):
            for pt, cls, n in (((1, 0, 0), "inner", d - 1),
                               ((0, 1, 0), "outer", d)):
                add(("tame", shape, d, cls, kummer_splits(n, q)),
                    f"tame:{f}:d{d}:c{c}", f, tame_poly(d, c, p), pt, cls, n)
        for e, m, c in wild_params(p, k, md):
            d = p ** e * m
            jid, poly = f"wild:{f}:e{e}:m{m}:c{c}", wild_poly(p, e, m, c)
            add(("wild", shape, d, "inner", kummer_splits(d - 1, q)), jid, f,
                poly, (1, 0, 0), "inner", d - 1)
            add(("wild", shape, d, "outer"), jid, f, poly, (0, 1, 0),
                "outer", d)
        for e in power_params(p, k, md):
            d = p ** e
            for pt, cls, n in (((0, 0, 1), "inner", d - 1),
                               ((1, 1, 0), "outer", d)):
                add(("power", shape, d, cls), f"power:{f}:e{e}", f,
                    power_poly(d, p), pt, cls, n)
    return cells


def all_jobs(cells: dict) -> list:
    """Every candidate of every cell once, in cell order."""
    return [job for key in sorted(cells, key=repr) for job in cells[key]]


def gk_poly() -> dict:
    """x^8 + x - (x^2 + x)^3 - y^9 over F_2: the gk model for q = 2."""
    poly: dict = {}
    _add_term(poly, (8, 0), 1, 2)
    _add_term(poly, (1, 0), 1, 2)
    for i in range(4):      # (x^2 + x)^3 = sum C(3, i) x^(2i) x^(3-i)
        _add_term(poly, (i + 3, 0), -_binom_mod(3, i, 2), 2)
    _add_term(poly, (0, 9), -1, 2)
    return poly


def gk_job() -> dict:
    """The census screen at the inner point of the gk model over F_64."""
    return _check_job("gk:2^6", "2^6", gk_poly(), (1, 0, 0), "monte_carlo",
                      {"rule": "census", "point_class": "inner", "degree": 8})


def _family_job(spec: dict) -> dict:
    jid = "family:" + ":".join(f"{k}={spec[k]}" for k in sorted(spec))
    return {"id": jid, "argv": ["family", "spec.json"],
            "files": {"spec.json": spec},
            "expect": {"rule": "family", "spec": spec}}


def certify_cells() -> dict:
    """``family`` on every family and ``branch`` for d = 3 and 4."""
    cells: dict = {}
    for shape, p, k, f, md in _fields("certify"):
        for d, c in tame_params(p, k, md):
            cells.setdefault(("tame", shape, d), []).append(_family_job(
                {"tag": "thm2_tame", "field": f, "d": d, "c": c}))
        for e, m, c in wild_params(p, k, md):
            cells.setdefault(("wild", shape, p ** e * m), []).append(
                _family_job({"tag": "thm2_wild", "field": f, "p": p, "e": e,
                             "m": m, "c": c}))
        for e in power_params(p, k, md):
            for variant in ("pencil", "power"):
                cells.setdefault(("prop4", shape, p ** e, variant), []).append(
                    _family_job({"tag": "prop4", "field": f, "p": p, "e": e,
                                 "variant": variant}))
    for p in PRIMES:
        for tag in ("thm3_cubic", "thm3_quartic"):
            cells.setdefault((tag,), []).append(
                _family_job({"tag": tag, "field": field_spec(p)}))
        for d in (3, 4):
            cells.setdefault(("branch", d), []).append(
                {"id": f"branch:d{d}:{p}",
                 "argv": ["branch", "--d", str(d), "--field", field_spec(p)],
                 "files": {}, "expect": {"rule": "branch", "d": d, "p": p}})
    return cells


def _fixture(name: str) -> dict:
    with open(FIXTURES / name) as fh:
        return json.load(fh)


def certify_fixed() -> list:
    """The fixture jobs every certify run checks before its timed loop."""
    jobs = [_family_job(_fixture("thm2_wild_p2e2m3_f16.json"))]
    for name, d in (("thm3_cubic_curve.json", 3),
                    ("thm3_quartic_curve.json", 4)):
        jobs.append({"id": f"pair:{name}",
                     "argv": ["pair", "curve.json", "--inner", "0:1:0",
                              "--outer", "1:0:0"],
                     "files": {"curve.json": _fixture(name)},
                     "expect": {"rule": "pair_thm3", "d": d}})
    for name in ("groups_a4_f13.json", "groups_toy_conic_f13.json",
                 "groups_incompatible_f13.json"):
        data = _fixture(name)
        jobs.append({"id": f"embed:{name}", "argv": ["embed", "groups.json"],
                     "files": {"groups.json": data},
                     "expect": {"rule": "embed", "groups": data}})
    return jobs


def _perturb(rng: random.Random, poly: dict, p: int, count: int) -> dict:
    """Add ``count`` monomials of lower degree at exponents the curve does
    not use, so no term cancels and the degree form stays the family's."""
    d = degree(poly)
    free = [(a, t - a) for t in range(d) for a in range(t + 1)
            if (a, t - a) not in poly]
    out = dict(poly)
    for exp in rng.sample(free, min(count, len(free))):
        out[exp] = rng.randrange(1, p)
    return out


def inseparable(poly: dict, pt: tuple, p: int) -> bool:
    """Whether the projection from pt = (a:b:c) is inseparable: the polar
    a F_X + b F_Y + c F_Z of the curve's form F vanishes identically mod p.
    Along the line through pt, the fiber polynomial's derivative in the
    fiber coordinate is that polar, so every specialization is ramified and
    the Monte Carlo screen has nothing to count."""
    d = degree(poly)
    polar: dict = {}
    for (i, j), c in poly.items():
        k = d - i - j
        for exp, n, v in (((i - 1, j, k), i, pt[0]), ((i, j - 1, k), j, pt[1]),
                          ((i, j, k - 1), k, pt[2])):
            if n and v:
                polar[exp] = (polar.get(exp, 0) + c * n * v) % p
    return not any(polar.values())


def _refute_check(jid: str, field: str, poly: dict, pt: tuple, p: int):
    cls = centre_class(poly, pt, p)
    if cls == "singular":
        return None
    return _check_job(jid, field, poly, pt, "auto",
                      {"rule": "refute", "point_class": cls,
                       "degree": degree(poly) - (cls == "inner")})


def _refute_bases(p: int, k: int, d: int) -> list:
    """The degree-d family curves over F_(p^k), as (name, polynomial)."""
    bases = [(f"tame:d{d}:c{c}", tame_poly(d, c, p))
             for dd, c in tame_params(p, k, d) if dd == d]
    bases += [(f"wild:e{e}:m{m}:c{c}", wild_poly(p, e, m, c))
              for e, m, c in wild_params(p, k, d) if p ** e * m == d]
    bases += [(f"power:e{e}", power_poly(d, p))
              for e in power_params(p, k, d) if p ** e == d]
    return bases


def refute_job(rng: random.Random, p: int, k: int, d: int) -> dict:
    """``check`` (auto) at a random centre with prime-field coordinates, off
    the curve or smooth on it, of a degree-d family curve over F_(p^k) plus
    1 to 3 random monomials of lower degree.  Draws that give a curve with
    a repeated component or no usable centre are redrawn, and so are
    centres with an inseparable projection, which REFUTE_INSEPARABLE
    stands for once per run."""
    f = field_spec(p, k)
    bases = _refute_bases(p, k, d)
    for _ in range(1000):
        base, curve = rng.choice(bases)
        poly = _perturb(rng, curve, p, rng.randrange(1, 4))
        if not squarefree(poly, p):
            continue
        for _ in range(50):
            pt = ((rng.randrange(p), rng.randrange(p), 1)
                  if rng.random() < 0.8 else (1, rng.randrange(p), 0))
            job = _refute_check(f"refute:{f}:{base}:{poly_text(poly)}", f,
                                poly, pt, p)
            if job is not None and not inseparable(poly, pt, p):
                return job
    raise RuntimeError(f"no usable degree-{d} curve over {f}")


def refute_cells() -> list:
    """(p, k, degree) for every refute field with a family of that degree.
    The perturbed curves are too many to list, so each run draws
    REFUTE_ROUNDS of them per cell."""
    return [(p, k, d) for shape, p, k, f, md in _fields("refute")
            for d in range(3, md + 1) if _refute_bases(p, k, d)]


# The collineation scan on this perturbed quintic over F_17 climbs past
# ext_cap into a huge working field and runs for over a minute (101 s on a
# 2-core x86-64 machine): every refute run checks it before its timed
# loop, so the working-field tail shows as one time-out per run.
REFUTE_TAIL = ("17^1", {(0, 5): 1, (4, 0): 1, (1, 2): 16, (0, 3): 2,
                        (1, 1): 11}, (12, 13, 1))


def refute_tail_job() -> dict:
    field, poly, pt = REFUTE_TAIL
    return _refute_check(f"refute-tail:{field}:{poly_text(poly)}", field,
                         poly, pt, 17)


# Projecting this perturbed quartic over F_4 from 1:1:0 is inseparable, so
# ``check`` exits 2 (AllSpecializationsRamified).  Random refute draws skip
# such centres and every refute run times this one instead, so the failure
# shows once per run whatever the seed.
REFUTE_INSEPARABLE = ("2^2", {(0, 4): 1, (0, 2): 1, (1, 0): 1, (0, 1): 1},
                      (1, 1, 0))


def refute_inseparable_job() -> dict:
    field, poly, pt = REFUTE_INSEPARABLE
    return _refute_check(f"refute-inseparable:{field}:{poly_text(poly)}",
                         field, poly, pt, 2)


# Refute curves drawn per (field, degree) cell; one draw per cell takes
# about 0.2 s, so the timed jobs take about 25 s once through.
REFUTE_ROUNDS = 120


def generate(workload: str, seed: int) -> list:
    """The job list of ``workload`` for ``seed``.

    A job with ``before`` set runs once before the timed loop: the gk
    screen (15 to 21 s), the certify fixtures (the thm2_wild fixture over
    F_16 alone takes 5 to 7 s) and the refute tail, which runs into the
    time limit.  Their reports are checked like every other, but their
    times, which would swing a run's throughput with machine speed, stay
    out of the timed loop.  The other jobs form the timed set, in the
    order the seed gives them.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census":
        before, timed = [gk_job()], all_jobs(census_cells())
    elif workload == "certify":
        before, timed = certify_fixed(), all_jobs(certify_cells())
    else:
        before = [refute_tail_job()]
        timed = [refute_inseparable_job()] + [
            refute_job(rng, p, k, d) for _ in range(REFUTE_ROUNDS)
            for p, k, d in refute_cells()]
    rng.shuffle(timed)
    return ([dict(job, before=True) for job in before]
            + [dict(job, before=False) for job in timed])
