import ast
import inspect
import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from galoispoints import galois, polyring, projective
from galoispoints.cli import dispatch, load_curve
from galoispoints.config import RunConfig
from galoispoints.curve import curve_from_affine, pencil_parametrization, singular_points
from galoispoints.errors import (
    AllSpecializationsRamified,
    CenterSingular,
    DegenerateFibers,
    GaloisPointError,
    MissingParametrization,
    SoundnessError,
)
from galoispoints.galois import (
    GaloisReport,
    central_collineation_group,
    deck_group,
    fiber_polynomial,
    is_galois_point,
    monte_carlo_galois,
)
from galoispoints.gf import FqElement, make_field
from galoispoints.polyring import (Polynomial, _dd_parts, _lift_rows,
                                   _specializer, _squarefree_specializer,
                                   _u_eval, factor_univariate)
from galoispoints.projective import ProjPoint, Projectivity, identify_group, point_p1
from galoispoints.ratfunc import RationalMap1D

import props

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def cubic3a(F13):
    x = Polynomial.variable(F13, 2, 0)
    y = Polynomial.variable(F13, 2, 1)
    return curve_from_affine(y * y * x + (x + 1) ** 2 * (x - 8))


@pytest.fixture(scope="module")
def cubic3a_param(cubic3a):
    (pt, _), = singular_points(cubic3a).points
    return pencil_parametrization(cubic3a, pt)


class TestFiberPolynomial:
    def test_outer_fiber_of_cubic(self, cubic3a, F13):
        # from (1:0:0): s^3 - 6 s^2 + (t^2 - 15) s - 8
        fib = fiber_polynomial(cubic3a, ProjPoint(F13, [1, 0, 0]))
        assert not fib.inner and fib.degree == 3
        expect = Polynomial.from_terms(
            F13, 2, {(0, 3): 1, (0, 2): -6, (2, 1): 1, (0, 1): -15, (0, 0): -8})
        assert fib.poly == expect

    def test_inner_fiber_degree_drop(self, cubic3a, F13):
        fib = fiber_polynomial(cubic3a, ProjPoint(F13, [0, 1, 0]))
        assert fib.inner and fib.degree == 2

    def test_conic_degree_one(self, F13):
        x = Polynomial.variable(F13, 2, 0)
        y = Polynomial.variable(F13, 2, 1)
        conic = curve_from_affine(x - y * y)
        fib = fiber_polynomial(conic, ProjPoint(F13, [0, 0, 1]))
        assert fib.inner and fib.degree == 1

    def test_singular_center_raises(self, cubic3a, F13):
        with pytest.raises(CenterSingular):
            fiber_polynomial(cubic3a, ProjPoint(F13, [-1, 0, 1]))


class TestMonteCarlo:
    def test_thm2_probably_galois(self):
        F11 = make_field(11)
        x = Polynomial.variable(F11, 2, 0)
        y = Polynomial.variable(F11, 2, 1)
        C = curve_from_affine(x ** 4 + y ** 5 + 1)
        fib = fiber_polynomial(C, ProjPoint(F11, [0, 1, 0]))
        rep = monte_carlo_galois(fib, trials=32)
        assert rep.verdict == "probably_galois"

    def test_generic_cubic_refuted_with_witness(self, F7):
        x = Polynomial.variable(F7, 2, 0)
        y = Polynomial.variable(F7, 2, 1)
        C = curve_from_affine(y * y * x + x ** 3 + x + 1)
        fib = fiber_polynomial(C, ProjPoint(F7, [1, 0, 0]))
        rep = monte_carlo_galois(fib, trials=64)
        assert rep.verdict == "certified_not_galois"
        w = rep.witness
        # independent re-factorization of the witness specialization
        k = int(w["field"].split("^")[1]) if "^" in w["field"] else 1
        ectx = make_field(7, k)
        t0 = FqElement(ectx, ectx.decode(w["t0"]))
        spec = fib.poly.partial_evaluate(0, t0)
        degs = sorted(f.degree() for f, _ in factor_univariate(spec, seed=991))
        assert degs == w["factor_degrees"]
        assert len(set(degs)) >= 2

    def test_all_specializations_ramified(self, F4):
        # y^2 - x in characteristic 2, projected from the outer point
        # (0:1:0): every fiber s^2 = t is inseparable
        from galoispoints.errors import AllSpecializationsRamified
        x = Polynomial.variable(F4, 2, 0)
        y = Polynomial.variable(F4, 2, 1)
        C = curve_from_affine(y * y - x)
        fib = fiber_polynomial(C, ProjPoint(F4, [0, 1, 0]))
        assert fib.degree == 2 and not fib.inner
        with pytest.raises(AllSpecializationsRamified):
            monte_carlo_galois(fib, trials=12)

    def test_degree_one_trivially_probable(self, F13):
        x = Polynomial.variable(F13, 2, 0)
        y = Polynomial.variable(F13, 2, 1)
        conic = curve_from_affine(x - y * y)
        fib = fiber_polynomial(conic, ProjPoint(F13, [0, 0, 1]))
        rep = monte_carlo_galois(fib, trials=4)
        assert rep.verdict == "probably_galois"

    def test_matches_reference_screen(self):
        props.galois_screen_matches_reference(200)

    def test_each_draw_seeded_and_decided_once(self, monkeypatch):
        # on the refute seed-7 centres the screen decides each distinct
        # usable (extension degree, t0) of a fiber of degree 3 or more
        # once, a cubic in odd characteristic by its discriminant's
        # character and any other fiber by distinct-degree factorization,
        # and a degree-2 fiber never; an odd cubic runs no factorization
        # and no remainder sequence; and each trial's stream is seeded at
        # most once per (trial, order) in the process
        seeded, calls = Counter(), Counter()
        real_random = random.Random

        def counted_random(key):
            rng = real_random(key)
            randrange = rng.randrange

            def draw(order):
                seeded[key, order] += 1
                return randrange(order)
            rng.randrange = draw
            return rng

        def counted(module, name):
            real = getattr(module, name)

            def call(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, call)

        monkeypatch.setattr(galois, "random",
                            SimpleNamespace(Random=counted_random))
        counted(galois, "_u_factor_degrees")
        counted(galois, "_u_disc_character")
        counted(polyring, "_u_prs")
        galois._mc_draw.cache_clear()
        run = repeated = 0
        kinds = Counter()
        for fib in _refute_centers(7):
            if fib.degree < 2:
                continue
            base = fib.curve.ctx
            odd_cubic = fib.degree == 3 and base.p != 2
            kinds["odd cubic" if odd_cubic else min(fib.degree, 3)] += 1
            # building a field and embedding into it run remainder
            # sequences, once per process and outside any trial
            for j in (2, 3):
                _lift_rows(base, make_field(base.p, base.k * j), fib.rows)
            calls.clear()
            try:
                trials = monte_carlo_galois(fib, trials=64).trials
            except AllSpecializationsRamified:
                trials = 64
            screen = dict(calls)
            specialize = _squarefree_specializer(base, fib.rows, fib.degree)
            full = _specializer(base, fib.rows, fib.degree)
            usable, full_degree = [], set()
            for trial in range(trials):
                j = trial % 3 + 1
                ectx = base if j == 1 else make_field(base.p, base.k * j)
                code = real_random(f"mc:0:{trial}").randrange(ectx.order)
                t0 = FqElement(ectx, ectx.decode(code))
                if specialize(t0) is not None:
                    usable.append((j, code))
                if full(t0) is not None:
                    full_degree.add((j, code))
            distinct = len(set(usable)) if fib.degree > 2 else 0
            if odd_cubic:
                # the character also tests squarefreeness, so it decides
                # every distinct full-degree draw, usable or not, once
                assert screen.get("_u_disc_character", 0) == len(full_degree)
                assert "_u_factor_degrees" not in screen, fib.curve
                assert "_u_prs" not in screen, fib.curve
            else:
                assert screen.get("_u_factor_degrees", 0) == distinct
                assert "_u_disc_character" not in screen, fib.curve
            run += trials
            repeated += len(usable) - len(set(usable))
        assert max(seeded.values()) == 1
        assert len(seeded) < run / 10 < repeated, (len(seeded), repeated, run)
        assert min(kinds[2], kinds[3], kinds["odd cubic"]) > 50, kinds

    def test_draw_cache_bounded(self, F7):
        # a screen with more trials than the draw cache holds keeps it at
        # its bound, and the evicted draws give the same report
        size = galois._mc_draw.cache_info().maxsize
        assert size is not None
        x = Polynomial.variable(F7, 2, 0)
        y = Polynomial.variable(F7, 2, 1)
        # y^3 = x^2 + 1 from (0:1:0): a Kummer cubic, Galois as 7 = 1 mod 3
        fib = fiber_polynomial(curve_from_affine(y ** 3 - x ** 2 - 1),
                               ProjPoint(F7, [0, 1, 0]))
        assert fib.degree == 3
        galois._mc_draw.cache_clear()
        for _ in range(2):
            got = monte_carlo_galois(fib, trials=size + 500)
            assert galois._mc_draw.cache_info().currsize == size
        want = props.reference_screen(fib, trials=size + 500)
        assert got.verdict == "probably_galois"
        assert got.to_jsonable() == want.to_jsonable()


class TestCentralCollineations:
    def test_cubic_inner_order_two(self, cubic3a, F13):
        G = central_collineation_group(
            fiber_polynomial(cubic3a, ProjPoint(F13, [0, 1, 0])))
        assert len(G) == 2
        mats = sorted(g.row_major() for g in G.elements)
        assert mats == [[1, 0, 0, 0, 1, 0, 0, 0, 1],
                        [1, 0, 0, 0, 12, 0, 0, 0, 1]]  # y -> -y

    def test_thm2_d5_outer_cyclic_five(self):
        F11 = make_field(11)
        x = Polynomial.variable(F11, 2, 0)
        y = Polynomial.variable(F11, 2, 1)
        C = curve_from_affine(x ** 4 + y ** 5 + 1)
        G = central_collineation_group(
            fiber_polynomial(C, ProjPoint(F11, [0, 1, 0])))
        assert len(G) == 5
        assert identify_group(G).tag == "cyclic"

    def test_no_matrix_product_at_fixture_centers(self, monkeypatch):
        # every center of the family fixtures (thm2 tame and wild, prop4,
        # thm3) and of the curve fixtures gets its group written down from
        # (lam, beta, delta) triples: no matrix product, no closure
        fibs = _fixture_centers()
        monkeypatch.setattr(Projectivity, "__mul__", _no_matrix_product)
        monkeypatch.setattr(galois, "generate_group", _no_matrix_product)
        monkeypatch.setattr(projective, "generate_group", _no_matrix_product)
        orders = {"tame": set(), "wild": set()}
        for fib in fibs:
            G = central_collineation_group(fib)
            kind = "wild" if fib.degree % fib.curve.ctx.p == 0 else "tame"
            orders[kind].add(len(G))
        assert max(orders["tame"]) > 1 and max(orders["wild"]) > 1, orders

    def test_random_curve_only_identity(self, F7):
        x = Polynomial.variable(F7, 2, 0)
        y = Polynomial.variable(F7, 2, 1)
        C = curve_from_affine(y * y * x + x ** 3 + x + 1)
        G = props.brute_collineation_group(
            fiber_polynomial(C, ProjPoint(F7, [1, 0, 0])))
        assert len(G) == 1

    def test_exact_and_brute_agree(self, cubic3a, F13):
        fib = fiber_polynomial(cubic3a, ProjPoint(F13, [0, 1, 0]))
        exact = central_collineation_group(fib)
        brute = props.brute_collineation_group(fib)
        assert {tuple(g.row_major()) for g in exact.elements} == \
               {tuple(g.row_major()) for g in brute.elements}

    def test_soundness_order_bounded_by_degree(self, F7):
        rng = random.Random(17)
        from props import _random_reduced_curve
        done = 0
        while done < 10:
            C = _random_reduced_curve(rng, F7, 3)
            pt = ProjPoint(F7, [1, 0, 0])
            if C.contains(pt):
                continue
            fib = fiber_polynomial(C, pt)
            try:
                G = central_collineation_group(fib)
            except GaloisPointError:
                continue
            assert len(G) <= fib.degree
            done += 1

    def test_fiber_common_field_within_ext_cap(self):
        # over F_4 the walk's first usable fiber of this perturbed wild
        # quartic at (0:1:1), t0 = 0, splits over 2^6.  Fibers over F_16
        # that split over 2^16 are within the cap alone (16 <= 2 * 12), but
        # both fibers together would need 2^48: the lcm branch rejects them
        # before a fiber over 2^12 is taken
        curve = load_curve(str(FIXTURES / "wild_p2e2_f4_perturbed_curve.json"))
        fib = fiber_polynomial(curve, ProjPoint(curve.ctx, [0, 1, 1]))
        base = fib.poly.ctx
        wctx, fibers = galois._fiber_search(fib.poly, fib.degree, 12, 2)
        assert wctx.k == 12
        specialize = _squarefree_specializer(base, fib.rows, fib.degree)
        kept, rejected = [], 0
        for t0 in itertools.islice(galois._walk(base), 32):
            spec = specialize(t0)
            if spec is None:
                continue
            j = t0.ctx.k // base.k
            k = t0.ctx.k * math.lcm(*(dd for _, dd, _ in _dd_parts(t0.ctx, spec)))
            if k > t0.ctx.k * max(1, 12 // j):
                continue
            if kept and math.lcm(kept[0][1], k) > 12 * base.k:
                rejected += 1
                continue
            kept.append((t0, k))
            if len(kept) == 2:
                break
        assert kept[0][1] == 6 and rejected > 0
        assert math.lcm(*(k for _, k in kept)) == wctx.k


class TestDeckGroup:
    def test_monomial(self, F13):
        t = RationalMap1D.variable(F13)
        h = t * t * t
        G = deck_group(h)
        assert len(G) == 3 and identify_group(G).tag == "cyclic"
        hw = h.lift_to(G.ctx)
        for sigma in G.elements:
            assert props.compose_mobius(hw, sigma) == hw

    def test_t_plus_inverse(self, F13):
        t = RationalMap1D.variable(F13)
        h = t + t.reciprocal()
        G = deck_group(h)
        assert len(G) == 2
        nontrivial = [g for g in G.elements
                      if g != Projectivity.identity(G.ctx, 2)]
        # the nontrivial element is t -> 1/t
        assert nontrivial[0].row_major() in ([0, 1, 1, 0],)

    def test_invariant_generator_roundtrip(self, F13):
        from galoispoints.embedder import invariant_generator
        from galoispoints.projective import generate_group
        klein = generate_group([Projectivity(F13, [[-1, 0], [0, 1]]),
                                Projectivity(F13, [[0, 1], [1, 0]])])
        f = invariant_generator(klein, point_p1(F13, 3))
        G = deck_group(f)
        assert len(G) == 4
        from galoispoints.gf import common_field
        ctx = common_field(G.ctx, klein.ctx)
        assert {g.lift_to(ctx).mat for g in G.elements} == \
            {g.lift_to(ctx).mat for g in klein.elements}

    def test_closure_verified(self, F13):
        t = RationalMap1D.variable(F13)
        G = deck_group(t ** 4)
        assert props.is_closed(G)

    def test_non_closed_scan_is_a_soundness_error(self, F13, monkeypatch):
        # the scan found three maps; a closure of another order is a fault
        # of the program, not of the input
        monkeypatch.setattr(galois, "_deck_closure", lambda hw, found, base:
                            projective.trivial_group(base, 2))
        t = RationalMap1D.variable(F13)
        with pytest.raises(SoundnessError, match="non-closed set"):
            deck_group(t ** 3)

    def test_matches_brute_force(self):
        props.galois_deck_group_matches_brute(60)

    def test_degenerate_fibers_name_how_many_were_needed(self, F4):
        # every fiber of an inseparable map is a square, so none is usable;
        # n = 2 needs two fibers and n >= 3 one
        t = RationalMap1D.variable(F4)
        with pytest.raises(DegenerateFibers,
                           match="needs 2 usable fiber.s., found 0 within 32"):
            deck_group(t * t)
        t = RationalMap1D.variable(make_field(3))
        with pytest.raises(DegenerateFibers,
                           match="needs 1 usable fiber.s., found 0 within 32"):
            deck_group(t ** 3)


class TestDenseExactTests:
    def test_collineation_test_matches_sparse_oracle(self):
        props.galois_collineation_test_matches_sparse(300)

    def test_deck_candidate_matches_three_point_oracle(self):
        props.galois_mobius_through_matches_oracle(300)


class TestTameOrder:
    def test_matches_exact_scan(self):
        props.galois_tame_order_matches_scan(60)

    def test_split_additive_wild_centers_never_degenerate(self, monkeypatch):
        monkeypatch.setattr(galois, "_fiber_search", _no_fiber_search)
        props.galois_split_additive_never_degenerate(250)

    def test_trivial_tame_center_skips_fiber_search(self, F13, monkeypatch):
        # y^4 + x^2 y + x^3 + 1 from (0:1:0): a_3 = 0, so c = 0 and the
        # shifted rows are the rows; a_1 and a_0 give gcd(4 - 1, 4 - 0) = 1
        x = Polynomial.variable(F13, 2, 0)
        y = Polynomial.variable(F13, 2, 1)
        C = curve_from_affine(y ** 4 + x ** 3 + x * x * y + 1)
        fib = fiber_polynomial(C, ProjPoint(F13, [0, 1, 0]))
        assert galois._tame_order(fib, 12)[3] == 1

        def no_search(*args, **kwargs):
            raise AssertionError("fiber search at a trivial tame center")

        monkeypatch.setattr(galois, "_fiber_search", no_search)
        G = central_collineation_group(fib)
        assert len(G) == 1 and G.ctx == F13
        rep = is_galois_point(C, ProjPoint(F13, [0, 1, 0]),
                              strategy="collineation")
        assert rep.verdict == "inconclusive" and len(rep.group) == 1

    def test_no_center_searches_fibers(self, F13, F4, monkeypatch):
        # m > 1: the tame group is built in closed form over F_13, which
        # holds the 4th roots of unity; p | n: the wild group of
        # y^4 + y = x^3 + 1 is its 4 translations y -> y + v, v^4 = v.
        # Neither, nor any center of the fixtures or of the refute
        # benchmark (seed 7), searches fibers
        monkeypatch.setattr(galois, "_fiber_search", _no_fiber_search)
        x = Polynomial.variable(F13, 2, 0)
        y = Polynomial.variable(F13, 2, 1)
        kummer = fiber_polynomial(curve_from_affine(y ** 4 + x ** 3 + 1),
                                  ProjPoint(F13, [0, 1, 0]))
        assert galois._tame_order(kummer, 12)[3] == 4
        G = central_collineation_group(kummer)
        assert len(G) == 4 and G.ctx == F13
        x = Polynomial.variable(F4, 2, 0)
        y = Polynomial.variable(F4, 2, 1)
        wild = fiber_polynomial(curve_from_affine(y ** 4 + y + x ** 3 + 1),
                                ProjPoint(F4, [0, 1, 0]))
        assert galois._tame_order(wild, 12) is None
        G = central_collineation_group(wild)
        assert len(G) == 4 and G.ctx == F4
        kinds = {"tame": 0, "wild": 0}
        for fib in _fixture_centers() + _refute_centers(7):
            G = central_collineation_group(fib)
            assert 1 <= len(G) <= fib.degree, fib.poly
            kinds["wild" if fib.degree % fib.poly.ctx.p == 0 else "tame"] += 1
        assert min(kinds.values()) > 100, kinds


def _no_matrix_product(*args, **kwargs):
    raise AssertionError("matrix product in a collineation group")


def _no_fiber_search(*args, **kwargs):
    raise AssertionError("fiber search for a collineation group")


def _fixture_centers() -> list:
    """The fibers at the centers of ``_fixture_pairs``."""
    return [fiber_polynomial(curve, pt) for curve, pt in _fixture_pairs()]


def _fixture_pairs() -> list:
    """(curve, center) for both centers of every family fixture and the
    check and pair centers of the curve fixtures."""
    from galoispoints.families import FamilySpec, build_family
    pairs = []
    for path in sorted(FIXTURES.glob("*.json")):
        data = json.loads(path.read_text())
        if "tag" in data:
            curve, exp = build_family(FamilySpec.from_dict(data))
            pairs += [(curve, pt) for pt in (exp.P, exp.Q)]
    for name, point in (("thm3_quartic_curve", (1, 0, 0)),
                        ("thm3_cubic_curve", (1, 0, 0)),
                        ("tame_d5_f19_curve", (1, 0, 0)),
                        ("tame_d5_f19_curve", (0, 1, 0)),
                        ("wild_p2e2_f4_perturbed_curve", (0, 1, 1)),
                        ("refute_tail_f17_curve", (12, 13, 1))):
        curve = load_curve(str(FIXTURES / f"{name}.json"))
        pairs.append((curve, ProjPoint(curve.ctx, point)))
    return pairs


def _refute_centers(seed: int) -> list:
    """The fibers at the centers of ``_refute_inputs``."""
    return [fiber_polynomial(curve_from_affine(f), pt)
            for f, pt in _refute_inputs(seed)]


def _refute_inputs(seed: int) -> list:
    """(affine polynomial, center) of the refute benchmark's check jobs."""
    import importlib.util
    from galoispoints.gf import parse_field_spec
    from galoispoints.polyring import parse_poly
    path = FIXTURES.parent / "verdictbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    inputs = []
    for job in gen.generate("refute", seed):
        data = job["files"]["curve.json"]
        ctx = parse_field_spec(data["field"])
        point = job["argv"][job["argv"].index("--point") + 1]
        inputs.append((parse_poly(data["affine_poly"], ctx, 2), ProjPoint(
            ctx, [int(c) for c in point.split(":")])))
    return inputs


class TestDenseFrontEnd:
    def test_fiber_matches_sparse_oracle(self):
        props.galois_fiber_matches_sparse(300)

    def test_no_sparse_fiber_and_few_exact_gcds(self, monkeypatch):
        # every fixture and refute (seed 7) center builds its fiber with
        # no sparse composition, point query or gradient, and the dense
        # squarefree certificate leaves at most 1 of the 722 refute curves
        # to the exact gcd
        from galoispoints import curve as curve_mod
        exact_gcd, undecided = curve_mod.poly_gcd, []

        def counted(*args):
            undecided.append(args)
            return exact_gcd(*args)

        monkeypatch.setattr(curve_mod, "poly_gcd", counted)
        pairs, reached = [], 0
        inputs = _refute_inputs(7)
        for f, pt in inputs:
            before = len(undecided)
            pairs.append((curve_from_affine(f), pt))
            reached += len(undecided) > before
        assert len(inputs) == 722 and reached <= 1, reached
        pairs += _fixture_pairs()
        for owner, name in ((Polynomial, "compose"),
                            (curve_mod.PlaneCurve, "contains"),
                            (curve_mod.PlaneCurve, "gradient_at")):
            monkeypatch.setattr(owner, name, _no_sparse_fiber)
        for curve, pt in pairs:
            assert fiber_polynomial(curve, pt).rows


def _no_sparse_fiber(*args, **kwargs):
    raise AssertionError("sparse step in a fiber or center class")


class TestWildGroup:
    def test_matches_brute_oracle(self):
        props.galois_wild_group_matches_brute(200)


class TestIsGaloisPoint:
    def test_cubic_inner_certified(self, cubic3a, F13):
        rep = is_galois_point(cubic3a, ProjPoint(F13, [0, 1, 0]))
        assert rep.verdict == "certified_galois"
        assert rep.point_class == "inner"
        assert len(rep.group) == 2 and rep.method == "collineation"

    def test_cubic_outer_deck_certified(self, cubic3a, cubic3a_param, F13):
        rep = is_galois_point(cubic3a, ProjPoint(F13, [1, 0, 0]),
                              strategy="deck", parametrization=cubic3a_param)
        assert rep.verdict == "certified_galois"
        assert rep.point_class == "outer"
        assert len(rep.group) == 3
        assert rep.descriptor.tag == "cyclic"

    def test_smooth_quartic_generic_point_refuted(self, F13):
        x = Polynomial.variable(F13, 2, 0)
        y = Polynomial.variable(F13, 2, 1)
        C = curve_from_affine(x ** 3 + y ** 4 + 1)
        rep = is_galois_point(C, ProjPoint(F13, [1, 1, 1]),
                              cfg=RunConfig(trials=64))
        assert rep.verdict == "certified_not_galois"

    def test_deck_without_param_raises(self, cubic3a, F13):
        with pytest.raises(MissingParametrization):
            is_galois_point(cubic3a, ProjPoint(F13, [1, 0, 0]), strategy="deck")

    def test_forced_monte_carlo(self, cubic3a, F13):
        rep = is_galois_point(cubic3a, ProjPoint(F13, [0, 1, 0]),
                              strategy="monte_carlo", cfg=RunConfig(trials=16))
        assert rep.verdict == "probably_galois"
        assert rep.method == "monte_carlo"

    def test_center_moved_once_per_check(self, cubic3a, cubic3a_param, F13,
                                         monkeypatch):
        # the outer center goes through the collineation closed form, then
        # the deck scan: both read the one fiber built for it
        calls = []
        move = galois._move_center

        def spy(*args):
            calls.append(args)
            return move(*args)

        monkeypatch.setattr(galois, "_move_center", spy)
        rep = is_galois_point(cubic3a, ProjPoint(F13, [1, 0, 0]),
                              parametrization=cubic3a_param)
        assert rep.verdict == "certified_galois" and rep.method == "deck"
        assert len(calls) == 1

    def test_inseparable_center_gets_translation_group(self, tmp_path,
                                                        capsys, F4):
        # every fiber of y^4 + y^2 + y + x from (1:1:0) is inseparable in
        # characteristic 2, which the closed form does not need: its group
        # is the translation (x : y : z) -> (x + z : y + z : z), s -> s + 1
        # on the fiber, as the base-field oracle finds.  Order 2 < 4 cannot
        # certify, and the screen has nothing left
        from galoispoints.cli import dispatch
        x = Polynomial.variable(F4, 2, 0)
        y = Polynomial.variable(F4, 2, 1)
        C = curve_from_affine(y ** 4 + y ** 2 + x + y)
        fib = fiber_polynomial(C, ProjPoint(F4, [1, 1, 0]))
        G = central_collineation_group(fib)
        brute = props.brute_collineation_group(fib)
        assert G == brute
        assert sorted(g.row_major() for g in G.elements) == [
            [1, 0, 0, 0, 1, 0, 0, 0, 1], [1, 0, 1, 0, 1, 1, 0, 0, 1]]
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"field": "2^2",
                                    "affine_poly": C.affine().to_text()}))
        assert dispatch(["check", str(path), "--point", "1:1:0"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "AllSpecializationsRamified"
        assert dispatch(["check", str(path), "--point", "1:1:0",
                         "--strategy", "collineation"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "inconclusive"
        assert report["group"]["order"] == 2
        assert report["notes"] == ["collineation group order 2 < 4"]


class TestSoundnessGuards:
    def test_certified_galois_needs_group(self, F13):
        with pytest.raises(SoundnessError):
            GaloisReport(ProjPoint(F13, [0, 1, 0]), "inner", 2,
                         "certified_galois", group=None)

    def test_certified_not_galois_needs_witness(self, F13):
        with pytest.raises(SoundnessError):
            GaloisReport(ProjPoint(F13, [0, 1, 0]), "inner", 2,
                         "certified_not_galois", witness=None)

    def test_guard_survives_optimize_flag(self):
        # python -O strips assert statements; the guards must still raise
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "from galoispoints.errors import SoundnessError\n"
            "from galoispoints.galois import GaloisReport\n"
            "from galoispoints.gf import make_field\n"
            "from galoispoints.projective import ProjPoint\n"
            "assert False, 'asserts are live'\n"
            "F = make_field(13)\n"
            "try:\n"
            "    GaloisReport(ProjPoint(F, [0, 1, 0]), 'inner', 2,\n"
            "                 'certified_galois', group=None)\n"
            "except SoundnessError:\n"
            "    print('raised')\n")
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=str(src)))
        assert out.stdout.strip() == "raised"

    def test_deck_guard_runs_the_dense_test_under_optimize(self):
        # the post-closure deck guard re-verifies every group element with
        # RationalMap1D.invariant_under; a failing test must raise, with -O
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "from galoispoints.errors import SoundnessError\n"
            "from galoispoints.galois import deck_group\n"
            "from galoispoints.gf import make_field\n"
            "from galoispoints.ratfunc import RationalMap1D\n"
            "assert False, 'asserts are live'\n"
            "t = RationalMap1D.variable(make_field(13))\n"
            "RationalMap1D.invariant_under = lambda self, sigma: False\n"
            "try:\n"
            "    deck_group(t * t * t)\n"
            "except SoundnessError:\n"
            "    print('raised')\n")
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=str(src)))
        assert out.stdout.strip() == "raised"

    def test_homology_guards_under_optimize(self):
        # the closed-form builder raises at a tame center when a map fails
        # the exact test, when D N = s I breaks and when a map moves the
        # center; every case runs with -O
        code = (
            "F = make_field(13)\n"
            "x, y = (Polynomial.variable(F, 2, i) for i in range(2))\n"
            "C = curve_from_affine(x ** 3 + y ** 4 + 1)\n"
            "fib = galois.fiber_polynomial(C, ProjPoint(F, [0, 1, 0]))\n"
            "moved = ProjPoint(F, [1, 1, 0])\n"
            "def fail():\n"
            "    galois._collineation_fixes = lambda *args: False\n")
        assert _builder_guards(code) == [
            "4",
            "D N is not the scalar matrix s I",
            "a collineation moves its center",
            "a closed-form collineation fails the exact test"]

    def test_wild_guard_under_optimize(self):
        # the same three guards at a wild center, with -O: the translation
        # y -> y + w of y^2 + w y = x^3 over F_4 (w^2 = w + 1) moves
        # (0:0:1), and mutated into y -> y + w + 1 it fails the exact test
        code = (
            "F = make_field(2, 2)\n"
            "x, y = (Polynomial.variable(F, 2, i) for i in range(2))\n"
            "C = curve_from_affine(y ** 2 + y * F.element(2) + x ** 3)\n"
            "fib = galois.fiber_polynomial(C, ProjPoint(F, [0, 1, 0]))\n"
            "moved = ProjPoint(F, [0, 0, 1])\n"
            "def fail():\n"
            "    derive = galois._wild_order\n"
            "    def mutated(*args):\n"
            "        wctx, rows, T, m, x = derive(*args)\n"
            "        T = [(b, wctx.add_t(d, 1)) if d else (b, d)"
            " for b, d in T]\n"
            "        return wctx, rows, T, m, x\n"
            "    galois._wild_order = mutated\n")
        assert _builder_guards(code) == [
            "2",
            "D N is not the scalar matrix s I",
            "a collineation moves its center",
            "a closed-form collineation fails the exact test"]

    def test_transport_guard_under_optimize(self):
        # one transported deck map of the thm3 quartic's inner group,
        # mutated from (a t + b) / (c t + d) into (a t + b + 1) / (c t + d),
        # fails the verifier with -O: it is no assert
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "from galoispoints import galois\n"
            "from galoispoints.errors import SoundnessError\n"
            "from galoispoints.families import FamilySpec, build_family\n"
            "assert False, 'asserts are live'\n"
            "curve, exp = build_family(FamilySpec(tag='thm3_quartic', "
            "field='13^1'))\n"
            "rep = galois.is_galois_point(curve, exp.P, strategy='collineation')\n"
            "args = (rep.group, exp.P, exp.parametrization)\n"
            "print(len(galois.transported_deck_group(*args)))\n"
            "through, calls = galois._mobius_through, []\n"
            "def mutated(ctx, src, dst):\n"
            "    a, b, c, d = through(ctx, src, dst)\n"
            "    calls.append(1)\n"
            "    return (a, ctx.add_t(b, 1), c, d) if len(calls) == 1 "
            "else (a, b, c, d)\n"
            "galois._mobius_through = mutated\n"
            "try:\n"
            "    galois.transported_deck_group(*args)\n"
            "except SoundnessError as exc:\n"
            "    print(exc)\n")
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=str(src)))
        assert out.stdout.splitlines() == [
            "3", "a known deck map fails the exact test"]

    def test_src_has_no_assert_statement(self):
        # python -O strips asserts, so no guard may be written as one
        src = Path(__file__).resolve().parent.parent / "src" / "galoispoints"
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert found == []


_RATIONAL_FAMILIES = ("thm3_cubic_f13", "thm3_quartic_f13", "prop4_p2e2_f4",
                      "prop4_p2e2_f4_power")
_EMBED_GROUPS = ("groups_a4_f13", "groups_toy_conic_f13",
                 "groups_incompatible_f13")


def _builder_guards(setup: str) -> list:
    """The lines printed by a python -O run of ``setup``, which defines
    fib, a point ``moved`` off its center and ``fail()``, which makes the
    exact test fail: the group order, then the SoundnessError messages of
    the closed-form builder for a denormalizer D with D N != s I, for the
    center replaced by ``moved`` and after ``fail()``."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import dataclasses\n"
        "from galoispoints import galois\n"
        "from galoispoints.curve import curve_from_affine\n"
        "from galoispoints.errors import SoundnessError\n"
        "from galoispoints.gf import make_field\n"
        "from galoispoints.polyring import Polynomial\n"
        "from galoispoints.projective import Projectivity, ProjPoint\n"
        "assert False, 'asserts are live'\n"
        + setup +
        "print(len(galois.central_collineation_group(fib)))\n"
        "D = fib.denormalizer * Projectivity(F, [[2, 0, 0], [0, 1, 0],"
        " [0, 0, 1]])\n"
        "for bad in (dataclasses.replace(fib, denormalizer=D),\n"
        "            dataclasses.replace(fib, center=moved), None):\n"
        "    if bad is None:\n"
        "        fail()\n"
        "    try:\n"
        "        galois.central_collineation_group(bad or fib)\n"
        "    except SoundnessError as exc:\n"
        "        print(exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    return out.stdout.splitlines()


class TestKnownDeckGroups:
    """A certified collineation group is transported into PGL(2), and the
    embedder's groups are verified, not searched; the one deck search left
    (the outer center of a rational family) walks its fibers with no seed
    and splits them in one working field."""

    def test_one_deck_search_per_rational_family(self, monkeypatch, capsys):
        calls = []
        search = galois.deck_group

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(galois, "deck_group", counted)
        for name in _RATIONAL_FAMILIES:
            calls.clear()
            code = dispatch(["family", str(FIXTURES / f"{name}.json")])
            assert (name, code, len(calls)) == (name, 0, 1)
        for name in _EMBED_GROUPS:
            calls.clear()
            code = dispatch(["embed", str(FIXTURES / f"{name}.json")])
            assert (name, code, len(calls)) == (
                name, 2 if "incompatible" in name else 0, 0)
        capsys.readouterr()

    def test_deck_fibers_are_zeros_of_the_straight_lift(self, monkeypatch,
                                                         capsys):
        # h - t0, with h lifted straight into the working field, vanishes
        # at every root of the fiber that reaches the deck scan
        seen, current = [], []
        search, fibers = galois.deck_group, galois._fiber_search

        def deck(h, *args, **kwargs):
            current[:] = [h]
            return search(h, *args, **kwargs)

        def fiber_search(*args, **kwargs):
            out = fibers(*args, **kwargs)
            seen.append((current[0], out))
            return out

        monkeypatch.setattr(galois, "deck_group", deck)
        monkeypatch.setattr(galois, "_fiber_search", fiber_search)
        for name in _RATIONAL_FAMILIES:
            assert dispatch(["family", str(FIXTURES / f"{name}.json")]) == 0
        for name in _EMBED_GROUPS[:2]:
            assert dispatch(["embed", str(FIXTURES / f"{name}.json")]) == 0
        capsys.readouterr()
        assert len(seen) == len(_RATIONAL_FAMILIES)
        for h, (wctx, pairs) in seen:
            # every outer center has n >= 3: one fiber
            assert h.degree() >= 3 and len(pairs) == 1
            hw = h.lift_to(wctx)
            num, den = hw.num.to_dense(), hw.den.to_dense()
            for t0, roots in pairs:
                assert len(roots) == h.degree()
                values = [wctx.sub_t(_u_eval(wctx, num, r),
                                     wctx.mul_t(t0, _u_eval(wctx, den, r)))
                          for r in roots]
                assert values == [0] * len(roots), (h, wctx)

    def test_verifier_needs_the_whole_deck_group(self, F13):
        # Deck(t^4) over F_13 is t -> i^k t, i = 5, i^2 = -1: the four maps
        # verify, and so does the generator t -> 5t alone; the order-2
        # subgroup or its generator t -> -t, though each map is a deck map,
        # is no certificate
        t = RationalMap1D.variable(F13)
        quarter = [Projectivity(F13, [[F13.element(5) ** k, 0], [0, 1]])
                   for k in range(4)]
        G = galois.verify_deck_group(t ** 4, quarter)
        assert len(G) == 4 and G == deck_group(t ** 4)
        assert galois.verify_deck_group(t ** 4, quarter[1:2]) == G
        for half in (quarter[::2], quarter[2:3]):
            with pytest.raises(SoundnessError, match="not deg h = 4"):
                galois.verify_deck_group(t ** 4, half)

    def test_verifier_rejects_a_generator_off_the_group_under_optimize(self):
        # t -> 2t is no deck map of t^4 over F_13 (2^4 = 3): with -O the
        # verifier raises on it, also beside a true generator
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "from galoispoints import galois\n"
            "from galoispoints.errors import SoundnessError\n"
            "from galoispoints.gf import make_field\n"
            "from galoispoints.projective import Projectivity\n"
            "from galoispoints.ratfunc import RationalMap1D\n"
            "assert False, 'asserts are live'\n"
            "F = make_field(13)\n"
            "t = RationalMap1D.variable(F)\n"
            "for c in ([2], [5, 2]):\n"
            "    try:\n"
            "        galois.verify_deck_group(t ** 4, [Projectivity(F, "
            "[[a, 0], [0, 1]]) for a in c])\n"
            "    except SoundnessError as exc:\n"
            "        print(exc)\n")
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=str(src)))
        assert out.stdout.splitlines() == [
            "a known deck map fails the exact test"] * 2

    def test_only_generators_are_transported(self, monkeypatch):
        # the inner groups of the thm3 quartic and of prop4 over F_4 are
        # cyclic of order 3: one generator, one transport
        calls = []
        transport = galois._transport
        monkeypatch.setattr(galois, "_transport", lambda *args: calls.append(
            1) or transport(*args))
        from galoispoints.families import FamilySpec, build_family
        for spec in (FamilySpec(tag="thm3_quartic", field="13^1"),
                     FamilySpec(tag="prop4", field="2^2", p=2, e=2)):
            calls.clear()
            curve, exp = build_family(spec)
            rep = is_galois_point(curve, exp.P, strategy="collineation")
            G = galois.transported_deck_group(rep.group, exp.P,
                                              exp.parametrization)
            assert len(G) == 3 and len(rep.group.generators) == len(calls) == 1

    def test_random_deck_fibers_are_zeros_over_extension_bases(self):
        props.galois_deck_fibers_are_zeros(60)

    def test_walk_is_seed_free_and_distinct(self, F4):
        walk = list(galois._walk(F4))
        # F_4, then one of each pair of conjugates x, x^4 in F_16 - F_4
        # and one of each triple in F_64 - F_4
        assert [t.ctx.k for t in walk] == [2] * 4 + [4] * 6 + [6] * 20
        assert [t.encoding() for t in walk[:4]] == [0, 1, 2, 3]
        for t in walk[4:]:
            orbit = {t ** 4, t ** 16, t ** 64} - {t}
            assert orbit and min(x.encoding() for x in orbit) > t.encoding()
        assert "random" not in ast.dump(ast.parse(inspect.getsource(
            galois._fiber_search)))


class TestAgreement:
    """All applicable methods agree on the family curves: a collineation
    certificate coexists with a deck certificate of the same order, and
    Monte Carlo produces no witness in 256 trials."""

    def test_thm3_cubic_all_methods(self, cubic3a, cubic3a_param, F13):
        P = ProjPoint(F13, [0, 1, 0])
        col = is_galois_point(cubic3a, P, strategy="collineation")
        deck = is_galois_point(cubic3a, P, strategy="deck",
                               parametrization=cubic3a_param)
        assert col.verdict == deck.verdict == "certified_galois"
        assert len(col.group) == len(deck.group) == 2
        mc = is_galois_point(cubic3a, P, strategy="monte_carlo",
                             cfg=RunConfig(trials=256))
        assert mc.verdict == "probably_galois"

    def test_thm3_cubic_outer_deck_vs_mc(self, cubic3a, cubic3a_param, F13):
        Q = ProjPoint(F13, [1, 0, 0])
        deck = is_galois_point(cubic3a, Q, strategy="deck",
                               parametrization=cubic3a_param)
        assert deck.verdict == "certified_galois" and len(deck.group) == 3
        mc = is_galois_point(cubic3a, Q, strategy="monte_carlo",
                             cfg=RunConfig(trials=256))
        assert mc.verdict == "probably_galois"

    def test_thm3_quartic_and_prop4_methods_agree(self, F13, F4):
        from galoispoints.families import FamilySpec, build_family
        for spec in (FamilySpec(tag="thm3_quartic", field="13^1"),
                     FamilySpec(tag="prop4", field="2^2", p=2, e=2)):
            curve, exp = build_family(spec)
            col = is_galois_point(curve, exp.P, strategy="collineation")
            deck = is_galois_point(curve, exp.P, strategy="deck",
                                   parametrization=exp.parametrization)
            assert col.verdict == deck.verdict == "certified_galois"
            assert len(col.group) == len(deck.group) == exp.inner_order
            mc_in = is_galois_point(curve, exp.P, strategy="monte_carlo",
                                    cfg=RunConfig(trials=256))
            assert mc_in.verdict == "probably_galois"
            deck_out = is_galois_point(curve, exp.Q, strategy="deck",
                                       parametrization=exp.parametrization)
            assert deck_out.verdict == "certified_galois"
            assert len(deck_out.group) == exp.outer_order
            mc_out = is_galois_point(curve, exp.Q, strategy="monte_carlo",
                                     cfg=RunConfig(trials=256))
            assert mc_out.verdict == "probably_galois"

    def test_lemma_line_b_inner_group_fixes_P(self, cubic3a, cubic3a_param, F13):
        # for certified inner+outer with a (semi)direct joint structure,
        # every nontrivial inner deck element fixes the parameter of P
        from galoispoints.embedder import projective_triple
        P = ProjPoint(F13, [0, 1, 0])
        inner = is_galois_point(cubic3a, P, strategy="deck",
                                parametrization=cubic3a_param)
        x_t, y_t = cubic3a_param
        triple = projective_triple(x_t, y_t)
        from galoispoints.embedder import evaluate_triple
        # preimage of P: scan P^1(F_13) plus infinity
        pre = []
        for code in range(13):
            tpt = point_p1(F13, code)
            if evaluate_triple(triple, tpt) == P:
                pre.append(tpt)
        inf = point_p1(F13, infinity=True)
        if evaluate_triple(triple, inf).lift_to(F13) == P:
            pre.append(inf)
        assert len(pre) == 1  # P is smooth: a unique place above it
        for sigma in inner.group.elements:
            assert sigma.apply(pre[0].lift_to(sigma.ctx)) == \
                pre[0].lift_to(sigma.ctx)
