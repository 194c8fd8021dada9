import importlib.util
from pathlib import Path

import pytest

from galoispoints.curve import (
    PlaneCurve,
    curve_from_affine,
    line_intersection_divisor,
    pencil_parametrization,
    point_multiplicity,
    singular_points,
)
from galoispoints.errors import (
    LineIsComponent,
    NotSquarefree,
    PointNotOnCurve,
    PointSingular,
)
from galoispoints.polyring import Polynomial, parse_poly
from galoispoints.projective import ProjLine, ProjPoint, line_through

import props


@pytest.fixture(scope="module")
def cubic3a(F13):
    x = Polynomial.variable(F13, 2, 0)
    y = Polynomial.variable(F13, 2, 1)
    return curve_from_affine(y * y * x + (x + 1) ** 2 * (x - 8))


@pytest.fixture(scope="module")
def quartic3b(F13):
    x = Polynomial.variable(F13, 2, 0)
    y = Polynomial.variable(F13, 2, 1)
    return curve_from_affine(y ** 3 * x + (x + 1) ** 3 * (x + 9))


class TestCurveFromAffine:
    def test_thm3a_cubic(self, F13, cubic3a):
        # Y^2 X + (X+Z)^2 (X - 8Z)
        assert cubic3a.degree == 3
        expect = parse_poly("1*x^1*y^2", F13, 2) + \
            (parse_poly("1*x^1+1*x^0", F13, 2)) ** 2 * parse_poly("1*x^1+5*x^0", F13, 2)
        assert cubic3a.form == expect.homogenize().monic()

    def test_thm2_quartic(self, F13):
        x = Polynomial.variable(F13, 2, 0)
        y = Polynomial.variable(F13, 2, 1)
        C = curve_from_affine(x ** 3 + y ** 4 + 1)
        assert C.degree == 4
        assert C.form.coefficient((3, 0, 1)) == F13.one

    def test_conic(self, F13):
        x = Polynomial.variable(F13, 2, 0)
        y = Polynomial.variable(F13, 2, 1)
        C = curve_from_affine(x - y * y)
        assert C.degree == 2
        # XZ - Y^2 up to normalization
        assert not C.form.coefficient((0, 2, 0)).ctx is None
        assert C.contains(ProjPoint(F13, [0, 0, 1]))

    def test_not_squarefree(self, F13):
        x = Polynomial.variable(F13, 2, 0)
        y = Polynomial.variable(F13, 2, 1)
        with pytest.raises(NotSquarefree):
            curve_from_affine((x + y) ** 2)

    def test_squarefree_certificate(self):
        props.curve_squarefree_certificate(300)


class TestSingularPoints:
    def test_cusp_census(self, F13):
        # x^3 + y^4 = 0: cusp at (0:0:1); (1:0:0) is smooth (gradient (0,0,1))
        C = PlaneCurve(parse_poly("1*x^3*y^0*z^1+1*x^0*y^4*z^0", F13, 3))
        sl = singular_points(C)
        assert {pt.encoding(): m for pt, m in sl.points} == {(0, 0, 1): 3}
        assert C.is_smooth_at(ProjPoint(F13, [1, 0, 0]))

    def test_smooth_quartic_empty(self, F13):
        C = PlaneCurve(parse_poly("1*x^3*y^0*z^1+1*x^0*y^4*z^0+1*x^0*y^0*z^4",
                                  F13, 3))
        assert singular_points(C).is_empty()

    def test_cubic_double_point(self, cubic3a, F13):
        sl = singular_points(cubic3a)
        (pt, m), = sl.points
        # (-1 : 0 : 1), normalized to leading coordinate 1
        assert pt == ProjPoint(F13, [-1, 0, 1])
        assert m == 2
        # exact re-check of all three partials
        assert not any(cubic3a.gradient_at(pt))

    def test_quartic_triple_point(self, quartic3b, F13):
        (pt, m), = singular_points(quartic3b).points
        assert pt == ProjPoint(F13, [-1, 0, 1]) and m == 3

    def test_point_multiplicity(self, cubic3a, F13):
        assert point_multiplicity(cubic3a, ProjPoint(F13, [-1, 0, 1])) == 2
        assert point_multiplicity(cubic3a, ProjPoint(F13, [0, 1, 0])) == 1

    def test_locus_complete_on_random_curves(self):
        props.curve_singular_points_complete(100)

    def test_locus_complete_on_certify_family_curves(self):
        # every family spec the certify benchmark runs
        path = Path(__file__).resolve().parent.parent / "verdictbench" / "gen.py"
        spec = importlib.util.spec_from_file_location("bench_gen", path)
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        specs = [job["files"]["spec.json"]
                 for jobs in gen.certify_cells().values() for job in jobs
                 if job["argv"][0] == "family"]
        assert len(specs) > 100
        props.curve_family_loci_complete(specs)

    def test_locus_kept_per_curve_and_cap(self, quartic3b):
        C = PlaneCurve(quartic3b.form)
        locus = C.singular_locus(12)
        assert C.singular_locus(12) is locus
        assert C.singular_locus(3) is not locus
        assert C.singular_locus(3).points == locus.points


class TestTangentLine:
    def test_conic_tangent(self, F13):
        x = Polynomial.variable(F13, 2, 0)
        y = Polynomial.variable(F13, 2, 1)
        C = curve_from_affine(x - y * y)
        assert props.tangent_line(C, ProjPoint(F13, [0, 0, 1])).encoding() == (1, 0, 0)

    def test_cubic_tangent_at_P(self, cubic3a, F13):
        assert props.tangent_line(cubic3a, ProjPoint(F13, [0, 1, 0])).encoding() == (1, 0, 0)

    def test_quartic_tangent_at_P(self, quartic3b, F13):
        assert props.tangent_line(quartic3b, ProjPoint(F13, [0, 1, 0])).encoding() == (1, 0, 0)

    def test_errors(self, cubic3a, F13):
        with pytest.raises(PointNotOnCurve):
            props.tangent_line(cubic3a, ProjPoint(F13, [1, 0, 0]))
        with pytest.raises(PointSingular):
            props.tangent_line(cubic3a, ProjPoint(F13, [-1, 0, 1]))


class TestLineIntersection:
    def test_full_tangency_at_inner_point(self, F13):
        # x^3 + y^4 + 1: the line Z = 0 meets only at (1:0:0), with mult 4
        C = PlaneCurve(parse_poly("1*x^3*y^0*z^1+1*x^0*y^4*z^0+1*x^0*y^0*z^4",
                                  F13, 3))
        div = line_intersection_divisor(C, ProjLine(F13, [0, 0, 1]))
        [(pt, m)] = list(div.support.items())
        assert pt.encoding() == (1, 0, 0) and m == 4

    def test_conic_double_contact(self, F13):
        x = Polynomial.variable(F13, 2, 0)
        y = Polynomial.variable(F13, 2, 1)
        C = curve_from_affine(x - y * y)
        div = line_intersection_divisor(C, ProjLine(F13, [1, 0, 0]))
        [(pt, m)] = list(div.support.items())
        assert pt.encoding() == (0, 0, 1) and m == 2

    def test_power_form_distinct_points(self, F4):
        # x - y^4 over F_4: the line PQ meets the curve in 4 distinct points
        x = Polynomial.variable(F4, 2, 0)
        y = Polynomial.variable(F4, 2, 1)
        C = curve_from_affine(x - y ** 4)
        L = line_through(ProjPoint(F4, [0, 0, 1]), ProjPoint(F4, [1, 1, 0]))
        div = line_intersection_divisor(C, L)
        assert div.degree() == 4 and len(div.support) == 4
        assert all(m == 1 for m in div.support.values())

    def test_line_component_raises(self, F13):
        x = Polynomial.variable(F13, 2, 0)
        y = Polynomial.variable(F13, 2, 1)
        C = curve_from_affine(x * y + x)  # contains the line x = 0
        with pytest.raises(LineIsComponent):
            line_intersection_divisor(C, ProjLine(F13, [1, 0, 0]))


class TestPencilParametrization:
    def test_cubic(self, cubic3a, F13):
        (pt, _), = singular_points(cubic3a).points
        x_t, y_t = pencil_parametrization(cubic3a, pt)
        assert max(x_t.degree(), y_t.degree()) == 3

    def test_rejects_wrong_multiplicity(self, F13):
        x = Polynomial.variable(F13, 2, 0)
        y = Polynomial.variable(F13, 2, 1)
        C = curve_from_affine(x ** 3 + y ** 4 + 1)  # smooth
        from galoispoints.errors import ZeroInput
        with pytest.raises(ZeroInput):
            pencil_parametrization(C, ProjPoint(F13, [1, 0, 0]))


class TestProperties:
    def test_bezout(self):
        props.curve_bezout_on_lines(150)

    def test_singular_recheck(self):
        props.curve_singular_points_annihilate(120)

    def test_tangent_multiplicity(self):
        props.curve_tangent_multiplicity(120)

    def test_family_smoothness(self):
        props.curve_family_smoothness()
