import pytest

from galoispoints.gf import make_field, nth_root_of_unity
from galoispoints.projective import Projectivity, p1_value, point_p1
from galoispoints.errors import ParametrizationInvalid
from galoispoints.galois import _projection
from galoispoints.ratfunc import RationalMap1D

import props


@pytest.fixture(scope="module")
def t(F13):
    return RationalMap1D.variable(F13)


def test_reduction_and_degree(F13, t):
    h = (t * t - 1) / (t - 1)
    assert h == t + 1
    assert h.degree() == 1
    assert (t * t + t.reciprocal()).degree() == 3


def test_invariance_under_mobius(F13, t):
    h = t + t.reciprocal()
    inv = Projectivity(F13, [[0, 1], [1, 0]])
    assert props.compose_mobius(h, inv) == h
    z3 = nth_root_of_unity(F13, 3)
    cube = t * t * t
    assert props.compose_mobius(
        cube, Projectivity(F13, [[z3, 0], [0, 1]])) == cube


def test_invariant_under_matches_compose_mobius():
    props.ratfunc_invariant_matches_compose(300)


def test_pole_and_fiber_divisors(F13, t):
    f = RationalMap1D.const(F13, 1) / (t * t - 1)
    pd = f.pole_divisor()
    assert pd.degree() == 2
    assert {p1_value(p).encoding() for p in pd.points()} == {1, 12}
    g = t * t * 2
    pd2 = g.pole_divisor()
    [(pt, m)] = list(pd2.support.items())
    assert p1_value(pt) is None and m == 2
    fd = g.fiber_divisor(F13.element(2))
    assert fd.degree() == 2


def test_fiber_divisor_additive(F13):
    F5 = make_field(5)
    t5 = RationalMap1D.variable(F5)
    h = t5 ** 1 * 1
    h = t5 * t5 * t5 * t5 * t5 - t5   # t^5 - t
    fd = h.fiber_divisor(F5.zero)
    assert fd.degree() == 5 and len(fd.support) == 5


def test_projective_evaluation(F13, t):
    g = (t * t) / (t - 1)
    assert p1_value(g.value_at_point(point_p1(F13, 1))) is None
    assert p1_value(props.value_at_infinity(g)) is None
    assert g.evaluate(F13.element(2)) == F13.element(4)
    assert g.evaluate(F13.element(1)) is None


def test_compose_rational(F13, t):
    g = (t * t) / (t - 1)
    comp = props.compose(g, t + 1)
    assert comp.evaluate(F13.element(1)) == g.evaluate(F13.element(2))


def test_linear_fraction(F13, t):
    # galois._projection: (a x + b y + c) / (d x + e y + f) for rows 0 and
    # 2 of a normalizer, against the rational-function arithmetic of
    # props.linear_fraction
    xm, ym = t * t, (t + 3) / (t - 1)
    for rows in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                 [[1, 12, 0], [0, 1, 0], [0, 0, 1]],
                 [[2, 1, 5], [0, 1, 0], [1, 3, 1]]):
        oracle = props.linear_fraction(xm, ym,
                                       [F13.element(c) for c in rows[0]],
                                       [F13.element(c) for c in rows[2]])
        h = _projection(Projectivity(F13, rows), (xm, ym), oracle.degree())
        assert h == oracle and h.degree() > 1
    assert _projection(Projectivity(F13, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                       (xm, ym), 2) == xm
    with pytest.raises(ParametrizationInvalid):
        _projection(Projectivity(F13, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                    (xm, ym), 3)


def test_arithmetic_field_laws(F13, t):
    a = (t + 1) / (t - 2)
    b = (t * t) / (t + 5)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a - a == RationalMap1D.const(F13, 0)
