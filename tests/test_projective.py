import random

import pytest

from galoispoints.errors import ClosureCapExceeded, DimensionMismatch
from galoispoints.gf import make_field, nth_root_of_unity
from galoispoints.projective import (
    PointDivisor,
    ProjLine,
    _factorized_joint,
    ProjPoint,
    Projectivity,
    generate_group,
    identify_group,
    line_through,
    orbit,
    p1_value,
    point_p1,
    product_structure,
    trivial_group,
)

import props
from props import mobius_three_points


class TestApply:
    def test_identity(self, F7):
        g = Projectivity.identity(F7, 2)
        pt = point_p1(F7, 3)
        assert g.apply(pt) == pt

    def test_negation(self, F7):
        g = Projectivity(F7, [[-1, 0], [0, 1]])
        assert p1_value(g.apply(point_p1(F7, 3))).encoding() == 4

    def test_order_three_scaling(self, F7):
        z3 = nth_root_of_unity(F7, 3)
        g = Projectivity(F7, [[z3, 0], [0, 1]])
        pt = point_p1(F7, 1)
        seq = [pt]
        for _ in range(3):
            seq.append(g.apply(seq[-1]))
        assert [p1_value(p).encoding() for p in seq] == [1, 2, 4, 1]

    def test_composition_action(self, F13):
        rng = random.Random(0)
        for _ in range(50):
            def rand_proj():
                while True:
                    try:
                        return Projectivity(F13, [[rng.randrange(13) for _ in range(2)]
                                                  for _ in range(2)])
                    except ValueError:
                        continue
            g, h = rand_proj(), rand_proj()
            x = point_p1(F13, rng.randrange(13))
            assert (g * h).apply(x) == g.apply(h.apply(x))

    def test_dimension_mismatch(self, F7):
        g = Projectivity.identity(F7, 3)
        with pytest.raises(DimensionMismatch):
            g.apply(point_p1(F7, 1))


class TestGenerateGroup:
    def test_cyclic_scaling(self, F7):
        z3 = nth_root_of_unity(F7, 3)
        G = generate_group([Projectivity(F7, [[z3, 0], [0, 1]])])
        assert len(G) == 3

    def test_klein_from_negation_inversion(self, F7):
        G = generate_group([Projectivity(F7, [[-1, 0], [0, 1]]),
                            Projectivity(F7, [[0, 1], [1, 0]])])
        assert len(G) == 4
        assert identify_group(G).tag == "klein"

    def test_translation_group(self):
        F5 = make_field(5)
        G = generate_group([Projectivity(F5, [[1, 1], [0, 1]])])
        assert len(G) == 5

    def test_closure_cap(self, F13):
        # t -> t + 1 and t -> 2t generate a large group; cap it low
        with pytest.raises(ClosureCapExceeded):
            generate_group([Projectivity(F13, [[1, 1], [0, 1]]),
                            Projectivity(F13, [[2, 0], [0, 1]])], cap=10)


class TestIdentifyGroup:
    def test_a4_histogram(self, F13):
        G1, G2, _ = props.search_tetrahedral_triple(F13)
        J = generate_group(G1.generators + G2.generators, cap=64)
        desc = identify_group(J)
        assert desc.tag == "a4"
        assert desc.element_order_histogram == {1: 1, 2: 3, 3: 8}

    def test_s3(self, F13):
        G1, G2, _ = props.search_dihedral_triple(F13)
        J = generate_group(G1.generators + G2.generators, cap=64)
        desc = identify_group(J)
        assert desc.tag == "s3" and desc.order == 6 and not desc.abelian

    def test_klein(self, F7):
        G = generate_group([Projectivity(F7, [[-1, 0], [0, 1]]),
                            Projectivity(F7, [[0, 1], [1, 0]])])
        assert identify_group(G).tag == "klein"

    def test_elementary_abelian(self, F4):
        # translations by F_4: (Z/2)^2 but order 4 -> reported as klein
        gens = [Projectivity(F4, [[1, a], [0, 1]]) for a in (1, 2)]
        G = generate_group(gens)
        assert len(G) == 4 and identify_group(G).tag == "klein"
        # order 8 translations in F_8: elementary_abelian(2, 3)
        F8 = make_field(2, 3)
        gens = [Projectivity(F8, [[1, a], [0, 1]]) for a in (1, 2, 4)]
        G8 = generate_group(gens)
        desc = identify_group(G8)
        assert desc.tag == "elementary_abelian"
        assert desc.params == {"p": 2, "e": 3}

    def test_semidirect_p_cyclic(self):
        # <t -> t+1, t -> -t> over F_5: Z/5 x| Z/2, order 10
        F5 = make_field(5)
        G = generate_group([Projectivity(F5, [[1, 1], [0, 1]]),
                            Projectivity(F5, [[-1, 0], [0, 1]])])
        assert len(G) == 10
        desc = identify_group(G)
        assert desc.tag == "semidirect_p_cyclic"
        assert desc.params == {"p": 5, "e": 1, "m": 2}
        assert not desc.abelian

    def test_histogram_sums_to_order(self, F13):
        z6 = nth_root_of_unity(F13, 6)
        G = generate_group([Projectivity(F13, [[z6, 0], [0, 1]])])
        desc = identify_group(G)
        assert sum(desc.element_order_histogram.values()) == desc.order == 6
        assert desc.tag == "cyclic"


class TestProductStructure:
    def test_direct_scalings(self, F13):
        z3 = nth_root_of_unity(F13, 3)
        z4 = nth_root_of_unity(F13, 4)
        A = generate_group([Projectivity(F13, [[z3, 0, 0], [0, 1, 0], [0, 0, 1]])])
        B = generate_group([Projectivity(F13, [[1, 0, 0], [0, z4, 0], [0, 0, 1]])])
        pr = product_structure(A, B)
        assert pr.classification == "direct"
        assert pr.intersection_order == 1
        assert len(pr.joint) == 12

    def test_a4_right_semidirect(self, F13):
        G1, G2, _ = props.search_tetrahedral_triple(F13)
        pr = product_structure(G1, G2)
        assert pr.classification == "right_semidirect"
        assert not pr.g1_normal and pr.g2_normal
        assert pr.joint_descriptor.tag == "a4"

    def test_trivial_times_trivial(self, F13):
        pr = product_structure(trivial_group(F13, 2), trivial_group(F13, 2))
        assert pr.classification == "direct" and len(pr.joint) == 1

    @pytest.mark.parametrize("p, g1, g2, factorized, cls, order", [
        # t -> z3 t and t -> 1/t: S3 = G1 G2 exactly
        (13, [[[9, 0], [0, 1]]], [[[0, 1], [1, 0]]], True,
         "left_semidirect", 6),
        # t -> z4 t and <t -> z3 t, t -> -t> meet in t -> -t
        (13, [[[5, 0], [0, 1]]], [[[9, 0], [0, 1]], [[12, 0], [0, 1]]],
         False, "neither", 12),
        # t -> t + 1 and t -> -1/t generate PSL(2, 5), of order 60
        (5, [[[1, 1], [0, 1]]], [[[0, 4], [1, 0]]], False,
         "not_a_product", 60),
    ])
    def test_joint_by_exact_factorization(self, p, g1, g2, factorized, cls,
                                          order):
        # J is read off the product set only when it is a group; either
        # way it is the closure of both groups
        ctx = make_field(p)
        G1, G2 = (generate_group([Projectivity(ctx, m) for m in gens])
                  for gens in (g1, g2))
        joint = _factorized_joint(G1, G2, 4096)
        assert (joint is not None) == factorized
        pr = product_structure(G1, G2)
        closure = generate_group(G1.generators + G2.generators)
        assert set(pr.joint.elements) == set(closure.elements)
        assert pr.classification == cls and len(pr.joint) == order
        with pytest.raises(ClosureCapExceeded):
            product_structure(G1, G2, cap=order - 1)


class TestOrbit:
    def test_klein_free_orbit(self, F7):
        G = generate_group([Projectivity(F7, [[-1, 0], [0, 1]]),
                            Projectivity(F7, [[0, 1], [1, 0]])])
        div = orbit(G, point_p1(F7, 3))
        assert div.degree() == 4 and len(div.support) == 4
        assert all(m == 1 for m in div.support.values())

    def test_fixed_point_full_stabilizer(self, F7):
        z3 = nth_root_of_unity(F7, 3)
        G = generate_group([Projectivity(F7, [[z3, 0], [0, 1]])])
        pt = point_p1(F7, 0)
        assert orbit(G, pt).support == {pt: 3}

    def test_translation_orbit(self):
        F5 = make_field(5)
        G = generate_group([Projectivity(F5, [[1, 1], [0, 1]])])
        div = orbit(G, point_p1(F5, 0))
        assert {p1_value(p).encoding() for p in div.points()} == {0, 1, 2, 3, 4}
        assert all(m == 1 for m in div.support.values())


class TestLinesAndPoints:
    def test_line_through(self, F13):
        l = line_through(ProjPoint(F13, [0, 1, 0]), ProjPoint(F13, [1, 0, 0]))
        assert l.encoding() == (0, 0, 1)

    def test_spanning_points(self, F13):
        l = ProjLine(F13, [3, 1, 5])
        a, b = l.spanning_points()
        assert a != b and l.contains(a) and l.contains(b)

    def test_mobius_three_points(self, F13):
        src = [point_p1(F13, 2), point_p1(F13, 5), point_p1(F13, infinity=True)]
        dst = [point_p1(F13, 1), point_p1(F13, 0), point_p1(F13, 4)]
        m = mobius_three_points(src, dst)
        for a, b in zip(src, dst):
            assert m.apply(a) == b

    def test_divisor_equality_across_extensions(self, F13):
        F = make_field(13, 2)
        d1 = PointDivisor(F13, 1, {point_p1(F13, 3): 2})
        d2 = PointDivisor(F, 1, {point_p1(F, 3): 2})
        assert d1 == d2


class TestProperties:
    def test_group_closure(self):
        props.projective_group_closure(500)

    def test_orbit_degree(self):
        props.projective_orbit_degree(200)

    def test_direct_iff_commuting(self):
        props.projective_direct_iff_commuting(120)

    def test_identify_conjugation_stable(self):
        props.projective_identify_conjugation_stable(150)

    def test_table_matches_matrices(self):
        props.projective_table(500)

    def test_builders_keep_their_order(self):
        props.projective_builders_keep_order()

    def test_lift_matches_constructor(self):
        props.projective_lift_matches_constructor(500)
