import importlib.util
from pathlib import Path

import pytest

import props
from galoispoints import families
from galoispoints.config import RunConfig
from galoispoints.curve import pencil_parametrization
from galoispoints.errors import (
    DegenerateOnly,
    FieldTooSmall,
    InputError,
    NotSubgroup,
    ScalingUnstable,
    ZeroInput,
)
from galoispoints.families import (
    FamilySpec,
    additive_poly_from_subgroup,
    branch_certificate,
    build_family,
    verify_family,
)
from galoispoints.gf import FqElement, make_field
from galoispoints.projective import ProjPoint


class TestBranchCertificates:
    def test_d3_over_f13(self, F13):
        cert = branch_certificate(3, F13)
        assert cert.constants == {"a": (-8) % 13, "c": (-2) % 13}
        assert cert.beta_power == 27 % 13
        assert (cert.beta ** 2).encoding() == 27 % 13

    def test_d4_over_f13(self, F13):
        cert = branch_certificate(4, F13)
        assert cert.constants == {"a": 9, "c": 6, "d0": (-3) % 13}
        assert cert.beta_power == (-64) % 13
        assert (cert.beta ** 3).encoding() == (-64) % 13

    def test_d3_over_f7_beta_in_extension(self, F7):
        # 27 = 6 mod 7 is a non-residue, so beta lives in F_49
        assert all(pow(x, 2, 7) != 6 for x in range(7))
        cert = branch_certificate(3, F7)
        assert cert.constants["a"] == (-8) % 7
        assert cert.constants["c"] == (-2) % 7
        assert cert.beta.ctx.order == 49
        assert (cert.beta ** 2) == FqElement(cert.beta.ctx,
                                             cert.beta.ctx.decode(6))

    def test_d4_over_f7(self, F7):
        cert = branch_certificate(4, F7)
        assert cert.constants == {"a": 2, "c": 6, "d0": 4}  # 9, 6, -3 mod 7
        assert cert.beta_power == (-64) % 7

    def test_wrong_characteristic(self):
        with pytest.raises(DegenerateOnly):
            branch_certificate(3, make_field(3))
        with pytest.raises(DegenerateOnly):
            branch_certificate(4, make_field(2, 2))

    def test_identity_verified_in_certificate(self, F13):
        # the identity string re-expands exactly (checked at construction);
        # cross-check the displayed constants against the curve equality
        from galoispoints.polyring import Polynomial
        t = Polynomial.variable(F13, 1, 0)
        lhs = (t + 1) ** 2 * (t - 8)
        rhs = (t - 2) ** 3 - t * 27
        assert lhs == rhs
        lhs4 = (t + 1) ** 3 * (t + 9)
        rhs4 = (t * t + t * 6 - 3) ** 2 + t * 64
        assert lhs4 == rhs4


class TestAdditivePolynomials:
    def test_f2_inside_f4(self, F4):
        S = [x for x in F4.elements() if x ** 2 == x]
        ap = additive_poly_from_subgroup(S, 1)
        assert ap.poly.to_text() == "1*x^2+1*x^1"
        assert ap.e == 1 and ap.m == 1

    def test_f4_inside_f16(self, F16):
        S = [x for x in F16.elements() if x ** 4 == x]
        ap = additive_poly_from_subgroup(S, 3)
        assert sorted(ap.coeffs) == [0, 2]      # exponents {4, 1}
        assert ap.e == 2 and ap.m == 3
        # g(zeta_3 y) = zeta_3 g(y) holds exactly (verified at build; recheck)
        from galoispoints.gf import nth_root_of_unity
        from galoispoints.polyring import Polynomial
        zeta = nth_root_of_unity(F16, 3)
        y = Polynomial.variable(F16, 1, 0)
        scaled = ap.poly.compose([y * zeta])
        assert scaled == ap.poly * zeta

    def test_additivity_identity(self, F16):
        from galoispoints.polyring import Polynomial
        S = [x for x in F16.elements() if x ** 4 == x]
        ap = additive_poly_from_subgroup(S, 3)
        y = Polynomial.variable(F16, 2, 0)
        z = Polynomial.variable(F16, 2, 1)
        g = lambda arg: sum((arg ** (2 ** i) * c for i, c in ap.coeffs.items()),
                            Polynomial.zero(F16, 2))
        assert g(y + z) == g(y) + g(z)

    def test_not_a_subgroup(self):
        F9 = make_field(3, 2)
        with pytest.raises(NotSubgroup):
            additive_poly_from_subgroup([F9.zero, F9.element(3)], 2)

    def test_scaling_unstable(self, F16):
        # an F_2-subspace of F_16 that is not an F_4-line: {0, 1, g, 1+g}
        # with g outside F_4 is not stable under zeta_3
        g = F16.element(2)   # the generator x of F_16, not in F_4
        assert g ** 4 != g
        S = [F16.zero, F16.one, g, F16.one + g]
        with pytest.raises(ScalingUnstable):
            additive_poly_from_subgroup(S, 3)

    def test_m_must_divide(self, F16):
        S = [x for x in F16.elements() if x ** 4 == x]
        with pytest.raises(InputError):
            additive_poly_from_subgroup(S, 5)


class TestWildCoveringNormalForm:
    """The quotient-by-stages covering built from an additive polynomial is
    Galois of the full degree, with the predicted group structure."""

    def test_composite_covering_deck_group(self, F16):
        from galoispoints.galois import deck_group
        from galoispoints.projective import identify_group
        from galoispoints.ratfunc import RationalMap1D
        S = [x for x in F16.elements() if x ** 4 == x]
        ap = additive_poly_from_subgroup(S, 3)
        # stage one: the additive covering, deck group = translations by S
        G1 = deck_group(RationalMap1D.from_poly(ap.poly))
        assert len(G1) == 4 and identify_group(G1).tag == "klein"
        # composite: (g(y))^m of degree p^e * m = 12, group (Z/2)^2 x| Z/3
        G = deck_group(RationalMap1D.from_poly(ap.poly ** 3))
        assert len(G) == 12
        assert identify_group(G).tag == "a4"


class TestBuildFamily:
    def test_thm2_tame_curve_shape(self, F13):
        curve, exp = build_family(FamilySpec(tag="thm2_tame", field="13^1",
                                             d=5, c=1))
        # x^4 + y^5 + 1
        aff = curve.affine()
        assert aff.degree_in(0) == 4 and aff.degree_in(1) == 5
        assert exp.inner_order == 4 and exp.outer_order == 5
        assert curve.contains(exp.P) and not curve.contains(exp.Q)

    def test_thm2_tame_bad_characteristic(self):
        with pytest.raises(InputError):
            build_family(FamilySpec(tag="thm2_tame", field="2^2", d=4, c=1))

    def test_thm3_cubic(self, F13):
        curve, exp = build_family(FamilySpec(tag="thm3_cubic", field="13^1"))
        assert curve.degree == 3
        assert exp.joint_tag == "s3"
        assert exp.parametrization is not None

    def test_thm3_wrong_characteristic(self):
        with pytest.raises(InputError):
            build_family(FamilySpec(tag="thm3_cubic", field="2^1"))

    def test_prop4_needs_subfield(self):
        with pytest.raises(FieldTooSmall):
            build_family(FamilySpec(tag="prop4", field="2^1", p=2, e=2))

    def test_gk_curve(self):
        curve, exp = build_family(FamilySpec(tag="gk", field="2^6", q=2))
        assert curve.degree == 9
        assert exp.inner_order == 8 and exp.outer_order == 9

    def test_unknown_tag(self):
        with pytest.raises(InputError):
            FamilySpec.from_dict({"tag": "nope", "field": "13^1"})


def _certify_pencil_specs() -> list:
    """The thm3 and prop4 pencil specs of the certify benchmark."""
    path = Path(__file__).resolve().parent.parent / "verdictbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return [job["files"]["spec.json"]
            for jobs in gen.certify_cells().values() for job in jobs
            if job["argv"][0] == "family"
            and (job["files"]["spec.json"]["tag"].startswith("thm3")
                 or job["files"]["spec.json"].get("variant") == "pencil")]


class TestPencilPoint:
    """The thm3 and prop4 pencil curves are parametrized through the
    catalogue's (d-1)-fold point (-1:0:1), with no singular locus."""

    def test_catalogue_point_is_the_singular_locus(self):
        specs = _certify_pencil_specs()
        assert len(specs) >= 20
        for data in specs:
            curve, exp = build_family(FamilySpec.from_dict(data))
            S = props.pencil_point_by_singular_locus(curve)
            assert S == ProjPoint(curve.ctx, [-1, 0, 1]), data
            assert pencil_parametrization(curve, S) == exp.parametrization

    def test_wrong_point_raises(self, monkeypatch):
        # (0:0:1) is not on the curves: multiplicity 0, not d - 1
        pencil = families.pencil_parametrization
        monkeypatch.setattr(families, "pencil_parametrization",
                            lambda C, S: pencil(C, ProjPoint(C.ctx, [0, 0, 1])))
        for spec in (FamilySpec(tag="thm3_cubic", field="13^1"),
                     FamilySpec(tag="thm3_quartic", field="13^1"),
                     FamilySpec(tag="prop4", field="2^2", p=2, e=2)):
            with pytest.raises(ZeroInput, match="needs multiplicity d-1"):
                build_family(spec)


class TestVerifyFamily:
    def test_thm2_tame_d4(self, F13):
        curve, exp = build_family(FamilySpec(tag="thm2_tame", field="13^1",
                                             d=4, c=1))
        v = verify_family(curve, exp, RunConfig())
        assert v.success, [c for c in v.checks if not c["passed"]]
        assert v.lemma_line["is_dP"] and v.lemma_line["support_size"] == 1
        by_name = {c["name"]: c for c in v.checks}
        assert by_name["singular_locus_empty"]["passed"]

    def test_thm2_tame_d4_cusp(self, F13):
        curve, exp = build_family(FamilySpec(tag="thm2_tame", field="13^1",
                                             d=4, c=0))
        v = verify_family(curve, exp, RunConfig())
        assert v.success, [c for c in v.checks if not c["passed"]]
        by_name = {c["name"]: c for c in v.checks}
        assert by_name["cusp_at_001"]["passed"]

    def test_thm3_quartic(self, F13):
        curve, exp = build_family(FamilySpec(tag="thm3_quartic", field="13^1"))
        v = verify_family(curve, exp, RunConfig())
        assert v.success, [c for c in v.checks if not c["passed"]]
        assert v.joint.joint_descriptor.tag == "a4"
        assert v.joint.classification == "right_semidirect"

    def test_thm2_wild_order_6_outer_group_is_s3(self):
        # p^e m = 6: the outer group (Z/3) x| Z/2 is S3 in the catalogue
        curve, exp = build_family(FamilySpec(tag="thm2_wild", field="3^2",
                                             p=3, e=1, m=2))
        assert exp.outer_tag == "s3"
        v = verify_family(curve, exp, RunConfig())
        assert v.success, [c for c in v.checks if not c["passed"]]
        assert v.outer.descriptor.tag == "s3"
        assert v.joint.joint_descriptor.tag == "semidirect_p_cyclic"

    def test_thm2_tame_second_primes(self):
        # the tame family verifies over a second prime for each degree
        for d, p in ((4, 11), (5, 13), (6, 7)):
            curve, exp = build_family(FamilySpec(tag="thm2_tame",
                                                 field=f"{p}^1", d=d, c=1))
            v = verify_family(curve, exp, RunConfig())
            assert v.success, (d, p, [c for c in v.checks if not c["passed"]])
            assert v.lemma_line["is_dP"]

    def test_thm2_wild_explicit_alphas_match_subgroup(self, F16):
        derived, exp1 = build_family(FamilySpec(
            tag="thm2_wild", field="2^4", p=2, e=2, m=3, c=1))
        explicit, exp2 = build_family(FamilySpec(
            tag="thm2_wild", field="2^4", p=2, e=2, m=3, c=1,
            alphas={"0": 1, "2": 1}))
        assert derived.form == explicit.form

    @pytest.mark.parametrize("e, m", [(0, 2), (-1, 2), (1, -1)])
    def test_thm2_wild_nonpositive_e_or_m(self, e, m):
        with pytest.raises(InputError):
            build_family(FamilySpec(tag="thm2_wild", field="3^2", p=3, e=e,
                                    m=m))

    def test_thm2_wild_alpha_condition_enforced(self):
        # alpha_1 must vanish for m = 3 (3 does not divide 2^1 - 1)
        with pytest.raises(InputError):
            build_family(FamilySpec(tag="thm2_wild", field="2^4", p=2, e=2,
                                    m=3, c=1, alphas={"0": 1, "1": 1, "2": 1}))

    def test_thm2_wild_m1_pure_additive(self, F4):
        # d = 4, m = 1: outer group is the translation Klein group
        curve, exp = build_family(FamilySpec(tag="thm2_wild", field="2^2",
                                             p=2, e=2, m=1, c=1))
        assert curve.degree == 4
        assert exp.outer_tag == "klein"
        v = verify_family(curve, exp, RunConfig())
        assert v.success, [c for c in v.checks if not c["passed"]]

    def test_prop4_other_exponents(self):
        # e = 1 (cyclic translation group) and e = 3 (elementary abelian)
        for p_, e_, fld, tag in ((3, 1, "3^1", "cyclic"),
                                 (2, 3, "2^3", "elementary_abelian")):
            curve, exp = build_family(FamilySpec(tag="prop4", field=fld,
                                                 p=p_, e=e_))
            assert exp.outer_tag == tag
            v = verify_family(curve, exp, RunConfig())
            assert v.success, (p_, e_, [c for c in v.checks if not c["passed"]])

    def test_prop4_power_form(self, F4):
        curve, exp = build_family(FamilySpec(tag="prop4", field="2^2",
                                             p=2, e=2, variant="power"))
        v = verify_family(curve, exp, RunConfig())
        assert v.success, [c for c in v.checks if not c["passed"]]
        by_name = {c["name"]: c for c in v.checks}
        assert by_name["pq_support_d_distinct"]["passed"]
        assert by_name["noncommuting_pair"]["passed"]
