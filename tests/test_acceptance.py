"""Acceptance suite: one test per criterion, exact tolerances, timed.

Every criterion prints a single "ACCEPTANCE <n>: PASS|FAIL" line.  All
arithmetic is exact, so every comparison is equality; the stated runtime
budgets are asserted as upper bounds.

Criterion 9 (the degree-9 plane model over F_64) is expected to FAIL on
the inner-point certification: the inner Galois group of that singular
model is provably not realized by collineations (the only central
collineations over the algebraic closure are {id, x -> x+1}), the curve
has genus 10 so no deck parametrization exists, and the Monte Carlo
screen never upgrades to certified.  The criterion is asserted as written
and left red deliberately; the README's "Known red criterion" section
carries the full analysis.
"""

import random
import time

from galoispoints.config import RunConfig

from galoispoints.embedder import (
    check_condition_b,
    construct_embedding,
)
from galoispoints.errors import AllSpecializationsRamified
from galoispoints.families import (
    FamilySpec,
    additive_poly_from_subgroup,
    branch_certificate,
    build_family,
    verify_family,
)
from galoispoints.galois import fiber_polynomial, monte_carlo_galois
from galoispoints.gf import FqElement, make_field, nth_root_of_unity
from galoispoints.polyring import Polynomial, factor_univariate
from galoispoints.projective import ProjPoint, identify_group

import props


def report(num, ok, detail=""):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}"
          f"{' -- ' + detail if detail else ''}")
    return ok


class Timer:
    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.time() - self.t0


def test_acceptance_1_branch_certificates():
    checks = []
    with Timer() as t3:
        for ctx in (make_field(13), make_field(7)):
            cert = branch_certificate(3, ctx)
            p = ctx.p
            checks.append(cert.constants == {"a": (-8) % p, "c": (-2) % p})
            checks.append(cert.beta_power == 27 % p)
            checks.append((cert.beta ** 2).encoding() == 27 % p)
            # y^2 x + (x+1)^2 (x-8) = y^2 x - 27 x + (x-2)^3, exactly
            x = Polynomial.variable(ctx, 1, 0)
            checks.append((x + 1) ** 2 * (x - 8) == (x - 2) ** 3 - x * 27)
    checks.append(t3.elapsed < 1.0)
    with Timer() as t4:
        for ctx in (make_field(13), make_field(7)):
            cert = branch_certificate(4, ctx)
            p = ctx.p
            checks.append(cert.constants == {"a": 9 % p, "c": 6 % p,
                                             "d0": (-3) % p})
            checks.append(cert.beta_power == (-64) % p)
            checks.append((cert.beta ** 3).encoding() == (-64) % p)
            # y^3 x + (x+1)^3 (x+9) = y^3 x + 64 x + (x^2+6x-3)^2, exactly
            x = Polynomial.variable(ctx, 1, 0)
            checks.append((x + 1) ** 3 * (x + 9) ==
                          (x * x + x * 6 - 3) ** 2 + x * 64)
    checks.append(t4.elapsed < 1.0)
    assert report(1, all(checks),
                  f"branch d=3 ({t3.elapsed:.2f}s) and d=4 ({t4.elapsed:.2f}s) "
                  "over F_13 and F_7")


def test_acceptance_2_thm3_cubic():
    with Timer() as t:
        curve, exp = build_family(FamilySpec(tag="thm3_cubic", field="13^1"))
        v = verify_family(curve, exp, RunConfig())
    by = {c["name"]: c for c in v.checks}
    checks = [
        v.inner.verdict == "certified_galois",
        exp.P == ProjPoint(make_field(13), [0, 1, 0]),
        len(v.inner.group) == 2,
        v.outer.verdict == "certified_galois",
        exp.Q == ProjPoint(make_field(13), [1, 0, 0]),
        v.outer.method == "deck",
        len(v.outer.group) == 3,
        len(v.joint.joint) == 6,
        v.joint.joint_descriptor.tag == "s3",
        v.joint.classification == "right_semidirect",
        by["smooth_on_ellP_eq_1"]["passed"],
        t.elapsed < 5.0,
    ]
    assert report(2, all(checks), f"s3 cubic in {t.elapsed:.1f}s")


def test_acceptance_3_thm3_quartic():
    with Timer() as t:
        curve, exp = build_family(FamilySpec(tag="thm3_quartic", field="13^1"))
        v = verify_family(curve, exp, RunConfig())
    by = {c["name"]: c for c in v.checks}
    checks = [
        len(v.inner.group) == 3,
        len(v.outer.group) == 4,
        identify_group(v.outer.group).tag == "klein",
        len(v.joint.joint) == 12,
        v.joint.joint_descriptor.tag == "a4",
        v.joint.classification == "right_semidirect",
        by["mult3_singular_on_ellP"]["passed"],
        t.elapsed < 10.0,
    ]
    assert report(3, all(checks), f"a4 quartic in {t.elapsed:.1f}s")


def test_acceptance_4_theorem1_round_trip():
    with Timer() as t:
        F13 = make_field(13)
        G1, G2, P = props.search_tetrahedral_triple(F13)
        witnesses = check_condition_b(G1, G2, P)
        res = construct_embedding(G1, G2, P, RunConfig())
    checks = [
        len(G1) == 3,
        identify_group(G2).tag == "klein",
        len(witnesses) > 0,
        res.curve.degree == 4,
        res.inner_report.verdict == "certified_galois",
        len(res.inner_report.group) == 3,
        res.outer_report.verdict == "certified_galois",
        len(res.outer_report.group) == 4,
        res.joint.joint_descriptor.tag == "a4",
        t.elapsed < 30.0,
    ]
    assert report(4, all(checks),
                  f"PGL(2,13) search + embedding in {t.elapsed:.1f}s")


def test_acceptance_5_thm2_tame():
    all_ok = True
    details = []
    for d, p in ((4, 13), (5, 11), (6, 13)):
        for c in (0, 1):
            with Timer() as t:
                curve, exp = build_family(
                    FamilySpec(tag="thm2_tame", field=f"{p}^1", d=d, c=c))
                v = verify_family(curve, exp, RunConfig())
            by = {ch["name"]: ch for ch in v.checks}
            inst_ok = (
                v.inner.verdict == "certified_galois"
                and len(v.inner.group) == d - 1
                and v.outer.verdict == "certified_galois"
                and len(v.outer.group) == d
                and v.joint.classification == "direct"
                and by["pq_line_is_dP"]["passed"]
                and v.lemma_line["is_dP"]
                and by["singular_locus_empty" if c == 1
                       else "cusp_at_001"]["passed"]
                and t.elapsed < 10.0
            )
            details.append(f"(d={d},p={p},c={c}):{t.elapsed:.1f}s")
            all_ok = all_ok and inst_ok
    assert report(5, all_ok, " ".join(details))


def test_acceptance_6_thm2_wild():
    with Timer() as t:
        F16 = make_field(2, 4)
        S = [x for x in F16.elements() if x ** 4 == x]
        ap = additive_poly_from_subgroup(S, 3)
        zeta = nth_root_of_unity(F16, 3)
        y = Polynomial.variable(F16, 1, 0)
        scaling_ok = ap.poly.compose([y * zeta]) == ap.poly * zeta
        curve, exp = build_family(
            FamilySpec(tag="thm2_wild", field="2^4", p=2, e=2, m=3, c=1))
        v = verify_family(curve, exp, RunConfig())
    checks = [
        sorted(2 ** i for i in ap.coeffs) == [1, 4],   # exponents {4, 1}
        scaling_ok,
        curve.degree == 12,
        v.inner.verdict == "certified_galois",
        v.inner.method == "collineation",
        len(v.inner.group) == 11,
        v.outer.verdict == "certified_galois",
        v.outer.method == "collineation",
        len(v.outer.group) == 12,
        t.elapsed < 60.0,
    ]
    assert report(6, all(checks), f"degree-12 wild curve in {t.elapsed:.1f}s")


def test_acceptance_7_prop4():
    with Timer() as t:
        ok = True
        for variant in ("pencil", "power"):
            curve, exp = build_family(
                FamilySpec(tag="prop4", field="2^2", p=2, e=2, variant=variant))
            v = verify_family(curve, exp, RunConfig())
            by = {ch["name"]: ch for ch in v.checks}
            ok = ok and (
                v.inner.verdict == "certified_galois"
                and len(v.inner.group) == 3
                and v.outer.verdict == "certified_galois"
                and len(v.outer.group) == 4
                and identify_group(v.outer.group).tag == "klein"
                and v.joint.classification == "right_semidirect"
                and by["noncommuting_pair"]["passed"]
                and by["pq_support_d_distinct"]["passed"]
            )
    ok = ok and t.elapsed < 10.0
    assert report(7, ok, f"both normal forms in {t.elapsed:.1f}s")


def test_acceptance_8_non_galois_refutation():
    with Timer() as t:
        F7 = make_field(7)
        rng = random.Random(2024)
        cfg = RunConfig(trials=64)
        contradictions = 0
        refuted = 0
        probable = 0
        done = 0
        while done < 20:
            degree = 3 if done % 2 == 0 else 4
            C = props._random_reduced_curve(rng, F7, degree)
            # a random smooth or outer center
            pt = None
            for _ in range(30):
                cand = ProjPoint(F7, [rng.randrange(7), rng.randrange(7), 1])
                if not C.contains(cand):
                    pt = cand
                    break
                if C.is_smooth_at(cand):
                    pt = cand
                    break
            if pt is None:
                continue
            fib = fiber_polynomial(C, pt)
            if fib.degree <= 1:
                continue
            try:
                mc = monte_carlo_galois(fib, trials=cfg.trials)
            except AllSpecializationsRamified:
                continue
            coll = props.brute_collineation_group(fib)
            if mc.verdict == "certified_not_galois":
                refuted += 1
                # independent witness re-verification
                w = mc.witness
                k = int(w["field"].split("^")[1]) if "^" in w["field"] else 1
                ectx = make_field(7, k)
                t0 = FqElement(ectx, ectx.decode(w["t0"]))
                spec = fib.poly.partial_evaluate(0, t0)
                degs = sorted(f.degree() for f, _ in
                              factor_univariate(spec, seed=777 + done))
                if degs != w["factor_degrees"] or len(set(degs)) < 2:
                    contradictions += 1
                # a full collineation group would certify Galois: contradiction
                if len(coll) == fib.degree:
                    contradictions += 1
            else:
                probable += 1
                if len(coll) > fib.degree:
                    contradictions += 1
            done += 1
    ok = contradictions == 0 and done == 20 and t.elapsed < 60.0
    assert report(8, ok,
                  f"20 curves: {refuted} refuted, {probable} probable, "
                  f"{contradictions} contradictions, {t.elapsed:.1f}s")


def test_acceptance_9_gk_remark():
    """EXPECTED RED: the inner group of this singular wild model is not
    linear, the curve is not rational, and Monte Carlo never certifies;
    see the module docstring and the README."""
    with Timer() as t:
        curve, exp = build_family(FamilySpec(tag="gk", field="2^6", q=2))
        v = verify_family(curve, exp, RunConfig(trials=48))
    checks = [
        curve.degree == 9,
        v.inner.verdict == "certified_galois",       # red: probably_galois
        v.outer.verdict == "certified_galois",
        len(v.outer.group) == 9,
        v.joint is not None and not v.joint.g2_normal,  # red: joint unavailable
        t.elapsed < 120.0,
    ]
    assert report(9, all(checks),
                  f"inner verdict: {v.inner.verdict}; outer order "
                  f"{len(v.outer.group) if v.outer.group else None}; "
                  f"{t.elapsed:.1f}s")


def test_acceptance_10_property_suites():
    with Timer() as t:
        suites = [
            (props.gf_frobenius_closure, 500),
            (props.gf_frobenius_hom, 1000),
            (props.gf_embed_hom, 1000),
            (props.polyring_gcd_iff_resultant, 500),
            (props.polyring_factor_remultiplies, 500),
            (props.polyring_splitting_roots, 500),
            (props.polyring_resultant_multiplicative, 500),
            (props.projective_group_closure, 500),
            (props.projective_orbit_degree, 500),
            (props.projective_direct_iff_commuting, 500),
            (props.projective_identify_conjugation_stable, 500),
            (props.curve_bezout_on_lines, 500),
            (props.curve_singular_points_annihilate, 500),
            (props.curve_tangent_multiplicity, 500),
            (props.curve_family_smoothness, 1),
        ]
        for fn, cases in suites:
            fn(cases)
    ok = t.elapsed < 300.0
    assert report(10, ok, f"{len(suites)} property suites, >= 500 cases "
                  f"each, in {t.elapsed:.1f}s")
