import json

import pytest
from hypothesis import given, settings, strategies as st

from galoispoints.errors import IncompatibleFields, NonPrimeCharacteristic, PDividesN
from galoispoints.gf import (
    FieldCtx,
    common_field,
    embed,
    make_field,
    multiplicative_generator,
    nth_root_of_unity,
    parse_field_spec,
)

import props


class TestMakeField:
    def test_prime_field_convention(self):
        F7 = make_field(7, 1)
        assert F7.modulus == (0, 1)
        assert F7.order == 7

    def test_f4_modulus_is_x2_x_1(self):
        # brute-force check: neither 0 nor 1 is a root of x^2 + x + 1
        F4 = make_field(2, 2)
        assert F4.modulus == (1, 1, 1)
        for c in (0, 1):
            assert (c * c + c + 1) % 2 == 1

    def test_f169_unit_group_exponent(self):
        # exhaustive: every nonzero a satisfies a^168 = 1
        F = make_field(13, 2)
        for a in F.elements():
            if a:
                assert a ** 168 == F.one

    def test_composite_characteristic_rejected(self):
        with pytest.raises(NonPrimeCharacteristic):
            make_field(12, 1)

    def test_reducible_modulus_rejected(self):
        from galoispoints.errors import IrreducibleSearchExhausted
        with pytest.raises(IrreducibleSearchExhausted):
            FieldCtx(2, 2, (0, 0, 1))  # x^2 is reducible

    def test_field_identity(self):
        assert make_field(7, 2) is make_field(7, 2)
        assert make_field(7, 2) == make_field(7, 2)
        assert make_field(7, 2) != make_field(7, 3)


class TestArithmetic:
    def test_inverse_and_division(self, F13):
        F = make_field(13, 2)
        for code in (1, 5, 100, 168):
            a = F.element(code)
            assert a * a.inverse() == F.one
            assert (a / a) == F.one

    def test_zero_inverse_raises(self, F7):
        with pytest.raises(ZeroDivisionError):
            F7.zero.inverse()

    @given(st.integers(0, 168), st.integers(0, 168))
    @settings(max_examples=200, deadline=None)
    def test_ring_laws(self, x, y):
        F = make_field(13, 2)
        a, b = F.element(x), F.element(y)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + F.one) == a * b + a
        assert (a - b) + b == a

    def test_encoding_roundtrip(self):
        F = make_field(3, 3)
        for code in range(27):
            assert F.element(code).encoding() == code


class TestRootsOfUnity:
    def test_order_3_in_f7(self, F7):
        z = nth_root_of_unity(F7, 3)
        assert z.encoding() in (2, 4)
        assert z ** 3 == F7.one and z != F7.one

    def test_absent_when_not_dividing(self, F7):
        assert nth_root_of_unity(F7, 5) is None

    def test_primitive_root_of_f13(self, F13):
        z = nth_root_of_unity(F13, 12)
        assert props.multiplicative_order(z) == 12

    def test_p_divides_n_raises(self, F7):
        with pytest.raises(PDividesN):
            nth_root_of_unity(F7, 14)

    def test_deterministic(self, F13):
        assert nth_root_of_unity(F13, 4) == nth_root_of_unity(F13, 4)


class TestEmbed:
    def test_prime_subfield_constant(self):
        F5, F25 = make_field(5), make_field(5, 2)
        assert embed(F5, F25, F5.element(3)) == F25.element(3)

    def test_identity_element(self):
        F7, F49 = make_field(7), make_field(7, 2)
        assert embed(F7, F49, F7.one) == F49.one

    def test_generator_order_preserved(self, F4, F16):
        g = multiplicative_generator(F4)
        assert props.multiplicative_order(embed(F4, F16, g)) == 3

    def test_incompatible_degrees(self, F4):
        F8 = make_field(2, 3)
        with pytest.raises(IncompatibleFields):
            embed(F4, F8, F4.one)

    def test_consistent_across_calls(self, F4, F16):
        g = multiplicative_generator(F4)
        assert embed(F4, F16, g) == embed(F4, F16, g)

    def test_not_compatible_through_a_tower(self):
        # embeddings are fixed per pair, but F_9 -> F_81 -> F_6561 sends x,
        # a root of x^2 + 1, to the Frobenius conjugate of its direct image
        A, B, C = make_field(3, 2), make_field(3, 4), make_field(3, 8)
        assert A.modulus == (1, 0, 1)
        x = A.element(3)
        direct, composite = embed(A, C, x), embed(B, C, embed(A, B, x))
        assert composite != direct
        assert composite == direct ** 3

    def test_common_field(self, F4, F16):
        assert common_field(F4, F16) == F16
        assert common_field(F16, F4) == F16
        F8 = make_field(2, 3)
        assert common_field(F4, F8).k == 6


def test_parse_field_spec():
    assert parse_field_spec("13^2") == make_field(13, 2)
    assert parse_field_spec("7") == make_field(7)


# Every representation, on both sides of the log-table bound of 4096
# elements: prime residues, tabled encodings (p = 2 and odd), bit
# polynomials and packed digit slots.  The packed fields cover each slot
# width: 32 bits (3^8), 64 bits with a one-slot Barrett quotient (67^2),
# with a small p and a large k (3^20) and at 19^12, and the widths past
# the 64 bits an array item holds, 128 (1009^2) and 256 (2097169^2).
ORACLE_FIELDS = [(13, 1), (31, 1), (2, 2), (2, 6), (2, 12), (2, 13), (2, 48),
                 (3, 2), (13, 3), (3, 8), (5, 10), (31, 6), (67, 2), (3, 20),
                 (19, 12), (1009, 2), (2097169, 2)]


class TestRepresentations:
    @pytest.mark.parametrize("p, k", ORACLE_FIELDS,
                             ids=[f"{p}^{k}" for p, k in ORACLE_FIELDS])
    def test_matches_digit_oracle(self, p, k):
        props.gf_matches_digit_oracle(make_field(p, k), 40 if k > 40 else 200)

    @pytest.mark.parametrize("field, modulus", [
        ("3^2", [2, 2, 1]), ("3^8", [1, 0, 1, 1, 0, 0, 0, 0, 1])],
        ids=["3^2", "3^8"])
    def test_noncanonical_modulus_from_curve_file(self, tmp_path, field,
                                                  modulus):
        from galoispoints.cli import load_curve
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"field": field, "modulus": modulus,
                                    "affine_poly": "x^3+y^2+1"}))
        ctx = load_curve(str(path)).ctx
        assert list(ctx.modulus) == modulus
        assert ctx != make_field(ctx.p, ctx.k)
        props.gf_matches_digit_oracle(ctx, 200)

    @pytest.mark.parametrize("src, dst", [
        ((2, 1), (2, 13)), ((2, 2), (2, 6)), ((2, 6), (2, 12)),
        ((2, 12), (2, 48)), ((13, 1), (13, 3)), ((3, 2), (3, 8)),
        ((5, 2), (5, 10)), ((31, 2), (31, 6)), ((19, 1), (19, 4)),
        ((7, 2), (7, 6)), ((3, 5), (3, 10)), ((19, 3), (19, 6)),
        ((17, 6), (17, 12)), ((19, 6), (19, 12))],
        ids=lambda f: f"{f[0]}^{f[1]}")
    def test_embed_descend_round_trip(self, src, dst):
        props.gf_embed_descend_round_trip(make_field(*src), make_field(*dst))

    @pytest.mark.parametrize("p, k, width", [
        (3, 8, 32), (3, 20, 64), (19, 12, 64), (1009, 2, 128),
        (2097169, 2, 256)], ids=["3^8", "3^20", "19^12", "1009^2", "2097169^2"])
    def test_packed_slot_width(self, p, k, width):
        # the rep of x (encoding p) is 1 in slot 1; the width is the first
        # power of two that holds every intermediate slot of the kernel
        assert make_field(p, k).decode(p) == 1 << width

    @pytest.mark.parametrize("p, k", [(3, 2), (3, 4), (5, 3), (7, 2)],
                             ids=["3^2", "3^4", "5^3", "7^2"])
    def test_packed_inverse_of_every_unit(self, monkeypatch, p, k):
        # small fields forced onto the packed shape: the norm inverse of
        # every unit, against the field's own multiplication and tables
        from galoispoints import gf
        tabled = make_field(p, k)       # cached, so built before the patch
        monkeypatch.setattr(gf, "_TABLE_BOUND", 0)
        ctx = FieldCtx(p, k, tabled.modulus)
        assert ctx._packed and not tabled._packed
        for code in range(1, ctx.order):
            a = ctx.decode(code)
            inv = ctx.inv_t(a)
            assert ctx.mul_t(a, inv) == 1
            assert ctx.encode(inv) == tabled.inv_t(code)

    def test_tables_built_once(self, monkeypatch):
        # _u_mul keeps ctx.add_t/mul_t in locals before the first product,
        # so every later product goes through the first-use stand-ins
        from galoispoints import gf
        from galoispoints.polyring import _u_mul
        builds = []
        build = FieldCtx._build_tables
        monkeypatch.setattr(FieldCtx, "_build_tables",
                            lambda self: builds.append(self) or build(self))
        ctx = FieldCtx(3, 4, make_field(3, 4).modulus)
        assert ctx.order <= gf._TABLE_BOUND
        a = [ctx.decode(c) for c in range(1, 30)]
        got = _u_mul(ctx, a, a)
        assert builds == [ctx]
        assert got == _u_mul(make_field(3, 4), a, a)


# Pairs of every field shape: prime -> extension (into a tabled, a packed
# and a bit-polynomial field), odd tabled, odd packed, 2^k tabled and bit
# polynomial, each small enough for the subfield-cycle scan.
SCAN_PAIRS = [((13, 1), (13, 3)), ((19, 1), (19, 4)), ((2, 1), (2, 13)),
              ((3, 2), (3, 4)), ((3, 3), (3, 6)), ((5, 2), (5, 4)),
              ((7, 2), (7, 6)), ((5, 3), (5, 6)), ((3, 5), (3, 10)),
              ((19, 3), (19, 6)), ((13, 2), (13, 4)), ((2, 3), (2, 6)),
              ((2, 4), (2, 8)), ((2, 6), (2, 12)), ((2, 4), (2, 16)),
              ((2, 12), (2, 24))]


class TestEmbedByRoots:
    @pytest.mark.parametrize("src, dst", SCAN_PAIRS,
                             ids=[f"{a}^{b}-{c}^{d}" for (a, b), (c, d)
                                  in SCAN_PAIRS])
    def test_matches_subfield_scan(self, src, dst):
        props.gf_embed_matches_scan(make_field(*src), make_field(*dst))

    @pytest.mark.parametrize("p, k", [(13, 1), (3, 4), (2, 6), (2, 13),
                                      (5, 6), (17, 12), (2, 24)],
                             ids=["13", "3^4", "2^6", "2^13", "5^6", "17^12",
                                  "2^24"])
    def test_subgroup_log_is_least_index(self, p, k):
        props.gf_subgroup_log(make_field(p, k))

    @pytest.mark.parametrize("p, code", [(17, 419527191652445),
                                         (19, 1523351480339486)])
    def test_slow_scan_images_pinned(self, p, code):
        # the images of x in 17^6 -> 17^12 and 19^6 -> 19^12, as the
        # subfield-cycle scan found them in 33 s and 77 s
        src, dst = make_field(p, 6), make_field(p, 12)
        assert embed(src, dst, src.element(p)).encoding() == code


class TestProperties:
    def test_frobenius_closure(self):
        props.gf_frobenius_closure(500)

    def test_frobenius_hom(self):
        props.gf_frobenius_hom(300)

    def test_embed_hom(self):
        props.gf_embed_hom(300)
