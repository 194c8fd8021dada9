import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import props
from galoispoints import cli
from galoispoints import curve as curve_mod
from galoispoints.cli import dispatch
from galoispoints.config import RunConfig
from galoispoints.projective import Projectivity
from galoispoints.schema import (SCHEMAS, SchemaError, dump_report, validate,
                                 validate_report)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = dispatch(list(args) + ["--output", str(out)])
    data = out.read_bytes() if out.exists() else b""
    return code, data


class TestCheck:
    def test_inner_cubic(self, tmp_path):
        code, raw = run_cli(["check", str(FIXTURES / "thm3_cubic_curve.json"),
                             "--point", "0:1:0"], tmp_path)
        assert code == 0
        report = json.loads(raw)
        assert report["kind"] == "galois_report"
        assert report["verdict"] == "certified_galois"
        assert report["point_class"] == "inner"
        assert report["group"]["order"] == 2
        validate_report("galois_report", report)

    def test_quartic_inner_order_3(self, tmp_path):
        code, raw = run_cli(["check", str(FIXTURES / "thm3_quartic_curve.json"),
                             "--point", "0:1:0"], tmp_path)
        assert code == 0
        report = json.loads(raw)
        assert report["verdict"] == "certified_galois"
        assert report["group"]["order"] == 3

    def test_garbage_input_exit_1(self, tmp_path):
        bad = tmp_path / "garbage.json"
        bad.write_text("{ not json")
        code = dispatch(["check", str(bad), "--point", "0:1:0"])
        assert code == 1

    @pytest.mark.parametrize("flags", [
        ["--point", "0:1:0", "--trials", "0"],
        ["--point", "0:1:0", "--ext-cap", "-1"],
        [],                                         # --point is missing
        ["--point", "0:1:0", "--trials", "abc"],
        ["--point", "0:1:0", "--strategy", "deck"],
        ["--point", "0:1:0", "--output", "."],       # a directory
        ["--point", "0:1:0", "--brute-q-cap", "64"],  # not an option
        ["--point", "0:1:0", "--seed", "0"],         # not an option
    ])
    def test_bad_config_exit_1(self, capsys, flags):
        code = dispatch(["check", str(FIXTURES / "thm3_cubic_curve.json")]
                        + flags)
        assert code == 1
        got = capsys.readouterr()
        assert got.out == ""
        assert json.loads(got.err)["error"] == "InputError"
        assert "Traceback" not in got.err

    @pytest.mark.parametrize("argv, data", [
        (["check", "FILE", "--point", "0:1:0"],
         {"field": "abc", "affine_poly": "y^2 + x^3 + 1"}),
        (["check", "FILE", "--point", "0:1:0"],
         {"field": "4^1", "affine_poly": "y^2 + x^3 + 1"}),
        (["check", "FILE", "--point", "0:1:0"],
         {"field": "3^2", "modulus": [2, 0, 1], "affine_poly": "y^2 + x^3 + 1"}),
        (["check", "FILE", "--point", "0:1:0"],
         {"field": "3^2", "modulus": [1, 1], "affine_poly": "y^2 + x^3 + 1"}),
        (["check", "FILE", "--point", "0:1:0"],
         {"field": "3^2", "modulus": ["a", 0, 1], "affine_poly": "y^2 + x^3 + 1"}),
        (["check", "FILE", "--point", "0:1:0"],
         {"field": "2^2", "modulus": [1.7, True, 1], "affine_poly": "y^2 + x^3 + 1"}),
        (["check", "FILE", "--point", "0:1:0"],
         {"field": "2^2", "modulus": "111", "affine_poly": "y^2 + x^3 + 1"}),
        (["embed", "FILE"],
         {"field": "13^1", "modulus": [0.0, 1], "g1": [[12, 0, 0, 1]],
          "g2": [[0, 1, 1, 0]], "point": "2"}),
        (["check", "FILE", "--point", "0:1:0"],
         {"field": "7^1", "affine_poly": "y^3 + 6*x^3",
          "assume_irreducible": "false"}),
        (["check", "FILE", "--point", "0:1:0"],
         {"field": "7^1", "affine_poly": "y^3 + 6*x^3",
          "assume_irreducible": 0}),
        (["family", "FILE"], {"tag": "thm2_tame", "field": "9^1", "d": 4}),
        (["branch", "--d", "3", "--field", "9^1"], None),
        (["branch", "--d", "3", "--field", "13^0"], None),
        (["check", "FILE", "--point", "0:1:0"],
         {"field": "13^1", "affine_poly": "x^3+y^2+1", "unknown": 1}),
        (["family", "FILE"],
         {"tag": "thm2_tame", "field": "13^1", "d": 4, "unknown": 1}),
        (["embed", "FILE"],
         {"field": "13^1", "g1": [[12, 0, 0, 1]], "g2": [[0, 1, 1, 0]],
          "point": "2", "unknown": 1}),
    ], ids=["field_abc", "field_4^1", "modulus_reducible", "modulus_short",
            "modulus_not_int", "modulus_float_bool", "modulus_str",
            "groups_modulus_float", "assume_str", "assume_int",
            "family_field_9^1", "branch_9^1", "branch_13^0",
            "curve_unknown_key", "family_unknown_key", "groups_unknown_key"])
    def test_bad_field_spec_exit_1(self, tmp_path, capsys, argv, data):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code = dispatch([str(path) if a == "FILE" else a for a in argv])
        assert code == 1
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "InputError"
        assert "Traceback" not in err
        message = json.loads(err)["message"]
        if data and "unknown" in data:
            assert "unknown key 'unknown'" in message
        if data and "modulus" in data:
            assert "modulus" in message
        if data and data.get("field") in ("abc", "4^1"):
            assert f"field spec '{data['field']}'" in message

    @pytest.mark.parametrize("spec, param", [
        ({"tag": "thm2_tame", "field": "13^1", "d": "4"}, "d"),
        ({"tag": "thm2_tame", "field": "13^1", "d": True}, "d"),
        ({"tag": "thm2_tame", "field": "13^1", "d": 4.0}, "d"),
        ({"tag": "thm2_tame", "field": "13^1", "d": 4, "c": "1"}, "c"),
        ({"tag": "thm2_tame", "field": "13^1", "d": 4, "c": False}, "c"),
        ({"tag": "thm2_wild", "field": "2^4", "p": "2", "e": 2, "m": 3}, "p"),
        ({"tag": "thm2_wild", "field": "2^4", "p": 2, "e": None, "m": 3}, "e"),
        ({"tag": "thm2_wild", "field": "2^4", "p": 2, "e": 2, "m": [3]}, "m"),
        ({"tag": "thm2_wild", "field": "2^4", "p": 2, "e": 2, "m": 3,
          "alphas": {"0": "1", "2": 1}}, "alphas"),
        ({"tag": "thm2_wild", "field": "2^4", "p": 2, "e": 2, "m": 3,
          "alphas": {"x": 1}}, "alphas"),
        ({"tag": "thm2_wild", "field": "2^4", "p": 2, "e": 2, "m": 3,
          "alphas": {"0": 16, "2": 1}}, "alphas"),
        ({"tag": "prop4", "field": "2^2", "p": 2, "e": 2, "variant": 1},
         "variant"),
        ({"tag": "gk", "field": "2^6", "q": "2"}, "q"),
    ], ids=["d_str", "d_bool", "d_float", "c_str", "c_bool", "p_str",
            "e_null", "m_list", "alphas_value", "alphas_key", "alphas_range",
            "variant_int", "q_str"])
    def test_bad_family_parameter_exit_1(self, tmp_path, capsys, spec, param):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = dispatch(["family", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "InputError"
        assert f"family parameter {param!r}" in json.loads(err)["message"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, point", [
        ("13^1", "99:1:0"), ("13^1", "13:0:1"), ("13^1", "-1:0:1"),
        ("2^2", "4:1:0"), ("2^2", "-1:1:0"),
    ])
    def test_out_of_range_point_exit_1(self, tmp_path, capsys, field, point):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"field": field,
                                    "affine_poly": "1*x^3*y^0+1*x^0*y^2+1"}))
        code = dispatch(["check", str(path), f"--point={point}"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError"
        assert "coordinates must be encodings" in err["message"]

    @pytest.mark.parametrize("argv", [
        ["check", "thm3_cubic_curve.json", "--point", "1:0"],
        ["pair", "thm3_cubic_curve.json", "--inner", "1:0", "--outer", "0:1:0"],
    ], ids=["check_two_coords", "pair_two_coords"])
    def test_plane_point_needs_three_coordinates(self, capsys, argv):
        code = dispatch([str(FIXTURES / a) if a.endswith(".json") else a
                         for a in argv])
        assert code == 1
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "InputError"
        assert "3 coordinates" in json.loads(err)["message"]

    @pytest.mark.parametrize("point", ["99", "-1"])
    def test_out_of_range_embed_point_exit_1(self, capsys, point):
        code = dispatch(["embed", str(FIXTURES / "groups_a4_f13.json"),
                         f"--point={point}"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError"
        assert "encoding" in err["message"]

    def test_out_of_range_groups_file_point_exit_1(self, tmp_path, capsys):
        data = json.loads((FIXTURES / "groups_a4_f13.json").read_text())
        data["point"] = "99"
        path = tmp_path / "groups.json"
        path.write_text(json.dumps(data))
        code = dispatch(["embed", str(path)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError"
        assert "encoding" in err["message"]

    @pytest.mark.parametrize("g1, message", [
        ([[14, 13, 13, 14]], "encodings 0..12"),   # 1, 0, 0, 1 raised by 13
        ([[1.5, 0, 0, 1]], "integers"),
        ([[True, False, False, True]], "integers")],
        ids=["above_q", "float", "bool"])
    def test_bad_groups_file_entry_exit_1(self, tmp_path, capsys, g1, message):
        data = json.loads((FIXTURES / "groups_toy_conic_f13.json").read_text())
        data["g1"] = g1
        path = tmp_path / "groups.json"
        path.write_text(json.dumps(data))
        code = dispatch(["embed", str(path)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError"
        assert message in err["message"]

    @pytest.mark.parametrize("argv", [
        ["check", "--point", "1:12:0", "--strategy", "auto"],
        ["check", "--point", "1:12:0", "--strategy", "collineation"],
        ["check", "--point", "1:12:0", "--strategy", "monte_carlo"],
        ["pair", "--inner", "1:12:0", "--outer", "0:0:1"]],
        ids=["auto", "collineation", "monte_carlo", "pair"])
    def test_degree_1_curve_exit_1(self, tmp_path, capsys, argv):
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"field": "13^1", "affine_poly": "x+y"}))
        code = dispatch(argv[:1] + [str(path)] + argv[1:])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError"
        assert "degree 1" in err["message"]

    @pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                      ["check", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            dispatch(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_repeated_dispatch_matches_fresh_processes(self, capsys):
        # dispatch shares one parser per process: no default or error state
        # may leak from one call into the next
        curve = str(FIXTURES / "thm3_cubic_curve.json")
        runs = [["check", curve, "--point", "0:1:0", "--trials", "5"],
                ["check", curve, "--point", "0:1:0", "--trials", "x"],
                ["check", curve, "--point", "0:1:0"]]
        src = str(ROOT / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        for argv in runs:
            code = dispatch(argv)
            got = capsys.readouterr()
            alone = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from galoispoints.cli import dispatch; "
                 "sys.exit(dispatch(sys.argv[1:]))"] + argv,
                capture_output=True, text=True, env=env)
            assert (code, got.out, got.err) == (alone.returncode, alone.stdout,
                                                alone.stderr)
        assert json.loads(got.out)["config"]["trials"] == 64

    def test_missing_file_exit_1(self, tmp_path):
        code = dispatch(["check", str(tmp_path / "nope.json"),
                         "--point", "0:1:0"])
        assert code == 1

    def test_tame_trivial_center_needs_no_fiber_search(self, tmp_path):
        # y^5 + x^5 + x^3 over F_2 from (1:0:0) is tame (p = 2, n = 5) and
        # no usable fiber pair exists within the cap; the closed form
        # proves the group trivial over the algebraic closure
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"field": "2^1",
                                    "affine_poly": "y^5 + x^5 + x^3"}))
        code, raw = run_cli(["check", str(path), "--point", "1:0:0",
                             "--strategy", "collineation"], tmp_path)
        assert code == 0
        report = json.loads(raw)
        assert report["verdict"] == "inconclusive"
        assert report["group"]["order"] == 1
        assert report["notes"] == ["collineation group order 1 < 5"]

    def test_tame_group_beyond_ext_cap_skips_fiber_search(self, tmp_path):
        # y^5 + x^3 + 1 over F_13 from (0:1:0) is tame with the group of
        # 5th roots of unity, which lie in F_(13^4): past --ext-cap 2 the
        # exact mode stops before any fiber search and reports no group
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"field": "13^1",
                                    "affine_poly": "y^5 + x^3 + 1"}))
        code, raw = run_cli(["check", str(path), "--point", "0:1:0",
                             "--ext-cap", "2", "--strategy", "collineation"],
                            tmp_path)
        assert code == 0
        report = json.loads(raw)
        assert report["verdict"] == "inconclusive"
        assert report["group"] is None
        assert report["notes"] == [
            "exact collineation search degenerate: tame collineation group "
            "needs extension degree 4 > cap 2"]

    @pytest.mark.parametrize("field, poly, point, found, degree", [
        # the three lines u^3 - u + 2 = 0, u = x - y
        ("3^1", "x^3 + 2*y^3 + 2*x + y + 2", "0:1:0", 6, 3),
        ("2^1", "x^5 + y^5", "1:1:0", 12, 4),
    ])
    @pytest.mark.parametrize("strategy", ["auto", "collineation"])
    def test_reducible_curve_exit_1(self, tmp_path, capsys, field, poly,
                                    point, found, degree, strategy):
        # on an irreducible curve the collineations fixing a center and
        # every line through it act faithfully on the fibers, so more than
        # the projection degree of them prove the curve reducible
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"field": field, "affine_poly": poly}))
        code = dispatch(["check", str(path), "--point", point,
                         "--strategy", strategy])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError"
        assert err["message"] == (
            f"the curve is reducible: {found} collineations with center "
            f"{point} fix every line through it and generate more than the "
            f"projection degree {degree}")

    def test_singular_center_exit_1(self, tmp_path):
        code = dispatch(["check", str(FIXTURES / "thm3_cubic_curve.json"),
                         "--point", "12:0:1"])
        assert code == 1

    @pytest.mark.parametrize("argv, data, degree", [
        (["check", "--point", "0:1:0"],
         {"field": "13^1", "affine_poly": "y^2+x^3+x^1000000"}, 1000000),
        (["family"], {"tag": "thm2_tame", "field": "13^1", "d": 100000},
         100000),
        # (x^q + x)^(q^2 - q + 1) is never expanded
        (["family"], {"tag": "gk", "field": "2^4", "q": 16}, 4097),
    ], ids=["curve", "thm2_tame", "gk"])
    def test_degree_above_bound_exit_1(self, tmp_path, capsys, argv, data,
                                       degree):
        # refused before any dense kernel: quickly, with no large allocation
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = dispatch(argv[:1] + [str(path)] + argv[1:])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert elapsed < 1.0 and peak < 4 << 20, (elapsed, peak)
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError"
        assert err["message"].endswith(
            f"total degree {degree} exceeds the bound {curve_mod.MAX_DEGREE}")


class TestFamily:
    def test_thm3_cubic_verdict(self, tmp_path):
        code, raw = run_cli(["family", str(FIXTURES / "thm3_cubic_f13.json")],
                            tmp_path)
        assert code == 0
        report = json.loads(raw)
        assert report["success"] is True
        assert report["joint"]["joint_descriptor"]["tag"] == "s3"
        validate_report("family_verdict", report)

    def test_wild_f16_family_matrix_products(self, tmp_path, monkeypatch):
        # the tame inner group (order 11) and the wild outer group (order
        # 12) are written down from their (lam, beta, delta) triples with
        # no product, and J (order 132) is the product set of the two
        # groups: 110 products (none by an identity) and 12 for its closure
        # test; 182 when the wild group was conjugated and closed by matrix
        # products, 621 when the tame group was too and J closed over
        # every kept generator
        count = [0]
        product = Projectivity.__mul__

        def counted(a, b):
            count[0] += 1
            return product(a, b)

        monkeypatch.setattr(Projectivity, "__mul__", counted)
        code, _ = run_cli(["family", str(FIXTURES / "thm2_wild_p2e2m3_f16.json")],
                          tmp_path)
        assert code == 0
        assert count[0] == 122

    def test_thm3_quartic_locus_computed_once(self, tmp_path, monkeypatch):
        # the mult3_singular_on_ellP check reads one locus kept on the
        # curve, and build_family takes its pencil point from the catalogue
        calls = []
        candidates = curve_mod._affine_singular_candidates
        monkeypatch.setattr(curve_mod, "_affine_singular_candidates",
                            lambda *args: calls.append(1) or candidates(*args))
        code, raw = run_cli(["family", str(FIXTURES / "thm3_quartic_f13.json")],
                            tmp_path)
        assert code == 0 and json.loads(raw)["success"] is True
        assert len(calls) == 1

    def test_rational_families_certify_at_ext_cap_1(self, tmp_path):
        # the outer deck search splits one fiber when n >= 3, and over F_13
        # and F_4 the walk meets one that splits over the base field; for
        # the last three families two such fibers are not found within 32
        # attempts.  The report is the default-cap report but for the
        # config echo
        for name in ("thm3_cubic_f13", "thm3_quartic_f13", "prop4_p2e2_f4",
                     "prop4_p2e2_f4_power"):
            reports = []
            for cap in ([], ["--ext-cap", "1"]):
                code, raw = run_cli(["family", str(FIXTURES / f"{name}.json")]
                                    + cap, tmp_path)
                assert (name, code) == (name, 0)
                report = json.loads(raw)
                assert report["outer"]["verdict"] == "certified_galois"
                report.pop("config")
                reports.append(report)
            assert reports[0] == reports[1], name

    def test_tame_locus_takes_no_root_of_y_d_plus_1(self, tmp_path):
        # x^3 + y^4 + 1 over F_13: over x0 = 0, the root of f_x = 3 x^2,
        # f(0, y) = y^4 + 1 has gcd 1 with f_y = 4 y^3, so no root of it
        # (they lie in F_(13^2)) is needed and --ext-cap 1 suffices
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"tag": "thm2_tame", "field": "13^1",
                                    "d": 4, "c": 1}))
        code, raw = run_cli(["family", str(path), "--ext-cap", "1"], tmp_path)
        assert code == 0
        report = json.loads(raw)
        assert report["success"] is True
        assert {"name": "singular_locus_empty", "expected": True, "got": True,
                "passed": True} in report["checks"]

    def test_determinism_byte_identical(self, tmp_path):
        _, raw1 = run_cli(["family", str(FIXTURES / "thm3_cubic_f13.json")],
                          tmp_path, "a.json")
        _, raw2 = run_cli(["family", str(FIXTURES / "thm3_cubic_f13.json")],
                          tmp_path, "b.json")
        assert raw1 == raw2 and raw1

    def test_bad_spec_exit_1(self, tmp_path):
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps({"tag": "thm2_tame", "field": "2^1",
                                   "d": 4, "c": 1}))
        code = dispatch(["family", str(bad)])
        assert code == 1


class TestBranch:
    def test_d3(self, tmp_path):
        code, raw = run_cli(["branch", "--d", "3", "--field", "13^1"], tmp_path)
        assert code == 0
        report = json.loads(raw)
        assert report["constants"] == {"a": 5, "c": 11}
        assert report["beta_power"] == 1
        validate_report("branch_certificate", report)

    def test_wrong_characteristic_exit_2(self, tmp_path):
        code, raw = run_cli(["branch", "--d", "3", "--field", "3^1"], tmp_path)
        assert code == 2
        assert json.loads(raw)["error"] == "DegenerateOnly"

    def test_determinism(self, tmp_path):
        _, raw1 = run_cli(["branch", "--d", "4", "--field", "7^2"],
                          tmp_path, "a.json")
        _, raw2 = run_cli(["branch", "--d", "4", "--field", "7^2"],
                          tmp_path, "b.json")
        assert raw1 == raw2


class TestPair:
    def test_thm3_cubic_pair(self, tmp_path):
        code, raw = run_cli(["pair", str(FIXTURES / "thm3_cubic_curve.json"),
                             "--inner", "0:1:0", "--outer", "1:0:0"], tmp_path)
        assert code == 0
        report = json.loads(raw)
        assert report["inner"]["verdict"] == "certified_galois"
        assert report["lemma_line"]["is_1_or_d"]
        validate_report("pair_report", report)


class TestGoldenReports:
    """Byte-stable golden outputs for the cheapest deterministic reports."""

    @pytest.mark.parametrize("args, golden", [
        (["branch", "--d", "3", "--field", "13^1"], "golden_branch_d3_f13.json"),
        (["branch", "--d", "4", "--field", "7^1"], "golden_branch_d4_f7.json"),
        (["family", str(FIXTURES / "thm3_cubic_f13.json")],
         "golden_family_thm3_cubic_f13.json"),
        (["family", str(FIXTURES / "prop4_p2e2_f4.json")],
         "golden_family_prop4_p2e2_f4.json"),
        (["family", str(FIXTURES / "thm2_tame_d4_f13.json")],
         "golden_family_thm2_tame_d4_f13.json"),
        (["pair", str(FIXTURES / "thm3_cubic_curve.json"),
          "--inner", "12:0:1", "--outer", "1:0:0"],
         "golden_pair_thm3_cubic_invalid.json"),
        (["check", str(FIXTURES / "thm3_quartic_curve.json"),
          "--point", "1:0:0", "--strategy", "monte_carlo"],
         "golden_check_thm3_quartic_mc.json"),
        (["embed", str(FIXTURES / "groups_toy_conic_f13.json")],
         "golden_embed_toy_conic_f13.json"),
        (["family", str(FIXTURES / "thm3_quartic_f13.json")],
         "golden_family_thm3_quartic_f13.json"),
        (["family", str(FIXTURES / "prop4_p2e2_f4_power.json")],
         "golden_family_prop4_p2e2_f4_power.json"),
        (["embed", str(FIXTURES / "groups_a4_f13.json")],
         "golden_embed_groups_a4_f13.json"),
        (["family", str(FIXTURES / "thm2_tame_d4_f13_c0.json")],
         "golden_family_thm2_tame_d4_f13_c0.json"),
        (["family", str(FIXTURES / "thm2_wild_p3e1m2_f9.json")],
         "golden_family_thm2_wild_p3e1m2_f9.json"),
        (["check", str(FIXTURES / "tame_d5_f19_curve.json"),
          "--point", "0:1:0", "--strategy", "monte_carlo"],
         "golden_check_tame_d5_f19_outer_mc.json"),
        (["check", str(FIXTURES / "tame_d5_f19_curve.json"),
          "--point", "1:0:0", "--strategy", "monte_carlo"],
         "golden_check_tame_d5_f19_inner_mc.json"),
        (["family", str(FIXTURES / "thm2_wild_p2e2m3_f16.json")],
         "golden_family_thm2_wild_p2e2m3_f16.json"),
        (["family", str(FIXTURES / "thm2_tame_d6_f13.json")],
         "golden_family_thm2_tame_d6_f13.json"),
        (["check", str(FIXTURES / "wild_p2e2_f4_perturbed_curve.json"),
          "--point", "0:1:1"],
         "golden_check_wild_p2e2_f4_perturbed.json"),
        (["pair", str(FIXTURES / "tame_d5_f19_curve.json"),
          "--inner", "1:0:0", "--outer", "0:1:0"],
         "golden_pair_tame_d5_f19.json"),
        (["check", str(FIXTURES / "refute_tail_f17_curve.json"),
          "--point", "12:13:1"],
         "golden_check_refute_tail_f17.json"),
    ])
    def test_matches_golden(self, tmp_path, args, golden):
        code, raw = run_cli(args, tmp_path)
        assert code == 0
        assert raw == (FIXTURES / golden).read_bytes()

    def test_config_echoes_every_knob(self):
        # every report echoes the whole RunConfig but its output path
        knobs = {f.name for f in dataclasses.fields(RunConfig)} - {"output"}
        assert knobs == {"closure_cap", "ext_cap", "trials"}
        goldens = sorted(FIXTURES.glob("golden_*.json"))
        assert len(goldens) == 20
        for path in goldens:
            assert set(json.loads(path.read_text())["config"]) == knobs, path

    def test_run_config_takes_no_seed(self):
        with pytest.raises(TypeError):
            RunConfig(seed=0)


class TestPairInvalid:
    def test_singular_center_marked_invalid(self, tmp_path):
        # (-1:0:1) = 12:0:1 is the singular point of the cubic
        code, raw = run_cli(["pair", str(FIXTURES / "thm3_cubic_curve.json"),
                             "--inner", "12:0:1", "--outer", "1:0:0"], tmp_path)
        assert code == 0
        report = json.loads(raw)
        assert report["inner"]["point_class"] == "invalid"
        assert report["inner"]["verdict"] == "inconclusive"
        assert report["outer"]["verdict"] in ("certified_galois",
                                              "probably_galois",
                                              "inconclusive")
        validate_report("pair_report", report)


class TestEmbed:
    def test_toy_conic(self, tmp_path):
        code, raw = run_cli(["embed", str(FIXTURES / "groups_toy_conic_f13.json")],
                            tmp_path)
        assert code == 0
        report = json.loads(raw)
        assert report["curve"]["degree"] == 2
        assert report["inner_report"]["verdict"] == "certified_galois"
        validate_report("embedding_result", report)

    def test_condition_failure_exit_2(self, tmp_path):
        code, raw = run_cli(["embed",
                             str(FIXTURES / "groups_incompatible_f13.json")],
                            tmp_path)
        assert code == 2
        assert json.loads(raw)["error"] == "ConditionBFails"

    def test_a4_quartic(self, tmp_path):
        code, raw = run_cli(["embed", str(FIXTURES / "groups_a4_f13.json")],
                            tmp_path)
        assert code == 0
        report = json.loads(raw)
        assert report["curve"]["degree"] == 4
        assert report["joint"]["joint_descriptor"]["tag"] == "a4"

    def test_point_override(self, tmp_path):
        code, raw = run_cli(["embed", str(FIXTURES / "groups_toy_conic_f13.json"),
                             "--point", "3"], tmp_path)
        assert code == 0

    def test_trivial_outer_group_exit_1(self, tmp_path, capsys):
        # g2 = {identity, a scalar matrix}: no outer group to embed
        path = tmp_path / "groups.json"
        path.write_text(json.dumps({"field": "13^1", "g1": [[0, 1, 1, 5]],
                                    "g2": [[1, 0, 0, 1], [5, 0, 0, 5]],
                                    "point": "2"}))
        code = dispatch(["embed", str(path)])
        assert code == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "InputError" and "'g2'" in error["message"]


class TestSchemas:
    def test_all_kinds_known(self):
        assert set(SCHEMAS) == {"galois_report", "pair_report",
                                "embedding_result", "family_verdict",
                                "branch_certificate", "error"}

    def test_validator_rejects_bad_verdict(self):
        good = {
            "point": {"coords": [0, 1, 0], "field": "13^1"},
            "point_class": "inner", "projection_degree": 2,
            "verdict": "certified_galois", "method": "collineation",
            "trials": 0, "notes": [], "group": None, "descriptor": None,
            "witness": None,
        }
        validate(good, SCHEMAS["galois_report"])
        bad = dict(good, verdict="maybe")
        with pytest.raises(SchemaError):
            validate(bad, SCHEMAS["galois_report"])

    def test_validator_rejects_missing_key(self):
        with pytest.raises(SchemaError):
            validate({"error": "X"}, SCHEMAS["error"])

    def test_bool_is_not_integer(self):
        with pytest.raises(SchemaError):
            validate({"error": "X", "message": True}, SCHEMAS["error"])


_DELETE = object()
# One violation each on a golden report: the path and the value put there
# (_DELETE removes the key), and the exact SchemaError text that
# validation gave before the writer took it over.
_MUTATIONS = [
    ("golden_family_thm3_cubic_f13.json", ("inner", "verdict"), "maybe",
     "$.inner.verdict: 'maybe' not in ['certified_galois', "
     "'certified_not_galois', 'probably_galois', 'inconclusive']"),
    ("golden_family_thm3_cubic_f13.json", ("joint", "classification"),
     _DELETE, "$.joint: missing required key 'classification'"),
    ("golden_family_thm3_cubic_f13.json",
     ("inner", "group", "elements", 1, 2), True,
     "$.inner.group.elements[1][2]: expected ['integer'], got bool"),
    ("golden_family_thm3_cubic_f13.json", ("checks", 0, "passed"), 1,
     "$.checks[0].passed: expected ['boolean'], got int"),
    ("golden_family_thm3_cubic_f13.json", ("curve", "modulus"), "1,0",
     "$.curve.modulus: expected ['array'], got str"),
    ("golden_family_thm3_cubic_f13.json", ("lemma_line",), [],
     "$.lemma_line: expected ['object'], got list"),
    ("golden_family_thm3_cubic_f13.json", ("inner", "point"), None,
     "$.inner.point: expected ['object'], got NoneType"),
    ("golden_family_thm3_cubic_f13.json", ("joint", "joint_descriptor"), None,
     "$.joint.joint_descriptor: expected ['object'], got NoneType"),
    ("golden_pair_tame_d5_f19.json", ("outer", "point_class"), "middle",
     "$.outer.point_class: 'middle' not in ['inner', 'outer', 'invalid']"),
    ("golden_pair_tame_d5_f19.json", ("lemma_line", "is_dP"), _DELETE,
     "$.lemma_line: missing required key 'is_dP'"),
    ("golden_pair_tame_d5_f19.json", ("inner", "point", "coords", 0), False,
     "$.inner.point.coords[0]: expected ['integer'], got bool"),
    ("golden_pair_tame_d5_f19.json", ("joint", "g2_normal"), 0,
     "$.joint.g2_normal: expected ['boolean'], got int"),
    ("golden_pair_tame_d5_f19.json", ("inner", "notes"), {"0": "note"},
     "$.inner.notes: expected ['array'], got dict"),
    ("golden_pair_tame_d5_f19.json", ("outer", "trials"), None,
     "$.outer.trials: expected ['integer'], got NoneType"),
    ("golden_embed_toy_conic_f13.json", ("inner_report", "method"), "guess",
     "$.inner_report.method: 'guess' not in ['collineation', 'deck', "
     "'monte_carlo', None]"),
    ("golden_embed_toy_conic_f13.json", ("curve", "assume_irreducible"),
     _DELETE, "$.curve: missing required key 'assume_irreducible'"),
    ("golden_embed_toy_conic_f13.json", ("image_P", 0), True,
     "$.image_P[0]: expected ['integer'], got bool"),
    ("golden_embed_toy_conic_f13.json", ("curve", "assume_irreducible"), 1,
     "$.curve.assume_irreducible: expected ['boolean'], got int"),
    ("golden_embed_toy_conic_f13.json", ("checks", 0), ["name"],
     "$.checks[0]: expected ['object'], got list"),
    ("golden_embed_toy_conic_f13.json", ("field",), None,
     "$.field: expected ['string'], got NoneType"),
]


def _golden(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text())


class TestSchemaParity:
    """validate, validate_report and the writer share one walk: a single
    violation gives the same SchemaError text through each."""

    @pytest.mark.parametrize("name, path, value, message", _MUTATIONS)
    def test_single_mutation(self, name, path, value, message):
        report = _golden(name)
        node = report
        for key in path[:-1]:
            node = node[key]
        if value is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        kind = report["kind"]
        for check in (lambda: validate(report, SCHEMAS[kind]),
                      lambda: validate_report(kind, report),
                      lambda: dump_report(kind, report)):
            with pytest.raises(SchemaError) as exc:
                check()
            assert str(exc.value) == message

    def test_invalid_payload_writes_nothing(self, monkeypatch, capsys):
        class BadCertificate:
            def to_jsonable(self):
                return dict(_golden("golden_branch_d3_f13.json"), d=5)

        monkeypatch.setattr(cli, "branch_certificate",
                            lambda d, ctx, ext_cap: BadCertificate())
        with pytest.raises(SchemaError, match=r"^\$\.d: 5 not in \[3, 4\]$"):
            dispatch(["branch", "--d", "3", "--field", "13^1"])
        assert capsys.readouterr() == ("", "")

    def test_two_violations(self):
        # required keys first, then the properties in sorted key order,
        # not in the schema's order (inner before checks)
        report = _golden("golden_family_thm3_cubic_f13.json")
        report["success"] = 1
        report["inner"]["verdict"] = "maybe"
        report["checks"][0]["passed"] = 1
        for check in (lambda: validate(report, SCHEMAS["family_verdict"]),
                      lambda: dump_report("family_verdict", report)):
            with pytest.raises(SchemaError) as exc:
                check()
            assert str(exc.value) == (
                "$.checks[0].passed: expected ['boolean'], got int")
        del report["lemma_line"]
        with pytest.raises(SchemaError) as exc:
            validate_report("family_verdict", report)
        assert str(exc.value) == "$: missing required key 'lemma_line'"

    def test_free_subtree_is_written(self):
        # a subtree the schema leaves free is written, so it must be JSON
        report = {"kind": "error", "error": "E", "message": "m",
                  "extra": object()}
        with pytest.raises(TypeError, match="not JSON serializable"):
            validate_report("error", report)

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown report kind 'nope'"):
            dump_report("nope", {})


def _bench_module(name: str):
    """A module of verdictbench/, loaded under a name of its own so that
    no top-level ``gen`` or ``worker`` enters sys.modules."""
    spec = importlib.util.spec_from_file_location(
        f"_verdictbench_{name}", ROOT / "verdictbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReportWriter:
    """dump_report writes exactly json.dumps(sort_keys=True, indent=2)
    plus a newline."""

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("golden_*.json")),
                             ids=lambda path: path.stem)
    def test_golden_bytes(self, path):
        raw = path.read_text()
        report = json.loads(raw)
        assert dump_report(report["kind"], report) == raw

    def test_random_payloads(self):
        props.schema_writer_matches_json(300)

    def test_awkward_values(self):
        report = _golden("golden_family_thm3_cubic_f13.json")
        report["inner"]["notes"] = props.AWKWARD_TEXT
        report["inner"]["trials"] = -(10 ** 40)
        report["inner"]["projection_degree"] = 2 ** 64
        report["inner"]["witness"] = {3: [], -1: {}, 10: props.AWKWARD_INTS}
        report["outer"].update(group=None, descriptor=None, witness=None,
                               method=None, notes=[])
        report["joint"]["joint_descriptor"]["element_order_histogram"] = {
            10: 4, 2: 1, 1: 1}
        report["joint"]["joint_descriptor"]["params"] = {"floats": [
            x for x in props.AWKWARD_FLOATS], "t": (1, "x")}
        report["checks"] = [{"name": "", "passed": False, "expected": {},
                             "got": [[], {}, None]}]
        report["curve"]["modulus"] = []
        report["config"] = {}
        for kind, payload in (
                ("family_verdict", report),
                ("error", {"kind": "error", "error": "InputError",
                           "message": "".join(props.AWKWARD_TEXT)})):
            assert dump_report(kind, payload) == props.json_text(payload)

    @pytest.mark.parametrize("workload", ["census", "certify", "refute"])
    def test_real_reports(self, monkeypatch, tmp_path, workload):
        # every report of one pass over seed 7's timed benchmark jobs
        gen = _bench_module("gen")
        worker = _bench_module("worker")
        written = []

        def checked(kind, report):
            text = dump_report(kind, report)
            written.append(text == props.json_text(report))
            return text

        monkeypatch.setattr(cli, "dump_report", checked)
        jobs = gen.generate(workload, 7)
        for i, job in enumerate(jobs):
            if not job["before"]:
                worker.run_job(cli, worker.prepare(i, job, tmp_path), 60.0)
        assert len(written) == sum(not job["before"] for job in jobs)
        assert all(written)


class TestErrorBytes:
    """The JSON errors dispatch writes on stderr, byte for byte."""

    def test_input_error_exit_1(self, capsys):
        code = dispatch(["check", "nö\tpe.json", "--point", "0:1:0"])
        assert code == 1
        assert capsys.readouterr() == ("", (
            '{\n  "error": "InputError",\n  "kind": "error",\n'
            '  "message": "no such file: n\\u00f6\\tpe.json"\n}\n'))

    def test_galois_point_error_exit_2(self, capsys):
        code = dispatch(["embed", str(FIXTURES / "groups_a4_f13.json"),
                         "--closure-cap", "2"])
        assert code == 2
        assert capsys.readouterr() == ("", (
            '{\n  "error": "ClosureCapExceeded",\n  "kind": "error",\n'
            '  "message": "group closure exceeded cap 2"\n}\n'))


# Fuzzed CLI runs over fields small enough that each one stays well under a
# second: well-formed curve files, points and flags, which reach the
# verdict code, and malformed ones, which must be rejected cleanly.
_FIELDS = {"2^1": 2, "3^1": 3, "5^1": 5, "7^1": 7, "2^2": 4, "3^2": 9}
_TERM = st.tuples(st.integers(0, 9), st.integers(0, 4), st.integers(0, 4))
_CURVES = [[(1, 0, 3), (1, 2, 0), (1, 0, 0)],
           [(1, 0, 2), (1, 3, 0), (1, 1, 0), (1, 0, 0)],
           [(1, 0, 4), (1, 3, 0), (1, 0, 0)],
           [(1, 0, 3), (1, 3, 0), (1, 0, 0)],
           [(1, 0, 4), (1, 4, 0), (1, 1, 1), (1, 0, 0)]]
_POLY = st.tuples(st.sampled_from(_CURVES), st.lists(_TERM, max_size=3)).map(
    lambda bt: "+".join(f"{c}*x^{i}*y^{j}" for c, i, j in bt[0] + bt[1]))


@st.composite
def _wellformed_run(draw):
    field = draw(st.sampled_from(sorted(_FIELDS)))
    coord = st.integers(0, min(_FIELDS[field] - 1, 4))
    point = st.lists(coord, min_size=3, max_size=3).filter(any).map(
        lambda cs: ":".join(map(str, cs)))
    curve = {"field": field, "affine_poly": draw(_POLY)}
    if draw(st.booleans()):
        curve["assume_irreducible"] = draw(st.booleans())
    command = draw(st.sampled_from(["check", "pair"]))
    if command == "check":
        argv = ["--point", draw(point), "--strategy", draw(st.sampled_from(
            ["auto", "collineation", "monte_carlo"]))]
    else:
        argv = ["--inner", draw(point), "--outer", draw(point)]
    argv += ["--trials", str(draw(st.integers(1, 8))),
             "--ext-cap", str(draw(st.integers(1, 4)))]
    return json.dumps(curve), command, argv


_MALFORMED_CURVE = st.one_of(
    st.fixed_dictionaries(
        {"field": st.sampled_from(["4^1", "9", "13^0", "x^2", "", 7, None]),
         "affine_poly": _POLY}),
    st.fixed_dictionaries(
        {"field": st.sampled_from(sorted(_FIELDS)),
         "affine_poly": st.one_of(_POLY, st.text("xy^*+-0123456789() ",
                                                 max_size=12))},
        optional={"modulus": st.lists(st.integers(-1, 3), max_size=4),
                  "bogus": st.integers()}),
    st.sampled_from([[], "x+y", 3, None])).map(json.dumps)
_MALFORMED_FLAGS = st.lists(st.sampled_from([
    ["--point", "0:1:0"], ["--inner", "1:0:0"], ["--outer", "0:1:1"],
    ["--strategy", "deck"], ["--strategy", "auto"], ["--trials", "0"],
    ["--seed", "x"], ["--seed", "0"], ["--ext-cap", "-1"],
    ["--closure-cap", "1"],
    ["--brute-q-cap", "0"], ["--brute-q-cap", "64"], ["--bogus"],
    ["--point", "1:1"], ["--point", "0:0:0"], ["--point", "9:9:9"],
    ["--inner", "a:b:c"]]), max_size=4)


# Family specs that each run well under a second; a parameter that the
# field rules out (p | d(d - 1), characteristic 2 or 3 for thm3) still
# exits cleanly, with 1.
_FAMILY_FIELDS = ["2^1", "3^1", "5^1", "7^1", "11^1", "13^1", "2^2", "3^2",
                  "5^2"]
_FAMILY_SPECS = st.one_of(
    st.fixed_dictionaries({"tag": st.just("thm2_tame"),
                           "field": st.sampled_from(_FAMILY_FIELDS),
                           "d": st.integers(3, 6), "c": st.integers(0, 1)}),
    st.fixed_dictionaries({"tag": st.sampled_from(["thm3_cubic",
                                                   "thm3_quartic"]),
                           "field": st.sampled_from(_FAMILY_FIELDS)}),
    st.tuples(st.sampled_from([("3^1", 3, 1), ("3^2", 3, 1), ("5^1", 5, 1),
                               ("2^2", 2, 2), ("2^4", 2, 2)]),
              st.sampled_from(["pencil", "power"])).map(
        lambda fv: {"tag": "prop4", "field": fv[0][0], "p": fv[0][1],
                    "e": fv[0][2], "variant": fv[1]}),
    st.sampled_from([("3^1", 3, 1, 2), ("3^2", 3, 1, 2), ("3^2", 3, 1, 1),
                     ("2^2", 2, 1, 1), ("2^2", 2, 2, 1), ("2^2", 2, 2, 3),
                     ("5^1", 5, 1, 2)]).map(
        lambda f: {"tag": "thm2_wild", "field": f[0], "p": f[1], "e": f[2],
                   "m": f[3]}),
    st.just({"tag": "gk", "field": "2^1", "q": 2}))
# Replacement values: small integers and values of the wrong type, none of
# which raises a degree above the ones drawn above.
_BAD_VALUES = st.one_of(st.integers(-2, 1), st.sampled_from(
    [1.5, "3", "x", None, [], {}, True, "4^1", "13^0", {"7": 1}, {"0": -1}]))


@st.composite
def _malformed_family(draw):
    spec = dict(draw(_FAMILY_SPECS))
    how = draw(st.sampled_from(["replace", "drop", "extra", "raw"]))
    key = draw(st.sampled_from(sorted(spec)))
    if how == "replace":
        spec[key] = draw(_BAD_VALUES)
    elif how == "drop":
        del spec[key]
    elif how == "extra":
        spec[draw(st.sampled_from(["alphas", "modulus", "q", "bogus"]))] = \
            draw(_BAD_VALUES)
    else:
        return draw(st.sampled_from(["{ not json", "[]", "3", "null",
                                     '{"tag": 5, "field": "3^1"}']))
    return json.dumps(spec)


_RUN_FLAGS = st.tuples(st.integers(1, 8), st.integers(1, 4)).map(
    lambda t: ["--trials", str(t[0]), "--ext-cap", str(t[1])])
_BAD_FIELDS = ["4^1", "9", "13^0", "x^2", "", "2^0", "1^1", "3^-1", "^"]


# Groups files over fields small enough that every embedding stays well
# under a second: matrices drawn from scalings, translations, the
# inversion and random entries (a singular one exits 1), closure capped so
# a large group exits 2 with ClosureCapExceeded, the base point in the
# file or on the command line; and the committed groups fixtures.
_EMBED_FIELDS = {"2^1": 2, "3^1": 3, "5^1": 5, "7^1": 7, "2^2": 4, "3^2": 9,
                 "13^1": 13}
_EMBED_FIXTURES = [json.loads((FIXTURES / name).read_text()) for name in
                   ("groups_a4_f13.json", "groups_toy_conic_f13.json",
                    "groups_incompatible_f13.json")]


@st.composite
def _embed_run(draw):
    if draw(st.integers(0, 4)) == 0:
        return dict(draw(st.sampled_from(_EMBED_FIXTURES))), []
    field = draw(st.sampled_from(sorted(_EMBED_FIELDS)))
    entry = st.integers(0, _EMBED_FIELDS[field] - 1)
    matrix = st.one_of(entry.filter(bool).map(lambda a: [a, 0, 0, 1]),
                       entry.map(lambda b: [1, b, 0, 1]),
                       st.just([0, 1, 1, 0]),
                       st.lists(entry, min_size=4, max_size=4))
    spec = {"field": field,
            "g1": draw(st.lists(matrix, min_size=1, max_size=2)),
            "g2": draw(st.lists(matrix, min_size=1, max_size=2))}
    point = draw(st.one_of(entry.map(str), st.just("inf")))
    argv = ["--closure-cap", str(draw(st.sampled_from([4, 8, 12, 24])))]
    if draw(st.booleans()):
        spec["point"] = point
    else:
        argv += ["--point", point]
    return spec, argv


_BAD_EMBED_VALUES = st.one_of(_BAD_VALUES, st.sampled_from(
    [[[1, 2, 3]], [[1, 0, 0, 0]], [["a", 0, 0, 1]], [[1.5, 0, 0, 1]],
     [[True, 0, 0, 1]], [[99, 0, 0, 1]], [[-1, 0, 0, 1]], [1, 0, 0, 1],
     "[[1, 0, 0, 1]]", [[]], "inf2", "1:2", "", "-1", "99"]))
_BAD_EMBED_POINTS = ["x", "-1", "99", "", "1:2", "inf2", "1.5", "0x1"]


@st.composite
def _malformed_embed(draw):
    spec, argv = draw(_embed_run())
    how = draw(st.sampled_from(["replace", "drop", "extra", "raw", "point"]))
    key = draw(st.sampled_from(sorted(spec)))
    if how == "replace":
        spec[key] = draw(_BAD_EMBED_VALUES)
    elif how == "drop":
        del spec[key]
    elif how == "extra":
        spec[draw(st.sampled_from(["modulus", "g3", "bogus"]))] = \
            draw(_BAD_EMBED_VALUES)
    elif how == "point":
        argv = argv + ["--point", draw(st.sampled_from(_BAD_EMBED_POINTS))]
    else:
        return draw(st.sampled_from(["{ not json", "[]", "3", "null",
                                     '{"field": "13^1", "g1": 5}'])), argv
    return json.dumps(spec), argv


def _run_fuzzed(text, command: str, argv: list) -> None:
    """Run one fuzzed invocation: exit 0, 1 or 2 and no traceback.  A
    failed run writes one JSON error object on stderr and nothing on
    stdout, and exit 1 (malformed input) always does; a run that reaches
    its report writes it on stdout with nothing on stderr, exit 0, or
    exit 2 for a failed family verification (a family_verdict), a
    degenerate branch system or an embedding whose condition (b) or
    verification fails (an error report).  ``text`` is the input file's
    content, None for ``branch``.  Returns the exit code and the name of
    the error on stderr, or None."""
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        if text is not None:
            path = Path(tmp) / "input.json"
            path.write_text(text)
            files = [str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch([command] + files + argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if err.getvalue():
        assert code and not out.getvalue()
        error = json.loads(err.getvalue())
        assert error["kind"] == "error"
        return code, error["error"]
    assert code != 1
    kind = {"check": "galois_report", "pair": "pair_report",
            "family": "family_verdict", "branch": "branch_certificate",
            "embed": "embedding_result"}[command]
    if code:
        assert command in ("family", "branch", "embed")
        kind = "family_verdict" if command == "family" else "error"
    report = json.loads(out.getvalue())
    assert report["kind"] == kind
    if code and command == "embed":
        assert report["error"] in ("ConditionBFails", "VerificationFailed")
    return code, None


class TestFuzzedCli:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(run=_wellformed_run())
    def test_wellformed_runs_exit_cleanly(self, run):
        _run_fuzzed(*run)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(curve=_MALFORMED_CURVE, raw=st.booleans(),
           command=st.sampled_from(["check", "pair"]), flags=_MALFORMED_FLAGS)
    def test_malformed_runs_exit_cleanly(self, curve, raw, command, flags):
        _run_fuzzed("{ not json" if raw else curve, command,
                    ["--ext-cap", "3"] + [a for f in flags for a in f])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=_FAMILY_SPECS, flags=_RUN_FLAGS)
    def test_wellformed_family_runs_exit_cleanly(self, spec, flags):
        _run_fuzzed(json.dumps(spec), "family", flags)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(text=_malformed_family(), flags=_RUN_FLAGS)
    def test_malformed_family_runs_exit_cleanly(self, text, flags):
        _run_fuzzed(text, "family", flags)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(d=st.sampled_from(["3", "4"]),
           field=st.sampled_from(sorted(_FIELDS) + _FAMILY_FIELDS),
           flags=_RUN_FLAGS)
    def test_wellformed_branch_runs_exit_cleanly(self, d, field, flags):
        _run_fuzzed(None, "branch", ["--d", d, "--field", field] + flags)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(d=st.sampled_from([None, "3", "2", "5", "x", "", "3.0"]),
           field=st.sampled_from([None, "7^1"] + _BAD_FIELDS),
           flags=_MALFORMED_FLAGS)
    def test_malformed_branch_runs_exit_cleanly(self, d, field, flags):
        argv = ([] if d is None else ["--d", d]) + \
            ([] if field is None else ["--field", field])
        _run_fuzzed(None, "branch", argv + [a for f in flags for a in f])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(run=_embed_run(), flags=_RUN_FLAGS)
    def test_wellformed_embed_runs_exit_cleanly(self, run, flags):
        spec, argv = run
        code, error = _run_fuzzed(json.dumps(spec), "embed", argv + flags)
        if all(m[1] == m[2] == 0 and m[0] == m[3] for m in spec["g2"]):
            # g2 generates the trivial group: malformed input, unless g1,
            # read first, is singular or passes the closure cap
            assert code == 1 or error == "ClosureCapExceeded"

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(run=_malformed_embed(), flags=_RUN_FLAGS)
    def test_malformed_embed_runs_exit_cleanly(self, run, flags):
        text, argv = run
        _run_fuzzed(text, "embed", argv + flags)
