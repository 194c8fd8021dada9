"""Tests of the verdict benchmark itself.

    python3 -m pytest verdictbench/test_bench.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check   # noqa: E402
import gen     # noqa: E402
import run     # noqa: E402
import spans   # noqa: E402
import worker  # noqa: E402
from galoispoints import cli  # noqa: E402
from galoispoints.families import FamilySpec, build_family  # noqa: E402
from galoispoints.polyring import parse_poly  # noqa: E402


def _shape(field: str) -> str:
    p, k = (int(v) for v in field.split("^"))
    if k == 1:
        return "prime"
    return "bin" if p == 2 else "odd_ext"


def _fields(job: dict) -> set:
    out = set()
    for obj in job["files"].values():
        if "field" in obj:
            out.add(obj["field"])
    if "--field" in job["argv"]:
        out.add(job["argv"][job["argv"].index("--field") + 1])
    return out


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert gen.generate(workload, 7) == gen.generate(workload, 7)
    assert gen.generate(workload, 7) != gen.generate(workload, 8)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generator_covers_all_field_shapes(workload, seed):
    jobs = gen.generate(workload, seed)
    shapes = {_shape(f) for job in jobs for f in _fields(job)}
    assert shapes == {"prime", "bin", "odd_ext"}


def test_generated_curves_match_the_program_families():
    # the generator writes family curves without the program; they must be
    # the curves the program's family constructors build
    cases = [({"tag": "thm2_tame", "field": "13^1", "d": 5, "c": 1},
              gen.tame_poly(5, 1, 13)),
             ({"tag": "thm2_wild", "field": "3^2", "p": 3, "e": 1, "m": 2,
               "c": 0}, gen.wild_poly(3, 1, 2, 0)),
             ({"tag": "thm2_wild", "field": "2^4", "p": 2, "e": 2, "m": 3,
               "c": 1}, gen.wild_poly(2, 2, 3, 1)),
             ({"tag": "prop4", "field": "5^1", "p": 5, "e": 1,
               "variant": "power"}, gen.power_poly(5, 5)),
             ({"tag": "gk", "field": "2^6", "q": 2}, gen.gk_poly())]
    for spec, poly in cases:
        curve, _ = build_family(FamilySpec.from_dict(spec))
        assert parse_poly(gen.poly_text(poly), curve.ctx, 2) == curve.affine()


@pytest.mark.parametrize("poly, p, want", [
    ({(0, 4): 1, (1, 2): 1, (1, 0): 1, (0, 0): 1}, 2,
     False),                                          # (y+1)^2 (y^2+x+1)
    ({(2, 0): 1, (1, 1): 2, (0, 2): 1}, 5, False),    # (x+y)^2
    ({(2, 1): 1, (1, 1): 2, (0, 1): 1}, 5, False),    # y (x+1)^2
    ({(2, 0): 1, (0, 2): 1}, 5, True),                # (x+2y)(x-2y)
    (gen.power_poly(4, 2), 2, True),                  # inseparable in y
    (gen.tame_poly(5, 1, 13), 13, True)])
def test_squarefree(poly, p, want):
    assert gen.squarefree(poly, p) is want


def _dispatch(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def _run_job(job: dict, tmp_path: Path) -> tuple:
    return _dispatch(worker.prepare(0, job, tmp_path))


def test_checker_accepts_and_rejects_family_reports(tmp_path):
    job = gen._family_job({"tag": "thm2_tame", "field": "13^1", "d": 4,
                           "c": 1})
    code, out, err = _run_job(job, tmp_path)
    assert check.check(job, code, out, err) is None
    report = json.loads(out)

    flipped = copy.deepcopy(report)
    flipped["outer"]["verdict"] = "probably_galois"
    assert check.check(job, code, json.dumps(flipped), "")[0] \
        == "wrong_verdict"

    wrong_order = copy.deepcopy(report)
    wrong_order["inner"]["group"]["order"] = 4
    assert check.check(job, code, json.dumps(wrong_order), "")[0] \
        == "wrong_verdict"

    assert check.check(job, 1, out, err)[0] == "unexpected_exit"
    assert check.check(job, None, "", "")[0] == "timeout"


@pytest.mark.parametrize("centre, splits", [("outer", False),
                                            ("inner", True)])
def test_census_screen_outcome_follows_roots_of_unity(tmp_path, centre,
                                                      splits):
    # thm2_tame d = 5 over F_11: F_11 lacks the 4th roots of unity, so the
    # inner centre (degree 4) is refuted; it has the 5th, and the outer
    # centre (degree 5) is not
    cell = gen.census_cells()[("tame", "prime", 5, centre, splits)]
    job = next(j for j in cell if j["id"].startswith("tame:11^1:d5:c1"))
    code, out, err = _run_job(job, tmp_path)
    report = json.loads(out)
    if not splits:
        assert report["verdict"] == "probably_galois"
        assert check.check(job, code, out, err) is None
        report["verdict"] = "certified_not_galois"
        report["witness"] = {"t0": 1, "field": "11^1",
                             "factor_degrees": [2, 2]}
        # uniform degrees: an unsound refutation
        assert check.check(job, code, json.dumps(report), "")[1] == "report"
    else:
        # the known over-refutation at a theorem-Galois centre
        assert check.check(job, code, out, err)[:2] == ("wrong_verdict",
                                                       "refuted")
        report["witness"]["factor_degrees"] = [report["projection_degree"]]
        assert check.check(job, code, json.dumps(report), "")[1] == "report"


def test_wild_s3_family_is_a_known_self_check_failure(tmp_path):
    # the outer group (Z/3) x| Z/2 is S3; the family's own skeleton
    # expects semidirect_p_cyclic, so the program exits 2 on a right answer
    job = gen._family_job({"tag": "thm2_wild", "field": "3^2", "p": 3,
                           "e": 1, "m": 2, "c": 0})
    code, out, err = _run_job(job, tmp_path)
    fail = check.check(job, code, out, err)
    assert code == 2
    assert fail[:2] in check.KNOWN["certify"]


def test_gk_family_is_the_documented_red(tmp_path):
    # acceptance criterion 9: a real run, about 20 s
    job = gen._family_job(gen._fixture("gk_q2_f64.json"))
    code, out, err = _run_job(job, tmp_path)
    assert code == 2
    assert check.check(job, code, out, err) is None


def test_checker_gk_documented_red():
    job = gen._family_job({"tag": "gk", "field": "2^6", "q": 2})
    outer = {"point": {"coords": [0, 1, 0], "field": "2^6"},
             "point_class": "outer", "projection_degree": 9,
             "verdict": "certified_galois", "method": "collineation",
             "trials": 0, "notes": [],
             "group": {"order": 9, "field": "2^6", "dimension": 2,
                       "elements": [[i] for i in range(9)]},
             "descriptor": {"tag": "cyclic"}, "witness": None}
    inner = dict(outer, point_class="inner", projection_degree=8,
                 verdict="probably_galois", method="monte_carlo",
                 group=None, descriptor=None)
    report = {"inner": inner, "outer": outer, "joint": None,
              "success": False}
    assert check.check(job, 2, json.dumps(report), "") is None
    certified = dict(report, inner=dict(inner, verdict="certified_galois"))
    assert check.check(job, 2, json.dumps(certified), "")
    assert check.check(job, 0, json.dumps(report), "")


@pytest.mark.parametrize("d, p", [(3, 13), (4, 7), (3, 5), (4, 43)])
def test_branch_constants_match_program(d, p):
    job = {"id": "b", "argv": ["branch", "--d", str(d), "--field", f"{p}^1"],
           "files": {}, "expect": {"rule": "branch", "d": d, "p": p}}
    code, out, err = _dispatch(job["argv"])
    assert check.check(job, code, out, err) is None
    tampered = json.loads(out)
    tampered["constants"]["a"] = (tampered["constants"]["a"] + 1) % p
    assert check.check(job, code, json.dumps(tampered), "")


def test_embed_expectations():
    for name, want in (("groups_a4_f13.json", {"d": 4, "n1": 3, "n2": 4,
                                               "joint_tag": "a4"}),
                       ("groups_toy_conic_f13.json", {"d": 2, "n1": 1,
                                                      "n2": 2}),
                       ("groups_incompatible_f13.json",
                        {"error": "ConditionBFails"})):
        assert check.embed_expectation(gen._fixture(name)) == want


def test_tracer_wraps_every_binding_and_restores_them():
    tracer = spans.Tracer()
    assert spans.wrapped_names() == []
    tracer.install()
    try:
        names = spans.wrapped_names()
        assert "galoispoints.galois.factor_univariate" in names
        assert "galoispoints.polyring.factor_univariate" in names
        assert "galoispoints.cli.dispatch" in names
        code, out, _ = _dispatch(["branch", "--d", "3", "--field", "13^1"])
    finally:
        tracer.uninstall()
    assert spans.wrapped_names() == []
    agg = tracer.aggregate()
    assert agg["families.branch_certificate"]["calls"] == 1
    assert agg["cli.dispatch"]["self_s"] <= agg["cli.dispatch"]["busy_s"]
    assert _dispatch(["branch", "--d", "3", "--field", "13^1"])[1] == out


def test_worker_runs_without_wrappers_unless_asked(tmp_path):
    w = run.Worker("census", 0, tmp_path)
    try:
        assert w.set_trace(False) == []
        jobs = gen.generate("census", 0)
        idx = next(i for i, job in enumerate(jobs) if not job["before"])
        rec = w.run_job(idx)
        assert rec["code"] == 0
        fail = check.check(jobs[idx], rec["code"], rec["out"], rec["err"])
        assert fail is None or fail[:2] == ("wrong_verdict", "refuted")
        assert w.set_trace(True)
        assert run.digest(w.run_job(idx)) == run.digest(rec)
        assert w.set_trace(False) == []
    finally:
        w.kill()


def test_job_limit_stops_a_job(tmp_path):
    signal = pytest.importorskip("signal")
    job = gen.generate("census", 0)[0]
    argv = worker.prepare(0, job, tmp_path)
    old = signal.signal(signal.SIGALRM, worker._alarm)
    try:
        rec = worker.run_job(cli, argv, 0.2)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert rec["code"] is None and rec["elapsed"] < 5
    assert check.check(job, rec["code"], rec["out"], rec["err"])[0] \
        == "timeout"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_known_failures_per_run_do_not_depend_on_the_seed(seed):
    # census and certify cover every candidate: the same 52 over-refuted
    # centres and both thm2_wild F_9 m = 2 specs each run; refute times one
    # inseparable projection and draws no other
    census = {j["id"] for j in gen.generate("census", seed)}
    assert census == {j["id"] for j in gen.generate("census", seed + 1)}
    splitting = {j["id"] for key, jobs in gen.census_cells().items()
                 if key[-1] is True for j in jobs}
    assert len(splitting) == 52 and splitting <= census
    certify = gen.generate("certify", seed)
    assert sum(":field=3^2:m=2:p=3:tag=thm2_wild" in j["id"]
               for j in certify) == 2
    refute = [j for j in gen.generate("refute", seed) if not j["before"]]
    insep = [j for j in refute if j["id"].startswith("refute-inseparable")]
    assert len(insep) == 1
    for job in refute:
        if job is insep[0]:
            continue
        p = int(job["files"]["curve.json"]["field"].split("^")[0])
        poly = {tuple(int(v) for v in t.split("*x^")[1].split("*y^")):
                int(t.split("*")[0])
                for t in job["files"]["curve.json"]["affine_poly"]
                .split("+")}
        pt = tuple(int(v) for v in job["argv"][3].split(":"))
        assert not gen.inseparable(poly, pt, p)


def test_inseparable_projection():
    poly, pt = gen.REFUTE_INSEPARABLE[1:]
    assert gen.inseparable(poly, pt, 2)
    assert not gen.inseparable(poly, (0, 0, 1), 2)
    assert not gen.inseparable(gen.tame_poly(4, 1, 13), (1, 0, 0), 13)


class _FakeWorker:
    """Answers run requests with a fixed time per job and report bytes
    that change on the second run of job 2."""

    def __init__(self):
        self.runs: dict = {}

    def run_job(self, idx):
        n = self.runs[idx] = self.runs.get(idx, 0) + 1
        time.sleep(0.001)
        return {"code": 0, "out": "x" if idx != 2 or n == 1 else "y",
                "err": "", "elapsed": 0.1 * (idx + 1) + 0.01 * n}


def test_timed_loop_runs_every_job_and_means_its_runs():
    records, wall = run.run_loop(_FakeWorker(), [0, 1, 2, 3], 0.0)
    assert [idx for idx, _ in records] == [0, 1, 2, 3]
    fake = _FakeWorker()
    records, wall = run.run_loop(fake, [0, 1, 2, 3], 0.012)
    assert wall >= 0.012 and len(records) > 4
    times = run.job_times(records)
    assert set(times) == {0, 1, 2, 3}
    for idx, t in times.items():
        r = fake.runs[idx]
        assert t == pytest.approx(0.1 * (idx + 1) + 0.01 * (r + 1) / 2)


def test_judge_flags_a_job_whose_later_run_differs(monkeypatch):
    monkeypatch.setattr(check, "check", lambda job, code, out, err: None)
    fake = _FakeWorker()
    records = [(i, fake.run_job(i)) for i in (0, 1, 2, 0, 1, 2)]
    outcomes = run.judge([{}] * 3, records)
    assert outcomes[0] is None and outcomes[1] is None
    assert outcomes[2][0] == "nondeterministic"


def test_time_metrics_scale_to_the_reference_host_speed():
    records = [(0, {"elapsed": 0.2}), (1, {"elapsed": 0.4}),
               (0, {"elapsed": 0.4})]
    outcomes = {0: None, 1: ("timeout", "timeout", "")}
    speed = run.host_speed([2 * run.REF_KERNEL_S] * 3)
    assert speed == 0.5
    m = run.end_to_end([1.0, 3.0, 2.0], records, 1.0, outcomes, 2048, speed)
    assert m["setup_s"]["value"] == pytest.approx(1.0)
    assert m["jobs_per_s"]["value"] == pytest.approx(2 / 0.7 / 0.5)
    assert m["job_s_p50"]["value"] == pytest.approx(0.35 * 0.5)
    assert m["pass_frac"]["value"] == 0.5
    assert m["peak_rss_mb"]["value"] == 2.0


def test_worker_reports_reference_kernel_times(tmp_path):
    w = run.Worker("certify", 0, tmp_path)
    try:
        assert len(w.ask({"op": "calib"})["calib"]) == 1
        idx = next(i for i, job in enumerate(gen.generate("certify", 0))
                   if job["id"].startswith("family"))
        time.sleep(worker.CALIB_EVERY_S)
        w.run_job(idx)
        calib = w.ask({"op": "calib"})["calib"]
        assert len(calib) == 1 and 0 < calib[0] < 1
        assert w.ask({"op": "calib"})["calib"] == []
    finally:
        w.kill()


def test_tail_percentile_keeps_ten_jobs_beyond():
    for n in (12, 20, 54, 100, 1000):
        q = run.tail_percentile(n)
        assert n * (100 - q) / 100 >= 10 or q == 50
        assert q == 50 or n * (100 - q - 1) / 100 < 10
    assert run.tail_percentile(100) == 90
    assert run.percentile([1, 2, 3, 4, 5], 50) == 3
