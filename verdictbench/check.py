"""Known-answer checker for the verdict benchmark.

Expectations come from each job's spec through the paper's theorems, never
from the program: a Galois point of a degree-d curve has group order d - 1
(inner) or d (outer); the joint group of a pair has order d(d - 1); the
thm3 joint groups are S3 and A4; and the group structure fixes the
catalogue tag.  ``check`` returns None when a job passed, else its failure
``(reason, kind, detail)`` with reason one of REASONS.
"""

from __future__ import annotations

import json

REASONS = ("wrong_verdict", "unexpected_exit", "timeout", "nondeterministic")

# Failures that the seed commit already shows, by workload.  They count in
# ``failed`` like every other failure; a failure outside this list marks the
# run incorrect.
KNOWN = {
    # the Monte Carlo screen refutes theorem-Galois centres over fields
    # that lack the needed roots of unity
    "census": {("wrong_verdict", "refuted")},
    # the collineation scan can climb far past ext_cap, and an inseparable
    # projection leaves no unramified specialization
    "refute": {("timeout", "timeout"), ("unexpected_exit", "error")},
    # the thm2_wild skeleton expects semidirect_p_cyclic for the outer group
    # (Z/3) x| Z/2 = S3, which the catalogue names s3
    "certify": {("unexpected_exit", "self_check:outer_tag")},
}


def _cyclic_tag(n: int) -> str:
    return "trivial" if n == 1 else "cyclic"


def p_group_tag(p: int, e: int) -> str:
    """Catalogue tag of the elementary abelian group (Z/p)^e."""
    if e == 1:
        return "cyclic"
    return "klein" if p ** e == 4 else "elementary_abelian"


def semidirect_tag(p: int, e: int, m: int) -> str:
    """Catalogue tag of (Z/p)^e x| Z/m with Z/m acting faithfully."""
    if m == 1:
        return p_group_tag(p, e)
    if p ** e * m == 6:
        return "s3"
    if p ** e == 4 and m == 3:
        return "a4"
    return "semidirect_p_cyclic"


def family_expectation(spec: dict) -> dict:
    """Orders, tags and normality the theorems give for a family spec."""
    tag = spec["tag"]
    p = int(spec["field"].split("^")[0])
    if tag == "thm2_tame":
        d = spec["d"]
        # Z/(d-1) x Z/d is cyclic: the two orders are coprime
        return {"d": d, "inner_tag": "cyclic", "outer_tag": "cyclic",
                "g1_normal": True, "g2_normal": True, "joint_tag": "cyclic"}
    if tag == "thm2_wild":
        e, m = spec["e"], spec["m"]
        d = p ** e * m
        if m > 1:
            joint = "semidirect_p_cyclic"
        else:
            joint = "cyclic" if e == 1 else "other"
        return {"d": d, "inner_tag": "cyclic",
                "outer_tag": semidirect_tag(p, e, m),
                "g1_normal": True, "g2_normal": True, "joint_tag": joint}
    if tag in ("thm3_cubic", "thm3_quartic"):
        d = 3 if tag == "thm3_cubic" else 4
        # S3 = Z/3 x| Z/2 and A4 = V4 x| Z/3: the outer group is normal
        return {"d": d, "inner_tag": "cyclic",
                "outer_tag": "cyclic" if d == 3 else "klein",
                "g1_normal": False, "g2_normal": True,
                "joint_tag": "s3" if d == 3 else "a4"}
    if tag == "prop4":
        e = spec["e"]
        d = p ** e
        # AGL(1, d) = (Z/p)^e x| Z/(d-1), translations normal
        return {"d": d, "inner_tag": "cyclic", "outer_tag": p_group_tag(p, e),
                "g1_normal": False, "g2_normal": True,
                "joint_tag": semidirect_tag(p, e, d - 1)}
    if tag == "gk":
        return {"d": spec["q"] ** 3 + 1, "gk": True}
    raise ValueError(f"no expectation for family {tag!r}")


class _Fail(Exception):
    def __init__(self, reason: str, kind: str, detail: str):
        super().__init__(detail)
        self.reason, self.kind, self.detail = reason, kind, detail


def _need(cond: bool, detail: str) -> None:
    if not cond:
        raise _Fail("wrong_verdict", "report", detail)


def _group_order(rep: dict):
    g = rep.get("group")
    if g is None:
        return None
    _need(len(g["elements"]) == g["order"],
          f"group lists {len(g['elements'])} elements for order {g['order']}")
    return g["order"]


def check_galois_report(rep: dict) -> None:
    """The soundness contract every galois_report must keep."""
    n = rep["projection_degree"]
    if rep["verdict"] == "certified_galois":
        _need(_group_order(rep) == n,
              f"certified with group order {_group_order(rep)} != degree {n}")
    if rep["verdict"] == "certified_not_galois":
        degs = rep["witness"]["factor_degrees"]
        _need(sum(degs) == n,
              f"witness degrees {degs} do not sum to degree {n}")
        _need(len(set(degs)) >= 2, f"witness degrees {degs} are uniform")


def _certified(rep: dict, n: int, tag, side: str) -> None:
    check_galois_report(rep)
    _need(rep["verdict"] == "certified_galois",
          f"{side}: verdict {rep['verdict']}, expected certified_galois")
    _need(rep["projection_degree"] == n,
          f"{side}: degree {rep['projection_degree']}, expected {n}")
    if tag is not None:
        got = (rep.get("descriptor") or {}).get("tag")
        _need(got == tag, f"{side}: tag {got}, expected {tag}")


def _joint(joint, order: int, exp: dict) -> None:
    _need(joint is not None, "joint structure missing")
    _need(joint["joint_order"] == order,
          f"joint order {joint['joint_order']}, expected {order}")
    _need(joint["intersection_order"] == 1
          and joint["product_set_equals_joint"],
          "joint group is not the product of the two groups")
    for key in ("g1_normal", "g2_normal"):
        _need(joint[key] == exp[key],
              f"{key} {joint[key]}, expected {exp[key]}")
    if exp.get("joint_tag"):
        got = joint["joint_descriptor"]["tag"]
        _need(got == exp["joint_tag"],
              f"joint tag {got}, expected {exp['joint_tag']}")


def _exit(code, want: int, out: dict) -> None:
    if code != want:
        err = out.get("error") if isinstance(out, dict) else None
        kind = "error" if err and code == 2 else "exit"
        raise _Fail("unexpected_exit", kind,
                    f"exit {code} ({err or 'no error report'}), "
                    f"expected {want}")


def _rule_census(exp: dict, code, out: dict) -> None:
    _exit(code, 0, out)
    check_galois_report(out)
    _need(out["point_class"] == exp["point_class"]
          and out["projection_degree"] == exp["degree"],
          f"{out['point_class']} centre of degree "
          f"{out['projection_degree']}, expected {exp['point_class']} "
          f"of degree {exp['degree']}")
    if out["verdict"] == "certified_not_galois":
        raise _Fail("wrong_verdict", "refuted",
                    "certified_not_galois at a theorem-Galois centre "
                    f"(witness {out['witness']})")
    _need(out["verdict"] == "probably_galois",
          f"verdict {out['verdict']}, expected probably_galois")


def _rule_family(exp: dict, code, out: dict) -> None:
    e = family_expectation(exp["spec"])
    d = e["d"]
    if e.get("gk"):
        # the documented red: no certificate exists for the inner point
        _exit(code, 2, out)
        _need(out["inner"]["verdict"] == "probably_galois",
              f"gk inner verdict {out['inner']['verdict']}, "
              "expected probably_galois")
        _certified(out["outer"], d, "cyclic", "outer")
        _need(out["success"] is False, "gk family reported success")
        return
    if code not in (0, 2) or "checks" not in out:
        _exit(code, 0, out)
    _certified(out["inner"], d - 1, e["inner_tag"], "inner")
    _certified(out["outer"], d, e["outer_tag"], "outer")
    _joint(out["joint"], d * (d - 1), e)
    if code != 0 or out["success"] is not True:
        # the theorem's answer is right, but the program's own expectation
        # skeleton disagrees with it
        failed = sorted(c["name"] for c in out["checks"] if not c["passed"])
        raise _Fail("unexpected_exit", "self_check:" + ",".join(failed),
                    f"exit {code}: the report matches the theorem, but the "
                    f"family's own checks {failed} failed")


def _rule_pair_thm3(exp: dict, code, out: dict) -> None:
    d = exp["d"]
    _exit(code, 0, out)
    _certified(out["inner"], d - 1, "cyclic", "inner")
    check_galois_report(out["outer"])
    _need(out["outer"]["projection_degree"] == d,
          f"outer degree {out['outer']['projection_degree']}, expected {d}")
    _need(out["outer"]["verdict"] != "certified_not_galois",
          "outer Galois point of thm3 refuted")
    _need(out["lemma_line"]["is_1_or_d"], "lemma line support not 1 or d")


def pgl2_order(gens: list, p: int) -> int:
    """Order of the subgroup of PGL(2, p) generated by row-major matrices."""
    def norm(m):
        for v in m:
            if v % p:
                inv = pow(v, p - 2, p)
                return tuple(x * inv % p for x in m)
        raise ValueError("zero matrix")

    def mul(a, b):
        return norm((a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                     a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]))

    gens = [norm(g) for g in gens]
    seen = {norm((1, 0, 0, 1))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = mul(a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return len(seen)


def embed_expectation(groups: dict) -> dict:
    """Theorem 1: two subgroups G1, G2 of PGL(2) with |G2| = |G1| + 1 give
    a plane model of degree d = |G2| with inner group G1 and outer group
    G2.  For other orders no such model exists, and the program must
    refuse the pair with ConditionBFails, as for the incompatible
    fixture."""
    p = int(groups["field"].split("^")[0])
    n1 = pgl2_order(groups["g1"], p)
    n2 = pgl2_order(groups["g2"], p)
    if n2 != n1 + 1:
        return {"error": "ConditionBFails"}
    exp = {"d": n2, "n1": n1, "n2": n2}
    if (n1, n2) == (3, 4):
        exp["joint_tag"] = "a4"
    return exp


def _rule_embed(exp: dict, code, out: dict) -> None:
    e = embed_expectation(exp["groups"])
    if "error" in e:
        _exit(code, 2, out)
        _need(out.get("error") == e["error"],
              f"error {out.get('error')}, expected {e['error']}")
        return
    _exit(code, 0, out)
    d = e["d"]
    _need(out["curve"]["degree"] == d,
          f"curve degree {out['curve']['degree']}, expected {d}")
    _certified(out["inner_report"], d - 1, _cyclic_tag(e["n1"]), "inner")
    _certified(out["outer_report"], d, None, "outer")
    _need(out["joint"]["joint_order"] == e["n1"] * e["n2"],
          f"joint order {out['joint']['joint_order']}, "
          f"expected {e['n1'] * e['n2']}")
    if "joint_tag" in e:
        got = out["joint"]["joint_descriptor"]["tag"]
        _need(got == e["joint_tag"],
              f"joint tag {got}, expected {e['joint_tag']}")


def branch_constants(d: int, p: int) -> dict:
    """The non-degenerate solution of the branch system over F_p, p > 3.

    d = 3: (c - 1)^2 (c + 2) = 0 and c = 1 gives beta = 0, so c = -2,
    a = c^3 = -8 and beta^2 = 3c^2 - 2a - 1 = 27.
    d = 4: (d0 - 1)^3 (d0 + 3) = 0 and d0 = 1 is degenerate, so d0 = -3,
    a = d0^2 = 9, c = (a + 3)/2 = 6 and beta^3 = 2 c d0 - 3a - 1 = -64.
    """
    if d == 3:
        return {"constants": {"a": -8 % p, "c": -2 % p}, "beta_power": 27 % p}
    return {"constants": {"a": 9 % p, "c": 6 % p, "d0": -3 % p},
            "beta_power": -64 % p}


def _rule_branch(exp: dict, code, out: dict) -> None:
    d, p = exp["d"], exp["p"]
    _exit(code, 0, out)
    want = branch_constants(d, p)
    got = {"constants": {k: int(v) for k, v in out["constants"].items()},
           "beta_power": out["beta_power"]}
    _need(got == want, f"branch solution {got}, expected {want}")
    beta = out["beta"]
    if beta["field"] == f"{p}^1":
        _need(pow(beta["value"], d - 1, p) == want["beta_power"],
              f"beta = {beta['value']} is not a root of the beta equation")


def _rule_refute(exp: dict, code, out: dict) -> None:
    _exit(code, 0, out)
    check_galois_report(out)
    _need(out["point_class"] == exp["point_class"]
          and out["projection_degree"] == exp["degree"],
          f"{out['point_class']} centre of degree "
          f"{out['projection_degree']}, expected {exp['point_class']} "
          f"of degree {exp['degree']}")


RULES = {"census": _rule_census, "family": _rule_family,
         "pair_thm3": _rule_pair_thm3, "embed": _rule_embed,
         "branch": _rule_branch, "refute": _rule_refute}


def check(job: dict, code, stdout: str, stderr: str):
    """None when the job passed, else ``(reason, kind, detail)``.

    ``code`` is the exit code, or None when the job timed out.
    """
    if code is None:
        return ("timeout", "timeout", "stopped at the per-job time limit")
    try:
        out = json.loads(stdout or stderr)
    except ValueError:
        return ("unexpected_exit", "exit",
                f"exit {code} without a JSON report")
    try:
        RULES[job["expect"]["rule"]](job["expect"], code, out)
    except _Fail as exc:
        return (exc.reason, exc.kind, exc.detail)
    except (KeyError, TypeError, IndexError) as exc:
        return ("wrong_verdict", "report",
                f"report lacks an expected field: {exc!r}")
    return None
