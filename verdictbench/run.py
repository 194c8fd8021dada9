"""Verdict benchmark for galoispoints: one closed-loop run of one workload.

    python3 verdictbench/run.py --workload census --seed 1 --seconds 30 \
        --trace 0

The run spawns one long-lived worker (``worker.py``) that drives the
public CLI entry ``galoispoints.cli.dispatch`` in-process.  The jobs
marked ``before`` run once first.  Then the timed loop sends the timed
jobs one at a time, in their list order and pass after pass, until
``--seconds`` have passed and every timed job has run at least once; the
job in flight finishes.  One client, no concurrency.  A job's time is the
mean over its runs, so a partly finished last pass does not tilt the job
mix.  Between jobs the worker times a fixed reference kernel, and the
time metrics are scaled by how fast the shared host ran it (see
REF_KERNEL_S).  Every report is checked against answers derived from the spec
(``check.py``), and every later run of a job must repeat its first
report byte for byte.

With ``--trace 0`` the worker runs without any wrapper and the run prints
the end-to-end metrics; with ``--trace 1`` it wraps the program's public
functions (``spans.py``) and prints the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed,
metrics, where attempted and failed count jobs, not runs.  Exit code 0
means the run completed; the benchmark exits 2 without a result when it
cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen    # noqa: E402

# A job running longer than this is stopped and counted as a time-out.
# Each limit sits far from every job's measured time: census and certify
# jobs take at most 20 s and 8 s, refute jobs at most 0.6 s except the
# working-field tail job, which runs for over a minute.
JOB_LIMIT_S = {"census": 60.0, "certify": 60.0, "refute": 5.0}
# Worker spawns per run; setup_s is their median.
SETUPS = 9
# Median time of the worker's reference kernel on the 2-core x86-64 host
# the benchmark was tuned on.  The host is shared, and its speed drifts by
# up to a fifth over minutes; the kernel, timed between jobs all through
# the timed loop, tracks that drift, and every time metric is scaled to
# this reference speed.
REF_KERNEL_S = 1.0e-3
# Share of --seconds a traced run spends after its timed loop re-running
# its first jobs without and with tracing, for the tracing overhead.
RERUN_SHARE = 0.1


class WorkerError(RuntimeError):
    pass


class Worker:
    """One worker process and its request/reply pipe."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.limit = JOB_LIMIT_S[workload]
        self.traced = False
        self.argv = [sys.executable, str(HERE / "worker.py"),
                     "--root", str(ROOT), "--workload", workload,
                     "--seed", str(seed), "--workdir", str(workdir),
                     "--limit", str(self.limit)]
        self.start()

    def start(self) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(self.argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     cwd=str(ROOT))
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.proc.stdout, selectors.EVENT_READ)
        self.job_ids = self._read(60.0)["ready"]
        self.setup_s = time.perf_counter() - start

    def set_trace(self, on: bool) -> list:
        """Install or remove the tracing wrappers; returns the wrapped
        bindings."""
        self.traced = on
        return self.ask({"op": "trace", "on": on})["wrapped"]

    def run_job(self, idx: int) -> dict:
        """Run one job.  A worker that does not answer within the time
        limit (a job stuck where no signal reaches it) is replaced, and
        the job counts as timed out; the spans the old worker held are
        lost."""
        try:
            return self.ask({"op": "run", "job": idx})
        except WorkerError:
            self.kill()
            self.start()
            self.set_trace(self.traced)
            return {"code": None, "out": "", "err": "", "elapsed":
                    self.limit + 30.0}

    def _read(self, timeout: float) -> dict:
        if not self.sel.select(timeout):
            raise WorkerError(f"no reply within {timeout:.0f} s")
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, req: dict, timeout: float = 0.0) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self._read(timeout or self.limit + 30.0)

    def close(self) -> dict:
        try:
            return self.ask({"op": "bye"}, timeout=30.0)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.sel.close()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n jobs beyond it,
    and at least the median."""
    return max(50, 100 * (n - 10) // n)


def percentile(values: list, q: int) -> float:
    vals = sorted(values)
    rank = q / 100 * (len(vals) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (rank - lo)


def run_loop(worker: Worker, timed: list, seconds: float) -> tuple:
    """Closed loop over the job indices ``timed``, one job at a time and
    pass after pass, until ``seconds`` have passed and every job has run;
    the job in flight then finishes.  Returns (records, wall seconds) with
    records [(job index, reply)]."""
    records: list = []
    start = time.perf_counter()
    for n, idx in enumerate(itertools.cycle(timed)):
        if n >= len(timed) and time.perf_counter() - start >= seconds:
            break
        records.append((idx, worker.run_job(idx)))
    return records, time.perf_counter() - start


def job_times(records: list) -> dict:
    """Each job's mean time over its runs, by job index."""
    runs: dict = {}
    for idx, rec in records:
        runs.setdefault(idx, []).append(rec["elapsed"])
    return {idx: statistics.fmean(t) for idx, t in runs.items()}


def rerun_sample(records: list, budget: float) -> list:
    """Distinct jobs, in run order, that did not time out and whose first
    runs fit together in ``budget`` seconds; jobs that would overflow it
    are skipped.  Never empty while some job finished: then the quickest."""
    finished = [(idx, rec) for idx, rec in records if rec["code"] is not None]
    sample, spent = [], 0.0
    for idx, rec in finished:
        if idx not in sample and spent + rec["elapsed"] <= budget:
            sample.append(idx)
            spent += rec["elapsed"]
    if not sample and finished:
        sample.append(min(finished, key=lambda r: r[1]["elapsed"])[0])
    return sample


def digest(rec: dict) -> str:
    return hashlib.sha256(json.dumps(
        [rec["code"], rec["out"], rec["err"]]).encode()).hexdigest()


def judge(jobs: list, records: list) -> dict:
    """The outcome of every job that ran, by index: None when it passed,
    else (reason, kind, detail).  Its first run is checked; every later
    run must give the same report bytes."""
    first: dict = {}
    outcomes: dict = {}
    for idx, rec in records:
        if idx not in first:
            first[idx] = digest(rec)
            outcomes[idx] = check.check(jobs[idx], rec["code"], rec["out"],
                                        rec["err"])
        elif digest(rec) != first[idx] and outcomes[idx] is None:
            outcomes[idx] = ("nondeterministic", "hash",
                             "a later run gave other report bytes")
    return outcomes


def monte_carlo_counts(records: list) -> tuple:
    """(trials, usable, attempted) over Monte Carlo reports; usable and
    attempted come from probably_galois reports, which state both."""
    trials = usable = attempted = 0

    def walk(node):
        nonlocal trials, usable, attempted
        if isinstance(node, dict):
            if node.get("method") == "monte_carlo" and "trials" in node:
                trials += node["trials"]
                for note in node.get("notes", []):
                    if note.startswith("usable_specializations="):
                        usable += int(note.split("=", 1)[1])
                        attempted += node["trials"]
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    for _, rec in records:
        try:
            walk(json.loads(rec["out"] or rec["err"] or "null"))
        except ValueError:
            pass
    return trials, usable, attempted


LAYER_METRICS = {
    "polyring.factor_univariate": ("calls", "busy_s", "self_s"),
    "polyring.splitting_roots": ("calls", "busy_s"),
    "polyring.poly_gcd": ("calls", "busy_s"),
    "polyring.resultant": ("calls", "busy_s"),
    "galois.monte_carlo_galois": ("calls", "busy_s", "self_s"),
    "galois.central_collineation_group": ("calls", "busy_s", "self_s"),
    "galois.deck_group": ("calls", "busy_s", "self_s"),
    "galois.fiber_polynomial": ("calls", "busy_s"),
    "projective.generate_group": ("calls", "busy_s", "elements"),
    "projective.product_structure": ("calls", "busy_s", "self_s"),
    "projective.identify_group": ("calls", "busy_s"),
    "curve.singular_points": ("calls", "busy_s"),
    "curve.line_intersection_divisor": ("calls", "busy_s"),
    "curve.pencil_parametrization": ("calls", "busy_s"),
    "embedder.construct_embedding": ("calls", "busy_s"),
    "embedder.implicitize": ("calls", "busy_s"),
    "families.build_family": ("busy_s",),
    "families.verify_family": ("busy_s",),
    "families.branch_certificate": ("busy_s",),
    "gf.make_field": ("calls", "max_k"),
    "schema.validate_report": ("calls", "busy_s"),
    "cli.dispatch": ("self_s",),
}
UNITS = {"calls": "1/job", "busy_s": "s/job", "self_s": "s/job",
         "elements": "1/job", "max_k": "degree"}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report_failures(workload: str, jobs: list, outcomes: dict) -> bool:
    """Print the failure counts by reason and each failed job; return True
    when every failure is one the workload is known to show."""
    by_reason = {r: 0 for r in check.REASONS}
    correct = True
    named = []
    for idx, outcome in outcomes.items():
        if outcome is None:
            continue
        reason, kind, detail = outcome
        by_reason[reason] += 1
        known = (reason, kind) in check.KNOWN[workload]
        correct = correct and known
        named.append((jobs[idx]["id"], reason, known, detail))
    print("failures by reason: " + ", ".join(
        f"{r}={n}" for r, n in by_reason.items()))
    for jid, reason, known, detail in sorted(named):
        print(f"  FAILED [{reason}/{'known' if known else 'NEW'}] {jid}: "
              f"{detail}")
    return correct


def host_speed(calib: list) -> float:
    """How fast the host ran during the timed loop, relative to the
    reference: above 1 when the reference kernel ran faster."""
    return REF_KERNEL_S / statistics.median(calib)


def end_to_end(setup: list, records: list, wall: float, outcomes: dict,
               rss_kb: int, speed: float) -> dict:
    """End-to-end metrics.  Times are host seconds times ``speed``: the
    seconds they would take at the reference host speed."""
    times = list(job_times(records).values())
    q = tail_percentile(len(times))
    failed = sum(o is not None for o in outcomes.values())
    raw = {"setup_s": statistics.median(setup),
           "jobs_per_s": len(times) / sum(times),
           "job_s_p50": percentile(times, 50),
           "job_s_tail": percentile(times, q)}
    print("setup spawns (s): " + " ".join(f"{t:.3f}" for t in setup))
    print(f"timed loop: {len(records)} runs of {len(times)} jobs in "
          f"{wall:.1f} s; job_s_tail is p{q} of {len(times)} job times")
    print(f"host speed {speed:.4f} of the reference; as measured: "
          + ", ".join(f"{k}={v:.4g}" for k, v in raw.items()))
    print(f"jobs: {len(outcomes)} attempted, {failed} failed")
    return {
        "setup_s": metric(raw["setup_s"] * speed, "s"),
        "jobs_per_s": metric(raw["jobs_per_s"] / speed, "1/s"),
        "job_s_p50": metric(raw["job_s_p50"] * speed, "s"),
        "job_s_tail": metric(raw["job_s_tail"] * speed, "s"),
        "pass_frac": metric((len(outcomes) - failed) / len(outcomes),
                            "ratio"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
    }


def per_layer(layers: dict, records: list, gf_us: dict,
              overhead: float) -> dict:
    """Layer counts and times per attempted job of the traced loop, so a
    faster layer elsewhere, which fits more jobs in the run, does not
    inflate them."""
    jobs = len(records)
    out = {}
    for name, fields in LAYER_METRICS.items():
        agg = layers.get(name, {})
        for field in fields:
            value = agg.get(field, 0)
            out[f"{name}.{field}"] = (metric(value, UNITS[field])
                                      if field == "max_k" else
                                      metric(value / jobs, UNITS[field]))
    trials, usable, attempted = monte_carlo_counts(records)
    out["galois.monte_carlo_galois.trials"] = metric(trials / jobs, "1/job")
    out["galois.monte_carlo_galois.usable_ratio"] = metric(
        usable / attempted if attempted else 0.0, "ratio")
    for name, value in gf_us.items():
        out[name] = metric(value, "us")
    out["trace.overhead_frac"] = metric(overhead, "ratio")
    return out


def rerun_pairs(worker: Worker, sample: list) -> tuple:
    """Each sampled job once without and once with tracing, alternating,
    so a drift of host speed falls on both alike."""
    plain, traced = [], []
    for idx in sample:
        worker.set_trace(False)
        plain.append((idx, worker.run_job(idx)))
        worker.set_trace(True)
        traced.append((idx, worker.run_job(idx)))
    worker.set_trace(False)
    return plain, traced


def run(args) -> int:
    jobs = gen.generate(args.workload, args.seed)
    before = [i for i, job in enumerate(jobs) if job["before"]]
    timed = [i for i, job in enumerate(jobs) if not job["before"]]
    workdir = HERE / "work" / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    setup, worker = [], None
    try:
        for _ in range(SETUPS):
            if worker is not None:
                worker.close()
            worker = Worker(args.workload, args.seed, workdir)
            setup.append(worker.setup_s)
        if worker.job_ids != [job["id"] for job in jobs]:
            raise WorkerError("worker generated a different job list")
        first = [(idx, worker.run_job(idx)) for idx in before]
        worker.ask({"op": "calib"})
        wrapped = worker.set_trace(bool(args.trace))
        if bool(wrapped) != bool(args.trace):
            raise WorkerError(f"tracing wrappers present: {wrapped}")
        records, wall = run_loop(worker, timed, args.seconds)
        calib = worker.ask({"op": "calib"})["calib"]
        reruns = []
        if args.trace:
            layers = worker.ask({"op": "stats",
                                 "path": str(workdir / "spans.jsonl")},
                                timeout=300.0)["layers"]
            sample = rerun_sample(records, RERUN_SHARE * args.seconds)
            plain, traced = rerun_pairs(worker, sample)
            untraced_s = sum(rec["elapsed"] for _, rec in plain)
            overhead = (sum(rec["elapsed"] for _, rec in traced)
                        - untraced_s) / untraced_s
            gf_us = worker.ask({"op": "gf"}, timeout=300.0)["gf"]
            reruns = plain + traced
        rss_kb = worker.close()["rss_kb"]
    finally:
        if worker is not None:
            worker.kill()
    outcomes = judge(jobs, first + records + reruns)
    with open(workdir / "jobs.jsonl", "w") as fh:
        for idx, rec in first + records:
            fh.write(json.dumps({"id": jobs[idx]["id"],
                                 "before": jobs[idx]["before"],
                                 "elapsed": rec["elapsed"],
                                 "code": rec["code"],
                                 "failure": outcomes[idx]}) + "\n")
    correct = report_failures(args.workload, jobs, outcomes)
    for idx, rec in first:
        print(f"before the timed loop: {jobs[idx]['id']} took "
              f"{rec['elapsed']:.3f} s")
    if args.trace:
        metrics = per_layer(layers, records, gf_us, overhead)
    else:
        metrics = end_to_end(setup, records, wall, outcomes, rss_kb,
                             host_speed(calib))
    print(json.dumps({"correct": correct,
                      "attempted": len(outcomes),
                      "failed": sum(o is not None
                                    for o in outcomes.values()),
                      "metrics": metrics}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "galoispoints" / "cli.py").is_file():
        sys.stderr.write(f"no galoispoints sources under {ROOT / 'src'}\n")
        return 2
    try:
        return run(args)
    except (WorkerError, OSError) as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
