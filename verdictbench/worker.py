"""Long-lived benchmark worker around ``galoispoints.cli.dispatch``.

Started by ``run.py`` with pipes on stdin and stdout.  On start it imports
the program from the checkout's ``src``, generates the workload's jobs and
prints one ready line.  A job's input files are written into the work
directory just before its first run, outside its measured time.  It then
answers one JSON request per line until ``bye`` or end of input:

    {"op": "run", "job": i}     run job i; reply with exit code, report
                                text and elapsed seconds
    {"op": "trace", "on": b}    install or remove the tracing wrappers
    {"op": "stats", "path": f}  reply with per-layer aggregates and write
                                the spans recorded so far to f
    {"op": "gf"}                reply with field-operation timings
    {"op": "calib"}             reply with the reference-kernel times
                                taken since the last such request
    {"op": "bye"}               reply with peak resident memory and exit

A job that runs past the time limit is stopped by SIGALRM.  After a job,
and at most every CALIB_EVERY_S seconds, the worker times a fixed
reference kernel, outside the job's time: how fast the shared host runs
that kernel over a run is the run's host speed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


class JobTimeout(BaseException):
    """Raised in the job by SIGALRM.  Not an Exception, so the program's
    own ``except Exception`` handlers cannot swallow it."""


def _alarm(signum, frame):
    raise JobTimeout()


def prepare(i: int, job: dict, workdir: Path) -> list:
    """Write job i's files into workdir as <i>-<name> and return its argv
    with the file names resolved."""
    for name, obj in job["files"].items():
        with open(workdir / f"{i}-{name}", "w") as fh:
            json.dump(obj, fh)
    return [str(workdir / f"{i}-{a}") if a in job["files"] else a
            for a in job["argv"]]


def run_job(cli, argv: list, limit: float) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch(argv)
    except JobTimeout:
        code = None
    except SystemExit as exc:           # argparse rejects its input
        code = exc.code
    except Exception:                   # a traceback is a failed job
        code = -1
        err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - start
    return {"code": code, "out": out.getvalue(), "err": err.getvalue(),
            "elapsed": elapsed}


CALIB_EVERY_S = 0.1


def reference_kernel() -> float:
    """Seconds for fixed pure-Python work that shares no code with the
    program: a schoolbook product of two 64-term polynomials mod 10007,
    accumulated in a dict."""
    a = [(i * 7919 + 13) % 10007 for i in range(64)]
    b = [(i * 104729 + 7) % 10007 for i in range(64)]
    start = time.perf_counter()
    acc: dict = {}
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            acc[i + j] = (acc.get(i + j, 0) + x * y) % 10007
    return time.perf_counter() - start


GF_FIELDS = {"prime": (13, 1), "bin": (2, 6), "odd_ext": (3, 4)}


def gf_timings(gf, operands: int = 2000, repeats: int = 5) -> dict:
    """Median microseconds per add, mul and inverse on fixed operands."""
    out = {}
    for shape, (p, k) in GF_FIELDS.items():
        ctx = gf.make_field(p, k)
        rng = random.Random(f"gf:{p}^{k}")
        xs, ys = ([ctx.element(rng.randrange(1, ctx.order))
                   for _ in range(operands)] for _ in range(2))
        pairs = list(zip(xs, ys))
        for op, body in (("add", lambda: [a + b for a, b in pairs]),
                         ("mul", lambda: [a * b for a, b in pairs]),
                         ("inv", lambda: [a.inverse() for a in xs])):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                body()
                times.append(time.perf_counter() - start)
            out[f"gf.{op}_us.{shape}"] = (statistics.median(times)
                                          / operands * 1e6)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--limit", type=float, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(Path(args.root) / "src"))
    sys.path.insert(0, str(HERE))
    from galoispoints import cli, gf
    import gen
    import spans

    jobs = gen.generate(args.workload, args.seed)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    argvs: dict = {}
    proto = sys.stdout

    def reply(obj) -> None:
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    signal.signal(signal.SIGALRM, _alarm)
    tracer = spans.Tracer()
    calib = [reference_kernel()]
    last_calib = time.perf_counter()
    reply({"ready": [job["id"] for job in jobs]})
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "run":
            i = tracer.job = req["job"]
            if i not in argvs:
                argvs[i] = prepare(i, jobs[i], workdir)
            rec = run_job(cli, argvs[i], args.limit)
            if time.perf_counter() - last_calib >= CALIB_EVERY_S:
                calib.append(reference_kernel())
                last_calib = time.perf_counter()
            reply(rec)
        elif op == "trace":
            if req["on"]:
                tracer.install()
            else:
                tracer.uninstall()
            reply({"wrapped": spans.wrapped_names()})
        elif op == "stats":
            agg = tracer.aggregate()
            tracer.dump(req["path"])
            reply({"layers": agg})
        elif op == "calib":
            reply({"calib": calib})
            calib = []
        elif op == "gf":
            reply({"gf": gf_timings(gf)})
        elif op == "bye":
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply({"rss_kb": peak})
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
