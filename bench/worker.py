"""Repetitions of a workload, each in a fresh process forked after the set-up.

Usage: python3 bench/worker.py --workload NAME --seed N --trace 0|1 --tmp DIR
       --seconds S

Times the set-up (``import kahlercomp`` plus input generation), then forks one
child per repetition.  The parent never runs a request, so every child starts
with the cold caches of a newly started CLI process, without paying for the
import again.  A child runs the workload's requests as in-process calls to
``kahlercomp.cli.main(argv)``, each with a fresh ``--out`` directory, checks
the outputs after the timed span and sends its result to the parent.

Repetitions are started until the next one would end more than ``--seconds``
after the worker started (``--seconds 0``: set-up only); at least one runs, two
with ``--trace 1`` (one untraced, one traced, alternating).

The worker also times a fixed reference kernel, which runs no kahlercomp code,
after the set-up, and each child times it just before and after its requests
(``kernel_s``); bench/run.py scales the run's times by it.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# A repetition during which the host took more CPU time than this share of its
# elapsed time is disturbed: its wall time measures the neighbours, not the
# program.  Untraced medians skip disturbed repetitions when clean ones exist.
STEAL_LIMIT = 0.1

KERNEL_LOOPS = 20000


def stolen_s() -> float:
    """CPU time the hypervisor has taken from this machine's CPUs (/proc/stat)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def reference_kernel() -> float:
    """Time of a fixed piece of work that uses no kahlercomp code: small numpy
    products and integer arithmetic in a Python loop, the mix of the program's
    hot loops.  Called only after the set-up is timed, which imports numpy."""
    import numpy as np

    a = np.arange(16.0).reshape(4, 4) / 7.0
    v = np.ones(4)
    acc = 0
    t = time.perf_counter()
    for _ in range(KERNEL_LOOPS):
        v = a @ v
        v /= np.abs(v).max() + 1.0
        acc += sum(k * k % 7 for k in range(20))
    return time.perf_counter() - t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    start = time.monotonic()

    sys.path.insert(0, str(HERE))
    import probes
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.tmp))
    try:
        t0 = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import kahlercomp
        from kahlercomp import cli
        requests = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - t0
        if not Path(kahlercomp.__file__).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"kahlercomp imported from {kahlercomp.__file__}, not {SRC}")
        kernel_s = [reference_kernel()]
        reps = []
        modes = (0, 1) if args.trace else (0,)
        while args.seconds > 0:
            mode = modes[len(reps) % len(modes)]
            rep = _fork(lambda: _run(args.workload, args.seed, mode, cli, requests,
                                     workdir / f"rep{len(reps)}", probes, workloads))
            rep["trace"] = mode
            rep["disturbed"] = rep["steal_s"] > STEAL_LIMIT * rep["elapsed_s"]
            reps.append(rep)
            if "error" in rep:
                break
            typical = statistics.median(r["elapsed_s"] for r in reps)
            used = time.monotonic() - start + typical
            if len(reps) >= len(modes) and used > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s, "reps": reps}))
    return 0


def _fork(job) -> dict:
    """Run ``job`` in a forked child; returns its result, or an ``error`` entry.

    Records the elapsed time and the CPU time stolen from the machine meanwhile,
    which explains a wall time far above the CPU time on a shared host.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    t0, steal0 = time.perf_counter(), stolen_s()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 0
        try:
            payload = json.dumps(job())
        except BaseException:  # noqa: B036 -- the child must always reach os._exit
            payload = json.dumps({"error": traceback.format_exc(limit=5)})
            code = 1
        with os.fdopen(wfd, "w") as pipe:
            pipe.write(payload)
        os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    try:
        result = json.loads(text)
    except ValueError:
        result = {"error": f"repetition ended with status {status} and no result"}
    result["elapsed_s"] = time.perf_counter() - t0
    result["steal_s"] = stolen_s() - steal0
    return result


def _run(workload, seed, trace, cli, requests, repdir, probes, workloads):
    """One repetition: time the requests, then check their outputs."""
    repdir.mkdir()
    rec = probes.Recorder(timed=bool(trace))
    absent = rec.install()
    outcomes = []
    sink = io.StringIO()
    kernel_before = reference_kernel()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for i, req in enumerate(requests):
        out = repdir / f"out{i}"
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code, error = cli.main(req.argv + ["--out", str(out)]), None
        except Exception:  # a crashing request is a failed request, not a crashed run
            code, error = None, traceback.format_exc(limit=3)
        outcomes.append((req, out, code, error, time.perf_counter() - t))
        rec.recount_workspaces()
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    kernel_after = reference_kernel()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = workloads.load_reference().get(workload)
    use_ref = reference is not None and (seed == reference["seed"])
    results = []
    for i, (req, out, code, error, req_s) in enumerate(outcomes):
        problems = []
        values = None
        if error is not None:
            problems.append(f"raised: {error}")
        elif code != 0:
            problems.append(f"exit code {code}, expected 0 (every check holds)")
        else:
            try:
                report = json.loads((out / "report.json").read_text())
                values = workloads.extract(req.kind, report)
            except (OSError, KeyError, ValueError) as exc:
                problems.append(f"unreadable report: {exc!r}")
            else:
                ref = None
                if reference is not None and (use_ref or not req.seeded):
                    ref = reference["requests"][i]["values"]
                problems = workloads.check_request(req, values, ref)
        argv = [Path(a).name if a.startswith(str(repdir.parent)) else a for a in req.argv]
        results.append({"kind": req.kind, "argv": argv, "exit": code,
                        "wall_s": req_s, "problems": problems, "values": values})
    shutil.rmtree(repdir, ignore_errors=True)
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "kernel_s": [kernel_before, kernel_after],
        "requests": results,
        "counts": rec.counts(),
        "spans": rec.spans() if trace else {},
        "absent": absent,
    }


if __name__ == "__main__":
    sys.exit(main())
