"""Verdict benchmark for kahlercomp.

Usage (from the repository root):

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each repetition of a workload runs in a fresh process, forked by
bench/worker.py after the set-up, so workspace caches start cold as they do for
a CLI user.  Two extra processes only time the set-up; then one worker repeats
the workload until the next repetition would end after ``--seconds`` from the
start of the run; at least one runs (two with ``--trace 1``: one untraced, one
traced).  ``setup_s`` is the median over the three set-ups of the run.

Every time reported is scaled to a reference CPU speed: it is multiplied by
REF_KERNEL_S over the mean time of a fixed reference kernel that the workers
time next to the set-up and before and after every repetition.  The unscaled
times are printed and stored too.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics (medians over repetitions); with
``--trace 1`` they are the per-layer metrics of the traced repetitions and the
tracing overhead (traced minus untraced ``wall_s``).  Work counts are recorded
in every run and must repeat exactly for the same code and seed.  Results,
with an environment block, are written under bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 2          # set-up-only processes per run, besides the one that repeats
RUN_LIMIT_S = 170.0       # hard cap on one run, so it ends within three minutes
# Every reported time is scaled to a CPU on which worker.reference_kernel()
# takes this long (about its mean on the VM of the first baseline).  A shared
# host's CPU speed drifts by a third over tens of seconds; the kernel, timed
# before and after every repetition, follows the drift, so the scaled times
# keep the program's changes and lose most of the host's.
REF_KERNEL_S = 0.15

# wall_s is measured and printed with them but reported as a per-layer metric:
# the host takes up to a quarter of the machine's CPU time in bursts ("steal"),
# which lengthens wall time but not CPU time, and in such a period the wall_s
# spread between runs reached the 0.25 bound while cpu_s stayed near 0.1.
END_TO_END = [("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]

# per-layer metric -> (span or count, field, unit)
PER_LAYER = [
    ("curvature.workspace_s", "curvature.workspace", "total_s", "s"),
    ("polynomials.terms", "polynomials.terms", "count", "count"),
    ("comparison.certify_ricci_bound_s", "comparison.certify_ricci_bound", "total_s", "s"),
    ("comparison.cert_points", "comparison.cert_points", "count", "count"),
    ("curvature.field_values_us", "curvature.field_values", "per_call_us", "us"),
    ("curvature.field_values_calls", "curvature.field_values.calls", "count", "count"),
    ("comparison.sphere_flow_s", "comparison.sphere_flow", "self_s", "s"),
    ("comparison.rays", "comparison.rays", "count", "count"),
    ("geodesic.shoot_s", "geodesic.shoot", "total_s", "s"),
    ("geodesic.shoot_calls", "geodesic.shoot.calls", "count", "count"),
    ("geodesic.rhs_evals", "geodesic.rhs_evals", "count", "count"),
    ("comparison.reduce_s", "comparison.reduce", "total_s", "s"),
    ("geodesic.density_calls", "geodesic.density.calls", "count", "count"),
    ("curvature.jets_s", "curvature.jets", "total_s", "s"),
    ("curvature.jets_calls", "curvature.jets.calls", "count", "count"),
    ("comparison.verify_counterexample_s", "comparison.verify_counterexample", "total_s", "s"),
    ("comparison.find_lambda_steps", "comparison.find_lambda_steps", "count", "count"),
    ("series.jacobi_recursion_s", "series.jacobi_recursion", "total_s", "s"),
    ("series.fit_w_series_s", "series.fit_w_series", "total_s", "s"),
    ("sphere.build_rule_s", "sphere.build_rule", "total_s", "s"),
    ("sphere.nodes", "sphere.nodes", "count", "count"),
    ("model_space_s", "model_space", "total_s", "s"),
    ("cli.self_s", "cli", "self_s", "s"),
]

# untraced and traced wall time, and their difference, of the same run
TRACE_METRICS = [("wall_s", "s"), ("trace.wall_s", "s"), ("trace.overhead_s", "s")]
LAYER_UNITS = {m: u for m, _k, _f, u in PER_LAYER} | dict(TRACE_METRICS)

# machine-independent counts that must repeat exactly for the same code and seed
WORK_COUNTS = ["comparison.rays", "geodesic.rhs_evals", "polynomials.terms",
               "comparison.cert_points", "curvature.jets.calls",
               "comparison.find_lambda_steps"]


def environment(args) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu_model = None
    mem_total_mb = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_total_mb = int(line.split()[1]) / 1024.0
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "mem_total_mb": mem_total_mb,
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "code_sha256": code_hash(),
    }


def code_hash(root=SRC) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def spawn(workload, seed, trace, seconds, deadline) -> dict:
    """Run one worker process; returns its JSON result or an ``error`` entry.

    The worker forks its repetitions, so it runs in a process group of its own
    that is killed as a whole if it outlives the deadline.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--tmp", str(OUT / "tmp"),
           "--seconds", repr(seconds)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": "worker timed out"}
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: {stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def layer_values(rep: dict, scale: float) -> dict:
    spans, counts = rep["spans"], rep["counts"]
    out = {}
    for metric, key, fld, _unit in PER_LAYER:
        if fld == "count":
            out[metric] = counts.get(key, 0)
        elif fld == "per_call_us":
            calls = counts.get(key + ".calls", 0)
            out[metric] = 1e6 * spans[key]["total_s"] / calls if calls else 0.0
        else:
            out[metric] = spans.get(key, {}).get(fld, 0.0)
        if fld != "count":
            out[metric] *= scale
    return out


def run_workload(workload, seed, seconds, trace) -> dict:
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups, kernel, errors, reps = [], [], [], []
    for _ in range(SETUP_PROBES):
        r = spawn(workload, seed, 0, 0, deadline)
        if "error" in r:
            errors.append(r["error"])
        else:
            setups.append(r["setup_s"])
            kernel += r["kernel_s"]
    # at least one repetition runs, however little of --seconds is left
    r = spawn(workload, seed, trace, max(seconds - (time.monotonic() - start), 1e-3), deadline)
    if "error" in r:
        errors.append(r["error"])
    else:
        setups.append(r["setup_s"])
        kernel += r["kernel_s"]
        reps = r["reps"]
        errors += [x["error"] for x in reps if "error" in x]

    good = [r for r in reps if "error" not in r]
    per_rep = max((len(r["requests"]) for r in good), default=1)
    attempted = per_rep * max(len(reps), 1)
    failed = attempted - per_rep * len(good)
    problems = list(errors)
    for r in good:
        bad = [req for req in r["requests"] if req["problems"]]
        failed += len(bad)
        for req in bad:
            problems += [f"{req['kind']}: {p}" for p in req["problems"]]

    problems += count_problems(workload, seed, good)
    untraced = [r for r in good if r["trace"] == 0]
    untraced = [r for r in untraced if not r["disturbed"]] or untraced
    traced = [r for r in good if r["trace"] == 1]
    kernel += [k for r in good for k in r["kernel_s"]]
    scale = REF_KERNEL_S / statistics.fmean(kernel) if kernel else 1.0
    metrics, raw = {}, {}
    if untraced and setups:
        raw = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "setup_s": statistics.median(setups),
        }
        metrics = {k: v * scale for k, v in raw.items()}
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in untraced)
        raw["kernel_s"] = statistics.fmean(kernel)
    layers = {}
    if traced:
        vals = [layer_values(r, scale) for r in traced]
        layers = {m: statistics.median(v[m] for v in vals) for m, *_ in PER_LAYER}
        traced_wall = scale * statistics.median(r["wall_s"] for r in traced)
        layers["trace.wall_s"] = traced_wall
        if metrics:
            layers["wall_s"] = metrics["wall_s"]
            layers["trace.overhead_s"] = traced_wall - metrics["wall_s"]
    return {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "raw": raw,
        "layers": layers,
        "counts": good[0]["counts"] if good else {},
        "absent": good[0]["absent"] if good else [],
        "scale": scale,
        "setup_samples": setups,
        "kernel_samples": kernel,
        "reps": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
        "spans": [r["spans"] for r in traced],
    }


def count_problems(workload, seed, reps) -> list:
    """Work counts must agree between repetitions and with earlier runs of
    the same code, benchmark and seed (kept in bench/out/counts.json)."""
    problems = []
    if not reps:
        return problems
    first = {k: reps[0]["counts"].get(k, 0) for k in WORK_COUNTS}
    for r in reps[1:]:
        other = {k: r["counts"].get(k, 0) for k in WORK_COUNTS}
        if other != first:
            problems.append(f"work counts differ between repetitions: {first} vs {other}")
    store = OUT / "counts.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{code_hash()}:{code_hash(HERE)}:{workload}:{seed}"
    if key in known and known[key] != first:
        problems.append(f"work counts differ from an earlier run: {known[key]} vs {first}")
    elif key not in known:
        known[key] = first
        store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return problems


def report_lines(res: dict, trace: int) -> list:
    steal = sum(r["steal_s"] for r in res["reps"])
    lines = [f"== {res['workload']}: {len(res['reps'])} repetitions, "
             f"{res['attempted']} requests, {res['failed']} failed, "
             f"{steal:.2f} s CPU stolen by the host meanwhile, "
             f"{sum(r['disturbed'] for r in res['reps'])} repetitions disturbed"]
    units = dict(END_TO_END)
    for name, value in res["metrics"].items():
        lines.append(f"  {name:<36} {value:>14.6g} {units.get(name, 's')}")
    for name, value in res["raw"].items():
        label = "mean reference kernel_s" if name == "kernel_s" else "unscaled " + name
        lines.append(f"  {label:<36} {value:>14.6g} s")
    ratio = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    lines.append(f"  {'failed_ratio':<36} {ratio:>14.6g} 1")
    if trace:
        for name, value in res["layers"].items():
            lines.append(f"  {name:<36} {value:>14.6g} {LAYER_UNITS[name]}")
    for name in WORK_COUNTS:
        lines.append(f"  count {name:<30} {res['counts'].get(name, 0):>14d}")
    for name in res["absent"]:
        lines.append(f"  absent: {name}")
    for p in res["problems"][:20]:
        lines.append(f"  PROBLEM {p}")
    return lines


def metric_block(res: dict, trace: int) -> dict:
    units, vals = (LAYER_UNITS, res["layers"]) if trace else (dict(END_TO_END), res["metrics"])
    return {name: {"value": vals[name], "unit": units[name]} for name in units if name in vals}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that spawn() kills the running worker's group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "kahlercomp" / "__init__.py").is_file():
        sys.stderr.write(f"error: no kahlercomp sources under {SRC}\n")
        return 2

    env = environment(args)
    print("environment: " + json.dumps(env, sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        results.append(res)
        print("\n".join(report_lines(res, args.trace)), flush=True)
        path = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"environment": env, **res}, indent=1, default=str))

    expected = LAYER_UNITS if args.trace else dict(END_TO_END)
    if len(results) == 1:
        metrics = metric_block(results[0], args.trace)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in metric_block(r, args.trace).items()}
    complete = all(all(m in metric_block(r, args.trace) for m in expected) for r in results)
    summary = {
        "correct": complete and not any(r["problems"] or r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
