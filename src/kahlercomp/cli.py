"""Command-line entry point: model tables, series extraction, comparison checks.

Exit codes: 0 all checks hold, 2 some check violated, 3 inconclusive,
1 usage or validation error.  A run directory receives ``report.json``,
``tables/*.csv`` and ``config.echo.json``; identical configuration and seed
reproduce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import comparison, model_space, potential, series
from .geodesic import ODE_TOL
from .sphere import DEFAULT_DEGREE, build_rule, fan_out, rule_record, unit_sphere_volume

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATED = 2
EXIT_INCONCLUSIVE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _parse_params(text):
    out = {}
    if not text:
        return out
    for item in text.split(","):
        key, _, value = item.partition("=")
        if not _:
            raise ValueError(f"malformed parameter {item!r}; expected key=value")
        key = key.strip()
        value = value.strip()
        try:
            out[key] = int(value)
        except ValueError:
            try:
                out[key] = float(value)
            except ValueError:
                out[key] = value
            else:
                if not math.isfinite(out[key]):
                    raise ValueError(f"parameter {key!r} must be finite, got {value!r}")
    return out


def _load_potential(args):
    if getattr(args, "potential", None):
        return potential.load_json(args.potential)
    if getattr(args, "catalog", None):
        return potential.from_catalog(args.catalog, **_parse_params(args.params))
    raise ValueError("need --potential FILE or --catalog NAME")


def _grid(args):
    if args.r_steps < 1:
        raise ValueError(f"--r-steps must be at least 1, got {args.r_steps}")
    if not 0 < args.r_min <= args.r_max < math.inf:
        raise ValueError(f"--r-min must satisfy 0 < --r-min <= --r-max < inf, got "
                         f"--r-min {args.r_min} and --r-max {args.r_max}")
    return np.linspace(args.r_min, args.r_max, args.r_steps)


# check options a run of ``--which`` does not read: absent from its echoed
# configuration; the counterexample refuses any of them set off its default
_UNREAD = {"counterexample": ("catalog", "potential", "K", "quad_degree", "tol",
                              "r_min", "r_max", "r_steps"),
           "rigidity": ("r_min", "r_max", "r_steps")}


def _refuse_unread(args):
    defaults = _build_parser().parse_args(["check", "--which", args.which])
    for dest in _UNREAD[args.which]:
        if getattr(args, dest) != getattr(defaults, dest):
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"check --which {args.which} does not read {flag}")


def _echo_config(args, out: Path):
    """Write the options the run reads to ``config.echo.json``."""
    unread = _UNREAD.get(getattr(args, "which", None), ())
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func" and k not in unread}
    (out / "config.echo.json").write_text(json.dumps(cfg, sort_keys=True, indent=2,
                                                     default=str) + "\n")


def _degree(args, order=0):
    """The sphere-rule degree of a run: ``--quad-degree`` if given, else the
    least even degree at least ``DEFAULT_DEGREE`` and ``order``, the highest
    density-series order the run averages, since a rule of degree d averages
    the orders through d exactly."""
    if args.quad_degree is not None:
        return args.quad_degree
    return max(DEFAULT_DEGREE, order + order % 2)


def _write_csv(path, header, rows):
    """Write a table to ``path``, or to standard output when it is None."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])


def _emit(args, doc, table):
    """Write the run under ``--out``: ``report.json`` (``doc``), the table
    (file name, header, rows) under ``tables/`` and ``config.echo.json``.
    Without ``--out``, print the table of ``model`` or the report of the other
    commands."""
    name, header, rows = table
    if args.out:
        # created only now, so a refused run leaves no output directory behind
        out = Path(args.out)
        (out / "tables").mkdir(parents=True, exist_ok=True)
        _write_csv(out / "tables" / name, header, rows)
        _echo_config(args, out)
        (out / "report.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    elif args.command == "model":
        _write_csv(None, header, rows)
    else:
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def cmd_model(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    if not math.isfinite(args.K):
        raise ValueError(f"--K must be finite, got {args.K}")
    model = model_space.ModelSpace(args.n, args.K)
    rows = []
    for r in _grid(args):
        r = float(r)
        try:
            values = (model_space.density(model, r), model_space.sphere_area(model, r),
                      model_space.ball_volume(model, r), model_space.laplacian(model, r))
        except (ValueError, OverflowError):   # beyond the conjugate radius, or overflow
            values = (math.nan,) * 4
        # a closed form that overflows or underflows a float is a domain error too
        if all(0 < v < math.inf for v in values[:3]) and math.isfinite(values[3]):
            rows.append((r, "ok", *values))
        else:
            rows.append((r, "domain_error", "", "", "", ""))
    _emit(args, {"command": "model", "n": args.n, "K": args.K, "rows": len(rows)},
          ("model.csv", ["r", "status", "density", "area", "volume", "laplacian"], rows))
    return EXIT_OK


def cmd_series(args) -> int:
    order = args.order
    if order < 0:
        raise ValueError(f"--order must be at least 0, got {order}")
    pot = _load_potential(args)
    p = np.zeros(pot.n, dtype=complex)
    degree = _degree(args, order)
    try:
        rule = build_rule(pot.n, degree)
        dirs, weights = fan_out(pot, p, rule)
    except ValueError as exc:
        # a refused rule of a degree that --order raised names --order
        if args.quad_degree is not None or degree == DEFAULT_DEGREE:
            raise
        raise ValueError(f"--order {order} asks for a sphere rule of degree {degree}: "
                         f"{exc}") from None

    axis = np.zeros(2 * pot.n)
    axis[0] = 1.0
    dens = series.direction_series(pot, p, np.vstack([axis, dirs]), order)
    per_dir = dens.coefficients[0]
    averaged = weights @ dens.coefficients[1:]

    doc = {
        "potential": pot.label,
        "order": order,
        "per_direction": {"e0": "x1-axis",
                          "coefficients": per_dir.tolist(),
                          "provenance": dens.provenance},
        "sphere_averaged": {"coefficients": averaged.tolist(),
                            "provenance": "symbolic",
                            "c0_expected": unit_sphere_volume(pot.n)},
        "rule": rule_record(pot, p, rule, len(dirs)),
    }
    _emit(args, doc, ("coefficients.csv", ["order", "per_direction", "sphere_averaged"],
                      [(k, float(per_dir[k]), float(averaged[k])) for k in range(order + 1)]))
    return EXIT_OK


def cmd_check(args) -> int:
    verdicts = []
    payload = {"command": "check", "which": args.which}

    if args.which == "counterexample":
        _refuse_unread(args)
        params = _parse_params(args.params)
        unknown = sorted(set(params) - {"a", "lambda"})
        if unknown:
            raise ValueError(f"check --which counterexample reads only the parameters "
                             f"'a' and 'lambda', got {', '.join(map(repr, unknown))}")
        a = params.get("a", 0.1)
        lam = params.get("lambda", None)
        report = comparison.verify_counterexample(a=a, lam=lam, seed=args.seed)
        payload["counterexample"] = report.to_json_dict()
        verdicts.append(report.verdict)
        stage = report.stages["pointwise_gap"]
        table = ("pointwise_gap.csv", ["r", "margin"],
                 list(zip(map(float, stage["r_grid"]), map(float, stage["margins"]))))
    else:
        pot = _load_potential(args)
        if args.K is None:
            raise ValueError("--K is required for thm3/thm4/rigidity checks")
        if not math.isfinite(args.K):
            raise ValueError(f"--K must be finite, got {args.K}")
        opts = {"rule": build_rule(pot.n, _degree(args)), "tol_ode": args.tol,
                "seed": args.seed}
        if args.which == "thm3":
            rep = comparison.check_volume_ratio(pot, args.K, _grid(args), **opts)
            verdicts.append(rep.verdict)
            table = ("volume_ratio.csv", ["a", "b", "lhs", "rhs", "margin"],
                     [(r["a"], r["b"], r["lhs"], r["rhs"], r["margin"]) for r in rep.rows])
        elif args.which == "thm4":
            rep = comparison.check_average_laplacian(pot, args.K, _grid(args), **opts)
            verdicts.append(rep.verdict)
            table = ("average_laplacian.csv", ["r", "lhs", "rhs", "margin"],
                     [(r["r"], r["lhs"], r["rhs"], r["margin"]) for r in rep.rows])
        elif args.which == "rigidity":
            # the probe fits on its own radii; the radius grid is not read
            rep = comparison.rigidity_probe(pot, args.K, **opts)
            verdicts.append("holds")
            table = ("rigidity.csv", ["order", "fitted", "model", "deviation", "threshold"],
                     [(k, float(rep.fitted[k]), float(rep.model[k]),
                       float(rep.deviations[k]), float(rep.thresholds[k]))
                      for k in range(rep.order + 1)])
        else:
            raise ValueError(f"unknown check {args.which!r}")
        payload[args.which] = rep.to_json_dict()
        payload["rule"] = rep.rule
        payload["certificate"] = rep.certificate.to_json_dict()

    payload["verdicts"] = verdicts
    _emit(args, payload, table)
    if "violated" in verdicts:
        return EXIT_VIOLATED
    if "inconclusive" in verdicts:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    """The one argument parser of the process, built on first use."""
    parser = _Parser(prog="kahlercomp",
                     description="curvature and volume comparison checks for "
                                 "polynomial Kahler potentials")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--quad-degree", type=int, default=None,
                       help=f"sphere rule exactness degree (default {DEFAULT_DEGREE}; "
                            f"series: the least even degree >= max({DEFAULT_DEGREE}, --order))")

    m = sub.add_parser("model", help="closed-form model-space table")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--K", type=float, required=True)
    m.add_argument("--r-min", type=float, default=0.01)
    m.add_argument("--r-max", type=float, default=1.0)
    m.add_argument("--r-steps", type=int, default=20)
    m.add_argument("--out", default=None)
    m.set_defaults(func=cmd_model)

    s = sub.add_parser("series", help="density series coefficients at the origin")
    s.add_argument("--catalog", default=None)
    s.add_argument("--params", default=None, help="catalog parameters k=v,...")
    s.add_argument("--potential", default=None, help="potential JSON file")
    s.add_argument("--order", type=int, default=4)
    common(s)
    s.set_defaults(func=cmd_series)

    c = sub.add_parser("check", help="comparison checks and counterexample run")
    c.add_argument("--which", required=True,
                   choices=["thm3", "thm4", "counterexample", "rigidity"])
    c.add_argument("--catalog", default=None)
    c.add_argument("--params", default=None)
    c.add_argument("--potential", default=None)
    c.add_argument("--K", type=float, default=None)
    c.add_argument("--r-min", type=float, default=0.005)
    c.add_argument("--r-max", type=float, default=0.04)
    c.add_argument("--r-steps", type=int, default=8)
    c.add_argument("--seed", type=int, default=0, help="seed of the sampled Ricci bound")
    c.add_argument("--tol", type=float, default=ODE_TOL, help="ODE integration tolerance")
    common(c)
    c.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (potential.ValidationError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
