"""Workload definitions and the output checks applied to every request.

A workload is a fixed sequence of CLI requests.  The benchmark seed picks only
the coefficients of the generic potential; every other input is a fixed catalog
entry that is known to certify.  Potentials are generated by the benchmark and handed to the
CLI as ``--potential`` files.  No request passes ``--threads``: the CLI default
(``os.cpu_count()``) is what gets measured.

Why each workload:

* ``flow-sym-n2`` -- the paper's own torus-invariant family (section6, 28
  monomials per evaluation): per-call overhead in the sphere fan-out (a
  degree-6 rule, 128 rays per request) dominates.  A batched ray integrator and a
  torus-symmetry reduction both act here.
* ``flow-generic-n2`` -- the same checks on a potential without torus
  symmetry, so a symmetry reduction cannot apply; it guards generic inputs.
* ``jets-n2`` -- 302 curvature-jet calls (301 in ``series`` on a degree-8
  rule, one in the staged counterexample), each shooting two short single
  rays; no ``SphereFlow``.  A batched integrator that slows the single ray
  shows up here.
* ``exact-n3`` -- a new n=3 space form per request with a cold workspace: the
  exact algebra of an 83-term potential (truncated at degree 12) and the Ricci
  certificate dominate time and memory.

The rules and truncation degrees are smaller than the CLI defaults so that one
repetition takes a few seconds and a run holds several of them: the host's
speed drifts over seconds, and a median over many short repetitions is steadier
than one long repetition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

# Tolerances fixed by the benchmark, copied from the stated tolerances of the
# program at the time the reference was recorded (comparison.TOL_VOLUME,
# comparison.TOL_LAPLACIAN, acceptance criterion 7); a later change cannot
# loosen the check by editing the program.
TOL_VOLUME = 1e-6
TOL_LAPLACIAN = 1e-7
SERIES_REL_TOL = {0: 1e-6, 1: 1e-6, 2: 1e-6}   # higher orders: 1e-4
SERIES_HIGH_TOL = 1e-4
ODD_AVERAGE_TOL = 1e-6

FLOW_QUAD_DEGREE = 6      # 128 rays on S^3
SERIES_QUAD_DEGREE = 8    # 300 directions on S^3
EXACT_N3_DEGREE = 12      # space_form truncation: 83 terms
PERTURBATION = 0.02       # deviation of the generic potential's coefficients

REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Request:
    kind: str                 # thm3 | thm4 | rigidity | counterexample | series
    argv: list
    seeded: bool              # inputs depend on the benchmark seed
    expected: dict = field(default_factory=dict)  # checks that hold for every seed


def _flow_requests(pot_file, K, seeded, expected_rigidity):
    base = ["--potential", str(pot_file), "--K", str(K),
            "--quad-degree", str(FLOW_QUAD_DEGREE)]
    return [
        Request("thm3", ["check", "--which", "thm3", *base], seeded,
                expected={"verdict": "holds"}),
        Request("thm4", ["check", "--which", "thm4", *base], seeded,
                expected={"verdict": "holds"}),
        Request("rigidity", ["check", "--which", "rigidity", *base], seeded,
                expected={"verdict": "holds", **expected_rigidity}),
    ]


def generic_potential(seed: int):
    """A flat potential on C^2 plus small seeded Hermitian terms, with no torus
    symmetry.

    The monomials are those of the catalog's ``perturbed(2, 0)``; the seed draws
    new coefficients from the same distribution (real and imaginary parts
    normal with deviation 0.02).  ``perturbed(2, seed)`` itself draws the
    monomials too, and the polynomials of its workspace range from about 220
    to 880 terms over seeds, which moved peak memory by 40% between seeds.
    With the support fixed every seed asks for the same work.
    """
    from fractions import Fraction

    import numpy as np
    from kahlercomp import potential as P
    from kahlercomp.polynomials import QC

    rng = np.random.default_rng(seed)
    base = P.perturbed(2, 0)
    terms, seen = [], set()
    for m in base.terms:
        if (m.alpha, m.beta) in seen:
            continue
        if sum(m.alpha) == 1 and m.alpha == m.beta:
            terms.append((m.alpha, m.beta, m.coeff))      # the flat part
            continue
        re = Fraction(float(rng.normal(0, PERTURBATION)))
        im = 0 if m.alpha == m.beta else Fraction(float(rng.normal(0, PERTURBATION)))
        c = QC(re, im)
        terms.append((m.alpha, m.beta, c))
        if m.alpha != m.beta:
            terms.append((m.beta, m.alpha, c.conjugate()))
            seen.add((m.beta, m.alpha))
    return P.RealAnalyticPotential(2, terms, max_degree=base.max_degree,
                                   validity_radius=base.validity_radius,
                                   label=f"generic(n=2, seed={seed})")


def build(name: str, seed: int, workdir: Path):
    """Generate the inputs of a workload: potential files and request argv."""
    from kahlercomp import potential as P

    def dump(pot, fname):
        path = workdir / fname
        P.dump_json(pot, path)
        return path

    if name == "flow-sym-n2":
        f = dump(P.section6(0.1, 0), "section6.json")
        # section6 at K = -1.2 first deviates from the model at order 4, below it
        return _flow_requests(f, -1.2, False, {"first_deviating_order": 4, "sign": -1})
    if name == "flow-generic-n2":
        f = dump(generic_potential(seed), "perturbed.json")
        # a near-flat metric has Ricci far above K = -1, so its r^2 coefficient
        # already falls below the model's (checked for seeds 0-5, 17, 123, 999)
        return _flow_requests(f, -1.0, True, {"first_deviating_order": 2, "sign": -1})
    if name == "jets-n2":
        f = dump(generic_potential(seed), "perturbed.json")
        return [
            Request("series", ["series", "--potential", str(f), "--order", "4",
                               "--quad-degree", str(SERIES_QUAD_DEGREE)], True,
                    expected={"odd_average_vanishes": True}),
            Request("counterexample", ["check", "--which", "counterexample",
                                       "--params", "a=0.1"], False,
                    expected={"verdict": "holds"}),
        ]
    if name == "exact-n3":
        reqs = []
        for k in (1, -1):
            f = dump(P.space_form(3, k, degree=EXACT_N3_DEGREE), f"space_form_n3_K{k}.json")
            reqs.append(Request("thm4", ["check", "--which", "thm4", "--potential", str(f),
                                         "--K", str(k), "--quad-degree", "2"], False,
                                expected={"verdict": "holds"}))
        return reqs
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("flow-sym-n2", "flow-generic-n2", "jets-n2", "exact-n3")


# ---------------------------------------------------------------------------
# extraction and checks
# ---------------------------------------------------------------------------

def extract(kind: str, report: dict) -> dict:
    """The values of a report that the checks compare."""
    verdicts = report.get("verdicts", [])
    out = {"verdict": verdicts[0] if len(verdicts) == 1 else verdicts}
    if kind in ("thm3", "thm4"):
        out["margins"] = [row["margin"] for row in report[kind]["rows"]]
    elif kind == "rigidity":
        rig = report["rigidity"]
        for key in ("first_deviating_order", "sign", "fitted", "thresholds"):
            out[key] = rig[key]
    elif kind == "counterexample":
        ce = report["counterexample"]
        gap = ce["stages"]["pointwise_gap"]
        out["passed_all"] = ce["passed_all"]
        out["stages"] = {k: v["passed"] for k, v in ce["stages"].items()}
        out["margins"] = gap["margins"]
        out["error_budget"] = gap["error_budget"]
    elif kind == "series":
        out["verdict"] = "holds"
        out["per_direction"] = report["per_direction"]["coefficients"]
        out["sphere_averaged"] = report["sphere_averaged"]["coefficients"]
        out["c0_expected"] = report["sphere_averaged"]["c0_expected"]
    return out


def _series_tol(k):
    return SERIES_REL_TOL.get(k, SERIES_HIGH_TOL)


def check_expected(req: Request, values: dict) -> list:
    """Checks that hold for every seed: verdicts and structural facts."""
    problems = []
    for key, want in req.expected.items():
        if key == "odd_average_vanishes":
            avg = values["sphere_averaged"]
            c0 = values["c0_expected"]
            if not abs(avg[0] - c0) <= _series_tol(0) * abs(c0):
                problems.append(f"averaged c0 {avg[0]!r} != Vol(S^3) {c0!r}")
            for k in range(1, len(avg), 2):
                if not abs(avg[k]) <= ODD_AVERAGE_TOL:
                    problems.append(f"averaged odd coefficient c{k} = {avg[k]!r} does not vanish")
        elif values.get(key) != want:
            problems.append(f"{key} = {values.get(key)!r}, expected {want!r}")
    if req.kind == "counterexample" and not values.get("passed_all"):
        failing = [k for k, ok in values["stages"].items() if not ok]
        problems.append(f"counterexample stages failed: {failing}")
    return problems


# reference values that must match exactly, per request kind
EXACT_KEYS = {"rigidity": ("first_deviating_order", "sign"), "counterexample": ("stages",)}


def tolerances(kind: str, values: dict, ref: dict) -> list:
    """(key, tolerance of entry i) for each list compared with the reference."""
    if kind == "thm3":
        return [("margins", lambda i: TOL_VOLUME)]
    if kind == "thm4":
        return [("margins", lambda i: TOL_LAPLACIAN)]
    if kind == "rigidity":
        return [("fitted", lambda i: ref["thresholds"][i])]
    if kind == "counterexample":
        # each run's margins lie within its own stated error budget
        budget = ref["error_budget"] + values["error_budget"]
        return [("margins", lambda i: budget)]
    if kind == "series":
        return [(key, lambda i, key=key: _series_tol(i) * max(abs(ref[key][i]), abs(ref[key][0])))
                for key in ("per_direction", "sphere_averaged")]
    return []


def check_reference(kind: str, values: dict, ref: dict) -> list:
    """Compare against stored reference values, each within its own tolerance."""
    problems = []
    for key in EXACT_KEYS.get(kind, ()):
        if values[key] != ref[key]:
            problems.append(f"{kind} {key} = {values[key]!r}, reference {ref[key]!r}")
    for key, tol in tolerances(kind, values, ref):
        got, want = values[key], ref[key]
        if len(got) != len(want):
            problems.append(f"{kind} {key}: length {len(got)} != reference {len(want)}")
            continue
        for i, (g, r) in enumerate(zip(got, want)):
            if not abs(g - r) <= tol(i):
                problems.append(f"{kind} {key}[{i}] = {g!r} differs from reference "
                                f"{r!r} by more than {tol(i):.3g}")
    return problems


def load_reference() -> dict:
    if not REFERENCE_FILE.exists():
        return {}
    return json.loads(REFERENCE_FILE.read_text())


def check_request(req: Request, values: dict, ref: dict | None) -> list:
    problems = check_expected(req, values)
    if ref is not None:
        problems += check_reference(req.kind, values, ref)
    return problems
