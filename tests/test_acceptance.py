"""Acceptance criteria, one test per criterion, each printing a PASS line.

Numerical magnitudes that the checks only bound qualitatively (the pointwise
gap, the stabilizer weight) are frozen in tests/data/counterexample_golden.json
after the first computation and compared on every later run.
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kahlercomp import comparison as CMP
from kahlercomp import curvature as C
from kahlercomp import geodesic as G
from kahlercomp import model_space as M
from kahlercomp import potential as P
from kahlercomp import series as S
from kahlercomp.model_space import ModelSpace
from kahlercomp.polynomials import CPoly
from kahlercomp.sphere import build_rule, unit_sphere_volume
from oracles import complex_rep, real_pairing, ricci, sphere_average, tangent_nodes

GOLDEN_PATH = Path(__file__).parent / "data" / "counterexample_golden.json"

A = Fraction(1, 10)


@pytest.fixture(scope="module")
def rule12():
    return build_rule(2, 12)


@pytest.fixture(scope="module")
def lambda_star():
    return CMP.find_lambda(0.1, 0.05)[0]


@pytest.fixture(scope="module")
def counterexample_report(lambda_star):
    return CMP.verify_counterexample(a=0.1, lam=lambda_star)


@pytest.fixture(scope="module")
def flows(rule12):
    out = {}
    out["flat"] = CMP.SphereFlow(P.flat(2), np.zeros(2), 0.0405, rule=rule12,
                                 tol=1e-11)
    out["space_form"] = CMP.SphereFlow(P.space_form(2, 1.0), np.zeros(2), 0.081,
                                       rule=rule12, tol=1e-11)
    out["section6"] = CMP.SphereFlow(P.section6(0.1, 0.0), np.zeros(2), 0.0405,
                                     rule=rule12, tol=1e-11)
    return out


def test_criterion_1_metric_series_golden():
    """Exact rational match of g11, g12, det g with the printed coefficients."""
    start = time.monotonic()
    ws = C.workspace(P.section6(A, 0))
    g11 = (CPoly.constant(2, 1)
           + CPoly.monomial(2, (1, 0), (1, 0), 4 * A)
           + CPoly.monomial(2, (0, 1), (0, 1), 8 * A)
           + CPoly.monomial(2, (2, 0), (2, 0), 24 * A * A)
           + CPoly.monomial(2, (1, 1), (1, 1), 112 * A * A)
           + CPoly.monomial(2, (0, 2), (0, 2), 28 * A * A))
    g12 = (CPoly.monomial(2, (0, 1), (1, 0), 8 * A)
           + CPoly.monomial(2, (1, 1), (2, 0), 56 * A * A)
           + CPoly.monomial(2, (0, 2), (1, 1), 56 * A * A))
    det = (CPoly.constant(2, 1)
           + CPoly.monomial(2, (1, 0), (1, 0), 12 * A)
           + CPoly.monomial(2, (0, 1), (0, 1), 12 * A)
           + CPoly.monomial(2, (2, 0), (2, 0), 84 * A * A)
           + CPoly.monomial(2, (0, 2), (0, 2), 84 * A * A)
           + CPoly.monomial(2, (1, 1), (1, 1), 240 * A * A))
    assert ws.g[0][0].truncate(4) == g11
    assert ws.g[0][1].truncate(4) == g12
    assert C.ricci_series(ws.g, ws.pot.max_degree + 4)[0].truncate(4) == det
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: metric/determinant series exact "
          f"(12a, 84a^2, 240a^2 terms) in {elapsed:.2f}s")


def test_criterion_2_ricci_golden():
    """Ric + 12ag vanishes exactly through degree 3; stabilizer profile exact."""
    start = time.monotonic()
    ws = C.workspace(P.section6(A, 0))
    _, log_det, ric = C.ricci_series(ws.g, ws.pot.max_degree + 4)
    for i in range(2):
        for j in range(2):
            assert (ric[i][j] + ws.g[i][j].scale(12 * A)).truncate(3).is_zero()
    ws1 = C.workspace(P.section6(A, 1))
    log_det1 = C.ricci_series(ws1.g, ws1.pot.max_degree + 4)[1]
    u1 = -log_det1 + ws1.pot.poly.scale(12 * A)
    u0 = -log_det + ws.pot.poly.scale(12 * A)
    delta = (u1 - u0).part(6)
    profile = (CPoly.monomial(2, (3, 0), (3, 0), 24)
               + CPoly.monomial(2, (2, 1), (2, 1), 72)
               + CPoly.monomial(2, (1, 2), (1, 2), 72)
               + CPoly.monomial(2, (0, 3), (0, 3), 24))
    assert delta == profile
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 PASS: Ric + 12ag vanishes to order 3 exactly; "
          f"degree-6 stabilizer part is 24 lambda (|z1|^2+|z2|^2)^3 in {elapsed:.2f}s")


def test_criterion_3_curvature_golden():
    start = time.monotonic()
    pot = P.section6(A, 0)
    R_uv = C.curvature_jets_along(pot, np.zeros(2), np.array([1.0, 0, 0, 0]), order=0).R[0]
    dev = np.max(np.abs(R_uv - np.diag([0.4, 0.4, 0.4])))
    assert dev < 1e-10
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 3 PASS: frame curvature at origin diag(4a,4a,4a), "
          f"max deviation {dev:.2e} in {elapsed:.2f}s")


def test_criterion_4_counterexample(lambda_star, counterexample_report):
    start = time.monotonic()
    rep = counterexample_report
    st4 = rep.stages["r4_coefficient"]
    st5 = rep.stages["pointwise_gap"]
    assert st4["passed"] and st4["margin"] > 0
    assert st5["passed"]
    lo, hi = st5["interval"]
    assert st5["max_margin"] > 10.0 * st5["error_budget"]

    summary = {
        "a": 0.1,
        "rho": 0.05,
        "lambda_star": float(lambda_star),
        "r4_margin": float(st4["margin"]),
        "gap_interval": [float(lo), float(hi)],
        "max_gap_margin": float(st5["max_margin"]),
        "gap_at_r_004": float(st5["margins"][-1]),
    }
    if not GOLDEN_PATH.exists():
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["lambda_star"] == pytest.approx(summary["lambda_star"], abs=1e-12)
    assert golden["r4_margin"] == pytest.approx(summary["r4_margin"], rel=1e-3)
    assert golden["max_gap_margin"] == pytest.approx(summary["max_gap_margin"],
                                                     rel=1e-3)
    assert golden["gap_interval"] == pytest.approx(summary["gap_interval"], rel=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 4 PASS: pointwise gap positive on r in "
          f"[{lo:.3f}, {hi:.3f}], max margin {st5['max_margin']:.3e} "
          f"(budget {st5['error_budget']:.1e}), r^4 margin {st4['margin']:.4e}, "
          f"lambda* = {lambda_star}, in {elapsed:.1f}s")


def test_criterion_5_theorems_at_desk_scale(rule12):
    start = time.monotonic()
    grid = np.linspace(0.005, 0.04, 8)
    cases = [
        ("flat", P.flat(2), 0.0, True),
        ("space_form", P.space_form(2, 1.0), 1.0, True),
        ("section6", P.section6(0.1, 0.0), -1.2, False),
    ]
    lines = []
    for name, pot, K, equality in cases:
        rep3 = CMP.check_volume_ratio(pot, K, r_grid=grid, rule=rule12)
        rep4 = CMP.check_average_laplacian(pot, K, r_grid=grid, rule=rule12)
        assert rep3.verdict == "holds", name
        assert rep4.verdict == "holds", name
        min3 = min(r["margin"] for r in rep3.rows)
        min4 = min(r["margin"] for r in rep4.rows)
        assert min3 >= -1e-6 and min4 >= -1e-7, name
        if equality:
            assert max(abs(r["margin"]) for r in rep3.rows) <= 1e-6, name
            assert max(abs(r["margin"]) for r in rep4.rows) <= 1e-7, name
        lines.append(f"{name}: vol min margin {min3:+.2e}, "
                     f"laplacian min margin {min4:+.2e}")
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print("\nACCEPTANCE 5 PASS: " + "; ".join(lines) + f" in {elapsed:.1f}s")


def test_criterion_6_model_conformance():
    start = time.monotonic()
    worst = 0.0
    for n in (2, 3):
        for K in (1.0, -1.0, 3.0, -3.0):
            pot = P.space_form(n, K)
            model = ModelSpace(n, K)
            e0 = np.zeros(2 * n)
            e0[0] = 1.0
            ray = G.GeodesicBatch(pot, np.zeros(n), [e0], 0.5, tol=1e-10)
            for r in np.linspace(0.01, 0.5, 15):
                dm = M.density(model, float(r))
                err = abs(ray.densities(float(r))[0][0] - dm) / dm
                worst = max(worst, err)
    assert worst < 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 6 PASS: ODE density matches closed form, worst relative "
          f"error {worst:.2e} over K in {{+-1, +-3}}, n in {{2, 3}}, in {elapsed:.1f}s")


def test_criterion_7_series_consistency_triangle(flows, rule12):
    start = time.monotonic()
    vol = unit_sphere_volume(2)
    pot = P.space_form(2, 1.0)
    model_coeffs = M.model_series(ModelSpace(2, 1.0), 6).coefficients

    # fitted coefficients from the integrated flow
    flow = flows["space_form"]
    grid = np.geomspace(5e-3, 8e-2, 24)
    samples = [(float(r), flow.w_value(float(r))) for r in grid]
    fitted = S.fit_w_series(samples, 6).coefficients

    # symbolic coefficients from jets through the determinant expansion
    jets = C.curvature_jets_along(pot, np.zeros(2), np.array([1.0, 0, 0, 0]),
                                  order=2)
    sym = S.density_series(S.jacobi_recursion(jets, 5), 4).coefficients * vol

    c2m, c4m = model_coeffs[2], model_coeffs[4]
    assert abs(fitted[2] - c2m) / abs(c2m) < 1e-6
    assert abs(fitted[4] - c4m) / abs(c4m) < 1e-4
    assert abs(sym[2] - c2m) / abs(c2m) < 1e-6
    assert abs(sym[4] - c4m) / abs(c4m) < 1e-4

    # sphere-averaged odd coefficients vanish on every catalog metric
    rule = build_rule(2, 6)
    worst_odd = 0.0
    for pot_k in (P.flat(2), P.space_form(2, 1.0), P.section6(0.1, 0.0),
                  P.perturbed(2, 4)):
        Gm = C.workspace(pot_k).metric_values(np.zeros(2))
        dirs = tangent_nodes(rule, C.real_metric_matrix(Gm))
        c3_vals = []
        for e0 in dirs:
            j = C.curvature_jets_along(pot_k, np.zeros(2), e0, order=1)
            c3_vals.append(np.trace(j.R[1]) / 12.0)
        c3_avg = math.fsum(w * v for w, v in zip(rule.weights, c3_vals))
        worst_odd = max(worst_odd, abs(c3_avg))
    assert worst_odd < 1e-6  # c1 vanishes identically by construction
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 7 PASS: fitted/symbolic/model c2 agree to "
          f"{abs(fitted[2]-c2m)/abs(c2m):.1e}/{abs(sym[2]-c2m)/abs(c2m):.1e} rel, "
          f"c4 to {abs(fitted[4]-c4m)/abs(c4m):.1e}/{abs(sym[4]-c4m)/abs(c4m):.1e}; "
          f"worst sphere-averaged odd coefficient {worst_odd:.1e}, in {elapsed:.1f}s")


def test_criterion_8_quality_gates(flows, section6_pot):
    start = time.monotonic()
    worst = {"wronskian": 0.0, "frame": 0.0}
    for flow in flows.values():
        q = flow.rays.quality(flow.r_max)
        worst["wronskian"] = max(worst["wronskian"], q["wronskian"])
        worst["frame"] = max(worst["frame"], q["frame"])
    assert worst["wronskian"] < 1e-8
    assert worst["frame"] < 1e-9

    ric = ricci(section6_pot, np.zeros((1, 2)))[1][0]

    def integrand(x):
        xi = complex_rep(x)
        return 1.0 / (2.0 + real_pairing(ric, xi, xi))

    v12 = sphere_average(build_rule(2, 12), integrand)
    v16 = sphere_average(build_rule(2, 16), integrand)
    plateau = abs(v16 - v12)
    assert plateau < 1e-9
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 8 PASS: wronskian drift {worst['wronskian']:.1e} < 1e-8, "
          f"frame drift {worst['frame']:.1e} < 1e-9, quadrature plateau "
          f"{plateau:.1e} < 1e-9, in {elapsed:.1f}s")
