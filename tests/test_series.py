"""Jacobi coefficient recursion, density series, fits and the R_11 identity."""

import json
import math
from itertools import permutations

import numpy as np
import pytest

from kahlercomp import cli
from kahlercomp import curvature as C
from kahlercomp import model_space as M
from kahlercomp import potential as P
from kahlercomp import series as S
from kahlercomp.model_space import ModelSpace
from kahlercomp.polynomials import cauchy_product
from kahlercomp.sphere import build_rule, tangent_nodes, unit_sphere_volume


def synthetic_jets(R_list, m=3):
    order = len(R_list) - 1
    return C.CurvatureJets(e0=np.zeros(4), order=order,
                           R=np.array(R_list), ric=np.zeros(order + 1))


def rand_symmetric(rng, m=3):
    A = rng.normal(size=(m, m))
    return (A + A.T) / 2


def closed_form_c2_c4(R0, R1, R2):
    """(c2, c3, c4) of the per-direction density series in closed form
    (Gray & Vanhecke, Acta Math. 142, 1979):

    c2 = tr R / 6,  c3 = tr R' / 12,
    c4 = sum R_us^2 / 45 + tr R'' / 40 + sum_{u<v}(R_uu R_vv - R_uv^2)/18
         - (tr R)^2 / 72.
    """
    tr = float(np.trace(R0))
    upper = np.triu_indices(R0.shape[0], 1)
    diag = np.diag(R0)
    pairs = float(np.sum(np.outer(diag, diag)[upper] - R0[upper] ** 2))
    c4 = (float(np.sum(R0 * R0)) / 45.0 + float(np.trace(R2)) / 40.0
          + pairs / 18.0 - tr * tr / 72.0)
    return tr / 6.0, float(np.trace(R1)) / 12.0, c4


def leibniz_density_series(co, N):
    """Reference route to ``density_series``: the Gram series summed block by
    block, its determinant by the Leibniz formula over all permutations and
    the square root by the binomial series of sqrt(1 + x)."""
    C = co.C
    m = C.shape[-1]
    gram = np.zeros((N + 1,) + C.shape[:-3] + (m, m))
    for i in range(1, C.shape[-2]):
        for j in range(1, N + 3 - i):
            gram[i + j - 2] += C[..., i, :] @ np.swapaxes(C[..., j, :], -1, -2)
    det = np.zeros(gram.shape[:-2])
    for perm in permutations(range(m)):
        inv = sum(1 for a in range(m) for b in range(a + 1, m) if perm[a] > perm[b])
        term = (-1.0) ** inv * gram[..., 0, perm[0]]
        for u in range(1, m):
            term = cauchy_product(np.multiply, term, gram[..., u, perm[u]])
        det += term
    x = det.copy()
    x[0] = 0.0
    out = np.zeros_like(det)
    out[0] = 1.0
    term = out.copy()
    coeff = 1.0
    for k in range(1, N + 1):
        coeff *= (0.5 - (k - 1)) / k  # binomial(1/2, k)
        term = cauchy_product(np.multiply, term, x)
        out += coeff * term
    return np.moveaxis(out, 0, -1)


def ray_series(pot, n_dirs, order):
    """Per-direction density series to ``order`` along n_dirs unit directions at 0."""
    p = np.zeros(pot.n)
    G = C.workspace(pot).metric_values(p)
    dirs = tangent_nodes(build_rule(pot.n, 4), C.real_metric_matrix(G))
    dirs = dirs[np.linspace(0, len(dirs) - 1, n_dirs).astype(int)]
    jets = C.curvature_jets_along(pot, p, dirs, order=order - 1)
    return S.jacobi_recursion(jets, order + 1)


class TestRecursion:
    def test_zero_jets_give_identity_only(self):
        jets = synthetic_jets([np.zeros((3, 3))] * 5)
        co = S.jacobi_recursion(jets, 6)
        assert np.allclose(co.C[:, 1, :], np.eye(3))
        assert np.max(np.abs(co.C[:, 2:, :])) == 0.0

    def test_low_order_values(self):
        rng = np.random.default_rng(0)
        R0, R1 = rand_symmetric(rng), rand_symmetric(rng)
        co = S.jacobi_recursion(synthetic_jets([R0, R1]), 4)
        assert np.max(np.abs(co.C[:, 2, :])) == 0.0
        assert np.allclose(co.C[:, 3, :], R0 / 6)
        assert np.allclose(co.C[:, 4, :], R1 / 12)

    def test_fifth_order_identity(self):
        rng = np.random.default_rng(1)
        R0, R1, R2 = (rand_symmetric(rng) for _ in range(3))
        co = S.jacobi_recursion(synthetic_jets([R0, R1, R2]), 5)
        expected = (R0 @ R0 + 3 * R2) / 120
        assert np.allclose(co.C[:, 5, :], expected, atol=1e-14)

    def test_space_form_reproduces_sn_taylor_to_order_10(self):
        K = 3.0
        c = 2 * K / 3
        R0 = np.diag([-c, -c / 4, -c / 4])
        jets = synthetic_jets([R0] + [np.zeros((3, 3))] * 7)
        co = S.jacobi_recursion(jets, 10)
        # |J_1| = sn_c, |J_u| = sn_{c/4}: only odd Taylor coefficients survive
        for lam, idx in ((c, 0), (c / 4, 1), (c / 4, 2)):
            for i in range(1, 11):
                expected = (-lam) ** ((i - 1) // 2) / math.factorial(i) if i % 2 else 0.0
                assert co.C[idx, i, idx] == pytest.approx(expected, abs=1e-15)

    def test_coefficient_symmetry_in_space_form(self):
        K = -2.0
        c = 2 * K / 3
        R0 = np.diag([-c, -c / 4, -c / 4])
        co = S.jacobi_recursion(synthetic_jets([R0] + [np.zeros((3, 3))] * 7), 9)
        for i in range(1, 10):
            assert np.allclose(co.C[:, i, :], co.C[:, i, :].T, atol=1e-15)

    def test_insufficient_jet_order_raises(self):
        jets = synthetic_jets([np.zeros((3, 3))] * 2)  # order 1
        with pytest.raises(ValueError, match="need jets of order"):
            S.jacobi_recursion(jets, 5)


class TestDensitySeries:
    def test_flat_is_delta_series(self):
        co = S.jacobi_recursion(synthetic_jets([np.zeros((3, 3))] * 3), 5)
        ds = S.density_series(co, 4)
        assert ds.coefficients[0] == 1.0
        assert np.max(np.abs(ds.coefficients[1:])) == 0.0

    def test_matches_direct_low_order_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            R0, R1, R2 = (rand_symmetric(rng) for _ in range(3))
            co = S.jacobi_recursion(synthetic_jets([R0, R1, R2]), 5)
            ds = S.density_series(co, 4)
            c2, c3, c4 = closed_form_c2_c4(R0, R1, R2)
            assert ds.coefficients[1] == 0.0
            assert ds.coefficients[2] == pytest.approx(c2, rel=1e-12, abs=1e-14)
            assert ds.coefficients[3] == pytest.approx(c3, rel=1e-12, abs=1e-14)
            assert ds.coefficients[4] == pytest.approx(c4, rel=1e-12, abs=1e-14)

    def test_space_form_matches_model_series(self, space_form_k1):
        jets = C.curvature_jets_along(space_form_k1, np.zeros(2),
                                      np.array([1.0, 0, 0, 0]), order=2)
        co = S.jacobi_recursion(jets, 5)
        ds = S.density_series(co, 4)
        ms = M.model_series(ModelSpace(2, 1.0), 4)
        vol = unit_sphere_volume(2)
        assert ds.coefficients[2] == pytest.approx(ms.coefficients[2] / vol, abs=1e-9)
        assert ds.coefficients[4] == pytest.approx(ms.coefficients[4] / vol, abs=1e-7)

    def test_batch_matches_single_directions(self):
        rng = np.random.default_rng(4)
        R = np.array([rand_symmetric(rng) for _ in range(18)]).reshape(2, 3, 3, 3, 3)
        jets = C.CurvatureJets(e0=np.zeros((2, 3, 4)), order=2, R=R, ric=np.zeros((2, 3, 3)))
        co = S.jacobi_recursion(jets, 5)
        ds = S.density_series(co, 4).coefficients
        assert co.C.shape == (2, 3, 3, 6, 3) and ds.shape == (2, 3, 5)
        for idx in np.ndindex(2, 3):
            one = S.jacobi_recursion(jets[idx], 5)
            assert np.allclose(co.C[idx], one.C, rtol=1e-14, atol=0)
            assert np.allclose(ds[idx], S.density_series(one, 4).coefficients,
                               rtol=1e-14, atol=0)
            c2, c3, c4 = closed_form_c2_c4(*R[idx])
            assert np.allclose(ds[idx][2:], [c2, c3, c4], rtol=1e-12, atol=1e-14)

    def test_order_beyond_support_raises(self):
        co = S.jacobi_recursion(synthetic_jets([np.zeros((3, 3))] * 3), 3)
        with pytest.raises(ValueError, match="exceeds"):
            S.density_series(co, 7)

    def test_order_needs_coefficients_one_higher(self):
        """Order N reads the Gram series to r^N, so C_{N+1}: with Jacobi
        coefficients of order N + 1 the series is final, with order N it is
        refused rather than returned short of its top terms."""
        jets = C.curvature_jets_along(P.perturbed(2, 0), np.zeros(2),
                                      np.array([0.5, 0.2, -0.4, 0.3]), order=6)
        ds = S.density_series(S.jacobi_recursion(jets, 6), 5).coefficients
        longer = S.density_series(S.jacobi_recursion(jets, 9), 5).coefficients
        assert np.allclose(ds, longer, rtol=1e-14, atol=1e-20)
        with pytest.raises(ValueError, match="exceeds"):
            S.density_series(S.jacobi_recursion(jets, 5), 5)

    def test_gram_constant_term_must_have_unit_determinant(self):
        co = S.jacobi_recursion(synthetic_jets([np.zeros((3, 3))] * 3), 5)
        scaled = S.JacobiCoefficients(e0=co.e0, order=co.order, C=2.0 * co.C)
        with pytest.raises(ValueError, match="determinant 1"):
            S.density_series(scaled, 4)

    @pytest.mark.parametrize("pot", [P.section6(0.1, 0), P.perturbed(2, 0), P.perturbed(3, 0)],
                             ids=["section6", "perturbed-n2", "perturbed-n3"])
    def test_matches_leibniz_oracle_to_order_12(self, pot):
        co = ray_series(pot, 16, 12)
        ds = S.density_series(co, 12).coefficients
        ref = leibniz_density_series(co, 12)
        assert ds.shape == ref.shape == (16, 13)
        assert np.all(np.abs(ds - ref) <= 1e-12 * np.maximum(np.abs(ref), 1e-8))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("K", [1, -1, -3])
    def test_space_forms_no_farther_from_model_than_oracle(self, n, K):
        """Relative distance from the exact model coefficients (those above
        1e-8), over four directions through order 12."""
        co = ray_series(P.space_form(n, K), 4, 12)
        exact = M.model_series(ModelSpace(n, K), 12).coefficients / unit_sphere_volume(n)
        keep = np.abs(exact) > 1e-8

        def distance(coeffs):
            return np.max(np.abs(coeffs - exact)[:, keep] / np.abs(exact[keep]))

        ours = distance(S.density_series(co, 12).coefficients)
        assert ours <= distance(leibniz_density_series(co, 12))
        assert ours < 1e-11


class TestFit:
    def test_exact_polynomial_recovery(self):
        rs = np.geomspace(0.5, 2.0, 24)
        coef_true = np.array([2.0, 0.0, -1.5, 0.3, 4.0])
        samples = [(r, float(np.polyval(coef_true[::-1], r))) for r in rs]
        fit = S.fit_w_series(samples, 4)
        assert np.max(np.abs(fit.coefficients - coef_true)) < 1e-12

    def test_flat_samples_give_constant(self, flat2):
        from kahlercomp import geodesic as G
        ray = G.shoot(flat2, np.zeros(2), np.array([1.0, 0, 0, 0]), 2.1)
        vol = unit_sphere_volume(2)
        samples = [(r, vol * ray.density(float(r)).value / float(r) ** 3)
                   for r in np.geomspace(0.5, 2.0, 24)]
        fit = S.fit_w_series(samples, 6)
        assert fit.coefficients[0] == pytest.approx(vol, rel=1e-12)
        assert np.max(np.abs(fit.coefficients[1:])) < 1e-10

    def test_flat_samples_on_extraction_grid(self, flat2):
        """On the tight W-extraction grid the low orders are still clean."""
        from kahlercomp import geodesic as G
        ray = G.shoot(flat2, np.zeros(2), np.array([1.0, 0, 0, 0]), 0.09)
        vol = unit_sphere_volume(2)
        samples = [(r, vol * ray.density(float(r)).value / float(r) ** 3)
                   for r in np.geomspace(5e-3, 8e-2, 24)]
        fit = S.fit_w_series(samples, 6)
        assert fit.coefficients[0] == pytest.approx(vol, rel=1e-12)
        assert abs(fit.coefficients[2]) < 1e-8

    def test_model_samples_recover_c2_c4(self):
        model = ModelSpace(2, 1.0)
        vol = unit_sphere_volume(2)
        samples = [(r, vol * M.density(model, float(r)) / float(r) ** 3)
                   for r in np.geomspace(5e-3, 8e-2, 24)]
        fit = S.fit_w_series(samples, 6)
        ms = M.model_series(model, 6)
        assert fit.coefficients[2] == pytest.approx(ms.coefficients[2], rel=1e-6)
        assert fit.coefficients[4] == pytest.approx(ms.coefficients[4], rel=1e-4)
        assert fit.cv_shift < 1e-4

    def test_condition_number_guard(self):
        rs = np.linspace(1.0, 1.0 + 1e-9, 40)
        samples = [(r, 1.0 + r) for r in rs]
        with pytest.raises(ValueError, match="condition"):
            S.fit_w_series(samples, 8)

    def test_sample_count_guard(self):
        with pytest.raises(ValueError, match="samples"):
            S.fit_w_series([(0.1, 1.0)] * 5, 4)


class TestSphereAveragedC4:
    """The r^4 coefficient of W(r) as the ``series`` command reports it."""

    @staticmethod
    def averaged_c4(capsys, catalog, params):
        assert cli.main(["series", "--catalog", catalog, "--params", params,
                         "--order", "4", "--quad-degree", "6"]) == 0
        return json.loads(capsys.readouterr().out)["sphere_averaged"]["coefficients"][4]

    def test_flat_is_zero(self, capsys):
        assert self.averaged_c4(capsys, "flat", "n=2") == 0.0

    def test_space_form_matches_model_and_k_squared_scaling(self, capsys):
        vals = {}
        for K in (1.0, -2.0):
            c4 = self.averaged_c4(capsys, "space_form", f"n=2,K={K}")
            ms = M.model_series(ModelSpace(2, K), 4)
            assert c4 == pytest.approx(ms.coefficients[4], rel=1e-8)
            vals[K] = c4 / K ** 2
        # the equality case value is a fixed multiple of K^2
        assert vals[1.0] == pytest.approx(vals[-2.0], rel=1e-8)

    def test_section6_below_model(self, capsys):
        c4 = self.averaged_c4(capsys, "section6", "a=0.1")
        ms = M.model_series(ModelSpace(2, -1.2), 4)
        assert c4 < ms.coefficients[4]


class TestPerDirectionConsistency:
    def test_fitted_ray_series_matches_symbolic(self):
        """One generic ray on an asymmetric metric: ODE fit vs recursion.

        Odd-degree potential terms break the z -> -z symmetry, so the r^3
        coefficient is genuinely nonzero along a single direction.
        """
        from kahlercomp import geodesic as G
        pot = P.RealAnalyticPotential(
            2, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), 1),
                ((2, 0), (0, 1), 0.3), ((0, 1), (2, 0), 0.3),
                ((1, 1), (1, 1), 0.2)],
            validity_radius=0.25)
        e0 = np.array([0.5, 0.2, -0.4, 0.3])
        jets = C.curvature_jets_along(pot, np.zeros(2), e0, order=2)
        sym = S.density_series(S.jacobi_recursion(jets, 5), 4).coefficients
        ray = G.shoot(pot, np.zeros(2), e0, 0.085, tol=1e-12)
        samples = [(float(r), ray.density(float(r)).value / float(r) ** 3)
                   for r in np.geomspace(5e-3, 8e-2, 24)]
        fit = S.fit_w_series(samples, 6).coefficients
        assert abs(sym[3]) > 1e-3  # asymmetry shows up at odd order
        assert abs(fit[2] - sym[2]) < 1e-7
        assert abs(fit[3] - sym[3]) < 1e-5
        assert abs(fit[4] - sym[4]) < 1e-3


class TestKahlerIdentity:
    def test_flat_both_sides_zero(self, flat2, rule8):
        lhs, rhs, res = S.kahler_r11_identity_check(flat2, np.zeros(2), rule=rule8)
        assert lhs == 0.0 and rhs == 0.0 and res == 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_space_form_at_other_curvature(self, n):
        pot = P.space_form(n, -2.0)
        lhs, rhs, res = S.kahler_r11_identity_check(pot, np.zeros(n),
                                                    rule=build_rule(n, 8))
        assert abs(res) < 1e-8

    def test_section6_at_origin(self, section6_pot, rule8):
        lhs, rhs, res = S.kahler_r11_identity_check(section6_pot, np.zeros(2),
                                                    rule=rule8)
        assert abs(res) < 1e-10 * max(1.0, abs(lhs))

    def test_generic_potential(self, rule8):
        pot = P.perturbed(2, 17)
        lhs, rhs, res = S.kahler_r11_identity_check(pot, np.zeros(2), rule=rule8)
        assert abs(res) < 1e-10 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("pot, rule", [(P.perturbed(2, 4), (2, 8)),
                                           (P.space_form(3, 1, degree=12), (3, 4))])
    def test_integral_matches_rm_value_loop(self, pot, rule):
        """The batched R_11 integral against <R(e0, Je0)e0, Je0> node by node."""
        from kahlercomp.sphere import fan_out
        rule = build_rule(*rule)
        p = np.zeros(pot.n)
        RH = C.workspace(pot).curvature_values(p)
        dirs, weights = fan_out(pot, p, rule)
        vals = [C.rm_value(RH, xi, 1j * xi, xi, 1j * xi) for xi in map(C.complex_rep, dirs)]
        loop = math.fsum(w * v for w, v in zip(weights, vals))
        assert S._r11_integral(pot, p, rule) == pytest.approx(loop, rel=1e-14, abs=0)


class TestOddCoefficients:
    @pytest.mark.parametrize("catalog, params", [("section6", "a=0.1"),
                                                 ("perturbed", "n=2,seed=0")])
    def test_series_command_odd_averages_are_exactly_zero(self, capsys, catalog, params):
        """The rule is centrally symmetric and the odd per-direction terms are
        odd in the direction to the last bit, so their averages cancel exactly."""
        assert cli.main(["series", "--catalog", catalog, "--params", params,
                         "--order", "7", "--quad-degree", "6"]) == 0
        avg = json.loads(capsys.readouterr().out)["sphere_averaged"]["coefficients"]
        assert avg[1::2] == [0.0] * 4

    def test_sphere_averaged_c3_vanishes(self, section6_pot, rule6):
        """r^3 coefficient integrates to zero over directions by symmetry."""
        for pot in (P.flat(2), P.space_form(2, 1.0), section6_pot, P.perturbed(2, 4)):
            G = C.workspace(pot).metric_values(np.zeros(pot.n))
            dirs = tangent_nodes(rule6, C.real_metric_matrix(G))
            acc = []
            for e0 in dirs:
                jets = C.curvature_jets_along(pot, np.zeros(pot.n), e0, order=1)
                acc.append(np.trace(jets.R[1]) / 12.0)
            avg = math.fsum(w * v for w, v in zip(rule6.weights, acc))
            assert abs(avg) < 1e-6, pot.label
