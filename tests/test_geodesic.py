"""Geodesic integration, Jacobi system, radial density and quality gates."""

import inspect
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from kahlercomp import cli, comparison
from kahlercomp import curvature as C
from kahlercomp import geodesic as G
from kahlercomp import model_space as M
from kahlercomp import potential as P
from kahlercomp import series as S
from kahlercomp.model_space import ModelSpace
from kahlercomp.sphere import build_rule, fan_out, unit_sphere_volume
from oracles import complex_rep, exact_det, gram_log_derivative, ray_states


def one_ray(pot, e0, r_max, tol=G.ODE_TOL):
    """A batch of one ray from the origin."""
    return G.GeodesicBatch(pot, np.zeros(pot.n), [e0], r_max, tol=tol)


class TestShoot:
    def test_flat_straight_line(self, flat2):
        p = np.array([0.01 + 0.01j, 0.0])
        ray = G.GeodesicBatch(flat2, p, [np.array([1.0, 0.5, -0.3, 0.2])], 1.0)
        xi0 = complex_rep(ray.e0[0])
        for r in (0.25, 0.8):
            assert np.allclose(ray_states(ray, r)[0][0], p + r * xi0, atol=1e-12)

    def test_unit_speed_and_frame_drift(self, section6_pot):
        ray = one_ray(section6_pot, np.array([0.5, 0.2, 0.1, -0.4]), 0.09)
        for r in (0.02, 0.05, 0.09):
            q = ray.quality(r)
            assert q["speed"] < 1e-9
            assert q["frame"] < 1e-9

    def test_space_form_arc_length_inversion(self):
        n, K = 2, 3.0
        b = K / (n + 1)
        pot = P.space_form(n, K)
        ray = one_ray(pot, np.array([1.0, 0, 0, 0]), 0.5, tol=1e-11)
        for r in (0.2, 0.45):
            rho = np.linalg.norm(ray_states(ray, r)[0][0])
            assert rho == pytest.approx(math.tan(math.sqrt(b) * r / math.sqrt(2))
                                        / math.sqrt(b), abs=1e-9)

    def test_negative_curvature_arc_length_inversion(self):
        n, K = 2, -3.0
        b = abs(K / (n + 1))
        pot = P.space_form(n, K)
        ray = one_ray(pot, np.array([1.0, 0, 0, 0]), 0.5, tol=1e-11)
        rho = np.linalg.norm(ray_states(ray, 0.4)[0][0])
        assert rho == pytest.approx(math.tanh(math.sqrt(b) * 0.4 / math.sqrt(2))
                                    / math.sqrt(b), abs=1e-9)

    def test_section6_zero_a_reduces_to_flat(self):
        pot = P.section6(0.0, 0.0)
        ray = one_ray(pot, np.array([0.3, 0.2, 0.5, -0.1]), 0.09)
        value = ray.densities(0.08)[0][0]
        assert value == pytest.approx(0.08 ** 3, abs=1e-10)

    def test_validity_ball_refuses_ray(self, section6_pot):
        """A ray that leaves the 0.1-ball before r_max is refused while it is integrated."""
        with pytest.raises(C.KahlerDomainError,
                           match=r"ray 0 leaves the validity ball \|z\| < 0.1"):
            one_ray(section6_pot, np.array([1.0, 0, 0, 0]), 0.5)


class TestJacobi:
    def test_flat_jacobi_linear(self, flat2):
        ray = one_ray(flat2, np.array([1.0, 0, 0, 0]), 1.0)
        _, _, (J,), (Jp,) = ray_states(ray, 0.7)
        assert np.allclose(J, 0.7 * np.eye(3), atol=1e-12)
        assert np.allclose(Jp, np.eye(3), atol=1e-12)

    def test_wronskian_conserved(self, section6_pot):
        ray = one_ray(section6_pot, np.array([0.2, -0.4, 0.3, 0.6]), 0.09)
        for r in (0.03, 0.09):
            assert ray.quality(r)["wronskian"] < 1e-8

    def test_space_form_jacobi_norms(self):
        n, K = 2, 3.0
        c = 2 * K / (n + 1)
        pot = P.space_form(n, K)
        ray = one_ray(pot, np.array([0.2, 0.8, 0.1, -0.4]), 0.5, tol=1e-11)
        for r in (0.2, 0.4):
            J = ray_states(ray, r)[2][0]
            assert np.linalg.norm(J[:, 0]) == pytest.approx(
                math.sin(math.sqrt(c) * r) / math.sqrt(c), abs=1e-9)
            for u in (1, 2):
                assert np.linalg.norm(J[:, u]) == pytest.approx(
                    (2 / math.sqrt(c)) * math.sin(math.sqrt(c) * r / 2), abs=1e-9)

    def test_small_r_series_expansion(self, section6_pot):
        """J(r) = r I + (r^3/6) R + (r^4/12) R' + O(r^5) in the parallel frame."""
        e0 = np.array([1.0, 0, 0, 0])
        ray = one_ray(section6_pot, e0, 0.05, tol=1e-12)
        jets = C.curvature_jets_along(section6_pot, np.zeros(2), e0, order=1)
        r = 0.01
        J = ray_states(ray, r)[2][0]
        model = r * np.eye(3) + (r ** 3 / 6) * jets.R[0] + (r ** 4 / 12) * jets.R[1]
        assert np.max(np.abs(J - model)) < 5 * r ** 5


class TestDensity:
    def test_flat_density(self, flat2):
        ray = one_ray(flat2, np.array([1.0, 0, 0, 0]), 1.0)
        (value,), (logd,) = ray.densities(0.5)
        assert value == pytest.approx(0.5 ** 3, abs=1e-13)
        assert logd == pytest.approx(3 / 0.5, abs=1e-11)

    def test_space_form_density_and_laplacian(self):
        for n, K in ((2, 1.0), (2, -3.0), (3, 3.0)):
            pot = P.space_form(n, K)
            model = ModelSpace(n, K)
            e0 = np.zeros(2 * n)
            e0[0] = 1.0
            ray = one_ray(pot, e0, 0.5, tol=1e-11)
            for r in (0.05, 0.3, 0.5):
                (value,), (logd,) = ray.densities(r)
                assert value == pytest.approx(M.density(model, r), rel=2e-7)
                assert logd == pytest.approx(M.laplacian(model, r), rel=2e-7, abs=1e-8)

    def test_small_r_branch_matches_direct_formula(self, section6_pot):
        """Below r = 1e-4 the density is det J as at any radius, and agrees
        with the Gram route sqrt(det G), tr(G^-1 G')/2."""
        ray = one_ray(section6_pot, np.array([1.0, 0, 0, 0]), 0.01)
        r = 0.99e-4
        (value,), (logd,) = ray.densities(r)
        _, _, (J,), (Jp,) = ray_states(ray, r)
        gram = J.T @ J
        direct_value = float(np.sqrt(np.linalg.det(gram)))
        direct_logd = 0.5 * float(np.trace(np.linalg.solve(gram, Jp.T @ J + J.T @ Jp)))
        assert value == pytest.approx(direct_value, rel=1e-10)
        assert logd == pytest.approx(direct_logd, rel=1e-10)

    @pytest.mark.parametrize("pot", [P.perturbed(2, 0), P.perturbed(3, 0), P.section6(0.1, 0)],
                             ids=["perturbed-n2", "perturbed-n3", "section6"])
    def test_log_derivative_matches_gram_oracle(self, pot):
        """tr(J^-1 J') equals the Gram route tr(G^-1 G')/2 within 1e-14
        relative, at radii below and above 1e-4 alike."""
        p = np.zeros(pot.n)
        batch = G.GeodesicBatch(pot, p, fan_out(pot, p, build_rule(pot.n, 4))[0], 0.04)
        for r in (0.99e-4, 1e-8, 1e-30, 0.03):
            _, logd = batch.densities(r)
            _, _, J, Jp = ray_states(batch, r)
            ref = gram_log_derivative(J, Jp)
            assert np.all(np.abs(logd - ref) <= 1e-14 * np.abs(ref)), r

    def test_dense_output_matches_series_at_tiny_radii(self):
        """det J and tr(J^-1 J') read from the dense output agree with the
        order-8 per-direction series r^3 D(r) from r = 2e-4 down to r = 1e-101,
        where r^3 nears the least normal float."""
        pot = P.perturbed(2, 0)
        p = np.zeros(2)
        dirs = fan_out(pot, p, build_rule(2, 4))[0][:12]
        batch = G.GeodesicBatch(pot, p, dirs, 4e-4)
        c = S.direction_series(pot, p, dirs, 8).coefficients
        k = np.arange(9)
        for r in np.geomspace(2e-4, 1e-101, 15):
            vals, logd = batch.densities(r)
            D, dD = c @ r ** k, c[:, 1:] @ (k[1:] * r ** (k[1:] - 1))
            assert np.all(np.abs(vals - r ** 3 * D) <= 1e-13 * r ** 3 * D), r
            assert np.all(np.abs(logd - (3 / r + dD / D)) <= 1e-14 * (3 / r + dD / D)), r

    @pytest.mark.parametrize("pot", [P.perturbed(2, 0), P.perturbed(3, 0)],
                             ids=["perturbed-n2", "perturbed-n3"])
    def test_det_matches_the_exact_determinant(self, pot):
        """det J is within 3 eps of the exact determinant of the same J, from
        r = 1e-8 to 0.04: ``np.linalg.det`` on J itself, which rounds by about
        eps |ln det J|, erred by up to 71.5 eps at r = 1e-8 (n = 3)."""
        p = np.zeros(pot.n)
        batch = G.GeodesicBatch(pot, p, fan_out(pot, p, build_rule(pot.n, 4))[0], 0.04)
        for r in (1e-8, 1e-3, 0.04):
            vals, _ = batch.densities(r)
            J = ray_states(batch, r)[2]
            err = max(abs(Fraction(v) - d) / d for v, d in zip(vals.tolist(), map(exact_det, J)))
            assert err <= 3 * np.finfo(float).eps, r

    def test_volume_at_an_underflowing_radius(self):
        """A Gauss node of a radius below the least subnormal lies at radius 0,
        where J = 0: the volume is 0, with no warning."""
        batch = G.GeodesicBatch(P.perturbed(2, 0), np.zeros(2), np.eye(4)[:2], 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(batch.volumes(5e-324) == 0.0)

    def test_underflowing_det_is_no_conjugate_point(self):
        """At n = 3 and r = 1e-70, det J ~ r^5 underflows to 0.  The sign of
        det J comes from its LU factors, so the density is returned, not
        refused as a conjugate point."""
        batch = G.GeodesicBatch(P.perturbed(3, 0), np.zeros(3), np.eye(6)[:2], 0.01)
        vals, logd = batch.densities(1e-70)
        assert np.all(vals == 0.0)
        np.testing.assert_allclose(logd, 5e70, rtol=1e-14)

    def test_density_positive_r_required(self, flat2):
        ray = one_ray(flat2, np.array([1.0, 0, 0, 0]), 0.1)
        with pytest.raises(ValueError):
            ray.densities(0.0)

    def test_section6_beats_model_along_axis(self, section6_pot):
        """Radial density along the distinguished axis exceeds the model's."""
        model = ModelSpace(2, -1.2)
        ray = one_ray(section6_pot, np.array([1.0, 0, 0, 0]), 0.05, tol=1e-12)
        for r in (0.02, 0.04):
            assert ray.densities(r)[0][0] > M.density(model, r)

    def test_gauge_independence_of_density(self, section6_pot, monkeypatch):
        """Block-unitary rotation of the initial frame leaves the density alone."""
        e0 = np.array([0.3, -0.1, 0.5, 0.2])
        ray = one_ray(section6_pot, e0, 0.08, tol=1e-11)
        theta = 0.7
        rot = np.array(
            [[1, 0, 0], [0, math.cos(theta), -math.sin(theta)],
             [0, math.sin(theta), math.cos(theta)]])
        complete = C.complete_frame

        def rotated(g, xi0):
            frame = complete(g, xi0)
            frame[:, 1:] = rot @ frame[:, 1:]   # rotate e_1..e_3, keep e0
            return frame

        monkeypatch.setattr(G.curv, "complete_frame", rotated)
        ray2 = one_ray(section6_pot, e0, 0.08, tol=1e-11)
        np.testing.assert_allclose(ray_states(ray2, 0.0)[1][0, 1:],
                                   rot @ ray_states(ray, 0.0)[1][0, 1:], rtol=0, atol=1e-15)
        for r in (0.03, 0.07):
            (v1,), (l1,) = ray.densities(r)
            (v2,), (l2,) = ray2.densities(r)
            assert v1 == pytest.approx(v2, rel=1e-10)
            assert l1 == pytest.approx(l2, rel=1e-10)

    def test_antipodal_symmetry(self, section6_pot):
        e0 = np.array([0.2, 0.6, -0.3, 0.4])
        r = 0.06
        d1 = one_ray(section6_pot, e0, 0.07).densities(r)[0][0]
        d2 = one_ray(section6_pot, -e0, 0.07).densities(r)[0][0]
        assert d1 == pytest.approx(d2, rel=1e-10)

    def test_cumulative_volume_matches_quadrature(self, flat2, space_form_k1):
        """A batch of one integrates det J to the closed-form volume per direction."""
        e0 = [np.array([1.0, 0, 0, 0])]
        flat = G.GeodesicBatch(flat2, np.zeros(2), e0, 0.5)
        # flat per-ray volume integrand r^3
        assert flat.volumes(0.4)[0] == pytest.approx(0.4 ** 4 / 4, rel=1e-13)
        batch = G.GeodesicBatch(space_form_k1, np.zeros(2), e0, 0.04, tol=1e-11)
        model = ModelSpace(2, 1.0)
        for r in (0.005, 0.013, 0.04):
            assert batch.volumes(r)[0] == pytest.approx(
                M.ball_volume(model, r) / unit_sphere_volume(2), rel=1e-13)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), 1.0, 1e-25])
    def test_tolerance_outside_its_range_refused(self, flat2, tol):
        """A tolerance outside [100 eps, 1) is refused before any step: 1e-25
        would never be met, and 0 would divide by zero in the error norm."""
        with pytest.raises(ValueError, match="ODE tolerance"):
            G.GeodesicBatch(flat2, np.zeros(2), [np.array([1.0, 0, 0, 0])], 0.1, tol=tol)

    @pytest.mark.parametrize("r_max", [float("inf"), float("nan"), 0.0, -1.0])
    def test_r_max_outside_its_range_refused(self, flat2, r_max):
        """An infinite or nan r_max is refused before any step, as a non-positive one is."""
        with pytest.raises(ValueError, match="r_max must be positive and finite"):
            G.GeodesicBatch(flat2, np.zeros(2), [np.array([1.0, 0, 0, 0])], r_max)

    @pytest.mark.parametrize("read", ["volumes", "densities", "quality"])
    def test_nan_radius_refused(self, flat2, read):
        """Every reading refuses r = nan as outside the integrated range."""
        batch = G.GeodesicBatch(flat2, np.zeros(2), [np.array([1.0, 0, 0, 0])], 0.1)
        with pytest.raises(ValueError, match="outside integrated range"):
            getattr(batch, read)(float("nan"))


class TestConjugatePoints:
    def test_bisection_locates_zero(self):
        """The detector on a det J that crosses zero at 0.6180339887."""
        def sign(r):
            return np.linalg.slogdet(np.diag([0.6180339887 - r, 1.0, 1.0])).sign

        assert G._conjugate_point(sign, 1.0) == pytest.approx(0.6180339887, abs=1e-9)

    def test_no_zero_without_a_sign_change(self):
        assert G._conjugate_point(lambda r: 1.0, 1.0) is None

    @pytest.mark.parametrize("a, b", [(0.25, 1.0), (-1.0, 0.25)])
    def test_bisect_root_at_an_endpoint(self, a, b):
        assert G._bisect(lambda x: x - 0.25, a, b, 0.0) == 0.25
        assert G._bisect(lambda x: x - 0.25, a, b, xtol=1e-6) == pytest.approx(0.25, abs=1e-6)

    def test_bisect_on_adjacent_floats_terminates_inside(self):
        a = 0.3
        b = np.nextafter(a, 1.0)   # the sign change sits between two floats
        for xtol in (0.0, 1e-300):
            assert a <= G._bisect(lambda x: 1.0 if x > a else -1.0, a, b, xtol) <= b

    def test_density_raises_with_bracket(self, flat2):
        """A flat batch whose second ray has its stored J_11 stubbed to 0.5 - r:
        the batch density finds det J <= 0 at r = 0.7 and brackets that ray's
        crossing at 0.5, scanning that ray's J; the first ray is untouched."""
        dirs = [np.array([0.0, 1.0, 0, 0]), np.array([1.0, 0, 0, 0])]
        batch = G.GeodesicBatch(flat2, np.zeros(2), dirs, 1.0)
        states = batch._states

        def stubbed(r):
            y = states(r)
            batch._unpack(y)[2][1, 0, 0] = 0.5 - r
            return y

        batch._states = stubbed
        assert np.linalg.det(ray_states(batch, 0.7)[2][0]) == pytest.approx(0.7 ** 3,
                                                                            rel=1e-12)
        with pytest.raises(G.ConjugatePointError, match="conjugate") as err:
            batch.densities(0.7)
        lo, hi = err.value.bracket
        assert lo <= 0.5 <= hi and hi - lo < 1e-9

    def test_no_conjugate_point_on_catalog_ray(self, section6_pot):
        ray = one_ray(section6_pot, np.array([1.0, 0, 0, 0]), 0.09)

        def sign(r):
            return np.linalg.slogdet(ray_states(ray, r)[2]).sign[0]

        assert G._conjugate_point(sign, ray.r_max) is None


class TestConvergenceOrder:
    def test_fixed_step_rk4_slope(self):
        """Classical RK4 on the combined field self-converges at order >= 4."""
        n, K = 2, -3.0
        pot = P.space_form(n, K)
        ref = G.GeodesicBatch(pot, np.zeros(n), [np.array([1.0, 0, 0, 0])], 0.4, tol=1e-13)
        y0 = ref._states(0.0)

        def density_at_end(h):
            y = y0.copy()
            r = 0.0
            while r < 0.4 - 1e-12:
                k1 = ref._rhs(y)
                k2 = ref._rhs(y + h / 2 * k1)
                k3 = ref._rhs(y + h / 2 * k2)
                k4 = ref._rhs(y + h * k3)
                y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
                r += h
            J = ref._unpack(y)[2][0]
            return float(np.sqrt(np.linalg.det(J.T @ J)))

        truth = density_at_end(0.0025)
        hs = (0.04, 0.02, 0.01)
        errs = [abs(density_at_end(h) - truth) for h in hs]
        A = np.vstack([np.log(hs), np.ones(3)]).T
        slope = float(np.linalg.lstsq(A, np.log(errs), rcond=None)[0][0])
        assert slope >= 3.9

    def test_default_tolerance_accuracy(self):
        """Errors against the closed form stay far below the check tolerances."""
        for K in (1.0, -1.0):
            pot = P.space_form(2, K)
            model = ModelSpace(2, K)
            ray = one_ray(pot, np.array([1.0, 0, 0, 0]), 0.4)
            err = abs(ray.densities(0.4)[0][0] - M.density(model, 0.4))
            assert err < 1e-9


class TestBatchedIntegrator:
    def test_single_ray_matches_scipy_dop853(self, section6_pot):
        """solve_ivp(DOP853) on the same right-hand side and tolerance is the oracle."""
        from scipy.integrate import solve_ivp
        batch = G.GeodesicBatch(section6_pot, np.zeros(2), [np.array([0.5, 0.2, 0.1, -0.4])],
                                0.09, tol=1e-11)
        nfev = batch.nfev
        sol = solve_ivp(lambda r, y: batch._rhs(y[None])[0], (0.0, 0.09),
                        batch._states(0.0)[0], method="DOP853", rtol=1e-11, atol=1e-11,
                        dense_output=True)
        assert sol.nfev == nfev
        for r in np.linspace(0.0, 0.09, 7):
            np.testing.assert_allclose(batch._states(r)[0], sol.sol(r), rtol=0, atol=1e-12)

    def test_tableau_and_step_constants_are_scipys(self):
        """The tableau loaded by path is scipy's module; the step constants are rk's."""
        from scipy.integrate._ivp import dop853_coefficients as dop
        from scipy.integrate._ivp import rk
        for name in ("A", "B", "C", "E3", "E5", "D"):
            assert np.array_equal(getattr(G.dop, name), getattr(dop, name)), name
        for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
            assert getattr(G.dop, name) == getattr(dop, name), name
        assert (G.SAFETY, G.MIN_FACTOR, G.MAX_FACTOR) == (rk.SAFETY, rk.MIN_FACTOR,
                                                          rk.MAX_FACTOR)

    def test_error_norm_is_scipys_norm_of_each_ray(self):
        """Each ray's norm is scipy's over its own components, not one over the stack."""
        from scipy.integrate._ivp.rk import DOP853
        rng = np.random.default_rng(3)
        K = rng.normal(size=(13, 4, 39)) * np.array([1.0, 1e-3, 1e3, 0.0])[None, :, None]
        scale = rng.uniform(0.5, 2.0, size=(4, 39))
        norms = G._error_norms(K, 0.01, scale)
        for i in range(4):
            assert norms[i] == pytest.approx(
                DOP853._estimate_error_norm(DOP853, K[:, i], 0.01, scale[i]), rel=1e-13)

    def test_a_ray_leaving_the_ball_refuses_the_batch(self, space_form_k1):
        """The outward ray reaches |z| = 0.42 before r = 0.3, so its batch is
        refused and the message names it; the three inward rays as a batch
        match each ray integrated alone."""
        p = np.array([0.3, 0.0])
        dirs = [np.array(d, dtype=float) for d in
                ([1, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0])]
        with pytest.raises(C.KahlerDomainError, match="ray 0 leaves the validity ball"):
            G.GeodesicBatch(space_form_k1, p, dirs, 0.3, tol=1e-11)
        batch = G.GeodesicBatch(space_form_k1, p, dirs[1:], 0.3, tol=1e-11)
        assert batch.r_max == 0.3
        for k, e0 in enumerate(dirs[1:]):
            alone = G.GeodesicBatch(space_form_k1, p, [e0], 0.3, tol=1e-11)
            for r in (0.2, 0.3):
                z, _, J, _ = ray_states(batch, r)
                np.testing.assert_allclose(z[k], ray_states(alone, r)[0][0],
                                           rtol=0, atol=1e-11)
                assert np.linalg.det(J[k]) == pytest.approx(alone.densities(r)[0][0],
                                                            rel=1e-10)

    def test_stage_sums_call_no_blas(self, monkeypatch):
        """A 64-ray generic batch integrates with numpy's BLAS entry points made to
        raise, and gives the densities of an unpatched run."""
        pot = P.perturbed(2, 0)
        dirs = np.random.default_rng(5).normal(size=(64, 4))

        def run():
            return G.GeodesicBatch(pot, np.zeros(2), dirs, 0.04).densities(0.03)

        want = run()
        for name in ("dot", "tensordot", "inner", "vdot"):
            def refuse(*args, name=name, **kwargs):
                raise AssertionError(f"numpy.{name} called")
            monkeypatch.setattr(np, name, refuse)
        got = run()
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def series_rhs(batch, Y):
    """The ray right-hand side by the series formula at length 1:
    ``connection_and_curvature``, ``transport`` and ``frame_curvature_matrix``,
    the path of the curvature jets."""
    z, full, J, Jp = batch._unpack(Y)
    gam, RH = C.connection_and_curvature(*batch._ws.field_values(z[None]))
    out = np.empty_like(Y)
    dz, dfull, dJ, dJp = batch._unpack(out)
    dz[:] = full[:, 0]
    dfull[:] = -C.transport(full[None], gam)[0]
    dJ[:] = Jp
    dJp[:] = C.frame_curvature_matrix(RH, full[None])[0] @ J
    return out


class TestPointRightHandSide:
    @pytest.mark.parametrize("rays", [1, 2, 64])
    @pytest.mark.parametrize("pot", [P.section6(0.1), P.perturbed(2, 0), P.perturbed(3, 0),
                                     P.perturbed(4, 0), P.space_form(3, 1, degree=12)],
                             ids=["section6", "perturbed2", "perturbed3", "perturbed4",
                                  "space_form3"])
    def test_point_formula_equals_the_series_formula(self, pot, rays):
        """``_rhs`` agrees with the series formula at length 1 to 1e-14 of
        each block's largest entry, on states whose frames are perturbed off
        orthonormal, so the Kahler symmetries it uses are tested, not the
        frame's."""
        n = pot.n
        dirs = np.random.default_rng(11).normal(size=(rays, 2 * n))
        batch = G.GeodesicBatch(pot, np.zeros(n), dirs, 1e-3)
        Y = batch._states(1e-3) + 1e-3 * np.random.default_rng(12).normal(size=(rays, batch._dim))
        got, want = batch._unpack(batch._rhs(Y)), batch._unpack(series_rhs(batch, Y))
        for name, g, w in zip(("z", "frame", "J", "J'"), got, want):
            assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max(), name


def test_one_ode_tolerance_default():
    """The rays, the checks and the CLI default to the one tolerance ``ODE_TOL``."""
    assert G.ODE_TOL == 1e-11
    for fn, param in ((G.GeodesicBatch, "tol"), (comparison.SphereFlow, "tol"),
                      (comparison.check_volume_ratio, "tol_ode"),
                      (comparison.check_average_laplacian, "tol_ode"),
                      (comparison.rigidity_probe, "tol_ode")):
        assert inspect.signature(fn).parameters[param].default is G.ODE_TOL, fn.__name__
    for which in ("thm3", "thm4", "rigidity"):
        assert cli._build_parser().parse_args(["check", "--which", which]).tol is G.ODE_TOL
