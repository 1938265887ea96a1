"""Closed-form model geometry and its series coefficients."""

import math

import numpy as np
import pytest

from kahlercomp import model_space as M
from kahlercomp.model_space import ModelSpace
from kahlercomp.sphere import unit_sphere_volume


class TestDensity:
    def test_flat_power_law(self):
        model = ModelSpace(2, 0.0)
        for r in (0.1, 0.7, 2.0):
            assert M.density(model, r) == r ** 3

    def test_positive_curvature_closed_form(self):
        model = ModelSpace(2, 3.0)  # c = 2
        r = 0.4
        expected = (math.sin(math.sqrt(2) * r) / math.sqrt(2)) \
            * (math.sqrt(2) * math.sin(r / math.sqrt(2))) ** 2
        assert M.density(model, r) == pytest.approx(expected, rel=1e-14)

    def test_sign_flip_is_analytic_continuation(self):
        r = 0.3
        for n in (2, 3):
            neg = ModelSpace(n, -2.0)
            c = neg.c
            expected = (math.sinh(math.sqrt(-c) * r) / math.sqrt(-c)) \
                * (math.sinh(math.sqrt(-c / 4) * r) / math.sqrt(-c / 4)) ** (2 * n - 2)
            assert M.density(neg, r) == pytest.approx(expected, rel=1e-14)

    def test_flat_limit(self):
        model = ModelSpace(2, 1e-9)
        assert M.density(model, 0.5) == pytest.approx(0.5 ** 3, rel=1e-9)

    def test_domain_error_beyond_conjugate_radius(self):
        model = ModelSpace(2, 3.0)
        bad = model.conjugate_radius() * 1.01
        with pytest.raises(ValueError, match="conjugate"):
            M.density(model, bad)
        with pytest.raises(ValueError, match="conjugate"):
            M.laplacian(model, bad)

    def test_scaling_law(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            s = float(rng.uniform(0.5, 2.0))
            n, K, r = 2, 1.7, 0.3
            lhs = ModelSpace(n, K / s ** 2)
            rhs = ModelSpace(n, K)
            assert M.density(lhs, s * r) == pytest.approx(
                s ** (2 * n - 1) * M.density(rhs, r), rel=1e-12)


class TestLaplacian:
    def test_flat(self):
        assert M.laplacian(ModelSpace(2, 0.0), 0.5) == pytest.approx(3 / 0.5)

    def test_leading_asymptote(self):
        for n, K in ((2, 2.0), (3, -1.0)):
            model = ModelSpace(n, K)
            r = 1e-5
            assert M.laplacian(model, r) == pytest.approx((2 * n - 1) / r, rel=1e-9)

    def test_matches_log_derivative_of_density(self):
        model = ModelSpace(2, -2.0)
        h = 1e-6
        for r in np.linspace(0.05, 1.0, 9):
            fd = (math.log(M.density(model, r + h))
                  - math.log(M.density(model, r - h))) / (2 * h)
            assert M.laplacian(model, r) == pytest.approx(fd, rel=1e-8, abs=1e-10)

    def test_small_r_series_branch_continuous(self):
        model = ModelSpace(2, 3.0)
        # series branch engages when c r^2 < 1e-6; straddle the switch tightly
        r_switch = math.sqrt(1e-6 / model.c)
        lo = M.laplacian(model, r_switch * (1 - 1e-9))
        hi = M.laplacian(model, r_switch * (1 + 1e-9))
        assert lo == pytest.approx(hi, rel=1e-8)


class TestAreaVolume:
    def test_flat_formulas(self):
        model = ModelSpace(2, 0.0)
        assert M.sphere_area(model, 1.0) == pytest.approx(2 * math.pi ** 2, rel=1e-14)
        assert M.ball_volume(model, 1.0) == pytest.approx(math.pi ** 2 / 2, rel=1e-11)

    def test_flat_volume_ratio(self):
        model = ModelSpace(2, 0.0)
        a, b = 0.3, 0.9
        assert (M.ball_volume(model, b) / M.ball_volume(model, a)
                == pytest.approx((b / a) ** 4, rel=1e-10))

    def test_area_is_log_derivative_consistent(self):
        model = ModelSpace(3, 2.0)
        h = 1e-6
        for r in (0.2, 0.8):
            fd = (M.sphere_area(model, r + h) - M.sphere_area(model, r - h)) / (2 * h)
            assert fd / M.sphere_area(model, r) == pytest.approx(
                M.laplacian(model, r), rel=1e-7)

    def test_closed_form_volume_matches_quadrature(self):
        """Vol(S^{2n-1}) sn_{c/4}^{2n} / (2n) against adaptive quadrature of the area."""
        from scipy.integrate import quad
        for n in (2, 3):
            for K in (1.0, -1.2, 3.0):
                model = ModelSpace(n, K)
                for r in (0.005, 0.3):
                    area = quad(lambda s: M.sphere_area(model, s), 0.0, r,
                                epsabs=0.0, epsrel=1e-13)[0]
                    assert M.ball_volume(model, r) == pytest.approx(area, rel=1e-13)

    def test_volume_matches_series_extraction(self):
        model = ModelSpace(2, 2.0)
        ms = M.model_series(model, 8)
        for r in (0.01, 0.05):
            series_vol = sum(ms.coefficients[k] * r ** (4 + k) / (4 + k)
                             for k in range(9))
            assert M.ball_volume(model, r) == pytest.approx(series_vol, rel=1e-10)


class TestModelSeries:
    def test_constant_term_is_sphere_volume(self):
        for n in (2, 3):
            ms = M.model_series(ModelSpace(n, 1.3), 6)
            assert ms.coefficients[0] == pytest.approx(unit_sphere_volume(n), rel=1e-14)

    def test_odd_coefficients_vanish(self):
        ms = M.model_series(ModelSpace(2, -1.7), 9)
        assert all(ms.coefficients[k] == 0.0 for k in (1, 3, 5, 7, 9))

    def test_c2_c4_match_numerical_differentiation(self):
        model = ModelSpace(2, 2.0)
        ms = M.model_series(model, 4)
        vol = unit_sphere_volume(2)

        def w(r):
            return vol * M.density(model, r) / r ** 3

        h = 0.01
        samples = {k: w(k * h) for k in range(1, 5)}
        # even function: W(r) = c0 + c2 r^2 + c4 r^4 + ...; Richardson in h^2
        def est(hh):
            return (w(hh) - ms.coefficients[0]) / hh ** 2

        e1, e2 = est(h), est(h / 2)
        c2 = (4 * e2 - e1) / 3
        assert c2 == pytest.approx(ms.coefficients[2], rel=1e-6)
        def est4(hh):
            return (w(hh) - ms.coefficients[0] - ms.coefficients[2] * hh ** 2) / hh ** 4
        e1, e2 = est4(2 * h), est4(h)
        c4 = (4 * e2 - e1) / 3
        assert c4 == pytest.approx(ms.coefficients[4], rel=1e-5)

    def test_einstein_contraction_of_model_tensor(self):
        # contracting the constant-curvature tensor yields Ricci exactly K
        for n, K in ((2, 3.0), (3, -2.0)):
            d = np.eye(n)
            c_tensor = (K / (n + 1)) * (np.einsum("ij,kl->ijkl", d, d)
                                        + np.einsum("il,jk->ijkl", d, d))
            ric = np.einsum("kl,ijkl->ij", d, c_tensor)
            assert np.allclose(ric, K * d, atol=1e-14)
