"""Curvature data: symmetries, sign anchors, golden values, jets."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kahlercomp import comparison
from kahlercomp import curvature as C
from kahlercomp import geodesic
from kahlercomp import potential as P
from kahlercomp.polynomials import QC, CPoly, cauchy_product
from oracles import (cayley_rotated, complex_rep, curvature_array, poly_values, ray_states,
                     real_pairing, ricci, rm_value, scalar_curvature, transport_vf)


def indefinite_at_06():
    """|z1|^2 + |z2|^2 - 3|z1|^4 - 3|z2|^4: its metric is indefinite at (0.6, 0)."""
    return P.RealAnalyticPotential(
        2, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), 1),
            ((2, 0), (2, 0), -3), ((0, 2), (0, 2), -3)],
        validity_radius=1.0)


def space_form_tensor(n, K):
    """Constant holomorphic-curvature array (K/(n+1)) (d_ij d_kl + d_il d_jk)."""
    d = np.eye(n)
    return (K / (n + 1)) * (np.einsum("ij,kl->ijkl", d, d)
                            + np.einsum("il,jk->ijkl", d, d))


class TestMetric:
    def test_flat_identity_everywhere(self, flat2):
        for z in (np.zeros(2), np.array([0.3 + 0.2j, -0.5j])):
            m = C.metric_at(flat2, z)
            assert np.allclose(m.g, np.eye(2), atol=0)

    def test_section6_g11_g12_exact(self, section6_pot):
        a = Fraction(1, 10)
        ws = C.workspace(section6_pot)
        g11_expected = (CPoly.constant(2, 1)
                        + CPoly.monomial(2, (1, 0), (1, 0), 4 * a)
                        + CPoly.monomial(2, (0, 1), (0, 1), 8 * a)
                        + CPoly.monomial(2, (2, 0), (2, 0), 24 * a * a)
                        + CPoly.monomial(2, (1, 1), (1, 1), 112 * a * a)
                        + CPoly.monomial(2, (0, 2), (0, 2), 28 * a * a))
        assert ws.g[0][0].truncate(4) == g11_expected
        g12_expected = (CPoly.monomial(2, (0, 1), (1, 0), 8 * a)
                        + CPoly.monomial(2, (1, 1), (2, 0), 56 * a * a)
                        + CPoly.monomial(2, (0, 2), (1, 1), 56 * a * a))
        assert ws.g[0][1].truncate(4) == g12_expected

    def test_section6_det_exact(self, section6_pot):
        a = Fraction(1, 10)
        ws = C.workspace(section6_pot)
        det_expected = (CPoly.constant(2, 1)
                        + CPoly.monomial(2, (1, 0), (1, 0), 12 * a)
                        + CPoly.monomial(2, (0, 1), (0, 1), 12 * a)
                        + CPoly.monomial(2, (2, 0), (2, 0), 84 * a * a)
                        + CPoly.monomial(2, (0, 2), (0, 2), 84 * a * a)
                        + CPoly.monomial(2, (1, 1), (1, 1), 240 * a * a))
        det = C.ricci_series(ws.g, section6_pot.max_degree + 4)[0]
        assert det.truncate(4) == det_expected

    def test_outside_kahler_domain_reports_eigenvalue(self):
        pot = indefinite_at_06()
        with pytest.raises(C.KahlerDomainError) as err:
            C.metric_at(pot, np.array([0.6, 0.0]))
        assert err.value.eigenvalue is not None
        assert err.value.eigenvalue < 0

    def test_rays_refused_at_indefinite_base_point(self, rule6):
        pot = indefinite_at_06()
        p = np.array([0.6, 0.0])
        e0 = np.array([1.0, 0, 0, 0])
        for start in (lambda: geodesic.GeodesicBatch(pot, p, [e0], 0.01),
                      lambda: geodesic.GeodesicBatch(pot, p, [e0, [0, 0, 1.0, 0]], 0.01),
                      lambda: comparison.SphereFlow(pot, p, 0.01, rule=rule6)):
            with pytest.raises(C.KahlerDomainError) as err:
                start()
            assert err.value.eigenvalue < 0

    def test_point_outside_validity_ball(self, section6_pot):
        with pytest.raises(C.KahlerDomainError, match="validity"):
            C.metric_at(section6_pot, np.array([0.2, 0.0]))


class TestCurvatureTensor:
    def test_flat_vanishes(self, flat2):
        R = curvature_array(flat2, np.array([0.1 + 0.2j, 0.05]))
        assert np.max(np.abs(R)) == 0.0

    def test_space_form_components_at_origin(self):
        for n, K in ((2, 3.0), (2, -1.5), (3, 2.0)):
            R = curvature_array(P.space_form(n, K), np.zeros(n, dtype=complex))
            assert np.allclose(R, space_form_tensor(n, K), atol=1e-14)

    def test_kahler_symmetries_random(self):
        rng = np.random.default_rng(2)
        for seed in range(4):
            pot = P.perturbed(2, seed)
            z = (rng.normal(size=2) + 1j * rng.normal(size=2)) * 0.05
            R = curvature_array(pot, z)
            assert np.allclose(R, R.transpose(2, 1, 0, 3), atol=1e-13)
            assert np.allclose(R, R.transpose(0, 3, 2, 1), atol=1e-13)
            assert np.allclose(np.conj(R), R.transpose(1, 0, 3, 2), atol=1e-13)

    def test_ricci_matches_exact_log_det_series(self):
        """Oracle: the exact -d dbar log det g series, near 0 where its
        truncation at max_degree + 4 is negligible."""
        rng = np.random.default_rng(4)
        for seed in range(4):
            pot = P.perturbed(2, seed + 10)
            ws = C.workspace(pot)
            Z = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
            Z *= 0.04 * rng.uniform(0.25, 1.0, size=(5, 1)) / np.linalg.norm(Z, axis=1)[:, None]
            _, ric = ricci(pot, Z)
            exact_ric = C.ricci_series(ws.g, pot.max_degree + 4)[2]
            exact = np.stack([np.stack([poly_values(exact_ric[i][j], Z) for j in range(2)],
                                       axis=-1) for i in range(2)], axis=-2)
            assert np.max(np.abs(ric - exact)) <= 1e-10

    def test_ricci_matches_log_det_finite_difference(self):
        """Oracle: -d dbar log det g by a 4th-order central difference of the
        numeric log det g, where the truncated series is off by 1.7e-5."""
        pot = P.section6(0.1, 50)
        ws = C.workspace(pot)
        z0 = np.array([0.1, 0.0], dtype=complex)
        x0 = np.array([z0[0].real, z0[0].imag, z0[1].real, z0[1].imag])
        h = 5e-4

        def log_det(x):
            return np.linalg.slogdet(ws.metric_values(x[0::2] + 1j * x[1::2]))[1]

        def second(v):
            f = [log_det(x0 + k * h * v) for k in (-2, -1, 0, 1, 2)]
            return (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)

        E = np.eye(4)
        H = np.array([[second(E[a]) if a == b else
                       (second(E[a] + E[b]) - second(E[a] - E[b])) / 4
                       for b in range(4)] for a in range(4)])
        # d_i dbar_j = (1/4)(dx_i dx_j + dy_i dy_j + i (dx_i dy_j - dy_i dx_j))
        fd = np.array([[-0.25 * (H[2 * i, 2 * j] + H[2 * i + 1, 2 * j + 1]
                                 + 1j * (H[2 * i, 2 * j + 1] - H[2 * i + 1, 2 * j]))
                        for j in range(2)] for i in range(2)])
        assert np.max(np.abs(ricci(pot, z0[None])[1][0] - fd)) <= 1e-8

    def test_first_bianchi_identity(self):
        rng = np.random.default_rng(6)
        pot = P.perturbed(2, 3)
        R = curvature_array(pot, np.array([0.02 + 0.01j, -0.015 + 0.005j]))
        for _ in range(25):
            x, y, z, w = (complex_rep(rng.normal(size=4)) for _ in range(4))
            cyc = (rm_value(R, x, y, z, w) + rm_value(R, y, z, x, w)
                   + rm_value(R, z, x, y, w))
            assert abs(cyc) < 1e-10

    def test_j_invariance(self):
        rng = np.random.default_rng(8)
        pot = P.perturbed(2, 7)
        R = curvature_array(pot, np.array([0.02, 0.01 - 0.02j]))
        for _ in range(10):
            vs = [complex_rep(rng.normal(size=4)) for _ in range(4)]
            plain = rm_value(R, *vs)
            rotated = rm_value(R, *(1j * v for v in vs))
            assert plain == pytest.approx(rotated, rel=1e-12, abs=1e-12)

    def test_real_coordinate_finite_difference_oracle(self, section6_pot):
        """Independent check of the complex-to-real conversion and all signs."""
        ws = C.workspace(section6_pot)
        x0 = np.array([0.015, -0.01, 0.02, 0.005])

        def metric_real(x):
            return C.real_metric_matrix(ws.metric_values(x[0::2] + 1j * x[1::2]))

        def gamma(x, h):
            H = metric_real(x)
            dH = np.zeros((4, 4, 4))
            for a in range(4):
                e = np.zeros(4)
                e[a] = h
                dH[a] = (metric_real(x + e) - metric_real(x - e)) / (2 * h)
            Hinv = np.linalg.inv(H)
            return 0.5 * (np.einsum("ad,bdc->abc", Hinv, dH)
                          + np.einsum("ad,cbd->abc", Hinv, dH)
                          - np.einsum("ad,dbc->abc", Hinv, dH))

        def rm_fd(h):
            dG = np.zeros((4, 4, 4, 4))
            for c in range(4):
                e = np.zeros(4)
                e[c] = h
                dG[c] = (gamma(x0 + e, h) - gamma(x0 - e, h)) / (2 * h)
            Gm = gamma(x0, h)
            H = metric_real(x0)
            Rup = (np.einsum("cadb->abcd", dG) - np.einsum("dacb->abcd", dG)
                   + np.einsum("ace,edb->abcd", Gm, Gm)
                   - np.einsum("ade,ecb->abcd", Gm, Gm))
            return np.einsum("ea,abcd->cdbe", H, Rup)

        coarse, fine = rm_fd(2e-3), rm_fd(1e-3)
        oracle = (4 * fine - coarse) / 3.0
        RH = curvature_array(section6_pot, complex_rep(x0))
        basis = complex_rep(np.eye(4))
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    for e in range(4):
                        mine = rm_value(RH, basis[a], basis[b], basis[c], basis[e])
                        assert mine == pytest.approx(oracle[a, b, c, e], abs=5e-8)


def frame_at(pot, z, e0):
    """The J-adapted orthonormal frame of e0 at z, as complex representations."""
    G = C.metric_at(pot, z).g
    return C.complete_frame(G, C.normalize_direction(G, e0))


def frame_curvature(pot, z, e0):
    """R_uv at z in the frame of e0: the order-0 curvature jet."""
    return C.curvature_jets_along(pot, z, e0, order=0).R[0]


class TestRealFrame:
    def test_flat_zero(self, flat2):
        R_uv = frame_curvature(flat2, np.zeros(2), np.array([0.2, 0.5, -0.1, 0.3]))
        assert np.max(np.abs(R_uv)) == 0.0

    def test_section6_origin_diagonal(self, section6_pot):
        R_uv = frame_curvature(section6_pot, np.zeros(2), np.array([1.0, 0, 0, 0]))
        assert np.allclose(R_uv, np.diag([0.4, 0.4, 0.4]), atol=1e-10)

    def test_frame_is_j_adapted_orthonormal(self, section6_pot):
        frame_c = frame_at(section6_pot, np.zeros(2), np.array([0.3, -0.2, 0.4, 0.1]))
        G = C.workspace(section6_pot).metric_values(np.zeros(2))
        for i, a in enumerate(frame_c):
            for j, b in enumerate(frame_c):
                assert real_pairing(G, a, b) == pytest.approx(float(i == j), abs=1e-12)
        for k in range(2):
            assert np.allclose(1j * frame_c[2 * k], frame_c[2 * k + 1])

    def test_batched_frames_match_single_directions(self):
        """One batched completion equals one call per direction; the axis
        directions make their rows skip a Gram-Schmidt candidate."""
        pot = P.space_form(3, 1, degree=12)
        G = C.metric_at(pot, np.array([0.05, -0.02j, 0.03])).g
        rng = np.random.default_rng(3)
        xi0 = C.normalize_direction(G, np.vstack([np.eye(6), rng.normal(size=(20, 6))]))
        frames = C.complete_frame(G, xi0.reshape(2, 13, 3))
        assert frames.shape == (2, 13, 6, 3)
        frames = frames.reshape(26, 6, 3)
        for k, xi in enumerate(xi0):
            assert np.abs(frames[k] - C.complete_frame(G, xi)).max() <= 1e-15
        gram = 2.0 * (frames @ G @ np.swapaxes(frames.conj(), -1, -2)).real
        assert np.abs(gram - np.eye(6)).max() <= 1e-12

    def test_space_form_eigenstructure(self):
        """Brute-force contraction of the constant-curvature tensor form."""
        rng = np.random.default_rng(12)
        n, K = 2, 2.5
        pot = P.space_form(n, K)
        expected = space_form_tensor(n, K)
        c = 2 * K / (n + 1)
        for _ in range(5):
            e0 = rng.normal(size=2 * n)
            R_uv = frame_curvature(pot, np.zeros(n), e0)
            # oracle: same frame, but contracting the analytic tensor form
            frame_c = frame_at(pot, np.zeros(n), e0)
            oracle = np.array([[rm_value(expected, frame_c[0], u, frame_c[0], v)
                                for v in frame_c[1:]] for u in frame_c[1:]])
            assert np.allclose(R_uv, oracle, atol=1e-12)
            assert np.allclose(np.diag(R_uv), [-c, -c / 4, -c / 4], atol=1e-12)

    def test_sum_rule_random_potentials_and_directions(self):
        rng = np.random.default_rng(100)
        for trial in range(100):
            pot = P.perturbed(2, trial % 25)
            z = (rng.normal(size=2) + 1j * rng.normal(size=2)) * 0.03
            e0 = rng.normal(size=4)
            R_uv = frame_curvature(pot, z, e0)
            ric = ricci(pot, z[None])[1][0]
            xi0 = frame_at(pot, z, e0)[0]
            assert np.trace(R_uv) == pytest.approx(
                -real_pairing(ric, xi0, xi0), rel=1e-9, abs=1e-11)

    def test_degenerate_direction_rejected(self, flat2):
        with pytest.raises(ValueError, match="degenerate"):
            frame_at(flat2, np.zeros(2), np.zeros(4))


class TestRicciScalar:
    def test_flat_zero(self, flat2):
        origin = np.zeros((1, 2), dtype=complex)
        assert np.max(np.abs(ricci(flat2, origin)[1])) == 0.0
        assert scalar_curvature(flat2, origin)[0] == 0.0

    def test_section6_ricci_at_origin(self, section6_pot):
        origin = np.zeros((1, 2), dtype=complex)
        ric = ricci(section6_pot, origin)[1][0]
        assert np.allclose(ric, -1.2 * np.eye(2), atol=1e-14)
        assert scalar_curvature(section6_pot, origin)[0] == pytest.approx(-2.4)

    def test_section6_order3_vanishing_exact(self, section6_pot):
        a = Fraction(1, 10)
        ws = C.workspace(section6_pot)
        ric = C.ricci_series(ws.g, section6_pot.max_degree + 4)[2]
        for i in range(2):
            for j in range(2):
                combo = ric[i][j] + ws.g[i][j].scale(12 * a)
                assert combo.truncate(3).is_zero()

    def test_space_form_einstein(self):
        for n, K in ((2, 1.0), (3, -2.0)):
            pot = P.space_form(n, K)
            z = np.full((1, n), 0.02 + 0.01j)
            G, ric = ricci(pot, z)
            assert np.allclose(ric, K * G, atol=1e-10)


class TestUnitaryChange:
    """f(U z) for an exact unitary U, the Cayley transform of a rational
    skew-Hermitian A (``oracles.cayley_rotated``): z -> U z is an isometry,
    so the scalar curvature and the checks at the origin cannot tell the two
    potentials apart."""

    A = [[QC(0, Fraction(1, 3)), QC(Fraction(1, 2), Fraction(1, 5))],
         [QC(Fraction(-1, 2), Fraction(1, 5)), QC(0, Fraction(-1, 7))]]

    @pytest.mark.parametrize("seed", [0, 13])
    def test_scalar_curvature_at_the_rotated_point(self, seed):
        pot = P.perturbed(2, seed)
        rotated, U = cayley_rotated(pot, self.A)
        assert np.abs(U.conj().T @ U - np.eye(2)).max() <= 1e-15
        rng = np.random.default_rng(21)
        Z = (rng.normal(size=(20, 2)) + 1j * rng.normal(size=(20, 2))) * 0.03
        # f_rot(z) = f(Uz): scalar curvature at Uz equals rotated scalar at z
        s1 = scalar_curvature(rotated, Z)
        s2 = scalar_curvature(pot, Z @ U.T)
        assert s1 == pytest.approx(s2, rel=1e-9, abs=1e-14)

    @pytest.mark.parametrize("check", [comparison.check_volume_ratio,
                                       comparison.check_average_laplacian],
                             ids=["thm3", "thm4"])
    def test_check_margins_agree(self, check):
        """On the default rule the margins agree within 7.0e-16 (thm3) and
        5.7e-14 (thm4), and within 8.9e-16 and 5.7e-14 at degrees 6, 8 and 12."""
        pot = P.perturbed(2, 0)
        rotated, _ = cayley_rotated(pot, self.A)
        plain, turned = check(pot, -1.0), check(rotated, -1.0)
        assert plain.verdict == turned.verdict == "holds"
        assert turned.certificate.passed
        margins = [np.array([row["margin"] for row in rep.rows]) for rep in (plain, turned)]
        assert np.abs(margins[0] - margins[1]).max() <= 1e-12


def contracted_ricci(pot, Z):
    """Oracle: Ric_ij = sum_kl R[i,j,k,l] (G^-1)[l,k], from the curvature array
    of the connection route and LAPACK's inverse of G."""
    return np.einsum("...ijkl,...lk->...ij", curvature_array(pot, Z),
                     np.linalg.inv(C.workspace(pot).metric_values(Z)))


_RICCI_POTENTIALS = [P.section6(Fraction(1, 10), 0), P.perturbed(2, 0), P.perturbed(3, 0),
                     P.space_form(3, 1, degree=12), P.space_form(3, -1, degree=12)]


class TestRicciValues:
    @pytest.mark.parametrize("pot", _RICCI_POTENTIALS, ids=lambda p: p.label)
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_matches_contracted_curvature(self, pot, real):
        Z = comparison._ball_points(pot.n, 0.04, 256, 5)
        if real:
            Z = Z.real
        G, ric = ricci(pot, Z)
        expected = contracted_ricci(pot, Z)
        assert ric.shape == expected.shape == (256, pot.n, pot.n)
        assert np.abs(ric - expected).max() <= 1e-13 * np.abs(expected).max()
        assert np.array_equal(G, C.workspace(pot).metric_values(Z))

    def test_shapes_and_dtypes(self, section6_pot):
        """Point-major blocks: float64 at real points of a torus-invariant
        stack, complex128 otherwise, and one block for an empty batch."""
        ws = C.workspace(section6_pot)
        x = np.array([[0.03, 0.01]])
        for Z, dtype in ((x, np.float64), (x + 0.02j, np.complex128),
                         (np.tile(x, (12, 1)), np.float64),
                         (np.zeros((0, 2)), np.float64),
                         (np.zeros((0, 2), dtype=complex), np.complex128)):
            blocks = list(ws.ricci_blocks(Z))
            assert len(blocks) == 1
            rows, G, W, ric = blocks[0]
            assert rows == slice(0, len(Z))
            assert G.shape == W.shape == ric.shape == (2, 2, len(Z))
            assert G.dtype == W.dtype == ric.dtype == dtype
        perturbed = C.workspace(P.perturbed(2, 0))
        assert next(perturbed.ricci_blocks(x))[3].dtype == np.complex128
        batch = next(ws.ricci_blocks(np.tile(x, (12, 1))))[3]
        single = next(ws.ricci_blocks(x))[3]
        assert np.allclose(batch, np.broadcast_to(single, batch.shape), rtol=1e-15, atol=0)


class TestJets:
    def test_flat_all_zero(self, flat2):
        jets = C.curvature_jets_along(flat2, np.zeros(2),
                                      np.array([0.3, 0.1, 0.5, 0.2]), order=4)
        assert np.max(np.abs(jets.R)) == 0.0
        assert np.max(np.abs(jets.ric)) == 0.0

    def test_space_form_jets_vanish(self, space_form_k1):
        jets = C.curvature_jets_along(space_form_k1, np.zeros(2),
                                      np.array([1.0, 0, 0, 0]), order=4)
        assert np.max(np.abs(jets.R[1])) < 1e-7
        assert np.max(np.abs(jets.R[2])) < 1e-7
        assert np.max(np.abs(jets.R[3])) < 1e-5
        assert np.max(np.abs(jets.R[4])) < 1e-5

    def test_section6_ricci_jets_vanish(self, section6_pot):
        jets = C.curvature_jets_along(section6_pot, np.zeros(2),
                                      np.array([1.0, 0, 0, 0]), order=2)
        assert jets.ric[0] == pytest.approx(-1.2, abs=1e-12)
        assert abs(jets.ric[1]) < 1e-7
        assert abs(jets.ric[2]) < 1e-7

    def test_order0_slice_matches_frame_components(self, section6_pot):
        e0 = np.array([0.4, 0.1, -0.3, 0.2])
        jets = C.curvature_jets_along(section6_pot, np.zeros(2), e0, order=1)
        R = curvature_array(section6_pot, np.zeros(2, dtype=complex))
        frame_c = frame_at(section6_pot, np.zeros(2), e0)
        oracle = np.array([[rm_value(R, frame_c[0], u, frame_c[0], v)
                            for v in frame_c[1:]] for u in frame_c[1:]])
        assert np.allclose(jets.R[0], oracle, atol=1e-9)

    def test_degenerate_direction_rejected(self, flat2):
        with pytest.raises(ValueError, match="degenerate"):
            C.curvature_jets_along(flat2, np.zeros(2), np.zeros(4), order=1)

    def test_space_form_jets_vanish_through_order_6(self, space_form_k1):
        dirs = np.array([[1.0, 0, 0, 0], [0.3, 0.1, 0.5, 0.2], [0.0, -0.4, 0.1, 0.9]])
        jets = C.curvature_jets_along(space_form_k1, np.zeros(2), dirs, order=6)
        assert jets.R.shape == (3, 7, 3, 3)
        assert np.max(np.abs(jets.R[:, 1:])) <= 1e-12
        assert np.max(np.abs(jets.ric[:, 1:])) <= 1e-12

    def test_section6_jet_polynomial_matches_transported_frame(self):
        """Order-6 Taylor polynomial of R_uv against an independent DOP853 ray."""
        pot = P.section6(0.1, 50)
        e0 = np.array([1.0, 0, 0, 0])
        jets = C.curvature_jets_along(pot, np.zeros(2), e0, order=6)
        r = 0.01
        poly = sum(jets.R[j] * r ** j / math.factorial(j) for j in range(7))
        ray = geodesic.GeodesicBatch(pot, np.zeros(2), [e0], 2 * r, tol=1e-13)
        z, full, *_ = ray_states(ray, r)
        transported = C.frame_curvature_matrix(curvature_array(pot, z)[None], full[None])[0]
        assert np.max(np.abs(poly - transported[0])) <= 1e-12

    def test_batch_matches_single_directions(self, section6_pot):
        dirs = np.array([[1.0, 0, 0, 0], [0.4, 0.1, -0.3, 0.2]])
        jets = C.curvature_jets_along(section6_pot, np.zeros(2), dirs, order=3)
        for k, e0 in enumerate(dirs):
            one = C.curvature_jets_along(section6_pot, np.zeros(2), e0, order=3)
            assert np.allclose(jets.R[k], one.R, rtol=1e-13, atol=1e-13)
            assert np.allclose(jets.e0[k], one.e0, rtol=0, atol=1e-15)

    def test_indefinite_metric_refused(self):
        with pytest.raises(C.KahlerDomainError):
            C.curvature_jets_along(indefinite_at_06(), np.array([0.6, 0.0]),
                                   np.array([1.0, 0, 0, 0]), order=2)


def random_frames(rng, B, n):
    """B random complex frames (B, 2n, n): not orthonormal, which ``transport``
    does not need."""
    return rng.normal(size=(B, 2 * n, n)) + 1j * rng.normal(size=(B, 2 * n, n))


class TestTransport:
    """``transport`` against explicit index sums over the Christoffel table
    gam[i*n + k, m] = Gamma^m_ik."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_points_match_index_sums(self, n):
        rng = np.random.default_rng(40 + n)
        ws = C.workspace(P.perturbed(n, 0))
        z = 0.3 * ws.pot.validity_radius * (rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n)))
        z /= np.sqrt(2 * n)
        gam = C.connection_and_curvature(*ws.field_values(z[None]))[0]
        frame = random_frames(rng, 5, n)
        got = C.transport(frame[None], gam)[0]
        for b in range(5):
            G = gam[0, b].reshape(n, n, n)
            want = np.zeros((2 * n, n), dtype=complex)
            for a in range(2 * n):
                for m in range(n):
                    want[a, m] = sum(frame[b, 0, i] * frame[b, a, k] * G[i, k, m]
                                     for i in range(n) for k in range(n))
            np.testing.assert_allclose(got[b], want, rtol=1e-14, atol=0)

    def test_series_match_explicit_convolution(self):
        n, L, B = 3, 3, 4
        rng = np.random.default_rng(7)
        frame = np.stack([random_frames(rng, B, n) for _ in range(L)])
        gam = rng.normal(size=(L, B, n * n, n)) + 1j * rng.normal(size=(L, B, n * n, n))
        got = C.transport(frame, gam)
        G = gam.reshape(L, B, n, n, n)
        for t in range(L):
            want = np.zeros((B, 2 * n, n), dtype=complex)
            for p in range(t + 1):
                for q in range(t + 1 - p):
                    want += np.einsum("bi,bak,bikm->bam", frame[p, :, 0], frame[q],
                                      G[t - p - q])
            np.testing.assert_allclose(got[t], want, rtol=1e-14, atol=1e-14 * np.abs(want).max())

    @pytest.mark.parametrize("pot, n", [(P.section6(0.1), 2), (P.perturbed(3, 0), 3)])
    def test_jets_and_ray_rhs_equal_the_hand_written_formula(self, monkeypatch, pot, n):
        """The jets at order 6 and the ray right-hand side are bit for bit what
        the hand-written vf formula gives."""
        dirs = np.random.default_rng(11).normal(size=(6, 2 * n))
        batch = geodesic.GeodesicBatch(pot, np.zeros(n), dirs, 1e-3)
        Y = batch._states(0.0) + 1e-3 * np.random.default_rng(12).normal(size=(6, batch._dim))
        jets, rhs = C.curvature_jets_along(pot, np.zeros(n), dirs, order=6), batch._rhs(Y)
        monkeypatch.setattr(C, "transport", transport_vf)
        assert np.array_equal(C.curvature_jets_along(pot, np.zeros(n), dirs, order=6).R, jets.R)
        assert np.array_equal(batch._rhs(Y), rhs)


class TestWorkspaceCache:
    def test_many_potentials_keep_the_cache_at_its_bound(self):
        C.workspace.cache_clear()
        for k in range(2 * C.WORKSPACE_CACHE_SIZE + 3):
            C.workspace(P.section6(0.1, k))
            assert C.workspace.cache_info().currsize <= C.WORKSPACE_CACHE_SIZE
        assert C.workspace.cache_info().currsize == C.WORKSPACE_CACHE_SIZE

    def test_certificate_leaves_exact_series_unbuilt(self, monkeypatch):
        from kahlercomp import comparison as CMP

        def refuse(g, degree):
            raise AssertionError("the certificate built an exact Ricci series")

        C.workspace.cache_clear()
        monkeypatch.setattr(C, "ricci_series", refuse)
        pot = P.space_form(3, 1, degree=12)
        assert CMP.certify_ricci_bound(pot, 1.0, 0.04).passed
        assert {"det_g", "log_det", "ric", "trunc"}.isdisjoint(vars(C.workspace(pot)))

    def test_counterexample_builds_series_at_degree_6_once_per_potential(self, monkeypatch):
        from kahlercomp import comparison as CMP
        calls = []
        ricci_series = C.ricci_series

        def recording(g, degree):
            calls.append((tuple(map(tuple, g)), degree))
            return ricci_series(g, degree)

        monkeypatch.setattr(C, "ricci_series", recording)
        for lam, distinct in ((None, len({CMP.find_lambda(0.1, 0.05)[0], 0.0, 1.0})),
                              (0.5, 3), (1, 2)):
            calls.clear()
            assert CMP.verify_counterexample(a=0.1, lam=lam).passed_all
            assert [degree for _, degree in calls] == [6] * distinct
            assert len({g for g, _ in calls}) == distinct

    def test_counterexample_builds_each_workspace_once(self, monkeypatch):
        """The workspace of section6(a, lam) serves the certificate and the
        numeric stages; the stabilizer's endpoints lam = 1 and 0 give their
        exact metric to ``ricci_series`` and build no workspace."""
        from kahlercomp import comparison as CMP
        built, series_of = [], []
        workspace_class = C.CurvatureWorkspace
        ricci_series = C.ricci_series

        def counting(pot):
            built.append(pot)
            return workspace_class(pot)

        def recording(g, degree):
            series_of.append(tuple(map(tuple, g)))
            return ricci_series(g, degree)

        C.workspace.cache_clear()
        monkeypatch.setattr(C, "CurvatureWorkspace", counting)
        monkeypatch.setattr(C, "ricci_series", recording)
        CMP.verify_counterexample(a=0.1, lam=0.5)
        assert built == [P.section6(0.1, 0.5)]
        assert len(series_of) == len(set(series_of)) == 3
        expected = {tuple(map(tuple, C.exact_metric(P.section6(0.1, lam))))
                    for lam in (0.5, 1, 0)}
        assert set(series_of) == expected


class TestRicciSeries:
    @pytest.mark.parametrize("a", [Fraction(1, 10), Fraction(-1, 10)])
    @pytest.mark.parametrize("lam", [0, Fraction(1, 2), 1])
    def test_degree_6_is_the_truncation_of_the_full_series(self, a, lam):
        """Truncated products and log1p keep every term they keep exactly, so
        the degree-6 series are the degree max_degree + 4 ones truncated."""
        pot = P.section6(a, lam)
        g = C.workspace(pot).g
        det6, log6, ric6 = C.ricci_series(g, 6)
        det, log, ric = C.ricci_series(g, pot.max_degree + 4)
        assert det6 == det.truncate(6)
        assert log6 == log.truncate(6)
        assert all(ric6[i][j] == ric[i][j].truncate(4) for i in range(2) for j in range(2))
        assert max(p.total_degree() for row in ric6 for p in row) <= 4


class TestSeriesInverse:
    @staticmethod
    def cauchy_form(G):
        """Oracle: order k read from the whole Cauchy product of G_1.. and inv."""
        inv = np.empty_like(G)
        inv[0] = np.linalg.inv(G[0])
        for k in range(1, len(G)):
            inv[k] = -inv[0] @ cauchy_product(np.matmul, G[1:k + 1], inv[:k])[k - 1]
        return inv

    @pytest.mark.parametrize("batch", [(1710,), (150,), (2,), ()])
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_the_cauchy_product_bit_for_bit(self, batch, n, dtype):
        rng = np.random.default_rng(n)
        A = rng.normal(size=(10,) + batch + (n, n))
        if dtype is complex:
            A = A + 1j * rng.normal(size=A.shape)
        G = A.copy()
        G[0] = np.swapaxes(A[0].conj(), -1, -2) @ A[0] + n * np.eye(n)
        for L in (1, 2, 10):
            assert np.array_equal(C._series_inverse(G[:L]), self.cauchy_form(G[:L]))


class TestSymmetricPartials:
    """The workspace derives d_k g_ij for k <= i and d_k dbar_l g_ij for
    k <= i, l <= j only; every other entry is the same object, and equals the
    derivative it stands for."""

    @pytest.mark.parametrize("pot", [P.section6(Fraction(1, 10), 0), P.perturbed(2, 0),
                                     P.space_form(3, 1, degree=12), P.perturbed(3, 0)],
                             ids=lambda pot: pot.label)
    def test_aliases_are_the_derivatives(self, pot):
        ws = C.workspace(pot)
        n = pot.n
        idx = [(k, i, j) for k in range(n) for i in range(n) for j in range(n)]
        for k, i, j in idx:
            assert ws.dg[k][i][j] == ws.g[i][j].dz(k)
            for l in range(n):
                assert ws.d2g[k][l][i][j] == ws.dg[k][i][j].dzbar(l)
        d1 = {id(ws.dg[k][i][j]) for k, i, j in idx}
        d2 = {id(ws.d2g[k][l][i][j]) for k, i, j in idx for l in range(n)}
        assert len(d1) == n * n * (n + 1) // 2
        assert len(d2) == (n * (n + 1) // 2) ** 2
