"""Certificates, the two comparison checks, counterexample stages, rigidity probe."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from kahlercomp import comparison as CMP
from kahlercomp import curvature as C
from kahlercomp import model_space as M
from kahlercomp import potential as P
from kahlercomp.model_space import ModelSpace
from oracles import ricci


@pytest.fixture(scope="module")
def section6_flow(section6_pot, rule6):
    return CMP.SphereFlow(section6_pot, np.zeros(2), 0.0405, rule=rule6, tol=1e-11)


def _indefinite_potential():
    """g_11 = 1 - 12 |z1|^2 turns negative past |z1| = 0.29, inside rho = 0.6."""
    return P.RealAnalyticPotential(
        2, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), 1),
            ((2, 0), (2, 0), -3), ((0, 2), (0, 2), -3)],
        validity_radius=1.0)


def _assert_drawn_witness(witness, points):
    """The witness is one of the complex sample points, not its modulus."""
    w = np.array(witness)
    assert w.dtype == complex and np.all(w.imag != 0)
    assert np.any(np.all(points == w, axis=1))
    assert not np.array_equal(w, np.abs(w))


def _whitened_deficit(pot, K, Z):
    """L^-1 (Ric - K g) L^-H, g = L L^H, at each point of Z, by LAPACK."""
    G, ric = ricci(pot, Z)
    L = np.linalg.cholesky(G)
    X = np.linalg.solve(L, ric - K * G)
    return np.linalg.solve(L, np.conj(np.swapaxes(X, 1, 2)))


def _whitened_eigenvalues(pot, K, Z):
    """Eigenvalues of the whitened deficit at each point of Z, by LAPACK."""
    return np.linalg.eigvalsh(_whitened_deficit(pot, K, Z))


_INVARIANT = [(P.section6(0.1, 0), -1.2), (P.space_form(3, 1, degree=12), 1.0),
              (P.space_form(3, -1, degree=12), -1.0), (P.flat(2), 0.0)]


def _generic_potential(seed):
    """A benchmark-style generic input: the monomials of perturbed(2, 0), no
    torus symmetry, with the non-flat coefficients redrawn from ``seed``."""
    from fractions import Fraction

    from kahlercomp.polynomials import QC
    rng = np.random.default_rng(seed)
    base = P.perturbed(2, 0)
    terms, seen = [], set()
    for m in base.terms:
        if (m.alpha, m.beta) in seen:
            continue
        if sum(m.alpha) == 1 and m.alpha == m.beta:
            terms.append((m.alpha, m.beta, m.coeff))
            continue
        c = QC(Fraction(float(rng.normal(0, 0.02))),
               0 if m.alpha == m.beta else Fraction(float(rng.normal(0, 0.02))))
        terms.append((m.alpha, m.beta, c))
        if m.alpha != m.beta:
            terms.append((m.beta, m.alpha, c.conjugate()))
            seen.add((m.beta, m.alpha))
    return P.RealAnalyticPotential(2, terms, max_degree=base.max_degree,
                                   validity_radius=base.validity_radius,
                                   label=f"generic(n=2, seed={seed})")


class TestTorusReducedCertificate:
    """An invariant Ric - K g evaluated at |z| equals its value at z up to a
    diagonal unitary, so the certificate's eigenvalues are those of the
    unreduced complex evaluation."""

    @pytest.mark.parametrize("pot, K", _INVARIANT, ids=lambda x: getattr(x, "label", ""))
    def test_eigenvalues_at_moment_representatives(self, pot, K):
        Z = CMP._ball_points(pot.n, 0.04, 200, 3)
        at_z = _whitened_eigenvalues(pot, K, Z)
        at_modulus = _whitened_eigenvalues(pot, K, np.abs(Z))
        assert at_modulus.dtype == np.float64
        assert np.abs(at_z - at_modulus).max() <= 1e-13

    @pytest.mark.parametrize("pot, K", _INVARIANT, ids=lambda x: getattr(x, "label", ""))
    def test_min_eigenvalue_matches_complex_evaluation(self, pot, K):
        cert = CMP.certify_ricci_bound(pot, K, 0.04)
        Z = CMP._certificate_points(pot.n, 0.04, 10000, 0)
        expected = _whitened_eigenvalues(pot, K, Z)[:, 0].min()
        assert cert.symmetry == "torus" and cert.samples == len(Z)
        assert abs(cert.min_eigenvalue - expected) <= 1e-14

    @pytest.mark.parametrize("pot, K", [*_INVARIANT[:3], (_generic_potential(1), -1.0)],
                             ids=lambda x: getattr(x, "label", ""))
    def test_substitution_whitening_matches_lapack_solve(self, pot, K):
        """The certificate's whitening with the Ricci pass's W = L^-1 against
        LAPACK's factor and solve on the points the certificate evaluates."""
        cert = CMP.certify_ricci_bound(pot, K, 0.04)
        Z = CMP._certificate_points(pot.n, 0.04, 10000, 0)
        at = np.abs(Z) if pot.torus_invariant else Z
        assert abs(cert.min_eigenvalue - _whitened_eigenvalues(pot, K, at)[:, 0].min()) <= 1e-14

    def test_generic_potential_is_the_complex_computation(self):
        """A potential with no torus symmetry is certified at the drawn complex
        points: within rounding of LAPACK's whitening there, and away from the
        value at the moment representatives |z|."""
        pot = P.perturbed(2, 0)
        cert = CMP.certify_ricci_bound(pot, -1.0, 0.04)
        Z = CMP._certificate_points(2, 0.04, 10000, 0)
        assert cert.symmetry == "none" and cert.passed
        M = _whitened_deficit(pot, -1.0, Z)
        expected = np.linalg.eigvalsh(M)[:, 0].min()
        assert abs(cert.min_eigenvalue - expected) <= 8 * np.finfo(float).eps * np.abs(M).max()
        reduced = _whitened_eigenvalues(pot, -1.0, np.abs(Z))[:, 0].min()
        assert abs(cert.min_eigenvalue - reduced) > 1e-6


class TestCertificates:
    def test_flat_zero_bound_holds(self, flat2):
        cert = CMP.certify_ricci_bound(flat2, 0.0, 0.05, samples=500)
        assert cert.passed
        assert cert.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_space_form_tight_bound(self, space_form_k1):
        cert = CMP.certify_ricci_bound(space_form_k1, 1.0, 0.05, samples=500)
        assert cert.passed
        assert abs(cert.min_eigenvalue) < 1e-9

    def test_refusal_carries_witness(self, flat2):
        cert = CMP.certify_ricci_bound(flat2, 0.1, 0.05, samples=200)
        assert not cert.passed
        assert cert.witness is not None
        assert cert.min_eigenvalue == pytest.approx(-0.1, abs=1e-12)
        # a refusal without ties: the least eigenvalue is at one drawn point
        cert = CMP.certify_ricci_bound(P.section6(-0.1, 0), 1.2, 0.05, samples=200)
        assert not cert.passed and cert.symmetry == "torus"
        _assert_drawn_witness(cert.witness, CMP._certificate_points(2, 0.05, 200, 0))

    def test_indefinite_metric_refused_with_witness(self):
        pot = _indefinite_potential()
        cert = CMP.certify_ricci_bound(pot, 0.0, 0.6, samples=200)
        assert not cert.passed
        assert cert.min_eigenvalue == float("-inf")
        G = C.workspace(pot).metric_values(np.array(cert.witness))
        assert np.linalg.eigvalsh(G)[0] <= 0
        # a radial point along the direction of a drawn ball point
        assert cert.symmetry == "torus"
        _assert_drawn_witness(cert.witness, CMP._certificate_points(2, 0.6, 200, 0))

    def test_ricci_blocks_raise_on_the_indefinite_sample(self):
        """Ric is refused, not computed, on a sample where g is indefinite
        somewhere: a typed error, no NaN and no warning."""
        ws = C.workspace(_indefinite_potential())
        Z = CMP._certificate_points(2, 0.6, 200, 0)
        for at in (np.abs(Z), Z):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(np.linalg.LinAlgError):
                    list(ws.ricci_blocks(at))

    @pytest.mark.parametrize("pot, K", [(P.section6(0.1, 0), -1.2), (P.perturbed(2, 0), -1.0),
                                        (P.space_form(3, 1, degree=12), 1.0)],
                             ids=lambda x: getattr(x, "label", ""))
    def test_certificate_needs_no_inverse_and_no_curvature_array(self, pot, K, monkeypatch):
        """One point-major factor of G serves the Ricci values and the
        whitening: no LAPACK Cholesky factor, no G^-1 and no curvature array,
        and at n = 2 no ``eigvalsh``."""
        def refuse(*args, **kwargs):
            raise AssertionError("the certificate formed G^-1, the curvature array, a "
                                 "second factor of G or an eigendecomposition at n = 2")

        monkeypatch.setattr(C, "connection_and_curvature", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        if pot.n == 2:
            monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert CMP.certify_ricci_bound(pot, K, 0.04).passed

    def test_radius_beyond_validity_rejected(self, section6_pot):
        with pytest.raises(ValueError, match="validity"):
            CMP.certify_ricci_bound(section6_pot, -1.2, 0.5)

    @pytest.mark.parametrize("rho, samples, name", [
        (0.04, 0, "samples"), (0.04, -5, "samples"), (-0.04, 100, "rho"), (0.0, 100, "rho"),
        (math.nan, 100, "rho")])
    def test_empty_or_inverted_inputs_rejected(self, section6_pot, monkeypatch, rho,
                                               samples, name):
        def no_draw(*args):
            raise AssertionError("drew a sample")
        monkeypatch.setattr(CMP, "_certificate_points", no_draw)
        with pytest.raises(ValueError, match=name):
            CMP.certify_ricci_bound(section6_pot, -1.2, rho, samples=samples)

    def test_second_certificate_reuses_the_sample(self, monkeypatch):
        """A certificate with the key (n, rho, samples, seed) of an earlier one
        draws no new point and gives the same bits."""
        calls = []
        ball_points = CMP._ball_points

        def counted(*args):
            calls.append(args)
            return ball_points(*args)
        monkeypatch.setattr(CMP, "_ball_points", counted)
        CMP._certificate_points.cache_clear()
        pot = P.section6(-0.1, 0)
        first = CMP.certify_ricci_bound(pot, 1.2, 0.05, samples=200)
        drawn = len(calls)
        second = CMP.certify_ricci_bound(pot, 1.2, 0.05, samples=200)
        assert drawn > 0 and len(calls) == drawn
        assert not first.passed and first.witness is not None
        assert second.min_eigenvalue == first.min_eigenvalue
        assert second.witness == first.witness

    def test_certificate_points_are_read_only(self):
        Z = CMP._certificate_points(2, 0.05, 200, 0)
        with pytest.raises(ValueError, match="read-only"):
            Z[0, 0] = 1.0
        assert np.array_equal(CMP._certificate_points(2, 0.05, 200, 0)[0], np.zeros(2))

    def test_section6_passes_at_default_parameters(self, section6_pot):
        cert = CMP.certify_ricci_bound(section6_pot, -1.2, 0.05, samples=2000)
        assert cert.passed


@pytest.mark.parametrize("seed", [0, 1, 7])
class TestBallPoints:
    """The certificate's draw is uniform in the real 2n-ball of radius rho,
    judged on 10 000 points of each seed, each statistic within five standard
    deviations."""

    RHO, COUNT = 0.04, 10000

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_shape_and_radius(self, n, seed):
        Z = CMP._ball_points(n, self.RHO, self.COUNT, seed)
        assert Z.shape == (self.COUNT, n) and Z.dtype == np.complex128
        assert np.linalg.norm(Z, axis=1).max() <= self.RHO

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_seed_fixes_the_points(self, n, seed):
        Z = CMP._ball_points(n, self.RHO, self.COUNT, seed)
        assert np.array_equal(CMP._ball_points(n, self.RHO, self.COUNT, seed).view(np.uint64),
                              Z.view(np.uint64))
        assert not np.any(CMP._ball_points(n, self.RHO, self.COUNT, seed + 1) == Z)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_half_the_volume_lies_inside_the_median_radius(self, n, seed):
        """A uniform point of the 2n-ball lies within rho 2^(-1/2n) with
        probability 1/2."""
        Z = CMP._ball_points(n, self.RHO, self.COUNT, seed)
        share = np.mean(np.linalg.norm(Z, axis=1) <= self.RHO * 2.0 ** (-1 / (2 * n)))
        assert abs(share - 0.5) <= 5 * math.sqrt(0.25 / self.COUNT)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_real_coordinates_are_centred(self, n, seed):
        """Each real coordinate has mean 0 and variance rho^2 / (2n + 2)."""
        Z = CMP._ball_points(n, self.RHO, self.COUNT, seed)
        sigma = self.RHO / math.sqrt((2 * n + 2) * self.COUNT)
        assert np.abs(Z.view(float).mean(axis=0)).max() <= 5 * sigma

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_points_are_the_splitmix64_oracle(self, n, seed):
        """The blocked numpy draw against the oracle's one point at a time in
        Python ints and floats, across the first block boundary."""
        from oracles import ball_point
        Z = CMP._ball_points(n, self.RHO, 1100, seed)
        for i in (0, 1, 57, 1023, 1024, 1099):
            np.testing.assert_allclose(Z[i], ball_point(n, self.RHO, seed, i), rtol=0,
                                       atol=1e-14 * self.RHO)

    def test_points_do_not_depend_on_the_block_size(self, seed, monkeypatch):
        Z = CMP._ball_points(3, self.RHO, 1000, seed)
        monkeypatch.setattr(CMP, "BALL_BLOCK", 7)
        assert np.array_equal(CMP._ball_points(3, self.RHO, 1000, seed).view(np.uint64),
                              Z.view(np.uint64))


class TestBallPointSeeds:
    """The draw takes every seed of [0, 2^64), and mixes it before it offsets
    the counter."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_seeds_a_point_apart_share_no_point(self, n):
        """Unmixed, the seed (2n + 1) GAMMA would start the stream of seed 0
        one point later."""
        shifted = (2 * n + 1) * CMP.SPLITMIX_GAMMA % CMP.SEED_LIMIT
        Z = CMP._ball_points(n, 0.04, 200, 0)
        W = CMP._ball_points(n, 0.04, 200, shifted)
        assert not np.intersect1d(Z.view(float), W.view(float)).size

    def test_largest_seed_draws(self):
        from oracles import ball_point
        Z = CMP._ball_points(2, 0.04, 3, CMP.SEED_LIMIT - 1)
        np.testing.assert_allclose(Z[2], ball_point(2, 0.04, CMP.SEED_LIMIT - 1, 2), rtol=0,
                                   atol=1e-16)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70, 1.5])
    def test_seed_out_of_range_refused_before_drawing(self, section6_pot, monkeypatch, seed):
        def no_draw(*args):
            raise AssertionError("drew a sample")
        monkeypatch.setattr(CMP, "_certificate_points", no_draw)
        with pytest.raises(ValueError, match=rf"seed must be an integer in \[0, 2\^64\), "
                                             rf"got {seed}$"):
            CMP.certify_ricci_bound(section6_pot, -1.2, 0.04, seed=seed)


class TestCertificateCovariance:
    """Under z -> 2z the certificate's problem maps to itself: f(2z)/4 has the
    metric g(2z) and the Ricci form 4 Ric(2z), so it satisfies Ric >= 4K g on
    the 0.02-ball exactly where f satisfies Ric >= K g on the 0.04-ball, with
    every whitened eigenvalue times 4.  The scalings are by powers of two, so
    the sample and the eigenvalues scale to the last bit."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_sample_halves_with_the_radius(self, n):
        half = CMP._certificate_points(n, 0.02, 10000, 0)
        assert np.array_equal(half, CMP._certificate_points(n, 0.04, 10000, 0) / 2)

    @pytest.mark.parametrize("pot, K", [(P.section6(0.1, 0), -1.2), (P.perturbed(2, 0), -1.0),
                                        (P.perturbed(3, 0), -1.0),
                                        (P.space_form(3, 1, degree=12), 1.0)],
                             ids=lambda x: getattr(x, "label", ""))
    def test_min_eigenvalue_scales_by_four(self, pot, K):
        from oracles import scaled
        cert = CMP.certify_ricci_bound(pot, K, 0.04)
        cert_half = CMP.certify_ricci_bound(scaled(pot, 2), 4 * K, 0.02)
        assert cert.passed and cert_half.passed
        assert cert_half.min_eigenvalue == 4 * cert.min_eigenvalue


class TestLeastEigenvalues:
    """The closed forms at n = 2 and n = 3 against LAPACK's ``eigvalsh`` on
    point-major stacks of Hermitian matrices, from tiny to large entries."""

    @staticmethod
    def stacks(n, dtype, rng):
        def draw(*shape):
            x = rng.normal(size=shape)
            return x + 1j * rng.normal(size=shape) if dtype is complex else x

        def hermitian(x):
            return x + np.conj(np.swapaxes(x, 1, 2))
        random = hermitian(draw(200, n, n))
        v = draw(200, n)
        rank1 = v[:, :, None] * np.conj(v[:, None, :])
        diagonal = np.zeros((200, n, n), dtype=dtype)
        diagonal[:, range(n), range(n)] = rng.normal(size=(200, n))
        near = np.zeros((200, n, n), dtype=dtype)
        near[:, 0, 0] = rng.normal(size=200)
        near[:, range(1, n), range(1, n)] = \
            near[:, :1, 0] * (1 + rng.normal(size=(200, n - 1)) * 1e-14)
        near[:, 1, 0] = draw(200) * 1e-15
        near[:, 0, 1] = np.conj(near[:, 1, 0])
        tiny = diagonal.copy()
        tiny[:, 1, 0] = draw(200) * 1e-20
        tiny[:, 0, 1] = np.conj(tiny[:, 1, 0])
        out = {"random": random, "rank1": rank1, "diagonal": diagonal,
               "zero": np.zeros((4, n, n), dtype=dtype), "near_degenerate": near,
               "tiny_off_diagonal": tiny}
        if n == 3:
            # spectra with a double (least or top) or a triple near-coincidence,
            # in a random unitary frame, and matrices near a multiple of I
            a = rng.normal(size=(200, 1))
            pair = a * (1 + rng.normal(size=(200, 1)) * 1e-14)
            gap = np.abs(rng.normal(size=(200, 1)))
            Q = np.linalg.qr(draw(600, 3, 3))[0].reshape(3, 200, 3, 3)
            for name, spectrum, frame in [
                    ("double_least", np.hstack([a, pair, a + gap]), Q[0]),
                    ("double_top", np.hstack([a, pair, a - gap]), Q[1]),
                    ("triple", a * (1 + rng.normal(size=(200, 3)) * 1e-14), Q[2])]:
                out[name] = (frame * spectrum[:, None, :]) @ np.conj(np.swapaxes(frame, 1, 2))
            out["near_identity"] = (hermitian(draw(200, 3, 3)) * 1e-2
                                    + np.eye(3) * rng.normal(size=(200, 1, 1)))
        return out

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150])
    def test_closed_form_matches_eigvalsh(self, n, dtype, scale):
        rng = np.random.default_rng(int(np.log10(scale)) + 400 + (dtype is complex)
                                    + 1000 * (n - 2))
        for name, stack in self.stacks(n, dtype, rng).items():
            M = stack * scale
            got = CMP._least_eigenvalues(np.moveaxis(M, 0, -1))
            expected = np.linalg.eigvalsh(M)[:, 0]
            assert got.dtype == np.float64 and np.all(np.isfinite(got)), name
            assert np.abs(got - expected).max() <= 8 * np.finfo(float).eps * np.abs(M).max(), name

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_n3_matches_50_digit_eigenvalues(self, dtype):
        """Matrix by matrix, the 3 x 3 root is within 8 eps max|M| of the
        least eigenvalue computed to 50 digits, where the guard keeps it."""
        import mpmath
        rng = np.random.default_rng(31 + (dtype is complex))
        stacks = self.stacks(3, dtype, rng)
        M = np.concatenate([stacks[name][:40] for name in
                            ("random", "near_degenerate", "double_top", "triple",
                             "near_identity")])
        got = CMP._least_eigenvalues(np.moveaxis(M, 0, -1))
        with mpmath.workdps(50):
            for k, matrix in enumerate(M):
                A = mpmath.matrix([[complex(matrix[i, j]) if i > j else
                                    (matrix[i, i].real if i == j else complex(np.conj(matrix[j, i])))
                                    for j in range(3)] for i in range(3)])
                exact = float(min(mpmath.eighe(A, eigvals_only=True)))
                assert abs(got[k] - exact) <= 8 * np.finfo(float).eps * np.abs(matrix).max(), k

    @pytest.mark.parametrize("pot, K", [(P.space_form(3, 1, degree=12), 1.0),
                                        (P.space_form(3, -1, degree=12), -1.0),
                                        (P.perturbed(3, 0), -1.0)],
                             ids=lambda x: getattr(x, "label", ""))
    def test_n3_certificate_stacks(self, pot, K, monkeypatch):
        """Every whitened deficit of an n = 3 certificate, the equality case
        M ~ 0 of the space forms included, holds 8 eps max|M| against
        ``eigvalsh`` matrix by matrix.  ``eigvalsh`` sees only the points the
        guard refuses, none near a multiple of the identity, and the
        certificate's minimum is that of the recorded stack."""
        stacks, handed = [], []
        trigonometric, eigvalsh = CMP._trigonometric_least, np.linalg.eigvalsh

        def recorded(M):
            stacks.append(M.copy())
            return trigonometric(M)

        def counted(M):
            handed.append(len(M))
            return eigvalsh(M)
        monkeypatch.setattr(CMP, "_trigonometric_least", recorded)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        cert = CMP.certify_ricci_bound(pot, K, 0.04)
        monkeypatch.undo()
        M = np.concatenate(stacks, axis=-1)
        got = CMP._least_eigenvalues(M)
        expected = np.linalg.eigvalsh(np.moveaxis(M, -1, 0))[:, 0]
        bound = 8 * np.finfo(float).eps * np.abs(M).max(axis=(0, 1))
        assert M.shape[-1] == cert.samples and np.all(np.abs(got - expected) <= bound)
        assert cert.min_eigenvalue == got.min()
        refused = trigonometric(M)[1].sum()
        assert sum(handed) == refused
        if pot.torus_invariant:
            assert 0 < refused <= 0.1 * M.shape[-1]
        else:
            assert refused == 0

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_n4_is_eigvalsh(self, dtype):
        """At n >= 4 there is no closed form: the least eigenvalues are LAPACK's."""
        rng = np.random.default_rng(44 + (dtype is complex))
        x = rng.normal(size=(300, 4, 4))
        if dtype is complex:
            x = x + 1j * rng.normal(size=(300, 4, 4))
        M = x + np.conj(np.swapaxes(x, 1, 2))
        got = CMP._least_eigenvalues(np.moveaxis(M, 0, -1))
        assert np.array_equal(got, np.linalg.eigvalsh(M)[:, 0])

    @pytest.mark.parametrize("pot, K", [(P.space_form(4, 1, degree=8), 1.0),
                                        (P.perturbed(4, 0), -1.0)],
                             ids=lambda x: getattr(x, "label", ""))
    def test_n4_certificate(self, pot, K):
        """The n = 4 certificate passes on the equality case, with a least
        eigenvalue at rounding level, and on a generic potential."""
        cert = CMP.certify_ricci_bound(pot, K, 0.04, samples=300)
        assert cert.passed and cert.samples == 300 + 1 + 64 * 8
        if K > 0:
            assert abs(cert.min_eigenvalue) <= 1e-12

    def test_reads_the_lower_triangle(self):
        M = np.array([[2.0, 5.0], [1.0, 3.0]])
        expected = np.linalg.eigvalsh(M)[0]
        assert CMP._least_eigenvalues(M[:, :, None])[0] == pytest.approx(expected, rel=1e-15)
        M = np.array([[2.0, 5.0, -7.0], [1.0, 3.0, 4.0], [0.5, -1.0, 1.0]])
        expected = np.linalg.eigvalsh(M)[0]
        assert CMP._least_eigenvalues(M[:, :, None])[0] == pytest.approx(expected, rel=1e-15)


class TestFindLambda:
    def test_zero_curvature_needs_nothing(self):
        assert CMP.find_lambda(0.0, 0.05)[0] == 0.0

    def test_positive_a_needs_nothing_at_default_radius(self):
        # the quartic remainder of Ric + 12 a g is PSD for a > 0
        assert CMP.find_lambda(0.1, 0.05, samples=2000)[0] == 0.0

    def test_negative_a_requires_stabilizer(self):
        lam, steps = CMP.find_lambda(-0.1, 0.05, samples=2000)
        assert lam > 0
        assert any(not ok for _, _, ok in steps)
        cert = CMP.certify_ricci_bound(P.section6(-0.1, lam), 1.2, 0.05, samples=2000)
        assert cert.passed

    @pytest.mark.parametrize("a, expected", [(0.05, 0.0), (-0.05, 0.003), (0.1, 0.0),
                                             (-0.1, 0.024), (0.2, 0.0), (-0.2, 0.192)])
    def test_weights_at_default_radius(self, a, expected):
        """The stabilizer weights of the counterexample's search, each within
        the 1% width of its bisection."""
        lam, _ = CMP.find_lambda(a, 0.05)
        assert abs(lam - expected) <= 0.01 * expected

    def test_monotone_in_radius(self):
        lam_small, _ = CMP.find_lambda(-0.1, 0.025, samples=1500)
        lam_large, _ = CMP.find_lambda(-0.1, 0.05, samples=1500)
        assert lam_small <= lam_large * (1 + 1e-9)


class TestVerdicts:
    def test_bands(self):
        assert CMP._verdict([0.0, 1e-9], 1e-7) == "holds"
        assert CMP._verdict([-5e-8], 1e-7) == "holds"
        assert CMP._verdict([-5e-7], 1e-7) == "inconclusive"
        assert CMP._verdict([-2e-6], 1e-7) == "violated"


class TestTheorem3:
    def test_flat_equality(self, flat2, rule6):
        rep = CMP.check_volume_ratio(flat2, 0.0, rule=rule6, tol_ode=1e-11)
        assert rep.verdict == "holds"
        assert max(abs(r["margin"]) for r in rep.rows) < 1e-8

    def test_space_form_self_consistency(self, space_form_k1, rule6):
        rep = CMP.check_volume_ratio(space_form_k1, 1.0, rule=rule6, tol_ode=1e-11)
        assert rep.verdict == "holds"
        assert max(abs(r["margin"]) for r in rep.rows) < 1e-6

    def test_section6_holds(self, section6_pot, rule6):
        rep = CMP.check_volume_ratio(section6_pot, -1.2, rule=rule6)
        assert rep.verdict == "holds"
        assert rep.rule == {"degree": 6, "nodes": 2, "rays": 2, "symmetry": "torus"}

    def test_descending_grid_refused(self):
        """The pairs are taken in grid order, so a descending grid would compare
        Vol(B(0.02))/Vol(B(0.04)) and so on: perturbed(2, 0) at K = -1 read
        `violated` there while the same radii in increasing order hold."""
        from kahlercomp.sphere import build_rule
        pot, rule = P.perturbed(2, 0), build_rule(2, 4)
        with pytest.raises(ValueError, match="distinct radii in increasing order"):
            CMP.check_volume_ratio(pot, -1.0, [0.04, 0.02, 0.01], rule=rule)
        rep = CMP.check_volume_ratio(pot, -1.0, [0.01, 0.02, 0.04], rule=rule)
        assert rep.verdict == "holds"

    def test_ratio_monotone_in_radius(self, section6_pot, section6_flow):
        model = ModelSpace(2, -1.2)
        grid = np.linspace(0.005, 0.04, 8)
        ratios = [section6_flow.ball_volume(float(b)) / M.ball_volume(model, float(b))
                  for b in grid]
        assert all(ratios[i + 1] <= ratios[i] * (1 + 1e-9) for i in range(len(grid) - 1))

    def test_section6_margins_resolved(self, section6_pot, rule12):
        """Every margin of the default check is positive, not noise of either sign."""
        rep = CMP.check_volume_ratio(section6_pot, -1.2, rule=rule12)
        assert min(r["margin"] for r in rep.rows) > 0

    @pytest.mark.parametrize("name", ["flat", "space_form"])
    def test_equality_margins_at_roundoff(self, name, flat2, space_form_k1, rule12):
        pot, K = (flat2, 0.0) if name == "flat" else (space_form_k1, 1.0)
        rep = CMP.check_volume_ratio(pot, K, rule=rule12)
        assert max(abs(r["margin"]) for r in rep.rows) <= 1e-13

    def test_three_dimensional_equality_margins_at_roundoff(self):
        from kahlercomp.sphere import build_rule
        rep = CMP.check_volume_ratio(P.space_form(3, 1, degree=12), 1.0,
                                     rule=build_rule(3, 2))
        assert max(abs(r["margin"]) for r in rep.rows) <= 1e-12

    def test_missing_certificate_refused(self, flat2, rule6):
        with pytest.raises(ValueError, match=r"refused \(min eigenvalue -0\.5 "):
            CMP.check_volume_ratio(flat2, 0.5, rule=rule6)


class TestRadiusGrid:
    @pytest.mark.parametrize("check", [CMP.check_volume_ratio, CMP.check_average_laplacian])
    @pytest.mark.parametrize("grid", [[], [math.nan, 0.04], [0.0, 0.04], [-0.01, 0.04],
                                      [0.01, math.inf]])
    def test_refused_before_the_certificate(self, flat2, rule6, monkeypatch, check, grid):
        """An empty grid, or one radius that is not finite and positive, is a
        ``ValueError`` naming the grid, raised before anything is certified."""
        def no_certificate(*args, **kwargs):
            raise AssertionError("certified a refused grid")
        monkeypatch.setattr(CMP, "certify_ricci_bound", no_certificate)
        with pytest.raises(ValueError, match="radius grid"):
            check(flat2, 0.0, grid, rule=rule6)


    @pytest.mark.parametrize("check", [CMP.check_volume_ratio, CMP.check_average_laplacian])
    @pytest.mark.parametrize("n, floor", [(2, "4.26e-07"), (3, "7.11e-07")])
    def test_radius_floor(self, monkeypatch, check, n, floor):
        """A radius below r_floor = 64 eps (2n - 1) / TOL_LAPLACIAN is refused,
        with the floor in the message, before anything is certified."""
        def no_certificate(*args, **kwargs):
            raise AssertionError("certified a refused grid")
        monkeypatch.setattr(CMP, "certify_ricci_bound", no_certificate)
        r_floor = 64 * np.finfo(float).eps * (2 * n - 1) / CMP.TOL_LAPLACIAN
        with pytest.raises(ValueError, match=f"below the floor {floor}"):
            check(P.flat(n), 0.0, [r_floor * (1 - 1e-12), 0.04])


class TestTheorem4:
    def test_flat_equality(self, flat2, rule6):
        rep = CMP.check_average_laplacian(flat2, 0.0, rule=rule6, tol_ode=1e-11)
        assert rep.verdict == "holds"
        assert max(abs(r["margin"]) for r in rep.rows) < 1e-9

    def test_space_form_self_consistency(self, space_form_k1, rule6):
        rep = CMP.check_average_laplacian(space_form_k1, 1.0, rule=rule6,
                                          tol_ode=1e-11)
        assert rep.verdict == "holds"
        assert max(abs(r["margin"]) for r in rep.rows) < 1e-7

    def test_section6_average_holds_while_pointwise_fails(self, section6_pot, rule6):
        rep = CMP.check_average_laplacian(section6_pot, -1.2, rule=rule6)
        assert rep.verdict == "holds"
        # the x1-axis ray alone violates the comparison on the same grid
        from kahlercomp import geodesic as G
        model = ModelSpace(2, -1.2)
        ray = G.GeodesicBatch(section6_pot, np.zeros(2), [np.array([1.0, 0, 0, 0])], 0.0405,
                              tol=1e-12)
        gaps = [ray.densities(float(r))[1][0] - M.laplacian(model, float(r))
                for r in np.linspace(0.02, 0.04, 5)]
        assert min(gaps) > 0


class TestCertificateReach:
    """The certificate covers the ball the rays reach, not only the radius
    they are integrated to."""

    def test_certified_again_on_the_reach(self):
        """g = 0.1 I at the origin, so a unit-speed ray is at |z| = r / sqrt(0.2),
        0.0894 at r = 0.04: the certificate is drawn again on that ball."""
        from kahlercomp.sphere import build_rule
        pot = P.RealAnalyticPotential(
            2, [((1, 0), (1, 0), Fraction(1, 10)), ((0, 1), (0, 1), Fraction(1, 10)),
                ((2, 0), (2, 0), Fraction(1, 100)), ((0, 2), (0, 2), Fraction(1, 100))],
            validity_radius=0.2)
        rule = build_rule(2, 4)
        rep = CMP.check_average_laplacian(pot, -100.0, rule=rule)
        flow = CMP.SphereFlow(pot, np.zeros(2), 0.04, rule)
        z = np.stack([flow.rays._unpack(flow.rays._states(r))[0]
                      for r in np.linspace(0.0, 0.04, 41)])
        furthest = np.linalg.norm(z, axis=-1).max()
        assert rep.verdict == "holds" and rep.certificate.passed
        assert rep.certificate.rho == flow.rays.reach == pytest.approx(furthest, rel=1e-12)
        assert furthest > 0.089


@pytest.fixture(scope="module")
def report():
    return CMP.verify_counterexample(a=0.1, lam=0.0)


class TestCounterexample:

    def test_all_stages_pass(self, report):
        assert report.passed_all, {k: v["passed"] for k, v in report.stages.items()}

    def test_metric_series_stage(self, report):
        st = report.stages["metric_series"]
        assert st["g11"] and st["g12"] and st["det"]

    def test_ricci_stage(self, report):
        st = report.stages["ricci_vanishing"]
        assert st["degree_le_3_vanishes"] and st["stabilizer_profile"]

    def test_origin_curvature_stage(self, report):
        st = report.stages["origin_curvature"]
        assert st["max_deviation"] < 1e-10
        assert np.allclose(st["R_uv"], np.diag([0.4, 0.4, 0.4]), atol=1e-10)

    def test_r4_stage_margin(self, report):
        st = report.stages["r4_coefficient"]
        assert st["margin"] > 0
        assert st["margin"] == pytest.approx(st["exact_margin"], rel=1e-4)

    def test_r4_stage_margin_matches_exact_value(self, report):
        """The r^4 margin from density_series against its closed form 2a^2/15."""
        st = report.stages["r4_coefficient"]
        assert st["exact_margin"] == pytest.approx(2 * 0.1 ** 2 / 15, rel=1e-15)
        assert abs(st["margin"] - st["exact_margin"]) <= 1e-15

    @pytest.mark.parametrize("a", [0.05, 0.1, 0.2])
    def test_r4_stage_checks_its_closed_form(self, a):
        """Stage iv passes on margin > 0 and |margin - 2a^2/15| within its
        stated budget, which the report carries."""
        st = CMP.verify_counterexample(a=a).stages["r4_coefficient"]
        assert st["exact_margin"] == float(Fraction(2, 15) * Fraction(a) ** 2)
        assert 0 < abs(st["margin"] - st["exact_margin"]) <= st["budget"]
        assert st["budget"] <= 1e-3 * st["exact_margin"]
        assert st["passed"] is True

    def test_r4_stage_refuses_a_shifted_closed_form(self, monkeypatch):
        exact = CMP._r4_exact_margin
        st = CMP.verify_counterexample(a=0.1).stages["r4_coefficient"]
        shift = Fraction(2 * st["budget"])
        monkeypatch.setattr(CMP, "_r4_exact_margin", lambda a: exact(a) + shift)
        rep = CMP.verify_counterexample(a=0.1)
        shifted = rep.stages["r4_coefficient"]
        assert shifted["margin"] == st["margin"] > 0
        assert shifted["passed"] is False and not rep.passed_all

    def test_pointwise_stage(self, report):
        st = report.stages["pointwise_gap"]
        assert st["interval"] is not None
        assert st["max_margin"] > 10 * st["error_budget"]

    def test_negative_a_variant(self):
        rep = CMP.verify_counterexample(a=-0.1)
        assert rep.lam > 0
        assert rep.passed_all
        search = rep.lambda_search
        assert search["rho"] == 0.05 and search["samples"] == CMP.LAMBDA_SAMPLES
        assert [lam for lam, _, ok in search["steps"] if ok][-1] == rep.lam
        assert any(not ok for _, _, ok in search["steps"])

    def test_given_lambda_is_one_certified_step(self, report):
        search = report.to_json_dict()["lambda_search"]
        assert (search["rho"], search["samples"], search["seed"]) == \
            (0.05, CMP.LAMBDA_SAMPLES, 0)
        [(lam, min_eig, ok)] = search["steps"]
        assert lam == report.lam == 0.0 and ok and min_eig >= -CMP.CERT_TOL

    @pytest.mark.parametrize("lam", [-1, -1e6])
    def test_given_lambda_refused_when_its_certificate_fails(self, lam):
        with pytest.raises(ValueError, match="certificate refused for lambda"):
            CMP.verify_counterexample(a=0.1, lam=lam)

    def test_zero_a_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            CMP.verify_counterexample(a=0.0)

    def test_json_serializable(self, report):
        import json
        text = json.dumps(report.to_json_dict())
        assert "pointwise_gap" in text

    @pytest.mark.parametrize("stage, changes, verdict", [
        (None, {}, "holds"),
        ("metric_series", {"passed": False}, "violated"),
        ("origin_curvature", {"passed": False}, "violated"),
        ("r4_coefficient", {"passed": False, "margin": 0.0, "budget": 0.0}, "inconclusive"),
        ("r4_coefficient", {"passed": False, "margin": 2e-16, "budget": 1e-16}, "violated"),
        ("pointwise_gap", {"passed": False, "margins": [1e-12, 3e-12]}, "inconclusive"),
        ("pointwise_gap", {"passed": False, "margins": [-3e-11, 3e-12]}, "violated"),
    ])
    def test_verdict_reads_whether_a_failure_is_resolved(self, stage, changes, verdict):
        """A failing stage is a violation only when its number is resolved:
        stages i-iii always, stage iv with |margin| > budget, stage v with
        some |margin| > 10 error budgets (here 10 x 2e-12)."""
        stages = {"metric_series": {"passed": True}, "ricci_vanishing": {"passed": True},
                  "origin_curvature": {"passed": True},
                  "r4_coefficient": {"passed": True, "margin": 1e-3, "budget": 1e-16},
                  "pointwise_gap": {"passed": True, "margins": [1e-9], "error_budget": 2e-12}}
        if stage:
            stages[stage].update(changes)
        assert CMP.CounterexampleReport(a=0.1, lam=0.0, stages=stages).verdict == verdict


class TestRigidityProbe:
    def test_space_form_no_deviation(self, space_form_k1, rule6):
        rep = CMP.rigidity_probe(space_form_k1, 1.0, rule=rule6)
        assert rep.first_deviating_order is None

    def test_flat_no_deviation(self, flat2, rule6):
        rep = CMP.rigidity_probe(flat2, 0.0, rule=rule6)
        assert rep.first_deviating_order is None

    def test_section6_deviates_at_order_four_negative(self, section6_pot, rule6):
        rep = CMP.rigidity_probe(section6_pot, -1.2, rule=rule6)
        assert rep.first_deviating_order == 4
        assert rep.sign == -1


class TestFlowQuality:
    def test_gates(self, section6_flow):
        q = section6_flow.rays.quality(section6_flow.r_max)
        assert q["wronskian"] < 1e-8
        assert q["frame"] < 1e-9
        assert q["speed"] < 1e-9

    def test_batch_matches_single_rays(self, section6_pot):
        """The batched flow agrees with a batch of one per rule node.

        section6 is torus-invariant, so the flow's rays are the rule's moment
        nodes; each stands for the nodes of its angle torus, which follow it
        in the rule's moment-major order."""
        import math

        from kahlercomp import curvature as C
        from kahlercomp import geodesic as G
        from kahlercomp.sphere import build_rule
        from oracles import tangent_nodes
        rule = build_rule(2, 4)
        flow = CMP.SphereFlow(section6_pot, np.zeros(2), 0.04, rule=rule, tol=1e-11)
        G0 = C.workspace(section6_pot).metric_values(np.zeros(2))
        singles = [G.GeodesicBatch(section6_pot, np.zeros(2), [e0], 0.04, tol=1e-11)
                   for e0 in tangent_nodes(rule, C.real_metric_matrix(G0))]
        for r in (0.01, 0.04):
            vals, logd = (np.repeat(x, len(rule) // len(flow.rays))
                          for x in flow.rays.densities(r))
            single = [batch.densities(r) for batch in singles]
            np.testing.assert_allclose(vals, [v[0] for v, _ in single], rtol=1e-12)
            np.testing.assert_allclose(logd, [d[0] for _, d in single], rtol=1e-12)
            volume = math.fsum(w * batch.volumes(r)[0]
                               for w, batch in zip(rule.weights, singles))
            assert flow.ball_volume(r) == pytest.approx(volume, rel=1e-12)

    def test_ball_volume_range_is_checked(self, space_form_k1):
        from kahlercomp.sphere import build_rule
        flow = CMP.SphereFlow(space_form_k1, np.zeros(2), 0.04, rule=build_rule(2, 2))
        for r in (0.0, -0.01):
            with pytest.raises(ValueError, match="r > 0"):
                flow.ball_volume(r)
        with pytest.raises(ValueError, match="outside integrated range"):
            flow.ball_volume(0.05)
        # off-centre, the outward rays leave the validity ball before r = 0.3
        with pytest.raises(C.KahlerDomainError, match="leaves the validity ball"):
            CMP.SphereFlow(space_form_k1, np.array([0.3, 0.0]), 0.3, rule=build_rule(2, 2))

    def test_three_complex_dimensions(self):
        from kahlercomp.sphere import build_rule
        pot = P.flat(3)
        rep = CMP.check_average_laplacian(pot, 0.0, r_grid=[0.01, 0.02],
                                          rule=build_rule(3, 4))
        assert rep.verdict == "holds"
        assert max(abs(r["margin"]) for r in rep.rows) < 1e-9


class TestTorusReduction:
    """A torus-invariant potential at the origin flows one ray per moment node;
    the sums agree with those over every node of the rule."""

    @pytest.mark.parametrize("pot, rule, r_max", [
        (P.section6(0.1, 0), (2, 6), 0.0405),
        (P.space_form(2, 1), (2, 6), 0.0405),
        (P.space_form(3, 1, degree=12), (3, 2), 0.0405),
        (P.flat(4), (4, 2), 0.0405),
    ], ids=["section6", "space_form2", "space_form3", "flat4"])
    def test_reduced_flow_matches_full_product(self, pot, rule, r_max):
        import math

        from kahlercomp import geodesic as G
        from kahlercomp.sphere import build_rule
        from oracles import tangent_nodes
        rule = build_rule(*rule)
        flow = CMP.SphereFlow(pot, np.zeros(pot.n), r_max, rule=rule, tol=1e-11)
        assert len(flow.rays) == len(rule.moment_weights) < len(rule)
        H = C.real_metric_matrix(C.metric_at(pot, np.zeros(pot.n)).g)
        full = G.GeodesicBatch(pot, np.zeros(pot.n), tangent_nodes(rule, H), r_max, tol=1e-11)
        w = rule.weights
        m = 2 * pot.n - 1
        for r in (0.005, 0.02, 0.04):
            vals, logd = full.densities(r)
            volume = math.fsum(w * full.volumes(r))
            laplacian = math.fsum(w * vals * logd) / math.fsum(w * vals)
            w_value = math.fsum(w * vals) / r ** m
            assert flow.ball_volume(r) == pytest.approx(volume, rel=1e-12, abs=0)
            assert flow.average_laplacian(r) == pytest.approx(laplacian, rel=1e-12, abs=0)
            assert flow.w_value(r) == pytest.approx(w_value, rel=1e-12, abs=0)

    @pytest.mark.parametrize("case", ["off_origin", "not_invariant"])
    def test_every_node_integrated_otherwise(self, case, section6_pot, rule6):
        pot, p = ((section6_pot, np.array([0.01, 0.0])) if case == "off_origin"
                  else (P.perturbed(2, 0), np.zeros(2)))
        flow = CMP.SphereFlow(pot, p, 0.01, rule=rule6, tol=1e-11)
        assert len(flow.rays) == len(rule6)
        assert np.array_equal(flow.weights, rule6.weights)


class ProductRule:
    """The equispaced-angle rule that the lattice of ``sphere.build_rule``
    replaced: the moment rule of ``rule`` times T equispaced angles per z_i,
    T the least even number above the degree."""

    def __init__(self, rule):
        n, self.degree = rule.n, rule.degree
        T = self.degree + 2 - self.degree % 2
        thetas = 2.0 * np.pi * np.arange(T) / T
        circle = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
        angles = np.indices((T,) * n).reshape(n, -1).T
        pts = np.sqrt(rule.moments)[:, None, :, None] * circle[angles][None]
        self.n = n
        self.nodes = pts.reshape(-1, 2 * n)
        self.weights = np.repeat(rule.moment_weights, T ** n) * (2.0 * np.pi / T) ** n

    def __len__(self):
        return len(self.weights)


class TestProductRuleOracle:
    """The lattice rule gives the sums of the equispaced product it replaced on
    a potential without torus symmetry, with half the rays."""

    @pytest.mark.parametrize("check", [CMP.check_volume_ratio, CMP.check_average_laplacian],
                             ids=["thm3", "thm4"])
    def test_margins(self, check, rule6):
        pot = P.perturbed(2, 0)
        product = ProductRule(rule6)
        lattice, oracle = check(pot, -1.0, rule=rule6), check(pot, -1.0, rule=product)
        assert (lattice.rule["rays"], oracle.rule["rays"]) == (64, 128)
        assert lattice.verdict == oracle.verdict == "holds"
        got = np.array([r["margin"] for r in lattice.rows])
        want = np.array([r["margin"] for r in oracle.rows])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_series_sphere_average(self, tmp_path, monkeypatch, rule8):
        from kahlercomp import cli

        def averaged(name):
            out = tmp_path / name
            assert cli.main(["series", "--catalog", "perturbed", "--params", "n=2,seed=0",
                             "--order", "4", "--quad-degree", "8", "--out", str(out)]) == 0
            return np.array(json.loads((out / "report.json").read_text())
                            ["sphere_averaged"]["coefficients"])

        got = averaged("lattice")
        monkeypatch.setattr(cli, "build_rule", lambda n, degree: ProductRule(rule8))
        want = averaged("product")
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * abs(want[0]))
