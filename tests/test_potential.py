"""Potential construction, evaluation, derivatives and the JSON format."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from kahlercomp import potential as P
from kahlercomp.polynomials import QC, CPoly
from oracles import is_even, poly_values


def rand_hermitian_terms(rng, n, count, magnitude=0.1):
    terms = []
    for _ in range(count):
        alpha = tuple(int(x) for x in rng.integers(0, 3, size=n))
        beta = tuple(int(x) for x in rng.integers(0, 3, size=n))
        c = QC(Fraction(float(rng.normal(0, magnitude))),
               0 if alpha == beta else Fraction(float(rng.normal(0, magnitude))))
        terms.append((alpha, beta, c))
        terms.append((beta, alpha, c.conjugate()))
    return terms


def rand_potential(rng, n=2):
    terms = [(tuple(1 if k == i else 0 for k in range(n)),) * 2 + (Fraction(1),)
             for i in range(n)]
    terms += rand_hermitian_terms(rng, n, 5, magnitude=0.05)
    return P.RealAnalyticPotential(n, terms, validity_radius=0.3)


class TestEvaluate:
    def test_flat_at_origin(self):
        assert poly_values(P.flat(2).poly, np.zeros(2)) == 0.0

    def test_flat_has_exactly_n_terms(self):
        for n in (1, 2, 3):
            assert len(P.flat(n).terms) == n

    def test_section6_on_axis_matches_printed_series(self):
        a = 0.1
        pot = P.section6(a, 0.0)
        for z1 in (0.05, 0.03 + 0.02j, -0.07j):
            t = abs(z1) ** 2
            expected = t + a * t ** 2 + (8.0 / 3.0) * a ** 2 * t ** 3
            got = poly_values(pot.poly, np.array([z1, 0.0])).real
            assert got == pytest.approx(expected, abs=1e-15)

    def test_section6_term_list_verbatim(self):
        a, lam = Fraction(1, 10), Fraction(50)
        pot = P.section6(a, lam)
        coeffs = pot.poly.coeffs
        assert coeffs[((2, 0), (2, 0))] == QC(a)
        assert coeffs[((1, 1), (1, 1))] == QC(8 * a)
        assert coeffs[((3, 0), (3, 0))] == QC(Fraction(8, 3) * a * a)
        assert coeffs[((2, 1), (2, 1))] == QC(28 * a * a)
        assert coeffs[((4, 0), (4, 0))] == QC(-lam)
        assert coeffs[((3, 1), (3, 1))] == QC(-8 * lam)
        assert coeffs[((1, 3), (1, 3))] == QC(-8 * lam)

    def test_random_potential_matches_independent_resummation(self):
        rng = np.random.default_rng(7)
        pot = rand_potential(rng)
        for _ in range(5):
            z = (rng.normal(size=2) + 1j * rng.normal(size=2)) * 0.1
            # independent oracle: per-term powers, summed in a different order
            parts = []
            for (alpha, beta), c in pot.poly.coeffs.items():
                val = complex(c)
                for i, e in enumerate(alpha):
                    val *= z[i] ** e
                for i, e in enumerate(beta):
                    val *= np.conj(z[i]) ** e
                parts.append(val)
            parts.sort(key=lambda v: (abs(v), v.real, v.imag))
            oracle = complex(math.fsum(p.real for p in parts),
                             math.fsum(p.imag for p in parts))
            assert poly_values(pot.poly, z).real == pytest.approx(oracle.real, abs=1e-12)
            assert abs(oracle.imag) < 1e-12

    def test_value_is_real_for_hermitian_potentials(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            pot = rand_potential(np.random.default_rng(seed))
            z = (rng.normal(size=2) + 1j * rng.normal(size=2)) * 0.1
            val = poly_values(pot.poly, z)
            assert abs(val.imag) < 1e-14 * max(1.0, abs(val.real))


class TestMixedPartial:
    def test_flat_metric_entry(self):
        g11 = P.flat(2).poly.dz(0).dzbar(0)
        for z in (np.zeros(2), np.array([0.2 + 0.1j, -0.4j])):
            assert poly_values(g11, z) == pytest.approx(1.0)

    def test_section6_d1_d2bar_printed_line(self):
        a = Fraction(1, 10)
        pot = P.section6(a, 0)
        got = pot.poly.dz(0).dzbar(1)
        expected = (CPoly.monomial(2, (0, 1), (1, 0), 8 * a)
                    + CPoly.monomial(2, (1, 1), (2, 0), 56 * a * a)
                    + CPoly.monomial(2, (0, 2), (1, 1), 56 * a * a))
        assert got == expected

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(3)
        pot = rand_potential(rng)
        z = np.array([0.05 + 0.02j, -0.03 + 0.04j])
        h = 1e-5
        for i in (0, 1):
            # d/dz_i = (d/dx - i d/dy)/2 on the polynomial (beta derivative absent)
            dx = np.zeros(2, dtype=complex)
            dx[i] = h
            fx = (poly_values(pot.poly, z + dx) - poly_values(pot.poly, z - dx)) / (2 * h)
            dy = np.zeros(2, dtype=complex)
            dy[i] = 1j * h
            fy = (poly_values(pot.poly, z + dy) - poly_values(pot.poly, z - dy)) / (2 * h)
            fd = 0.5 * (fx - 1j * fy)
            exact = poly_values(pot.poly.dz(i), z)
            assert fd == pytest.approx(exact, rel=1e-8, abs=1e-10)

    def test_order_beyond_degree_returns_zero(self):
        third = P.flat(2).poly.dz(0).dz(0).dz(0)
        assert third.is_zero()
        assert poly_values(third, np.zeros(2)) == 0

    def test_derivative_order_commutes(self):
        rng = np.random.default_rng(5)
        pot = rand_potential(rng)
        z = np.array([0.04 - 0.01j, 0.02 + 0.03j])
        p0 = pot.poly.dz(0).dz(1).dzbar(0)
        a = poly_values(p0, z)
        # same multi-index assembled by sequential single derivatives in other orders
        p1 = pot.poly.dz(1).dz(0).dzbar(0)
        p2 = pot.poly.dzbar(0).dz(0).dz(1)
        assert p0 == p1 == p2
        assert poly_values(p1, z) == pytest.approx(a, rel=1e-14)

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(9)
        pot = rand_potential(rng)
        z = np.array([0.03 + 0.05j, -0.02 - 0.01j])
        lhs = poly_values(pot.poly.dz(0).dz(0).dzbar(1), z)
        rhs = poly_values(pot.poly.dz(1).dzbar(0).dzbar(0), z)
        assert lhs == pytest.approx(np.conj(rhs), rel=1e-13, abs=1e-15)


class TestValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(P.ValidationError, match="Hermitian"):
            P.RealAnalyticPotential(2, [
                ((1, 0), (1, 0), 1), ((0, 1), (0, 1), 1),
                ((2, 0), (1, 1), 0.3),
            ])

    def test_non_positive_metric_rejected(self):
        with pytest.raises(P.ValidationError, match="positive definite"):
            P.RealAnalyticPotential(2, [((1, 0), (1, 0), -1), ((0, 1), (0, 1), 1)])

    def test_negative_exponent_rejected(self):
        with pytest.raises(P.ValidationError):
            P.RealAnalyticPotential(2, [((-1, 0), (1, 0), 1)])

    @pytest.mark.parametrize("n, max_degree, name", [(2.7, None, "dimension n"),
                                                     (2, 4.9, "max_degree"),
                                                     ("2", None, "dimension n")])
    def test_non_integral_sizes_rejected(self, n, max_degree, name):
        """Not truncated: n = 2.7 is not n = 2, nor max_degree 4.9 degree 4."""
        with pytest.raises(P.ValidationError, match=f"{name} must be an integer"):
            P.RealAnalyticPotential(n, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), 1)],
                                    max_degree=max_degree)

    def test_non_integral_exponent_rejected(self):
        """Not truncated: |z1|^3 is not |z1|^2, which would merge into the flat term."""
        with pytest.raises(P.ValidationError, match="exponent must be an integer"):
            P.RealAnalyticPotential(2, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), 1),
                                        ((1.5, 0), (1.5, 0), 0.01)])

    def test_integral_floats_accepted(self):
        pot = P.RealAnalyticPotential(2.0, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), 1)],
                                      max_degree=4.0)
        assert (pot.n, pot.max_degree) == (2, 4) and type(pot.n) is int
        assert P.from_catalog("perturbed", n=2.0, seed=0.0) == P.perturbed(2, 0)

    @pytest.mark.parametrize("name, params, key", [
        ("perturbed", {"n": 2.7, "seed": 0}, "n"), ("perturbed", {"n": 2, "seed": 0.9}, "seed"),
        ("flat", {"n": 2.5}, "n"), ("space_form", {"n": 2, "K": 1, "degree": 12.5}, "degree"),
        ("flat", {"n": math.inf}, "n"), ("flat", {"n": math.nan}, "n")])
    def test_catalog_integers_not_truncated(self, name, params, key):
        with pytest.raises(P.ValidationError, match=f"{key} must be an integer"):
            P.from_catalog(name, **params)

    @pytest.mark.parametrize("radius", [math.nan, -1.0, 0.0, -math.inf])
    def test_validity_radius_must_be_positive(self, radius):
        with pytest.raises(P.ValidationError, match="validity radius must be positive"):
            P.RealAnalyticPotential(2, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), 1)],
                                    validity_radius=radius)

    def test_infinite_validity_radius_accepted(self):
        assert P.flat(2).validity_radius == math.inf

    def test_duplicate_terms_merge(self):
        pot = P.RealAnalyticPotential(2, [
            ((1, 0), (1, 0), 0.5), ((1, 0), (1, 0), 0.5), ((0, 1), (0, 1), 1),
        ])
        assert pot.poly.coeffs[((1, 0), (1, 0))] == QC(1)

    def test_perturbed_is_even_and_seeded(self):
        p1 = P.perturbed(2, 42)
        p2 = P.perturbed(2, 42)
        assert p1 == p2
        assert is_even(p1)
        assert P.perturbed(3, 1).n == 3

    def test_space_form_zero_curvature_degenerates_to_flat_terms(self):
        pot = P.space_form(2, 0)
        assert pot.poly == P.flat(2).poly


class TestTorusInvariance:
    @pytest.mark.parametrize("pot", [P.section6(0.1, 0), P.section6(-0.1, 50),
                                     P.space_form(2, 1), P.space_form(3, -1, degree=12),
                                     P.flat(4)], ids=repr)
    def test_catalog_entries_with_alpha_equal_beta(self, pot):
        assert pot.torus_invariant

    def test_terms_with_alpha_not_beta(self):
        # a generic potential: flat plus random Hermitian terms
        assert not rand_potential(np.random.default_rng(3)).torus_invariant
        for pot in (P.perturbed(2, 0), P.perturbed(3, 1)):
            assert not pot.torus_invariant
        # |alpha| = |beta| keeps only the diagonal U(1) symmetry, not the torus
        pot = P.RealAnalyticPotential(2, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), 1),
                                          ((2, 0), (0, 2), 0.01), ((0, 2), (2, 0), 0.01)])
        assert not pot.torus_invariant


class TestJsonFormat:
    def test_round_trip_is_exact(self):
        pot = P.section6(0.1, 50.0)
        again = P.loads(P.dumps(pot))
        assert again == pot
        assert P.dumps(again) == P.dumps(pot)

    def test_spec_sample_document(self):
        doc = {"n": 2, "max_degree": 8,
               "terms": [{"alpha": [1, 0], "beta": [1, 0], "re": 1.0, "im": 0.0},
                          {"alpha": [0, 1], "beta": [0, 1], "re": 1.0, "im": 0.0}]}
        pot = P.loads(json.dumps(doc))
        assert pot == P.flat(2)

    def test_catalog_addressing(self):
        doc = {"catalog": {"name": "section6", "a": 0.1, "lambda": 50.0}}
        pot = P.loads(json.dumps(doc))
        assert pot == P.section6(0.1, 50.0)

    def test_rational_coefficients_round_trip_as_strings(self):
        text = P.dumps(P.section6(0.1, 0))
        assert "/" in text  # 8/3 a^2 terms are not representable as floats
        assert P.loads(text) == P.section6(0.1, 0)

    @pytest.mark.parametrize("text", [
        '{"catalog": {"n": 2}}', '{"catalog": "flat"}', '{"catalog": [["name", "flat"]]}',
        '{"catalog": {"name": ["flat"]}}', '5', '[1, 2]', '"flat"'])
    def test_malformed_documents_rejected(self, text):
        with pytest.raises(P.ValidationError, match="JSON object"):
            P.loads(text)

    def test_non_hermitian_document_rejected(self):
        doc = {"n": 1, "terms": [{"alpha": [2], "beta": [0], "re": 1.0, "im": 0.0},
                                  {"alpha": [1], "beta": [1], "re": 1.0, "im": 0.0}]}
        with pytest.raises(P.ValidationError):
            P.loads(json.dumps(doc))
