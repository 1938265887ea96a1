"""Sphere quadrature: exactness, symmetry, convergence plateau."""

import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from kahlercomp import curvature as C
from kahlercomp import potential as P
from kahlercomp import sphere
from kahlercomp.sphere import build_rule, fan_out, rank1_lattice, torus_reduced, unit_sphere_volume
from oracles import complex_nodes, complex_rep, real_pairing, ricci, sphere_average, tangent_nodes


class TestRuleBasics:
    @pytest.mark.parametrize("n", [2, 3])
    def test_weights_sum_to_sphere_volume(self, n):
        rule = build_rule(n)
        assert math.fsum(rule.weights) == pytest.approx(unit_sphere_volume(n),
                                                        abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_nodes_unit_and_symmetric(self, n):
        rule = build_rule(n)
        norms = np.linalg.norm(rule.nodes, axis=1)
        assert np.max(np.abs(norms - 1)) < 1e-14
        # z -> -z symmetry: every node's antipode is a node
        node_set = {tuple(np.round(x, 12)) for x in rule.nodes}
        anti = {tuple(np.round(-x, 12)) for x in rule.nodes}
        assert node_set == anti

    def test_unsupported_dimension(self):
        for n in (1, 0):
            with pytest.raises(ValueError, match="n >= 2"):
                build_rule(n)
        with pytest.raises(ValueError, match="must lie in 0..20, got 22"):
            build_rule(2, 22)


class TestExactness:
    def test_constant(self):
        rule = build_rule(2)
        assert sphere_average(rule, lambda x: 1.0) == pytest.approx(
            2 * math.pi ** 2, abs=1e-12)

    def test_z1_squared(self):
        rule = build_rule(2)
        val = sphere_average(rule, lambda x: x[0] ** 2 + x[1] ** 2)
        assert val == pytest.approx(math.pi ** 2, abs=1e-12)

    def test_z1z2_moment_against_monte_carlo_golden(self):
        # frozen golden pi^2/3, re-derived by seeded Monte Carlo at 3 sigma
        rng = np.random.default_rng(42)
        N = 10 ** 7
        X = rng.normal(size=(N, 4))
        X /= np.linalg.norm(X, axis=1)[:, None]
        vals = (X[:, 0] ** 2 + X[:, 1] ** 2) * (X[:, 2] ** 2 + X[:, 3] ** 2)
        mc = vals.mean() * 2 * math.pi ** 2
        se = vals.std() / math.sqrt(N) * 2 * math.pi ** 2
        golden = math.pi ** 2 / 3
        assert abs(mc - golden) < 3 * se
        rule = build_rule(2)
        val = sphere_average(rule, lambda x: (x[0] ** 2 + x[1] ** 2)
                             * (x[2] ** 2 + x[3] ** 2))
        assert val == pytest.approx(golden, abs=1e-12)

    def test_monomial_basis_spot_checks(self):
        """Exact values from the Dirichlet moment formula on S^{2n-1}, through
        degree 12."""
        rule = build_rule(2, 12)
        Z = complex_nodes(rule)

        def moment(p, q):
            # integral of |z1|^(2p) |z2|^(2q): 2 pi^2 p! q! / (p+q+1)!
            return 2 * math.pi ** 2 * math.factorial(p) * math.factorial(q) \
                / math.factorial(p + q + 1)

        for p, q in ((0, 0), (1, 0), (2, 1), (3, 3), (4, 2), (6, 0)):
            val = math.fsum(w * (abs(z[0]) ** (2 * p) * abs(z[1]) ** (2 * q))
                            for z, w in zip(Z, rule.weights))
            assert val == pytest.approx(moment(p, q), rel=1e-12), (p, q)

    def test_unpaired_monomials_integrate_to_zero(self):
        rule = build_rule(2)
        Z = complex_nodes(rule)
        for f in (lambda z: (z[0] * np.conj(z[1])).real,
                  lambda z: (z[0] ** 2 * np.conj(z[0])).imag,
                  lambda z: (z[0] * z[1]).real):
            val = math.fsum(w * f(z) for z, w in zip(Z, rule.weights))
            assert abs(val) < 1e-13

    def test_odd_integrand_vanishes(self):
        for n in (2, 3):
            rule = build_rule(n)
            val = sphere_average(rule, lambda x: x[0] ** 3 + 0.5 * x[-1])
            assert abs(val) < 1e-14

    def test_ricci_integrand_on_space_form(self):
        """Einstein identity: integral of Ric(e0,e0) over unit directions is K Vol."""
        K = 1.5
        pot = P.space_form(2, K)
        G, ric = (m[0] for m in ricci(pot, np.zeros((1, 2))))
        rule = build_rule(2, 8)
        dirs = tangent_nodes(rule, C.real_metric_matrix(G))
        val = math.fsum(w * real_pairing(ric, xi, xi)
                        for w, xi in zip(rule.weights, complex_rep(dirs)))
        assert val == pytest.approx(K * unit_sphere_volume(2), rel=1e-12)

    def test_n3_moments(self):
        """Dirichlet moments: integral of prod |z_i|^{2p_i} = 2 pi^3 prod p_i!/(2+sum p_i)!."""
        rule = build_rule(3)
        Z = complex_nodes(rule)
        for p, q, s in ((0, 0, 0), (1, 0, 0), (1, 1, 1), (2, 1, 0)):
            val = math.fsum(
                w * (abs(z[0]) ** (2 * p) * abs(z[1]) ** (2 * q) * abs(z[2]) ** (2 * s))
                for z, w in zip(Z, rule.weights))
            expected = 2 * math.pi ** 3 * math.factorial(p) * math.factorial(q) \
                * math.factorial(s) / math.factorial(p + q + s + 2)
            assert val == pytest.approx(expected, rel=1e-12), (p, q, s)


class TestConvergencePlateau:
    def test_smooth_integrand_stable_under_refinement(self, section6_pot):
        """Non-polynomial catalog integrand: refinement changes the value < 1e-9."""
        ric = ricci(section6_pot, np.zeros((1, 2)))[1][0]

        def integrand(x):
            xi = complex_rep(x)
            return 1.0 / (2.0 + real_pairing(ric, xi, xi))

        vals = {}
        for degree in (12, 16, 20):
            rule = build_rule(2, degree)
            vals[degree] = sphere_average(rule, integrand)
        assert abs(vals[16] - vals[12]) < 1e-9
        assert abs(vals[20] - vals[16]) < 1e-9


class TestTangentNodes:
    def test_metric_unit_directions(self, section6_pot):
        rule = build_rule(2, 6)
        G = C.workspace(section6_pot).metric_values(np.zeros(2))
        H = C.real_metric_matrix(G)
        dirs = tangent_nodes(rule, H)
        for v in dirs[:10]:
            assert v @ H @ v == pytest.approx(1.0, abs=1e-12)


class TestFactoredRule:
    @pytest.mark.parametrize("n, degree", [(2, 20), (3, 8), (4, 5), (5, 3)])
    def test_monomials_exact_through_degree(self, n, degree):
        """Integral of z^alpha conj(z)^beta over S^{2n-1}: 2 pi^n alpha! / (n-1+|alpha|)!
        when alpha = beta, 0 otherwise."""
        rule = build_rule(n, degree)
        assert len(rule.weights) == len(rule)
        assert math.fsum(rule.weights) == pytest.approx(unit_sphere_volume(n), abs=1e-12)
        Z = complex_nodes(rule)
        powers = Z[None] ** np.arange(degree + 1)[:, None, None]   # (degree+1, N, n)
        conj_powers = np.conj(powers)
        exponents = [e for e in np.ndindex(*(degree + 1,) * n) if sum(e) <= degree]
        worst = 0.0
        for alpha in exponents:
            za = np.prod(powers[list(alpha), :, range(n)], axis=0)
            for beta in exponents:
                if sum(alpha) + sum(beta) > degree:
                    continue
                zb = np.prod(conj_powers[list(beta), :, range(n)], axis=0)
                val = np.sum(rule.weights * za * zb)   # pairwise summation
                exact = 0.0
                if alpha == beta:
                    exact = (2 * math.pi ** n * math.prod(math.factorial(a) for a in alpha)
                             / math.factorial(n - 1 + sum(alpha)))
                worst = max(worst, abs(val - exact))
        assert worst < 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_moment_nodes_carry_the_torus_weights(self, n):
        rule = build_rule(n, 4)
        M, (N, _) = len(rule.moment_weights), rule.lattice
        assert len(rule) == M * N
        assert np.allclose(rule.moments.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        # moment-major order: node m * N is lattice point 0, every angle 0
        assert np.array_equal(rule.moment_nodes(), rule.nodes[::N])
        grouped = rule.weights.reshape(M, -1).sum(axis=1)
        np.testing.assert_allclose(grouped, rule.moment_weights * (2 * math.pi) ** n,
                                   rtol=1e-14)


class TestLattice:
    @pytest.mark.parametrize("n, max_degree", [(2, 20), (3, 8), (4, 6), (5, 3)])
    def test_lattice_cancels_every_frequency(self, n, max_degree):
        """N even and g odd (the rule is symmetric), no frequency with
        0 < |k|_1 <= degree on the dual lattice, and never more angle points
        than the T^n of equispaced angles, T the least even number above the
        degree."""
        box = np.array(list(itertools.product(range(-max_degree, max_degree + 1), repeat=n)))
        norms = np.abs(box).sum(axis=1)
        for degree in range(max_degree + 1):
            N, g = rank1_lattice(n, degree)
            assert N % 2 == 0 and len(g) == n and all(x % 2 == 1 for x in g), (degree, N, g)
            ks = box[(norms > 0) & (norms <= degree)]
            assert np.all(ks @ np.array(g) % N != 0), (degree, N, g)
            T = degree + 2 - degree % 2
            assert N <= T ** n, (degree, N)

    def test_no_search_at_import_or_on_the_torus_reduced_path(self):
        """Importing the CLI and fanning a torus-invariant potential out at the
        origin read only the moment nodes: the lattice memo stays empty."""
        code = (
            "import numpy as np\n"
            "import kahlercomp.cli\n"
            "from kahlercomp import potential as P, sphere\n"
            "sizes = [sphere.rank1_lattice.cache_info().currsize]\n"
            "for pot in (P.section6(0.1, 0), P.space_form(3, 1, degree=12)):\n"
            "    dirs, _ = sphere.fan_out(pot, np.zeros(pot.n), sphere.build_rule(pot.n))\n"
            "    sizes.append(sphere.rank1_lattice.cache_info().currsize)\n"
            "print(sizes)\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[0, 0, 0]"


    def test_out_of_reach_rules_refused_before_any_search(self):
        """M N_min, the moment nodes times the angle count the lattice search
        starts at, bounds the node count from below; above ``MAX_RULE_NODES``
        ``fan_out`` refuses the full rule and the lattice memo stays empty.
        The torus-reduced path of the same rules returns only the M moment
        nodes, and is not refused."""
        code = (
            "import numpy as np\n"
            "from kahlercomp import potential as P, sphere\n"
            "for n, degree in ((4, 12), (4, 16), (3, 20), (5, 8)):\n"
            "    rule = sphere.build_rule(n, degree)\n"
            "    dirs, _ = sphere.fan_out(P.flat(n), np.zeros(n), rule)\n"
            "    assert len(dirs) == len(rule.moment_weights) <= 150, (n, degree)\n"
            "    try:\n"
            "        sphere.fan_out(P.perturbed(n, 0), np.zeros(n), rule)\n"
            "    except ValueError as exc:\n"
            "        assert 'MAX_RULE_NODES = 15000' in str(exc), exc\n"
            "    else:\n"
            "        raise AssertionError((n, degree))\n"
            "print(sphere.rank1_lattice.cache_info().currsize)\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "0"

    @pytest.mark.parametrize("n, degree", [(3, 15), (4, 9), (5, 5)])
    def test_largest_accepted_degree(self, n, degree):
        """The limit on the full rule falls between the degree and the next, as
        ``MAX_RULE_NODES`` states; the default degree 6 is accepted through
        n = 4."""
        rule = build_rule(n, degree)
        assert len(rule.moment_weights) * sphere._least_lattice_size(n, degree) \
            <= sphere.MAX_RULE_NODES
        assert len(rule) >= len(rule.moment_weights) * sphere._least_lattice_size(n, degree)
        with pytest.raises(ValueError, match="MAX_RULE_NODES"):
            build_rule(n, degree + 1).lattice

    def test_moment_rule_out_of_reach_refused_before_it_is_built(self):
        """No path integrates fewer than the M moment nodes, so a rule with M
        above ``MAX_RULE_NODES`` is refused by ``build_rule`` itself: 12 700 800
        moment nodes at (n, degree) = (12, 6)."""
        with pytest.raises(ValueError, match="has at least 12700800 nodes"):
            build_rule(12, 6)


class TestFanOut:
    def test_invariant_potential_at_origin_uses_moment_nodes(self, section6_pot):
        rule = build_rule(2, 6)
        assert torus_reduced(section6_pot, np.zeros(2))
        dirs, weights = fan_out(section6_pot, np.zeros(2), rule)
        assert len(dirs) == len(weights) == len(rule.moment_weights) == 2
        assert math.fsum(weights) == pytest.approx(unit_sphere_volume(2), rel=1e-14)

    @pytest.mark.parametrize("case", ["off_origin", "not_invariant"])
    def test_every_node_otherwise(self, case, section6_pot):
        rule = build_rule(2, 6)
        pot, p = ((section6_pot, np.array([0.01, 0.0])) if case == "off_origin"
                  else (P.perturbed(2, 0), np.zeros(2)))
        assert not torus_reduced(pot, p)
        dirs, weights = fan_out(pot, p, rule)
        G = C.workspace(pot).metric_values(p)
        assert np.array_equal(dirs, tangent_nodes(rule, C.real_metric_matrix(G)))
        assert np.array_equal(weights, rule.weights)

    @pytest.mark.parametrize("pot, degree, count", [
        (P.perturbed(2, 0), 6, 64),
        (P.perturbed(3, 0), None, 624),
        (P.section6(0.1, 0), 6, 2),
        (P.space_form(3, 1, degree=12), None, 6),
    ], ids=["perturbed2", "perturbed3", "section6", "space_form3"])
    def test_direction_counts(self, pot, degree, count):
        dirs, weights = fan_out(pot, np.zeros(pot.n), build_rule(pot.n, degree))
        assert len(dirs) == len(weights) == count
