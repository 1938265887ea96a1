"""Quadrature on the unit sphere S^{2n-1} of a complex n-dimensional tangent space.

A point of the sphere is z_i = sqrt(u_i) e^{i theta_i}: moments u on the
simplex Delta^{n-1} and angles theta on the torus T^n, with surface measure
dsigma = 2^{1-n} du dtheta.  A rule is a moment rule times a rank-1 lattice
of angles, and ``SphereRule`` keeps the two factors.  The moment rule is
Stroud's conical product (*Approximate Calculation of Multiple Integrals*,
1971, section 2.7): collapsed coordinates s_1..s_{n-1} in [0, 1] with

    u_{n+1-k} = s_k prod_{j<k} (1 - s_j)  (k = 1..n-1),   u_1 = prod_j (1 - s_j),

Jacobian prod_k (1 - s_k)^{n-1-k}, and Gauss-Legendre nodes on each s_k.

The angles are the rank-1 lattice theta_j = 2 pi (j g mod N) / N, j = 0..N-1,
with equal weights (Sloan & Joe, *Lattice Methods for Multiple Integration*,
1994).  The monomial z^alpha conj(z)^beta has angular frequency
k = alpha - beta, and the lattice sums e^{i k.theta} to zero exactly when
k.g is not 0 mod N, so a lattice on which no k with 0 < |k|_1 <= degree has
k.g = 0 mod N integrates through the degree (Cools & Sloan, "Minimal
cubature formulae of trigonometric degree", Math. Comp. 65, 1996).
Equispaced angles need a count above the degree in every coordinate; the
lattice needs only the frequencies of the cross-polytope |k|_1 <= degree: 32
angle points instead of 64 at (n, degree) = (2, 6), 190 instead of 1000 at
(3, 8).  With N even and every g_i odd, the point j + N/2 is the antipode of
the point j, so the rule is symmetric under z -> -z.  Rules integrate the
polynomials in (z, conj z) exactly up to the declared degree, and their
weights sum to Vol(S^{2n-1}) = 2 pi^n / (n-1)!.

``fan_out`` turns a rule into the metric-unit directions at a base point that
every sphere integral of the package runs over; for a torus-invariant
potential at the origin it needs only the moment nodes, and the lattice is
never searched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import numpy.polynomial.legendre  # at import: numpy loads it lazily, on first use

from . import curvature as curv
from .potential import RealAnalyticPotential

__all__ = ["SphereRule", "build_rule", "rank1_lattice", "unit_sphere_volume",
           "torus_reduced", "fan_out", "rule_record", "DEFAULT_DEGREE", "MAX_RULE_NODES"]

# Exactness degree of ``build_rule(n)`` at every n.  The order-k coefficient of
# the density series is a homogeneous polynomial of degree k in the unit
# direction (Gray, Michigan Math. J. 20, 1973), so a rule of degree d averages
# c_0..c_d exactly and its error starts at order d + 2 (the odd orders cancel
# on these symmetric rules).  6 is the least degree that keeps exact every
# order the rigidity probe fits (``comparison.RIGIDITY_ORDER``).
DEFAULT_DEGREE = 6
# Most directions ``fan_out`` may return, one ray each.  A flow keeps every
# ray's dense output, about 75 KiB a ray at n = 4: the 20 232 rays of
# (n, degree) = (4, 8) peak at 1.5 GiB.  The torus-reduced path returns the M
# moment nodes, which ``build_rule`` bounds; at the default degree M exceeds
# the limit from n = 9 on.  Every other path returns the full rule, bounded
# before its lattice is searched by M N_min, the moment nodes times the angle
# count ``rank1_lattice`` starts its search at; the true count exceeds that
# bound by a factor 1.1 to 2.2.  The full-rule bound stays below the limit
# through (2, 20), (3, 15), (4, 9) and (5, 5), and exceeds it from (3, 16),
# (4, 10) and (5, 6) on.
MAX_RULE_NODES = 15_000


def unit_sphere_volume(n: int) -> float:
    """Vol(S^{2n-1}) = 2 pi^n / (n-1)!."""
    return 2.0 * math.pi ** n / math.factorial(n - 1)


def _frequencies(n, degree):
    """One of each pair +-k of the k in Z^n with 0 < |k|_1 <= degree, by |k|_1."""
    ks = np.zeros((1, 0), dtype=np.int64)
    values = np.arange(-degree, degree + 1)
    for _ in range(n):
        rows, cols = np.nonzero(np.abs(ks).sum(axis=1)[:, None] + np.abs(values) <= degree)
        ks = np.column_stack([ks[rows], values[cols]])
    first = ks[np.arange(len(ks)), np.argmax(ks != 0, axis=1)]
    ks = ks[first > 0]
    return ks[np.argsort(np.abs(ks).sum(axis=1), kind="stable")]


def _refuse_above_limit(n, degree, bound):
    """A ``ValueError`` when ``bound`` nodes of the rule of ``degree`` at n
    exceed ``MAX_RULE_NODES``."""
    if bound > MAX_RULE_NODES:
        raise ValueError(f"the sphere rule of degree {degree} at n = {n} has at least "
                         f"{bound} nodes, above the limit MAX_RULE_NODES = {MAX_RULE_NODES}; "
                         f"pass a smaller --quad-degree, exact only through that degree")


def _least_lattice_size(n, degree):
    """The least even N at least the count of k in Z^n with |k|_1 <= degree // 2,
    sum_i 2^i C(n, i) C(degree // 2, i): those k must land on distinct lattice
    points, since their differences are frequencies the lattice cancels."""
    half = degree // 2
    N = sum(2 ** i * math.comb(n, i) * math.comb(half, i) for i in range(n + 1))
    return N + N % 2


@cache
def rank1_lattice(n: int, degree: int) -> tuple[int, tuple[int, ...]]:
    """(N, g) of the angle lattice of ``build_rule(n, degree)``.

    N is the least even number, and g = (1, a, a^2, ..) mod N the Korobov
    generator of least odd a, such that k.g is not 0 mod N for any k in Z^n
    with 0 < |k|_1 <= degree.  The search starts at ``_least_lattice_size``.
    Candidates a are filtered by the k in order of |k|_1, in chunks that
    double, so that most fail on the first few.  Memoized per (n, degree).
    """
    ks = _frequencies(n, degree)
    N = _least_lattice_size(n, degree)
    while True:
        a = np.arange(1, N, 2)
        g = np.ones((n, len(a)), dtype=np.int64)
        for i in range(1, n):
            g[i] = g[i - 1] * a % N
        start, step = 0, 16
        while start < len(ks) and g.shape[1]:
            g = g[:, np.all(ks[start:start + step] @ g % N != 0, axis=0)]
            start, step = start + step, 2 * step
        if g.shape[1]:
            return N, tuple(int(x) for x in g[:, 0])
        N += 2


@dataclass(frozen=True)
class SphereRule:
    """A moment rule on the simplex times the rank-1 angle lattice of ``rank1_lattice``.

    ``nodes`` and ``weights`` are the full rule, built on first read:
    moment-major, then the lattice points j = 0..N-1.  The point j = 0 has
    every angle 0, so ``moment_nodes()`` is ``nodes[::N]``.  The lattice is
    searched only when ``nodes``, ``weights``, ``lattice`` or ``len`` is read,
    and a rule out of reach, M N_min above ``MAX_RULE_NODES``, is refused
    there, before the search.
    """

    n: int
    degree: int
    moments: np.ndarray         # (M, n) points u of the simplex, sum u = 1
    moment_weights: np.ndarray  # (M,) including the measure's 2^{1-n}

    @property
    def lattice(self) -> tuple[int, tuple[int, ...]]:
        """(N, g): lattice point j has the angles 2 pi (j g mod N) / N."""
        _refuse_above_limit(self.n, self.degree,
                            len(self.moment_weights) * _least_lattice_size(self.n, self.degree))
        return rank1_lattice(self.n, self.degree)

    def __len__(self):
        return len(self.moment_weights) * self.lattice[0]

    @cached_property
    def nodes(self) -> np.ndarray:
        """(M N, 2n) real coords, Euclidean unit, interleaved (x1, y1, ..)."""
        N, g = self.lattice
        # (cos, sin) of 2 pi m / N; the second half negates the first, so that
        # the point j + N/2 (every g_i odd) is exactly the antipode of the point j
        half = 2.0 * math.pi * np.arange(N // 2) / N
        circle = np.stack([np.cos(half), np.sin(half)], axis=-1)
        circle = np.concatenate([circle, -circle])
        angles = np.outer(np.arange(N), g) % N
        pts = np.sqrt(self.moments)[:, None, :, None] * circle[angles][None]
        return pts.reshape(-1, 2 * self.n)

    @cached_property
    def weights(self) -> np.ndarray:
        """(M N,) positive weights of ``nodes``, summing to Vol(S^{2n-1})."""
        N = self.lattice[0]
        return np.repeat(self.moment_weights, N) * ((2.0 * math.pi) ** self.n / N)

    def moment_nodes(self) -> np.ndarray:
        """(M, 2n) the nodes with every angle 0, one per moment node."""
        pts = np.zeros(self.moments.shape + (2,))
        pts[..., 0] = np.sqrt(self.moments)
        return pts.reshape(len(pts), -1)


def _gauss01(k):
    x, w = np.polynomial.legendre.leggauss(k)
    return 0.5 * (x + 1.0), 0.5 * w


def build_rule(n: int, degree: int | None = None) -> SphereRule:
    """Conical-product moments times a rank-1 angle lattice on S^{2n-1}, any
    n >= 2, exact through ``degree`` (``DEFAULT_DEGREE`` if None).

    With half = degree // 2, s_k gets (half + n - k + 1) // 2 Gauss-Legendre
    nodes, exact for the degree half + n - 1 - k that a moment monomial of
    degree half times the Jacobian reaches in s_k.  The angles are the lattice
    of ``rank1_lattice(n, degree)``, searched when the nodes are first read.
    A degree outside 0..20 is a ``ValueError``, and so is a rule whose M
    moment nodes exceed ``MAX_RULE_NODES``, before they are built.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"sphere rules need complex dimension n >= 2, got {n}")
    degree = DEFAULT_DEGREE if degree is None else int(degree)
    if not 0 <= degree <= 20:
        raise ValueError(f"exactness degree must lie in 0..20, got {degree}")
    half = degree // 2
    counts = [(half + n - k + 1) // 2 for k in range(1, n)]
    _refuse_above_limit(n, degree, math.prod(counts))

    factors = [_gauss01(count) for count in counts]
    s = np.stack(np.meshgrid(*[x for x, _ in factors], indexing="ij"), axis=-1).reshape(-1, n - 1)
    w = np.stack(np.meshgrid(*[w for _, w in factors], indexing="ij"), axis=-1).reshape(-1, n - 1)
    moments = np.empty((len(s), n))
    moment_weights = np.full(len(s), 2.0 ** (1 - n))
    rest = np.ones(len(s))
    for k in range(n - 1):
        moments[:, n - 1 - k] = s[:, k] * rest
        rest = rest * (1.0 - s[:, k])
        moment_weights = moment_weights * w[:, k] * (1.0 - s[:, k]) ** (n - 2 - k)
    moments[:, 0] = rest
    return SphereRule(n=n, degree=degree, moments=moments, moment_weights=moment_weights)


def torus_reduced(pot: RealAnalyticPotential, p) -> bool:
    """True when ``fan_out`` needs only the moment nodes: a torus-invariant
    potential at the origin exactly."""
    return pot.torus_invariant and not np.any(p)


def fan_out(pot: RealAnalyticPotential, p, rule: SphereRule):
    """(directions, weights) of a sphere integral over the metric-unit tangent
    sphere at p, from ``rule``.

    A potential whose terms all have alpha = beta is invariant under the
    torus action z_i -> e^{i theta_i} z_i.  At p = 0 the action is an isometry
    fixing p whose differential commutes with the (diagonal) metric, so
    everything a ray from p carries (density, volume, Laplacian, curvature
    jets) depends only on the moments of its direction.  The integral over
    each angle torus is then the value at angle 0 times (2 pi)^n, and one
    direction per moment node gives the lattice rule's sum exactly, without
    searching the lattice.  In every other case the directions are every node
    of the rule, refused before the lattice search when the rule is out of
    reach (``MAX_RULE_NODES``).  A node u maps to F u with F the
    inverse-transpose Cholesky factor of the real Gram matrix H at p, an
    isometry from the round sphere onto the metric unit sphere.  ``p`` is
    gated by ``curvature.metric_at``.
    """
    metric = curv.metric_at(pot, p)
    if torus_reduced(pot, metric.point):
        nodes = rule.moment_nodes()
        weights = rule.moment_weights * (2.0 * math.pi) ** rule.n
    else:
        nodes, weights = rule.nodes, rule.weights
    L = np.linalg.cholesky(curv.real_metric_matrix(metric.g))
    return nodes @ np.linalg.inv(L), weights


def rule_record(pot: RealAnalyticPotential, p, rule: SphereRule, rays: int) -> dict:
    """The ``rule`` block of a report: the rule's exactness degree, the nodes
    ``fan_out`` read (the moment nodes on the torus-reduced path, whose
    lattice is then never searched, and every node otherwise), the ``rays``
    integrated, and ``fan_out``'s symmetry at p."""
    torus = torus_reduced(pot, p)
    return {"degree": rule.degree, "nodes": len(rule.moment_weights) if torus else len(rule),
            "rays": rays, "symmetry": "torus" if torus else "none"}
