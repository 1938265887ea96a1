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
           "torus_reduced", "fan_out"]


def unit_sphere_volume(n: int) -> float:
    """Vol(S^{2n-1}) = 2 pi^n / (n-1)!."""
    return 2.0 * math.pi ** n / math.factorial(n - 1)


def _frequencies(n, degree):
    """One of each pair +-k of the k in Z^n with 0 < |k|_1 <= degree, by |k|_1,
    and their |k|_1."""
    ks = np.zeros((1, 0), dtype=np.int64)
    values = np.arange(-degree, degree + 1)
    for _ in range(n):
        rows, cols = np.nonzero(np.abs(ks).sum(axis=1)[:, None] + np.abs(values) <= degree)
        ks = np.column_stack([ks[rows], values[cols]])
    first = ks[np.arange(len(ks)), np.argmax(ks != 0, axis=1)]
    ks = ks[first > 0]
    norms = np.abs(ks).sum(axis=1)
    order = np.argsort(norms, kind="stable")
    return ks[order], norms[order]


@cache
def rank1_lattice(n: int, degree: int) -> tuple[int, tuple[int, ...]]:
    """(N, g) of the angle lattice of ``build_rule(n, degree)``.

    N is the least even number, and g = (1, a, a^2, ..) mod N the Korobov
    generator of least odd a, such that k.g is not 0 mod N for any k in Z^n
    with 0 < |k|_1 <= degree.  The k with |k|_1 <= degree // 2 must land on
    distinct points (their differences are such k), so the search starts at
    their count.  Candidates a are filtered by the k in order of |k|_1, in
    chunks that double, so that most fail on the first few.  Memoized per
    (n, degree).
    """
    ks, norms = _frequencies(n, degree)
    N = 2 * int(np.count_nonzero(norms <= degree // 2)) + 1
    N += N % 2
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
    searched only when ``nodes``, ``weights``, ``lattice`` or ``len`` is read.
    """

    n: int
    degree: int
    moments: np.ndarray         # (M, n) points u of the simplex, sum u = 1
    moment_weights: np.ndarray  # (M,) including the measure's 2^{1-n}

    @property
    def lattice(self) -> tuple[int, tuple[int, ...]]:
        """(N, g): lattice point j has the angles 2 pi (j g mod N) / N."""
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
    n >= 2, exact through ``degree``.

    The default degree is 12 for n = 2 and 8 otherwise, the cap 20.  With
    half = degree // 2, s_k gets (half + n - k + 1) // 2 Gauss-Legendre nodes,
    exact for the degree half + n - 1 - k that a moment monomial of degree
    half times the Jacobian reaches in s_k.  The angles are the lattice of
    ``rank1_lattice(n, degree)``, searched when the nodes are first read.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"sphere rules need complex dimension n >= 2, got {n}")
    degree = (12 if n == 2 else 8) if degree is None else int(degree)
    if not 0 <= degree <= 20:
        raise ValueError(f"exactness degree must lie in 0..20, got {degree}")
    half = degree // 2

    factors = [_gauss01((half + n - k + 1) // 2) for k in range(1, n)]
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


def fan_out(pot: RealAnalyticPotential, p, rule: SphereRule | None = None):
    """(directions, weights) of a sphere integral over the metric-unit tangent
    sphere at p, from ``rule`` (the default rule of ``build_rule`` if None).

    A potential whose terms all have alpha = beta is invariant under the
    torus action z_i -> e^{i theta_i} z_i.  At p = 0 the action is an isometry
    fixing p whose differential commutes with the (diagonal) metric, so
    everything a ray from p carries (density, volume, Laplacian, curvature
    jets) depends only on the moments of its direction.  The integral over
    each angle torus is then the value at angle 0 times (2 pi)^n, and one
    direction per moment node gives the lattice rule's sum exactly, without
    searching the lattice.  In every other case the directions are every node
    of the rule.  A node u maps to F u with F the inverse-transpose Cholesky
    factor of the real Gram matrix H at p, an isometry from the round sphere
    onto the metric unit sphere.  ``p`` is gated by ``curvature.metric_at``.
    """
    rule = build_rule(pot.n) if rule is None else rule
    metric = curv.metric_at(pot, p)
    if torus_reduced(pot, metric.point):
        nodes = rule.moment_nodes()
        weights = rule.moment_weights * (2.0 * math.pi) ** rule.n
    else:
        nodes, weights = rule.nodes, rule.weights
    L = np.linalg.cholesky(curv.real_metric_matrix(metric.g))
    return nodes @ np.linalg.inv(L), weights
