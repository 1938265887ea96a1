"""Quadrature on the unit sphere S^{2n-1} of a complex n-dimensional tangent space.

A point of the sphere is z_i = sqrt(u_i) e^{i theta_i}: moments u on the
simplex Delta^{n-1} and angles theta on the torus T^n, with surface measure
dsigma = 2^{1-n} du dtheta.  A rule is the product of a moment rule and
equispaced angles, and ``SphereRule`` keeps the two factors.  The moment rule
is Stroud's conical product (*Approximate Calculation of Multiple
Integrals*, 1971, section 2.7): collapsed coordinates s_1..s_{n-1} in [0, 1]
with

    u_{n+1-k} = s_k prod_{j<k} (1 - s_j)  (k = 1..n-1),   u_1 = prod_j (1 - s_j),

Jacobian prod_k (1 - s_k)^{n-1-k}, and Gauss-Legendre nodes on each s_k.  An
even angle count symmetrizes the rule under z -> -z.  Rules integrate the
polynomials in (z, conj z) exactly up to the declared degree, and their
weights sum to Vol(S^{2n-1}) = 2 pi^n / (n-1)!.

``fan_out`` turns a rule into the metric-unit directions at a base point that
every sphere integral of the package runs over; for a torus-invariant
potential at the origin it needs only the moment nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.polynomial.legendre  # at import: numpy loads it lazily, on first use

from . import curvature as curv
from .potential import RealAnalyticPotential

__all__ = ["SphereRule", "build_rule", "sphere_average", "unit_sphere_volume",
           "tangent_nodes", "torus_reduced", "fan_out"]


def unit_sphere_volume(n: int) -> float:
    """Vol(S^{2n-1}) = 2 pi^n / (n-1)!."""
    return 2.0 * math.pi ** n / math.factorial(n - 1)


@dataclass(frozen=True)
class SphereRule:
    """Product of a moment rule on the simplex and n_theta equispaced angles per z_i.

    ``nodes`` and ``weights`` are the full product, built on first read:
    moment-major, then the angles of z_1..z_n in lexicographic order.
    """

    n: int
    degree: int
    moments: np.ndarray         # (M, n) points u of the simplex, sum u = 1
    moment_weights: np.ndarray  # (M,) including the measure's 2^{1-n}
    n_theta: int

    def __len__(self):
        return len(self.moment_weights) * self.n_theta ** self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        """(N, 2n) real coords, Euclidean unit, interleaved (x1, y1, ..)."""
        n, T = self.n, self.n_theta
        thetas = 2.0 * math.pi * np.arange(T) / T
        circle = np.array([(math.cos(a), math.sin(a)) for a in thetas])
        angles = np.indices((T,) * n).reshape(n, -1).T
        pts = np.sqrt(self.moments)[:, None, :, None] * circle[angles][None]
        return pts.reshape(-1, 2 * n)

    @cached_property
    def weights(self) -> np.ndarray:
        """(N,) positive weights of ``nodes``, summing to Vol(S^{2n-1})."""
        w_theta = 2.0 * math.pi / self.n_theta
        w = np.repeat(self.moment_weights, self.n_theta ** self.n)
        # one angle factor at a time, ((0.5 w_s) w_theta) w_theta for n = 2, so
        # that n = 2 results stay bit-identical to those of earlier releases
        for _ in range(self.n):
            w = w * w_theta
        return w

    def moment_nodes(self) -> np.ndarray:
        """(M, 2n) the nodes with every angle 0, one per moment node."""
        pts = np.zeros(self.moments.shape + (2,))
        pts[..., 0] = np.sqrt(self.moments)
        return pts.reshape(len(pts), -1)

    def complex_nodes(self) -> np.ndarray:
        return self.nodes[:, 0::2] + 1j * self.nodes[:, 1::2]


def _gauss01(k):
    x, w = np.polynomial.legendre.leggauss(k)
    return 0.5 * (x + 1.0), 0.5 * w


def build_rule(n: int, degree: int | None = None) -> SphereRule:
    """Conical-product rule on S^{2n-1}, any n >= 2, exact through ``degree``.

    The default degree is 12 for n = 2 and 8 otherwise, the cap 20.  With
    half = degree // 2, s_k gets (half + n - k + 1) // 2 Gauss-Legendre nodes,
    exact for the degree half + n - 1 - k that a moment monomial of degree
    half times the Jacobian reaches in s_k; the angle count is the least even
    number above the degree.
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
    n_theta = degree + 2 - degree % 2
    return SphereRule(n=n, degree=degree, moments=moments,
                      moment_weights=moment_weights, n_theta=n_theta)


def sphere_average(rule: SphereRule, f) -> float:
    """Weighted integral of f over the rule's nodes, in fixed node order.

    Uses compensated summation; the total mass is Vol(S^{2n-1}), so divide by
    the rule's weight sum for a mean value.
    """
    return math.fsum(w * f(node) for node, w in zip(rule.nodes, rule.weights))


def _metric_unit(nodes, H):
    # F u with F the inverse-transpose Cholesky factor of H
    L = np.linalg.cholesky(H)
    return nodes @ np.linalg.inv(L)


def tangent_nodes(rule: SphereRule, H: np.ndarray) -> np.ndarray:
    """Map Euclidean nodes to metric-unit tangent vectors for a real Gram matrix H.

    The rows are F u with F the inverse-transpose Cholesky factor of H, an
    isometry from the round sphere onto the metric unit sphere.
    """
    return _metric_unit(rule.nodes, H)


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
    direction per moment node gives the product rule's sum exactly.  In every
    other case the directions are the rule's full product.  ``p`` is gated by
    ``curvature.metric_at``.
    """
    rule = build_rule(pot.n) if rule is None else rule
    metric = curv.metric_at(pot, p)
    if torus_reduced(pot, metric.point):
        nodes = rule.moment_nodes()
        weights = rule.moment_weights * (2.0 * math.pi) ** rule.n
    else:
        nodes, weights = rule.nodes, rule.weights
    return _metric_unit(nodes, curv.real_metric_matrix(metric.g)), weights
