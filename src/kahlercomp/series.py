"""Power-series machinery for the radial Jacobi density.

The Jacobi fields J_u(r) = sum_i r^i C^v_{u,i} e_v satisfy the recursion

    C^v_{u,i} = sum_{k+j=i-2, w} C^w_{u,k} R^(j)_{vw} / (j! i (i-1)),

seeded by C_1 = identity, driven by the curvature jets R^(j) along the ray.
From the coefficients we expand the Gram matrix <J_u, J_v>/r^2, take the
determinant and square root as truncated formal power series, and obtain the
per-direction density series whose sphere average is W(r) (constant term
Vol(S^{2n-1})).  Every coefficient, the low-order ones included, comes from
``density_series``; the ``series`` command averages it over a sphere rule.  A
least-squares fit of sampled W values provides the independent numerical route
to the same coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from . import curvature as curv
from .polynomials import cauchy_product
from .potential import RealAnalyticPotential
from .sphere import SphereRule, fan_out, unit_sphere_volume

__all__ = [
    "SeriesExpansion",
    "JacobiCoefficients",
    "jacobi_recursion",
    "density_series",
    "fit_w_series",
    "kahler_r11_identity_check",
]


@dataclass(frozen=True)
class SeriesExpansion:
    coefficients: np.ndarray
    provenance: str                      # "symbolic" | "fitted"
    covariance: np.ndarray | None = None
    condition: float | None = None
    cv_shift: float | None = None        # relative c2 change under grid change

    def __getitem__(self, k):
        return float(self.coefficients[k])


@dataclass(frozen=True)
class JacobiCoefficients:
    e0: np.ndarray
    order: int
    C: np.ndarray   # C[..., u, i, v], 0 <= i <= order; C[..., 0, :] = 0


def jacobi_recursion(jets: curv.CurvatureJets, N: int) -> JacobiCoefficients:
    """Jacobi coefficient arrays C^v_{u,i} for 1 <= i <= N from curvature jets.

    The batch axes of ``jets`` lead here too: C is (..., m, N+1, m).
    """
    needed = max(0, N - 3)
    if jets.order < needed:
        raise ValueError(f"need jets of order >= {needed} for coefficients to order {N}")
    R = jets.R
    m = R.shape[-1]
    C = np.zeros(R.shape[:-3] + (m, N + 1, m))
    if N >= 1:
        C[..., 1, :] = np.eye(m)
    factorials = [math.factorial(j) for j in range(jets.order + 1)]
    for i in range(3, N + 1):
        block = np.zeros(R.shape[:-3] + (m, m))
        for k in range(1, i - 1):
            j = i - 2 - k
            if j > jets.order:
                continue
            factor = float(Fraction(1, factorials[j] * i * (i - 1)))
            # sum_w C[u,k,w] R^(j)[v,w]
            block += factor * (C[..., k, :] @ np.swapaxes(R[..., j, :, :], -1, -2))
        C[..., i, :] = block
    return JacobiCoefficients(e0=jets.e0, order=N, C=C)


def density_series(coeffs: JacobiCoefficients, N: int) -> SeriesExpansion:
    """Per-direction series of sqrt(det <J_u, J_v>)/r^{2n-1} up to order N.

    The batch axes of ``coeffs`` lead; the coefficients are (..., N+1).  The
    determinant (Leibniz) and the square root are truncated series products
    (``cauchy_product``) over all directions at once.
    """
    if N > 2 * coeffs.order - 2:
        raise ValueError("requested order exceeds what the coefficients support")
    C = coeffs.C
    m = C.shape[-1]
    L = N + 1
    # Gram/r^2 entries: sum over w of C[u,i,w] C[v,j,w] at power t = i+j-2
    i = np.arange(C.shape[-2])
    at_power = (i[:, None, None] + i[None, :, None] - 2 == np.arange(L)).astype(float)
    gram = np.einsum("...uiw,...vjw,ijt->t...uv", C, C, at_power)
    det = np.zeros(gram.shape[:-2])
    for perm in permutations(range(m)):
        inv = sum(1 for a in range(m) for b in range(a + 1, m) if perm[a] > perm[b])
        term = (-1.0 if inv % 2 else 1.0) * gram[..., 0, perm[0]]
        for u in range(1, m):
            term = cauchy_product(np.multiply, term, gram[..., u, perm[u]])
        det += term
    if np.any(np.abs(det[0] - 1.0) > 1e-12):
        raise ValueError("sqrt composition expects constant term 1")
    x = det.copy()
    x[0] = 0.0
    out = np.zeros_like(det)
    out[0] = 1.0
    term = out.copy()
    coeff = 1.0
    for k in range(1, L):
        coeff *= (0.5 - (k - 1)) / k  # binomial(1/2, k) recursion
        term = cauchy_product(np.multiply, term, x)
        out += coeff * term
    return SeriesExpansion(coefficients=np.moveaxis(out, 0, -1), provenance="symbolic")


def fit_w_series(samples, N: int) -> SeriesExpansion:
    """Least-squares polynomial fit of W(r) samples, powers r^0..r^N.

    Columns are norm-scaled before solving; the condition number of the scaled
    design must stay below 1e12.  A disjoint-grid refit reports the relative
    shift of the r^2 coefficient (``cv_shift``).
    """
    samples = sorted((float(r), float(v)) for r, v in samples)
    if len(samples) < 2 * N:
        raise ValueError(f"need at least {2 * N} samples for a degree-{N} fit")
    r = np.array([s[0] for s in samples])
    y = np.array([s[1] for s in samples])

    def solve(rr, yy):
        V = rr[:, None] ** np.arange(N + 1)[None, :]
        scale = np.linalg.norm(V, axis=0)
        Vs = V / scale
        cond = float(np.linalg.cond(Vs))
        if cond > 1e12:
            raise ValueError(
                f"fit design condition number {cond:.3g} too large; reduce N or widen grid")
        coef, res, *_ = np.linalg.lstsq(Vs, yy, rcond=None)
        coef = coef / scale
        dof = max(len(rr) - (N + 1), 1)
        resid = yy - V @ coef
        sigma2 = float(resid @ resid) / dof
        cov = sigma2 * np.linalg.inv((Vs.T @ Vs)) / np.outer(scale, scale)
        return coef, cov, cond

    coef, cov, cond = solve(r, y)
    coef_half, _, _ = solve(r[::2], y[::2])
    denom = abs(coef[2]) if abs(coef[2]) > 1e-12 else 1.0
    cv_shift = abs(coef_half[2] - coef[2]) / denom
    return SeriesExpansion(coefficients=coef, provenance="fitted",
                           covariance=cov, condition=cond, cv_shift=cv_shift)


def _r11_integral(pot, p, rule):
    """Sphere integral of R_11(e0) = <R(e0, Je0)e0, Je0> at p."""
    p = np.asarray(p, dtype=complex).reshape(pot.n)
    RH = curv.workspace(pot).curvature_values(p)
    dirs, weights = fan_out(pot, p, rule)
    xi = dirs[:, 0::2] + 1j * dirs[:, 1::2]
    # R_11 is the frame curvature of the frame [e0, Je0], at a point (a length-1 series)
    vals = curv.frame_curvature_matrix(RH[None], np.stack([xi, 1j * xi], axis=1)[None])
    return math.fsum(weights * vals[0, :, 0, 0])


def kahler_r11_identity_check(pot: RealAnalyticPotential, p,
                              rule: SphereRule | None = None):
    """Check that the sphere integral of R_11 is the fixed multiple of scalar curvature.

    On a Kahler manifold the integral of <R(e0, Je0)e0, Je0> over the unit
    sphere is C s with C = -2 Vol(S^{2n-1}) / (n(n+1)); returns
    (lhs, rhs, residual).
    """
    n = pot.n
    lhs = _r11_integral(pot, p, rule)
    rhs = -2.0 * unit_sphere_volume(n) / (n * (n + 1)) * curv.scalar_at(pot, p)
    return lhs, rhs, lhs - rhs
