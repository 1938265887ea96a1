"""Power-series machinery for the radial Jacobi density.

The Jacobi fields J_u(r) = sum_i r^i C^v_{u,i} e_v satisfy the recursion

    C^v_{u,i} = sum_{k+j=i-2, w} C^w_{u,k} R^(j)_{vw} / (j! i (i-1)),

seeded by C_1 = identity, driven by the curvature jets R^(j) along the ray.
The coefficients give J / r as a truncated power series C(r), and det C,
taken through its logarithmic derivative tr(C^-1 C'), is the per-direction
density series, whose sphere average is W(r) (constant term Vol(S^{2n-1})).
Every coefficient, the low-order ones included, comes from
``density_series``; the ``series`` command averages it over a sphere rule.
A least-squares fit of sampled W values provides the independent numerical
route to the same coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import curvature as curv
from .polynomials import cauchy_product
from .potential import RealAnalyticPotential

__all__ = [
    "SeriesExpansion",
    "JacobiCoefficients",
    "jacobi_recursion",
    "density_series",
    "fit_w_series",
    "direction_series",
]


@dataclass(frozen=True)
class SeriesExpansion:
    coefficients: np.ndarray
    provenance: str                      # "symbolic" | "fitted"
    covariance: np.ndarray | None = None

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


def _trace_of_product(a, b):
    """tr(a b) over the last two axes, without forming the matrix product."""
    return np.einsum("...uv,...vu->...", a, b)


def density_series(coeffs: JacobiCoefficients, N: int) -> SeriesExpansion:
    """Per-direction series of det J / r^{2n-1} up to order N.

    J holds the Jacobi fields in an orthonormal parallel frame, so det J is
    sqrt(det <J_u, J_v>).  The batch axes of ``coeffs`` lead; the coefficients
    are (..., N+1) and need Jacobi coefficients to order N + 1.  The series
    C(r) = J / r = sum_i C_i r^{i-1} is read off the blocks C_1..C_{N+1}, and
    D = det C solves D' = q D with q = tr(C^-1 C'), so
    k D_k = sum_{j<k} q_j D_{k-1-j} (Taylor-mode arithmetic, Griewank and
    Walther, ch. 13).  Every product is a ``cauchy_product`` over all
    directions at once.
    """
    if N >= coeffs.order:
        raise ValueError(f"order {N} exceeds what Jacobi coefficients of order "
                         f"{coeffs.order} support (at most {coeffs.order - 1})")
    C = np.moveaxis(coeffs.C[..., 1:N + 2, :], -2, 0)
    if np.any(np.abs(np.linalg.det(C[0]) - 1.0) > 1e-12):
        raise ValueError("density series expects a Jacobi block C_1 of determinant 1")
    dC = np.arange(1, N + 1).reshape((N,) + (1,) * (C.ndim - 1)) * C[1:]
    q = cauchy_product(_trace_of_product, curv._series_inverse(C), dC)
    out = np.zeros((N + 1,) + C.shape[1:-2])
    out[0] = 1.0
    for k in range(1, N + 1):
        out[k] = np.sum(q[:k] * out[k - 1::-1], axis=0) / k
    return SeriesExpansion(coefficients=np.moveaxis(out, 0, -1), provenance="symbolic")


def direction_series(pot: RealAnalyticPotential, p, e0, order: int) -> SeriesExpansion:
    """``density_series`` to ``order`` at p along e0, one direction (2n,) or a
    batch (..., 2n): from curvature jets of order max(2, order - 2) and Jacobi
    coefficients to order + 1, the least that the order reads."""
    jets = curv.curvature_jets_along(pot, p, e0, order=max(2, order - 2))
    return density_series(jacobi_recursion(jets, order + 1), order)


def fit_w_series(samples, N: int) -> SeriesExpansion:
    """Least-squares polynomial fit of W(r) samples, powers r^0..r^N, with the
    covariance of the coefficients from the residual variance.

    Columns are norm-scaled before solving; the condition number of the scaled
    design must stay below 1e12.
    """
    samples = sorted((float(r), float(v)) for r, v in samples)
    if len(samples) < 2 * N:
        raise ValueError(f"need at least {2 * N} samples for a degree-{N} fit")
    r = np.array([s[0] for s in samples])
    y = np.array([s[1] for s in samples])
    V = r[:, None] ** np.arange(N + 1)[None, :]
    scale = np.linalg.norm(V, axis=0)
    Vs = V / scale
    cond = float(np.linalg.cond(Vs))
    if cond > 1e12:
        raise ValueError(
            f"fit design condition number {cond:.3g} too large; reduce N or widen grid")
    coef = np.linalg.lstsq(Vs, y, rcond=None)[0] / scale
    resid = y - V @ coef
    sigma2 = float(resid @ resid) / max(len(r) - (N + 1), 1)
    cov = sigma2 * np.linalg.inv(Vs.T @ Vs) / np.outer(scale, scale)
    return SeriesExpansion(coefficients=coef, provenance="fitted", covariance=cov)
