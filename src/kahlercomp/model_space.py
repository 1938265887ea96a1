"""Closed-form radial geometry of the complex space form with Ricci constant K.

The model N_K has constant holomorphic sectional curvature c = 2K/(n+1); the
radial Jacobi spectrum splits into one mode of curvature c and 2n-2 modes of
curvature c/4, giving

    density(r)  = sn_c(r) * sn_{c/4}(r)^{2n-2},
    laplacian(r) = d/dr log density(r),

with sn_lam(r) = sin(sqrt(lam) r)/sqrt(lam) continued through lam <= 0.  As
sn_c = sn_{c/4} sn'_{c/4} (double angle), the area is Vol(S^{2n-1}) times
sn_{c/4}^{2n-1} sn'_{c/4}, so ball_volume(r) = Vol(S^{2n-1}) sn_{c/4}(r)^{2n} / (2n).
These forms are not taken on faith: the test suite gates them against direct
integration of the Jacobi system on the matching truncated potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polynomials import cauchy_product
from .series import SeriesExpansion
from .sphere import unit_sphere_volume

__all__ = ["ModelSpace", "density", "laplacian", "sphere_area", "ball_volume",
           "model_series", "sn", "cot_ratio"]


@dataclass(frozen=True)
class ModelSpace:
    n: int
    K: float

    @property
    def c(self) -> float:
        return 2.0 * self.K / (self.n + 1)

    def conjugate_radius(self) -> float:
        c = self.c
        if c > 0:
            return math.pi / math.sqrt(c)
        return math.inf


def sn(lam: float, r: float) -> float:
    """Solution of y'' = -lam y with y(0) = 0, y'(0) = 1."""
    if lam > 0:
        s = math.sqrt(lam)
        return math.sin(s * r) / s
    if lam < 0:
        s = math.sqrt(-lam)
        return math.sinh(s * r) / s
    return r


def cot_ratio(lam: float, r: float) -> float:
    """sn'(r)/sn(r); series near 0 avoids the cancellation in cot."""
    x2 = lam * r * r
    if abs(x2) < 1e-6:
        # 1/r - lam r/3 - lam^2 r^3/45 - 2 lam^3 r^5/945
        return 1.0 / r - lam * r / 3.0 - lam * lam * r ** 3 / 45.0 \
            - 2.0 * lam ** 3 * r ** 5 / 945.0
    if lam > 0:
        s = math.sqrt(lam)
        return s / math.tan(s * r)
    s = math.sqrt(-lam)
    return s / math.tanh(s * r)


def _check_radius(model: ModelSpace, r: float):
    if r <= 0:
        raise ValueError("radius must be positive")
    if r >= model.conjugate_radius():
        raise ValueError(
            f"r = {r} at or beyond the conjugate radius {model.conjugate_radius():.6g}")


def density(model: ModelSpace, r: float) -> float:
    """Radial Jacobi density det J = sqrt(det <J_u, J_v>) of the model along any ray."""
    _check_radius(model, r)
    c = model.c
    return sn(c, r) * sn(c / 4.0, r) ** (2 * model.n - 2)


def laplacian(model: ModelSpace, r: float) -> float:
    """Laplacian of the distance function: d/dr log density."""
    _check_radius(model, r)
    c = model.c
    return cot_ratio(c, r) + (2 * model.n - 2) * cot_ratio(c / 4.0, r)


def sphere_area(model: ModelSpace, r: float) -> float:
    return unit_sphere_volume(model.n) * density(model, r)


def ball_volume(model: ModelSpace, r: float) -> float:
    _check_radius(model, r)
    n = model.n
    return unit_sphere_volume(n) * sn(model.c / 4.0, r) ** (2 * n) / (2 * n)


def _sn_over_r_series(lam: Fraction, order: int):
    """Exact Taylor coefficients of sn_lam(r)/r in r, length order+1."""
    coeffs = [Fraction(0)] * (order + 1)
    k = 0
    while 2 * k <= order:
        coeffs[2 * k] = (-lam) ** k * Fraction(1, math.factorial(2 * k + 1))
        k += 1
    return coeffs


def model_series(model: ModelSpace, order: int = 8) -> SeriesExpansion:
    """Taylor coefficients of W_model(r) = Vol(S^{2n-1}) density(r)/r^{2n-1}.

    Computed by exact rational series arithmetic in c; all odd-order
    coefficients vanish identically.
    """
    if order > 16:
        raise ValueError("model series supported to order 16")
    c = Fraction(model.c)
    acc = np.array(_sn_over_r_series(c, order), dtype=object)
    s_quarter = np.array(_sn_over_r_series(c / 4, order), dtype=object)
    for _ in range(2 * model.n - 2):
        acc = cauchy_product(np.multiply, acc, s_quarter)
    vol = unit_sphere_volume(model.n)
    coeffs = np.array([vol * float(x) for x in acc])
    return SeriesExpansion(coefficients=coeffs, provenance="symbolic")
