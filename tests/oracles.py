"""Test oracles: plain restatements of quantities that the package computes by
other routes, and helpers that only the tests read.

Each is written the direct way (a loop over nodes, an einsum over the index
slots, term-by-term substitution), so a test that compares it with the
package's batched path checks that path against an independent one.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from kahlercomp import curvature as C
from kahlercomp.polynomials import QC, CPoly, NumericPoly, cauchy_product
from kahlercomp.potential import RealAnalyticPotential
from kahlercomp.series import SeriesExpansion
from kahlercomp.sphere import fan_out, unit_sphere_volume


# ---------------------------------------------------------------------------
# real tangent vectors in their complex representation
# ---------------------------------------------------------------------------

def complex_rep(x) -> np.ndarray:
    """xi^i = x^{2i} + i x^{2i+1}: the complex representation of real vectors
    x (..., 2n), coordinates ordered x1, y1, ..., xn, yn."""
    x = np.asarray(x, dtype=float)
    return x[..., 0::2] + 1j * x[..., 1::2]


def real_pairing(H, xi, eta) -> float:
    """2 Re(sum_ij H_ij xi^i conj(eta^j)) for a Hermitian matrix H: the real
    symmetric form that H induces on two real vectors given by their complex
    representations.  H = g gives the metric <X, Y>, and H = Ric the real
    Ricci tensor Ric(X, Y)."""
    return float(2.0 * np.real(np.asarray(xi) @ np.asarray(H) @ np.conj(eta)))


def transport_vf(frame, gam):
    """Gamma(e_0, e_a) by the hand-written formula: the series v = e_0 and
    vf[a, i*n + l] = v_i e_a,l, then the Cauchy product vf @ gam, which
    ``curvature.transport`` must reproduce bit for bit.

    ``frame`` (L, B, 2n, n) and ``gam`` (L, B, n*n, n) as ``curvature.transport``
    takes them.
    """
    L, B, two_n, n = frame.shape
    v = frame[:, :, 0]
    vf = cauchy_product(np.multiply, v[:, :, None, :, None], frame[:, :, :, None, :])
    return cauchy_product(np.matmul, vf.reshape(L, B, two_n, n * n), gam)


def rm_value(RH, xi, eta, zeta, omega) -> float:
    """<R(X, Y)Z, W> for real vectors given by their complex representations."""
    c1 = np.einsum("i,j->ij", xi, np.conj(eta)) - np.einsum("i,j->ij", eta, np.conj(xi))
    t1 = np.einsum("ij,k,l,ijkl->", c1, zeta, np.conj(omega), RH)
    t2 = np.einsum("ij,k,l,ijlk->", c1, np.conj(zeta), omega, RH)
    return float((t1 - t2).real)


# ---------------------------------------------------------------------------
# point values on the paths the checks run
# ---------------------------------------------------------------------------

def poly_values(poly, Z) -> np.ndarray:
    """The ``CPoly`` ``poly`` at the complex points Z (..., n), by the
    package's one numeric evaluator, ``NumericPoly.evaluate_many``."""
    Z = np.asarray(Z, dtype=complex)
    values = NumericPoly([poly]).evaluate_many(Z.reshape(1, -1, poly.n))
    return values[0, :, 0].reshape(Z.shape[:-1])


def curvature_array(pot, Z) -> np.ndarray:
    """The curvature array R[i,j,k,l] at the points Z (..., n): the
    ``connection_and_curvature`` of the field values, as the ray right-hand
    side and the curvature jets form it, at a length-1 series."""
    return C.connection_and_curvature(*C.workspace(pot).field_values(np.asarray(Z)[None]))[1][0]


def ricci(pot, Z):
    """(G, Ric) at the points Z (P, n), point-first, gathered from the blocks of
    ``CurvatureWorkspace.ricci_blocks``, the path the Ricci certificate runs."""
    blocks = [(G, ric) for _, G, _, ric in C.workspace(pot).ricci_blocks(np.asarray(Z))]
    return tuple(np.moveaxis(np.concatenate(parts, axis=-1), -1, 0) for parts in zip(*blocks))


def scalar_curvature(pot, Z) -> np.ndarray:
    """tr(G^-1 Ric) at the points Z (P, n), from ``ricci``: Ric = K g gives n K."""
    G, ric = ricci(pot, Z)
    return np.einsum("pij,pji->p", np.linalg.inv(G), ric).real


# ---------------------------------------------------------------------------
# the state of the rays of a geodesic batch
# ---------------------------------------------------------------------------

def ray_states(batch, r):
    """(z, [e0, e_1..e_{2n-1}], J, J') at r of every ray of a
    ``GeodesicBatch``, read from its dense output."""
    return batch._unpack(batch._states(r))


# ---------------------------------------------------------------------------
# the radial Jacobi density through the Gram matrix G = <J_u, J_v>
# ---------------------------------------------------------------------------

def gram_log_derivative(J, Jp):
    """d/dr log sqrt(det G) = tr(G^-1 G') / 2 with G = J^T J, for stacks of
    Jacobi matrices J and their derivatives J' (..., m, m)."""
    JT = np.swapaxes(J, -1, -2)
    gram_p = np.swapaxes(Jp, -1, -2) @ J + JT @ Jp
    return 0.5 * np.trace(np.linalg.solve(JT @ J, gram_p), axis1=-2, axis2=-1)


def exact_det(A) -> Fraction:
    """The determinant of the float matrix A, exactly: Gaussian elimination on
    the Fractions of its entries."""
    M = [[Fraction(float(x)) for x in row] for row in A]
    det = Fraction(1)
    for k in range(len(M)):
        p = next((i for i in range(k, len(M)) if M[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            M[k], M[p], det = M[p], M[k], -det
        det *= M[k][k]
        for i in range(k + 1, len(M)):
            f = M[i][k] / M[k][k]
            M[i] = [x - f * y for x, y in zip(M[i], M[k])]
    return det


def gram_density_series(coeffs, N) -> SeriesExpansion:
    """The density series to order N from the Gram series G = <J_u, J_v>/r^2,
    the Cauchy product of the Jacobi coefficient blocks C_1..C_{N+1} with
    their transposes, and D = sqrt(det G) from D' = q D, q = tr(G^-1 G')/2."""
    B = np.moveaxis(coeffs.C[..., 1:N + 2, :], -2, 0)
    gram = cauchy_product(np.matmul, B, np.swapaxes(B, -1, -2))
    dgram = np.arange(1, N + 1).reshape((N,) + (1,) * (gram.ndim - 1)) * gram[1:]
    q = 0.5 * cauchy_product(lambda a, b: np.einsum("...uv,...vu->...", a, b),
                             C._series_inverse(gram), dgram)
    out = np.zeros((N + 1,) + gram.shape[1:-2])
    out[0] = 1.0
    for k in range(1, N + 1):
        out[k] = np.sum(q[:k] * out[k - 1::-1], axis=0) / k
    return SeriesExpansion(coefficients=np.moveaxis(out, 0, -1), provenance="symbolic")


# ---------------------------------------------------------------------------
# sphere rules
# ---------------------------------------------------------------------------

def complex_nodes(rule) -> np.ndarray:
    """The rule's nodes as complex n-vectors z_i = x_i + i y_i."""
    return rule.nodes[:, 0::2] + 1j * rule.nodes[:, 1::2]


def sphere_average(rule, f) -> float:
    """Weighted integral of f over the rule's nodes, in fixed node order.

    Uses compensated summation; the total mass is Vol(S^{2n-1}), so divide by
    the rule's weight sum for a mean value.
    """
    return math.fsum(w * f(node) for node, w in zip(rule.nodes, rule.weights))


def tangent_nodes(rule, H) -> np.ndarray:
    """Map Euclidean nodes to metric-unit tangent vectors for a real Gram matrix H.

    The rows are F u with F the inverse-transpose Cholesky factor of H, an
    isometry from the round sphere onto the metric unit sphere.
    """
    return rule.nodes @ np.linalg.inv(np.linalg.cholesky(H))


# ---------------------------------------------------------------------------
# the Kahler R_11 identity
# ---------------------------------------------------------------------------

def r11_integral(pot, p, rule):
    """Sphere integral of R_11(e0) = <R(e0, Je0)e0, Je0> at p."""
    p = np.asarray(p, dtype=complex).reshape(pot.n)
    RH = curvature_array(pot, p)
    dirs, weights = fan_out(pot, p, rule)
    xi = complex_rep(dirs)
    # R_11 is the frame curvature of the frame [e0, Je0], at a point (a length-1 series)
    vals = C.frame_curvature_matrix(RH[None], np.stack([xi, 1j * xi], axis=1)[None])
    return math.fsum(weights * vals[0, :, 0, 0])


def kahler_r11_identity_check(pot, p, rule=None):
    """Check that the sphere integral of R_11 is the fixed multiple of scalar curvature.

    On a Kahler manifold the integral of <R(e0, Je0)e0, Je0> over the unit
    sphere is C s with C = -2 Vol(S^{2n-1}) / (n(n+1)); returns
    (lhs, rhs, residual).
    """
    n = pot.n
    p = np.asarray(p, dtype=complex).reshape(n)
    lhs = r11_integral(pot, p, rule)
    rhs = -2.0 * unit_sphere_volume(n) / (n * (n + 1)) * scalar_curvature(pot, p[None])[0]
    return lhs, rhs, lhs - rhs


# ---------------------------------------------------------------------------
# exact polynomials and potentials
# ---------------------------------------------------------------------------

def linear_substitute(poly, U) -> CPoly:
    """``poly`` with z -> U z (and conj(z) -> conj(U) conj(z)) for a matrix U
    of complex numbers or ``QC`` entries, in exact arithmetic on them."""
    n = poly.n
    zs = [CPoly.monomial(n, tuple(1 if j == i else 0 for j in range(n)), (0,) * n, 1)
          for i in range(n)]
    new_z = []
    new_zb = []
    for i in range(n):
        acc = CPoly.zero(n)
        for j in range(n):
            acc = acc + zs[j].scale(U[i][j])
        new_z.append(acc)
        new_zb.append(acc.conj())
    out = CPoly.zero(n)
    for (a, b), c in poly.coeffs.items():
        term = CPoly.constant(n, c)
        for i, e in enumerate(a):
            for _ in range(e):
                term = term * new_z[i]
        for i, e in enumerate(b):
            for _ in range(e):
                term = term * new_zb[i]
        out = out + term
    return out


def _qc_inverse(q) -> QC:
    """1 / q for a nonzero ``QC``, exactly."""
    norm = q.re * q.re + q.im * q.im
    return QC(q.re / norm, -q.im / norm)


def cayley_rotated(pot, A) -> tuple:
    """The exact potential f(U z) with U = (I - A)(I + A)^-1, the Cayley
    transform of a skew-Hermitian matrix A (A^H = -A) of rationals or ``QC``
    entries, so that U is rational and unitary.  (I + A)^-1 comes from
    Gauss-Jordan elimination in ``QC`` arithmetic (I + A is invertible, since
    A has imaginary eigenvalues).  z -> U z is an isometry from the metric of
    f(U z) to the metric of f, so every invariant of the metric (the scalar
    curvature at z, the sphere averages at the origin) is the one of f at
    U z, and the validity ball is the same.  Returns the rotated potential
    and U as a complex array."""
    n = pot.n
    A = [[QC.from_number(x) for x in row] for row in A]
    if any(A[i][j] != -A[j][i].conjugate() for i in range(n) for j in range(n)):
        raise ValueError("A must be skew-Hermitian")
    one = QC(1)
    # [I + A | I], row-reduced until its left half is I: the right half is then (I + A)^-1
    M = [[A[i][j] + (one if i == j else QC()) for j in range(n)]
         + [one if i == j else QC() for j in range(n)] for i in range(n)]
    for k in range(n):
        p = next(i for i in range(k, n) if not M[i][k].is_zero())
        M[k], M[p] = M[p], M[k]
        inv = _qc_inverse(M[k][k])
        M[k] = [x * inv for x in M[k]]
        for i in range(n):
            if i != k and not M[i][k].is_zero():
                f = M[i][k]
                M[i] = [x - f * y for x, y in zip(M[i], M[k])]
    inverse = [row[n:] for row in M]
    minus = [[(one if i == j else QC()) - A[i][j] for j in range(n)] for i in range(n)]
    U = [[sum((minus[i][k] * inverse[k][j] for k in range(n)), QC()) for j in range(n)]
         for i in range(n)]
    poly = linear_substitute(pot.poly, U)
    rotated = RealAnalyticPotential(n, [(a, b, c) for (a, b), c in poly.coeffs.items()],
                                    max_degree=pot.max_degree,
                                    validity_radius=pot.validity_radius,
                                    label=f"{pot.label} rotated")
    return rotated, np.array([[complex(x) for x in row] for row in U])


def is_even(pot) -> bool:
    """True when every term has even total degree (z -> -z symmetry)."""
    return all((sum(a) + sum(b)) % 2 == 0 for (a, b) in pot.poly.coeffs)


def scaled(pot, s) -> RealAnalyticPotential:
    """The exact potential f(s z) / s^2: the coefficient of z^alpha conj(z)^beta
    times s^(|alpha| + |beta| - 2), and the validity radius divided by s.  Its
    metric at z is the metric of ``pot`` at s z, and its Ricci form s^2 times
    the Ricci form of ``pot`` there."""
    s = Fraction(s)
    terms = [(a, b, c.scale(s ** (sum(a) + sum(b) - 2))) for (a, b), c in pot.poly.coeffs.items()]
    return RealAnalyticPotential(pot.n, terms, max_degree=pot.max_degree,
                                 validity_radius=pot.validity_radius / s,
                                 label=f"{pot.label} at s = {s}")


# ---------------------------------------------------------------------------
# the certificate's draw, one point at a time
# ---------------------------------------------------------------------------

def splitmix64(state) -> int:
    """SplitMix64's output function on a Python int (Steele, Lea & Flood,
    OOPSLA 2014), reduced modulo 2^64 after every step."""
    mask = 2 ** 64 - 1
    z = state & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def ball_point(n, rho, seed, i) -> list:
    """Point i of ``comparison._ball_points(n, rho, count, seed)`` in Python
    ints and floats: the 2n + 1 outputs of the SplitMix64 stream keyed by
    mix(seed) from k = (2n + 1) i + 1 on, their top 53 bits plus one times
    2^-53, then Box-Muller coordinates normalised and set at radius
    rho u^(1/2n)."""
    key, width = splitmix64(seed), 2 * n + 1
    u = [((splitmix64(key + k * 0x9E3779B97F4A7C15) >> 11) + 1) * 2.0 ** -53
         for k in range(width * i + 1, width * (i + 1) + 1)]
    energy = [-math.log(x) for x in u[:n]]
    radius = rho * u[-1] ** (1 / (2 * n))
    return [radius * math.sqrt(e / math.fsum(energy)) * cmath.exp(2j * math.pi * v)
            for e, v in zip(energy, u[n:2 * n])]
