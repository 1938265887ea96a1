"""Metric, curvature tensor, Ricci data and directional curvature jets.

Conventions, fixed once here and anchored by the test suite:

* The Riemannian metric induced by a potential f is
  ``<X, Y> = 2 Re( g_ij xi^i conj(eta^j) )`` with ``g_ij = d_i dbar_j f``,
  where ``xi`` is the complex representation of a real tangent vector
  (``xi^i = X^{2i} + i X^{2i+1}`` for coordinates ordered x1,y1,...,xn,yn).
  With this normalization the complex Ricci constant of a space form equals
  its real Ricci constant, and ``flat(n)`` has ``|d/dx_i|^2 = 2``.
* The stored complex curvature array ``R[i,j,k,l]`` uses the geodesic
  deviation convention: the Jacobi equation reads J'' = R(e0, J)e0, the
  components of a space form with Ricci constant K are
  ``(K/(n+1)) (delta_ij delta_kl + delta_il delta_jk)``, and
  ``R(xi, conj xi, xi, conj xi)`` is the holomorphic sectional curvature of a
  unit direction.
* In a real orthonormal frame {e_0, e_1 = J e_0, e_2, ...} the matrix
  ``R_uv = <R(e0, e_u)e0, e_v>`` (u, v = 1..2n-1) is symmetric and satisfies
  ``sum_u R_uu = -Ric(e0, e0)``.
* The complex Ricci tensor is ``-d dbar log det g`` and the scalar curvature
  is its trace against the inverse metric, so Ric = K g gives scalar n K.
  Numerically it is
  ``Ric_ij = tr(G^-1 d_iG G^-1 dbar_jG) - tr(G^-1 d_i dbar_jG)``, with
  dbar_jG = (d_jG)^H, which needs only g and its first and second
  derivatives: G^-1 = W^H W comes from W = L^-1 for the Cholesky factor
  G = L L^H, and no curvature array is formed.  ``ricci_blocks`` yields W
  with Ric, so the Ricci certificate whitens with the same factor.  Ric
  equals the contraction
  ``sum_kl R[i,j,k,l] (G^-1)[l,k]`` of the curvature array.  The exact
  determinant, log-determinant and Ricci series (``ricci_series``) are built
  at a requested degree for the exact checks alone, never for a numeric value.
* Numeric values are Taylor series in a real curve parameter, order on the
  first axis; a point is a length-1 series, so points and the curvature jets
  along a geodesic (``curvature_jets_along``) run the same code.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .polynomials import CPoly, NumericPoly, QC, cauchy_product
from .potential import RealAnalyticPotential

__all__ = [
    "HermitianMetric",
    "CurvatureJets",
    "KahlerDomainError",
    "metric_at",
    "curvature_jets_along",
    "real_metric_matrix",
    "complete_frame",
    "frame_curvature_matrix",
    "connection_and_curvature",
    "transport",
    "exact_metric",
    "ricci_series",
    "workspace",
]


class KahlerDomainError(ValueError):
    """Metric not positive definite (or point outside the validity ball)."""

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


# ---------------------------------------------------------------------------
# real <-> complex tangent bookkeeping
# ---------------------------------------------------------------------------

def real_metric_matrix(G) -> np.ndarray:
    """Real 2n x 2n Gram matrix of the coordinate vector fields."""
    n = G.shape[0]
    H = np.empty((2 * n, 2 * n))
    re, im = G.real, G.imag
    H[0::2, 0::2] = 2 * re
    H[0::2, 1::2] = 2 * im
    H[1::2, 0::2] = -2 * im
    H[1::2, 1::2] = 2 * re
    return H


def _herm(a, b, G):
    # Hermitian products sum g_ij a_i conj(b_j) over the last axis; unit real
    # vectors have value 1/2
    return np.sum((a @ G) * b.conj(), axis=-1)


def complete_frame(G, xi0) -> np.ndarray:
    """J-adapted orthonormal frame [xi0, i xi0, w_2, i w_2, ...] as complex reps.

    Rows are the complex representations of 2n real orthonormal vectors with
    e_1 = J e_0 and J e_{2k} = e_{2k+1}.  xi0 must be unit; it is one direction
    (n,) or a batch (..., n), and the frames are (..., 2n, n).  The completion
    is deterministic: Gram-Schmidt seeded from the standard basis, a candidate
    taken for each direction where it leaves the span so far.
    """
    xi0 = np.asarray(xi0, dtype=complex)
    lead, n = xi0.shape[:-1], xi0.shape[-1]
    xi0 = xi0.reshape(-1, n)
    ws = np.zeros((len(xi0), n, n), dtype=complex)  # ws[:, k] is w_k, zero until taken
    ws[:, 0] = xi0
    count = np.ones(len(xi0), dtype=int)
    for cand_idx in range(n):
        if np.all(count == n):
            break
        cand = np.zeros_like(xi0)
        cand[:, cand_idx] = 1.0
        for k in range(n - 1):
            w = ws[:, k]
            taken = k < count
            coef = _herm(cand, w, G) / np.where(taken, _herm(w, w, G), 1.0)
            cand = cand - coef[:, None] * w
        norm2 = _herm(cand, cand, G).real
        take = (count < n) & (norm2 > 1e-12)
        ws[take, count[take]] = cand[take] / np.sqrt(2.0 * norm2[take, None])
        count += take
    if np.any(count < n):
        raise ValueError("frame completion failed; metric may be degenerate")
    frame = np.empty((len(xi0), 2 * n, n), dtype=complex)
    frame[:, 0::2] = ws
    frame[:, 1::2] = 1j * ws
    return frame.reshape(lead + (2 * n, n))


def frame_curvature_matrix(RH, frame) -> np.ndarray:
    """R_uv = <R(e0, e_u)e0, e_v> for u, v >= 1, given the frame's complex reps.

    ``RH`` (L, ..., n, n, n, n) and ``frame`` (L, ..., 2n, n) are Taylor series
    along a curve (a point is a length-1 series); the axes between are batch
    axes.  With c[u, ij] = xi0_i conj(e_u,j) - e_u,i conj(xi0_j) the matrix is
    Re(c R c^T) over the flattened index pairs ij and kl.
    """
    n = frame.shape[-1]
    xi0 = frame[..., :1, :, None]
    rest = frame[..., 1:, :, None]
    c = (cauchy_product(np.multiply, xi0, np.swapaxes(rest.conj(), -1, -2))
         - cauchy_product(np.multiply, rest, np.swapaxes(xi0.conj(), -1, -2)))
    c = c.reshape(c.shape[:-2] + (n * n,))
    cR = cauchy_product(np.matmul, c, RH.reshape(RH.shape[:-4] + (n * n, n * n)))
    R = cauchy_product(np.matmul, cR, np.swapaxes(c, -1, -2)).real
    return 0.5 * (R + np.swapaxes(R, -1, -2))


# ---------------------------------------------------------------------------
# cached polynomial workspace per potential
# ---------------------------------------------------------------------------

class CurvatureWorkspace:
    """Exact metric derivatives of a potential plus their numeric evaluators.

    ``g``, ``dg`` and ``d2g`` are exact.  Mixed partials commute, so of the
    n^3 entries of ``dg`` only n^2 (n+1)/2 are distinct, and of the n^4 of
    ``d2g`` only (n (n+1)/2)^2; the others are the same ``CPoly`` objects, and
    the numeric stack stores each distinct one once.  ``field_values``
    evaluates them as one stack along a Taylor series (a point is a length-1
    series).  The curvature values are computed from those numbers by
    ``connection_and_curvature``, the same path the geodesic right-hand side
    and the curvature jets run; the Ricci values take the field values
    straight to Ric (``ricci_blocks``), with one Cholesky factor of G, no
    inverse of G and no curvature array.  The workspace holds no exact
    determinant or Ricci series: ``ricci_series(ws.g, degree)`` builds them
    to the degree a check reads.
    """

    def __init__(self, pot: RealAnalyticPotential):
        self.pot = pot
        n = pot.n
        self.n = n
        self.g = exact_metric(pot)
        # dg[k][i][j] = d_k g_ij and d2g[k][l][i][j] = d_k dbar_l g_ij, derived
        # for k <= i and l <= j only: mixed partials commute, so the entry with
        # k and i (or l and j) swapped is the same object (63 of 117 at n = 3)
        self.dg = [[[None] * n for _ in range(n)] for _ in range(n)]
        self.d2g = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for k in range(n):
            for i in range(k, n):
                for j in range(n):
                    self.dg[k][i][j] = self.dg[i][k][j] = self.g[i][j].dz(k)
                for l in range(n):
                    for j in range(l, n):
                        self.d2g[k][l][i][j] = self.d2g[i][l][k][j] = self.d2g[k][j][i][l] = \
                            self.d2g[i][j][k][l] = self.dg[k][i][j].dzbar(l)

        flat_g = [self.g[i][j] for i in range(n) for j in range(n)]
        flat_dg = [self.dg[k][i][j] for k in range(n) for i in range(n) for j in range(n)]
        flat_d2g = [self.d2g[k][l][i][j]
                    for k in range(n) for l in range(n) for i in range(n) for j in range(n)]
        self._field_eval = NumericPoly(flat_g + flat_dg + flat_d2g)
        # the rows of g, dg and d2g in that stack, and the index shape of each
        a, b = n * n, n * n + n ** 3
        self._fields = ((slice(0, a), (n, n)), (slice(a, b), (n,) * 3), (slice(b, None), (n,) * 4))

    # -- numeric views ------------------------------------------------------
    def field_values(self, z):
        """(G, D1, D2) along z: metric, d_k g_ij, d_k dbar_l g_ij.

        ``z`` (L, ..., n) is the Taylor series of a curve, or of a batch of
        curves, in a real parameter; ``z[None]`` makes points a length-1
        series.  The leading axes carry over to the results.  The values have
        the dtype of ``NumericPoly.evaluate_many``: float64 for real floating
        ``z`` when the potential is torus-invariant (its field coefficients
        are real), complex128 otherwise.
        """
        n = self.n
        z = np.asarray(z)
        lead = z.shape[:-1]
        vals = self._field_eval.evaluate_many(z.reshape(lead[0], -1, n))
        return tuple(vals[..., field].reshape(lead + shape) for field, shape in self._fields)

    def metric_values(self, z):
        """Metric matrix at one point (n,) or at a batch (..., n), with the
        dtype rule of ``field_values``: the g rows of its stack."""
        return self.field_values(np.asarray(z)[None])[0][0]

    def ricci_blocks(self, Z):
        """(rows, G, W, Ric) for the points ``Z`` (P, n), one
        ``NumericPoly.blocks`` block at a time: ``rows`` is the slice of Z,
        and the arrays are point-major, the block's points on their last axis,
        read from the rows of the stack's ``NumericPoly.view`` (at real points
        the folded stack, one row per distinct folded polynomial).  W = L^-1
        for the Cholesky factor G = L L^H (``_inverse_cholesky``), and Ric
        comes from W and the field values (``_ricci_from_fields``).  Raises ``np.linalg.LinAlgError`` at
        the first block where G is not positive definite at a point.
        """
        entries = self._field_eval.view(Z).rows
        for rows, prod in self._field_eval.blocks(Z[None]):
            vals = prod[0][entries]
            G, D1, D2 = (vals[field].reshape(shape + (-1,)) for field, shape in self._fields)
            W = _inverse_cholesky(G)
            yield rows, G, W, _ricci_from_fields(W, D1, D2)


def exact_metric(pot: RealAnalyticPotential):
    """The exact metric g_ij = d_i dbar_j f of the potential, as an n x n list
    of ``CPoly`` entries."""
    df = [pot.poly.dz(i) for i in range(pot.n)]
    return [[d.dzbar(j) for j in range(pot.n)] for d in df]


def ricci_series(g, degree):
    """(det g, log(det g / det g(0)), Ric) of the exact metric ``g``.

    ``g`` is the n x n matrix of ``CPoly`` entries of ``exact_metric``; every
    product and the log composition drop the terms of total degree above
    ``degree``, and keep the others exactly.  Ric_ij = -d_i dbar_j of the
    log series (the normalising constant does not survive), so it is exact
    through degree ``degree - 2``.
    """
    n = len(g)
    det = CPoly.zero(n)
    for perm in permutations(range(n)):
        # permutation parity by counting inversions
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = CPoly.constant(n, -1 if inv % 2 else 1)
        for i in range(n):
            term = term.mul(g[i][perm[i]], trunc=degree)
        det = det + term
    # normalise by det g(0) so the log composition applies
    c0 = det.coeffs.get(((0,) * n, (0,) * n), QC())
    if c0.im != 0 or c0.re <= 0:
        raise ValueError("determinant constant term must be a positive real")
    log_det = (det.scale(QC(Fraction(1) / c0.re)) - CPoly.constant(n, 1)).log1p(degree)
    ric = [[-(log_det.dz(i).dzbar(j)) for j in range(n)] for i in range(n)]
    return det, log_det, ric


def _inverse_cholesky(G):
    """W = L^-1 for the Cholesky factor G = L L^H, so that G^-1 = W^H W.

    ``G`` (n, n, P) holds P Hermitian matrices point-major; the factor and its
    inverse are formed entry by entry over the points.  Raises
    ``np.linalg.LinAlgError`` when a G is not positive definite.
    """
    n = G.shape[0]
    L = np.empty_like(G)  # only its entries below the diagonal are read
    W = np.zeros_like(G)
    for j in range(n):
        d = G[j, j].real - sum((L[j, k] * L[j, k].conj()).real for k in range(j))
        if not np.all(d > 0):
            raise np.linalg.LinAlgError("metric is not positive definite")
        W[j, j] = 1.0 / np.sqrt(d)  # 1 / L[j, j]
        L[j + 1:, j] = (G[j + 1:, j] - sum(L[j + 1:, k] * L[j, k].conj() for k in range(j))) \
            * W[j, j]
    for i in range(1, n):
        # row i of L W = I, left of the diagonal
        W[i, :i] = -sum(L[i, k] * W[k, :i] for k in range(i)) * W[i, i]
    return W


def _ricci_from_fields(W, D1, D2):
    """Ric_ij = tr(G^-1 d_iG G^-1 dbar_jG) - tr(G^-1 d_i dbar_jG), point-major.

    ``W`` (n, n, P) is L^-1 for the Cholesky factor G = L L^H, so that
    G^-1 = W^H W; ``D1`` (n, n, n, P) and ``D2`` (n, n, n, n, P) are the field
    values with the points on the last axis, and dbar_jG = (d_jG)^H.  With
    E_i = W d_iG W^H, the first trace is the Hermitian product of E_i and E_j,
    and the second the sum of (G^-1)^T times d_i dbar_jG, entry by entry.
    """
    n = W.shape[0]
    cW = W.conj()
    F = sum(W[None, :, c, None] * D1[:, c, None] for c in range(n))
    E = sum(F[:, :, c, None] * cW[None, None, :, c] for c in range(n)).reshape(n, n * n, -1)
    ginv_t = sum(W[c, :, None] * cW[c, None, :] for c in range(n)).reshape(n * n, -1)
    return (np.einsum("imp,jmp->ijp", E, E.conj())
            - np.einsum("ijmp,mp->ijp", D2.reshape(n, n, n * n, -1), ginv_t))


def _series_inverse(G):
    """Taylor series of G^-1 from the series G (L, ..., n, n).

    Order k is -G_0^-1 sum_{j=1..k} G_j inv_{k-j}, summed in increasing j:
    the one term of the Cauchy product that the order reads.
    """
    inv = np.empty_like(G)
    inv[0] = np.linalg.inv(G[0])
    for k in range(1, len(G)):
        acc = G[1] @ inv[k - 1]
        for j in range(2, k + 1):
            acc += G[j] @ inv[k - j]
        inv[k] = -inv[0] @ acc
    return inv


def connection_and_curvature(G, D1, D2):
    """Christoffel table and curvature array from the field values.

    The arguments are Taylor series with the order on their first axis, as
    ``CurvatureWorkspace.field_values`` returns them (a point is a length-1
    series); the axes between are batch axes.  Returns ``gam`` with
    gam[..., i*n + k, m] = Gamma^m_ik = sum_q conj(Ginv)[m,q] d_i g_kq, the
    curvature array R[..., i,j,k,l] = -d_i dbar_j g_kl
    + sum_m gam[ik, m] conj(d_j g_lm), both as series.
    """
    n = G.shape[-1]
    lead = G.shape[:-2]
    cginv = _series_inverse(G).conj()
    D1f = D1.reshape(lead + (n * n, n))
    gam = cauchy_product(np.matmul, D1f, np.swapaxes(cginv, -1, -2))
    second = cauchy_product(np.matmul, gam, np.swapaxes(D1f.conj(), -1, -2))
    second = second.reshape(lead + (n, n, n, n))
    # second is indexed [i, k, j, l]; D2 is stored as d2g[k][l][i][j] =
    # d_k dbar_l g_ij, so the needed slot order d_i dbar_j g_kl is D2[i, j, k, l]
    return gam, np.swapaxes(second, -3, -2) - D2


def transport(frame, gam):
    """Gamma(e_0, e_a)^m = sum_ik e_0,i e_a,k Gamma^m_ik for the rows e_a of ``frame``
    (L, ..., 2n, n) and the ``gam`` of ``connection_and_curvature``, as Taylor series
    (a point is a length-1 series); parallel transport is e_a' = -Gamma(e_0, e_a)."""
    n = frame.shape[-1]
    ef = cauchy_product(np.multiply, frame[..., :1, :, None], frame[..., :, None, :])
    return cauchy_product(np.matmul, ef.reshape(ef.shape[:-2] + (n * n,)), gam)


# Workspaces are cached per potential, least recently used first out.
# ``verify_counterexample`` holds one besides the ones ``find_lambda`` builds
# before it, so it never loses one mid-call.
WORKSPACE_CACHE_SIZE = 8


@functools.lru_cache(maxsize=WORKSPACE_CACHE_SIZE)
def workspace(pot: RealAnalyticPotential) -> CurvatureWorkspace:
    return CurvatureWorkspace(pot)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HermitianMetric:
    point: np.ndarray
    g: np.ndarray


@dataclass(frozen=True)
class CurvatureJets:
    """Jets R[j] = d^j/dr^j R_uv(r) along the geodesic, in the parallel frame.

    Batch axes of the directions lead."""

    e0: np.ndarray          # (..., 2n) metric-unit direction
    order: int
    R: np.ndarray           # (..., order+1, 2n-1, 2n-1)
    ric: np.ndarray         # (..., order+1); Ric^{(j)}(e0, e0) = -tr R^{(j)}


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def metric_at(pot: RealAnalyticPotential, z) -> HermitianMetric:
    """The metric at z, which must lie in the validity ball and where the
    metric must be positive definite (``KahlerDomainError`` otherwise)."""
    z = np.asarray(z, dtype=complex).reshape(pot.n)
    if np.linalg.norm(z) > pot.validity_radius * (1 + 1e-12):
        raise KahlerDomainError(
            f"point at |z| = {np.linalg.norm(z):.4g} outside validity radius "
            f"{pot.validity_radius:.4g}")
    G = workspace(pot).metric_values(z)
    eigs = np.linalg.eigvalsh(G)
    if eigs[0] <= 0:
        raise KahlerDomainError(
            f"outside Kahler domain: metric eigenvalue {eigs[0]:.4g} at |z| = "
            f"{np.linalg.norm(z):.4g}", eigenvalue=float(eigs[0]))
    return HermitianMetric(point=z, g=G)


def normalize_direction(G, e0) -> np.ndarray:
    """Metric-unit complex representation of a real direction at a point.

    ``G`` is the metric matrix there; ``e0`` is one direction (2n,) or a batch
    of directions (..., 2n).
    """
    e0 = np.asarray(e0, dtype=float)
    if np.any(np.linalg.norm(e0, axis=-1) < 1e-10):
        raise ValueError("degenerate direction e0; refusing to normalize")
    xi = e0[..., 0::2] + 1j * e0[..., 1::2]
    return xi / np.sqrt(2.0 * _herm(xi, xi, G).real)[..., None]


def curvature_jets_along(pot: RealAnalyticPotential, p, e0, order: int = 4) -> CurvatureJets:
    """Covariant derivative jets of R_uv and Ric(e0,e0) along the geodesic from p.

    ``e0`` is one direction (2n,) or a batch (..., 2n); any order >= 0.  The
    geodesic z(r) and its parallel frame are Taylor series in r (Griewank &
    Walther, *Evaluating Derivatives*, ch. 13): z_{k+1} = v_k / (k+1) and
    e_{a,k+1} = -Gamma(v, e_a)_k / (k+1); R^(j) is j! times the order-j
    coefficient of R_uv along them.
    """
    metric = metric_at(pot, p)  # inside the ball, positive definite
    p = metric.point
    n = pot.n
    ws = workspace(pot)
    xi0 = normalize_direction(metric.g, e0)
    lead = xi0.shape[:-1]
    xi0 = xi0.reshape(-1, n)
    L = order + 1
    z = np.zeros((L, len(xi0), n), dtype=complex)
    z[0] = p
    full = np.zeros((L, len(xi0), 2 * n, n), dtype=complex)
    full[0] = complete_frame(metric.g, xi0)
    for k in range(order):
        gam = connection_and_curvature(*ws.field_values(z[:k + 1]))[0]
        full[k + 1] = -transport(full[:k + 1], gam)[k] / (k + 1)
        z[k + 1] = full[k, :, 0] / (k + 1)
    RH = connection_and_curvature(*ws.field_values(z))[1]
    factorials = np.array([math.factorial(j) for j in range(L)], dtype=float)
    R = frame_curvature_matrix(RH, full) * factorials[:, None, None, None]
    R = np.moveaxis(R, 0, 1).reshape(lead + (L, 2 * n - 1, 2 * n - 1))
    return CurvatureJets(e0=xi0.view(float).reshape(lead + (2 * n,)), order=order, R=R,
                         ric=-np.trace(R, axis1=-2, axis2=-1))
