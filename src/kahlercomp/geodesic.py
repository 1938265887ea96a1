"""Geodesics, parallel transport and the Jacobi system for a potential metric.

One adaptive integration carries the full state of each ray: position,
velocity, the parallel frame vectors e_1..e_{2n-1}, the Jacobi matrix J and
its derivative J' (columns = Jacobi fields J_u with J(0) = 0, J'(0) = I,
components in the parallel frame).  The Jacobi right-hand side is
J'' = R_mat J with R_mat[u][v] = <R(e0, e_u)e0, e_v> evaluated along the ray.

Rays from one base point are integrated together as a batch; a single ray is
a batch of one.  The stepper is the DOP853 pair with its error norm and dense
output (Hairer, Norsett & Wanner, *Solving ODEs I*, II.4-II.6), with scipy's
tableau and step-size constants.  Every Runge-Kutta sum over the stage axis
is one ``np.einsum`` (numpy's own loop, never a BLAS call, whose threads would
spin); ``curvature.transport`` moves the frame, as in the curvature jets.  The
tableau, scipy's ``integrate/_ivp/dop853_coefficients.py``, is loaded by its
file path (``_scipy_files``): it imports only numpy, while importing it as a
package member would first load ``scipy.integrate`` and ``scipy.optimize``.
The rays share one step sequence, but each ray's error norm is taken over
that ray's own components and a step is accepted only when every ray's norm
is below one, so each ray meets the tolerance it would meet integrated alone.

Every ray is integrated over the same range [0, r_max], inside the
potential's validity ball: a step that takes any ray to |z| >= validity radius
raises ``curvature.KahlerDomainError`` and is not stored.  The batch keeps its
``reach``, the largest |z| at the base point and the ends of its steps.

Ball volumes integrate |det J| by Gauss-Legendre, exact with ceil((7(2n-1)+1)/2)
nodes on each step's degree-7 dense output; each ray keeps its running volume.

Every reading of the dense output (densities, frame curvature, drifts) is a
batch method over all rays at one radius.
"""

from __future__ import annotations

import numpy as np

from . import curvature as curv
from ._scipy_files import load_scipy_file
from .potential import RealAnalyticPotential
from .sphere import _gauss01

__all__ = [
    "GeodesicBatch",
    "ConjugatePointError",
    "IntegrationStalledError",
    "ODE_TOL",
]


dop = load_scipy_file("integrate/_ivp/dop853_coefficients.py")
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0   # scipy.integrate._ivp.rk's step control
_STAGES = dop.N_STAGES
_ERROR_EXPONENT = -1.0 / 8.0   # the embedded error estimator has order 7
_ERROR_WEIGHTS = np.stack([dop.E5, dop.E3])  # its 5th- and 3rd-order error estimates
_TOL_MIN = 100 * np.finfo(float).eps  # least ODE tolerance a step can still meet
ODE_TOL = 1e-11                # default ODE tolerance of the rays, the checks and the CLI


class ConjugatePointError(ValueError):
    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class IntegrationStalledError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# DOP853 building blocks on a batch of states (N, d)
# ---------------------------------------------------------------------------

def _error_norms(K, h, scale):
    """scipy's DOP853 error norm, taken separately over each row of the batch."""
    err = np.einsum("es,s...->e...", _ERROR_WEIGHTS, K) / scale
    e5, e3 = np.einsum("eij,eij->ei", err, err)
    denom = e5 + 0.01 * e3
    norms = np.zeros(len(denom))
    nz = denom > 0
    norms[nz] = abs(h) * e5[nz] / np.sqrt(denom[nz] * scale.shape[1])
    return norms


def _interpolate(x, y_old, F):
    """scipy's DOP853 dense output at the normalised abscissa x (broadcast) of a step."""
    y = np.zeros(np.broadcast_shapes(np.shape(x), y_old.shape))
    for i, f in enumerate(F[::-1]):
        y += f
        y *= x if i % 2 == 0 else 1 - x
    return y + y_old


def _bisect(f, a, b, xtol):
    """A root of f in [a, b], given that f(a) and f(b) do not share a sign.

    Halves the bracket until it is at most xtol wide or its midpoint no
    longer splits it, and returns the midpoint.
    """
    fa = f(a)
    if fa == 0:
        return a
    while True:
        mid = 0.5 * (a + b)
        if b - a <= xtol or not a < mid < b:
            return mid
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid


def _jacobi_det(J, r):
    """det J of the Jacobi matrices J (..., m, m) at the radii r, as det(J / s) s^m
    for s = 2^k within a factor sqrt 2 of r (k = -1 at r = 0), an exact scaling.
    ``np.linalg.det`` forms exp(sum ln|u_kk|) and so rounds by about eps |ln det|,
    m |ln r| for J ~ r I near the base point but below m ln 2 / 2 for J / s."""
    mantissa, k = np.frexp(r)
    k = k - (mantissa < 0.5 ** 0.5)
    return np.ldexp(np.linalg.det(np.ldexp(J, -k[..., None, None])), k * J.shape[-1])


def _conjugate_point(sign, r_max):
    """First zero of det J in (0, r_max], given ``sign(r)``, the sign of det J
    at r: the first change from positive to not on a 128-point grid, bisected
    to 1e-10; None if there is none."""
    grid = np.linspace(0.0, r_max, 129)[1:]
    signs = np.array([sign(r) for r in grid])
    change = np.flatnonzero((signs[:-1] > 0) & (signs[1:] <= 0))
    if not change.size:
        return None
    return float(_bisect(sign, grid[change[0]], grid[change[0] + 1], xtol=1e-10))


class GeodesicBatch:
    """Unit-speed geodesics from a common base point, integrated together to r_max.

    Each ray carries its parallel frame, Jacobi system and dense output; the
    batch methods read the dense output once per radius for all rays, and a
    single ray is a batch of one.  Every ray shares the range [0, r_max]: a
    ray that leaves the potential's validity ball raises
    ``curvature.KahlerDomainError`` during the integration, and ``reach`` is
    the largest |z| over the base point and the step ends.  A step below
    10 ulp of r raises ``IntegrationStalledError``.  ``r_max`` must be
    positive and finite, and the tolerance ``tol`` must lie in [100 eps, 1);
    any other value, nan included, is a ``ValueError``.
    """

    def __init__(self, pot: RealAnalyticPotential, p, directions, r_max, tol=ODE_TOL):
        if not 0 < r_max < np.inf:
            raise ValueError(f"r_max must be positive and finite, got {r_max}")
        if not _TOL_MIN <= tol < 1:
            raise ValueError(f"ODE tolerance must lie in [{_TOL_MIN:.3g}, 1), got {tol}")
        self.pot = pot
        n = self.n = pot.n
        m = self.m = 2 * n - 1
        self.tol = float(tol)
        metric = curv.metric_at(pot, p)  # inside the ball, positive definite
        self._ws = curv.workspace(pot)
        xi0 = curv.normalize_direction(metric.g, np.reshape(directions, (-1, 2 * n)))
        self.e0 = xi0.view(float).copy()

        self._dim = 2 * n + 4 * n * n + 2 * m * m
        self._jblock = slice(2 * n + 4 * n * n, 2 * n + 4 * n * n + m * m)
        self._nodes, self._weights = _gauss01((7 * m + 2) // 2)
        y0 = np.zeros((len(xi0), self._dim))
        z, full, _, Jp = self._unpack(y0)
        z[:] = metric.point
        full[:] = curv.complete_frame(metric.g, xi0)
        Jp[:] = np.eye(m)
        self.nfev = 0
        self.r_max = float(r_max)
        self._integrate(y0)

    def __len__(self):
        return len(self.e0)

    # -- ODE ----------------------------------------------------------------
    def _unpack(self, Y):
        """Views (z, [e0, e_1..e_{2n-1}], J, J') into states with leading axes."""
        n, m = self.n, self.m
        lead = Y.shape[:-1]
        z = Y[..., :2 * n].view(complex)
        full = Y[..., 2 * n:self._jblock.start].view(complex).reshape(lead + (2 * n, n))
        J = Y[..., self._jblock].reshape(lead + (m, m))
        Jp = Y[..., self._jblock.stop:].reshape(lead + (m, m))
        return z, full, J, Jp

    def _rhs(self, Y):
        """Right-hand side for a batch of states (N, d); autonomous in r."""
        self.nfev += 1
        z, full, J, Jp = self._unpack(Y)
        gam, RH = curv.connection_and_curvature(*self._ws.field_values(z[None]))
        out = np.empty_like(Y)
        dz, dfull, dJ, dJp = self._unpack(out)
        dz[:] = full[:, 0]
        dfull[:] = -curv.transport(full[None], gam)[0]
        dJ[:] = Jp
        dJp[:] = curv.frame_curvature_matrix(RH, full[None])[0] @ J
        return out

    def _initial_step(self, y, f, r_end):
        """Smallest over the rays of scipy's ``select_initial_step``."""
        tol = self.tol
        scale = tol + np.abs(y) * tol
        root_d = y.shape[1] ** 0.5
        d0 = np.linalg.norm(y / scale, axis=1) / root_d
        d1 = np.linalg.norm(f / scale, axis=1) / root_d
        small = (d0 < 1e-5) | (d1 < 1e-5)
        h0 = np.where(small, 1e-6, 0.01 * d0 / np.where(small, 1.0, d1))
        h0 = np.minimum(h0, r_end)
        f1 = self._rhs(y + h0[:, None] * f)
        d2 = np.linalg.norm((f1 - f) / scale, axis=1) / root_d / h0
        flat = (d1 <= 1e-15) & (d2 <= 1e-15)
        worst = np.where(flat, 1.0, np.maximum(d1, d2))
        h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3), (0.01 / worst) ** (1 / 8))
        return float(np.min(np.minimum(np.minimum(100 * h0, h1), r_end)))

    def _stages(self, y, h, K, first, last):
        """Runge-Kutta stages first..last-1 of a step of size h from y, into K."""
        ys = np.empty_like(y)
        for s in range(first, last):
            np.einsum("s,s...->...", h * dop.A[s, :s], K[:s], out=ys)
            ys += y
            K[s] = self._rhs(ys)

    def _volume(self, y_old, F, t_old, h, x):
        """Each ray's integral of |det J| over the first fraction x of a step from t_old."""
        jb = self._jblock
        nodes = self._nodes * x
        J = _interpolate(nodes[:, None, None], y_old[:, jb], F[:, :, jb])
        det = np.abs(_jacobi_det(J.reshape(J.shape[:2] + (self.m, self.m)),
                                 t_old + nodes[:, None] * h))
        return h * x * np.einsum("k,kr->r", self._weights, det)

    def _integrate(self, y):
        tol, r_end = self.tol, self.r_max
        radius = self.pot.validity_radius
        reach2 = float(np.einsum("ij,ij->i", y[:, :2 * self.n], y[:, :2 * self.n]).max())
        f = self._rhs(y)
        h_abs = self._initial_step(y, f, r_end)
        ts = [0.0]
        self._segments = []   # (t_old, h, y_old, F, volume at t_old) per accepted step
        volume = np.zeros(len(y))
        t = 0.0
        while t < r_end:
            min_step = 10 * abs(np.nextafter(t, np.inf) - t)
            h_abs = max(h_abs, min_step)
            K = np.empty((dop.N_STAGES_EXTENDED,) + y.shape)
            K[0] = f
            rejected = False
            while True:
                if h_abs < min_step:
                    raise IntegrationStalledError(
                        f"integration stalled at r = {t}: step {h_abs:.3g} under 10 ulp")
                t_new = min(t + h_abs, r_end)
                h = t_new - t
                h_abs = h
                self._stages(y, h, K, 1, _STAGES)
                y_new = y + np.einsum("s,s...->...", h * dop.B, K[:_STAGES])
                K[_STAGES] = f_new = self._rhs(y_new)
                scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
                worst = _error_norms(K[:_STAGES + 1], h, scale).max()
                if worst < 1:
                    factor = MAX_FACTOR if worst == 0 else min(
                        MAX_FACTOR, SAFETY * worst ** _ERROR_EXPONENT)
                    h_abs *= min(1, factor) if rejected else factor
                    break
                h_abs *= max(MIN_FACTOR, SAFETY * worst ** _ERROR_EXPONENT)
                rejected = True

            z_new = y_new[:, :2 * self.n]
            abs2 = np.einsum("ij,ij->i", z_new, z_new)
            outside = np.flatnonzero(abs2 >= radius ** 2)
            if outside.size:
                raise curv.KahlerDomainError(
                    f"ray {outside[0]} leaves the validity ball |z| < {radius:.4g} in the "
                    f"step from r = {t:.6g} to r = {t_new:.6g}")
            self._stages(y, h, K, _STAGES + 1, dop.N_STAGES_EXTENDED)
            F = np.empty((dop.INTERPOLATOR_POWER,) + y.shape)
            F[0] = delta = y_new - y
            F[1] = h * f - delta
            F[2] = 2 * delta - h * (f_new + f)
            np.einsum("is,s...->i...", h * dop.D, K, out=F[3:])
            reach2 = max(reach2, float(abs2.max()))
            self._segments.append((t, h, y, F, volume))
            volume = volume + self._volume(y, F, t, h, 1.0)
            ts.append(t_new)
            t, y, f = t_new, y_new, f_new
        self._ts = np.array(ts)
        self.reach = reach2 ** 0.5

    # -- dense access ---------------------------------------------------------
    def _states(self, r, volume=False):
        """Packed states of every ray at r, or with ``volume`` each ray's
        integral of |det J| over [0, r].  An r outside [0, r_max], nan
        included, is a ``ValueError``."""
        if not -1e-15 <= r <= self.r_max * (1 + 1e-12):
            raise ValueError(f"r = {r} outside integrated range [0, {self.r_max}]")
        r = min(max(r, 0.0), self.r_max)
        k = min(max(int(np.searchsorted(self._ts, r, side="left")) - 1, 0),
                len(self._segments) - 1)
        t_old, h, y_old, F, before = self._segments[k]
        x = (r - t_old) / h
        return (before + self._volume(y_old, F, t_old, h, x) if volume
                else _interpolate(x, y_old, F))

    def volumes(self, r) -> np.ndarray:
        """Every ray's integral of |det J| over [0, r]: its share of the ball volume."""
        if r <= 0:
            raise ValueError("volume needs r > 0")
        return self._states(r, volume=True)

    def densities(self, r):
        """(det J, tr(J^-1 J')) of every ray at r: the radial Jacobi density
        and its log-derivative.  J holds the Jacobi fields in an orthonormal
        parallel frame, so sqrt(det <J_u, J_v>) = |det J| = det J before a
        conjugate point.  A ray with det J <= 0 at r raises
        ``ConjugatePointError``, bracketing the first zero of its det J.  The
        sign of det J comes from its LU factors, so a det J that underflows at
        a tiny r is not taken for a conjugate point."""
        if r <= 0:
            raise ValueError("density needs r > 0")
        _, _, J, Jp = self._unpack(self._states(r))
        bad = np.flatnonzero(np.linalg.slogdet(J).sign <= 0)
        if bad.size:
            row = bad[0]

            def sign(s):
                return np.linalg.slogdet(self._unpack(self._states(s))[2][row]).sign

            cp = _conjugate_point(sign, self.r_max)
            bracket = (0.0, r) if cp is None else (cp * (1 - 1e-10), cp * (1 + 1e-10))
            raise ConjugatePointError(f"conjugate point reached before r = {r}",
                                      bracket=bracket)
        return _jacobi_det(J, r), np.trace(np.linalg.solve(J, Jp), axis1=-2, axis2=-1)

    def quality(self, r) -> dict:
        """Worst Wronskian, frame and unit-speed drift at r over the rays."""
        z, full, J, Jp = self._unpack(self._states(r))
        gram = 2.0 * (full @ self._ws.metric_values(z) @ np.swapaxes(full.conj(), -1, -2)).real
        W = np.swapaxes(Jp, -1, -2) @ J - np.swapaxes(J, -1, -2) @ Jp
        return {"wronskian": float(np.abs(W).max()),
                "frame": float(np.abs(gram - np.eye(self.m + 1)).max()),
                "speed": float(np.abs(gram[:, 0, 0] - 1.0).max())}

