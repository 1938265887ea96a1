"""Volume-ratio and average-Laplacian comparison checks against the space-form model.

Each check certifies the Ricci lower bound Ric >= K g on a sampled
neighborhood, fans geodesic rays over a sphere rule, reduces densities and
log-derivatives deterministically, and reports signed margins (model minus
manifold) with a three-way verdict: ``holds`` when every margin clears -tol,
``violated`` when some margin is below -10 tol, ``inconclusive`` between.

``verify_counterexample`` runs the staged check of the catalog ``section6``
family: exact golden series for the metric and Ricci, curvature values at the
origin, and the positive pointwise gap between the radial Laplacian along the
x1-axis and the model value — the failure of the pointwise comparison that the
averaged version rules out.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import curvature as curv
from . import geodesic, model_space, series
from .polynomials import CPoly
from .potential import RealAnalyticPotential, section6
from .sphere import SphereRule, build_rule, fan_out, rule_record, unit_sphere_volume

__all__ = [
    "RicciBoundCertificate",
    "ComparisonReport",
    "CounterexampleReport",
    "DeviationReport",
    "SphereFlow",
    "certify_ricci_bound",
    "find_lambda",
    "check_volume_ratio",
    "check_average_laplacian",
    "verify_counterexample",
    "rigidity_probe",
]

TOL_VOLUME = 1e-6      # relative, volume ratios
TOL_LAPLACIAN = 1e-7   # absolute, average Laplacian
# radii of the volume-ratio check at most: its table holds every pair a < b,
# 32 640 rows at 256 radii
VOLUME_RATIO_RADII = 256
CERT_TOL = 1e-9
LAMBDA_SAMPLES = 4000  # certificate samples of each find_lambda step
LAMBDA_RHO = 0.05      # radius of the ball the counterexample's lambda is certified on
# points whose least eigenvalues the certificate takes together: four blocks
# of the Ricci pass, so that the n = 3 closed form runs on long arrays while
# the whitened deficits held at once stay small (2048 x 9 floats at n = 3)
EIGEN_CHUNK = 2048
# the certificate's draw: SplitMix64's counter increment, 2^64 / phi rounded
# to an odd integer; the seeds it keys a stream by; and the points drawn at a
# time, so that each integer or float temporary of a block stays near 56 KiB
# at n = 3
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
SEED_LIMIT = 2 ** 64
BALL_BLOCK = 1024

# radii of the rigidity probe's W-series fit of order RIGIDITY_ORDER; its flow
# reaches 1% past the last radius so that radius lies inside the integrated range
RIGIDITY_R_LO = 5e-3
RIGIDITY_R_HI = 8e-2
RIGIDITY_FLOW_RADIUS = RIGIDITY_R_HI * 1.01
RIGIDITY_ORDER = 6


@dataclass(frozen=True)
class RicciBoundCertificate:
    rho: float
    min_eigenvalue: float
    samples: int
    passed: bool
    witness: tuple | None = None
    symmetry: str = "none"   # "torus": evaluated at the moment representatives |z|

    def to_json_dict(self):
        """The deterministic facts behind the verdict's Ricci assumption;
        sampled evidence, so never ``rigorous``."""
        return {"rho": self.rho, "samples": self.samples,
                "min_eigenvalue": self.min_eigenvalue, "passed": self.passed,
                "rigorous": False, "symmetry": self.symmetry}


@dataclass
class ComparisonReport:
    metric_id: str
    K: float
    grid: list
    rows: list          # dicts with keys lhs, rhs, margin (+ grid coordinates)
    verdict: str
    tolerances: dict
    certificate: RicciBoundCertificate | None = None
    rule: dict | None = None    # the flow's ``SphereFlow.to_json_dict()``

    def to_json_dict(self):
        return {
            "metric_id": self.metric_id,
            "K": self.K,
            "grid": self.grid,
            "rows": self.rows,
            "verdict": self.verdict,
            "tolerances": self.tolerances,
        }


def _verdict(margins, tol):
    margins = np.asarray(margins, dtype=float)
    if np.all(margins >= -tol):
        return "holds"
    if np.any(margins <= -10 * tol):
        return "violated"
    return "inconclusive"


# ---------------------------------------------------------------------------
# Ricci lower-bound certificates
# ---------------------------------------------------------------------------

def _splitmix64(z):
    """SplitMix64's output function of each entry of the uint64 array z, in
    place (Steele, Lea & Flood, "Fast splittable pseudorandom number
    generators", OOPSLA 2014).  A bijection of [0, 2^64); its products wrap
    modulo 2^64, silently since z is an array."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _ball_points(n, rho, count, seed):
    """``count`` points uniform in the real 2n-ball of radius rho: Gaussian
    directions, normalised, at radii rho u^(1/2n), as complex coordinates
    x + iy.

    Every u is a uniform on (0, 1] of the SplitMix64 sequence keyed by
    mix(seed), seed in [0, 2^64): output k = 1, 2, .. is
    mix(key + k SPLITMIX_GAMMA) mod 2^64, and its top 53 bits plus one, times
    2^-53, the uniform.  The seed is mixed before it offsets the counter, so
    that nearby seeds key unrelated streams.  Point i reads the 2n + 1
    outputs from k = (2n + 1) i + 1 on: u_1..u_n, v_1..v_n and the radius's
    u.  Its coordinate j is the Box-Muller pair sqrt(-2 log u_j)
    e^(2 pi i v_j), a standard complex Gaussian, whose factor sqrt(2) the
    normalisation cancels.  rho enters as one factor of every coordinate, so
    halving rho halves every point exactly.  Points are drawn ``BALL_BLOCK``
    at a time straight into the output, so that the temporaries stay small
    whatever ``count``; the points do not depend on the block size."""
    width = 2 * n + 1
    key = _splitmix64(np.array([seed], dtype=np.uint64))
    out = np.empty((count, n), dtype=complex)
    for start in range(0, count, BALL_BLOCK):
        stop = min(start + BALL_BLOCK, count)
        z = np.arange(width * start + 1, width * stop + 1, dtype=np.uint64)
        z *= SPLITMIX_GAMMA
        z += key
        _splitmix64(z)
        z >>= 11
        z += 1
        u = z.reshape(-1, width) * 2.0 ** -53
        energy = -np.log(u[:, :n])
        total = energy[:, 0].copy()   # by columns: numpy reduces a short last axis slowly
        for j in range(1, n):
            total += energy[:, j]
        scale = rho * u[:, -1] ** (1.0 / (2 * n)) / np.sqrt(total)
        modulus = np.sqrt(energy) * scale[:, None]
        angle = 2.0 * math.pi * u[:, n:-1]
        block = out[start:stop]
        np.multiply(modulus, np.cos(angle), out=block.real)
        np.multiply(modulus, np.sin(angle), out=block.imag)
    return out


@functools.lru_cache(maxsize=4)
def _certificate_points(n, rho, samples, seed):
    """The certificate's sample: the origin, ``_ball_points(n, rho, samples,
    seed)``, and radial grids of 8 radii from rho/8 to rho along the
    directions of the first 64 of those points.  Each point is formed from
    rho by products, quotients and sums that a power of two scales exactly,
    so the sample at rho/2 is exactly half the sample at rho.  Read-only and
    kept for the last few keys, since the checks of one request, and the
    steps of ``find_lambda``, certify on the same sample."""
    Z = _ball_points(n, rho, samples, seed)
    norms = np.linalg.norm(Z[:64], axis=1)
    keep = norms > 1e-12
    dirs = Z[:64][keep] / norms[keep, None]
    radii = np.linspace(rho / 8.0, rho, 8)
    radial = (dirs[:, None, :] * radii[None, :, None]).reshape(-1, n)
    points = np.vstack([np.zeros((1, n), dtype=complex), Z, radial])
    points.flags.writeable = False
    return points


def _least_eigenvalues(M):
    """Least eigenvalue of each Hermitian matrix of the point-major stack M
    (n, n, P), read from its lower triangle as ``np.linalg.eigvalsh`` reads it.
    At n = 2 it is the closed form (a + d)/2 - hypot((a - d)/2, |b|), with a
    and d the diagonal and b = M[1, 0]; hypot forms |((a - d)/2, b)| with no
    overflow or underflow in the squares.  At n = 3 it is the guarded
    trigonometric root of ``_trigonometric_least``, with ``eigvalsh`` at the
    points its guard refuses, and at n >= 4 ``eigvalsh``.  Both closed forms
    stay within 8 eps max|M| of ``eigvalsh``."""
    if M.shape[0] == 2:
        a, d = M[0, 0].real, M[1, 1].real
        return 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(M[1, 0]))
    if M.shape[0] == 3:
        least, refused = _trigonometric_least(M)
        if refused.any():
            least[refused] = _eigvalsh_least(M[:, :, refused])
        return least
    return _eigvalsh_least(M)


def _eigvalsh_least(M):
    """LAPACK's least eigenvalue of each matrix of the point-major stack M."""
    return np.linalg.eigvalsh(np.moveaxis(M, -1, 0))[:, 0]


def _trigonometric_least(M):
    """(least, refused) for the Hermitian 3 x 3 matrices of the stack M (3, 3,
    P), read from the lower triangle: the trigonometric root of the
    characteristic polynomial (Smith, CACM 4, 1961), and the points where
    that root could miss the bound 8 eps max|M| that the n = 2 form holds,
    which are left to LAPACK's ``eigvalsh``.

    Each matrix is scaled by 2^-e, e the exponent of m = max |entry| (the
    larger of |Re| and |Im| of the off-diagonal ones), so that squares and
    cubes neither overflow nor underflow; the scaling is exact.  It is then
    centred twice, by q = tr/3 and by the trace tau of what the rounded
    subtraction leaves, so that B = M - (q + tau) I is traceless to the
    rounding of its own entries, of size p = |B|_F / sqrt(6); a single shift
    would leave a trace of order eps m and move r by eps m / p.  With
    r = det(B / p) / 2 in [-1, 1], the least eigenvalue is
    q + tau + 2 p cos(arccos(r)/3 + 2 pi/3).

    Error and guard.  The entries of B / p are at most 2 and carry relative
    rounding errors, so r is formed with an absolute error delta_r of at most
    about 8 eps (the normalisation by p^3 and four rounded products).  The
    root moves by p delta_r / sqrt(6 (1 - r)) to first order at r -> 1, where
    the two least eigenvalues meet (Kopp, IJMPC 19, 2008), that is by at most
    3.3 eps p / sqrt(1 - r); q, tau, p and the cosine add about 1.5 eps m.  A
    point is refused where p > 2 m sqrt(1 - r), since only there can the sum
    exceed 8 eps m.  The guard reads p, not m: a matrix close to a multiple
    of the identity (p << m) keeps the closed form at any r.  Measured against 50-digit eigenvalues of the certificate stacks of
    space_form(3, +-1, degree=12) and perturbed(3, 0), the kept roots err by
    at most 4 eps m, and 8% of the space-form points (none of the perturbed
    ones) go to ``eigvalsh``.
    """
    P = M.shape[2]
    d = M[[0, 1, 2], [0, 1, 2]].real.copy()
    off = M[[1, 2, 2], [0, 0, 1]]  # M[1, 0], M[2, 0], M[2, 1]
    m = np.maximum(np.abs(d).max(axis=0),
                   np.abs(off.view(float)).reshape(3, P, -1).max(axis=(0, 2)))
    shift = np.minimum(-np.frexp(m)[1], 1021)
    scale = np.ldexp(1.0, shift)
    d *= scale
    off = off * scale
    q = (d[0] + d[1] + d[2]) / 3
    d -= q
    tau = (d[0] + d[1] + d[2]) / 3
    d -= tau
    sq = off * off if off.dtype.kind == "f" else off.real ** 2 + off.imag ** 2
    x, y, z = off
    p2 = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + 2 * (sq[0] + sq[1] + sq[2])) / 6
    p = np.sqrt(p2)
    det = (d[0] * d[1] * d[2] - d[0] * sq[2] - d[1] * sq[1] - d[2] * sq[0]
           + 2 * (x * z * y.conj()).real)
    den = 2 * p2 * p
    r = np.clip(np.divide(det, den, out=np.zeros(P), where=den > 0), -1.0, 1.0)
    least = np.ldexp(q + (tau + 2 * p * np.cos(np.arccos(r) / 3 + 2 * np.pi / 3)), -shift)
    return least, p2 > 4 * (m * scale) ** 2 * (1 - r)


def certify_ricci_bound(pot: RealAnalyticPotential, K, rho, samples=10000,
                        seed=0) -> RicciBoundCertificate:
    """Sampled evidence that Ric - K g is positive semidefinite on the rho-ball.

    Evaluates the minimum eigenvalue of the metric-whitened Ricci deficit
    M = L^-1 (Ric - K g) L^-H, g = L L^H, on ``_certificate_points``: the
    origin, ``samples`` points drawn uniformly from the ball by
    ``_ball_points`` from the SplitMix64 stream of ``seed`` and radial grids
    along 64 of their directions; the certificate passes when the minimum
    stays above -1e-9.  A seed that is not an integer in [0, 2^64)
    (``SEED_LIMIT``) is a ``ValueError``, raised before anything is drawn.
    The whitening takes W = L^-1 from the Ricci pass itself
    (``CurvatureWorkspace.ricci_blocks``): M = W Ric W^H - K I is formed block
    by block, point-major, and G is factored once.  The least eigenvalue is
    a closed form at n = 2 and n = 3 (``_least_eigenvalues``) and LAPACK's
    ``eigvalsh`` at any larger n, on ``EIGEN_CHUNK`` points at a time.

    For a torus-invariant potential (``symmetry: "torus"``) each point z is
    evaluated at its moment representative |z|, in real arithmetic.  The
    reduction is exact: f(Dz) = f(z) for D = diag(e^{i theta}) gives
    g(z) = D g(|z|) D^H and Ric(z) = D Ric(|z|) D^H, so the Cholesky factor
    at z is D L(|z|) D^H and M(z) = D M(|z|) D^H has the eigenvalues of M(|z|).
    The count of points and the witness (the drawn complex point) are those
    of the unreduced sample.
    """
    if samples < 1:
        raise ValueError(f"certificate samples must be at least 1, got {samples}")
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < SEED_LIMIT):
        raise ValueError(f"certificate seed must be an integer in [0, 2^64), got {seed}")
    if not rho > 0:  # nan too
        raise ValueError(f"certificate radius rho must be positive, got {rho}")
    if rho > pot.validity_radius:
        raise ValueError("certificate radius exceeds the validity ball")
    Z = _certificate_points(pot.n, float(rho), samples, seed)
    symmetry = "torus" if pot.torus_invariant else "none"
    at = np.abs(Z) if symmetry == "torus" else Z

    def certificate(min_eig, passed, idx):
        return RicciBoundCertificate(
            rho=float(rho), min_eigenvalue=min_eig, samples=Z.shape[0], passed=passed,
            witness=None if passed else tuple(Z[idx].tolist()), symmetry=symmetry)

    ws = curv.workspace(pot)
    least = np.empty(len(at))
    chunk, start = [], 0
    try:
        for rows, _, W, ric in ws.ricci_blocks(at):
            # whiten: M = W Ric W^H - K I = L^-1 (Ric - K G) L^-H
            X = sum(W[:, c, None] * ric[None, c] for c in range(pot.n))
            M = sum(X[:, c, None] * W[None, :, c].conj() for c in range(pot.n))
            M[range(pot.n), range(pot.n)] -= float(K)
            chunk.append(M)
            if rows.stop - start >= EIGEN_CHUNK or rows.stop == len(at):
                least[start:rows.stop] = _least_eigenvalues(np.concatenate(chunk, axis=-1))
                chunk, start = [], rows.stop
    except np.linalg.LinAlgError:
        # the metric is not positive definite somewhere; its least eigenvalue
        # marks the witness
        bad = int(np.argmin(np.linalg.eigvalsh(ws.metric_values(at))[:, 0]))
        return certificate(float("-inf"), False, bad)
    idx = int(np.argmin(least))
    min_eig = float(least[idx])
    return certificate(min_eig, min_eig >= -CERT_TOL, idx)


def _lambda_certificate(a, lam, rho, samples, seed):
    """Ric >= -12a g for section6(a, lam) on the rho-ball."""
    return certify_ricci_bound(section6(a, lam), -12.0 * float(a), rho, samples=samples,
                               seed=seed)


def find_lambda(a, rho, samples=LAMBDA_SAMPLES, seed=0):
    """Smallest stabilizer weight making Ric >= -12a hold on the rho-ball.

    Doubling search for a passing value, then bisection to 1 percent relative
    width; returns the passing endpoint (0.0 when no stabilizer is needed)
    and the steps (lambda, min_eigenvalue, passed).  A ``ValueError`` when
    the doubling search passes no weight below 1e6.
    """
    if a == 0:
        return 0.0, [(0.0, 0.0, True)]
    steps = []

    def passes(lam):
        cert = _lambda_certificate(a, lam, rho, samples, seed)
        steps.append((float(lam), cert.min_eigenvalue, cert.passed))
        return cert.passed

    if passes(0.0):
        return 0.0, steps
    lo, hi = 0.0, 1e-3
    while not passes(hi):
        lo, hi = hi, hi * 2.0
        if hi > 1e6:
            raise ValueError(f"no stabilizer weight lambda below 1e6 makes Ric >= -12a g "
                             f"hold on the {rho}-ball for a = {a}")
    while hi - lo > 0.01 * hi:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi, steps


# ---------------------------------------------------------------------------
# ray fan-out shared by the checks
# ---------------------------------------------------------------------------

class SphereFlow:
    """Geodesic rays from a common base point over the directions of a sphere rule.

    The directions and their weights come from ``sphere.fan_out``: one ray per
    moment node for a torus-invariant potential at the origin, one per node
    of the rule otherwise.  The rays are integrated as one
    ``GeodesicBatch``; each reduction reads its dense output once per radius
    for all rays and sums in fixed ray order.
    """

    def __init__(self, pot: RealAnalyticPotential, p, r_max, rule: SphereRule | None = None,
                 tol=geodesic.ODE_TOL):
        self.pot = pot
        self.p = np.asarray(p, dtype=complex).reshape(pot.n)
        self.r_max = float(r_max)
        self.rule = build_rule(pot.n) if rule is None else rule
        dirs, self.weights = fan_out(pot, self.p, self.rule)
        self.rays = geodesic.GeodesicBatch(pot, self.p, dirs, self.r_max, tol=tol)

    def to_json_dict(self):
        """The rule's degree and nodes, the rays integrated and ``fan_out``'s symmetry."""
        return rule_record(self.pot, self.p, self.rule, len(self.rays))

    def ball_volume(self, r) -> float:
        return math.fsum(self.weights * self.rays.volumes(r))

    def w_value(self, r) -> float:
        vals, _ = self.rays.densities(r)
        m = 2 * self.pot.n - 1
        return math.fsum(self.weights * vals) / r ** m

    def average_laplacian(self, r) -> float:
        vals, logd = self.rays.densities(r)
        weighted = self.weights * vals
        return math.fsum(weighted * logd) / math.fsum(weighted)


def _certified(pot, K, rho, seed):
    """``certify_ricci_bound`` on the rho-ball; a refused certificate raises a
    ``ValueError``."""
    certificate = certify_ricci_bound(pot, K, rho, seed=seed)
    if not certificate.passed:
        raise ValueError(
            f"Ricci bound certificate refused (min eigenvalue "
            f"{certificate.min_eigenvalue:.3g} at {certificate.witness})")
    return certificate


def _certified_flow(pot, K, rho, r_max, rule, tol_ode, seed):
    """(certificate, flow): certify Ric >= K g on the ball of radius
    min(rho, validity radius), then fan the rays from the origin to r_max.  A
    unit-speed ray reaches about |z| = r / sqrt(2 lambda_min(g)), which passes
    rho where the metric is small; when the rays' ``reach`` exceeds the
    certified radius, the bound is certified again on the ball of that reach.
    A refused certificate raises a ``ValueError``: the first before any ray is
    integrated, the second before any reduction reads the flow."""
    certificate = _certified(pot, K, min(rho, pot.validity_radius), seed)
    flow = SphereFlow(pot, np.zeros(pot.n, dtype=complex), r_max, rule, tol_ode)
    if flow.rays.reach > certificate.rho:
        certificate = _certified(pot, K, flow.rays.reach, seed)
    return certificate, flow


# ---------------------------------------------------------------------------
# the two comparison theorems at desk scale
# ---------------------------------------------------------------------------

def _radius_grid(r_grid, n):
    """The radii of a check as a float array (8 from 0.005 to 0.04 if None).
    A grid that is empty, or holds a radius that is not finite and positive,
    is refused before anything is certified or integrated.  So is a radius
    below r_floor = 64 eps (2n - 1) / TOL_LAPLACIAN: the Laplacians are about
    (2n - 1)/r, and below the floor one ulp of them exceeds TOL_LAPLACIAN / 64,
    so an absolute tolerance can no longer tell a margin from rounding."""
    r_grid = np.asarray(np.linspace(0.005, 0.04, 8) if r_grid is None else r_grid, dtype=float)
    radii = r_grid.tolist()
    if r_grid.ndim != 1 or not radii or not all(math.isfinite(r) and r > 0 for r in radii):
        raise ValueError(f"radius grid must be a non-empty list of finite radii > 0, "
                         f"got {radii}")
    floor = 64 * np.finfo(float).eps * (2 * n - 1) / TOL_LAPLACIAN
    if min(radii) < floor:
        raise ValueError(f"radius {min(radii):.3g} is below the floor {floor:.3g} that the "
                         f"checks resolve at n = {n}")
    return r_grid


def check_volume_ratio(pot: RealAnalyticPotential, K, r_grid=None, rule=None,
                       tol_ode=geodesic.ODE_TOL, seed=0) -> ComparisonReport:
    """Vol(B(b))/Vol(B(a)) at the origin against the model ratio over all grid
    pairs a < b, on the ball where Ric >= K g is certified.  A grid that is
    not strictly increasing is refused: a repeated radius gives the pair
    (a, a) a margin 0 by construction, and the pairs are taken in grid order.
    So is one of more than ``VOLUME_RATIO_RADII`` radii, whose table of pairs
    grows with the square of the grid."""
    r_grid = _radius_grid(r_grid, pot.n)
    if r_grid.size < 2:
        raise ValueError("volume-ratio check needs at least two radii")
    if r_grid.size > VOLUME_RATIO_RADII:
        raise ValueError(f"volume-ratio check takes at most {VOLUME_RATIO_RADII} radii, "
                         f"got {r_grid.size}")
    if not np.all(np.diff(r_grid) > 0):
        raise ValueError(f"volume-ratio check needs distinct radii in increasing order, "
                         f"got {r_grid.tolist()}")
    b_max = float(r_grid.max())
    certificate, flow = _certified_flow(pot, K, b_max, b_max, rule, tol_ode, seed)
    model = model_space.ModelSpace(pot.n, float(K))
    vols = {float(r): flow.ball_volume(r) for r in r_grid}
    model_vols = {float(r): model_space.ball_volume(model, r) for r in r_grid}
    rows = []
    margins = []
    for i, a in enumerate(r_grid):
        for b in r_grid[i + 1:]:
            lhs = vols[float(b)] / vols[float(a)]
            rhs = model_vols[float(b)] / model_vols[float(a)]
            margin = (rhs - lhs) / rhs
            margins.append(margin)
            rows.append({"a": float(a), "b": float(b), "lhs": lhs, "rhs": rhs,
                         "margin": margin})
    return ComparisonReport(metric_id=pot.label, K=float(K),
                            grid=[(row["a"], row["b"]) for row in rows], rows=rows,
                            verdict=_verdict(margins, TOL_VOLUME),
                            tolerances={"margin": TOL_VOLUME, "ode": tol_ode},
                            certificate=certificate, rule=flow.to_json_dict())


def check_average_laplacian(pot: RealAnalyticPotential, K, r_grid=None, rule=None,
                            tol_ode=geodesic.ODE_TOL, seed=0) -> ComparisonReport:
    """Area-weighted mean of the radial Laplacian at the origin against the
    model value, on the ball where Ric >= K g is certified."""
    r_grid = _radius_grid(r_grid, pot.n)
    b_max = float(r_grid.max())
    certificate, flow = _certified_flow(pot, K, b_max, b_max, rule, tol_ode, seed)
    model = model_space.ModelSpace(pot.n, float(K))
    rows = []
    margins = []
    for r in r_grid:
        lhs = flow.average_laplacian(float(r))
        rhs = model_space.laplacian(model, float(r))
        margin = rhs - lhs
        margins.append(margin)
        rows.append({"r": float(r), "lhs": lhs, "rhs": rhs, "margin": margin})
    return ComparisonReport(metric_id=pot.label, K=float(K),
                            grid=list(map(float, r_grid)), rows=rows,
                            verdict=_verdict(margins, TOL_LAPLACIAN),
                            tolerances={"margin": TOL_LAPLACIAN, "ode": tol_ode},
                            certificate=certificate, rule=flow.to_json_dict())


# ---------------------------------------------------------------------------
# staged counterexample verification
# ---------------------------------------------------------------------------

@dataclass
class CounterexampleReport:
    """The stages of ``verify_counterexample``, each a dict of plain values
    (floats, bools and lists) with its ``passed`` flag.

    The ``verdict`` is ``holds`` when every stage passes.  A failing stage
    makes it ``violated`` only when the number it failed on is resolved: any
    of the exact or closed-form stages i-iii, stage iv with |margin| above its
    ``budget``, stage v with some |margin| above 10 times its
    ``error_budget``.  Otherwise it is ``inconclusive``: at a = 1e-4 every
    pointwise margin is positive but none clears 10 times its budget.
    """

    a: float
    lam: float
    stages: dict = field(default_factory=dict)
    lambda_search: dict | None = None   # the certificate steps that chose or checked lambda

    @property
    def passed_all(self) -> bool:
        return all(st["passed"] for st in self.stages.values())

    @property
    def verdict(self) -> str:
        if self.passed_all:
            return "holds"
        r4, gap = self.stages["r4_coefficient"], self.stages["pointwise_gap"]
        resolved = {"r4_coefficient": abs(r4["margin"]) > r4["budget"],
                    "pointwise_gap": max(map(abs, gap["margins"])) > 10.0 * gap["error_budget"]}
        if any(not st["passed"] and resolved.get(name, True)
               for name, st in self.stages.items()):
            return "violated"
        return "inconclusive"

    def to_json_dict(self):
        return {"a": self.a, "lambda": self.lam, "passed_all": self.passed_all,
                "stages": self.stages, "lambda_search": self.lambda_search}


def _expected_metric_series(a: Fraction):
    one = Fraction(1)
    g11 = CPoly(2, [(((0, 0), (0, 0)), one), (((1, 0), (1, 0)), 4 * a),
                    (((0, 1), (0, 1)), 8 * a), (((2, 0), (2, 0)), 24 * a * a),
                    (((1, 1), (1, 1)), 112 * a * a), (((0, 2), (0, 2)), 28 * a * a)])
    g12 = CPoly(2, [(((0, 1), (1, 0)), 8 * a), (((1, 1), (2, 0)), 56 * a * a),
                    (((0, 2), (1, 1)), 56 * a * a)])
    det = CPoly(2, [(((0, 0), (0, 0)), one), (((1, 0), (1, 0)), 12 * a),
                    (((0, 1), (0, 1)), 12 * a), (((2, 0), (2, 0)), 84 * a * a),
                    (((0, 2), (0, 2)), 84 * a * a), (((1, 1), (1, 1)), 240 * a * a)])
    return g11, g12, det


def _r4_exact_margin(a: Fraction) -> Fraction:
    """Closed form of stage iv's margin: the r^4 density coefficient along
    d/dx1 of section6(a, lambda) minus the model's is 2a^2/15."""
    return Fraction(2, 15) * a * a


def verify_counterexample(a=0.1, lam=None, seed=0) -> CounterexampleReport:
    """Staged end-to-end verification of the section6 counterexample family.

    Stages: (i) exact metric/determinant series goldens; (ii) exact order-3
    vanishing of Ric + 12 a g and the degree-6 stabilizer profile; (iii)
    curvature values at the origin; (iv) per-direction r^4 density coefficient
    along the x1-axis exceeding the model's, by its closed form 2a^2/15 within
    a stated rounding ``budget``; (v) positive pointwise gap
    Laplacian - model Laplacian on a reported interval of r in [0.004, 0.04],
    the Laplacian tr(J^-1 J') read from the x1-axis ray as a ``GeodesicBatch``
    of one, at ODE tolerance 1e-12, with its difference from a 1e-9 run as the
    ``error_budget``.  Failing stages are recorded and the remaining stages
    still run.  Without ``lam``, ``find_lambda`` picks it; a given ``lam`` is
    certified once, with the same radius, samples and seed, and a refused
    certificate raises a ``ValueError``.  ``lambda_search`` records the steps
    either way.
    """
    if a == 0:
        raise ValueError("the counterexample needs a nonzero curvature parameter a")
    a_frac = Fraction(a)
    if lam is None:
        lam, steps = find_lambda(a, LAMBDA_RHO, seed=seed)
    else:
        cert = _lambda_certificate(a, lam, LAMBDA_RHO, LAMBDA_SAMPLES, seed)
        if not cert.passed:
            raise ValueError(
                f"Ricci bound certificate refused for lambda {float(lam)} (min eigenvalue "
                f"{cert.min_eigenvalue:.3g} at {cert.witness})")
        steps = [(float(lam), cert.min_eigenvalue, cert.passed)]
    search = {"rho": LAMBDA_RHO, "samples": LAMBDA_SAMPLES, "seed": seed,
              "steps": [list(step) for step in steps]}
    report = CounterexampleReport(a=float(a), lam=float(lam), lambda_search=search)
    pot, pot1, pot0 = section6(a, lam), section6(a, 1), section6(a, 0)
    ws = curv.workspace(pot)
    # the exact series of each distinct potential, to degree 6: stage i reads
    # det g through degree 4, stage ii Ric through 3 and log det g at 6; the
    # stabilizer's endpoints need their metric alone, not a workspace
    exact = {pot: curv.ricci_series(ws.g, 6)}
    for p in (pot1, pot0):
        if p not in exact:
            exact[p] = curv.ricci_series(curv.exact_metric(p), 6)
    K = -12.0 * float(a)
    model = model_space.ModelSpace(2, K)

    # stage i: exact metric series goldens
    g11_exp, g12_exp, det_exp = _expected_metric_series(a_frac)
    got_g11 = ws.g[0][0].truncate(4)
    got_g12 = ws.g[0][1].truncate(4)
    got_det = exact[pot][0].truncate(4)
    stage_i = {
        "g11": got_g11 == g11_exp,
        "g12": got_g12 == g12_exp,
        "det": got_det == det_exp,
    }
    report.stages["metric_series"] = {"passed": all(stage_i.values()), **stage_i}

    # stage ii: Ric + 12 a g vanishes exactly through total degree 3, and the
    # lambda-linear part of (-log det g + 12 a f) at degree 6 is 24 (|z1|^2+|z2|^2)^3
    ric = exact[pot][2]
    ric_plus = [[ric[i][j] + ws.g[i][j].scale(12 * a_frac) for j in range(2)]
                for i in range(2)]
    vanish = all(ric_plus[i][j].truncate(3).is_zero() for i in range(2) for j in range(2))
    u1 = -exact[pot1][1] + pot1.poly.scale(12 * a_frac)
    u0 = -exact[pot0][1] + pot0.poly.scale(12 * a_frac)
    delta6 = (u1 - u0).part(6)
    expected6 = CPoly(2, [(((3, 0), (3, 0)), 24), (((2, 1), (2, 1)), 72),
                          (((1, 2), (1, 2)), 72), (((0, 3), (0, 3)), 24)])
    report.stages["ricci_vanishing"] = {
        "passed": vanish and delta6 == expected6,
        "degree_le_3_vanishes": vanish,
        "stabilizer_profile": delta6 == expected6,
    }

    # stage iii: curvature at the origin in the frame of e0 = d/dx1, the order-0 jet
    origin = np.zeros(2, dtype=complex)
    e0 = np.array([1.0, 0, 0, 0])
    R_uv = curv.curvature_jets_along(pot, origin, e0, order=0).R[0]
    target = np.diag([4 * a, 4 * a, 4 * a]).astype(float)
    dev = float(np.max(np.abs(R_uv - target)))
    report.stages["origin_curvature"] = {"passed": dev < 1e-10, "max_deviation": dev,
                                         "R_uv": R_uv.tolist()}

    # stage iv: per-direction r^4 coefficient along e0 exceeds the model's, and
    # matches its closed form 2a^2/15 within the rounding budget of the two
    # coefficients: each is a few dozen rounded operations on numbers of size
    # at most theirs, and 64 eps of their sum covers them (the margin differs
    # from 2a^2/15 by 8.5 eps of the larger one at a = 0.05, 0.1 and 0.2)
    c4_dir = series.direction_series(pot, origin, e0, 4)[4]
    c4_model = model_space.model_series(model, 4)[4] / unit_sphere_volume(2)
    margin4 = c4_dir - c4_model
    exact4 = float(_r4_exact_margin(a_frac))
    budget4 = 64 * float(np.finfo(float).eps) * (abs(c4_dir) + abs(c4_model))
    report.stages["r4_coefficient"] = {
        "passed": bool(margin4 > 0 and abs(margin4 - exact4) <= budget4),
        "per_direction": c4_dir,
        "model": c4_model,
        "margin": margin4,
        "exact_margin": exact4,
        "budget": budget4,
    }

    # stage v: pointwise Laplacian gap on a reported interval, the ray along
    # e0 integrated alone (a batch of one) at two tolerances
    r_grid = np.linspace(0.004, 0.04, 19)
    ray, ray_coarse = (geodesic.GeodesicBatch(pot, origin, [e0], 0.04 * 1.01, tol=tol)
                       for tol in (1e-12, 1e-9))
    margins = []
    budget = 0.0
    for r in r_grid:
        logd = float(ray.densities(float(r))[1][0])
        margins.append(logd - model_space.laplacian(model, float(r)))
        budget = max(budget, abs(logd - float(ray_coarse.densities(float(r))[1][0])))
    budget = max(budget, 1e-13)
    margins = np.array(margins)
    good = margins > 10.0 * budget
    interval = None
    if good.any():
        start = int(np.argmax(good))
        end = start
        while end + 1 < len(good) and good[end + 1]:
            end += 1
        interval = [float(r_grid[start]), float(r_grid[end])]
    report.stages["pointwise_gap"] = {
        "passed": interval is not None,
        "interval": interval,
        "margins": margins.tolist(),
        "r_grid": r_grid.tolist(),
        "error_budget": budget,
        "max_margin": float(margins.max()),
    }
    return report


# ---------------------------------------------------------------------------
# rigidity probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviationReport:
    metric_id: str
    K: float
    order: int
    fitted: np.ndarray
    model: np.ndarray
    deviations: np.ndarray
    thresholds: np.ndarray
    first_deviating_order: int | None
    sign: int | None
    certificate: RicciBoundCertificate | None = None
    rule: dict | None = None    # the flow's ``SphereFlow.to_json_dict()``

    def to_json_dict(self):
        return {
            "metric_id": self.metric_id, "K": self.K, "order": self.order,
            "fitted": self.fitted.tolist(), "model": self.model.tolist(),
            "deviations": self.deviations.tolist(),
            "thresholds": self.thresholds.tolist(),
            "first_deviating_order": self.first_deviating_order, "sign": self.sign,
        }


def rigidity_probe(pot: RealAnalyticPotential, K, rule=None, tol_ode=geodesic.ODE_TOL,
                   seed=0) -> DeviationReport:
    """First deviating order of the fitted W series at the origin from the model series.

    Reports the lowest order whose fitted-minus-model coefficient clears a
    noise threshold, with its sign; finding none means only "no deviation
    detected through this order", never an isometry claim.
    """
    order = RIGIDITY_ORDER
    certificate, flow = _certified_flow(pot, K, RIGIDITY_R_HI, RIGIDITY_FLOW_RADIUS, rule,
                                        tol_ode, seed)
    grid = np.geomspace(RIGIDITY_R_LO, RIGIDITY_R_HI, 24)
    samples = [(float(r), flow.w_value(float(r))) for r in grid]
    fitted = series.fit_w_series(samples, order)
    model = model_space.model_series(model_space.ModelSpace(pot.n, float(K)), order)
    dev = fitted.coefficients - model.coefficients
    sigma = np.sqrt(np.maximum(np.diag(fitted.covariance), 0.0))
    thresholds = np.maximum(8.0 * sigma,
                            2e-3 * np.maximum(1.0, np.abs(model.coefficients)))
    first = None
    sign = None
    for i in range(1, order + 1):
        if abs(dev[i]) > thresholds[i]:
            first = i
            sign = int(np.sign(dev[i]))
            break
    return DeviationReport(metric_id=pot.label, K=float(K), order=order,
                           fitted=fitted.coefficients, model=model.coefficients,
                           deviations=dev, thresholds=thresholds,
                           first_deviating_order=first, sign=sign,
                           certificate=certificate, rule=flow.to_json_dict())
