"""Curvature, geodesic-sphere expansions and comparison checks for Kahler potentials."""

import os as _os
import sys as _sys

# OpenBLAS starts its thread pool when numpy loads, and the pool costs more of
# a run's start-up than any other step of it, while no hot path of this
# package hands BLAS an operand large enough to use a second thread.  So numpy
# is loaded with one thread, unless it is loaded already or the user has set
# a thread count (each variable OpenBLAS reads); the environment is then put
# back as it was, so the user and any subprocess see no change.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and not any(v in _os.environ for v in _BLAS_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .potential import (RealAnalyticPotential, Monomial, flat, space_form, section6,
                        perturbed, from_catalog)
from .curvature import HermitianMetric, CurvatureJets, metric_at, curvature_jets_along
from .geodesic import GeodesicBatch
from .model_space import ModelSpace, density, laplacian, sphere_area, ball_volume, model_series
from .series import (SeriesExpansion, JacobiCoefficients, jacobi_recursion,
                     density_series, fit_w_series)
from .sphere import SphereRule, build_rule, unit_sphere_volume
from .comparison import (RicciBoundCertificate, ComparisonReport, certify_ricci_bound,
                         find_lambda, check_volume_ratio, check_average_laplacian,
                         verify_counterexample, rigidity_probe, SphereFlow)

__version__ = "0.1.0"
