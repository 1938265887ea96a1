"""Curvature, geodesic-sphere expansions and comparison checks for Kahler potentials."""

from .potential import (RealAnalyticPotential, Monomial, flat, space_form, section6,
                        perturbed, from_catalog, evaluate, mixed_partial)
from .curvature import (HermitianMetric, CurvatureTensor, CurvatureJets, metric_at,
                        curvature_at, ricci_at, scalar_at, curvature_jets_along)
from .geodesic import GeodesicBatch
from .model_space import ModelSpace, density, laplacian, sphere_area, ball_volume, model_series
from .series import (SeriesExpansion, JacobiCoefficients, jacobi_recursion,
                     density_series, fit_w_series)
from .sphere import SphereRule, build_rule, unit_sphere_volume
from .comparison import (RicciBoundCertificate, ComparisonReport, certify_ricci_bound,
                         find_lambda, check_volume_ratio, check_average_laplacian,
                         verify_counterexample, rigidity_probe, SphereFlow)

__version__ = "0.1.0"
