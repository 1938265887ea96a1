"""The public surface: every exported name resolves, and the helpers that only
the tests read live in tests/oracles.py, not in the package."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import kahlercomp
from kahlercomp import comparison, curvature, geodesic, polynomials, potential, series, sphere

MODULES = ["comparison", "curvature", "geodesic", "model_space", "polynomials", "potential",
           "series", "sphere"]

# test oracles (tests/oracles.py) and deleted helpers
REMOVED = ["rm_value", "real_inner", "ricci_pairing", "real_pairing", "sphere_average",
           "tangent_nodes", "complex_nodes", "kahler_r11_identity_check", "_r11_integral",
           "r11_integral", "linear_substitute", "is_even", "series_apply", "_check_point",
           "_metric_unit", "real_frame_components", "RealFrameCurvature", "real_rep",
           "_series_density", "_SERIES_RADIUS", "_log_derivative", "_poly_from_terms",
           "_WORKSPACES", "_halton", "_halton_tables", "_halton_permutations",
           "_ball_candidates", "HALTON_TABLE", "GeodesicRay", "RadialDensity", "shoot",
           "_conjugate_error", "_rows", "curvature_at", "ricci_at", "scalar_at",
           "CurvatureTensor", "complex_rep", "evaluate", "mixed_partial", "mixed_partial_poly"]
REMOVED_MEMBERS = [(curvature.HermitianMetric, "g_inv"), (series.SeriesExpansion, "condition"),
                   (polynomials.CPoly, "series_apply"),
                   (polynomials.CPoly, "linear_substitute"),
                   (potential.RealAnalyticPotential, "is_even"),
                   (sphere.SphereRule, "complex_nodes"),
                   (series.SeriesExpansion, "cv_shift"),
                   (comparison.RicciBoundCertificate, "potential_id"),
                   (comparison.RicciBoundCertificate, "K"),
                   (comparison.SphereFlow, "densities"),
                   (comparison.SphereFlow, "quality"),
                   (geodesic.GeodesicBatch, "__getitem__"),
                   (geodesic.GeodesicBatch, "_rows"),
                   (potential.Monomial, "degree"),
                   (curvature.CurvatureWorkspace, "ricci_values"),
                   (curvature.CurvatureWorkspace, "curvature_values"),
                   (curvature.CurvatureJets, "__getitem__"),
                   (geodesic.GeodesicBatch, "frame_curvature"),
                   (polynomials.CPoly, "numeric"),
                   (polynomials.CPoly, "evaluate"),
                   (polynomials.CPoly, "_numeric")]
# attributes set in __init__, checked on an instance
REMOVED_ATTRIBUTES = [("SphereFlow", "tol"), ("GeodesicBatch", "initial_frames"),
                      ("GeodesicBatch", "truncated"), ("GeodesicBatch", "p")]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"kahlercomp.{name}")
    assert module.__all__
    assert [k for k in module.__all__ if not hasattr(module, k)] == []


ROOT_NAMES = [
    "RealAnalyticPotential", "Monomial", "flat", "space_form", "section6", "perturbed",
    "from_catalog", "HermitianMetric", "CurvatureJets", "metric_at", "curvature_jets_along",
    "GeodesicBatch", "ModelSpace", "density", "laplacian", "sphere_area", "ball_volume",
    "model_series", "SeriesExpansion", "JacobiCoefficients", "jacobi_recursion",
    "density_series", "fit_w_series", "SphereRule", "build_rule", "unit_sphere_volume",
    "RicciBoundCertificate", "ComparisonReport", "certify_ricci_bound", "find_lambda",
    "check_volume_ratio", "check_average_laplacian", "verify_counterexample", "rigidity_probe",
    "SphereFlow"]


def test_package_root_names_resolve():
    tree = ast.parse(Path(kahlercomp.__file__).read_text())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names == ROOT_NAMES
    assert [k for k in names if not hasattr(kahlercomp, k)] == []


REPO = Path(__file__).resolve().parent.parent


def _reads(path):
    """(name, line) of every name a file reads: loaded names, attribute names,
    and in ``bench/`` the attribute paths its probes name as strings
    ("module", "Class.method").  Imports are not reads."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (path.parent.name == "bench" and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and re.fullmatch(r"[\w.]+", node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def _definition_lines(path, name):
    """The lines of the top-level definition of ``name`` in ``path``."""
    for node in ast.parse(path.read_text()).body:
        targets = ([node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   else [t.id for t in getattr(node, "targets", [getattr(node, "target", None)])
                         if isinstance(t, ast.Name)])
        if name in targets:
            return range(node.lineno, node.end_lineno + 1)
    return range(0)


def test_every_exported_name_has_a_reader():
    """Each name of a module's ``__all__`` is read in ``src/`` or ``bench/``
    outside its own definition, or is named in the README: the package keeps
    no surface that only the tests read."""
    sources = sorted((REPO / "src" / "kahlercomp").glob("*.py")) + sorted(
        (REPO / "bench").glob("*.py"))
    reads = {path: list(_reads(path)) for path in sources}
    readme = (REPO / "README.md").read_text()
    unread = []
    for name in MODULES:
        module = importlib.import_module(f"kahlercomp.{name}")
        own = Path(module.__file__)
        for export in module.__all__:
            lines = _definition_lines(own, export)
            if not (re.search(rf"\b{re.escape(export)}\b", readme)
                    or any(k == export and not (path == own and line in lines)
                           for path in sources for k, line in reads[path])):
                unread.append(f"{name}.{export}")
    assert unread == []


@pytest.mark.parametrize("name", MODULES)
def test_removed_names_are_not_defined(name):
    module = importlib.import_module(f"kahlercomp.{name}")
    assert [k for k in REMOVED if hasattr(module, k) or hasattr(kahlercomp, k)] == []


def test_no_module_draws_from_scipy_stats():
    """The certificate's sample comes from numpy's generator alone."""
    sources = sorted(Path(kahlercomp.__file__).parent.glob("*.py"))
    assert [p.name for p in sources if "qmc" in p.read_text() or "scipy.stats" in p.read_text()] == []


@pytest.mark.parametrize("cls, member", REMOVED_MEMBERS,
                         ids=[f"{c.__name__}.{m}" for c, m in REMOVED_MEMBERS])
def test_removed_members_are_not_defined(cls, member):
    assert not hasattr(cls, member)
    if dataclasses.is_dataclass(cls):
        assert member not in {f.name for f in dataclasses.fields(cls)}


@pytest.fixture(scope="module")
def instances():
    flow = comparison.SphereFlow(potential.flat(2), np.zeros(2), 0.01, sphere.build_rule(2, 2))
    return {"SphereFlow": flow, "GeodesicBatch": flow.rays}


@pytest.mark.parametrize("cls, attribute", REMOVED_ATTRIBUTES,
                         ids=[f"{c}.{a}" for c, a in REMOVED_ATTRIBUTES])
def test_removed_attributes_are_not_set(instances, cls, attribute):
    assert not hasattr(instances[cls], attribute)


@pytest.mark.parametrize("method", ["densities", "quality"])
def test_batch_readings_take_only_the_radius(method):
    """A reading covers every ray of the batch; there is no row selection."""
    params = inspect.signature(getattr(geodesic.GeodesicBatch, method)).parameters
    assert list(params) == ["self", "r"]


def test_batch_takes_no_frames_and_reads_no_rows():
    """Every ray starts from ``curvature.complete_frame`` and every read covers all rays."""
    batch = geodesic.GeodesicBatch
    assert "frames" not in inspect.signature(batch.__init__).parameters
    assert "rows" not in inspect.signature(batch._states).parameters
