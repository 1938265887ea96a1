import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kahlercomp import potential as P
from kahlercomp.sphere import build_rule

# pytest puts src/ on sys.path (pyproject.toml); the CLI and import tests start
# child interpreters, which find this checkout's package through PYTHONPATH
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def rule6():
    return build_rule(2, 6)


@pytest.fixture(scope="session")
def rule8():
    return build_rule(2, 8)


@pytest.fixture(scope="session")
def rule12():
    return build_rule(2, 12)


@pytest.fixture(scope="session")
def flat2():
    return P.flat(2)


@pytest.fixture(scope="session")
def section6_pot():
    return P.section6(Fraction(1, 10), 0)


@pytest.fixture(scope="session")
def space_form_k1():
    return P.space_form(2, 1.0)


def rand_direction(rng, dim=4):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)
