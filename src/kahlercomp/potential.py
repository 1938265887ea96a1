"""Real-analytic Kahler potentials given as finite Hermitian polynomial sums.

A potential is a real-valued polynomial f(z, conj(z)) whose complex Hessian
g_ij = d^2 f / dz_i dconj(z_j) is positive definite at the origin.  The
catalog provides the flat potential, truncated constant-holomorphic-curvature
potentials, the two-dimensional counterexample family ``section6`` and seeded
random perturbations of the flat potential.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polynomials import QC, CPoly

__all__ = [
    "Monomial",
    "RealAnalyticPotential",
    "ValidationError",
    "flat",
    "space_form",
    "section6",
    "perturbed",
    "from_catalog",
    "load_json",
    "dump_json",
    "loads",
    "dumps",
]

# the catalog entries and the parameters each reads
_CATALOG_PARAMS = {"flat": ("n",), "space_form": ("n", "K", "degree"),
                   "section6": ("a", "lambda"), "perturbed": ("n", "seed", "magnitude")}
CATALOG_NAMES = tuple(_CATALOG_PARAMS)


class ValidationError(ValueError):
    """Raised when a term list fails Hermitian symmetry or positivity checks."""


def _integer(value, name) -> int:
    """``value`` as an int: an integral number such as 3 or 3.0, never a
    truncated 2.7."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return whole


@dataclass(frozen=True)
class Monomial:
    """Single term c * z^alpha * conj(z)^beta."""

    alpha: tuple
    beta: tuple
    coeff: QC


class RealAnalyticPotential:
    """Hermitian polynomial potential on a ball around the origin of C^n.

    Immutable after construction; all validation (exponent sanity, Hermitian
    symmetry, positive definiteness of the metric at 0) happens here, so the
    evaluation and derivative operations can assume a well-formed term list.
    """

    def __init__(self, n: int, terms, max_degree: int | None = None,
                 validity_radius: float = 0.1, label: str | None = None):
        self.n = _integer(n, "complex dimension n")
        if self.n < 1:
            raise ValidationError("complex dimension must be >= 1")
        pairs = []
        for t in terms:
            if isinstance(t, Monomial):
                alpha, beta, coeff = t.alpha, t.beta, t.coeff
            else:
                alpha, beta, coeff = t
            alpha = tuple(_integer(a, "exponent") for a in alpha)
            beta = tuple(_integer(b, "exponent") for b in beta)
            if len(alpha) != self.n or len(beta) != self.n:
                raise ValidationError("multi-index length must equal the complex dimension")
            if any(a < 0 for a in alpha) or any(b < 0 for b in beta):
                raise ValidationError("exponents must be non-negative")
            pairs.append(((alpha, beta), coeff))
        self.poly = poly = CPoly(self.n, pairs)
        deg = poly.total_degree()
        self.max_degree = _integer(max_degree, "max_degree") if max_degree is not None else deg
        if deg > self.max_degree:
            raise ValidationError(f"terms of degree {deg} exceed declared max degree {self.max_degree}")
        self.validity_radius = float(validity_radius)
        if not self.validity_radius > 0:  # nan too; inf is the whole space
            raise ValidationError(f"validity radius must be positive, got {validity_radius!r}")
        self.label = label or f"potential(n={self.n}, {len(poly.coeffs)} terms)"
        self._validate()
        # hashed once: workspace lookups would otherwise rehash every Fraction
        self._hash = hash((self.n, self.poly))

    def _validate(self):
        for (a, b), c in self.poly.coeffs.items():
            mirror = self.poly.coeffs.get((b, a))
            if mirror is None or mirror != c.conjugate():
                raise ValidationError(
                    f"non-Hermitian term list: ({a}, {b}) has no conjugate partner")
        g0 = self.metric_matrix_at_origin()
        eigs = np.linalg.eigvalsh(g0)
        if eigs[0] <= 1e-12:
            raise ValidationError(
                f"metric at the origin is not positive definite (min eigenvalue {eigs[0]:.3e})")

    def metric_matrix_at_origin(self) -> np.ndarray:
        g0 = np.zeros((self.n, self.n), dtype=complex)
        for i in range(self.n):
            for j in range(self.n):
                c = self.poly.coeffs.get((_unit(self.n, i), _unit(self.n, j)))
                if c is not None:
                    g0[i, j] = complex(c)
        return g0

    @property
    def terms(self):
        return [Monomial(a, b, c) for (a, b), c in self.poly.sorted_terms()]

    @property
    def torus_invariant(self) -> bool:
        """True when every term has alpha = beta, i.e. the potential depends on
        the |z_i|^2 alone and is invariant under z_i -> e^{i theta_i} z_i."""
        return all(a == b for (a, b) in self.poly.coeffs)

    def __eq__(self, other):
        return (isinstance(other, RealAnalyticPotential)
                and self.n == other.n and self.poly == other.poly)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RealAnalyticPotential({self.label!r})"


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _unit(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


def flat(n: int) -> RealAnalyticPotential:
    """sum |z_i|^2; the Euclidean model, curvature identically zero."""
    terms = [(_unit(n, i), _unit(n, i), 1) for i in range(n)]
    return RealAnalyticPotential(n, terms, max_degree=2, validity_radius=np.inf,
                                 label=f"flat(n={n})")


def _multinomial_expand(n: int, k: int):
    """Exponent tuples e with |e| = k and multinomial coefficients, for (sum |z_i|^2)^k."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], k, n)
    from math import factorial
    coeffs = []
    for e in out:
        c = factorial(k)
        for ei in e:
            c //= factorial(ei)
        coeffs.append(c)
    return out, coeffs


def space_form(n: int, K, degree: int = 20) -> RealAnalyticPotential:
    """Truncated potential of the complex space form with Ricci constant K.

    Built from f = (1/b) log(1 + b t), t = sum |z_i|^2, b = K/(n+1), cut at the
    given total degree.  The closed forms in ``model_space`` are the matching
    exact geometry; the truncation error is far below the tested tolerances on
    the declared validity ball.
    """
    K = Fraction(K)
    b = K / (n + 1)
    terms = []
    for k in range(1, degree // 2 + 1):
        coeff = Fraction((-1) ** (k + 1), k) * b ** (k - 1)
        if coeff == 0:
            continue
        exps, multis = _multinomial_expand(n, k)
        for e, m in zip(exps, multis):
            terms.append((e, e, coeff * m))
    bf = float(b)
    radius = 0.42 / max(1.0, abs(bf)) ** 0.5
    return RealAnalyticPotential(n, terms, max_degree=degree, validity_radius=radius,
                                 label=f"space_form(n={n}, K={float(K)})")


def section6(a, lam=0) -> RealAnalyticPotential:
    """Two-dimensional catalog potential with Ric >= -12a near 0 for large lam.

    Degree-8 Hermitian polynomial in (z_1, z_2); ``a`` scales the quartic and
    sextic corrections, ``lam`` the stabilizing degree-8 term.
    """
    a = Fraction(a)
    lam = Fraction(lam)
    t = [
        ((1, 0), (1, 0), Fraction(1)),
        ((0, 1), (0, 1), Fraction(1)),
        ((2, 0), (2, 0), a),
        ((1, 1), (1, 1), 8 * a),
        ((0, 2), (0, 2), a),
        ((3, 0), (3, 0), Fraction(8, 3) * a * a),
        ((2, 1), (2, 1), 28 * a * a),
        ((1, 2), (1, 2), 28 * a * a),
        ((0, 3), (0, 3), Fraction(8, 3) * a * a),
        ((4, 0), (4, 0), -lam),
        ((0, 4), (0, 4), -lam),
        ((3, 1), (3, 1), -8 * lam),
        ((1, 3), (1, 3), -8 * lam),
    ]
    terms = [(alpha, beta, c) for alpha, beta, c in t if c != 0]
    return RealAnalyticPotential(2, terms, max_degree=8, validity_radius=0.1,
                                 label=f"section6(a={float(a)}, lambda={float(lam)})")


def perturbed(n: int, seed: int, magnitude: float = 0.02) -> RealAnalyticPotential:
    """Flat potential plus small random Hermitian terms of even total degree."""
    rng = np.random.default_rng(seed)
    terms = [(_unit(n, i), _unit(n, i), Fraction(1)) for i in range(n)]
    count = 0
    while count < 6:
        alpha = tuple(int(x) for x in rng.integers(0, 3, size=n))
        beta = tuple(int(x) for x in rng.integers(0, 3, size=n))
        deg = sum(alpha) + sum(beta)
        if deg < 2 or deg > 4 or deg % 2 or sum(alpha) == 0 or sum(beta) == 0:
            continue
        c = QC(Fraction(float(rng.normal(0, magnitude))),
               0 if alpha == beta else Fraction(float(rng.normal(0, magnitude))))
        terms.append((alpha, beta, c))
        terms.append((beta, alpha, c.conjugate()))
        count += 1
    return RealAnalyticPotential(n, terms, max_degree=4, validity_radius=0.2,
                                 label=f"perturbed(n={n}, seed={seed}, magnitude={magnitude})")


def from_catalog(name: str, **params) -> RealAnalyticPotential:
    read = _CATALOG_PARAMS.get(name)
    if read is None:
        raise ValidationError(f"unknown catalog entry {name!r}; known: {CATALOG_NAMES}")
    unknown = sorted(set(params) - set(read))
    if unknown:
        raise ValidationError(f"catalog entry {name!r} reads only the parameters {read}, "
                              f"got {', '.join(map(repr, unknown))}")

    def need(key):
        if key not in params:
            raise ValidationError(f"catalog entry {name!r} needs the parameter {key!r}")
        return params[key]

    if name == "flat":
        return flat(_integer(need("n"), "n"))
    if name == "space_form":
        kwargs = {"degree": _integer(params["degree"], "degree")} if "degree" in params else {}
        return space_form(_integer(need("n"), "n"), need("K"), **kwargs)
    if name == "section6":
        return section6(need("a"), params.get("lambda", 0))
    return perturbed(_integer(need("n"), "n"), _integer(need("seed"), "seed"),
                     float(params.get("magnitude", 0.02)))


# ---------------------------------------------------------------------------
# JSON external format
# ---------------------------------------------------------------------------

def _frac_to_json(f: Fraction):
    as_float = float(f)
    if Fraction(as_float) == f:
        return as_float
    return f"{f.numerator}/{f.denominator}"


def dumps(pot: RealAnalyticPotential) -> str:
    terms = []
    for (a, b), c in pot.poly.sorted_terms():
        terms.append({"alpha": list(a), "beta": list(b),
                      "re": _frac_to_json(c.re), "im": _frac_to_json(c.im)})
    doc = {"n": pot.n, "max_degree": pot.max_degree,
           "validity_radius": pot.validity_radius, "terms": terms}
    return json.dumps(doc, sort_keys=True)


def loads(text: str) -> RealAnalyticPotential:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValidationError(f"a potential document must be a JSON object, "
                              f"got {type(doc).__name__}")
    if "catalog" in doc:
        spec = doc["catalog"]
        if not (isinstance(spec, dict) and isinstance(spec.get("name"), str)):
            raise ValidationError(f"a catalog entry must be a JSON object with a string "
                                  f"'name', got {spec!r}")
        return from_catalog(**spec)
    try:
        terms = [(tuple(t["alpha"]), tuple(t["beta"]), _document_coefficient(t))
                 for t in doc["terms"]]
        return RealAnalyticPotential(
            doc["n"], terms, max_degree=doc.get("max_degree"),
            validity_radius=doc.get("validity_radius", 0.1))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed potential document: {exc}") from exc


def _document_coefficient(term) -> QC:
    """The exact coefficient of a document's term; its parts must be finite
    numbers (JSON reads 1e309 as inf)."""
    re, im = term["re"], term.get("im", 0)
    try:
        return QC(Fraction(re), Fraction(im))
    except (ValueError, OverflowError, ZeroDivisionError):
        raise ValidationError(f"the coefficient of the term with alpha {term['alpha']} and "
                              f"beta {term['beta']} must be a finite number, got re {re!r}, "
                              f"im {im!r}") from None


def dump_json(pot: RealAnalyticPotential, path):
    with open(path, "w") as fh:
        fh.write(dumps(pot))


def load_json(path) -> RealAnalyticPotential:
    with open(path) as fh:
        return loads(fh.read())
