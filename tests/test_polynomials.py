"""Exact polynomial engine: ring axioms spot checks, a sympy oracle and the
numeric evaluator along points and Taylor series."""

import math
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from kahlercomp import curvature as C
from kahlercomp import potential as P
from kahlercomp.polynomials import CPoly, NumericPoly, QC, cauchy_product
from oracles import linear_substitute, poly_values


class TestRingOperations:
    def test_mul_truncation(self):
        x = CPoly.monomial(1, (1,), (1,), 1)
        p = CPoly.constant(1, 1) + x
        sq = p.mul(p, trunc=2)
        assert sq == CPoly.constant(1, 1) + x.scale(2)

    def test_log1p_inverts_exp_series(self):
        # log(1+x) with x = t + t^2/2 + t^3/6 (exp(t)-1 truncated) returns t + O(t^4)
        t = CPoly.monomial(1, (1,), (1,), 1)
        x = t + t.mul(t, trunc=6).scale(Fraction(1, 2)) \
            + t.mul(t, trunc=6).mul(t, trunc=6).scale(Fraction(1, 6))
        log = x.log1p(3)
        assert log == t

    def test_conjugation_is_involutive(self):
        p = CPoly.monomial(2, (2, 0), (0, 1), QC(Fraction(1, 3), Fraction(2, 7)))
        assert p.conj().conj() == p

    def test_derivative_product_rule(self):
        p = CPoly.monomial(2, (1, 0), (1, 0), 1)
        q = CPoly.monomial(2, (0, 2), (0, 1), QC(0, 1))
        lhs = (p * q).dz(0)
        rhs = p.dz(0) * q + p * q.dz(0)
        assert lhs == rhs

    def test_evaluate_matches_term_sum(self):
        rng = np.random.default_rng(0)
        p = (CPoly.monomial(2, (2, 1), (0, 1), QC(Fraction(3, 7), Fraction(-1, 5)))
             + CPoly.monomial(2, (0, 0), (1, 1), 2))
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        manual = ((3 / 7 - 1j / 5) * z[0] ** 2 * z[1] * np.conj(z[1])
                  + 2 * np.conj(z[0] * z[1]))
        assert poly_values(p, z) == pytest.approx(manual, rel=1e-14)

    def test_linear_substitute_identity(self):
        p = CPoly.monomial(2, (1, 1), (2, 0), QC(1, 1))
        assert linear_substitute(p, np.eye(2)) == p


def _rationals(rng, count, digits):
    """Random signed rationals with numerators and denominators of up to
    ``digits`` digits; a quarter of them 0."""
    out = []
    for _ in range(count):
        if rng.random() < 0.25:
            out.append(Fraction(0))
        else:
            num = rng.randrange(1, 10 ** rng.randint(1, digits))
            out.append(Fraction(rng.choice((-1, 1)) * num, rng.randrange(1, 10 ** digits)))
    return out


class TestQCFastPaths:
    """+, * and scale skip the Fraction arithmetic on two zero imaginary
    parts, and ``complex`` divides the integers: the results are those of the
    plain formulas."""

    @staticmethod
    def _pairs():
        rng = random.Random(3)
        for digits in (3, 200):
            parts = _rationals(rng, 4 * 60, digits)
            for k in range(0, len(parts), 4):
                re1, im1, re2, im2 = parts[k:k + 4]
                # both, one or neither imaginary part zero
                if k % 12 == 0:
                    im1 = im2 = Fraction(0)
                elif k % 12 == 4:
                    im1 = Fraction(0)
                yield QC(re1, im1), QC(re2, im2)

    @staticmethod
    def _same(q, re, im):
        return (type(q.re) is type(q.im) is Fraction) and (q.re, q.im) == (re, im)

    def test_add_and_mul_are_the_fraction_formulas(self):
        for a, b in self._pairs():
            assert self._same(a + b, a.re + b.re, a.im + b.im)
            assert self._same(a * b, a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)

    def test_scale_is_the_fraction_formula(self):
        for a, _ in self._pairs():
            for f in (3, -2, 0, Fraction(5, 7)):
                assert self._same(a.scale(f), a.re * Fraction(f), a.im * Fraction(f))

    def test_complex_is_float_of_each_part(self):
        rng = random.Random(4)
        parts = _rationals(rng, 400, 200) + _rationals(rng, 400, 17)
        # subnormal, near the smallest subnormal, and the largest finite float
        parts += [Fraction(1, 10 ** 310), Fraction(-3, 7 * 10 ** 320), Fraction(1, 2 ** 1075),
                  Fraction(3, 2 ** 1076), Fraction(2 ** 1074 + 1, 2 ** 2148),
                  Fraction(10 ** 200 + 1, 10 ** 508), Fraction(2 ** 1024 - 2 ** 971, 1)]
        for re, im in zip(parts, parts[1:] + parts[:1]):
            got = complex(QC(re, im))
            assert (got.real.hex(), got.imag.hex()) == (float(re).hex(), float(im).hex())


def _to_sympy(poly, syms):
    z1, z2, w1, w2 = syms
    out = sp.Integer(0)
    for (al, be), c in poly.coeffs.items():
        coeff = sp.Rational(c.re.numerator, c.re.denominator) \
            + sp.I * sp.Rational(c.im.numerator, c.im.denominator)
        out += coeff * z1 ** al[0] * z2 ** al[1] * w1 ** be[0] * w2 ** be[1]
    return sp.expand(out)


class TestSympyOracle:
    def test_log_det_and_ricci_series(self):
        """Independent symbolic derivation of log det g and the Ricci entries.

        Conjugate coordinates are treated as independent symbols; the sympy
        route goes through exact division-free series of log(det g(t z)).
        """
        pot = P.RealAnalyticPotential(
            2, [((1, 0), (1, 0), 1), ((0, 1), (0, 1), 1),
                ((2, 0), (0, 1), QC(Fraction(1, 4), Fraction(1, 8))),
                ((0, 1), (2, 0), QC(Fraction(1, 4), Fraction(-1, 8))),
                ((1, 1), (1, 1), Fraction(1, 3)),
                ((2, 0), (2, 0), Fraction(-1, 5)),
                ((0, 2), (0, 2), Fraction(-1, 5))],
            validity_radius=0.2)
        _, log_det, ric = C.ricci_series(C.workspace(pot).g, pot.max_degree + 4)
        syms = sp.symbols("z1 z2 w1 w2")
        z1, z2, w1, w2 = syms
        f = _to_sympy(pot.poly, syms)
        g = [[sp.diff(f, [z1, z2][i], [w1, w2][j]) for j in range(2)]
             for i in range(2)]
        det = sp.expand(g[0][0] * g[1][1] - g[0][1] * g[1][0])
        t = sp.symbols("t")
        det_t = det.subs({s: t * s for s in syms}, simultaneous=True)
        max_deg = 5
        series = sp.expand(sp.series(sp.log(det_t), t, 0, max_deg + 1).removeO())

        def collect(expr):
            out = {}
            if expr == 0:
                return out
            p4 = sp.Poly(expr, *syms)
            for mono, coeff in p4.terms():
                out[((mono[0], mono[1]), (mono[2], mono[3]))] = sp.expand(coeff)
            return out

        poly_t = sp.Poly(series, t)
        for deg in range(max_deg + 1):
            expected = collect(sp.expand(
                poly_t.coeff_monomial(t ** deg) if deg else poly_t.coeff_monomial(1)))
            mine = {k: sp.Rational(v.re.numerator, v.re.denominator)
                    + sp.I * sp.Rational(v.im.numerator, v.im.denominator)
                    for k, v in log_det.part(deg).coeffs.items()}
            assert {k: sp.nsimplify(v) for k, v in mine.items()} == expected, deg

        # Ricci entry (0, 0): -d_z1 d_w1 of the sympy log det, graded comparison
        ric_sym = sp.expand(-sp.diff(sp.log(det), z1, w1))
        ric_t = ric_sym.subs({s: t * s for s in syms}, simultaneous=True)
        ric_series = sp.expand(sp.series(ric_t, t, 0, 4).removeO())
        poly_rt = sp.Poly(ric_series, t)
        for deg in range(4):
            expected = collect(sp.expand(
                poly_rt.coeff_monomial(t ** deg) if deg else poly_rt.coeff_monomial(1)))
            mine = {k: sp.Rational(v.re.numerator, v.re.denominator)
                    + sp.I * sp.Rational(v.im.numerator, v.im.denominator)
                    for k, v in ric[0][0].part(deg).coeffs.items()}
            assert {k: sp.nsimplify(v) for k, v in mine.items()} == expected, deg


def _scipy_csr(npoly):
    """Oracle: the coefficient matrix of a NumericPoly (one row per distinct
    polynomial) as a ``scipy.sparse`` CSR array, built from its three CSR
    arrays."""
    from scipy import sparse
    return sparse.csr_array((npoly.data, npoly.indices, npoly.indptr),
                            shape=(len(npoly.indptr) - 1, len(npoly.ia)))


def _point_values(npoly, Z):
    """Plain point evaluation of a NumericPoly stack at the rows of Z (N, n):
    the exponent tables, the monomials, scipy.sparse's coefficient product,
    then each entry of the stack read from its row."""
    pw = np.empty(Z.shape + (npoly.max_pow + 1,), dtype=complex)
    pw[..., 0] = 1.0
    for d in range(1, npoly.max_pow + 1):
        pw[..., d] = pw[..., d - 1] * Z
    pw_bar = pw.conj()
    za = pw[:, 0, npoly.A[:, 0]]
    zb = pw_bar[:, 0, npoly.B[:, 0]]
    for i in range(1, npoly.n):
        za *= pw[:, i, npoly.A[:, i]]
        zb *= pw_bar[:, i, npoly.B[:, i]]
    return (_scipy_csr(npoly) @ (za[:, npoly.ia] * zb[:, npoly.ib]).T).T[:, npoly.rows]


def _dense_values(polys, Z):
    """Oracle: each polynomial summed term by term from its ``CPoly.coeffs``,
    along the (L, N, n) Taylor series Z, with a dense coefficient matrix."""
    L = len(Z)

    def mul(a, b):
        out = np.zeros_like(a)
        for k in range(L):
            for j in range(k + 1):
                out[k] += a[j] * b[k - j]
        return out

    basis = sorted({key for p in polys for key in p.coeffs})
    dense = np.zeros((len(polys), len(basis)), dtype=complex)
    for m, key in enumerate(basis):
        for r, p in enumerate(polys):
            if key in p.coeffs:
                dense[r, m] = complex(p.coeffs[key])
    one = np.zeros(Z.shape[:2], dtype=complex)
    one[0] = 1.0
    powers = {}

    def power(x, i, e):
        if (x, i, e) not in powers:
            zi = Z[..., i] if x == "z" else Z[..., i].conj()
            powers[x, i, e] = one if e == 0 else mul(power(x, i, e - 1), zi)
        return powers[x, i, e]

    mono = np.empty(Z.shape[:2] + (len(basis),), dtype=complex)
    for m, (a, b) in enumerate(basis):
        term = one
        for i in range(Z.shape[-1]):
            term = mul(mul(term, power("z", i, a[i])), power("zb", i, b[i]))
        mono[..., m] = term
    return mono @ dense.T


def _field_polys(pot):
    ws = C.workspace(pot)
    n = pot.n
    return ([ws.g[i][j] for i in range(n) for j in range(n)]
            + [ws.dg[k][i][j] for k in range(n) for i in range(n) for j in range(n)]
            + [ws.d2g[k][l][i][j] for k in range(n) for l in range(n)
               for i in range(n) for j in range(n)])


def _directional(poly, w):
    """Exact derivative of poly along the real direction with complex rep w."""
    out = CPoly.zero(poly.n)
    for i, wi in enumerate(w):
        out = out + poly.dz(i).scale(complex(wi)) + poly.dzbar(i).scale(complex(wi).conjugate())
    return out


_POTENTIALS = [P.section6(Fraction(1, 10), 0), P.perturbed(2, 3),
               P.space_form(3, 1, degree=12), P.flat(2)]


class TestSparseEvaluator:
    @pytest.mark.parametrize("L", [1, 4])
    @pytest.mark.parametrize("pot", _POTENTIALS, ids=lambda pot: pot.label)
    def test_matches_dense_oracle(self, pot, L):
        rng = np.random.default_rng(7)
        Z = (rng.normal(size=(L, 2000, pot.n)) + 1j * rng.normal(size=(L, 2000, pot.n))) * 0.03
        polys = _field_polys(pot)
        dense = _dense_values(polys, Z)
        got = NumericPoly(polys).evaluate_many(Z)
        err = np.abs(got - dense).max(axis=(0, 1))
        assert np.all(err <= 1e-14 * np.abs(dense).max(axis=(0, 1)))

    @pytest.mark.parametrize(
        "pot, tables, entries, rows, nnz, columns, real_columns, real_rows, real_nnz", [
            (P.space_form(3, 1, degree=12), (56, 56), 117, 63, 1563, 671, 286, 43, 1178),
            (P.section6(Fraction(1, 10), 0), (6, 6), 28, 19, 45, 20, 15, 14, 39),
        ], ids=["space_form(3, 1, degree=12)", "section6(0.1, 0)"])
    def test_field_stack_counts(self, pot, tables, entries, rows, nnz, columns, real_columns,
                                real_rows, real_nnz):
        """Work counts of the field stack: one row per distinct polynomial, and
        at real points one column per distinct x^(a+b) and one row per distinct
        folded polynomial."""
        npoly = NumericPoly(_field_polys(pot))
        assert (len(npoly.A), len(npoly.B)) == tables
        assert len(npoly.rows) == entries
        assert len(npoly.ia) == len(npoly.ib) == columns
        assert len(npoly.indptr) - 1 == rows
        assert len(npoly.indices) == len(npoly.data) == npoly.indptr[-1] == nnz
        real = npoly._real_view()
        assert len(real.ia) == len(real.A) == real_columns and not real.B.any()
        assert len(real.indptr) - 1 == real_rows
        assert len(real.indices) == len(real.data) == real.indptr[-1] == real_nnz
        assert len(real.rows) == entries


class TestCSRProduct:
    """``evaluate_many`` contracts the monomials with scipy's compiled CSR
    kernel, read by path; ``scipy.sparse``'s own product is the oracle, on the
    folded arrays of ``_real_view`` at real points with real coefficients."""

    STACKS = [P.section6(Fraction(1, 10), 0), P.space_form(3, 1, degree=12),
              P.perturbed(2, 0)]

    @pytest.mark.parametrize("L", [1, 3])
    @pytest.mark.parametrize("imag", [False, True], ids=["real-points", "complex-points"])
    @pytest.mark.parametrize("pot", STACKS, ids=lambda pot: pot.label)
    def test_is_scipy_sparse_product_bit_for_bit(self, pot, imag, L):
        npoly = NumericPoly(_field_polys(pot))
        rng = np.random.default_rng(13)
        # 2000 points span two blocks; a single point is scipy's vector product
        for N in (2000, 1):
            Z = rng.normal(size=(L, N, pot.n)) * 0.03
            if imag:
                Z = Z + 1j * rng.normal(size=Z.shape) * 0.03
            got = npoly.evaluate_many(Z)
            stack = npoly.view(Z)
            mono = stack._monomials(Z.astype(npoly.result_type(Z)), {})
            expected = np.stack([_scipy_csr(stack) @ m for m in mono])
            expected = expected[:, stack.rows].transpose(0, 2, 1)
            assert got.dtype == expected.dtype and np.array_equal(got, expected)

    @pytest.mark.parametrize("pot", STACKS, ids=lambda pot: pot.label)
    def test_canonical_form(self, pot):
        """The three arrays are the matrix scipy builds from each polynomial's
        (row, monomial, coefficient) entries: rows in order, columns sorted."""
        from scipy import sparse
        npoly = NumericPoly(_field_polys(pot))
        # the distinct polynomials, in the order of their rows
        polys = [_field_polys(pot)[i] for i in np.unique(npoly.rows, return_index=True)[1]]
        column = {(tuple(npoly.A[a]), tuple(npoly.B[b])): m
                  for m, (a, b) in enumerate(zip(npoly.ia, npoly.ib))}
        rows, cols, vals = zip(*[(r, column[key], complex(c))
                                 for r, p in enumerate(polys) for key, c in p.coeffs.items()])
        vals = np.array(vals)
        expected = sparse.csr_array((vals.real if not vals.imag.any() else vals, (rows, cols)),
                                    shape=(len(polys), len(column)))
        assert npoly.indptr.dtype == npoly.indices.dtype == np.int32
        assert np.array_equal(npoly.indptr, expected.indptr)
        assert np.array_equal(npoly.indices, expected.indices)
        assert npoly.data.dtype == expected.data.dtype
        assert np.array_equal(npoly.data, expected.data)


def _fresh_product(a, b, out):
    """Oracle: ``cauchy_product(np.multiply, a, b, out=out)`` with a fresh
    array for every term."""
    for k in range(len(out) - 1, -1, -1):
        np.multiply(a[k], b[0], out=out[k])
        for j in range(k):
            out[k] += a[j] * b[k - j]
    return out


def _fresh_monomials(stack, Z):
    """Oracle: the monomials of one block with a fresh array for every
    exponent table, gather and product term, through fancy indexing."""
    L, N, n = Z.shape
    pw = np.empty((L, n, stack.max_pow + 1, N), dtype=Z.dtype)
    pw[:, :, 0] = 0.0
    pw[0, :, 0] = 1.0
    for d in range(1, stack.max_pow + 1):
        pw[:, :, d] = cauchy_product(np.multiply, pw[:, :, d - 1], Z.transpose(0, 2, 1))

    def table(pw, E):
        out = pw[:, 0, E[:, 0]]
        for i in range(1, n):
            _fresh_product(out, pw[:, i, E[:, i]], out)
        return out

    mono = table(pw, stack.A)[:, stack.ia]
    if stack.antiholomorphic:
        _fresh_product(mono, table(pw.conj(), stack.B)[:, stack.ib], mono)
    return mono


def _cpoly_fold(npoly):
    """Oracle of ``_real_view``: each distinct polynomial folded term by term
    as a ``CPoly`` (z^a conj(z)^b -> x^(a+b), exact coefficients merged), and
    the folded stack built by ``NumericPoly``, one row per polynomial."""
    zero = (0,) * npoly.n
    folded = []
    for p in npoly._polys:
        q = CPoly(npoly.n)
        for (a, b), c in p.coeffs.items():
            q._accumulate((tuple(x + y for x, y in zip(a, b)), zero), c)
        folded.append(q)
    return NumericPoly(folded)


def _fresh_evaluate_many(npoly, Z):
    """Oracle: ``evaluate_many`` with fresh arrays in every block, at real
    points on the ``CPoly`` fold of the stack (``_cpoly_fold``)."""
    dtype = npoly.result_type(Z)
    Z = Z.astype(dtype)
    stack = _cpoly_fold(npoly) if dtype is float else npoly
    csr = _scipy_csr(stack)
    out = []
    for lo in range(0, max(Z.shape[1], 1), NumericPoly.BLOCK):
        mono = _fresh_monomials(stack, Z[:, lo:lo + NumericPoly.BLOCK])
        expected = np.stack([csr @ m for m in mono])
        out.append(expected[:, npoly.rows].transpose(0, 2, 1))
    return np.concatenate(out, axis=1)


class TestBlockBuffers:
    """``NumericPoly.blocks`` forms every block in buffers of its call; the
    values are those of fresh arrays per block, bit for bit."""

    STACKS = [P.section6(Fraction(1, 10), 0), P.perturbed(2, 0), P.perturbed(3, 0),
              P.space_form(3, 1, degree=12), P.space_form(3, -1, degree=12)]

    @pytest.mark.parametrize("pot", STACKS, ids=lambda pot: pot.label)
    def test_same_bits_as_fresh_arrays(self, pot):
        npoly = NumericPoly(_field_polys(pot))
        rng = np.random.default_rng(17)
        for N in (0, 1, 511, 512, 513, 10513):
            for L in (1, 5):
                Z = rng.normal(size=(L, N, pot.n)) * 0.03
                for points in (Z, Z + 1j * rng.normal(size=Z.shape) * 0.03):
                    got = npoly.evaluate_many(points)
                    expected = _fresh_evaluate_many(npoly, points)
                    assert got.dtype == expected.dtype and got.shape == (L, N, len(npoly.rows))
                    assert np.array_equal(got, expected), (N, L, points.dtype)

    def test_product_terms_share_one_scratch(self):
        """``cauchy_product(..., out=)`` forms each order's first term in that
        order and every further term in one scratch order, with the bits of a
        fresh array per term."""
        rng = np.random.default_rng(23)
        a = rng.normal(size=(6, 40, 300)) + 1j * rng.normal(size=(6, 40, 300))
        b = rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape)
        targets = []

        def op(x, y, out=None):
            targets.append(None if out is None else out.__array_interface__["data"][0])
            return np.multiply(x, y, out=out)
        got = cauchy_product(op, a.copy(), b, out=np.empty_like(a))
        assert np.array_equal(got, _fresh_product(a, b, np.empty_like(a)))
        assert None not in targets and len(set(targets)) == len(a) + 1

    def test_product_holds_one_scratch_order(self):
        """An in-place product holds one order of scratch at most, and none at
        length 1."""
        import tracemalloc
        rng = np.random.default_rng(29)
        a = rng.normal(size=(5, 200, 512)) + 1j * rng.normal(size=(5, 200, 512))
        b = a[::-1].copy()
        for L in (5, 1):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                cauchy_product(np.multiply, a[:L], b[:L], out=a[:L])
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak < (1.01 if L > 1 else 0.01) * a[0].nbytes

    def test_real_view_monomials_are_its_exponent_table(self):
        """A stack with no antiholomorphic exponent lists its monomials in the
        order of A, so its table needs no gather."""
        real = NumericPoly(_field_polys(P.space_form(3, 1, degree=12)))._real_view()
        assert not real.antiholomorphic
        assert np.array_equal(real.ia, np.arange(len(real.A)))

    @pytest.mark.parametrize("imag", [False, True], ids=["real-points", "complex-points"])
    @pytest.mark.parametrize("L", [1, 3])
    def test_blocks_of_a_call_share_their_memory(self, monkeypatch, imag, L):
        """Three blocks, the last one short: one monomial buffer and one CSR
        output for all of them."""
        npoly = NumericPoly(_field_polys(P.perturbed(2, 0)))
        rng = np.random.default_rng(19)
        Z = rng.normal(size=(L, 2 * NumericPoly.BLOCK + 100, 2)) * 0.03
        if imag:
            Z = Z + 1j * rng.normal(size=Z.shape) * 0.03
        monomials = NumericPoly._monomials
        pointers = []

        def recorded(stack, *args):
            mono = monomials(stack, *args)
            pointers.append(mono.__array_interface__["data"][0])
            return mono
        monkeypatch.setattr(NumericPoly, "_monomials", recorded)
        outputs = [(rows, prod.__array_interface__["data"][0], prod.shape)
                   for rows, prod in npoly.blocks(Z)]
        assert len(pointers) == 3 and len(set(pointers)) == 1
        assert len({pointer for _, pointer, _ in outputs}) == 1
        assert [(rows.start, rows.stop) for rows, _, _ in outputs] == \
            [(0, 512), (512, 1024), (1024, 1124)]
        assert [shape[2] for _, _, shape in outputs] == [512, 512, 100]


class TestRealView:
    """``_real_view`` folds the stack's own arrays; the ``CPoly`` fold
    (``_cpoly_fold``) is its oracle, array for array."""

    STACKS = [P.space_form(3, 1, degree=12), P.space_form(3, -1, degree=12),
              P.section6(Fraction(1, 10), 0), P.section6(Fraction(-1, 10), Fraction(1, 2)),
              P.space_form(2, 1), P.perturbed(2, 0), P.perturbed(3, 0)]

    @pytest.mark.parametrize("pot", STACKS, ids=lambda pot: pot.label)
    def test_is_the_cpoly_fold(self, pot):
        npoly = NumericPoly(_field_polys(pot))
        real, oracle = npoly._real_view(), _cpoly_fold(npoly)
        assert np.array_equal(real.A, oracle.A) and np.array_equal(real.ia, oracle.ia)
        assert real.max_pow == oracle.max_pow and not real.antiholomorphic
        assert real.indptr.dtype == real.indices.dtype == np.int32
        assert real.data.dtype == oracle.data.dtype
        # every entry of the stack reads the oracle's row of its polynomial
        for view_row, row in zip(real.rows, npoly.rows):
            got = slice(real.indptr[view_row], real.indptr[view_row + 1])
            expected = slice(oracle.indptr[row], oracle.indptr[row + 1])
            assert np.array_equal(real.indices[got], oracle.indices[expected])
            assert np.array_equal(real.data[got], oracle.data[expected])
        # and no two rows of the view are the same
        stored = {(real.indices[lo:hi].tobytes(), real.data[lo:hi].tobytes())
                  for lo, hi in zip(real.indptr[:-1], real.indptr[1:])}
        assert len(stored) == len(real.indptr) - 1

    def test_merged_terms_that_cancel_are_dropped(self):
        """z1 conj(z2) - z2 conj(z1) vanishes at real points: its row is empty,
        and the same as the zero polynomial's."""
        n = 2
        p = CPoly(n, {((1, 0), (0, 1)): 1, ((0, 1), (1, 0)): -1, ((2, 0), (0, 0)): 3})
        q = CPoly(n, {((1, 0), (0, 1)): 1, ((0, 1), (1, 0)): -1})
        npoly = NumericPoly([p, q, CPoly.zero(n), p])
        real = npoly._real_view()
        assert np.array_equal(real.rows, [0, 1, 1, 0])
        assert np.array_equal(real.indptr, [0, 1, 1]) and real.data.tolist() == [3.0]
        assert np.array_equal(real.A, [[2, 0]])
        x = np.array([[[0.3, -0.2]]])
        assert np.array_equal(npoly.evaluate_many(x), [[[3 * 0.3 ** 2, 0.0, 0.0, 3 * 0.3 ** 2]]])


class TestCoefficientRange:
    """A coefficient beyond the float range is a ``ValueError`` that names it,
    where ``NumericPoly`` rounds it: at construction, or in the real view's
    sum of the coefficients that merge."""

    @pytest.mark.parametrize("coeff, message", [
        (QC(4 * 10 ** 308), "the coefficient of z^(1, 0) conj(z)^(1, 0) has real part 4.000e+308"),
        (QC(1, -3 * 10 ** 400), "the coefficient of z^(1, 0) conj(z)^(1, 0) has imaginary "
                                "part -3.000e+400"),
    ])
    def test_at_construction(self, coeff, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            NumericPoly([CPoly(2, {((1, 0), (1, 0)): coeff})])

    def test_in_the_real_view(self):
        """z + conj(z), each 1e308, is 2e308 x at real points."""
        npoly = NumericPoly([CPoly(1, {((1,), (0,)): 1e308, ((0,), (1,)): 1e308})])
        with pytest.raises(ValueError, match=re.escape(
                "the coefficient of x^(1,) at real points has real part 2.000e+308")):
            npoly._real_view()

    def test_largest_float_is_kept(self):
        top = np.finfo(float).max
        npoly = NumericPoly([CPoly(2, {((1, 0), (1, 0)): top})])
        assert npoly.data.tolist() == [top]


class TestScipyFiles:
    def test_kernel_and_tableau_come_from_scipys_files(self):
        import scipy

        from kahlercomp import _scipy_files, geodesic, polynomials
        root = Path(scipy.__file__).parent
        assert _scipy_files.SCIPY_DIR == root
        assert Path(polynomials._sparsetools.__file__).parent == root / "sparse"
        assert Path(geodesic.dop.__file__) == root / "integrate" / "_ivp" / "dop853_coefficients.py"

    @pytest.mark.parametrize("relpath", ["sparse/_sparsetools",
                                         "integrate/_ivp/dop853_coefficients.py"])
    def test_missing_file_is_an_import_error(self, monkeypatch, tmp_path, relpath):
        from kahlercomp import _scipy_files
        monkeypatch.setattr(_scipy_files, "SCIPY_DIR", tmp_path)
        with pytest.raises(ImportError) as info:
            _scipy_files.load_scipy_file(relpath)
        assert str(tmp_path / relpath) in str(info.value)


class TestNumericSeries:
    @pytest.mark.parametrize("pot", [P.section6(Fraction(1, 10), 0), P.perturbed(2, 3),
                                     P.space_form(3, 1, degree=12), P.flat(2)],
                             ids=lambda pot: pot.label)
    def test_length_one_series_is_the_point_path(self, pot):
        rng = np.random.default_rng(5)
        Z = (rng.normal(size=(2000, pot.n)) + 1j * rng.normal(size=(2000, pot.n))) * 0.03
        expected = _point_values(NumericPoly(_field_polys(pot)), Z)
        G, D1, D2 = C.workspace(pot).field_values(Z[None])
        got = np.concatenate([G[0].reshape(len(Z), -1), D1[0].reshape(len(Z), -1),
                              D2[0].reshape(len(Z), -1)], axis=1)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("pot", [P.section6(Fraction(1, 10), 50), P.perturbed(2, 3)],
                             ids=lambda pot: pot.label)
    def test_straight_line_series_matches_exact_derivatives(self, pot):
        rng = np.random.default_rng(6)
        z0 = (rng.normal(size=pot.n) + 1j * rng.normal(size=pot.n)) * 0.03
        w = rng.normal(size=pot.n) + 1j * rng.normal(size=pot.n)
        polys = _field_polys(pot)
        exact = []
        for poly in polys:
            deriv, row = poly, []
            for k in range(6):
                row.append(poly_values(deriv, z0) / math.factorial(k))
                deriv = _directional(deriv, w)
            exact.append(row)
        exact = np.array(exact).T
        # every truncation length, so each length's top coefficient is checked
        for L in range(1, 7):
            Z = np.zeros((L, 1, pot.n), dtype=complex)
            Z[0, 0] = z0
            if L > 1:
                Z[1, 0] = w
            got = NumericPoly(polys).evaluate_many(Z)[:, 0]
            err = np.abs(got - exact[:L]) / np.maximum(1.0, np.abs(exact[:L]))
            assert err.max() <= 1e-12, L


class TestDtypeRule:
    """float64 exactly when the points are real floating and the coefficients real."""

    REAL = P.section6(Fraction(1, 10), 0)       # torus-invariant: real field stack
    COMPLEX = P.perturbed(2, 3)                 # not invariant: complex coefficients

    @staticmethod
    def _points(L, imag):
        rng = np.random.default_rng(11)
        Z = rng.normal(size=(L, 300, 2)) * 0.03
        return Z + 1j * rng.normal(size=Z.shape) * 0.03 if imag else Z

    def test_coefficient_storage(self):
        assert NumericPoly(_field_polys(self.REAL)).data.dtype == np.float64
        assert NumericPoly(_field_polys(self.COMPLEX)).data.dtype == np.complex128

    @pytest.mark.parametrize("L", [1, 3])
    def test_real_coefficients_at_real_points(self, L):
        """Oracle: exact ``Fraction`` evaluation of each polynomial along the
        series at dyadic real points, where conj(x) = x.  Each value is within
        (d L + k + 1) eps of the sum of |c| |x^e| of its row: one rounding per
        coefficient, per factor of a degree-d monomial along a length-L series
        and per term of a k-term sum."""
        polys = _field_polys(self.REAL)
        npoly = NumericPoly(polys)
        X = np.ldexp(np.round(np.ldexp(self._points(L, imag=False)[:, :64], 20)), -20)
        got = npoly.evaluate_many(X)
        assert got.dtype == np.float64

        def series_mul(a, b):
            return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(L)]

        def series_value(p, x, majorant):
            """p along the series x, or with |c| and |x| the sum of |c| |x^e|."""
            total = [Fraction(0)] * L
            for (a, b), c in p.coeffs.items():
                term = [abs(c.re) if majorant else c.re] + [Fraction(0)] * (L - 1)
                for i, e in enumerate(map(sum, zip(a, b))):
                    for _ in range(e):
                        term = series_mul(term, x[i])
                total = [s + t for s, t in zip(total, term)]
            return total

        for m in range(X.shape[1]):
            xs = [[Fraction(float(v)) for v in X[:, m, i]] for i in range(2)]
            xs_abs = [[abs(v) for v in x] for x in xs]
            for r, p in enumerate(polys):
                exact = series_value(p, xs, majorant=False)
                bound = series_value(p, xs_abs, majorant=True)
                ops = p.total_degree() * L + len(p.coeffs) + 1
                for k in range(L):
                    assert abs(Fraction(float(got[k, m, r])) - exact[k]) \
                        <= ops * Fraction(np.finfo(float).eps) * bound[k], (m, r, k)

    @pytest.mark.parametrize("L", [1, 3])
    def test_complex_coefficients_at_real_points(self, L):
        npoly = NumericPoly(_field_polys(self.COMPLEX))
        X = self._points(L, imag=False)
        got = npoly.evaluate_many(X)
        assert got.dtype == np.complex128
        assert got.tobytes() == npoly.evaluate_many(X.astype(complex)).tobytes()

    @pytest.mark.parametrize("pot", [REAL, COMPLEX], ids=lambda pot: pot.label)
    def test_complex_points_are_complex(self, pot):
        assert NumericPoly(_field_polys(pot)).evaluate_many(
            self._points(2, imag=True)).dtype == np.complex128

    @pytest.mark.parametrize("pot", [REAL, COMPLEX], ids=lambda pot: pot.label)
    def test_integer_points_are_promoted(self, pot):
        npoly = NumericPoly(_field_polys(pot))
        Z = np.array([[[1, 0], [0, -2], [3, 1]]])
        got = npoly.evaluate_many(Z)
        assert got.dtype == np.complex128
        assert got.tobytes() == npoly.evaluate_many(Z.astype(complex)).tobytes()
        # a truncating cast would have turned 1.5 into 1
        assert not np.array_equal(npoly.evaluate_many(Z * 1.5), got)

    @pytest.mark.parametrize("L", [1, 3])
    def test_real_coefficients_at_complex_points_keep_the_bits(self, L):
        polys = _field_polys(self.REAL)
        real, cplx = NumericPoly(polys), NumericPoly(polys)
        cplx.data = cplx.data.astype(complex)
        Z = self._points(L, imag=True)
        assert real.evaluate_many(Z).tobytes() == cplx.evaluate_many(Z).tobytes()
