"""Exact polynomial arithmetic in z_1..z_n and their conjugates.

Coefficients are complex numbers with rational real/imaginary parts, so every
algebraic step (products, determinants, truncated log series, derivatives) is
exact.  Floating point enters only when a polynomial is evaluated at a point,
or along the Taylor series of a curve; ``NumericPoly`` is the one numeric
evaluator for both.  It factors each monomial into a holomorphic and an
antiholomorphic part, evaluates the few distinct parts once per point (at
real points, where conj(z) = z, each distinct x^(a+b) once), and contracts
the monomials with a sparse (CSR) coefficient matrix holding each distinct
polynomial once: no dense linear algebra, so no threaded BLAS call.  The CSR
product is scipy's compiled ``csr_matvecs``, read from
``scipy/sparse/_sparsetools`` by path, without the ``scipy.sparse`` package.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np

from ._scipy_files import load_scipy_file

__all__ = ["QC", "CPoly", "NumericPoly", "cauchy_product"]

_sparsetools = load_scipy_file("sparse/_sparsetools")


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        # exact binary expansion of the float, so round trips are bit-exact
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


class QC:
    """Complex scalar with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _to_fraction(re)
        self.im = _to_fraction(im)

    @classmethod
    def from_number(cls, v) -> "QC":
        if isinstance(v, QC):
            return v
        if isinstance(v, complex):
            return cls(v.real, v.imag)
        return cls(v)

    # Coefficients of real potentials are mostly real: with both imaginary
    # parts 0, +, * and scale skip the Fraction arithmetic on them.
    def __add__(self, other: "QC") -> "QC":
        if not (self.im or other.im):
            return QC(self.re + other.re, self.im)
        return QC(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QC") -> "QC":
        return QC(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "QC") -> "QC":
        if not (self.im or other.im):
            return QC(self.re * other.re, self.im)
        return QC(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    def __neg__(self) -> "QC":
        return QC(-self.re, -self.im)

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

    def scale(self, f) -> "QC":
        """Both parts times the rational (Fraction or int) ``f``."""
        if not self.im:
            return QC(self.re * f, self.im)
        return QC(self.re * f, self.im * f)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, QC):
            other = QC.from_number(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        # int true division is correctly rounded: the bits of float(Fraction)
        return complex(self.re.numerator / self.re.denominator,
                       self.im.numerator / self.im.denominator)

    def __repr__(self):
        return f"QC({self.re}, {self.im})"


_QC_ZERO = QC()


def _beyond_float_range(c: QC, monomial: str) -> ValueError:
    """The error for ``c``, the coefficient of ``monomial``, when ``complex(c)``
    overflows: it names the monomial and the part that does not fit."""
    part, value = ("real", c.re) if abs(c.re) >= abs(c.im) else ("imaginary", c.im)
    return ValueError(f"the coefficient of {monomial} has {part} part "
                      f"{Decimal(value.numerator) / value.denominator:.3e}, beyond the "
                      f"float range")


class CPoly:
    """Polynomial in (z_1..z_n, conj(z_1)..conj(z_n)) with ``QC`` coefficients.

    Terms are stored canonically as a dict keyed by the exponent pair
    ``(alpha, beta)`` (tuples of non-negative ints); duplicate keys merge on
    construction and zero coefficients are dropped, so ``==`` is structural
    equality of the exact polynomials.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        self.coeffs: dict = {}
        if coeffs:
            for key, val in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                self._accumulate(key, QC.from_number(val))

    def _accumulate(self, key, val: QC):
        cur = self.coeffs.get(key)
        new = val if cur is None else cur + val
        if new.is_zero():
            self.coeffs.pop(key, None)
        else:
            self.coeffs[key] = new

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "CPoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, value) -> "CPoly":
        z = (0,) * n
        return cls(n, {(z, z): QC.from_number(value)})

    @classmethod
    def monomial(cls, n: int, alpha, beta, coeff) -> "CPoly":
        return cls(n, {(tuple(alpha), tuple(beta)): QC.from_number(coeff)})

    # -- ring operations ---------------------------------------------------
    def __add__(self, other: "CPoly") -> "CPoly":
        out = CPoly(self.n)
        out.coeffs = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out._accumulate(key, val)
        return out

    def __sub__(self, other: "CPoly") -> "CPoly":
        return self + (-other)

    def __neg__(self) -> "CPoly":
        out = CPoly(self.n)
        out.coeffs = {k: -v for k, v in self.coeffs.items()}
        return out

    def scale(self, value) -> "CPoly":
        c = QC.from_number(value)
        out = CPoly(self.n)
        if not c.is_zero():
            out.coeffs = {k: v * c for k, v in self.coeffs.items()}
        return out

    def mul(self, other: "CPoly", trunc: int | None = None) -> "CPoly":
        """Product, optionally dropping terms of total degree > ``trunc``."""
        out = CPoly(self.n)
        for (a1, b1), c1 in self.coeffs.items():
            d1 = sum(a1) + sum(b1)
            for (a2, b2), c2 in other.coeffs.items():
                if trunc is not None and d1 + sum(a2) + sum(b2) > trunc:
                    continue
                key = (tuple(x + y for x, y in zip(a1, a2)),
                       tuple(x + y for x, y in zip(b1, b2)))
                out._accumulate(key, c1 * c2)
        return out

    def __mul__(self, other: "CPoly") -> "CPoly":
        return self.mul(other)

    def conj(self) -> "CPoly":
        out = CPoly(self.n)
        out.coeffs = {(b, a): v.conjugate() for (a, b), v in self.coeffs.items()}
        return out

    # -- calculus ----------------------------------------------------------
    def dz(self, i: int) -> "CPoly":
        out = CPoly(self.n)
        for (a, b), c in self.coeffs.items():
            if a[i] == 0:
                continue
            na = list(a)
            na[i] -= 1
            out._accumulate((tuple(na), b), c.scale(a[i]))
        return out

    def dzbar(self, i: int) -> "CPoly":
        out = CPoly(self.n)
        for (a, b), c in self.coeffs.items():
            if b[i] == 0:
                continue
            nb = list(b)
            nb[i] -= 1
            out._accumulate((a, tuple(nb)), c.scale(b[i]))
        return out

    # -- structure ---------------------------------------------------------
    def total_degree(self) -> int:
        return max((sum(a) + sum(b) for a, b in self.coeffs), default=0)

    def min_degree(self) -> int:
        return min((sum(a) + sum(b) for a, b in self.coeffs), default=0)

    def truncate(self, degree: int) -> "CPoly":
        out = CPoly(self.n)
        out.coeffs = {k: v for k, v in self.coeffs.items()
                      if sum(k[0]) + sum(k[1]) <= degree}
        return out

    def part(self, degree: int) -> "CPoly":
        """Homogeneous part of the given total degree."""
        out = CPoly(self.n)
        out.coeffs = {k: v for k, v in self.coeffs.items()
                      if sum(k[0]) + sum(k[1]) == degree}
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, CPoly) and self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    def sorted_terms(self):
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0][0]) + sum(kv[0][1]), kv[0]))

    def log1p(self, trunc: int) -> "CPoly":
        """log(1 + self) = sum_k (-1)^(k+1) self^k / k, truncated at total
        degree ``trunc``.  The constant term of ``self`` must vanish, so only
        the powers k <= trunc / (least degree of self) contribute."""
        if self.min_degree() == 0 and not self.is_zero():
            raise ValueError("log1p needs a zero constant term")
        out = CPoly.zero(self.n)
        power = CPoly.constant(self.n, 1)
        for k in range(1, trunc // max(self.min_degree(), 1) + 1):
            power = power.mul(self, trunc=trunc)
            if power.is_zero():
                break
            out = out + power.scale(Fraction((-1) ** (k + 1), k))
        return out

    def __repr__(self):
        terms = []
        for (a, b), c in self.sorted_terms()[:8]:
            terms.append(f"{complex(c):.6g}*z^{list(a)}zb^{list(b)}")
        more = "" if len(self.coeffs) <= 8 else f" ... ({len(self.coeffs)} terms)"
        return "CPoly[" + " + ".join(terms) + more + "]"


def cauchy_product(op, a, b, out=None):
    """Taylor series of ``op(a, b)`` for a bilinear ``op``, truncated at len(b).

    The order is the first axis; for length-1 series this is ``op(a, b)``.
    With ``out`` (which may be ``a``) an elementwise ufunc ``op`` writes the
    len(out) orders in place, from the highest down, so each reads only
    coefficients of ``a`` not yet overwritten; every further term of an order
    is formed in one scratch order, ``op(..., out=tmp)``, and added from
    there.  Nothing is allocated at length 1.
    """
    if out is None:
        L = len(b)
        out = op(a[:1], b)
        for j in range(1, min(len(a), L)):
            out[j:] += op(a[j:j + 1], b[:L - j])
        return out
    tmp = np.empty_like(out[0]) if len(out) > 1 else None
    for k in range(len(out) - 1, -1, -1):
        op(a[k], b[0], out=out[k])
        for j in range(k):
            out[k] += op(a[j], b[k - j], tmp)
    return out


class NumericPoly:
    """Float-coefficient view of a stack of ``CPoly`` sharing one monomial basis.

    Each distinct polynomial is stored once: entries of the stack that are the
    same ``CPoly`` object (the symmetric mixed partials of a curvature
    workspace) share one coefficient row, and ``rows`` maps every entry to
    its row, so the output is expanded with one gather.  The basis is
    factored: the distinct holomorphic exponent tuples ``A`` (na, n) and
    antiholomorphic ones ``B`` (nb, n) are tabulated once, and monomial m is
    z^A[ia[m]] conj(z)^B[ib[m]].  The coefficients are a CSR matrix (rows x
    monomials) in scipy's canonical form, held as its three arrays
    ``indptr``, ``indices`` (int32; rows in order, columns sorted within each
    row) and ``data``; the stacks of a curvature workspace store only a few
    percent of its entries.  The product is scipy's ``csr_matvecs`` on these
    arrays, the kernel that ``csr_array @ X`` calls, so it accumulates in the
    same order and gives the same bits; the monomials are formed as its rows
    (monomials x points), the layout it reads.  A single polynomial is a
    stack of one and a single point a batch of one.  Points are evaluated in
    blocks of ``BLOCK`` rows (``blocks``), so the temporaries of a large batch
    stay bounded; the blocks of one call form their power table, exponent
    tables, monomials and CSR output in the same buffers, allocated once per
    call, not once per block.

    The evaluation is dtype-generic with one code path.  ``data`` is float64
    when every coefficient is real (as for every torus-invariant stack: its
    coefficients c_aa are real and the derivative factors are integers),
    complex128 otherwise.  Real floating points with real coefficients are
    evaluated in float64 throughout, on the folded stack (``_real_view``):
    there conj(z) = z, so z^a conj(z)^b = x^(a+b), the monomials that merge
    have their exact coefficients summed and rounded once, and the rows that
    fold to the same coefficients are stored once (``view``).  Every other
    input is evaluated in complex128, integer points included.  Real
    coefficients at complex points give the same bits as complex ones,
    because the CSR kernel casts them to complex before it multiplies.
    """

    __slots__ = ("n", "A", "B", "ia", "ib", "indptr", "indices", "data", "max_pow", "rows",
                 "antiholomorphic", "plans", "_polys", "_real")

    BLOCK = 512

    def __init__(self, polys):
        polys = list(polys)
        n = polys[0].n
        first = {}
        for p in polys:
            first.setdefault(id(p), (len(first), p))
        self.rows = np.array([first[id(p)][0] for p in polys], dtype=np.intp)
        self._polys = [p for _, p in first.values()]
        self._real = None
        holo, anti, index = {}, {}, {}
        rows, cols, vals = [], [], []
        for r, p in enumerate(self._polys):
            for (a, b), c in p.sorted_terms():
                key = (holo.setdefault(a, len(holo)), anti.setdefault(b, len(anti)))
                rows.append(r)
                cols.append(index.setdefault(key, len(index)))
                try:
                    vals.append(complex(c))
                except OverflowError:
                    raise _beyond_float_range(c, f"z^{a} conj(z)^{b}") from None
        self.n = n
        self.A = np.array(list(holo), dtype=np.int64).reshape(len(holo), n)
        self.B = np.array(list(anti), dtype=np.int64).reshape(len(anti), n)
        self.ia, self.ib = np.array(list(index), dtype=np.int64).reshape(-1, 2).T
        self._set_basis()
        self.indptr, self.indices, self.data = _csr(rows, cols, vals, len(self._polys))

    def _set_basis(self):
        self.max_pow = int(max(self.A.max(initial=0), self.B.max(initial=0)))
        self.antiholomorphic = bool(self.B.any())
        self.plans = (_prefix_plan(self.A), _prefix_plan(self.B))

    def _real_view(self) -> "NumericPoly":
        """The stack at real points x, where z = conj(z) = x, built on first
        use; a stack with no antiholomorphic exponent is its own view.

        Each monomial z^a conj(z)^b becomes x^(a+b).  The fold works on this
        stack's own arrays: entry e of row r has the exponent A[ia] + B[ib] of
        its column, each row's entries are ordered by (degree, exponent), and
        only the groups of entries that merge have their exact ``CPoly``
        coefficients summed, and rounded once (a sum of 0 drops the entry); a
        single entry keeps its stored value.  The view's columns are the
        distinct exponents, numbered by first appearance, so its ``A`` lists
        them in that order and its ``ia`` is the identity.  These are the
        arrays that ``NumericPoly`` builds from the folded ``CPoly`` of each
        row, bit for bit.  Rows that fold to the same coefficients (g_ij and
        g_ji, and mixed partials, at real points) are stored once: the view's
        ``rows`` maps every entry of this stack to its row (space_form(3, 1,
        degree=12): 671 monomials fold to 286 and 63 rows to 43)."""
        if not self.antiholomorphic:
            return self
        if self._real is None:
            self._real = self._fold()
        return self._real

    def _fold(self) -> "NumericPoly":
        """The view of ``_real_view``, from this stack's arrays."""
        count = len(self.indptr) - 1
        row = np.repeat(np.arange(count), np.diff(self.indptr))
        E = self.A[self.ia[self.indices]] + self.B[self.ib[self.indices]]
        key = np.ravel_multi_index(E.T, tuple(E.max(axis=0, initial=0) + 1))
        order = np.lexsort((key, E.sum(axis=1), row))
        row, key = row[order], key[order]
        start = np.ones(len(order), dtype=bool)
        start[1:] = (row[1:] != row[:-1]) | (key[1:] != key[:-1])
        size = np.bincount(np.cumsum(start) - 1)
        head = np.cumsum(size) - size
        vals, keep = self.data[order[head]].tolist(), np.ones(len(head), dtype=bool)
        A, B = self.A.tolist(), self.B.tolist()
        for g in (size > 1).nonzero()[0].tolist():
            # a merging group: sum its exact coefficients, round once
            poly = self._polys[row[head[g]]]
            total = _QC_ZERO
            for m in self.indices[order[head[g]:head[g] + size[g]]].tolist():
                total = total + poly.coeffs[tuple(A[self.ia[m]]), tuple(B[self.ib[m]])]
            try:
                vals[g] = complex(total)
            except OverflowError:
                monomial = f"x^{tuple(E[order[head[g]]].tolist())} at real points"
                raise _beyond_float_range(total, monomial) from None
            keep[g] = not total.is_zero()
        head = head[keep]
        # columns: the distinct exponents, numbered by first appearance
        cols, first = _first_appearance(key[head])
        indptr, indices, data = _csr(row[head], cols, [v for v, k in zip(vals, keep) if k],
                                     count)
        # one row per distinct folded row
        seen, fold, kept = {}, [], []
        for lo, hi in zip(indptr[:-1], indptr[1:]):
            content = (indices[lo:hi].tobytes(), data[lo:hi].tobytes())
            kept.append(content not in seen)
            fold.append(seen.setdefault(content, len(seen)))
        fold, kept = np.array(fold, dtype=np.intp), np.array(kept, dtype=bool)
        lengths = np.diff(indptr)
        view = NumericPoly.__new__(NumericPoly)
        view.n, view._polys, view._real = self.n, None, None
        view.rows = fold[self.rows]
        view.A = E[order[head[first]]]
        view.B = np.zeros((1, self.n), dtype=np.int64)
        view.ia = np.arange(len(view.A), dtype=np.int64)
        view.ib = np.zeros(len(view.A), dtype=np.int64)
        view._set_basis()
        view.indptr = np.zeros(len(seen) + 1, dtype=np.int32)
        np.cumsum(lengths[kept], out=view.indptr[1:])
        entries = np.repeat(kept, lengths)
        view.indices, view.data = indices[entries], data[entries]
        return view

    def view(self, Z) -> "NumericPoly":
        """The stack that evaluates the points ``Z``: ``_real_view()`` at real
        floating points with real coefficients, else this stack.  Its
        ``rows`` maps every entry of this stack to a row of its output."""
        return self._real_view() if self.result_type(Z) is float else self

    def result_type(self, Z):
        """``float`` for real floating points and real coefficients, else ``complex``."""
        real = np.asarray(Z).dtype.kind == "f" and self.data.dtype.kind == "f"
        return float if real else complex

    def evaluate_many(self, Z) -> np.ndarray:
        """(L, N, polys) values along N curves z(t), t real, given as (L, N, n)
        Taylor series; N points are a length-1 series.  Float64 when ``Z`` is
        real floating and the coefficients are real, complex128 otherwise."""
        rows = self.view(Z).rows
        out = [prod.transpose(0, 2, 1)[..., rows] for _, prod in self.blocks(Z)]
        return out[0] if len(out) == 1 else np.concatenate(out, axis=1)

    def blocks(self, Z):
        """(points, prod) for the (L, N, n) series ``Z``, ``BLOCK`` points at a
        time: ``points`` is the slice of the block's points, and ``prod`` (L,
        rows, block points) the values of the rows of ``view(Z)``, in the
        dtype of ``evaluate_many``; entry e of the stack is row
        ``view(Z).rows[e]``.  The
        monomials, their scratch and ``prod`` are buffers of the call, shared
        by its blocks, so ``prod`` holds a block's values until the next block.
        There is one block at least, so that no points give an empty one."""
        Z = np.asarray(Z)
        dtype = self.result_type(Z)
        stack = self._real_view() if dtype is float else self
        Z = Z.astype(dtype, copy=False)
        L, N = Z.shape[:2]
        distinct, monos = len(stack.indptr) - 1, len(stack.ia)
        bufs = {}
        for lo in range(0, max(N, 1), self.BLOCK):
            mono = stack._monomials(Z[:, lo:lo + self.BLOCK], bufs)
            cols = mono.shape[2]
            prod = _buffer(bufs, "prod", (L, distinct, cols), dtype)
            prod.fill(0)
            for k in range(L):
                _sparsetools.csr_matvecs(distinct, monos, cols, stack.indptr, stack.indices,
                                         stack.data, mono[k].ravel(), prod[k].ravel())
            yield slice(lo, lo + cols), prod

    def _monomials(self, Z, bufs) -> np.ndarray:
        """(L, monomials, N) Taylor series of the basis monomials along the
        (L, N, n) series ``Z``, in its dtype (float64 or complex128), formed in
        the buffers of the dict ``bufs`` (``_buffer``)."""
        L, N, n = Z.shape
        pw = _buffer(bufs, "pw", (L, n, self.max_pow + 1, N), Z.dtype)
        pw[:, :, 0] = 0.0
        pw[0, :, 0] = 1.0
        Zt = Z.transpose(0, 2, 1)
        for d in range(1, self.max_pow + 1):
            pw[:, :, d] = cauchy_product(np.multiply, pw[:, :, d - 1], Zt)
        mono = _buffer(bufs, "mono", (L, len(self.ia), N), Z.dtype)
        holo_plan, anti_plan = self.plans
        if not self.antiholomorphic:
            # each monomial is its holomorphic factor, in the order of A
            # (ia is the identity), as for a real view
            return _exponent_table(pw, holo_plan, mono, bufs)
        # each monomial as one product of its holomorphic and antiholomorphic
        # factor; the table of A is gathered to mono before B's table reuses it
        holo = _exponent_table(pw, holo_plan,
                               _buffer(bufs, "table", (L, len(self.A), N), Z.dtype), bufs)
        holo.take(self.ia, axis=1, out=mono, mode="clip")
        anti = _exponent_table(np.conjugate(pw, out=pw), anti_plan,
                               _buffer(bufs, "table", (L, len(self.B), N), Z.dtype), bufs)
        factor = anti.take(self.ib, axis=1, out=_buffer(bufs, "factor", mono.shape, Z.dtype),
                           mode="clip")
        return cauchy_product(np.multiply, mono, factor, out=mono)


def _first_appearance(key):
    """(number, first) for the int array ``key``: number[i] numbers key[i]
    by the order in which the distinct keys first appear, and the mask
    ``first`` marks the positions where they do."""
    by_key = np.lexsort((key,))   # stable: equal keys in the order of their positions
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[by_key[1:]] != key[by_key[:-1]]
    first = np.zeros(len(key), dtype=bool)
    first[by_key[new]] = True
    number = np.empty(len(key), dtype=np.int64)
    number[by_key] = (np.cumsum(first) - 1)[by_key[new]][np.cumsum(new) - 1]
    return number, first


def _csr(rows, cols, vals, count):
    """(indptr, indices, data) of the ``count``-row CSR matrix with the given
    (row, column, value) entries, in scipy's canonical form: rows in order,
    columns sorted within each row, int32 indices, and float64 data when no
    value has an imaginary part, complex128 otherwise."""
    vals = np.asarray(vals, dtype=complex)
    if not vals.imag.any():
        vals = vals.real
    rows, cols = np.asarray(rows, dtype=np.int32), np.asarray(cols, dtype=np.int32)
    order = np.lexsort((cols, rows))
    indptr = np.zeros(count + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=count), out=indptr[1:])
    return indptr, cols[order], vals[order]


def _buffer(bufs, name, shape, dtype):
    """A C-contiguous ``shape`` view of the array ``bufs[name]``, which is
    allocated on the first request and regrown only when a request needs more:
    a call's first block is its largest, so its later blocks reuse the memory.
    Gathers into these views use ``take(..., mode="clip")``, which writes to
    ``out`` directly (``mode="raise"`` writes to a copy)."""
    buf = bufs.get(name)
    size = math.prod(shape)
    if buf is not None and buf.size >= size:
        return buf.reshape(-1)[:size].reshape(shape)
    bufs[name] = buf = np.empty(shape, dtype)
    return buf


def _prefix_plan(E):
    """How ``_exponent_table`` forms the monomials z^E[m], one variable at a
    time: for each variable i >= 1, (parent, power) over the distinct
    prefixes E[m, :i+1] (in order of first appearance; at the last variable,
    the rows of E in order), with ``parent`` the row of each prefix's own
    prefix in the level before (at i = 1, the power of z_0) and ``power`` its
    exponent of z_i.  A stack in one variable has no levels, only E's
    exponents of z_0."""
    if E.shape[1] == 1:
        return [], E[:, 0]
    index = E[:, 0].tolist()
    levels = []
    for i in range(1, E.shape[1] - 1):
        seen = {}
        index = [seen.setdefault(prefix, len(seen)) for prefix in zip(index, E[:, i].tolist())]
        parent, power = zip(*seen) if seen else ((), ())
        levels.append((np.array(parent, dtype=np.intp), np.array(power, dtype=np.intp)))
    levels.append((np.array(index, dtype=np.intp), E[:, -1].astype(np.intp)))
    return levels, None


def _exponent_table(pw, plan, out, bufs):
    """The (L, monomials, N) series of the monomials z^E[m], written to
    ``out`` from the power table ``pw`` (L, n, powers, N) along E's
    ``_prefix_plan``: each level multiplies the rows of its parents by a
    power of the next variable, so every prefix shared by several monomials
    is formed once.  Each monomial is still the product over i of z_i^E[m, i]
    taken in the order of i, so its bits are those of a product formed
    monomial by monomial.  The levels alternate between ``out`` and one spare
    buffer, ending in ``out``; each gathers its powers where the level before
    it was, once that level is read."""
    levels, single = plan
    if single is not None:
        return pw[:, 0].take(single, axis=1, out=out, mode="clip")
    L, N = out.shape[0], out.shape[2]
    spare = _buffer(bufs, "rows", out.shape, out.dtype)
    prev = pw[:, 0]
    for i, (parent, power) in enumerate(levels):
        here, there = (out, spare) if (len(levels) - i) % 2 else (spare, out)
        shape = (L, len(parent), N)
        cur = prev.take(parent, axis=1, out=_leading(here, shape), mode="clip")
        rows = pw[:, i + 1].take(power, axis=1, out=_leading(there, shape), mode="clip")
        cauchy_product(np.multiply, cur, rows, out=cur)
        prev = cur
    return out


def _leading(buf, shape):
    """A C-contiguous ``shape`` view of the first elements of ``buf``."""
    if buf.shape == shape:
        return buf
    return buf.reshape(-1)[:math.prod(shape)].reshape(shape)
