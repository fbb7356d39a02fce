"""Univariate polynomials over the rationals, polynomial matrices, Smith
normal form, and real-root isolation.

A `Polynomial` stores integer coefficients in ascending degree, trailing
zeros stripped, over one positive common denominator, in lowest terms; the
zero polynomial has no coefficients and degree -1 (standing in for "minus
infinity").  Its arithmetic is the int coefficient-list kernels of
``zpoly``, and its `Fraction` coefficients are a read-only view, `coeffs`,
built on first read.  A `PolyMatrix` is laid out the same way: integer
coefficient rows over one positive denominator, with its `Polynomial`
entries a read-only view, so the matrix kernels read its integers directly
and no entry is cleared of denominators twice.  All arithmetic is exact;
nothing in this module touches floating point.

``polymat_det`` runs no elimination over Z[t]: by Kronecker substitution
its integer rows evaluated at t = 2**w, with 2**(w - 1) above every
coefficient the determinant can have, go through the package's one
integer elimination, and the signed base-2**w digits of that determinant
are the coefficients.  ``smith_form``, the gcd, the Sturm chains (one
primitive remainder sequence) and Yun's loop on primitive polynomials,
whose divisions by primitive gcds are exact in Z[t] by Gauss's lemma,
run over Z[t] on the integer coefficients.
The Smith form keeps every row and column it updates primitive by
dividing out its integer content; a nonzero rational factor is a unit of
Q[t], so this changes no invariant and keeps the integers small.  The
partial multiplicities of one rational value need no global Smith form:
``_local_partials`` reads them off one elimination in powers of t - lam,
truncated at a given order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm

from .errors import NotSquareError, ZeroPolynomialError
from .exact import (
    _POINT_GROUP,
    Matrix,
    _bareiss_int_det,
    _batched_dets,
    _clear_denominators,
    _elimination_plan,
    _frac,
    _lowest_terms,
    _rational,
)
from .zpoly import (
    _zderivative,
    _zdiv_exact,
    _zgcd,
    _zhomogeneous,
    _zmul,
    _zprimitive,
    _zpseudo_divmod,
    _zremainders,
    _zscale,
    _zsub,
    _zvalues,
)

_ZERO = Fraction(0)


class Polynomial:
    """Immutable univariate polynomial over Q: integer coefficients ``ints``
    over one positive denominator ``den``, in lowest terms, so that equal
    polynomials have equal ``(ints, den)``.

    ``Polynomial(coeffs)`` takes rational coefficients, ascending;
    ``Polynomial(ints, den)`` takes integer ones standing for each / den.
    """

    __slots__ = ("ints", "den", "_coeffs")

    def __init__(self, coeffs=(), den=None):
        if den is None:
            ints, den = _clear_denominators([_rational(c) for c in coeffs])
        else:
            ints = list(coeffs)
            if den != 1:
                (ints,), den = _lowest_terms([ints], den)
        while ints and not ints[-1]:
            ints.pop()
        self.ints = tuple(ints)
        self.den = den
        self._coeffs = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending."""
        if self._coeffs is None:
            self._coeffs = tuple(Fraction(c, self.den) for c in self.ints)
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    @property
    def leading(self) -> Fraction:
        if not self.ints:
            return _ZERO
        return Fraction(self.ints[-1], self.den)

    def __bool__(self):
        return bool(self.ints)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.den == other.den and self.ints == other.ints
        if isinstance(other, (int, Fraction)):
            return self == Polynomial([other])
        return NotImplemented

    def __hash__(self):
        """A constant hashes as its value, as it compares equal to it."""
        if len(self.ints) <= 1:
            return hash(Fraction(self.ints[0], self.den) if self.ints else 0)
        return hash((self.ints, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self - (-other)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.ints], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = lcm(self.den, other.den)
        return Polynomial(
            _zsub(_zscale(self.ints, den // self.den), _zscale(other.ints, den // other.den)),
            den,
        )

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(_zmul(self.ints, other.ints), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def divides(self, other: "Polynomial") -> bool:
        """Whether self divides other in Q[t]: the integer pseudo-remainder
        of other by self (a positive multiple of the rational one) is 0."""
        if self.is_zero():
            return other.is_zero()
        return not _zpseudo_divmod(other.ints, self.ints)[2]

    def __call__(self, t):
        t = _frac(t)
        value, power = _zhomogeneous(self.ints, t.numerator, t.denominator)
        return Fraction(value, power * self.den)

    def derivative(self) -> "Polynomial":
        return Polynomial(_zderivative(self.ints), self.den)

    def monic(self) -> "Polynomial":
        if self.is_zero() or self.ints[-1] == self.den:
            return self
        return Polynomial(self.ints, self.ints[-1])

    def reversal(self, grade=None) -> "Polynomial":
        """t**grade * p(1/t); grade defaults to the degree."""
        if grade is None:
            grade = max(self.degree, 0)
        if grade < self.degree:
            raise ValueError("grade below degree")
        return Polynomial([0] * (grade - self.degree) + list(reversed(self.ints)), self.den)

    @staticmethod
    def _coerce(x):
        if isinstance(x, Polynomial):
            return x
        if isinstance(x, (int, Fraction)):
            return Polynomial([x])
        return NotImplemented

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
        return "Poly(" + " + ".join(parts) + ")"


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor, by a primitive remainder sequence
    over Z[t] on the integer coefficients."""
    return Polynomial(_zgcd(a.ints, b.ints)).monic()


def squarefree_decomposition(p: Polynomial):
    """Yun decomposition: list of (factor, multiplicity) with factors
    squarefree and monic.

    The product of factor**multiplicity equals p up to a constant.  Yun's
    loop runs over Z[t] on the primitive part of p (`_yun`).
    """
    if p.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    p = _zprimitive([p.ints])[0]
    return [(Polynomial(f).monic(), k) for f, k in _yun(p, _zgcd(p, _zderivative(p)))]


def _yun(p, a):
    """Yun's loop on the primitive int list p from a = +-gcd(p, p'): yields
    (f, multiplicity), f primitive with a positive leading coefficient.
    Each gcd is primitive, so every division by one is exact in Z[t]."""
    b = _zdiv_exact(p, a)
    d = _zsub(_zdiv_exact(_zderivative(p), a), _zderivative(b))
    mult = 1
    while len(b) > 1:
        f = _zgcd(b, d)
        if len(f) > 1:
            yield f, mult
        b = _zdiv_exact(b, f)
        d = _zsub(_zdiv_exact(d, f), _zderivative(b))
        mult += 1


def root_multiplicity(p: Polynomial, r) -> int:
    """Multiplicity of the rational value r = a/b as a root of p.

    p(a/b) = 0 is tested on the homogenized value of p's integer
    coefficients, and each root is divided out exactly by b*t - a, which is
    primitive, so by Gauss's lemma the quotient stays in Z[t].  The zero
    polynomial counts 0.
    """
    r = _frac(r)
    a, b = r.numerator, r.denominator
    ints = p.ints
    count = 0
    while ints and not _zhomogeneous(ints, a, b)[0]:
        ints = _zdiv_exact(ints, [-a, b])
        count += 1
    return count


# ---- Sturm machinery ------------------------------------------------------


def sturm_chain(p: Polynomial) -> list[tuple[int, ...]]:
    """The primitive remainder sequence of (p, p'), p's Sturm sequence if p
    is squarefree, each member a tuple of integer coefficients, ascending,
    so that signs at rational points are found in integer arithmetic.  The
    first has p's signs, the last is gcd(p, p') up to a rational factor."""
    return [tuple(q) for q in _zremainders(p.ints, _zderivative(p.ints))]


def _sign_at(ints, x: Fraction) -> int:
    """Sign of the integer polynomial ``ints`` (ascending) at x = a/b, from
    its homogenized value times b**d > 0, so no Fraction is built."""
    value, _ = _zhomogeneous(ints, x.numerator, x.denominator)
    return (value > 0) - (value < 0)


def _sign_variations(chain, x) -> tuple[int, int]:
    """(sign of chain[0] at x, sign variations of the chain at x)."""
    signs = [_sign_at(q, x) for q in chain]
    nonzero = [s for s in signs if s]
    return signs[0], sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def simplest_rational_in(lo, hi) -> Fraction:
    """The rational with smallest denominator strictly inside (lo, hi).

    Continued-fraction descent; used to recognize rational roots from tight
    isolating intervals without factoring anything.
    """
    lo = _frac(lo)
    hi = _frac(hi)
    if not lo < hi:
        raise ValueError("empty interval")
    if lo < 0 < hi:
        return _ZERO
    if hi <= 0:
        return -_simplest_cf(-hi, -lo)
    return _simplest_cf(lo, hi)


def _simplest_cf(lo: Fraction, hi: Fraction) -> Fraction:
    """Simplest rational strictly inside (lo, hi), assuming 0 <= lo < hi."""
    n = lo.numerator // lo.denominator  # floor, lo nonnegative
    if Fraction(n + 1) < hi:
        return Fraction(n + 1)
    frac_lo = lo - n
    if frac_lo == 0:
        # (n, hi) with hi <= n+1: answer is n + 1/k for the smallest valid k
        inv = hi - n
        k = inv.denominator // inv.numerator + 1
        return n + Fraction(1, k)
    # x in (lo, hi) <=> x = n + 1/y with y in (1/(hi-n), 1/frac_lo)
    inner = _simplest_cf(1 / (hi - n), 1 / frac_lo)
    return n + 1 / inner


@dataclass(frozen=True)
class RootRecord:
    """One real root: exact rational value, or an isolating interval (lo, hi]."""

    lo: Fraction
    hi: Fraction
    multiplicity: int
    value: Fraction | None = None

    @property
    def is_exact(self) -> bool:
        return self.value is not None

    def midpoint(self) -> Fraction:
        if self.value is not None:
            return self.value
        return (self.lo + self.hi) / 2


_DEFAULT_WIDTH = Fraction(1, 10**12)


def real_roots(p: Polynomial, lo, hi, width=_DEFAULT_WIDTH, include_hi=True):
    """Isolate the real roots of p in (lo, hi] (or (lo, hi) when include_hi
    is false).

    Returns RootRecord entries sorted by position, none if hi <= lo.
    Rational roots found by exact evaluation are reported with `value` set,
    others with an isolating interval refined below `width` (> 0).  p's
    Sturm chain, run once, ends in a constant if p is squarefree, else in
    gcd(p, p'), where Yun's loop starts, so multiplicities are exact.
    """
    if p.is_zero():
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    lo, hi, width = _frac(lo), _frac(hi), _frac(width)
    if width <= 0:
        raise ValueError("width must be positive")
    if hi <= lo:
        return []
    chain = sturm_chain(p)
    parts = [(chain, 1)] if len(chain[-1]) == 1 else [
        (sturm_chain(Polynomial(f, 1)), k) for f, k in _yun(chain[0], chain[-1])]
    records = [RootRecord(rec.lo, rec.hi, k, rec.value) for factor_chain, k in parts
               for rec in _isolate_squarefree(factor_chain, lo, hi, width)]
    if not include_hi:
        records = [r for r in records if not (r.value is not None and r.value == hi)]
    return sorted(records, key=lambda r: r.midpoint())


def _isolate_squarefree(chain, lo, hi, width):
    """Bisect (lo, hi] until each interval holds one root of p = chain[0],
    squarefree, and is at most width wide, then try its simplest rational;
    roots at midpoints are exact.

    The Sturm chain counts the roots of each interval.  Once (a, b] holds
    one root and p(b) != 0, that root is simple and p changes sign across
    it, so `_refine` bisects on the sign of p alone, compared with its sign
    at b.  Only an interval whose one inner root comes with a root at b
    keeps bisecting on the whole chain.  Both halve the same dyadic
    intervals and stop by the same rule, so every record is the one the
    whole chain, or -p's with every sign flipped, would give.
    """
    out = []
    at_hi, v_hi = _sign_variations(chain, hi)
    if at_hi == 0:
        out.append(RootRecord(hi, hi, 1, hi))

    stack = [(lo, hi, _sign_variations(chain, lo)[1], v_hi, at_hi)]
    while stack:
        a, b, va, vb, at_b = stack.pop()
        count = va - vb
        if at_b == 0:
            count -= 1  # root at the right endpoint handled separately
        if count <= 0:
            continue
        if count == 1 and at_b:
            out.append(_refine(chain[0], a, b, at_b, width))
            continue
        if count == 1 and b - a <= width:
            out.append(_simplest_record(chain[0], a, b))
            continue
        mid = (a + b) / 2
        at_mid, vm = _sign_variations(chain, mid)
        if at_mid == 0:
            out.append(RootRecord(mid, mid, 1, mid))
        stack.append((a, mid, va, vm, at_mid))
        stack.append((mid, b, vm, vb, at_b))
    return out


def _refine(ints, a: Fraction, b: Fraction, at_b: int, width) -> RootRecord:
    """The record of the one root of the integer polynomial ``ints`` in
    (a, b), where its sign at b is at_b != 0.

    Halves (a, b] until it is at most width wide, keeping the half where
    the sign changes: a midpoint with the sign at b moves b, any other
    moves a, and a zero there is the root.  The endpoints are integer
    numerators over one denominator that doubles each step, so each sign
    is one `_zhomogeneous` and no Fraction is built until the end.
    """
    den = lcm(a.denominator, b.denominator)
    an = a.numerator * (den // a.denominator)
    bn = b.numerator * (den // b.denominator)
    wn, wd = width.numerator, width.denominator
    while (bn - an) * wd > wn * den:
        mn = an + bn
        den <<= 1
        value, _ = _zhomogeneous(ints, mn, den)
        if not value:
            mid = Fraction(mn, den)
            return RootRecord(mid, mid, 1, mid)
        if (value > 0) == (at_b > 0):
            an, bn = an << 1, mn
        else:
            an, bn = mn, bn << 1
    return _simplest_record(ints, Fraction(an, den), Fraction(bn, den))


def _simplest_record(ints, a: Fraction, b: Fraction) -> RootRecord:
    """The record of the one root in (a, b]: the simplest rational inside
    when it is the root, else the interval."""
    cand = simplest_rational_in(a, b)
    if _sign_at(ints, cand) == 0:
        return RootRecord(cand, cand, 1, cand)
    return RootRecord(a, b, 1, None)


# ---- polynomial matrices ---------------------------------------------------


class PolyMatrix:
    """Immutable rectangular matrix over Q[t] with a declared grade: integer
    coefficient rows ``ints`` over one positive denominator ``den``, in
    lowest terms, so that equal matrices have equal ``(ints, den, grade)``.

    Each entry of ``ints`` is a tuple of ints, ascending, without trailing
    zeros, and every zero entry is the one empty tuple.
    ``PolyMatrix(entries, grade)`` takes `Polynomial` or rational entries;
    ``PolyMatrix(rows, grade, den)`` takes integer coefficient rows as they
    come out of a kernel, each entry standing for its coefficients / den and
    already without trailing zeros.  The entries as Polynomials are a
    read-only view, `entries`, built on first read.

    The grade (declared degree) is used for reversal and for eigenvalues at
    infinity, so it is part of equality; it must dominate every entry degree
    and defaults to the largest one.
    """

    __slots__ = ("ints", "den", "nrows", "ncols", "grade", "_entries")

    def __init__(self, entries, grade=None, den=None):
        if den is None:
            polys = [[e if isinstance(e, Polynomial) else Polynomial([e]) for e in row]
                     for row in entries]
            den = lcm(*(e.den for row in polys for e in row))
            rows = [[_zscale(e.ints, den // e.den) for e in row] for row in polys]
        else:
            rows = list(entries)
            if den != 1:
                g = gcd(den, *chain.from_iterable(chain.from_iterable(rows)))
                if den < 0:
                    g = -g
                if g != 1:
                    rows = [[[c // g for c in e] for e in row] for row in rows]
                    den //= g
        self.ints = tuple(tuple(map(tuple, row)) for row in rows)
        self.den = den
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        if any(len(r) != self.ncols for r in rows):
            raise ValueError("ragged rows")
        max_deg = max(max(map(len, chain.from_iterable(self.ints)), default=0) - 1, 0)
        if grade is None:
            grade = max_deg
        elif grade < max_deg:
            raise ValueError("grade below maximum entry degree")
        self.grade = grade
        self._entries = None

    @property
    def entries(self) -> tuple[tuple[Polynomial, ...], ...]:
        """The entries as Polynomials; equal entries share one Polynomial."""
        if self._entries is None:
            den = self.den
            view = {e: Polynomial(e, den) for e in {e for row in self.ints for e in row}}
            self._entries = tuple(tuple([view[e] for e in row]) for row in self.ints)
        return self._entries

    def coefficient(self, k: int) -> Matrix:
        """Constant matrix of the t**k coefficients."""
        return Matrix([[e[k] if k < len(e) else 0 for e in row] for row in self.ints],
                      self.den, self.ncols)

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.grade == other.grade
            and self.den == other.den
            and self.ints == other.ints
        )

    def __hash__(self):
        return hash((self.ints, self.den, self.grade))

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("dimension mismatch")
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, -(den // other.den)
        return PolyMatrix(
            [[_zsub(_zscale(a, sa), _zscale(b, sb)) for a, b in zip(ra, rb)]
             for ra, rb in zip(self.ints, other.ints)],
            max(self.grade, other.grade),
            den,
        )

    def scale(self, p) -> "PolyMatrix":
        """p times every entry; the grade grows by the degree of p."""
        p = Polynomial._coerce(p)
        return PolyMatrix([[_zmul(p.ints, e) for e in row] for row in self.ints],
                          self.grade + max(p.degree, 0), self.den * p.den)

    def eval_at(self, t) -> Matrix:
        """The value at the rational t = p/q: each entry's homogenized value
        over q**grade, all over den * q**grade."""
        t = _frac(t)
        p, q = t.numerator, t.denominator
        grade = self.grade
        qpow = [q**j for j in range(grade + 1)]
        return Matrix(
            [[_zhomogeneous(e, p, q)[0] * qpow[grade + 1 - len(e)] if e else 0 for e in row]
             for row in self.ints],
            self.den * qpow[grade],
            self.ncols,
        )

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols}, grade={self.grade})"


def reversal(m: PolyMatrix) -> PolyMatrix:
    """Entrywise coefficient reversal with respect to the declared grade."""
    k = m.grade

    def reversed_entry(e):
        # e's zeros of low order would become trailing zeros
        order = 0
        while not e[order]:
            order += 1
        return (0,) * (k + 1 - len(e)) + e[order:][::-1]

    return PolyMatrix([[reversed_entry(e) if e else e for e in row] for row in m.ints], k, m.den)


def polymat_det(m: PolyMatrix) -> Polynomial:
    """Exact determinant of a square polynomial matrix.

    The determinant of the integer rows of m is det m times den**n, found
    by Kronecker substitution (`_kronecker_det`): one integer elimination
    at t = 2**w, decoded.  It is cross-checked at the integer points
    t = 0, 1, -1, 2, -2, ... (degree bound + 1 of them): the integer rows
    evaluated there give integer matrices whose determinants must equal
    the Z[t] determinant's values.  Those matrices all have the nonzero
    pattern of m, so the rows are permuted once into the order of its
    `_elimination_plan`; then, a group of points at a time, each distinct
    entry is evaluated at all of them in one Horner pass and
    `_batched_dets` eliminates them together in that order, with the
    planned diagonal pivots, where `_kronecker_det`'s `_fraction_free`
    searches for its pivots and swaps rows.  A determinant of degree above
    the bound, which the points could not prove, or a disagreement means a
    bug and raises RuntimeError.
    """
    if not m.is_square():
        raise NotSquareError(f"{m.nrows}x{m.ncols} polynomial matrix")
    if m.nrows == 0:
        return Polynomial([1])
    rows = m.ints
    bound = max(sum(max(len(e) for e in row) - 1 for row in rows), 0)
    order = _elimination_plan(m.nrows, [[j for j, e in enumerate(row) if e] for row in rows])
    planned = [[rows[i][j] for j in order] for i in order]
    det = _kronecker_det(planned)
    if len(det) > bound + 1:
        raise RuntimeError("determinant degree above its bound")
    distinct = {e for row in planned for e in row if e}
    points = [(k + 1) // 2 * (1 if k % 2 else -1) for k in range(bound + 1)]
    for lo in range(0, bound + 1, _POINT_GROUP):
        ts = points[lo:lo + _POINT_GROUP]
        values = {e: _zvalues(e, ts) for e in distinct}
        at = [[values[e] if e else None for e in row] for row in planned]
        if _batched_dets(at, len(ts)) != _zvalues(det, ts):
            raise RuntimeError("determinant cross-check failed")
    return Polynomial(det, m.den**m.nrows)


def _kronecker_det(rows) -> list[int]:
    """The determinant of a square matrix over Z[t] by Kronecker
    substitution (von zur Gathen & Gerhard, Modern Computer Algebra, 8.4).

    ``rows`` are integer coefficient rows as in `PolyMatrix.ints`.  Returns
    the determinant's int coefficients, ascending.  Each entry becomes its
    value at t = 2**w, one integer, and `_bareiss_int_det` of those rows is
    D = det(2**w), as evaluation is a ring homomorphism.  The width is
    w = isqrt(H2).bit_length() + 2 for H2 = prod_i sum_j ||a_ij||_1**2,
    ||e||_1 the sum of the absolute coefficients of e, and every
    coefficient c of det has |c| < 2**(w - 1):
    - on |z| = 1, each |a_ij(z)| <= ||a_ij||_1;
    - Hadamard's inequality then gives |det(z)| <= sqrt(H2);
    - Cauchy's estimate bounds every coefficient of det by the largest
      |det(z)| on |z| = 1;
    - so |c| <= isqrt(H2) < 2**(w - 2).
    The signed base-2**w digits of D, each in [-2**(w - 1), 2**(w - 1)),
    are therefore det's coefficients.  H2 = 0 means a zero row: D = 0 and
    det is [].
    """
    distinct = {e for row in rows for e in row}
    norms = {e: sum(map(abs, e)) ** 2 for e in distinct}
    h2 = 1
    for row in rows:
        h2 *= sum([norms[e] for e in row])
    w = isqrt(h2).bit_length() + 2
    packed = {e: sum([c << (w * k) for k, c in enumerate(e)]) for e in distinct}
    d = _bareiss_int_det([[packed[e] for e in row] for row in rows])
    mask, half, full = (1 << w) - 1, 1 << (w - 1), 1 << w
    out = []
    while d:
        c = d & mask
        if c >= half:
            c -= full
        out.append(c)
        d = (d - c) >> w
    return out


@dataclass(frozen=True)
class SmithForm:
    """Invariant polynomials of a polynomial matrix, monic, in divisibility order."""

    invariants: tuple[Polynomial, ...]
    nrows: int
    ncols: int

    @property
    def rank(self) -> int:
        return len(self.invariants)

    def partial_multiplicities(self, value) -> tuple[int, ...]:
        """Positive multiplicities of a rational value across the invariants."""
        out = []
        for inv in self.invariants:
            k = root_multiplicity(inv, value)
            if k:
                out.append(k)
        return tuple(out)


def smith_form(m: PolyMatrix) -> SmithForm:
    """Smith normal form over Q[t], computed by elimination over Z[t].

    Each integer row of m (`PolyMatrix.ints`) is made primitive; entries
    are ascending int coefficient sequences.  Iterative gcd-driven
    diagonalization with row and column operations: the pivot is always the
    lowest-degree nonzero entry of the working submatrix (ties broken by
    position), which makes the reduction deterministic.  An entry e is
    reduced by integer pseudo-division, s*e = q*pivot + r with s > 0
    dividing a power of the pivot's leading coefficient, and its row (or
    column) becomes s*row - q*row_d (or s*col - q*col_d).  That row (or
    column) is then divided by its integer content.  Multiplying a row or
    column by a nonzero rational is multiplying it by a unit of Q[t], so
    taking m's integer rows, the scaling by s and the content division are
    all unimodular over Q[t] and leave the Smith form unchanged; they only
    stop the coefficients from growing.  A pivot that is a nonzero constant c
    ends its step after the row pass: c is a unit of Q[t], so
    [[c, r], [0, B]] is equivalent to diag(c, B), and neither the column
    pass nor the divisibility scan is needed.  The invariants are made
    monic at the end and the divisibility chain is verified before
    returning.
    """
    a = [_zprimitive(list(row)) for row in m.ints]
    nr, nc = m.nrows, m.ncols
    limit = min(nr, nc)
    d = 0
    while d < limit:
        while True:
            piv = None
            best = None
            for i in range(d, nr):
                row = a[i]
                for j in range(d, nc):
                    e = row[j]
                    if e and (best is None or len(e) < best):
                        best = len(e)
                        piv = (i, j)
            if piv is None:
                break
            pi, pj = piv
            if pi != d:
                a[d], a[pi] = a[pi], a[d]
            if pj != d:
                for row in a:
                    row[d], row[pj] = row[pj], row[d]
            rowd = a[d]
            pivot = rowd[d]
            dirty = False
            for i in range(d + 1, nr):
                rowi = a[i]
                if rowi[d]:
                    s, q, rowi[d] = _zpseudo_divmod(rowi[d], pivot)
                    for j in range(d + 1, nc):
                        x = _zscale(rowi[j], s)
                        rowi[j] = _zsub(x, _zmul(q, rowd[j])) if rowd[j] else x
                    rowi[d:] = _zprimitive(rowi[d:])
                    if rowi[d]:
                        dirty = True
            if dirty:
                continue
            if len(pivot) == 1:
                # a constant pivot is a unit of Q[t]: [[c, r], [0, B]] is
                # equivalent to diag(c, B), so row d needs no clearing
                break
            # column d is now zero below the pivot, so s*col_j - q*col_d
            # changes row d's entry to r and scales the rest of column j by s
            for j in range(d + 1, nc):
                if rowd[j]:
                    s, _, r = _zpseudo_divmod(rowd[j], pivot)
                    col = [r] + [_zscale(a[i][j], s) for i in range(d + 1, nr)]
                    for i, e in enumerate(_zprimitive(col), d):
                        a[i][j] = e
                    if rowd[j]:
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(d + 1, nr):
                for j in range(d + 1, nc):
                    e = a[i][j]
                    if e and _zpseudo_divmod(e, pivot)[2]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[d] = [_zsub(x, _zscale(y, -1)) for x, y in zip(a[d], a[offender])]
        if not a[d][d]:
            break
        d += 1
    invariants = tuple(Polynomial(a[i][i], a[i][i][-1]) for i in range(d))
    for s, t in zip(invariants, invariants[1:]):
        if not s.divides(t):
            raise RuntimeError("invariant factors do not form a divisibility chain")
    return SmithForm(invariants, nr, nc)


def _local_partials(m: PolyMatrix, lam: Fraction, order: int) -> tuple[int, ...]:
    """Partial multiplicities of the rational value lam = p/q, each below
    ``order``, for a square polynomial matrix m with nonzero determinant.

    They are local invariants: the exponents of s = t - lam in the Smith
    form of m over the polynomials in s with nonzero constant term, whose
    units are exactly those polynomials (Gohberg, Lancaster & Rodman,
    Matrix Polynomials, 1982, ch. S1).  Working modulo s**order, one
    elimination finds them.  Each entry e of the integer rows of m
    (`PolyMatrix.ints`) becomes q**grade * e(lam + s), by Horner's rule in
    p + q*s, truncated below s**order.  Each step takes the entry of lowest s-order k, ties broken
    by position, and its unit part u = entry / s**k; every other row
    becomes u*row_i - (e_i / s**k)*row_d mod s**order, with e_i its entry
    in the pivot column, and is divided by its integer content.  The pivot
    column is then zero off the pivot, so column operations would clear the
    pivot row while scaling the other columns by u, a unit: the pivot's
    row and column are dropped and k is recorded when positive.  Pivots
    never drop in s-order, so the result is ascending.

    A block that is zero modulo s**order means a partial multiplicity of
    at least ``order`` and raises RuntimeError.
    """
    p, q = lam.numerator, lam.denominator
    grade = m.grade
    qpow = [q**j for j in range(grade + 1)]

    def truncated(v):
        v = v[:order]
        while v and not v[-1]:
            v.pop()
        return v

    def shifted(e):
        # sum_j c_j q**(grade - j) (p + q s)**j, highest j first
        v = []
        for j in range(len(e) - 1, -1, -1):
            v = _zmul(v, (p, q)) or [0]
            v[0] += e[j] * qpow[grade - j]
            v = truncated(v)
        return v

    rows = [_zprimitive([shifted(e) if e else e for e in row]) for row in m.ints]
    partials = []
    while rows:
        best = None
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                if e:
                    k = 0
                    while not e[k]:
                        k += 1
                    if best is None or k < best[0]:
                        best = (k, i, j)
                        if not k:
                            break
            if best is not None and not best[0]:
                break
        if best is None:
            raise RuntimeError("a partial multiplicity reaches the truncation order")
        k, d, c = best
        rowd = rows.pop(d)
        u = rowd.pop(c)[k:]
        for i, row in enumerate(rows):
            e = row.pop(c)
            if e:
                f = e[k:]
                rows[i] = _zprimitive([truncated(_zsub(_zmul(u, x), _zmul(f, y)))
                                       for x, y in zip(row, rowd)])
        if k:
            partials.append(k)
    return tuple(partials)
