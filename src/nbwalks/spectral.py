"""Certified spectral radius of nonnegative rational matrices.

The radius is bracketed by exact Collatz-Wielandt quotients: for any
entrywise positive x and irreducible nonnegative M,

    min_i (Mx)_i / x_i  <=  rho(M)  <=  max_i (Mx)_i / x_i.

Every exact step reads sparse integer rows (columns, entries) over one
denominator: those of a `Matrix`'s nonzeros over `Matrix.den`
(`exact._nonzero_rows`), or the edge transfer rows as
`EdgeSpace.transfer_rows` reads them off the arc arrays.  The sign check,
the support graph, the blocks and the quotients all read those rows, and
the quotients are compared by cross-multiplication so that only the two
bounds become Fractions.
Floating point is only used to find a good starting vector, by a power
iteration over the nonzeros of each row, run in column passes over the rows
sorted longest first so that each row still sums left to right.  The float
step is a fixed function of the iterate, so the loop stops at its first
repeated iterate, of any period, and returns the iterate the full run would
end on.  Its entries are rationalized by an integer continued fraction
(`_limit`, equal to ``Fraction.limit_denominator(10**15)``) straight to the
integer vector the quotients read; the reported bounds are rational and
rigorous.

A block with an entry a float cannot hold, or a row sum that overflows
one, or whose bracket at the float vector is still too wide (a root far
from 1 makes the float step's shift by the identity negligible), is
balanced by powers of two: a diagonal similarity and a scale, both exact,
give a block with root near 1 whose float vector floats can find.  From
there, exact power steps shifted by the current upper bound tighten the
bracket at a rate that does not depend on the size of the root.  Reducible
matrices are split into the strongly connected blocks of their support
graph and the radius is the maximum over blocks, which also avoids zero
divisions on transient states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import add, mul

from .errors import IterationBudgetExceededError, NegativeEntryError
from .exact import Matrix, _clear_denominators, _nonzero_rows, _tarjan_sccs

_ZERO = Fraction(0)
_FLOOR = Fraction(1, 10**18)  # least entry of a rational iterate
_FLOOR_RATIO = _FLOOR.as_integer_ratio()

DEFAULT_TOL = Fraction(1, 10**12)
DEFAULT_ITERATIONS = 10**5


@dataclass(frozen=True)
class PerronResult:
    """Certified bracket around the Perron root."""

    lower: Fraction
    upper: Fraction
    nilpotent: bool
    iterations: int

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


def _left_sum(values) -> float:
    """The float sum of values, added one by one from 0.0, left to right.

    Since Python 3.12 the built-in ``sum`` adds floats with compensated
    summation, so its last bits, and with them the start vector and the
    certified brackets, would depend on the Python version.  Every float
    reduction in the package is this fold instead (the power step adds its
    products in column passes, which keeps each row's order), which gives
    the same floats as ``sum`` before 3.12 on every version.
    """
    return reduce(add, values, 0.0)


def _floats(block, den):
    """The sparse integer rows over den as (columns, floats) rows.  int / int
    rounds correctly, so each float is that of the Fraction entry."""
    return [(ks, [b / den for b in bs]) for ks, bs in block]


def _float_rows(block, den):
    """The block in floats, or None when an entry overflows a float, a
    nonzero entry underflows to 0, or a row sum plus 1 overflows (a power
    step on a vector of entries at most 1 would then reach infinity)."""
    try:
        rows = _floats(block, den)
    except OverflowError:
        return None
    fits = all(all(fs) and math.isfinite(_left_sum(fs) + 1.0) for _, fs in rows)
    return rows if fits else None


def _float_power_vector(rows, iterations=400):
    """Approximate Perron vector of M + I in floating point: the iterate
    after `iterations` normalised steps from all ones, for the rows of M
    as (columns, floats) pairs.

    Each step sums over the nonzeros of a row only, left to right from 0.0:
    the skipped terms are 0.0 * x[k] = 0.0 with x finite and nonnegative,
    and adding them leaves a float sum unchanged, so every iterate is the
    one of the dense step.  The step runs in column passes over the rows
    sorted longest first: pass j adds the j-th product of each row that has
    one, pass 0 starting from the product itself (0.0 + p == p for p >= 0),
    and x_i comes last, so each row still sums left to right.  The step is
    a fixed function of x, so once iterate k equals an earlier iterate j
    the iterates repeat with period k - j, and the loop returns iterate
    j + (iterations - j) mod (k - j), which is the last one.
    """
    n = len(rows)
    order = sorted(range(n), key=lambda i: -len(rows[i][0]))
    where = [0] * n
    for r, i in enumerate(order):
        where[i] = r
    # pass j: the j-th floats and renumbered columns of the rows that have
    # a j-th product, which come first in this order
    ranked = [rows[i] for i in order]
    passes = []
    for j in range(len(ranked[0][0]) if n else 0):
        have = [(ks, fs) for ks, fs in ranked if len(ks) > j]
        passes.append(([fs[j] for _, fs in have], [where[ks[j]] for ks, _ in have]))
    empty = [0.0] * (n - len(passes[0][0]) if passes else n)  # rows with no product
    x = [1.0] * n
    seen = {}
    history = []
    for k in range(iterations):
        j = seen.setdefault(tuple(x), k)
        if j != k:
            x = history[j + (iterations - j) % (k - j)]
            break
        history.append(x)
        get = x.__getitem__
        y = []
        for fs, ks in passes:
            terms = map(mul, fs, map(get, ks))
            y[:len(fs)] = map(add, y, terms) if y else terms
        y = list(map(add, y + empty, x))
        top = max(y)
        x = [v / top for v in y]
    return [x[r] for r in where]


_MAX_DEN = 10**15  # of a rationalized start vector entry


def _limit(n: int, d: int) -> tuple[int, int]:
    """``Fraction(n, d).limit_denominator(10**15)`` as (numerator,
    denominator), in lowest terms, for n >= 0 and d > 0 coprime.

    The continued fraction of n/d runs until the next convergent's
    denominator passes the bound; of the last convergent p1/q1 and the
    semiconvergent (p0 + k p1)/(q0 + k q1) with the largest denominator in
    bound, the closer one wins, the convergent on a tie, as in the stdlib.
    """
    if d <= _MAX_DEN:
        return n, d
    whole = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > _MAX_DEN:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (_MAX_DEN - q0) // q1
    # the distance between the two is 1/(q1 (q0 + k q1)), and that from the
    # convergent to n/d is d/(q1 whole)
    if 2 * d * (q0 + k * q1) <= whole:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _start_vector(rows) -> list[int]:
    """The float Perron vector rationalized, clamped positive (an entry
    that rationalizes to 0 becomes _FLOOR), as integers over their least
    common denominator."""
    ratios = [_limit(*v.as_integer_ratio()) for v in _float_power_vector(rows)]
    ratios = [(p, q) if p else _FLOOR_RATIO for p, q in ratios]
    den = math.lcm(*[q for _, q in ratios])
    return [p * (den // q) for p, q in ratios]


def _log2_sum(values):
    top = max(values)
    return top + math.log2(_left_sum(2.0 ** (v - top) for v in values))


def _balancing_exponents(block, den, iterations=400):
    """Integers s and d_i such that diag(2**-d) B diag(2**d) / 2**s has
    Perron root near 1 and Perron vector near all ones, for B the sparse
    integer rows block over den.

    Power iteration on base-2 logarithms, which no entry overflows: first
    unshifted, averaging the growth per step for log2 of the root, then
    shifted by the identity on B / 2**s for log2 of the vector.
    """
    rows = []
    for ks, bs in block:
        # each entry in lowest terms, so that its logarithm does not depend
        # on the denominator the block is written over
        entries = [Fraction(b, den) for b in bs]
        rows.append([(k, math.log2(x.numerator) - math.log2(x.denominator))
                     for k, x in zip(ks, entries)])
    x = [0.0] * len(rows)
    growth = 0.0
    for _ in range(iterations):
        y = [_log2_sum([a + x[j] for j, a in row]) for row in rows]
        top = max(y)
        growth += top
        x = [v - top for v in y]
    s = round(growth / iterations)
    for _ in range(iterations):
        y = [_log2_sum([a - s + x[j] for j, a in row] + [x[i]])
             for i, row in enumerate(rows)]
        top = max(y)
        x = [v - top for v in y]
    return s, [round(v) for v in x]


def _balanced(block, den):
    """A block similar to block / 2**s with root near 1, as sparse integer
    rows over a new denominator; returns (rows, denominator, 2**s).  Its
    entries are at most a few units; what still underflows a float is
    negligible."""
    s, d = _balancing_exponents(block, den)
    e = max(0, max(d[i] - d[k] + s for i, (ks, _) in enumerate(block) for k in ks))
    rows = [(ks, [b << (d[k] - d[i] - s + e) for k, b in zip(ks, bs)])
            for i, (ks, bs) in enumerate(block)]
    return rows, den << e, Fraction(2)**s


def _collatz_wielandt(block, xs):
    """The least and greatest (B xs)_i / xs_i, and B xs, for the sparse
    integer rows B and a positive integer vector xs."""
    y = [sum(map(mul, bs, map(xs.__getitem__, ks))) for ks, bs in block]
    lo = hi = 0
    for i in range(1, len(y)):
        if y[i] * xs[lo] < y[lo] * xs[i]:
            lo = i
        elif y[i] * xs[hi] > y[hi] * xs[i]:
            hi = i
    return Fraction(y[lo], xs[lo]), Fraction(y[hi], xs[hi]), y


def _block_radius(block, den, tol, budget):
    """Certified bracket for one irreducible block, given as sparse integer
    rows (columns, entries) standing for each entry / den.

    The float vector of the block itself comes first.  When the block is
    out of float range, or the bracket at that vector is wider than
    tol * max(1, upper), the balanced block gives a new vector, and exact
    power steps from there tighten the bracket; only those steps count as
    iterations.
    """
    rows = _float_rows(block, den)
    if rows is not None:
        lo, hi, _ = _collatz_wielandt(block, _start_vector(rows))
        lo, hi = lo / den, hi / den
        if hi - lo <= tol * max(1, hi):
            return lo, hi, 0
    block, den, unit = _balanced(block, den)
    scale = unit / den  # from the balanced block's units to the given block's
    xs = _start_vector(_floats(block, den))
    iterations = 0
    lo_best, hi_best = _ZERO, None
    while True:
        lo, hi, y = _collatz_wielandt(block, xs)
        lo, hi = lo * scale, hi * scale
        if hi_best is None or hi < hi_best:
            hi_best = hi
        if lo > lo_best:
            lo_best = lo
        if hi_best - lo_best <= tol * max(1, hi_best):
            return lo_best, hi_best, iterations
        iterations += 1
        if iterations > budget:
            raise IterationBudgetExceededError(
                f"bracket width {float(hi_best - lo_best)} after {budget} iterations"
            )
        # shifted by the upper bound, so that periodic blocks converge at a
        # rate that does not depend on the size of their root
        shift = hi_best / scale
        z = [shift.denominator * v + shift.numerator * w for v, w in zip(y, xs)]
        top = max(z)
        x = [max(Fraction(v, top).limit_denominator(10**30), _FLOOR) for v in z]
        xs, _ = _clear_denominators(x)


def perron_radius(m, tol=DEFAULT_TOL, budget=DEFAULT_ITERATIONS) -> PerronResult:
    """Certified Perron radius of a nonnegative square matrix, given as a
    `Matrix` or as sparse integer rows over one denominator, the pair
    (rows, den) of `EdgeSpace.transfer_rows`; a `Matrix` is read as those
    rows (`exact._nonzero_rows`).

    Nilpotent support gives rho = 0 exactly.  Otherwise the support graph is
    split into strongly connected blocks; each block gets exact
    Collatz-Wielandt brackets tightened by shifted power iteration, and the
    result is the blockwise maximum.  The relative bracket width ``tol``
    must be positive.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rows, den = (_nonzero_rows(m.ints, m.ncols), m.den) if isinstance(m, Matrix) else m
    if min(chain.from_iterable(xs for _, xs in rows), default=0) < 0:
        raise NegativeEntryError("matrix must be entrywise nonnegative")
    lo_all, hi_all = _ZERO, _ZERO
    iterations = 0
    trivial = True
    for verts in _tarjan_sccs(len(rows), [cols for cols, _ in rows]):
        if len(verts) == 1:
            v = verts[0]
            cols, xs = rows[v]
            d = next((x for k, x in zip(cols, xs) if k == v), 0)
            if d:
                trivial = False
                d = Fraction(d, den)
                lo_all = max(lo_all, d)
                hi_all = max(hi_all, d)
            continue
        trivial = False
        local = {v: i for i, v in enumerate(verts)}
        block = []
        for v in verts:
            pairs = [(local[k], x) for k, x in zip(*rows[v]) if k in local]
            block.append(([k for k, _ in pairs], [x for _, x in pairs]))
        lo, hi, its = _block_radius(block, den, tol, budget)
        iterations += its
        lo_all = max(lo_all, lo)
        hi_all = max(hi_all, hi)
    if trivial:
        return PerronResult(_ZERO, _ZERO, True, 0)
    return PerronResult(lo_all, hi_all, False, iterations)
