"""Certified spectral radius of nonnegative rational matrices.

The radius is bracketed by exact Collatz-Wielandt quotients: for any
entrywise positive x and irreducible nonnegative M,

    min_i (Mx)_i / x_i  <=  rho(M)  <=  max_i (Mx)_i / x_i.

Floating point is only used to find a good starting vector, by a power
iteration over the nonzeros of each row that stops at its first exact
repeat; the reported bounds are rational and rigorous.  A block with an
entry a float cannot hold, or a row sum that overflows one, is first
balanced by powers of two (a diagonal similarity and a scale, both exact)
so that floats can find its vector.  Reducible matrices are
split into the strongly connected blocks of their support graph and the
radius is the maximum over blocks, which also avoids zero divisions on
transient states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add

from .errors import IterationBudgetExceededError, NegativeEntryError
from .exact import Matrix
from .graphs import _tarjan_sccs

_ZERO = Fraction(0)
_ONE = Fraction(1)

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
    reduction in the package goes through this fold instead, which gives
    the same floats as ``sum`` before 3.12 on every version.
    """
    return reduce(add, values, 0.0)


def _check_nonnegative(m: Matrix) -> None:
    for row in m.data:
        for x in row:
            if x < 0:
                raise NegativeEntryError("matrix must be entrywise nonnegative")


def _blocks(m: Matrix) -> list[list[int]]:
    """Strongly connected blocks of the support digraph of a nonnegative m."""
    _check_nonnegative(m)
    n = m.nrows
    return _tarjan_sccs(n, [[j for j in range(n) if m.data[i][j]] for i in range(n)])


def is_nilpotent(m: Matrix) -> bool:
    """True when the support digraph of a nonnegative matrix is acyclic."""
    return all(len(b) == 1 and not m.data[b[0]][b[0]] for b in _blocks(m))


def _float_rows(block):
    """The block in floats, or None when an entry overflows a float, a
    nonzero entry underflows to 0, or a row sum plus 1 overflows (a power
    step on a vector of entries at most 1 would then reach infinity)."""
    try:
        fm = [[float(x) for x in row] for row in block]
    except OverflowError:
        return None
    fits = all(f or not x for row, frow in zip(block, fm) for x, f in zip(row, frow))
    return fm if fits and all(math.isfinite(_left_sum(row) + 1.0) for row in fm) else None


def _float_power_vector(fm, iterations=400):
    """Approximate Perron vector of fm + I in floating point.

    Each step sums over the nonzeros of a row only: the skipped terms are
    0.0 * x[k] = 0.0 with x finite and nonnegative, and adding them leaves a
    float sum unchanged, so every iterate is the one of the dense step.  An
    iterate equal to the previous one is a fixed point of the step, so the
    loop returns it at once: the remaining steps would only repeat it.
    """
    n = len(fm)
    rows = [[(k, f) for k, f in enumerate(row) if f] for row in fm]
    x = [1.0] * n
    for _ in range(iterations):
        y = [_left_sum(f * x[k] for k, f in row) + x[i] for i, row in enumerate(rows)]
        top = max(y)
        if top == 0:
            return [1.0] * n
        y = [v / top for v in y]
        if y == x:
            return x
        x = y
    return x


def _log2_sum(values):
    top = max(values)
    return top + math.log2(_left_sum(2.0 ** (v - top) for v in values))


def _balancing_exponents(block, iterations=400):
    """Integers s and d_i such that diag(2**-d) block diag(2**d) / 2**s has
    Perron root near 1 and Perron vector near all ones.

    Power iteration on base-2 logarithms, which no entry overflows: first
    unshifted, averaging the growth per step for log2 of the root, then
    shifted by the identity on block / 2**s for log2 of the vector.
    """
    rows = [
        [(j, math.log2(x.numerator) - math.log2(x.denominator))
         for j, x in enumerate(row) if x]
        for row in block
    ]
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


def _block_radius(block, tol, budget):
    """Certified bracket for one irreducible block given as Fraction rows."""
    n = len(block)
    if n == 1:
        d = block[0][0]
        return d, d, 0
    fm = _float_rows(block)
    scale = _ONE
    if fm is None:
        # iterate on a similar block with the same Perron root over 2**s,
        # whose entries are at most a few units (what still underflows is
        # negligible); the unit 2**-s below keeps the stopping rule
        # tol * max(1, upper) of the given block
        s, d = _balancing_exponents(block)
        two = Fraction(2)
        scale = two**s
        block = [
            [x * two ** (d[j] - d[i] - s) if x else x for j, x in enumerate(row)]
            for i, row in enumerate(block)
        ]
        fm = [[float(x) for x in row] for row in block]
    unit = 1 / scale

    # starting vector: rationalized float Perron vector, clamped positive
    approx = _float_power_vector(fm)
    floor = Fraction(1, 10**18)
    x = []
    for v in approx:
        f = Fraction(v).limit_denominator(10**15)
        x.append(f if f > 0 else floor)

    support = [[(k, a) for k, a in enumerate(row) if a] for row in block]
    iterations = 0
    lo_best, hi_best = _ZERO, None
    while True:
        y = [sum((a * x[k] for k, a in row), _ZERO) for row in support]
        ratios = [y[i] / x[i] for i in range(n)]
        lo = min(ratios)
        hi = max(ratios)
        if hi_best is None or hi < hi_best:
            hi_best = hi
        if lo > lo_best:
            lo_best = lo
        if hi_best - lo_best <= tol * max(unit, hi_best):
            return lo_best * scale, hi_best * scale, iterations
        iterations += 1
        if iterations > budget:
            raise IterationBudgetExceededError(
                f"bracket width {float(hi_best - lo_best)} after {budget} iterations"
            )
        # shifted step keeps periodic blocks converging
        top = max(y[i] + x[i] for i in range(n))
        x = [
            max(((y[i] + x[i]) / top).limit_denominator(10**30), floor)
            for i in range(n)
        ]


def perron_radius(m: Matrix, tol=DEFAULT_TOL, budget=DEFAULT_ITERATIONS) -> PerronResult:
    """Certified Perron radius of a nonnegative square matrix.

    Nilpotent support gives rho = 0 exactly.  Otherwise the support graph is
    split into strongly connected blocks; each block gets exact
    Collatz-Wielandt brackets tightened by shifted power iteration, and the
    result is the blockwise maximum.
    """
    lo_all, hi_all = _ZERO, _ZERO
    iterations = 0
    trivial = True
    for verts in _blocks(m):
        if len(verts) == 1:
            v = verts[0]
            d = m.data[v][v]
            if d:
                trivial = False
                lo_all = max(lo_all, d)
                hi_all = max(hi_all, d)
            continue
        trivial = False
        sub = [[m.data[i][j] for j in verts] for i in verts]
        lo, hi, its = _block_radius(sub, tol, budget)
        iterations += its
        lo_all = max(lo_all, lo)
        hi_all = max(hi_all, hi)
    if trivial:
        return PerronResult(_ZERO, _ZERO, True, 0)
    return PerronResult(lo_all, hi_all, False, iterations)
