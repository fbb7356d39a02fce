"""Walk counting by independent routes, generating-function evaluation, and
walk-sum centrality.

Three ways to produce the same tables:

* brute-force enumeration with last-edge memory (the oracle),
* the linear recurrence read off the deformed-Laplacian generating function,
* powers of the Hashimoto matrix sandwiched by the incidence factors.

Plain non-backtracking walks are the omega = 0 (tau = 1 - omega = 1) case of
backtrack-downweighted walks, and weighted walks their weighted form, so
the oracle, the recurrence and the generating function each have one
implementation over omega or tau, and the plain names are thin wrappers
of it.

Tables are exact rational matrices, each integer rows over one
denominator: q**k for the recurrence, L**(2k) for the oracle, which
multiplies integer walk weights scaled by the common denominator L of the
weights and omega, and ell**k for the Hashimoto powers, sparse integer
products with the edge transfer rows `EdgeSpace.transfer_rows` (weights
cleared to the denominator ell), which build no dense edge matrix.
`walk_table` selects a route, and `walk_tables_float` is the table it
selects with each exact entry rounded once to the nearest float, table by
table as the route yields them: an output format, not another algorithm.
Enumeration is metered: every edge extension taken counts against a budget
so pathological inputs fail loudly instead of hanging, and a depth's table
is only allocated once the search reaches it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .convergence import radius_btdw, radius_unweighted, radius_weighted
from .errors import (
    AboveRadiusError,
    EnumerationBudgetExceededError,
    FloatRangeError,
    OmegaOutOfRangeError,
    PoleAtTError,
)
from .exact import Matrix, _clear_denominators, _int_product
from .graphs import Graph
from .laplacians import _deformed_laplacian
from .spectral import perron_radius

DEFAULT_BUDGET = 10**8

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class WalkTable:
    """Walk-weight matrices per length, from length 0 up to kmax."""

    kind: str  # "nbtw" | "btdw"
    kmax: int
    tables: tuple[Matrix, ...]
    method: str  # "oracle" | "recurrence" | "edgepower"
    omega: Fraction | None = None


def _require_length(kmax: int) -> None:
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")


def _enumerate(g: Graph, kmax: int, omega: Fraction, budget) -> tuple[Matrix, ...]:
    """Depth-first over all walks remembering the previous vertex; a walk
    weighs the product of its edge weights times omega per backtrack.

    Weights run on integers: the edge weights, omega and 1 are cleared to
    one denominator L, and each step multiplies the walk's integer weight
    by w L times omega L if it backtracks, or times L if not.  A walk of
    length d then carries L**(2d) times its weight, and depth d's table is
    its integer rows over L**(2d) (L = 1 on unit graphs at omega = 0).

    Every step taken counts against the budget; a step whose weight is 0
    (a backtrack at omega = 0) is never taken and costs nothing.  A depth's
    table is allocated when the search first reaches that depth, so a run
    that exhausts its budget early costs little memory at any kmax; the
    depths never reached share one zero matrix.
    """
    left = DEFAULT_BUDGET if budget is None else int(budget)
    out = g.out_neighbors()
    wmap = g.weight_map()
    n = g.n
    arcs = [(v, w) for v in range(n) for w in out[v]]
    ints, den = _clear_denominators([wmap[arc] for arc in arcs] + [omega, _ONE])
    back = ints[-2]
    steps = [[] for _ in range(n)]
    for (v, w), x in zip(arcs, ints):
        steps[v].append((w, x * den, x * back))
    tables = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for start in range(n):
        stack = [(start, -1, 0, 1)]
        while stack:
            v, prev, depth, weight = stack.pop()
            if depth == kmax:
                continue
            depth += 1
            for w, forward, backtrack in steps[v]:
                factor = backtrack if w == prev else forward
                if not factor:
                    continue
                left -= 1
                if left < 0:
                    raise EnumerationBudgetExceededError(
                        "walk enumeration exceeded its budget; raise it explicitly "
                        "or use the recurrence method"
                    )
                if depth == len(tables):
                    tables.append([[0] * n for _ in range(n)])
                nw = weight * factor
                tables[depth][start][w] += nw
                stack.append((w, v, depth, nw))
    unreached = (Matrix.zeros(n, n),) * (kmax + 1 - len(tables))
    return tuple(Matrix(rows, den ** (2 * d)) for d, rows in enumerate(tables)) + unreached


def _omega_fraction(omega) -> Fraction:
    omega = Fraction(omega)
    if not 0 <= omega <= 1:
        raise OmegaOutOfRangeError(f"omega={omega} outside [0, 1]")
    return omega


def enumerate_nbtw(g: Graph, kmax: int, budget=None) -> WalkTable:
    """Brute-force non-backtracking walk sums up to length kmax; weighted
    graphs contribute the product of edge weights."""
    _require_length(kmax)
    return WalkTable("nbtw", kmax, _enumerate(g, kmax, _ZERO, budget), "oracle")


def enumerate_btdw(g: Graph, kmax: int, omega, budget=None) -> WalkTable:
    """Brute-force backtrack-downweighted walks: every walk counts, scaled
    by omega to the power of its backtrack count."""
    g.require_unweighted("enumerate_btdw")
    omega = _omega_fraction(omega)
    _require_length(kmax)
    tables = _enumerate(g, kmax, omega, budget)
    return WalkTable("btdw", kmax, tables, "oracle", omega=omega)


def _recurrence(g: Graph, kmax: int, tau: Fraction) -> Iterator[Matrix]:
    """Walk tables p_k from M_tau(t) * sum_k p_k t**k = (1 - tau**2 t**2) I,
    yielded one at a time, k = 0 to kmax.

    With M_tau = I - A t + c2 t**2 + c3 t**3, reading off t**k gives
    p_0 = I, p_1 = A, p_2 = A**2 - c2 - tau**2 I, and
    p_k = A p_{k-1} - c2 p_{k-2} - c3 p_{k-3} from k = 3 on.

    The recurrence runs on the integers P_k = q**k p_k, with q the lcm of
    tau**2's denominator and that of the integer rows of M_tau
    (`PolyMatrix.den`, 1 at tau = 1 on unit graphs):
    P_k = sum_j (q**j (-c_j)) P_{k-j}, less q**2 tau**2 I at k = 2.  Each
    step is one sparse product of the stacked rows [q (-c_1) | q**2 (-c_2) |
    ...] with [P_{k-1}; P_{k-2}; ...], and table k is P_k over q**k.
    """
    m = _deformed_laplacian(g, tau)
    grade, n, den = m.grade, g.n, m.den
    tau2 = tau * tau
    entries = [[(col, cs) for col, cs in enumerate(row) if cs] for row in m.ints]
    q = lcm(tau2.denominator, den)
    q2tau2 = q * q * tau2.numerator // tau2.denominator
    # row i of [q (-c_1) | q**2 (-c_2) | ...]: column (j - 1) n + col
    # multiplies row col of P_(k-j) in the stacked right factor
    stacked = [
        [((j - 1) * n + col, -cs[j] * q**j // den)
         for j in range(1, grade + 1) for col, cs in row if j < len(cs) and cs[j]]
        for row in entries
    ]
    # lefts[d - 1]: the first d terms, for step k with d = min(k, grade),
    # as (columns, entries) rows
    lefts = [[([col for col, _ in row if col < d * n], [x for col, x in row if col < d * n])
              for row in stacked]
             for d in range(1, grade + 1)]
    window = [[[int(i == j) for j in range(n)] for i in range(n)]]
    yield Matrix(window[0], 1)
    for k in range(1, kmax + 1):
        d = min(k, len(lefts))
        right = [row for p in reversed(window[-d:]) for row in p]
        nxt = _int_product(lefts[d - 1], right, n)
        if k == 2:
            for i in range(n):
                nxt[i][i] -= q2tau2
        window.append(nxt)
        del window[:-grade]
        yield Matrix(nxt, q**k)


def nbtw_recurrence(g: Graph, kmax: int) -> WalkTable:
    """Non-backtracking walk tables from the third-order matrix recurrence,
    the tau = 1 case: p_k = A p_{k-1} - (D - I) p_{k-2} - (A - S) p_{k-3}."""
    _require_length(kmax)
    g.require_unweighted("nbtw_recurrence")
    return walk_table(g, kmax)


def btdw_recurrence(g: Graph, kmax: int, omega) -> WalkTable:
    """Backtrack-downweighted tables at tau = 1 - omega; omega = 1 gives
    plain adjacency powers and omega = 0 the non-backtracking tables."""
    return walk_table(g, kmax, omega)


def weighted_nbtw(g: Graph, kmax: int) -> WalkTable:
    """Non-backtracking tables through Hashimoto powers; works for weighted
    and unweighted graphs alike (`_hashimoto_powers`)."""
    return walk_table(g, kmax, method="edgepower")


def _hashimoto_powers(g: Graph, kmax: int) -> Iterator[Matrix]:
    """p_k = L.T Z (B Z)**(k-1) R for k >= 1, yielded one at a time from
    p_0 = I, on integers like `_recurrence`.

    With z = ell w the weights cleared to integers, B z is the transfer rows
    at tau = 1 (`EdgeSpace.transfer_rows`) and the rows of L.T z are read
    off the tails.  The carriers C_k = (B z)**k R start from the 0/1 rows
    of R (`EdgeSpace.target`), and each step is one sparse product: P_k = (L.T z) C_(k-1) and
    C_k = (B z) C_(k-1).  Table k is P_k over ell**k.
    """
    es = g.edge_space
    n = g.n
    step, ell = es.transfer_rows()
    z = es.cleared_weights[0]
    lt_z = [([], []) for _ in range(n)]
    for e, u in enumerate(es.tails):
        lt_z[u][0].append(e)
        lt_z[u][1].append(z[e])
    carrier = es.target.ints
    yield Matrix.identity(n)
    for k in range(1, kmax + 1):
        yield Matrix(_int_product(lt_z, carrier, n), ell**k, n)
        if k < kmax:
            carrier = _int_product(step, carrier, n)


def generating_function_eval(g: Graph, t, mode: str, omega=None) -> Matrix:
    """Exact value of the walk generating function Phi(t) at a rational
    point; see `_generating_function_times`, here with the identity as
    right-hand side."""
    return _generating_function_times(g, Fraction(t), mode, omega, Matrix.identity(g.n))


def _family_tau(g: Graph, mode: str, omega, nbtw_op: str, btdw_op: str) -> Fraction:
    """The tau of a mode's walk family: 1 for "nbtw" and "weighted", 1 - omega
    for "btdw", the one mode that takes omega.  Refuses a missing or out-of-range
    omega, and weighted graphs as nbtw_op and btdw_op (at tau > 0) do."""
    if mode in ("nbtw", "weighted"):
        if omega is not None:
            raise ValueError("omega applies to btdw mode only")
        if mode == "nbtw":
            g.require_unweighted(nbtw_op)
        return _ONE
    if mode != "btdw":
        raise ValueError(f"unknown mode {mode!r}")
    if omega is None:
        raise ValueError("btdw mode needs omega")
    tau = 1 - _omega_fraction(omega)
    if tau:
        g.require_unweighted(btdw_op)
    return tau


def _generating_function_times(g: Graph, t: Fraction, mode: str, omega, rhs: Matrix) -> Matrix:
    """Phi(t) @ rhs by one exact solve with the columns of rhs as
    right-hand sides.

    Every mode is the resolvent Phi(t) = I + t L.T Z (I - t T Z)**-1 R of
    its transfer matrix T = tau B + (1 - tau) W at the tau of
    `_family_tau`, taken in vertex space as one n-by-n solve
    Phi(t) @ rhs = Y**-1 D rhs (`EdgeSpace.vertex_plan`).  Each row of Y is
    divided, with its scale in D, by their common content first, which
    leaves Y**-1 D as it is and keeps the entries short.  Where
    tau**2 t**2 w w' = 1 on a reciprocal pair, D has a zero entry and
    I + tau t Delta Z is singular, so Woodbury does not apply and the m-by-m
    edge system is solved instead.  Elsewhere det Y is a nonzero multiple
    of det(I - t T Z), so either route's singular system means t is a pole.
    """
    tau = _family_tau(g, mode, omega, "generating_function_eval(mode='nbtw')", "tau_dgl")
    es = g.edge_space
    plan = es.vertex_plan
    rows, scales = plan.rows(t.numerator, t.denominator * plan.ell, tau)
    if all(scales):
        d_rhs = []
        for row, d, xs in zip(rows, scales, rhs.ints):
            c = gcd(d, *row)
            row[:] = [x // c for x in row]
            d_rhs.append([d // c * x for x in xs])
        phi = Matrix(rows, 1).solve(Matrix(d_rhs, rhs.den, rhs.ncols))
    else:
        solved = (Matrix.identity(es.m) - es.transfer(tau).scale(t)).solve(es.target * rhs)
        phi = None if solved is None else rhs + (
            es.source.transpose() * es.weight_diag * solved
        ).scale(t)
    if phi is None:
        raise PoleAtTError(f"t={t} is a pole of the generating function")
    return phi


@dataclass(frozen=True)
class CentralityResult:
    """Row sums of the generating function: total downstream walk weight."""

    t: Fraction
    mode: str
    row_sums: tuple[Fraction, ...]
    converged: bool
    omega: Fraction | None = None
    note: str = "raw row sums of the walk generating function; no normalization"


def _transfer_norm(es, tau) -> Fraction:
    """||T Z||_inf for the family's transfer matrix T = tau B + (1 - tau) W,
    read off the arc arrays in O(m): row e of T Z (`EdgeSpace.transfer_rows`)
    sums the weights leaving the head of e, less tau times the weight of the
    reverse of e.  At tau = 0 this is ||W Z||_inf <= ||A||_inf, and W Z
    shares its nonzero spectrum with A, whose walk series the classical
    mode is certified on."""
    out = [_ZERO] * es.n
    for u, w in zip(es.tails, es.weights):
        out[u] += w
    return max((out[v] - (tau * es.weights[f] if f is not None else 0)
                for v, f in zip(es.heads, es.reverse)), default=_ZERO)


def _certified_below(g: Graph, t: Fraction, mode: str, omega) -> bool:
    """True when t is certified below the radius of the mode's walk series.

    Each mode refuses its graphs and parameters first, as its radius report
    would (`_family_tau`).  Then a certificate that costs O(m): with T Z the
    mode's edge transfer matrix (`_transfer_norm`) and
    N = max(||T Z||_inf, 1), every t with 2 t N <= 1 is accepted without
    the radius report.  The full report accepts each such t as well, so no
    decision changes:

    * rho(T Z) <= ||T Z||_inf <= N, and a Perron upper end is at most
      rho + 1e-12 * max(1, upper), hence below 2 N; so t <= 1 / (2 N) lies
      below 1 / upper, the lower end of the inverse bracket that weighted
      mode, btdw outside the multi-cycle case and tau = 0 (of A) read;
    * the other end of the btdw bracket is 1/tau >= 1 > t;
    * the one-cycle radius is 1 > t, and the all-tree radius is infinite;
    * a multi-cycle radius is the smallest determinant root in
      (0, 1/tau), which is 1/lambda for a real eigenvalue lambda <= rho
      of T, so at least 1/N; its Sturm bracket is at most 1e-12 wide, so
      it starts above 1/N - 1e-12 > 1/(2 N), as N is at most the vertex
      count on the unweighted graphs this case runs on.

    Any other t goes to the full radius report.
    """
    tau = _family_tau(g, mode, omega, "radius_unweighted", "radius_btdw")
    if 2 * t * max(_transfer_norm(g.edge_space, tau), 1) <= 1:
        return True
    if mode == "nbtw":
        return radius_unweighted(g).certifies_below(t)
    if mode == "weighted":
        return radius_weighted(g).certifies_below(t)
    if tau == 0:
        # classical walk series: radius is the reciprocal adjacency radius
        pr = perron_radius(g.adjacency())
        return pr.nilpotent or t < 1 / pr.upper
    return radius_btdw(g, tau).certifies_below(t)


def nbt_katz_centrality(g: Graph, t, mode: str = "nbtw", omega=None) -> CentralityResult:
    """Walk-sum centrality at damping t, certified below the radius.

    Raises AboveRadiusError unless t is provably smaller than the radius of
    convergence for the requested walk family.  The row sums are
    Phi(t) @ 1, one solve with a single right-hand side.
    """
    t = Fraction(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t > 0 and not _certified_below(g, t, mode, omega):
        raise AboveRadiusError(
            f"t={t} is not certifiably below the radius of convergence"
        )
    ones = Matrix([[1]] * g.n, 1, 1)
    col = _generating_function_times(g, t, mode, omega, ones)
    sums = tuple(Fraction(x, col.den) for (x,) in col.ints)
    return CentralityResult(
        t=t,
        mode=mode,
        row_sums=sums,
        converged=True,
        omega=None if omega is None else Fraction(omega),
    )


def _route(g: Graph, kmax: int, omega, method: str, budget):
    """The route `walk_table` selects, after its checks, as (kind, method,
    omega, tables): the recurrence and the Hashimoto powers yield their
    tables one at a time as they reach them, the oracle's come whole."""
    if method == "oracle":
        table = (enumerate_nbtw(g, kmax, budget=budget) if omega is None
                 else enumerate_btdw(g, kmax, omega, budget=budget))
        return table.kind, method, table.omega, table.tables
    if method not in ("recurrence", "edgepower"):
        raise ValueError(f"unknown method {method!r}")
    if omega is not None and method == "edgepower":
        raise ValueError("edgepower method applies to plain walks only")
    _require_length(kmax)
    if omega is not None:
        g.require_unweighted("btdw_recurrence")
        omega = _omega_fraction(omega)
        return "btdw", method, omega, _recurrence(g, kmax, 1 - omega)
    if method == "recurrence" and g.is_unweighted():
        return "nbtw", method, None, _recurrence(g, kmax, _ONE)
    return "nbtw", "edgepower", None, _hashimoto_powers(g, kmax)


def walk_table(g: Graph, kmax: int, omega=None, method: str = "recurrence",
               budget=None) -> WalkTable:
    """The exact table of one route: "oracle" enumerates, "recurrence" runs
    the deformed-Laplacian recurrence (Hashimoto powers on weighted graphs
    at omega = None), and "edgepower" runs Hashimoto powers; omega selects
    backtrack-downweighted walks, which "edgepower" does not count."""
    kind, method, omega, tables = _route(g, kmax, omega, method, budget)
    return WalkTable(kind, kmax, tuple(tables), method, omega=omega)


def walk_tables_float(g: Graph, kmax: int, omega=None, method: str = "recurrence",
                      budget=None) -> list:
    """The exact `walk_table` with each entry rounded once to the nearest
    float, as float() of its Fraction, in plain nested lists.

    Raises FloatRangeError when a nonzero entry overflows or rounds to 0.0;
    the recurrence and the Hashimoto powers build no table past that one.
    """
    tables = []
    for m in _route(g, kmax, omega, method, budget)[3]:
        try:
            rows = m.to_float()
        except OverflowError:  # int / int refuses a quotient past the float range
            rows = None
        if rows is None or any(x and not y for xs, ys in zip(m.ints, rows)
                               for x, y in zip(xs, ys)):
            raise FloatRangeError(
                "a walk count is outside the float range; use the exact methods")
        tables.append(rows)
    return tables
