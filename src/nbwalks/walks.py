"""Walk counting by independent routes, generating-function evaluation, and
walk-sum centrality.

Three ways to produce the same tables:

* brute-force enumeration with last-edge memory (the oracle),
* the linear recurrence read off the deformed-Laplacian generating function,
* powers of the Hashimoto matrix sandwiched by the incidence factors.

Plain non-backtracking walks are the omega = 0 (tau = 1 - omega = 1) case of
backtrack-downweighted walks, so the oracle, the recurrence and the
generating function each have one implementation over omega or tau, and
the plain names are thin wrappers of it.

Tables are exact rational matrices, each integer rows over one
denominator: q**k for the recurrence, and L**(2k) for the oracle, which
multiplies integer walk weights scaled by the common denominator L of the
weights and omega; the Hashimoto powers are products of `Matrix` objects.
`walk_table` selects a route, and `walk_tables_float` is the table it
selects with each exact entry rounded once to the nearest float: an output
format, not another algorithm.  Enumeration is metered: every edge
extension taken counts against a budget so pathological inputs fail loudly
instead of hanging, and a depth's table is only allocated once the search
reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .convergence import radius_btdw, radius_unweighted, radius_weighted
from .edgespace import v_similar
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


def _recurrence(g: Graph, kmax: int, tau: Fraction) -> tuple[Matrix, ...]:
    """Walk tables p_k from M_tau(t) * sum_k p_k t**k = (1 - tau**2 t**2) I.

    With M_tau = I - A t + c2 t**2 + c3 t**3, reading off t**k gives
    p_0 = I, p_1 = A, p_2 = A**2 - c2 - tau**2 I, and
    p_k = A p_{k-1} - c2 p_{k-2} - c3 p_{k-3} from k = 3 on.

    The recurrence runs on the integers P_k = q**k p_k, with q the least
    common denominator of the c_j and tau**2 (1 at tau = 1):
    P_k = sum_j (q**j (-c_j)) P_{k-j}, less q**2 tau**2 I at k = 2.  Each
    step is one sparse product of the stacked rows [q (-c_1) | q**2 (-c_2) |
    ...] with [P_{k-1}; P_{k-2}; ...], and table k is P_k over q**k.
    """
    m = _deformed_laplacian(g, tau)
    grade, n = m.grade, g.n
    tau2 = tau * tau
    entries = [[(col, e.ints, e.den) for col, e in enumerate(row) if e] for row in m.entries]
    # c_0 is 0 or 1, so each entry's denominator is that of its c_j, j >= 1
    q = lcm(tau2.denominator, *(den for row in entries for _, _, den in row))
    q2tau2 = q * q * tau2.numerator // tau2.denominator
    # row i of [q (-c_1) | q**2 (-c_2) | ...]: column (j - 1) n + col
    # multiplies row col of P_(k-j) in the stacked right factor
    stacked = [
        [((j - 1) * n + col, -cs[j] * q**j // den)
         for j in range(1, grade + 1) for col, cs, den in row if j < len(cs) and cs[j]]
        for row in entries
    ]
    # lefts[d - 1]: the first d terms, for step k with d = min(k, grade)
    lefts = [[[(col, x) for col, x in row if col < d * n] for row in stacked]
             for d in range(1, grade + 1)]
    seq = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for k in range(1, kmax + 1):
        d = min(k, len(lefts))
        right = [row for p in reversed(seq[k - d:k]) for row in p]
        nxt = _int_product(lefts[d - 1], right, n)
        if k == 2:
            for i in range(n):
                nxt[i][i] -= q2tau2
        seq.append(nxt)
    return tuple(Matrix(p, q**k) for k, p in enumerate(seq))


def nbtw_recurrence(g: Graph, kmax: int) -> WalkTable:
    """Non-backtracking walk tables from the third-order matrix recurrence,
    the tau = 1 case: p_k = A p_{k-1} - (D - I) p_{k-2} - (A - S) p_{k-3}."""
    _require_length(kmax)
    g.require_unweighted("nbtw_recurrence")
    return WalkTable("nbtw", kmax, _recurrence(g, kmax, _ONE), "recurrence")


def btdw_recurrence(g: Graph, kmax: int, omega) -> WalkTable:
    """Backtrack-downweighted tables at tau = 1 - omega; omega = 1 gives
    plain adjacency powers and omega = 0 the non-backtracking tables."""
    _require_length(kmax)
    g.require_unweighted("btdw_recurrence")
    omega = _omega_fraction(omega)
    tables = _recurrence(g, kmax, 1 - omega)
    return WalkTable("btdw", kmax, tables, "recurrence", omega=omega)


def weighted_nbtw(g: Graph, kmax: int) -> WalkTable:
    """Non-backtracking tables through Hashimoto powers; works for weighted
    and unweighted graphs alike.

    p_k = source.T @ Z @ (hashimoto @ Z)**(k-1) @ target for k >= 1.

    The carriers C_k = (hashimoto @ Z)**k @ target are kept, so that each
    table is one more sparse product, p_k = (source.T @ Z) @ C_(k-1).
    """
    _require_length(kmax)
    es = g.edge_space
    lt_z = es.source.transpose() * es.weight_diag
    step = v_similar(es)
    carrier = es.target
    seq = [Matrix.identity(g.n)]
    for k in range(1, kmax + 1):
        seq.append(lt_z * carrier)
        if k < kmax:
            carrier = step * carrier
    return WalkTable("nbtw", kmax, tuple(seq), "edgepower")


def generating_function_eval(g: Graph, t, mode: str, omega=None) -> Matrix:
    """Exact value of the walk generating function Phi(t) at a rational
    point; see `_generating_function_times`, here with the identity as
    right-hand side."""
    return _generating_function_times(g, Fraction(t), mode, omega, Matrix.identity(g.n))


def _generating_function_times(g: Graph, t: Fraction, mode: str, omega, rhs: Matrix) -> Matrix:
    """Phi(t) @ rhs by one exact solve with the columns of rhs as
    right-hand sides.

    mode "nbtw" uses Phi(t) = (1 - t**2) M(t)**-1 and mode "btdw" the
    downweighted analogue.  Mode "weighted" is the incidence-factored
    resolvent Phi(t) = I + t L.T Z (I - t B Z)**-1 R, taken in vertex space
    as one n-by-n solve Phi(t) @ rhs = Y**-1 D rhs (`EdgeSpace.vertex_plan`).
    Where t**2 w w' = 1 on a reciprocal pair, D has a zero entry and
    I + t Delta Z is singular, so Woodbury does not apply and the m-by-m
    edge system is solved instead.  Elsewhere det Y is a nonzero multiple
    of det(I - t B Z), so either route's singular system means t is a pole.
    """
    if mode in ("nbtw", "btdw"):
        if mode == "nbtw":
            g.require_unweighted("generating_function_eval(mode='nbtw')")
            tau = _ONE
        else:
            if omega is None:
                raise ValueError("btdw mode needs omega")
            tau = 1 - _omega_fraction(omega)
            if tau:
                g.require_unweighted("tau_dgl")
        phi = _deformed_laplacian(g, tau).eval_at(t).solve(rhs)
        if phi is not None:
            phi = phi.scale(1 - tau * tau * t * t)
    elif mode == "weighted":
        es = g.edge_space
        plan = es.vertex_plan
        rows, scales = plan.rows(t.numerator, t.denominator * plan.ell)
        if all(scales):
            d_rhs = [[s * x for x in row] for s, row in zip(scales, rhs.ints)]
            phi = Matrix(rows, 1).solve(Matrix(d_rhs, rhs.den, rhs.ncols))
        else:
            solved = (Matrix.identity(es.m) - v_similar(es).scale(t)).solve(es.target * rhs)
            phi = None if solved is None else rhs + (
                es.source.transpose() * es.weight_diag * solved
            ).scale(t)
    else:
        raise ValueError(f"unknown mode {mode!r}")
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
    """||T||_inf, the largest row sum of the nonnegative edge transfer
    matrix T, read off the arc arrays in O(m): B Z in weighted mode (tau
    None), whose row e sums the weights leaving the head of e but the
    reverse of e; tau B + (1 - tau) W = B + (1 - tau) Delta in btdw mode,
    nbtw being tau = 1; and at tau = 0 the adjacency matrix A, which the
    classical walk series is certified on."""
    if tau is None or tau == 0:
        out = [_ZERO] * es.n
        for u, w in zip(es.tails, es.weights):
            out[u] += w
        if tau == 0:
            return max(out, default=_ZERO)
        w = es.weights
        return max((out[v] - (w[f] if f is not None else 0)
                    for v, f in zip(es.heads, es.reverse)), default=_ZERO)
    return max((len(row) + (1 - tau) * (f is not None)
                for row, f in zip(es.successors, es.reverse)), default=_ZERO)


def _certified_below(g: Graph, t: Fraction, mode: str, omega) -> bool:
    """True when t is certified below the radius of the mode's walk series.

    Each mode refuses its graphs and parameters first, as its radius report
    would.  Then a certificate that costs O(m): with T the mode's edge
    transfer matrix (`_transfer_norm`) and N = max(||T||_inf, 1), every t
    with 2 t N <= 1 is accepted without the radius report.  The full report
    accepts each such t as well, so no decision changes:

    * rho(T) <= ||T||_inf <= N, and a Perron upper end is at most
      rho + 1e-12 * max(1, upper), hence below 2 N; so t <= 1 / (2 N) lies
      below 1 / upper, the lower end of the inverse bracket that weighted
      mode, btdw outside the multi-cycle case and tau = 0 read;
    * the other end of the btdw bracket is 1/tau >= 1 > t;
    * the one-cycle radius is 1 > t, and the all-tree radius is infinite;
    * a multi-cycle radius is the smallest determinant root in
      (0, 1/tau), which is 1/lambda for a real eigenvalue lambda <= rho
      of T, so at least 1/N; its Sturm bracket is at most 1e-12 wide, so
      it starts above 1/N - 1e-12 > 1/(2 N), as N is at most the vertex
      count on the unweighted graphs this case runs on.

    Any other t goes to the full radius report.
    """
    if mode == "nbtw":
        g.require_unweighted("radius_unweighted")
        tau = _ONE
    elif mode == "weighted":
        tau = None
    elif mode == "btdw":
        if omega is None:
            raise ValueError("btdw mode needs omega")
        tau = 1 - _omega_fraction(omega)
        if tau:
            g.require_unweighted("radius_btdw")
    else:
        raise ValueError(f"unknown mode {mode!r}")
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


def walk_table(g: Graph, kmax: int, omega=None, method: str = "recurrence",
               budget=None) -> WalkTable:
    """The exact table of one route: "oracle" enumerates, "recurrence" runs
    the deformed-Laplacian recurrence (Hashimoto powers on weighted graphs
    at omega = None), and "edgepower" runs Hashimoto powers; omega selects
    backtrack-downweighted walks, which "edgepower" does not count."""
    if method == "oracle":
        if omega is None:
            return enumerate_nbtw(g, kmax, budget=budget)
        return enumerate_btdw(g, kmax, omega, budget=budget)
    if method not in ("recurrence", "edgepower"):
        raise ValueError(f"unknown method {method!r}")
    if omega is not None:
        if method == "edgepower":
            raise ValueError("edgepower method applies to plain walks only")
        return btdw_recurrence(g, kmax, omega)
    if method == "recurrence" and g.is_unweighted():
        return nbtw_recurrence(g, kmax)
    return weighted_nbtw(g, kmax)


def walk_tables_float(g: Graph, kmax: int, omega=None, method: str = "recurrence",
                      budget=None) -> list:
    """The exact `walk_table` with each entry rounded once to the nearest
    float, as float() of its Fraction, in plain nested lists.

    Raises FloatRangeError when a nonzero entry overflows or rounds to 0.0.
    """
    tables = []
    for m in walk_table(g, kmax, omega, method, budget).tables:
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
