"""Walk counting by independent routes, generating-function evaluation, and
walk-sum centrality.

Three ways to produce the same tables:

* brute-force enumeration with last-edge memory (the oracle),
* the linear recurrence read off the deformed-Laplacian generating function,
* powers of the Hashimoto matrix sandwiched by the incidence factors.

Tables hold exact rationals.  Enumeration is metered: every attempted edge
extension counts against a budget so pathological inputs fail loudly
instead of hanging.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .convergence import radius_btdw, radius_unweighted, radius_weighted
from .edgespace import build_edge_space
from .errors import (
    AboveRadiusError,
    EnumerationBudgetExceededError,
    OmegaOutOfRangeError,
    PoleAtTError,
    WeightedUnsupportedError,
)
from .exact import Matrix
from .graphs import Graph
from .laplacians import directed_dgl, structure_matrices, tau_dgl
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


class _Budget:
    __slots__ = ("left",)

    def __init__(self, budget):
        self.left = DEFAULT_BUDGET if budget is None else int(budget)

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise EnumerationBudgetExceededError(
                "walk enumeration exceeded its budget; raise it explicitly "
                "or use the recurrence method"
            )


def enumerate_nbtw(g: Graph, kmax: int, budget=None) -> WalkTable:
    """Brute-force non-backtracking walk sums up to length kmax.

    Depth-first over all walks remembering the previous vertex; weighted
    graphs contribute the product of edge weights.
    """
    _require_length(kmax)
    meter = _Budget(budget)
    out = g.out_neighbors()
    wmap = g.weight_map()
    tables = [
        [[_ZERO] * g.n for _ in range(g.n)] for _ in range(kmax + 1)
    ]
    for v in range(g.n):
        tables[0][v][v] = _ONE
    for start in range(g.n):
        stack = [(start, -1, 0, _ONE)]
        while stack:
            v, prev, depth, weight = stack.pop()
            if depth == kmax:
                continue
            for w in out[v]:
                if w == prev:
                    continue
                meter.spend()
                nw = weight * wmap[(v, w)]
                tables[depth + 1][start][w] += nw
                stack.append((w, v, depth + 1, nw))
    return WalkTable(
        "nbtw", kmax, tuple(Matrix(rows) for rows in tables), "oracle"
    )


def enumerate_btdw(g: Graph, kmax: int, omega, budget=None) -> WalkTable:
    """Brute-force backtrack-downweighted walks: every walk counts, scaled
    by omega to the power of its backtrack count."""
    g.require_unweighted("enumerate_btdw")
    omega = Fraction(omega)
    if not 0 <= omega <= 1:
        raise OmegaOutOfRangeError(f"omega={omega} outside [0, 1]")
    _require_length(kmax)
    meter = _Budget(budget)
    out = g.out_neighbors()
    tables = [
        [[_ZERO] * g.n for _ in range(g.n)] for _ in range(kmax + 1)
    ]
    for v in range(g.n):
        tables[0][v][v] = _ONE
    for start in range(g.n):
        stack = [(start, -1, 0, _ONE)]
        while stack:
            v, prev, depth, weight = stack.pop()
            if depth == kmax:
                continue
            for w in out[v]:
                meter.spend()
                nw = weight * omega if w == prev else weight
                if nw:
                    tables[depth + 1][start][w] += nw
                    stack.append((w, v, depth + 1, nw))
    return WalkTable(
        "btdw",
        kmax,
        tuple(Matrix(rows) for rows in tables),
        "oracle",
        omega=omega,
    )


def nbtw_recurrence(g: Graph, kmax: int) -> WalkTable:
    """Non-backtracking walk tables from the third-order matrix recurrence.

    Seeds: p0 = I, p1 = A, p2 = A**2 - D, p3 = A p2 - (D - I) A - (A - S);
    thereafter p_k = A p_{k-1} - (D - I) p_{k-2} - (A - S) p_{k-3}.
    """
    _require_length(kmax)
    g.require_unweighted("nbtw_recurrence")
    a, s, d = structure_matrices(g)
    eye = Matrix.identity(g.n)
    d_minus = d - eye
    a_minus_s = a - s
    seq = [eye]
    if kmax >= 1:
        seq.append(a)
    if kmax >= 2:
        seq.append(a * a - d)
    if kmax >= 3:
        seq.append(a * seq[2] - d_minus * a - a_minus_s)
    for k in range(4, kmax + 1):
        seq.append(a * seq[k - 1] - d_minus * seq[k - 2] - a_minus_s * seq[k - 3])
    return WalkTable("nbtw", kmax, tuple(seq), "recurrence")


def btdw_recurrence(g: Graph, kmax: int, omega) -> WalkTable:
    """Backtrack-downweighted tables; omega = 1 gives plain adjacency powers
    and omega = 0 collapses to the non-backtracking recurrence."""
    _require_length(kmax)
    g.require_unweighted("btdw_recurrence")
    omega = Fraction(omega)
    if not 0 <= omega <= 1:
        raise OmegaOutOfRangeError(f"omega={omega} outside [0, 1]")
    tau = 1 - omega
    a, s, d = structure_matrices(g)
    eye = Matrix.identity(g.n)
    c2 = (d - eye.scale(tau)).scale(tau)
    c3 = (a - s).scale(tau * tau)
    seq = [eye]
    if kmax >= 1:
        seq.append(a)
    if kmax >= 2:
        seq.append(a * a - d.scale(tau))
    if kmax >= 3:
        seq.append(a * seq[2] - c2 * a - c3)
    for k in range(4, kmax + 1):
        seq.append(a * seq[k - 1] - c2 * seq[k - 2] - c3 * seq[k - 3])
    return WalkTable("btdw", kmax, tuple(seq), "recurrence", omega=omega)


def weighted_nbtw(g: Graph, kmax: int) -> WalkTable:
    """Non-backtracking tables through Hashimoto powers; works for weighted
    and unweighted graphs alike.

    p_k = source.T @ Z @ (hashimoto @ Z)**(k-1) @ target for k >= 1.
    """
    _require_length(kmax)
    es = build_edge_space(g)
    if es.m == 0:
        seq = [Matrix.identity(g.n)] + [Matrix.zeros(g.n, g.n)] * kmax
        return WalkTable("nbtw", kmax, tuple(seq), "edgepower")
    lt_z = es.source.transpose() * es.weight_diag
    step = es.hashimoto * es.weight_diag
    seq = [Matrix.identity(g.n)]
    carrier = es.target
    for _ in range(1, kmax + 1):
        seq.append(lt_z * carrier)
        carrier = step * carrier
    return WalkTable("nbtw", kmax, tuple(seq), "edgepower")


def generating_function_eval(g: Graph, t, mode: str, omega=None) -> Matrix:
    """Exact value of the walk generating function at a rational point.

    mode "nbtw" uses (1 - t**2) M(t)**-1, mode "btdw" the downweighted
    analogue, and mode "weighted" the incidence-factored resolvent
    I + t L.T Z (I - t B Z)**-1 R.  A singular system means t is a pole.
    """
    t = Fraction(t)
    if mode == "nbtw":
        g.require_unweighted("generating_function_eval(mode='nbtw')")
        m_at = directed_dgl(g).eval_at(t)
        inv = m_at.inverse()
        if inv is None:
            raise PoleAtTError(f"t={t} is a pole of the generating function")
        return inv.scale(1 - t * t)
    if mode == "btdw":
        if omega is None:
            raise ValueError("btdw mode needs omega")
        omega = Fraction(omega)
        if not 0 <= omega <= 1:
            raise OmegaOutOfRangeError(f"omega={omega} outside [0, 1]")
        tau = 1 - omega
        if tau == 0:
            base = Matrix.identity(g.n) - g.adjacency().scale(t)
            inv = base.inverse()
            if inv is None:
                raise PoleAtTError(f"t={t} is a pole of the generating function")
            return inv
        m_at = tau_dgl(g, tau).eval_at(t)
        inv = m_at.inverse()
        if inv is None:
            raise PoleAtTError(f"t={t} is a pole of the generating function")
        return inv.scale(1 - tau * tau * t * t)
    if mode == "weighted":
        es = build_edge_space(g)
        if es.m == 0:
            return Matrix.identity(g.n)
        base = Matrix.identity(es.m) - (es.hashimoto * es.weight_diag).scale(t)
        solved = base.solve(es.target)
        if solved is None:
            raise PoleAtTError(f"t={t} is a pole of the generating function")
        return Matrix.identity(g.n) + (
            es.source.transpose() * es.weight_diag * solved
        ).scale(t)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class CentralityResult:
    """Row sums of the generating function: total downstream walk weight."""

    t: Fraction
    mode: str
    row_sums: tuple[Fraction, ...]
    converged: bool
    omega: Fraction | None = None
    note: str = "raw row sums of the walk generating function; no normalization"


def _certified_below(g: Graph, t: Fraction, mode: str, omega) -> bool:
    if mode == "nbtw":
        return radius_unweighted(g).certifies_below(t)
    if mode == "weighted":
        return radius_weighted(g).certifies_below(t)
    if mode == "btdw":
        if omega is None:
            raise ValueError("btdw mode needs omega")
        tau = 1 - Fraction(omega)
        if tau == 0:
            # classical walk series: radius is the reciprocal adjacency radius
            pr = perron_radius(g.adjacency())
            return pr.nilpotent or t < 1 / pr.upper
        return radius_btdw(g, tau).certifies_below(t)
    raise ValueError(f"unknown mode {mode!r}")


def nbt_katz_centrality(g: Graph, t, mode: str = "nbtw", omega=None) -> CentralityResult:
    """Walk-sum centrality at damping t, certified below the radius.

    Raises AboveRadiusError unless t is provably smaller than the radius of
    convergence for the requested walk family.
    """
    t = Fraction(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t > 0 and not _certified_below(g, t, mode, omega):
        raise AboveRadiusError(
            f"t={t} is not certifiably below the radius of convergence"
        )
    phi = generating_function_eval(g, t, mode, omega=omega)
    sums = tuple(sum(row, _ZERO) for row in phi.data)
    return CentralityResult(
        t=t,
        mode=mode,
        row_sums=sums,
        converged=True,
        omega=None if omega is None else Fraction(omega),
    )


def walk_tables_float(g: Graph, kmax: int, omega=None):
    """Float fast path for large tables; not part of any verification.

    Returns plain nested lists of floats following the same recurrences.
    Weighted graphs go through float Hashimoto powers instead.
    """
    _require_length(kmax)
    n = g.n
    if not g.is_unweighted():
        if omega is not None:
            raise WeightedUnsupportedError("downweighted walks need unit weights")
        es = build_edge_space(g)
        if es.m == 0:
            eye = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
            return [eye] + [[[0.0] * n for _ in range(n)] for _ in range(kmax)]
        lt_z = (es.source.transpose() * es.weight_diag).to_float()
        step = (es.hashimoto * es.weight_diag).to_float()
        carrier = es.target.to_float()
        m = es.m
        tab = [[[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]]
        for _ in range(kmax):
            tab.append(
                [
                    [sum(lt_z[i][e] * carrier[e][j] for e in range(m)) for j in range(n)]
                    for i in range(n)
                ]
            )
            carrier = [
                [sum(step[e][f] * carrier[f][j] for f in range(m)) for j in range(n)]
                for e in range(m)
            ]
        return tab
    a = [[float(w) for w in row] for row in g.adjacency().data]
    if omega is None:
        exact_mode = nbtw_recurrence
        tab = [m.to_float() for m in exact_mode(g, min(kmax, 3)).tables]
        tau = 1.0
        a_mat, s_mat, d_mat = structure_matrices(g)
        c2 = [[float(x) for x in row] for row in (d_mat - Matrix.identity(n)).data]
        c3 = [[float(x) for x in row] for row in (a_mat - s_mat).data]
    else:
        om = Fraction(omega)
        tau = float(1 - om)
        tab = [m.to_float() for m in btdw_recurrence(g, min(kmax, 3), om).tables]
        a_mat, s_mat, d_mat = structure_matrices(g)
        c2 = [
            [float(x) * tau for x in row]
            for row in (d_mat - Matrix.identity(n).scale(Fraction(1 - om))).data
        ]
        c3 = [[float(x) * tau * tau for x in row] for row in (a_mat - s_mat).data]

    def mul(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    def sub(x, y):
        return [[xi - yi for xi, yi in zip(rx, ry)] for rx, ry in zip(x, y)]

    while len(tab) <= kmax:
        k = len(tab)
        nxt = sub(sub(mul(a, tab[k - 1]), mul(c2, tab[k - 2])), mul(c3, tab[k - 3]))
        tab.append(nxt)
    return tab[: kmax + 1]
