"""Deformed graph Laplacians for digraphs and their eigenvalue multiplicity
reports.

The downweighted deformed graph Laplacian of an unweighted loop-free
digraph is

    M_tau(t) = I - A*t + tau*(D - tau*I)*t**2 + tau**2*(A - S)*t**3

with A the adjacency matrix, S the adjacency of the undirected part and D
the diagonal count of reciprocal edges per vertex.  The plain directed
deformed graph Laplacian of non-backtracking walks is its tau = 1 case, and
tau = 0 leaves I - A*t, the resolvent of ordinary walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    IrrationalLambdaUnsupportedError,
    SingularPolyMatrixError,
    TauOutOfRangeError,
)
from .exact import Matrix
from .graphs import Graph, undirected_part, undirectization
from .polys import PolyMatrix, _local_partials, polymat_det, root_multiplicity


def structure_matrices(g: Graph):
    """A, S and D for an unweighted digraph."""
    es = g.edge_set()
    n = g.n
    zero = Fraction(0)
    s_rows = [[zero] * n for _ in range(n)]
    degrees = [zero] * n
    for u, v, w in g.edges:
        if (v, u) in es:
            s_rows[u][v] = w
            degrees[u] += w
    return g.adjacency(), Matrix(s_rows), Matrix.diagonal(degrees)


def _deformed_laplacian(g: Graph, tau: Fraction) -> PolyMatrix:
    """M_tau(t) written as integer coefficient rows straight from the arc
    list, weights kept (tau = 0 gives I - A*t on weighted graphs too).

    With tau = a/b and z = ell*w the weights cleared by the lcm ell of
    their denominators, the rows stand over den = b**2 * ell.  An arc
    u -> v gives the entry -w*t when v -> u is also an arc and
    -w*t + tau**2*w*t**3 otherwise, that is (0, -b**2 z) or
    (0, -b**2 z, 0, a**2 z); the diagonal 1 + tau*(d_u - tau)*t**2, with d_u
    the weight over u's reciprocated out-arcs, is (den, 0, a*ell*(b*d_u - a)).
    The grade is 1 at tau = 0, 2 when every arc is reciprocated (no cubic
    term) and 3 otherwise.
    """
    es = g.edge_set()
    n = g.n
    a, b = tau.numerator, tau.denominator
    ell = lcm(*(w.denominator for _, _, w in g.edges))
    den = b * b * ell
    rows = [[()] * n for _ in range(n)]
    degrees = [0] * n
    one_way = False
    for u, v, w in g.edges:
        z = w.numerator * (ell // w.denominator)
        if (v, u) in es:
            rows[u][v] = (0, -b * b * z)
            degrees[u] += z
        elif a:
            rows[u][v] = (0, -b * b * z, 0, a * a * z)
            one_way = True
        else:
            rows[u][v] = (0, -z)
    for u in range(n):
        c = a * (b * degrees[u] - a * ell)
        rows[u][u] = (den, 0, c) if c else (den,)
    grade = 1 if not a else 3 if one_way else 2
    return PolyMatrix(rows, grade, den)


def directed_dgl(g: Graph) -> PolyMatrix:
    """Directed deformed graph Laplacian: the tau = 1 case of tau_dgl."""
    g.require_unweighted("directed_dgl")
    return _deformed_laplacian(g, Fraction(1))


def tau_dgl(g: Graph, tau) -> PolyMatrix:
    """Downweighted deformed graph Laplacian for rational tau in (0, 1]."""
    g.require_unweighted("tau_dgl")
    tau = Fraction(tau)
    if not 0 < tau <= 1:
        raise TauOutOfRangeError(f"tau={tau} outside (0, 1]")
    return _deformed_laplacian(g, tau)


@dataclass(frozen=True)
class LaplacianBundle:
    """All the Laplacian-flavored matrices derived from one graph."""

    deformed: PolyMatrix
    deformed_tau: PolyMatrix | None
    undirected_part_dgl: PolyMatrix
    undirectization_dgl: PolyMatrix
    laplacian: Matrix
    signless_laplacian: Matrix
    arc_count: int
    reciprocated_count: int


def laplacian_bundle(g: Graph, tau=None) -> LaplacianBundle:
    g.require_unweighted("laplacian_bundle")
    a, s, d = structure_matrices(g)
    return LaplacianBundle(
        deformed=directed_dgl(g),
        deformed_tau=None if tau is None else tau_dgl(g, tau),
        undirected_part_dgl=directed_dgl(undirected_part(g)),
        undirectization_dgl=directed_dgl(undirectization(g)),
        laplacian=d - s,
        signless_laplacian=d + s,
        arc_count=g.m,
        reciprocated_count=g.reciprocated_arc_count(),
    )


@dataclass(frozen=True)
class EigenReport:
    """Multiplicities of one rational eigenvalue of a polynomial matrix."""

    eigenvalue: Fraction
    algebraic: int
    geometric: int
    partials: tuple[int, ...]


def eigen_report(m: PolyMatrix, lam) -> EigenReport:
    """Algebraic, geometric and partial multiplicities of a rational value.

    The algebraic multiplicity comes from the checked determinant, the
    geometric one from the rank of the evaluated matrix, and the partial
    multiplicities from one elimination local to lam, truncated above the
    algebraic multiplicity (`polys._local_partials`), not from the global
    Smith form.  The partials must sum to the algebraic multiplicity and
    number the geometric one; a disagreement, or a partial past the
    truncation, raises RuntimeError.
    """
    if isinstance(lam, float):
        raise IrrationalLambdaUnsupportedError(
            "pass an exact rational eigenvalue; floats are ambiguous"
        )
    lam = Fraction(lam)
    det = polymat_det(m)
    if det.is_zero():
        raise SingularPolyMatrixError("determinant is identically zero")
    algebraic = root_multiplicity(det, lam)
    geometric = m.nrows - m.eval_at(lam).rank()
    partials = _local_partials(m, lam, algebraic + 1)
    if sum(partials) != algebraic or len(partials) != geometric:
        raise RuntimeError("multiplicity bookkeeping disagrees")
    return EigenReport(lam, algebraic, geometric, partials)


def is_one_defective(g: Graph, tau=1) -> bool:
    """Whether 1/tau is a defective eigenvalue of the downweighted Laplacian.

    Pure counting test: 2*d - d_U == 2*tau*n, no linear algebra involved.
    """
    g.require_unweighted("is_one_defective")
    tau = Fraction(tau)
    d = g.m
    d_u = g.reciprocated_arc_count()
    return Fraction(2 * d - d_u) == 2 * tau * g.n
