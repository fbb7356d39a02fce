"""Exact determinant-identity certificates.

Each verifier computes both sides of an identity by genuinely different
routes (edge-space characteristic polynomials, `Matrix.char_poly` and its
reversal `Matrix.det_one_minus_t`, against vertex-space Laplacian
determinants, or matrix products against closed forms) and returns a
certificate whose `equal` flag is an exact comparison of `Polynomial`s.
The Ihara-type edge sides read `EdgeSpace.transfer`: the transfer rows the
radius reports and the walk tables run on, so the certificates check them.
A failing certificate signals an implementation bug or a wrong identity,
never a tolerance issue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import TauOutOfRangeError
from .exact import _POINT_GROUP, Matrix
from .graphs import Graph
from .laplacians import _deformed_laplacian, structure_matrices
from .polys import Polynomial, polymat_det
from .zpoly import _zhomogeneous

_ONE = Fraction(1)


@dataclass(frozen=True)
class IdentityCertificate:
    """Outcome of one exact identity check.

    For determinant identities lhs and rhs hold the cross-multiplied
    polynomials and residual their difference.  Matrix identities set lhs
    and rhs to None and encode the total absolute deviation in residual, so
    `equal` is always equivalent to `residual == 0`.
    """

    identity: str
    equal: bool
    residual: Polynomial
    lhs: Polynomial | None = None
    rhs: Polynomial | None = None
    graph_summary: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


def _summary(g: Graph) -> dict:
    es = g.edge_space
    return {
        "n": g.n,
        "m": es.m,
        "a": es.unreciprocated_count,
        "b": es.reciprocal_pair_count,
    }


def _det_certificate(name, lhs, rhs, summary, details=None) -> IdentityCertificate:
    residual = lhs - rhs
    return IdentityCertificate(
        identity=name,
        equal=residual.is_zero(),
        residual=residual,
        lhs=lhs,
        rhs=rhs,
        graph_summary=summary,
        details=details or {},
    )


def _matrix_certificate(name, deviation: Fraction, summary, details=None):
    residual = Polynomial([deviation])
    return IdentityCertificate(
        identity=name,
        equal=deviation == 0,
        residual=residual,
        graph_summary=summary,
        details=details or {},
    )


def _cross_multiply(edge_side: Polynomial, vertex_side: Polynomial, base: Polynomial,
                    exponent: int):
    """Balance det identities with exponent b - n on the base polynomial.

    Negative exponents multiply the edge side instead, keeping both sides
    polynomial.
    """
    if exponent >= 0:
        return edge_side, vertex_side * base**exponent
    return edge_side * base ** (-exponent), vertex_side


def _tau_ihara_sides(g: Graph, tau: Fraction):
    """det(I - t(tau B + (1 - tau) W)) and det M_tau(t), cross-multiplied by
    (1 - tau**2 t**2)**(b - n).  The edge side is read off
    `EdgeSpace.transfer(tau)`; at tau = 1 it is the edge space's
    det(I - t B), shared with the weighted-Ihara check."""
    es = g.edge_space
    lhs = es.ihara_det if tau == 1 else es.transfer(tau).det_one_minus_t()
    rhs = polymat_det(_deformed_laplacian(g, tau))
    base = Polynomial([1, 0, -(tau * tau)])
    return _cross_multiply(lhs, rhs, base, es.reciprocal_pair_count - g.n)


def verify_ihara_digraph(g: Graph) -> IdentityCertificate:
    """det(I - t B) against (1 - t**2)**(b - n) det M(t), cross-multiplied:
    the tau = 1 case of verify_tau_ihara."""
    g.require_unweighted("verify_ihara_digraph")
    lhs, rhs = _tau_ihara_sides(g, _ONE)
    return _det_certificate("ihara_digraph", lhs, rhs, _summary(g))


def verify_tau_ihara(g: Graph, tau) -> IdentityCertificate:
    """Downweighted identity: det(I - t(tau B + (1 - tau) W)) against
    (1 - tau**2 t**2)**(b - n) det M_tau(t)."""
    g.require_unweighted("verify_tau_ihara")
    tau = Fraction(tau)
    if not 0 <= tau <= 1:
        raise TauOutOfRangeError(f"tau={tau} outside [0, 1]")
    lhs, rhs = _tau_ihara_sides(g, tau)
    return _det_certificate(
        "tau_ihara", lhs, rhs, _summary(g), details={"tau": str(tau)}
    )


def verify_flanders(g: Graph) -> IdentityCertificate:
    """Line-graph determinant identity det(I - t W) = det(I - t A)."""
    g.require_unweighted("verify_flanders")
    lhs = g.edge_space.line_graph.det_one_minus_t()
    rhs = g.adjacency().det_one_minus_t()
    return _det_certificate("flanders", lhs, rhs, _summary(g))


def verify_weighted_ihara(g: Graph) -> IdentityCertificate:
    """Weighted identity in square-root-free form.

    The claim det Phi(A, t) = prod_i (1 - t**2 w_i w_i') / det(I - t V) is
    checked as det Phi * det(I - t B Z) == product side, with two routes:

    * a polynomial route collapsing det Phi * det(I - t B Z) through the
      Weinstein-Aronszajn identity to det(I + t (W - B) Z), and
    * a pointwise route at 2 (n + m) + 1 rational sample points, in vertex
      space: Woodbury turns Phi(t) into (I - X(t))^-1 for an n-by-n X(t)
      read off the arcs, the weighted Ihara formula in the form of Mizuno &
      Sato (J. Combin. Theory Ser. B 91, 2004) and Watanabe & Fukumizu
      (NeurIPS 2009).

    The product side is enumerated straight from the reciprocal edge pairs.
    On an arcless graph both sides are the constant 1 and no point is
    sampled.
    """
    es = g.edge_space
    w = es.weights
    rhs = Polynomial([1])
    for e, f in enumerate(es.reverse):
        if f is not None and e < f:
            rhs = rhs * Polynomial([1, 0, -(w[e] * w[f])])

    collapse = (es.hashimoto - es.line_graph) * es.weight_diag
    lhs = collapse.det_one_minus_t()
    g_poly = es.ihara_det  # det(I - t B Z)

    count = 2 * (g.n + es.m) + 1 if es.m else 0
    samples_ok, checked = _vertex_sample_check(es, g_poly, rhs, count)

    residual = lhs - rhs
    return IdentityCertificate(
        identity="weighted_ihara",
        equal=residual.is_zero() and samples_ok,
        residual=residual,
        lhs=lhs,
        rhs=rhs,
        graph_summary=_summary(g),
        details={"sample_points": checked, "samples_consistent": samples_ok},
    )


def _vertex_sample_check(es, g_poly, rhs, count):
    """Compare det(Phi(t)) * g(t) with rhs(t), g = det(I - t B Z), at
    rational sample points, in vertex space.

    Woodbury gives Phi(t) = (I - X(t))^-1 for an n-by-n X(t) read off the
    arcs (`EdgeSpace.vertex_plan`).  At t = p/q, s = q * ell (ell the
    weights' common denominator), the integer rows Y have det(Y) =
    s**(n + 2 r) * P(t)**2 * det(I - X(t)), r the number of reciprocated
    arcs and P the pair product, so with g(t) = gn / (gd * g_lcm) and
    rhs(t) = rn / (rd * r_lcm) the check is the integer equality
    det(Y) * gd * g_lcm * rd * r_lcm == s**(n + 2 r) * gn * rn.
    Both sides are polynomial in p, so it would hold also where some
    1 - t**2 w w' is 0; but points where g(t) = 0 or rhs(t) = 0 are
    skipped.  So det(Y) is nonzero at every point that passes, and a
    wrong determinant of any one block shows.  The plan takes det(Y) over
    the strongly connected components of the graph, which split Y at every
    t, each in its fixed elimination order, for a group of points at a
    time (`VertexPlan.dets`); the points are compared in order, and the
    index of the first that fails is reported.

    Divided by s**(n + 2 r), det(Y) is a polynomial in t of degree at most
    n + 2 r: row u over s**(1 + 2 r_u), r_u the reciprocated arcs leaving
    u, has entries of degree at most 1 + 2 r_u.  The other side, g(t)
    rhs(t), has degree at most m + r.  As r <= m, the difference of the
    two sides has degree at most n + 2 m, so it is the zero polynomial
    once it vanishes at n + 2 m + 1 distinct points, and the
    2 (n + m) + 1 points checked are enough wherever they lie.  They are
    taken by least height (`_least_height_points`), which keeps the
    integers small.
    """
    plan = es.vertex_plan
    g_ints, g_lcm = g_poly.ints, g_poly.den
    r_ints, r_lcm = rhs.ints, rhs.den
    power = es.n + 4 * es.reciprocal_pair_count  # n + 2 r
    ps, ss, sides = [], [], []
    points = _least_height_points()
    while len(ps) < count:
        p, q = next(points)
        gn, gd = _zhomogeneous(g_ints, p, q)
        if gn == 0:
            continue
        rn, rd = _zhomogeneous(r_ints, p, q)
        if rn == 0:
            continue
        s = q * plan.ell
        ps.append(p)
        ss.append(s)
        sides.append((gd * g_lcm * rd * r_lcm, s**power * gn * rn))
    for lo in range(0, count, _POINT_GROUP):
        hi = lo + _POINT_GROUP
        for k, (y, (left, right)) in enumerate(zip(plan.dets(ps[lo:hi], ss[lo:hi]),
                                                    sides[lo:hi]), lo):
            if y * left != right:
                return False, k
    return True, count


def _least_height_points():
    """The rationals p/q, as (p, q) in lowest terms with q > 0, in order of
    height max(|p|, q): 0, 1, -1, 2, -2, 1/2, -1/2, 3, -3, 3/2, -3/2, 1/3,
    -1/3, 2/3, -2/3, 4, ...; within one height by q, then |p|, each
    positive point before its negative."""
    yield 0, 1
    h = 1
    while True:
        for q in range(1, h + 1):
            for p in (range(1, h + 1) if q == h else (h,)):
                if gcd(p, q) == 1:
                    yield p, q
                    yield -p, q
        h += 1


def verify_lemma_suite(g: Graph, tau) -> list[IdentityCertificate]:
    """Exact certificates for the structural edge-space lemmas.

    Covers the alternating powers of the backtrack pairing, its compression
    to degree and reciprocity matrices, its characteristic polynomial, and
    the resolvent form of the downweighted Laplacian at rational sample
    points (none on an arcless graph, where every lemma is empty).
    """
    g.require_unweighted("verify_lemma_suite")
    tau = Fraction(tau)
    if not 0 <= tau <= 1:
        raise TauOutOfRangeError(f"tau={tau} outside [0, 1]")
    es = g.edge_space
    summary = _summary(g)
    certs = []

    delta = es.backtrack
    omega_mat = es.reciprocal_mask
    # powers alternate between the pairing itself and the reciprocal mask
    deviation = Fraction(0)
    power = delta
    for k in range(2, 7):
        power = power * delta
        expected = omega_mat if k % 2 == 0 else delta
        deviation += (power - expected).abs_sum()
    certs.append(_matrix_certificate("backtrack_powers", deviation, summary))

    lt = es.source.transpose()
    _, s_mat, d_mat = structure_matrices(g)
    deviation = (lt * delta * es.target - d_mat).abs_sum()
    deviation += (lt * omega_mat * es.target - s_mat).abs_sum()
    certs.append(_matrix_certificate("incidence_compression", deviation, summary))

    char = delta.char_poly()
    expected = (Polynomial([0, 1]) ** es.unreciprocated_count
                * Polynomial([-1, 0, 1]) ** es.reciprocal_pair_count)
    certs.append(_det_certificate("backtrack_char_poly", char, expected, summary))

    m_tau = _deformed_laplacian(g, tau)
    eye_m = Matrix.identity(es.m)
    eye_n = Matrix.identity(g.n)
    deviation = Fraction(0)
    points = 0
    candidate = 0
    while points < (5 if es.m else 0):
        candidate += 1
        t = Fraction(1, candidate + 1)
        if tau * t == 1 or tau * t == -1:
            continue
        solved = (eye_m + delta.scale(tau * t)).solve(es.target)
        if solved is None:
            continue
        lhs_val = (eye_n - (lt * solved).scale(t)).scale(1 - tau * tau * t * t)
        deviation += (lhs_val - m_tau.eval_at(t)).abs_sum()
        points += 1
    certs.append(
        _matrix_certificate(
            "resolvent_form", deviation, summary, {"tau": str(tau), "sample_points": points}
        )
    )
    return certs
