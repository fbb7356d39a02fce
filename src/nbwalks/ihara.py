"""Exact determinant-identity certificates.

Each verifier computes both sides of an identity by genuinely different
routes (edge-space characteristic polynomials against vertex-space
Laplacian determinants, or matrix products against closed forms) and
returns a certificate whose `equal` flag is an exact polynomial comparison.
A failing certificate signals an implementation bug or a wrong identity,
never a tolerance issue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from .edgespace import EdgeSpace, build_edge_space, downweighted_transfer, v_similar
from .errors import TauOutOfRangeError
from .exact import Matrix, _bareiss_int_det, _clear_denominators
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


def _summary(g: Graph, es: EdgeSpace) -> dict:
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


def _det_one_minus_t(m: Matrix) -> Polynomial:
    return Polynomial(m.det_one_minus_t())


def _cross_multiply(edge_side: Polynomial, vertex_side: Polynomial, base: Polynomial,
                    exponent: int):
    """Balance det identities with exponent b - n on the base polynomial.

    Negative exponents multiply the edge side instead, keeping both sides
    polynomial.
    """
    if exponent >= 0:
        return edge_side, vertex_side * base**exponent
    return edge_side * base ** (-exponent), vertex_side


def _tau_ihara_sides(g: Graph, es: EdgeSpace, tau: Fraction):
    """det(I - t(tau B + (1 - tau) W)) and det M_tau(t), cross-multiplied by
    (1 - tau**2 t**2)**(b - n)."""
    lhs = _det_one_minus_t(downweighted_transfer(es, tau))
    rhs = polymat_det(_deformed_laplacian(g, tau))
    base = Polynomial([1, 0, -(tau * tau)])
    return _cross_multiply(lhs, rhs, base, es.reciprocal_pair_count - g.n)


def verify_ihara_digraph(g: Graph) -> IdentityCertificate:
    """det(I - t B) against (1 - t**2)**(b - n) det M(t), cross-multiplied:
    the tau = 1 case of verify_tau_ihara."""
    g.require_unweighted("verify_ihara_digraph")
    es = build_edge_space(g)
    lhs, rhs = _tau_ihara_sides(g, es, _ONE)
    return _det_certificate("ihara_digraph", lhs, rhs, _summary(g, es))


def verify_tau_ihara(g: Graph, tau) -> IdentityCertificate:
    """Downweighted identity: det(I - t(tau B + (1 - tau) W)) against
    (1 - tau**2 t**2)**(b - n) det M_tau(t)."""
    g.require_unweighted("verify_tau_ihara")
    tau = Fraction(tau)
    if not 0 <= tau <= 1:
        raise TauOutOfRangeError(f"tau={tau} outside [0, 1]")
    es = build_edge_space(g)
    lhs, rhs = _tau_ihara_sides(g, es, tau)
    return _det_certificate(
        "tau_ihara", lhs, rhs, _summary(g, es), details={"tau": str(tau)}
    )


def verify_flanders(g: Graph) -> IdentityCertificate:
    """Line-graph determinant identity det(I - t W) = det(I - t A)."""
    g.require_unweighted("verify_flanders")
    es = build_edge_space(g)
    lhs = _det_one_minus_t(es.line_graph)
    rhs = _det_one_minus_t(g.adjacency())
    return _det_certificate("flanders", lhs, rhs, _summary(g, es))


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
    """
    es = build_edge_space(g)
    summary = _summary(g, es)
    if es.m == 0:
        one = Polynomial([1])
        return _det_certificate("weighted_ihara", one, one, summary,
                                {"sample_points": 0, "samples_consistent": True})

    w = es.weights
    rhs = Polynomial([1])
    for e, f in enumerate(es.reverse):
        if f is not None and e < f:
            rhs = rhs * Polynomial([1, 0, -(w[e] * w[f])])

    collapse = (es.hashimoto - es.line_graph) * es.weight_diag
    lhs = _det_one_minus_t(collapse)
    g_poly = Polynomial(v_similar(es).det_one_minus_t())  # det(I - t B Z)

    samples_ok, checked = _vertex_sample_check(es, g_poly, rhs, 2 * (g.n + es.m) + 1)

    residual = lhs - rhs
    return IdentityCertificate(
        identity="weighted_ihara",
        equal=residual.is_zero() and samples_ok,
        residual=residual,
        lhs=lhs,
        rhs=rhs,
        graph_summary=summary,
        details={"sample_points": checked, "samples_consistent": samples_ok},
    )


def _vertex_sample_check(es, g_poly, rhs, count):
    """Compare det(Phi(t)) * g(t) with rhs(t), g = det(I - t B Z), at
    rational sample points, in vertex space.

    Woodbury gives Phi(t) = (I - X(t))^-1 for an n-by-n X(t) read off the
    arcs (`_vertex_rows`).  At t = p/q, s = q * ell (ell the weights'
    common denominator), the integer rows Y have det(Y) = s**(n + 2 r) *
    P(t)**2 * det(I - X(t)), r the number of reciprocated arcs and P the
    pair product, so with g(t) = gn / (gd * g_lcm) and rhs(t) =
    rn / (rd * r_lcm) the check is the integer equality
    det(Y) * gd * g_lcm * rd * r_lcm == s**(n + 2 r) * gn * rn.
    Both sides are polynomial in p, so it holds also where some
    1 - t**2 w w' is 0; points where g(t) = 0 are skipped.
    """
    z, ell = _clear_denominators(es.weights)
    g_ints, g_lcm = g_poly.ints, g_poly.den
    r_ints, r_lcm = rhs.ints, rhs.den
    power = es.graph.n + 4 * es.reciprocal_pair_count  # n + 2 r
    checked = 0
    candidate = 0
    while checked < count:
        candidate += 1
        p, q = (candidate, 2) if candidate % 2 else (-candidate // 2, 1)
        gn, gd = _zhomogeneous(g_ints, p, q)
        if gn == 0:
            continue
        rn, rd = _zhomogeneous(r_ints, p, q)
        s = q * ell
        y = _bareiss_int_det(_vertex_rows(es, z, p, s))
        if y * gd * g_lcm * rd * r_lcm != s**power * gn * rn:
            return False, checked
        checked += 1
    return True, checked


def _vertex_rows(es, z, p, s):
    """Row u of I - X(t) times s * prod a_e over the reciprocated arcs e
    leaving u, in integers, at t = p/q, s = q * ell and z = ell * w.

    With B = R L^T - Delta, X(t) = t L^T Z (I + t Delta Z)^-1 R: a one-way
    arc u -> v adds t w at (u, v), an arc whose reverse has weight w' adds
    t w / (1 - t**2 w w') at (u, v) and -t**2 w w' / (1 - t**2 w w') at
    (u, u).  So with c_e = p**2 z_e z_rev(e) and a_e = s**2 - c_e,
    Y[u][u] = s (prod a + sum_e c_e prod_{f != e} a_f), and Y[u][v] is
    -p z_e prod a (one-way) or -p z_e s**2 prod_{f != e} a_f.
    """
    n = es.graph.n
    s2, p2 = s * s, p * p
    rows = [[0] * n for _ in range(n)]
    leaving = [[] for _ in range(n)]
    for e, u in enumerate(es.tails):
        leaving[u].append(e)
    for u, arcs in enumerate(leaving):
        recip = [e for e in arcs if es.reverse[e] is not None]
        c = [p2 * z[e] * z[es.reverse[e]] for e in recip]
        a = [s2 - x for x in c]
        others = [prod(a[:i]) * prod(a[i + 1:]) for i in range(len(a))]
        whole = prod(a)
        rows[u][u] = s * (whole + sum(x * o for x, o in zip(c, others)))
        for e in arcs:
            rows[u][es.heads[e]] = -p * z[e] * whole
        for e, o in zip(recip, others):
            rows[u][es.heads[e]] = -p * z[e] * s2 * o
    return rows


def verify_lemma_suite(g: Graph, tau) -> list[IdentityCertificate]:
    """Exact certificates for the structural edge-space lemmas.

    Covers the alternating powers of the backtrack pairing, its compression
    to degree and reciprocity matrices, its characteristic polynomial, and
    the resolvent form of the downweighted Laplacian at rational sample
    points.
    """
    g.require_unweighted("verify_lemma_suite")
    tau = Fraction(tau)
    if not 0 <= tau <= 1:
        raise TauOutOfRangeError(f"tau={tau} outside [0, 1]")
    es = build_edge_space(g)
    summary = _summary(g, es)
    certs = []

    delta = es.backtrack
    omega_mat = es.reciprocal_mask
    if es.m == 0:
        zero = Fraction(0)
        certs.append(_matrix_certificate("backtrack_powers", zero, summary))
        certs.append(_matrix_certificate("incidence_compression", zero, summary))
        one = Polynomial([1])
        certs.append(_det_certificate("backtrack_char_poly", one, one, summary))
        certs.append(
            _matrix_certificate("resolvent_form", zero, summary,
                                {"tau": str(tau), "sample_points": 0})
        )
        return certs

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

    char = Polynomial(delta.char_poly())
    expected = Polynomial([0, 1]) ** es.unreciprocated_count * Polynomial(
        [-1, 0, 1]
    ) ** es.reciprocal_pair_count
    certs.append(_det_certificate("backtrack_char_poly", char, expected, summary))

    m_tau = _deformed_laplacian(g, tau)
    eye_m = Matrix.identity(es.m)
    eye_n = Matrix.identity(g.n)
    deviation = Fraction(0)
    points = 0
    candidate = 0
    while points < 5:
        candidate += 1
        t = Fraction(1, candidate + 1)
        if tau * t == 1 or tau * t == -1:
            continue
        inv = (eye_m + delta.scale(tau * t)).inverse()
        if inv is None:
            continue
        lhs_val = (eye_n - (lt * inv * es.target).scale(t)).scale(1 - tau * tau * t * t)
        deviation += (lhs_val - m_tau.eval_at(t)).abs_sum()
        points += 1
    certs.append(
        _matrix_certificate(
            "resolvent_form", deviation, summary, {"tau": str(tau), "sample_points": points}
        )
    )
    return certs
