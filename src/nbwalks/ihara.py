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

from .edgespace import (
    EdgeSpace,
    _integer_operator,
    build_edge_space,
    downweighted_transfer,
    v_similar,
)
from .errors import TauOutOfRangeError
from .exact import Matrix, _bareiss_int_det, _clear_denominators, _int_product
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


def verify_weighted_ihara(g: Graph, samples: int | None = None) -> IdentityCertificate:
    """Weighted identity in square-root-free form.

    The claim det Phi(A, t) = prod_i (1 - t**2 w_i w_i') / det(I - t V) is
    checked as det Phi * det(I - t B Z) == product side, with two routes:

    * a polynomial route collapsing det Phi * det(I - t B Z) through the
      Weinstein-Aronszajn identity to det(I + t (W - B) Z), and
    * a pointwise route evaluating Phi exactly through the adjugate of
      I - t B Z at 2 (n + m) + 1 rational sample points.

    The product side is enumerated straight from the reciprocal edge pairs.
    """
    es = build_edge_space(g)
    summary = _summary(g, es)
    n = g.n
    m = es.m
    if m == 0:
        one = Polynomial([1])
        return _det_certificate(
            "weighted_ihara", one, one, summary, details={"sample_points": 0}
        )

    w = es.weights
    rhs = Polynomial([1])
    for e, f in enumerate(es.reverse):
        if f is not None and e < f:
            rhs = rhs * Polynomial([1, 0, -(w[e] * w[f])])

    collapse = (es.hashimoto - es.line_graph) * es.weight_diag
    lhs = _det_one_minus_t(collapse)
    g_poly = Polynomial(v_similar(es).det_one_minus_t())  # det(I - t B Z)

    samples_ok, checked = _adjugate_sample_check(
        es, g_poly, rhs, 2 * (n + m) + 1 if samples is None else samples
    )

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


def _adjugate_sample_check(es, g_poly, rhs, count):
    """Evaluate Phi exactly at rational sample points through the adjugate of
    I - t B Z and compare det(Phi) * det(I - t B Z) with the pair product.

    The adjugate coefficients follow the Horner recurrence
    C_j = (B Z) C_{j-1} + g_j I applied directly to the target incidence,
    with everything scaled to integers to keep the arithmetic cheap: with
    ell the weights' common denominator and h_j = g_j * ell**j, the integer
    carriers ell**j C_j R follow (B ell Z)(ell**(j-1) C_{j-1} R) + h_j R.
    Only L^T Z C_j enters Phi, so each C_j is folded into the n-by-n K_j =
    L^T (ell Z) C_j once, kept as a flat list of n * n ints, and every
    sample runs its Horner sum on the K_j.

    The samples stay on integers.  With t = p/q, base = q * ell and
    den = base**m, g(t) = gn / den for gn = sum_j h_j p**j base**(m - j),
    and N = den * g(t) * Phi(t) is the integer matrix
    gn * I + p * sum_j K_j p**j base**(m - 1 - j).  As det(N) =
    den**n * g(t)**n * det(Phi), the check det(Phi) * g(t) == rhs(t) with
    rhs(t) = rn / rd is the integer equality
    det(N) * rd == rn * gn**(n - 1) * den, and det(N) comes from the same
    Bareiss kernel as `Matrix.det`.  Points where g(t) = 0 are skipped.
    """
    n = es.graph.n
    m = es.m
    ell, step, lt_z, r_rows = _integer_operator(es)
    scaled = [c * ell**j for j, c in enumerate(g_poly.coeffs)]
    if any(c.denominator != 1 for c in scaled):
        raise RuntimeError("determinant coefficients failed to clear denominators")
    h = [c.numerator for c in scaled] + [0] * (m + 1 - len(scaled))
    r_ints, r_lcm = _clear_denominators(rhs.coeffs)
    carrier = [[0] * n for _ in range(m)]
    k_ints = []
    for hj in h[:m]:
        carrier = [[a + hj * b for a, b in zip(row, r)]
                   for row, r in zip(_int_product(step, carrier, n), r_rows)]
        k_ints.append([x for row in _int_product(lt_z, carrier, n) for x in row])

    checked = 0
    candidate = 0
    while checked < count:
        candidate += 1
        p, q = (candidate, 2) if candidate % 2 else (-candidate // 2, 1)
        base = q * ell
        gn, den = _zhomogeneous(h, p, base)
        if gn == 0:
            continue
        # sum_j K_j p**j base**(m-1-j) by integer Horner
        acc = k_ints[m - 1]
        power = 1
        for j in range(m - 2, -1, -1):
            power *= base
            acc = [a * p + c * power for a, c in zip(acc, k_ints[j])]
        nmat = [[p * x for x in acc[i * n:(i + 1) * n]] for i in range(n)]
        for i in range(n):
            nmat[i][i] += gn
        rn, rd = _zhomogeneous(r_ints, p, q)  # rhs(t) = rn / (rd * r_lcm)
        if _bareiss_int_det(nmat) * rd * r_lcm != rn * gn ** (n - 1) * den:
            return False, checked
        checked += 1
    return True, checked


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
            _matrix_certificate("resolvent_form", zero, summary, {"tau": str(tau)})
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
