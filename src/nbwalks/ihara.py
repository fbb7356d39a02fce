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

from .edgespace import downweighted_transfer
from .errors import TauOutOfRangeError
from .exact import Matrix, _bareiss_int_det, _clear_denominators, _tarjan_sccs
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


def _tau_ihara_sides(g: Graph, tau: Fraction):
    """det(I - t(tau B + (1 - tau) W)) and det M_tau(t), cross-multiplied by
    (1 - tau**2 t**2)**(b - n).  At tau = 1 the edge side is the edge
    space's det(I - t B), shared with the weighted-Ihara check."""
    es = g.edge_space
    if tau == 1:
        lhs = Polynomial(es.ihara_det)
    else:
        lhs = _det_one_minus_t(downweighted_transfer(es, tau))
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
    lhs = _det_one_minus_t(g.edge_space.line_graph)
    rhs = _det_one_minus_t(g.adjacency())
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
    lhs = _det_one_minus_t(collapse)
    g_poly = Polynomial(es.ihara_det)  # det(I - t B Z)

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
    arcs (`_VertexPlan`).  At t = p/q, s = q * ell (ell the weights'
    common denominator), the integer rows Y have det(Y) = s**(n + 2 r) *
    P(t)**2 * det(I - X(t)), r the number of reciprocated arcs and P the
    pair product, so with g(t) = gn / (gd * g_lcm) and rhs(t) =
    rn / (rd * r_lcm) the check is the integer equality
    det(Y) * gd * g_lcm * rd * r_lcm == s**(n + 2 r) * gn * rn.
    Both sides are polynomial in p, so it holds also where some
    1 - t**2 w w' is 0; points where g(t) = 0 are skipped.

    Y[u][v] can be nonzero off the diagonal only where the graph has the
    arc u -> v, at every t.  So the strongly connected components of the
    graph, ordered topologically, make every Y block triangular, and
    det(Y) is the product of the determinants of its diagonal blocks.  The
    plan finds them once for all the points.
    """
    z, ell = _clear_denominators(es.weights)
    plan = _VertexPlan(es, z)
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
        y = plan.det(p, s)
        if y * gd * g_lcm * rd * r_lcm != s**power * gn * rn:
            return False, checked
        checked += 1
    return True, checked


class _VertexPlan:
    """The integer rows Y of I - X(t), as a plan fixed by the arcs and the
    integer weights z = ell * w, filled in at each t = p/q with s = q * ell.

    Row u of Y is row u of I - X(t) times s * prod a_e over the
    reciprocated arcs e leaving u.  With B = R L^T - Delta, X(t) =
    t L^T Z (I + t Delta Z)^-1 R: a one-way arc u -> v adds t w at (u, v),
    an arc whose reverse has weight w' adds t w / (1 - t**2 w w') at (u, v)
    and -t**2 w w' / (1 - t**2 w w') at (u, u).  So with c_e =
    p**2 z_e z_rev(e) and a_e = s**2 - c_e, Y[u][u] =
    s (prod a + sum_e c_e prod_{f != e} a_f), and Y[u][v] is
    -p z_e prod a (one-way) or -p z_e s**2 prod_{f != e} a_f.

    ``arcs[u]`` holds the one-way arcs leaving u as (head, z_e) and the
    reciprocated ones as (head, z_e, z_e z_rev(e)).  ``blocks`` are the
    strongly connected components of the graph; ``inner`` holds, for each
    block of two or more vertices, the same arcs restricted to the block,
    heads numbered within it, and ``singletons`` counts the others.
    """

    __slots__ = ("arcs", "blocks", "inner", "singletons")

    def __init__(self, es, z):
        n = es.graph.n
        self.arcs = [([], []) for _ in range(n)]
        for e, (u, v, f) in enumerate(zip(es.tails, es.heads, es.reverse)):
            if f is None:
                self.arcs[u][0].append((v, z[e]))
            else:
                self.arcs[u][1].append((v, z[e], z[e] * z[f]))
        out = [[a[0] for part in arcs for a in part] for arcs in self.arcs]
        self.blocks = _tarjan_sccs(n, out)
        self.singletons = sum(len(b) == 1 for b in self.blocks)
        self.inner = []
        for verts in self.blocks:
            if len(verts) > 1:
                place = {v: i for i, v in enumerate(verts)}
                self.inner.append([
                    ([(place[v], ze) for v, ze in self.arcs[u][0] if v in place],
                     [(place[v], ze, zz) for v, ze, zz in self.arcs[u][1]])
                    for u in verts])

    def rows(self, p, s) -> list[list[int]]:
        """The whole n-by-n Y at t = p/q, s = q * ell."""
        return _plan_rows(self.arcs, p, s)

    def det(self, p, s) -> int:
        """det(Y) at t = p/q, s = q * ell: the product of the determinants
        of the diagonal blocks.  A vertex alone in its component has no
        reciprocated arc (its reverse would join the two ends), so its 1x1
        block, its diagonal entry, is s."""
        total = s**self.singletons
        for arcs in self.inner:
            total *= _bareiss_int_det(_plan_rows(arcs, p, s))
            if not total:
                return 0
        return total


def _plan_rows(arcs, p, s) -> list[list[int]]:
    """The rows of Y at t = p/q, s = q * ell for the vertices whose arcs are
    listed as in `_VertexPlan.arcs`, heads and diagonal numbered by the
    position in ``arcs``.  prod_{f != e} a_f is the product of a prefix and
    a suffix of the a_f, so a row costs a number of products linear in its
    arcs."""
    s2, p2 = s * s, p * p
    width = len(arcs)
    rows = []
    for u, (oneway, recip) in enumerate(arcs):
        c = [p2 * zz for _, _, zz in recip]
        prefix = [1]
        for x in c:
            prefix.append(prefix[-1] * (s2 - x))
        whole = prefix[-1]
        row = [0] * width
        for v, ze in oneway:
            row[v] = -p * ze * whole
        diagonal = whole
        suffix = 1
        for k in range(len(c) - 1, -1, -1):
            others = prefix[k] * suffix
            diagonal += c[k] * others
            row[recip[k][0]] = -p * recip[k][1] * s2 * others
            suffix *= s2 - c[k]
        row[u] = s * diagonal
        rows.append(row)
    return rows


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
    while points < (5 if es.m else 0):
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
