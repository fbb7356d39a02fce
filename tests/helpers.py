"""Shared fixtures, graph families and independent brute-force oracles."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from hypothesis import strategies as st

from nbwalks import (
    Graph,
    Matrix,
    PolyMatrix,
    Polynomial,
    build_edge_space,
    build_graph,
    build_unweighted,
    polymat_det,
    reversal,
    smith_form,
    undirected_part,
)
from nbwalks.edgespace import EdgeSpace, v_similar
from nbwalks.errors import EnumerationBudgetExceededError
from nbwalks.exact import _bareiss_int_det, _clear_denominators, _int_product
from nbwalks.graphs import connected_components_undirected
from nbwalks.laplacians import structure_matrices
from nbwalks.polys import (
    RootRecord,
    _sign_at,
    simplest_rational_in,
    squarefree_decomposition,
    sturm_chain,
)
from nbwalks.zpoly import (
    _zdiv_exact,
    _zhomogeneous,
    _zmul,
    _zpseudo_divmod,
    _zscale,
    _zsub,
)


def mirror(pairs):
    """Each undirected pair as two arcs."""
    out = []
    for u, v in pairs:
        out.append((u, v))
        out.append((v, u))
    return out


# ---- named fixtures ---------------------------------------------------------


def example1() -> Graph:
    return build_unweighted([(1, 2), (2, 1), (2, 3), (3, 4), (4, 2)])


def directed_cycle(length: int, weights=None) -> Graph:
    pairs = [(i, i % length + 1) for i in range(1, length + 1)]
    if weights is None:
        return build_unweighted(pairs)
    return build_graph([(u, v, w) for (u, v), w in zip(pairs, weights)])


def undirected_cycle(length: int) -> Graph:
    return build_unweighted(mirror([(i, i % length + 1) for i in range(1, length + 1)]))


def undirected_path(n: int) -> Graph:
    return build_unweighted(mirror([(i, i + 1) for i in range(1, n)]))


def complete_undirected(n: int) -> Graph:
    return build_unweighted(
        [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    )


def bowtie() -> Graph:
    """Two triangles sharing vertex 1, all edges reciprocal."""
    return build_unweighted(
        mirror([(1, 2), (2, 3), (3, 1), (1, 4), (4, 5), (5, 1)])
    )


def two_squares() -> Graph:
    """Two 4-cycles sharing vertex 1, all edges reciprocal."""
    return build_unweighted(
        mirror([(1, 2), (2, 3), (3, 4), (4, 1), (1, 5), (5, 6), (6, 7), (7, 1)])
    )


def sec4_graph() -> Graph:
    """Reciprocal leaf attached to a directed 3-cycle."""
    return build_unweighted([(1, 2), (2, 1), (2, 3), (3, 4), (4, 2)])


def single_recip_edge(w1=1, w2=1) -> Graph:
    return build_graph([(1, 2, w1), (2, 1, w2)])


def six_vertex_two_component() -> Graph:
    """Two complete triangles, one-way bridges 1->4, 2->5, 3->6."""
    tri1 = mirror([(1, 2), (2, 3), (3, 1)])
    tri2 = mirror([(4, 5), (5, 6), (6, 4)])
    return build_unweighted(tri1 + tri2 + [(1, 4), (2, 5), (3, 6)])


def weighted_3cycle() -> Graph:
    return build_graph([(1, 2, 2), (2, 3, 3), (3, 1, 5)])


# ---- exhaustive families ----------------------------------------------------


def all_digraphs(n: int):
    """Every loop-free digraph on n labeled vertices."""
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(arcs)):
        pairs = [arcs[k] for k in range(len(arcs)) if mask >> k & 1]
        yield build_unweighted(pairs, vertices=range(n))


def connected_undirected_graphs(n: int):
    """Every connected undirected graph on n labeled vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        chosen = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        if not _connected(n, chosen):
            continue
        yield build_unweighted(mirror(chosen), vertices=range(n))


def nonisomorphic_connected_undirected(n: int):
    """Connected undirected graphs on n vertices up to isomorphism."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: k for k, p in enumerate(pairs)}
    seen = set()
    for mask in range(1 << len(pairs)):
        chosen = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        if not _connected(n, chosen):
            continue
        canon = min(
            _permuted_mask(chosen, perm, index) for perm in itertools.permutations(range(n))
        )
        if canon in seen:
            continue
        seen.add(canon)
        yield build_unweighted(mirror(chosen), vertices=range(n))


def _permuted_mask(chosen, perm, index):
    mask = 0
    for u, v in chosen:
        a, b = perm[u], perm[v]
        if a > b:
            a, b = b, a
        mask |= 1 << index[(a, b)]
    return mask


def _connected(n, chosen) -> bool:
    if n == 1:
        return True
    adj = {v: set() for v in range(n)}
    for u, v in chosen:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    queue = [0]
    while queue:
        v = queue.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def is_strongly_connected(g: Graph) -> bool:
    """Brute-force reachability oracle, independent of the Tarjan code."""
    reach = [[False] * g.n for _ in range(g.n)]
    for v in range(g.n):
        reach[v][v] = True
    for u, v, _ in g.edges:
        reach[u][v] = True
    for k in range(g.n):
        for i in range(g.n):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(g.n):
                    if row_k[j]:
                        row_i[j] = True
    return all(all(row) for row in reach)


def brute_scc_partition(g: Graph):
    """Mutual-reachability partition from the closure oracle."""
    reach = [[False] * g.n for _ in range(g.n)]
    for v in range(g.n):
        reach[v][v] = True
    for u, v, _ in g.edges:
        reach[u][v] = True
    for k in range(g.n):
        for i in range(g.n):
            if reach[i][k]:
                for j in range(g.n):
                    if reach[k][j]:
                        reach[i][j] = True
    groups = {}
    for v in range(g.n):
        key = tuple(sorted(w for w in range(g.n) if reach[v][w] and reach[w][v]))
        groups[key] = key
    return sorted(groups.values())


def directed_cycles(g: Graph):
    """All directed cycles as canonical vertex tuples (smallest vertex first)."""
    es = g.edge_set()
    out = g.out_neighbors()
    found = set()

    def walk(path):
        last = path[-1]
        for w in out[last]:
            if w == path[0] and len(path) >= 3:
                found.add(_canonical_cycle(path))
            elif w not in path and w > path[0]:
                walk(path + (w,))

    for start in range(g.n):
        walk((start,))
    return sorted(found)


def _canonical_cycle(path):
    k = path.index(min(path))
    return path[k:] + path[:k]


def random_digraph(rng: random.Random, n: int, density: float, weighted=False) -> Graph:
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = [a for a in arcs if rng.random() < density]
    if not chosen:
        chosen = [rng.choice(arcs)]
    return _maybe_weighted(rng, chosen, n, weighted)


WEIGHT_POOL = tuple(
    Fraction(x) for x in ("1", "2", "3", "1/2", "1/3", "3/2", "5/4", "2/5")
)


def _maybe_weighted(rng, arcs, n, weighted) -> Graph:
    """The arcs on vertices 0..n-1, with unit weights or with weights drawn
    from WEIGHT_POOL."""
    if not weighted:
        return build_unweighted(arcs, vertices=range(n))
    return build_graph([(u, v, rng.choice(WEIGHT_POOL)) for u, v in arcs], vertices=range(n))


@st.composite
def digraphs(draw, max_n=7, weighted=None):
    """A hypothesis strategy for digraphs on 0..max_n vertices, arcs
    included or not at random, n = 0 and m = 0 among them; weights in
    [1/9, 9] with denominators up to 9, unit when ``weighted`` is false and
    either when it is None."""
    n = draw(st.integers(0, max_n))
    if weighted is None:
        weighted = draw(st.booleans())
    weight = st.fractions(Fraction(1, 9), 9, max_denominator=9) if weighted else st.just(1)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph([(u, v, draw(weight)) for u, v in chosen], vertices=range(n))


def random_connected_graph(rng: random.Random, n: int, extra: int, oneway=0.0,
                           weighted=False) -> Graph:
    """Graph on n vertices: a random spanning tree plus ``extra`` more
    edges, each edge a reciprocal pair except a ``oneway`` share kept as a
    single arc of random direction; unit weights unless ``weighted``."""
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    present = set(edges)
    others = [(u, v) for v in range(n) for u in range(v) if (u, v) not in present]
    edges += rng.sample(others, extra)
    single = round(oneway * len(edges))
    arcs = []
    for i in rng.sample(range(len(edges)), len(edges)):
        u, v = edges[i] if rng.random() < 0.5 else edges[i][::-1]
        arcs += [(u, v)] if i < single else [(u, v), (v, u)]
    return _maybe_weighted(rng, arcs, n, weighted)


def with_random_reciprocal_leaf(rng: random.Random, g: Graph) -> Graph:
    """Attach a fresh vertex by one reciprocal edge to a random vertex."""
    anchor = g.labels[rng.randrange(g.n)]
    new = max(int(x) for x in g.labels) + 1 if all(
        isinstance(x, int) for x in g.labels
    ) else g.n
    triples = [(g.labels[u], g.labels[v], w) for u, v, w in g.edges]
    triples += [(anchor, new, Fraction(1)), (new, anchor, Fraction(1))]
    return build_graph(triples, vertices=list(g.labels) + [new])


def unit_weight_version(g: Graph) -> Graph:
    return build_unweighted(
        [(g.labels[u], g.labels[v]) for u, v, _ in g.edges], vertices=g.labels
    )


def assert_index_sum(m: PolyMatrix):
    """Finite partial multiplicities plus those of zero in the reversal must
    add up to grade times size."""
    det = polymat_det(m)
    assert not det.is_zero(), "index sum needs a regular matrix"
    finite = det.degree
    at_infinity = sum(smith_form(reversal(m)).partial_multiplicities(0))
    assert finite + at_infinity == m.grade * m.nrows, (
        finite,
        at_infinity,
        m.grade,
        m.nrows,
    )


def reference_deformed_coefficients(g: Graph, tau) -> list[Matrix]:
    """Coefficient matrices of M_tau(t) from the dense A, S and D, up to its
    grade: 1 at tau = 0, 2 when the cubic coefficient A - S vanishes, 3
    otherwise (the builder before M_tau(t) was read off the arc list)."""
    a, s, d = structure_matrices(g)
    eye = Matrix.identity(g.n)
    if tau == 0:
        return [eye, -a]
    coeffs = [eye, -a, (d - eye.scale(tau)).scale(tau), (a - s).scale(tau * tau)]
    return coeffs[:3] if a == s else coeffs


def reference_deformed_laplacian(g: Graph, tau) -> PolyMatrix:
    """M_tau(t) from the arc list with one `Polynomial` per entry (the
    builder before the integer coefficient rows): -w*t for an arc whose
    reverse is an arc, -w*t + tau**2*w*t**3 for a one-way arc, and
    1 + tau*(d_u - tau)*t**2 on the diagonal."""
    tau = Fraction(tau)
    es = g.edge_set()
    n = g.n
    zero = Polynomial()
    rows = [[zero] * n for _ in range(n)]
    degrees = [Fraction(0)] * n
    one_way = False
    for u, v, w in g.edges:
        if (v, u) in es:
            rows[u][v] = Polynomial((0, -w))
            degrees[u] += w
        else:
            rows[u][v] = Polynomial((0, -w, 0, tau * tau * w))
            one_way = True
    for u in range(n):
        rows[u][u] = Polynomial((1, 0, tau * (degrees[u] - tau)))
    return PolyMatrix(rows, grade=1 if tau == 0 else 3 if one_way else 2)


def polymatrix_from_coefficients(mats, grade=None) -> PolyMatrix:
    """sum_k mats[k] * t**k from constant Matrix coefficients; grade
    defaults to len(mats) - 1."""
    nr, nc = mats[0].nrows, mats[0].ncols
    entries = [[Polynomial([m.data[i][j] for m in mats]) for j in range(nc)]
               for i in range(nr)]
    return PolyMatrix(entries, grade=len(mats) - 1 if grade is None else grade)


def polynomial_divmod(a: Polynomial, b: Polynomial):
    """Quotient and remainder of a by b != 0 in Q[t]: with the integer
    numerators, the pseudo-division s a = q b + r gives the quotient
    q b.den / (s a.den) and the remainder r / (s a.den)."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    s, q, r = _zpseudo_divmod(a.ints, b.ints)
    den = s * a.den
    return Polynomial(_zscale(q, b.den), den), Polynomial(r, den)


def integer_operator(es):
    """(W, step, lt_z, r_rows): the edge operator on integers.

    W is the least common denominator of the weights and Z' = W Z.  step
    holds the sparse rows of hashimoto @ Z' and lt_z those of source.T @ Z',
    as (columns, entries) for `exact._int_product`; r_rows are the dense
    int rows of target.
    """
    n = es.n
    z, w = _clear_denominators(es.weights)
    step = [(list(row), [z[f] for f in row]) for row in es.successors]
    lt_z = [([], []) for _ in range(n)]
    for e, u in enumerate(es.tails):
        lt_z[u][0].append(e)
        lt_z[u][1].append(z[e])
    r_rows = [[1 if j == v else 0 for j in range(n)] for v in es.heads]
    return w, step, lt_z, r_rows


def least_height_candidates():
    """The weighted-Ihara sample candidates as Fractions, without end: by
    height max(|p|, q), and within one height by denominator, then |p|,
    the positive point first."""
    yield Fraction(0)
    for h in itertools.count(1):
        level = {t for t in (Fraction(p, q) for q in range(1, h + 1) for p in range(-h, h + 1))
                 if t and max(abs(t.numerator), t.denominator) == h}
        yield from sorted(level, key=lambda t: (t.denominator, abs(t.numerator), t < 0))


def adjugate_sample_check(es, g_poly, rhs, count):
    """The edge-space reference for `ihara._vertex_sample_check`: the same
    points and the same (ok, checked) result, with Phi evaluated exactly
    through the adjugate of I - t B Z rather than the vertex closed form.

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
    Bareiss kernel as `Matrix.det`.  Points where g(t) = 0 or rhs(t) = 0
    are skipped.
    """
    n = es.n
    m = es.m
    ell, step, lt_z, r_rows = integer_operator(es)
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
    for t in least_height_candidates():
        if checked == count:
            break
        p, q = t.numerator, t.denominator
        base = q * ell
        gn, den = _zhomogeneous(h, p, base)
        rn, rd = _zhomogeneous(r_ints, p, q)  # rhs(t) = rn / (rd * r_lcm)
        if gn == 0 or rn == 0:
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
        if _bareiss_int_det(nmat) * rd * r_lcm != rn * gn ** (n - 1) * den:
            return False, checked
        checked += 1
    return True, checked


# ---- the Fraction routes the integer kernels replaced ------------------------


def parent_bareiss_int_det(rows) -> int:
    """The integer determinant with its own elimination loop, as it was
    before it ran on `exact._fraction_free`: primitive rows, then forward
    Bareiss with the first nonzero pivot and a sign per row swap."""
    n = len(rows)
    if n == 0:
        return 1
    m = []
    contents = 1
    for row in rows:
        c = math.gcd(*row)
        if c == 0:
            return 0
        if c != 1:
            row = [x // c for x in row]
            contents *= c
        m.append(row)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k][k]
        for i in range(k + 1, n):
            rik = m[i][k]
            rowi = m[i]
            rowk = m[k]
            if rik:
                m[i] = [(pk * a - rik * b) // prev for a, b in zip(rowi, rowk)]
            elif prev != 1 or pk != 1:
                m[i] = [(pk * a) // prev for a in rowi]
        prev = pk
    return sign * contents * m[n - 1][n - 1]


def parent_polymat_det_bareiss(rows) -> list[int]:
    """The Z[t] determinant as `polys.polymat_det` computed it before
    Kronecker substitution: fraction-free Bareiss elimination over Z[t] on
    integer coefficient rows as in `PolyMatrix.ints`, which are not
    modified; returns the determinant's int coefficients, ascending.

    Column by column, the row at or below k whose entry in column k has
    the lowest degree becomes the pivot row, with pivot p_k.  A step
    updates only the rows with an entry in the pivot column, to
    (p_k a_ij - a_ik a_kj) / p_s with p_s the pivot of the step that last
    updated row i; every other row stays as it was, its true entries those
    times p_(k-1) / p_s (Sylvester's identity), and is brought up to date
    when it becomes the pivot row.
    """
    n = len(rows)
    a = list(rows)
    stamp = [0] * n  # pivots[stamp[i]] = p_s for row i
    pivots = [[1]]
    sign = 1
    for k in range(n):
        prev = pivots[k]
        piv = None
        best = None
        for i in range(k, n):
            e = a[i][k]
            if e:
                size = len(e) + len(prev) - len(pivots[stamp[i]])  # of the true entry
                if best is None or size < best:
                    best = size
                    piv = i
        if piv is None:
            return []
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            stamp[k], stamp[piv] = stamp[piv], stamp[k]
            sign = -sign
        rowk = a[k][k:]
        if stamp[k] != k:
            ps = pivots[stamp[k]]
            rowk = [_zdiv_exact(_zmul(e, prev), ps) if e else e for e in rowk]
        pk = rowk[0]
        rowk = rowk[1:]
        for i in range(k + 1, n):
            rowi = a[i]
            rik = rowi[k]
            if not rik:
                continue
            ps = pivots[stamp[i]]
            new_row = [[]] * (k + 1)
            for x, y in zip(rowi[k + 1:], rowk):
                num = _zsub(_zmul(pk, x), _zmul(rik, y))
                new_row.append(_zdiv_exact(num, ps) if num else num)
            a[i] = new_row
            stamp[i] = k + 1
        pivots.append(pk)
    return _zscale(pivots[-1], sign)


def unsplit_char_poly(a: Matrix) -> list[Fraction]:
    """det(t I - a), ascending, by Berkowitz on the whole integer rows
    N = den * a, as `Matrix.char_poly` computed it before it split the
    matrix into strongly connected blocks."""
    n = a.nrows
    nmat = a.ints
    coeffs = [1]
    block = []
    for r in range(n):
        left = [(k, x) for k, x in enumerate(nmat[r][:r]) if x]
        t = [1, -nmat[r][r]]
        v = [nmat[i][r] for i in range(r)]
        for _ in range(r):
            t.append(-sum(x * v[k] for k, x in left))
            v = [sum(x * v[k] for k, x in row) for row in block]
        coeffs = [sum(t[i - j] * coeffs[j] for j in range(min(i, r) + 1))
                  for i in range(r + 2)]
        for i, row in enumerate(block):
            if nmat[i][r]:
                row.append((r, nmat[i][r]))
        block.append([(k, x) for k, x in enumerate(nmat[r][:r + 1]) if x])
    return [Fraction(e, a.den**k) for k, e in enumerate(coeffs)][::-1]



def fraction_solve(a: Matrix, rhs: Matrix):
    """Gauss-Jordan elimination on Fraction rows, first nonzero pivot:
    the route `Matrix.solve` took before it ran fraction-free."""
    n = a.nrows
    aug = [list(a.data[i]) + list(rhs.data[i]) for i in range(n)]
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k]), None)
        if piv is None:
            return None
        aug[k], aug[piv] = aug[piv], aug[k]
        prow = aug[k]
        for i in range(n):
            f = aug[i][k]
            if i != k and f:
                fac = f / prow[k]
                aug[i] = [x - fac * y for x, y in zip(aug[i], prow)]
    return Matrix([[aug[i][n + j] / aug[i][i] for j in range(rhs.ncols)] for i in range(n)])


def downweighted_transfer(es: EdgeSpace, tau) -> Matrix:
    """T = tau * hashimoto + (1 - tau) * line_graph by dense `Matrix`
    arithmetic on the views: the reference for `EdgeSpace.transfer(tau)`,
    which is T times weight_diag."""
    tau = Fraction(tau)
    return es.hashimoto.scale(tau) + es.line_graph.scale(1 - tau)


def edge_resolvent(g: Graph, t, tau=1):
    """The resolvent I + t L^T Z (I - t T Z)^-1 R of the transfer matrix
    T = tau B + (1 - tau) W by the m-by-m edge-space system, solved over
    Fractions: the reference for the vertex-space route of
    `generating_function_eval`.  None where I - t T Z is singular, that is,
    at a pole."""
    es = g.edge_space
    t = Fraction(t)
    step = downweighted_transfer(es, tau) * es.weight_diag
    solved = fraction_solve(Matrix.identity(es.m) - step.scale(t), es.target)
    if solved is None:
        return None
    return Matrix.identity(g.n) + (es.source.transpose() * es.weight_diag * solved).scale(t)


def dense_hashimoto_powers(g: Graph, kmax: int) -> tuple[Matrix, ...]:
    """p_k = L^T Z (B Z)^(k-1) R as products of dense `Matrix` objects, on a
    fresh edge space: the route before the integer transfer rows."""
    es = build_edge_space(g)
    lt_z = es.source.transpose() * es.weight_diag
    step = v_similar(es)
    seq = [Matrix.identity(g.n)]
    carrier = es.target
    for _ in range(1, kmax + 1):
        seq.append(lt_z * carrier)
        carrier = step * carrier
    return tuple(seq)


def fraction_rank(a: Matrix) -> int:
    """Row echelon form on Fraction rows: the route `Matrix.rank` took."""
    m = [list(row) for row in a.data]
    rank = 0
    for col in range(a.ncols):
        piv = next((i for i in range(rank, a.nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        for i in range(rank + 1, a.nrows):
            if m[i][col]:
                fac = m[i][col] / prow[col]
                m[i] = [x - fac * y for x, y in zip(m[i], prow)]
        rank += 1
    return rank


def fraction_enumerate(g: Graph, kmax: int, omega, budget: int):
    """The walk oracle on Fraction weights: every walk depth first, a step
    weighing its edge weight times omega if it backtracks.  Returns the
    tables and the number of steps taken, or raises
    EnumerationBudgetExceededError once more than ``budget`` are taken."""
    out = g.out_neighbors()
    wmap = g.weight_map()
    n = g.n
    tables = [[[Fraction(int(i == j)) for j in range(n)] for i in range(n)]]
    tables += [[[Fraction(0)] * n for _ in range(n)] for _ in range(kmax)]
    steps = 0
    for start in range(n):
        stack = [(start, -1, 0, Fraction(1))]
        while stack:
            v, prev, depth, weight = stack.pop()
            if depth == kmax:
                continue
            for w in out[v]:
                nw = weight * wmap[(v, w)] * (omega if w == prev else 1)
                if not nw:
                    continue
                steps += 1
                if steps > budget:
                    raise EnumerationBudgetExceededError("budget")
                tables[depth + 1][start][w] += nw
                stack.append((w, v, depth + 1, nw))
    return tuple(Matrix(t) for t in tables), steps


def q_poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by Euclid over Q: the route `poly_gcd` took."""
    while not b.is_zero():
        a, b = b, polynomial_divmod(a, b)[1]
    return a.monic()


def q_squarefree_decomposition(p: Polynomial):
    """Yun's loop over Q on the monic p with Euclid's gcd: the route
    `squarefree_decomposition` took."""
    if p.degree == 0:
        return []
    p = p.monic()
    dp = p.derivative()
    a = q_poly_gcd(p, dp)
    b, c = polynomial_divmod(p, a)[0], polynomial_divmod(dp, a)[0]
    d = c - b.derivative()
    out = []
    mult = 1
    while b.degree > 0:
        f = q_poly_gcd(b, d)
        if f.degree > 0:
            out.append((f, mult))
        b, c = polynomial_divmod(b, f)[0], polynomial_divmod(d, f)[0]
        d = c - b.derivative()
        mult += 1
    return out


# ---- the rescans the one-pass component routines replaced -------------------


def rescan_prune_reciprocal_leaves(g: Graph) -> Graph:
    """`prune_reciprocal_leaves` by rescanning every arc after each removal:
    the smallest-index reciprocal leaf goes first."""
    g.require_unweighted("prune_reciprocal_leaves")
    labels = list(g.labels)
    edges = {(u, v) for u, v, _ in g.edges}
    alive = list(range(g.n))

    def leaf_of(vset, eset):
        touch = {v: set() for v in vset}
        for u, v in eset:
            touch[u].add(v)
            touch[v].add(u)
        for v in vset:
            others = touch[v]
            if len(others) == 1:
                (u,) = others
                if (v, u) in eset and (u, v) in eset:
                    deg = sum(1 for e in eset if v in e)
                    if deg == 2:
                        return v
        return None

    while True:
        leaf = leaf_of(alive, edges)
        if leaf is None:
            break
        alive.remove(leaf)
        edges = {(u, v) for u, v in edges if leaf not in (u, v)}
    keep = sorted(alive)
    relabel = {old: labels[old] for old in keep}
    return build_unweighted(
        sorted((relabel[u], relabel[v]) for u, v in edges),
        vertices=[relabel[v] for v in keep],
    )


def bfs_components_undirected(g: Graph) -> list[list[int]]:
    """`connected_components_undirected` by breadth-first search from each
    unseen vertex in index order."""
    adj = [set() for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = []
        queue = [start]
        seen[start] = True
        while queue:
            v = queue.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def is_undirected_tree(g: Graph) -> bool:
    """True when the graph equals its undirected part and that part is a
    connected acyclic graph: the tree predicate of the cycle lemmas."""
    if g.edge_set() != undirected_part(g).edge_set():
        return False
    if len(connected_components_undirected(g)) != 1:
        return False
    return g.m // 2 == g.n - 1


def _chain_signs(chain, x):
    """(sign of chain[0] at x, sign variations of the chain at x)."""
    signs = [_sign_at(q, x) for q in chain]
    nonzero = [s for s in signs if s]
    return signs[0], sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def full_chain_isolate(p: Polynomial, lo, hi, width):
    """Root isolation that evaluates the whole Sturm chain at every
    bisection step, down to width: the routine before the one-sign
    refinement, kept as a reference for `real_roots`."""
    chain = sturm_chain(p)
    out = []
    at_hi, v_hi = _chain_signs(chain, hi)
    if at_hi == 0:
        out.append(RootRecord(hi, hi, 1, hi))
    stack = [(lo, hi, _chain_signs(chain, lo)[1], v_hi, at_hi)]
    while stack:
        a, b, va, vb, at_b = stack.pop()
        count = va - vb
        if at_b == 0:
            count -= 1
        if count <= 0:
            continue
        if count == 1 and b - a <= width:
            cand = simplest_rational_in(a, b)
            exact = _sign_at(chain[0], cand) == 0
            out.append(RootRecord(cand, cand, 1, cand) if exact else RootRecord(a, b, 1, None))
            continue
        mid = (a + b) / 2
        at_mid, vm = _chain_signs(chain, mid)
        if at_mid == 0:
            out.append(RootRecord(mid, mid, 1, mid))
        stack.append((a, mid, va, vm, at_mid))
        stack.append((mid, b, vm, vb, at_b))
    return out


def full_chain_real_roots(p: Polynomial, lo, hi, width=Fraction(1, 10**12), include_hi=True):
    """`real_roots` on `full_chain_isolate`."""
    lo, hi, width = Fraction(lo), Fraction(hi), Fraction(width)
    records = [
        RootRecord(rec.lo, rec.hi, mult, rec.value)
        for factor, mult in squarefree_decomposition(p)
        for rec in full_chain_isolate(factor, lo, hi, width)
    ]
    if not include_hi:
        records = [r for r in records if not (r.value is not None and r.value == hi)]
    records.sort(key=lambda r: r.midpoint())
    return records
