"""Edge-indexed matrices: incidence factorization, line graph, Hashimoto
matrix, the edge transfer matrix, and non-k-cycling matrices.

The edge transfer matrix T Z = (tau B + (1 - tau) W) Z is read off the arc
arrays as sparse integer rows (`EdgeSpace.transfer_rows`), one per arc, as
long as the out-degree of its head: the walk powers and the Perron brackets
read them, the certificates and the walk resolvent's edge fallback read
them written out (`EdgeSpace.transfer`).  The other dense views are built
independently, for the certificates' other routes.

Edges are numbered in lexicographic (source, destination) index order, the
order the Graph already stores, so every matrix here is reproducible.  A
graph's edge space is read as `Graph.edge_space`, which calls
`build_edge_space` once per graph; this module needs `Graph` and
`Polynomial` only for annotations, and an edge space keeps the vertex
count, not the graph, so that the two hold no reference cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from .exact import Matrix, _batched_dets, _clear_denominators, _elimination_plan, _tarjan_sccs

if TYPE_CHECKING:
    from .graphs import Graph
    from .polys import Polynomial


@dataclass(frozen=True)
class EdgeSpace:
    """Edge-space view of a digraph, stored as arc arrays.

    Arc e runs from tails[e] to heads[e] with weight weights[e]; reverse[e]
    is the index of the arc heads[e] -> tails[e], or None when e is
    unreciprocated, and successors[e] lists, ascending, the arcs leaving
    heads[e] other than reverse[e]: the non-backtracking continuations.

    The dense matrices are views built from the arrays on first read.
    source/target are the m-by-n incidence factors with A = source.T @ Z @
    target.  backtrack pairs each edge with its reverse (zero row/column for
    unreciprocated edges), reciprocal_mask is its square: a diagonal 0/1
    matrix marking reciprocated edges.  hashimoto is the unweighted
    non-backtracking edge adjacency; weight_diag holds the edge weights.
    `transfer_rows` gives the transfer matrix T Z without any of them, and
    `transfer` writes those rows out densely.
    """

    n: int
    m: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    weights: tuple[Fraction, ...]
    reverse: tuple[int | None, ...]
    successors: tuple[tuple[int, ...], ...]
    unreciprocated_count: int
    reciprocal_pair_count: int

    @cached_property
    def source(self) -> Matrix:
        return _incidence(self.tails, self.n)

    @cached_property
    def target(self) -> Matrix:
        return _incidence(self.heads, self.n)

    @cached_property
    def line_graph(self) -> Matrix:
        """Entry (e, f) is 1 when f leaves the vertex e enters; read off the
        tails, so that line_graph = backtrack + hashimoto is a check."""
        return Matrix([[int(x == v) for x in self.tails] for v in self.heads])

    @cached_property
    def backtrack(self) -> Matrix:
        return Matrix([[int(f == r) for f in range(self.m)] for r in self.reverse])

    @cached_property
    def reciprocal_mask(self) -> Matrix:
        return Matrix.diagonal([int(f is not None) for f in self.reverse])

    @cached_property
    def hashimoto(self) -> Matrix:
        rows = [[0] * self.m for _ in range(self.m)]
        for e, continuations in enumerate(self.successors):
            for f in continuations:
                rows[e][f] = 1
        return Matrix(rows)

    @cached_property
    def weight_diag(self) -> Matrix:
        return Matrix.diagonal(self.weights)

    @cached_property
    def ihara_det(self) -> Polynomial:
        """det(I - t B Z) as a `Polynomial`, read off `transfer()`.  On a
        unit graph Z = I and this is det(I - t B), so the Ihara and
        weighted-Ihara certificates of one edge space share it."""
        return self.transfer().det_one_minus_t()

    @cached_property
    def cleared_weights(self) -> tuple[list[int], int]:
        """(z, ell): the weights as integers over their least common
        denominator, weights[e] = z[e] / ell."""
        return _clear_denominators(self.weights)

    @cached_property
    def vertex_plan(self) -> VertexPlan:
        """The vertex-space rows of the weighted resolvent (`VertexPlan`)."""
        return VertexPlan(self)

    def transfer_rows(self, tau=1) -> tuple[list[tuple[list[int], list[int]]], int]:
        """T Z for T = tau B + (1 - tau) W, read off the arc arrays, as
        sparse integer rows (columns, entries) over one denominator.

        With tau = a/b and z = ell * w the weights cleared to integers, row
        e lists the arcs f leaving heads[e], ascending: the entry is b z_f
        for a successor of e and (b - a) z_f for reverse[e], all over
        b * ell.  Weights are positive, so the one zero entry, the reverse
        arc's at tau = 1, is left out.
        """
        a, b = Fraction(tau).as_integer_ratio()
        z, ell = self.cleared_weights
        rows = []
        for succ, rev in zip(self.successors, self.reverse):
            cols = list(succ) if rev is None or a == b else sorted(succ + (rev,))
            rows.append((cols, [(b - a if f == rev else b) * z[f] for f in cols]))
        return rows, b * ell

    def transfer(self, tau=1) -> Matrix:
        """T Z as the dense m-by-m `Matrix` of `transfer_rows(tau)`."""
        rows, den = self.transfer_rows(tau)
        dense = [[0] * self.m for _ in rows]
        for row, (cols, xs) in zip(dense, rows):
            for f, x in zip(cols, xs):
                row[f] = x
        return Matrix(dense, den, self.m)


def build_edge_space(g: Graph) -> EdgeSpace:
    """The arc arrays of a graph, in O(m * degree).

    The Hashimoto support rule is direct: f continues e when e ends where f
    starts and f is not the reverse of e.  The successors are read off the
    arcs leaving each head vertex.
    """
    tails = tuple(u for u, _, _ in g.edges)
    heads = tuple(v for _, v, _ in g.edges)
    index = {(u, v): e for e, (u, v) in enumerate(zip(tails, heads))}
    leaving = [[] for _ in range(g.n)]
    for f, x in enumerate(tails):
        leaving[x].append(f)
    reverse = tuple(index.get((v, u)) for u, v in zip(tails, heads))
    successors = tuple(
        tuple(f for f in leaving[v] if f != rev) for v, rev in zip(heads, reverse)
    )
    m = len(tails)
    b = sum(1 for f in reverse if f is not None) // 2
    return EdgeSpace(
        n=g.n,
        m=m,
        tails=tails,
        heads=heads,
        weights=tuple(w for _, _, w in g.edges),
        reverse=reverse,
        successors=successors,
        unreciprocated_count=m - 2 * b,
        reciprocal_pair_count=b,
    )


class VertexPlan:
    """The integer rows Y of I - X(t), as a plan fixed by the arcs and the
    integer weights z = ell * w, filled in at each t = p/q with s = q * ell
    and each tau = a/b.

    Woodbury (Mizuno & Sato, J. Combin. Theory Ser. B 91, 2004) turns the
    resolvent Phi(t) = I + t L^T Z (I - t T Z)^-1 R of the transfer matrix
    T = tau B + (1 - tau) W = R L^T - tau Delta into (I - X(t))^-1 wherever
    I + tau t Delta Z is invertible: X(t) = t L^T Z (I + tau t Delta Z)^-1 R.
    A one-way arc u -> v adds t w at (u, v); an arc whose reverse has weight
    w' adds t w / k at (u, v) and -tau t**2 w w' / k at (u, u), with
    k = 1 - tau**2 t**2 w w'.  With tau = a/b, S = b s,
    c_e = (a p)**2 z_e z_rev(e) and g_e = S**2 - c_e, row u of Y is row u of
    I - X(t) times d_u = S * prod g_e over the reciprocated arcs e leaving
    u: Y[u][u] = S (prod g + sum_e a b p**2 z_e z_rev(e) prod_{f != e} g_f),
    Y[u][v] is -b p z_e prod g (one-way) or -b p z_e S**2 prod_{f != e} g_f,
    and Phi(t) = Y^-1 D with D = diag(d_u).  Non-backtracking walks, plain
    or weighted, are tau = 1.

    ``arcs[u]`` holds the one-way arcs leaving u as (head, z_e) and the
    reciprocated ones as (head, z_e, z_e z_rev(e)).  ``blocks`` are the
    strongly connected components of the graph; ``inner`` holds, for each
    block of two or more vertices, the same arcs restricted to the block
    with its vertices numbered in the order of the block's
    `_elimination_plan`; ``singletons`` counts the other blocks.
    """

    __slots__ = ("ell", "arcs", "blocks", "inner", "singletons")

    def __init__(self, es: EdgeSpace):
        z, self.ell = es.cleared_weights
        self.arcs = [([], []) for _ in range(es.n)]
        for e, (u, v, f) in enumerate(zip(es.tails, es.heads, es.reverse)):
            if f is None:
                self.arcs[u][0].append((v, z[e]))
            else:
                self.arcs[u][1].append((v, z[e], z[e] * z[f]))
        out = [[a[0] for part in arcs for a in part] for arcs in self.arcs]
        self.blocks = _tarjan_sccs(es.n, out)
        self.singletons = sum(len(b) == 1 for b in self.blocks)
        self.inner = []
        for verts in self.blocks:
            if len(verts) > 1:
                local = {v: i for i, v in enumerate(verts)}
                order = _elimination_plan(
                    len(verts), [[local[v] for v in out[u] if v in local] for u in verts])
                verts = [verts[i] for i in order]
                place = {v: i for i, v in enumerate(verts)}
                self.inner.append([
                    ([(place[v], ze) for v, ze in self.arcs[u][0] if v in place],
                     [(place[v], ze, zz) for v, ze, zz in self.arcs[u][1]])
                    for u in verts])

    def rows(self, p, s, tau=1) -> tuple[list[list[int]], list[int]]:
        """The whole n-by-n Y at t = p/q, s = q * ell and tau, and the d_u."""
        rows, scales = _plan_rows(self.arcs, [p], [s], tau)
        return [[0 if e is None else e[0] for e in row] for row in rows], [d[0] for d in scales]

    def dets(self, ps, ss) -> list[int]:
        """det(Y) at each point t = p/q of the lists ps and ss, s = q * ell:
        the product of the determinants of the diagonal blocks.  Y[u][v]
        can be nonzero off the diagonal only where the graph has the arc
        u -> v, so the components, in topological order, make Y block
        triangular at every t.  A vertex alone in its component has no
        reciprocated arc (its reverse would join the two ends), so its 1x1
        block, its diagonal entry, is s.  Y has the graph's pattern at every
        t, so each larger block's rows come out in the order of its plan,
        made once, and `_batched_dets` eliminates them at all the points in
        one pass."""
        total = [s**self.singletons for s in ss]
        for arcs in self.inner:
            block = _batched_dets(_plan_rows(arcs, ps, ss)[0], len(ps))
            total = [x * y for x, y in zip(total, block)]
        return total


def _plan_rows(arcs, ps, ss, tau=1) -> tuple[list[list], list[list[int]]]:
    """The rows of Y at the points t = p/q of the lists ps and ss,
    s = q * ell, and tau = a/b, for the vertices whose arcs are listed as
    in `VertexPlan.arcs`, heads and diagonal numbered by the position in
    ``arcs``, and each row's scale d_u = S * prod g_e with S = b s.  Each
    entry is the list of its values at the points, or None off the arcs and
    the diagonal; so is each scale.  prod_{f != e} g_f is the product of a
    prefix and a suffix of the g_f, so a row costs a number of products
    linear in its arcs."""
    a, b = Fraction(tau).as_integer_ratio()
    sb = [b * s for s in ss]
    sb2 = [x * x for x in sb]
    bp = [-b * p for p in ps]
    pair = [(a * p) ** 2 for p in ps]
    h = [a * b * p * p for p in ps]
    ones = [1] * len(ps)
    width = len(arcs)
    rows, scales = [], []
    for u, (oneway, recip) in enumerate(arcs):
        row = [None] * width
        g = [[y - zz * x for x, y in zip(pair, sb2)] for _, _, zz in recip]
        prefix = [ones]
        for x in g:
            prefix.append([y * z for y, z in zip(prefix[-1], x)])
        whole = prefix[-1]
        for v, ze in oneway:
            row[v] = [x * ze * w for x, w in zip(bp, whole)]
        diagonal = whole
        suffix = ones
        for k in range(len(g) - 1, -1, -1):
            v, ze, zz = recip[k]
            others = [x * y for x, y in zip(prefix[k], suffix)]
            diagonal = [d + x * zz * o for d, x, o in zip(diagonal, h, others)]
            row[v] = [x * ze * y * o for x, y, o in zip(bp, sb2, others)]
            suffix = [x * y for x, y in zip(suffix, g[k])]
        row[u] = [x * d for x, d in zip(sb, diagonal)]
        rows.append(row)
        scales.append([x * w for x, w in zip(sb, whole)])
    return rows, scales


def _incidence(ends, n: int) -> Matrix:
    """The len(ends)-by-n 0/1 matrix with row e the unit vector of ends[e]."""
    return Matrix([[int(j == v) for j in range(n)] for v in ends], 1, n)


def v_similar(es: EdgeSpace) -> Matrix:
    """Rational matrix similar to the entrywise square root of the weighted
    Hashimoto matrix.

    The square root itself has irrational entries; hashimoto @ weight_diag
    has the same spectrum and keeps the whole pipeline rational.  It equals
    `es.transfer()`, but stays a `Matrix` product for the weighted radius
    report, the one dense product the bench's traced `radius_walks` test
    asserts (ROADMAP item 1).
    """
    return es.hashimoto * es.weight_diag


@dataclass(frozen=True)
class NonKCyclingMatrix:
    """Adjacency between open paths of length k-1 that chain into an open
    path of length k."""

    k: int
    paths: tuple[tuple[int, ...], ...]
    matrix: Matrix


def _open_paths(g: Graph, length: int) -> list[tuple[int, ...]]:
    """All open paths with `length` edges, lexicographic by vertex tuple."""
    out = g.out_neighbors()
    for nbrs in out:
        nbrs.sort()
    paths: list[tuple[int, ...]] = []
    stack: list[tuple[tuple[int, ...], int]] = [
        ((v,), 0) for v in range(g.n - 1, -1, -1)
    ]
    while stack:
        path, depth = stack.pop()
        if depth == length:
            paths.append(path)
            continue
        last = path[-1]
        for w in reversed(out[last]):
            if w not in path:
                stack.append((path + (w,), depth + 1))
    return paths


def non_k_cycling(g: Graph, k: int) -> NonKCyclingMatrix:
    """Non-k-cycling matrix: P_1 is the adjacency matrix, P_2 the Hashimoto
    matrix, and general k chains open paths of length k-1 whenever the
    combined walk is an open path of length k.

    No open path of length >= n exists, so k > n yields an empty matrix.
    """
    g.require_unweighted("non_k_cycling")
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        paths = tuple((v,) for v in range(g.n))
        return NonKCyclingMatrix(1, paths, g.adjacency())
    if k > g.n:
        return NonKCyclingMatrix(k, (), Matrix([]))
    paths = _open_paths(g, k - 1)
    es = g.edge_set()
    p = len(paths)
    rows = [[0] * p for _ in range(p)]
    for i, pi in enumerate(paths):
        for j, pj in enumerate(paths):
            if pi[1:] == pj[:-1] and pi[0] != pj[-1] and (pi[-1], pj[-1]) in es:
                rows[i][j] = 1
    return NonKCyclingMatrix(k, tuple(paths), Matrix(rows))
