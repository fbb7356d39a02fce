"""Edge-indexed matrices: incidence factorization, line graph, Hashimoto
matrix and its weighted variants, and non-k-cycling matrices.

Edges are numbered in lexicographic (source, destination) index order, the
order the Graph already stores, so every matrix here is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import Matrix
from .graphs import Graph

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class EdgeSpace:
    """Edge-space view of a digraph.

    source/target are the m-by-n incidence factors with A = source.T @ Z @
    target.  backtrack pairs each edge with its reverse (zero row/column for
    unreciprocated edges), reciprocal_mask is its square: a diagonal 0/1
    matrix marking reciprocated edges.  hashimoto is the unweighted
    non-backtracking edge adjacency; weight_diag holds the edge weights.
    """

    graph: Graph
    m: int
    source: Matrix
    target: Matrix
    line_graph: Matrix
    backtrack: Matrix
    reciprocal_mask: Matrix
    hashimoto: Matrix
    weight_diag: Matrix
    unreciprocated_count: int
    reciprocal_pair_count: int


def build_edge_space(g: Graph) -> EdgeSpace:
    """Assemble all edge-space matrices for a graph.

    The Hashimoto support rule is direct: entry (e, f) is 1 when edge e ends
    where f starts and f is not the reverse of e.  The supports are filled
    from the edges leaving each head vertex, in O(m * degree).  The
    equivalent line-graph form (line_graph minus backtrack) is asserted at
    build time on the supports: the line graph's is the union of the
    backtrack's and the Hashimoto's, and those two are disjoint.
    """
    edges = [(u, v) for u, v, _ in g.edges]
    weights = [w for _, _, w in g.edges]
    m = len(edges)
    n = g.n
    index = {e: i for i, e in enumerate(edges)}
    leaving = [[] for _ in range(n)]
    for f, (x, _) in enumerate(edges):
        leaving[x].append(f)

    source = Matrix(
        [[_ONE if edges[e][0] == j else _ZERO for j in range(n)] for e in range(m)]
    )
    target = Matrix(
        [[_ONE if edges[e][1] == j else _ZERO for j in range(n)] for e in range(m)]
    )

    line, back, hashi = set(), set(), set()
    for e, (u, v) in enumerate(edges):
        rev = index.get((v, u))
        for f in leaving[v]:
            line.add((e, f))
            if f == rev:
                back.add((e, f))
            else:
                hashi.add((e, f))
    if line != back | hashi or back & hashi:
        raise RuntimeError("edge-space construction is inconsistent")
    line_graph, backtrack, hashimoto = (_support_matrix(s, m) for s in (line, back, hashi))

    recip_edges = sum(1 for u, v in edges if (v, u) in index)
    b = recip_edges // 2
    a = m - 2 * b
    mask = Matrix.diagonal(
        [_ONE if (edges[e][1], edges[e][0]) in index else _ZERO for e in range(m)]
    )
    return EdgeSpace(
        graph=g,
        m=m,
        source=source,
        target=target,
        line_graph=line_graph,
        backtrack=backtrack,
        reciprocal_mask=mask,
        hashimoto=hashimoto,
        weight_diag=Matrix.diagonal(weights),
        unreciprocated_count=a,
        reciprocal_pair_count=b,
    )


def _support_matrix(support, m: int) -> Matrix:
    """The m-by-m 0/1 matrix with ones on the given (row, column) pairs."""
    rows = [[_ZERO] * m for _ in range(m)]
    for e, f in support:
        rows[e][f] = _ONE
    return Matrix(rows)


def weighted_hashimoto(es: EdgeSpace) -> Matrix:
    """Weighted Hashimoto matrix: entry (e, f) is w(e) * w(f) on the
    non-backtracking support."""
    return es.weight_diag * es.hashimoto * es.weight_diag


def v_similar(es: EdgeSpace) -> Matrix:
    """Rational matrix similar to the entrywise square root of the weighted
    Hashimoto matrix.

    The square root itself has irrational entries; hashimoto @ weight_diag
    has the same spectrum and keeps the whole pipeline rational.
    """
    return es.hashimoto * es.weight_diag


def downweighted_transfer(es: EdgeSpace, tau: Fraction) -> Matrix:
    """tau-blend of Hashimoto and line-graph transitions:
    tau * hashimoto + (1 - tau) * line_graph."""
    tau = Fraction(tau)
    if tau == 1:
        return es.hashimoto
    return es.hashimoto.scale(tau) + es.line_graph.scale(1 - tau)


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
    rows = [[_ZERO] * p for _ in range(p)]
    for i, pi in enumerate(paths):
        for j, pj in enumerate(paths):
            if pi[1:] == pj[:-1] and pi[0] != pj[-1] and (pi[-1], pj[-1]) in es:
                rows[i][j] = _ONE
    return NonKCyclingMatrix(k, tuple(paths), Matrix(rows))
