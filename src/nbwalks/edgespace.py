"""Edge-indexed matrices: incidence factorization, line graph, Hashimoto
matrix and its weighted variants, and non-k-cycling matrices.

Edges are numbered in lexicographic (source, destination) index order, the
order the Graph already stores, so every matrix here is reproducible.  A
graph's edge space is read as `Graph.edge_space`, which calls
`build_edge_space` once per graph; this module needs `Graph` only for
annotations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from .exact import Matrix

if TYPE_CHECKING:
    from .graphs import Graph


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
    """

    graph: Graph
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
        return _incidence(self.tails, self.graph.n)

    @cached_property
    def target(self) -> Matrix:
        return _incidence(self.heads, self.graph.n)

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
    def ihara_det(self) -> list[Fraction]:
        """Coefficients of det(I - t B Z), ascending, B = hashimoto and Z =
        weight_diag.  On a unit graph Z = I and this is det(I - t B), so the
        Ihara and weighted-Ihara certificates of one edge space share it."""
        step = self.hashimoto if self.graph.is_unweighted() else v_similar(self)
        return step.det_one_minus_t()


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
        graph=g,
        m=m,
        tails=tails,
        heads=heads,
        weights=tuple(w for _, _, w in g.edges),
        reverse=reverse,
        successors=successors,
        unreciprocated_count=m - 2 * b,
        reciprocal_pair_count=b,
    )


def _incidence(ends, n: int) -> Matrix:
    """The len(ends)-by-n 0/1 matrix with row e the unit vector of ends[e]."""
    return Matrix([[int(j == v) for j in range(n)] for v in ends], 1, n)


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
    rows = [[0] * p for _ in range(p)]
    for i, pi in enumerate(paths):
        for j, pj in enumerate(paths):
            if pi[1:] == pj[:-1] and pi[0] != pj[-1] and (pi[-1], pj[-1]) in es:
                rows[i][j] = 1
    return NonKCyclingMatrix(k, tuple(paths), Matrix(rows))
