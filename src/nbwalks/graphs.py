"""Finite loop-free digraphs with positive rational edge weights.

A Graph is immutable: vertex indices follow first appearance in the input,
edges are stored sorted by (source, destination) index so every derived
edge-space object is reproducible bit for bit.  Its edge space is a
property of the graph, built on first read and shared by every consumer.

The component questions (strongly connected components with their internal
arc counts, undirected components, bipartite components, reciprocal leaf
pruning) each take one pass over the arcs; the component splits themselves
run the package's one SCC routine, `exact._tarjan_sccs`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .edgespace import EdgeSpace, build_edge_space
from .errors import (
    DuplicateEdgeError,
    LoopEdgeError,
    NonPositiveWeightError,
    NotUndirectedError,
    WeightedUnsupportedError,
)
from .exact import Matrix, _tarjan_sccs

_ONE = Fraction(1)


@dataclass(frozen=True)
class Graph:
    """Weighted digraph; unweighted graphs carry weight 1 on every edge."""

    n: int
    edges: tuple[tuple[int, int, Fraction], ...]
    labels: tuple[str, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_space(self) -> EdgeSpace:
        """The arc arrays and edge matrices (B, Delta, L, R, Z) of this
        graph, built once on first read."""
        return build_edge_space(self)

    @cached_property
    def _unweighted(self) -> bool:
        """Whether every weight is 1, compared once per graph."""
        return all(w == 1 for _, _, w in self.edges)

    def is_unweighted(self) -> bool:
        return self._unweighted

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, v, _ in self.edges)

    def weight_map(self) -> dict[tuple[int, int], Fraction]:
        return {(u, v): w for u, v, w in self.edges}

    def adjacency(self) -> Matrix:
        rows = [[Fraction(0)] * self.n for _ in range(self.n)]
        for u, v, w in self.edges:
            rows[u][v] = w
        return Matrix(rows)

    def out_neighbors(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            out[u].append(v)
        return out

    def reciprocated_arc_count(self) -> int:
        """Number of directed edges whose reverse is also present."""
        es = self.edge_set()
        return sum(1 for u, v in es if (v, u) in es)

    def require_unweighted(self, operation: str) -> None:
        if not self.is_unweighted():
            raise WeightedUnsupportedError(f"{operation} needs an unweighted graph")

    def is_symmetric(self) -> bool:
        wm = self.weight_map()
        return all(wm.get((v, u)) == w for (u, v), w in wm.items())


def build_graph(edge_triples, vertices=()) -> Graph:
    """Construct a Graph from (label, label, weight) triples.

    Vertices are indexed by first appearance: declared isolated vertices
    first, then edge endpoints in input order.  Loops, repeated (src, dst)
    pairs and non-positive weights are rejected.
    """
    labels: list[str] = []
    index: dict = {}

    def vertex(label) -> int:
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    for label in vertices:
        vertex(label)

    seen: set[tuple[int, int]] = set()
    edges = []
    for src, dst, weight in edge_triples:
        u = vertex(src)
        v = vertex(dst)
        if u == v:
            raise LoopEdgeError(f"loop at vertex {src!r}")
        if (u, v) in seen:
            raise DuplicateEdgeError(f"edge {src!r} -> {dst!r} listed twice")
        w = weight if type(weight) is Fraction else Fraction(weight)
        if w.numerator <= 0:
            raise NonPositiveWeightError(f"edge {src!r} -> {dst!r} has weight {weight}")
        seen.add((u, v))
        edges.append((u, v, w))
    edges.sort()  # the (u, v) pairs are distinct, so weights are never compared
    return Graph(len(labels), tuple(edges), tuple(labels))


def build_unweighted(pairs, vertices=()) -> Graph:
    """Convenience wrapper: unit weight on every (src, dst) pair."""
    return build_graph([(u, v, 1) for u, v in pairs], vertices=vertices)


def undirected_part(g: Graph) -> Graph:
    """Subgraph keeping only reciprocated edges.

    For weighted graphs each surviving edge keeps its forward weight (the
    entrywise product with the transposed support); structural consumers
    only look at the support.
    """
    es = g.edge_set()
    kept = [(g.labels[u], g.labels[v], w) for u, v, w in g.edges if (v, u) in es]
    return build_graph(kept, vertices=g.labels)


def undirectization(g: Graph) -> Graph:
    """Unweighted graph with every edge made reciprocal."""
    sym = set()
    for u, v, _ in g.edges:
        sym.add((u, v))
        sym.add((v, u))
    pairs = sorted(sym)
    return build_unweighted(
        [(g.labels[u], g.labels[v]) for u, v in pairs], vertices=g.labels
    )


@dataclass(frozen=True)
class Component:
    """One strongly connected component or single node of a digraph."""

    vertices: tuple[int, ...]
    kind: str  # "scc" | "single"
    n: int
    arc_count: int
    reciprocated_count: int
    cycle_class: str  # "tree" | "one_cycle" | "multi_cycle"


@dataclass(frozen=True)
class ComponentReport:
    components: tuple[Component, ...]

    def cycle_classes(self) -> tuple[str, ...]:
        return tuple(c.cycle_class for c in self.components)


def cycle_class_of(n: int, arc_count: int, reciprocated: int) -> str:
    """Trichotomy of 2d - d_U against 2n.

    For a strongly connected component this counts the independent cycles of
    its undirectization: below means tree, equal means exactly one cycle,
    above means at least two.
    """
    value = 2 * arc_count - reciprocated
    if value < 2 * n:
        return "tree"
    if value == 2 * n:
        return "one_cycle"
    return "multi_cycle"


def scc_decompose(g: Graph) -> ComponentReport:
    """Strongly connected components with per-component cycle classification.

    Singleton components without internal edges are single nodes.  Components
    are reported sorted by their smallest vertex index.  One pass over the
    arcs counts each component's internal arcs d and reciprocated arcs d_U.
    """
    blocks = sorted(_tarjan_sccs(g.n, g.out_neighbors()))
    where = [0] * g.n
    for i, verts in enumerate(blocks):
        for v in verts:
            where[v] = i
    arcs = [0] * len(blocks)
    recip = [0] * len(blocks)
    pairs = g.edge_set()
    for u, v, _ in g.edges:
        i = where[u]
        if where[v] == i:
            arcs[i] += 1
            recip[i] += (v, u) in pairs
    return ComponentReport(tuple(
        Component(
            vertices=tuple(verts),
            kind="single" if len(verts) == 1 else "scc",
            n=len(verts),
            arc_count=d,
            reciprocated_count=d_u,
            cycle_class=cycle_class_of(len(verts), d, d_u),
        )
        for verts, d, d_u in zip(blocks, arcs, recip)
    ))


def prune_reciprocal_leaves(g: Graph) -> Graph:
    """Remove reciprocal leaves one at a time until none remain.

    A reciprocal leaf is a vertex adjacent to exactly one other vertex,
    through a single reciprocal edge and nothing else.  The smallest-index
    leaf goes first.  A min-heap holds the candidates, each checked again
    when popped: removing a leaf can only make its one neighbour a leaf, or
    stop it from being one.
    """
    g.require_unweighted("prune_reciprocal_leaves")
    arcs = set(g.edge_set())
    nbrs = [set(adj) for adj in _undirected_neighbours(g)]
    alive = [True] * g.n

    def is_leaf(v):
        if len(nbrs[v]) != 1:
            return False
        (u,) = nbrs[v]
        return (u, v) in arcs and (v, u) in arcs

    heap = [v for v in range(g.n) if is_leaf(v)]  # ascending, so a heap
    while heap:
        v = heapq.heappop(heap)
        if not is_leaf(v):
            continue
        (u,) = nbrs[v]
        alive[v] = False
        nbrs[v].clear()
        nbrs[u].discard(v)
        arcs -= {(u, v), (v, u)}
        if is_leaf(u):
            heapq.heappush(heap, u)
    labels = g.labels
    return build_unweighted(
        sorted((labels[u], labels[v]) for u, v in arcs),
        vertices=[labels[v] for v in range(g.n) if alive[v]],
    )


def _undirected_neighbours(g: Graph) -> list[list[int]]:
    """Neighbour lists ignoring edge direction; a reciprocated pair lists
    each end twice."""
    adj = g.out_neighbors()
    for u, v, _ in g.edges:
        adj[v].append(u)
    return adj


def connected_components_undirected(g: Graph) -> list[list[int]]:
    """Connected components ignoring edge direction, each sorted, ordered by
    their smallest vertex: the strongly connected components of the
    symmetric neighbour lists, which Tarjan emits in that order because
    each one is closed when the search from its smallest vertex returns."""
    return _tarjan_sccs(g.n, _undirected_neighbours(g))


def bipartite_component_count(g: Graph) -> int:
    """Number of connected components of an undirected graph that admit a
    proper 2-coloring.  Isolated vertices count as bipartite components.
    """
    if not g.is_symmetric():
        raise NotUndirectedError("bipartite test needs a symmetric graph")
    adj = _undirected_neighbours(g)
    color = [-1] * g.n
    count = 0
    for comp in _tarjan_sccs(g.n, adj):
        ok = True
        color[comp[0]] = 0
        queue = [comp[0]]
        while queue and ok:
            v = queue.pop()
            for w in adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    ok = False
                    break
        if ok:
            count += 1
    return count
