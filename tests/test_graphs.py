import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbwalks import (
    bipartite_component_count,
    build_graph,
    build_unweighted,
    prune_reciprocal_leaves,
    scc_decompose,
    undirected_part,
    undirectization,
)
from nbwalks.errors import (
    DuplicateEdgeError,
    LoopEdgeError,
    NonPositiveWeightError,
    NotUndirectedError,
    WeightedUnsupportedError,
)
from nbwalks.graphs import connected_components_undirected, cycle_class_of

from helpers import (
    bfs_components_undirected,
    brute_scc_partition,
    directed_cycle,
    directed_cycles,
    example1,
    is_strongly_connected,
    is_undirected_tree,
    mirror,
    random_digraph,
    rescan_prune_reciprocal_leaves,
    undirected_cycle,
    undirected_path,
    all_digraphs,
)


def as_int_rows(m):
    return [[int(x) for x in row] for row in m.data]


class TestBuildGraph:
    def test_example1_adjacency(self):
        g = example1()
        assert as_int_rows(g.adjacency()) == [
            [0, 1, 0, 0],
            [1, 0, 1, 0],
            [0, 0, 0, 1],
            [0, 1, 0, 0],
        ]
        assert g.labels == (1, 2, 3, 4)

    def test_isolated_vertex(self):
        g = build_unweighted([], vertices=[7])
        assert g.n == 1 and g.m == 0
        assert as_int_rows(g.adjacency()) == [[0]]

    def test_loop_rejected(self):
        with pytest.raises(LoopEdgeError):
            build_unweighted([(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            build_unweighted([(1, 2), (1, 2)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(NonPositiveWeightError):
            build_graph([(1, 2, 0)])
        with pytest.raises(NonPositiveWeightError):
            build_graph([(1, 2, -3)])

    def test_first_appearance_indexing(self):
        g = build_unweighted([(9, 4), (4, 2)])
        assert g.labels == (9, 4, 2)


class TestDerivedGraphs:
    def test_example1_undirected_part(self):
        gu = undirected_part(example1())
        assert as_int_rows(gu.adjacency()) == [
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ]

    def test_example1_undirectization(self):
        h = undirectization(example1())
        assert as_int_rows(h.adjacency()) == [
            [0, 1, 0, 0],
            [1, 0, 1, 1],
            [0, 1, 0, 1],
            [0, 1, 1, 0],
        ]

    def test_undirected_graph_fixed_points(self):
        g = undirected_cycle(4)
        assert undirected_part(g).edge_set() == g.edge_set()
        assert undirectization(g).edge_set() == g.edge_set()

    def test_directed_3cycle(self):
        g = directed_cycle(3)
        # independent reciprocity scan
        expected = {(u, v) for u, v, _ in g.edges if (v, u) in g.edge_set()}
        assert undirected_part(g).edge_set() == expected == set()
        sym = {(u, v) for u, v, _ in g.edges} | {(v, u) for u, v, _ in g.edges}
        assert undirectization(g).edge_set() == sym

    def test_inclusion_chain(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_digraph(rng, rng.randint(2, 6), rng.choice([0.2, 0.5, 0.8]))
            gu = undirected_part(g).edge_set()
            h = undirectization(g).edge_set()
            assert gu <= g.edge_set() <= h

    def test_weighted_part_keeps_forward_weight(self):
        g = build_graph([(1, 2, 3), (2, 1, 5), (2, 3, 7)])
        gu = undirected_part(g)
        wm = gu.weight_map()
        assert wm[(0, 1)] == 3 and wm[(1, 0)] == 5
        assert (1, 2) not in wm


class TestSccDecompose:
    def test_example1(self):
        rep = scc_decompose(example1())
        assert len(rep.components) == 1
        comp = rep.components[0]
        assert comp.kind == "scc"
        assert (comp.arc_count, comp.reciprocated_count) == (5, 2)
        assert 2 * comp.arc_count - comp.reciprocated_count == 2 * comp.n
        assert comp.cycle_class == "one_cycle"

    def test_undirected_triangle(self):
        rep = scc_decompose(undirected_cycle(3))
        comp = rep.components[0]
        assert (comp.n, comp.arc_count, comp.reciprocated_count) == (3, 6, 6)
        assert comp.cycle_class == "one_cycle"

    def test_two_cycles_joined_one_way(self):
        g = build_unweighted(
            [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (3, 4)]
        )
        rep = scc_decompose(g)
        assert len(rep.components) == 2
        assert all(c.cycle_class == "one_cycle" for c in rep.components)

    def test_single_node_detection(self):
        g = build_unweighted([(1, 2), (2, 3)])
        rep = scc_decompose(g)
        assert all(c.kind == "single" for c in rep.components)

    def test_against_brute_partition(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_digraph(rng, rng.randint(2, 6), rng.choice([0.2, 0.4, 0.7]))
            got = sorted(c.vertices for c in scc_decompose(g).components)
            assert got == brute_scc_partition(g)


class TestPruneLeaves:
    def test_path_prunes_to_point(self):
        assert prune_reciprocal_leaves(undirected_path(3)).n == 1

    def test_triangle_with_pendant(self):
        g = build_unweighted(mirror([(1, 2), (2, 3), (3, 1), (3, 4)]))
        pruned = prune_reciprocal_leaves(g)
        assert pruned.n == 3
        assert set(pruned.labels) == {1, 2, 3}

    def test_directed_cycle_unchanged(self):
        g = directed_cycle(3)
        assert prune_reciprocal_leaves(g).edge_set() == g.edge_set()

    def test_weighted_rejected(self):
        with pytest.raises(WeightedUnsupportedError):
            prune_reciprocal_leaves(build_graph([(1, 2, 2), (2, 1, 2)]))


class TestBipartite:
    def test_single_edge(self):
        assert bipartite_component_count(undirected_path(2)) == 1

    def test_triangle(self):
        assert bipartite_component_count(undirected_cycle(3)) == 0

    def test_square_plus_isolated(self):
        g = build_unweighted(
            mirror([(1, 2), (2, 3), (3, 4), (4, 1)]), vertices=[1, 2, 3, 4, 5]
        )
        assert bipartite_component_count(g) == 2

    def test_rejects_directed(self):
        with pytest.raises(NotUndirectedError):
            bipartite_component_count(directed_cycle(3))


class TestUndirectedTree:
    def test_path_is_tree(self):
        assert is_undirected_tree(undirected_path(4))

    def test_example1_is_not(self):
        assert not is_undirected_tree(example1())

    def test_triangle_is_not(self):
        assert not is_undirected_tree(undirected_cycle(3))

    def test_isolated_node_is_tree(self):
        assert is_undirected_tree(build_unweighted([], vertices=[1]))


class TestCycleLemmas:
    """Executable versions of the structural lemmas."""

    def test_tree_iff_undirectization_tree_small(self):
        # every strongly connected digraph on <= 4 vertices
        for n in (2, 3, 4):
            for g in all_digraphs(n):
                if not is_strongly_connected(g):
                    continue
                h = undirectization(g)
                h_tree = h.m // 2 == h.n - 1
                assert h_tree == is_undirected_tree(g)
                if h_tree:
                    assert h.edge_set() == g.edge_set()

    def test_tree_iff_undirectization_tree_sampled5(self):
        rng = random.Random(23)
        count = 0
        while count < 300:
            g = random_digraph(rng, 5, rng.choice([0.2, 0.35, 0.6]))
            if not is_strongly_connected(g):
                continue
            count += 1
            h = undirectization(g)
            assert (h.m // 2 == h.n - 1) == is_undirected_tree(g)

    def test_multicycle_implies_two_directed_cycles(self):
        rng = random.Random(31)
        checked = 0
        while checked < 150:
            n = rng.randint(3, 6)
            g = random_digraph(rng, n, rng.choice([0.3, 0.5, 0.8]))
            if not is_strongly_connected(g):
                continue
            comp = scc_decompose(g).components[0]
            if comp.cycle_class != "multi_cycle":
                continue
            checked += 1
            cycles = directed_cycles(g)
            vertex_sets = {frozenset(c) for c in cycles}
            assert len(vertex_sets) >= 2

    def test_distinct_nonreverse_cycles_give_different_vertex_sets(self):
        rng = random.Random(37)
        checked = 0
        while checked < 200:
            g = random_digraph(rng, rng.randint(3, 6), rng.choice([0.3, 0.6]))
            cycles = directed_cycles(g)
            pairs = [
                (c1, c2)
                for i, c1 in enumerate(cycles)
                for c2 in cycles[i + 1 :]
                if frozenset(c1) == frozenset(c2)
            ]
            for c1, c2 in pairs:
                reverse = (c2[0],) + tuple(reversed(c2[1:]))
                if c1 == reverse:
                    continue
                checked += 1
                assert len({frozenset(c) for c in cycles}) >= 2
            checked += 1

    def test_cycle_class_matches_independent_cycle_count(self):
        rng = random.Random(41)
        for _ in range(80):
            g = random_digraph(rng, rng.randint(2, 6), rng.choice([0.2, 0.5, 0.8]))
            for comp in scc_decompose(g).components:
                sub_pairs = [
                    (u, v)
                    for u, v, _ in g.edges
                    if u in comp.vertices and v in comp.vertices
                ]
                sub = build_unweighted(sub_pairs, vertices=comp.vertices)
                h = undirectization(sub)
                independent = h.m // 2 - h.n + 1  # connected component of an SCC
                got = cycle_class_of(comp.n, comp.arc_count, comp.reciprocated_count)
                if comp.kind == "single":
                    assert got == "tree"
                elif independent <= 0:
                    assert got == "tree"
                elif independent == 1:
                    assert got == "one_cycle"
                else:
                    assert got == "multi_cycle"


# A digraph on 0..n-1 (n from 0, so isolated and absent vertices occur)
# from a list of (u, v, both): both=True adds u -> v and v -> u, so
# reciprocal leaves and pairs are common; loops and repeats are dropped.
_pieces = st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)),
                       st.booleans()), max_size=2 * n)))


def _digraph(case):
    n, pieces = case
    arcs = set()
    for u, v, both in pieces:
        if u != v:
            arcs.add((u, v))
            if both:
                arcs.add((v, u))
    return build_unweighted(sorted(arcs), vertices=range(n))


def _brute_bipartite_count(g):
    """Components (from the closure oracle of the symmetric graph) that some
    2-colouring of their own vertices leaves with no monochrome edge."""
    count = 0
    for comp in brute_scc_partition(g):
        for colours in itertools.product((0, 1), repeat=len(comp)):
            side = dict(zip(comp, colours))
            if all(side[u] != side[v] for u, v, _ in g.edges if u in side):
                count += 1
                break
    return count


class TestAgainstRescans:
    """The one-pass component routines against the rescans they replaced
    (`helpers.rescan_prune_reciprocal_leaves`, `helpers.bfs_components_undirected`)
    and the closure oracle."""

    @settings(max_examples=300, deadline=None)
    @given(_pieces)
    def test_prune_matches_rescan(self, case):
        g = _digraph(case)
        got, want = prune_reciprocal_leaves(g), rescan_prune_reciprocal_leaves(g)
        assert (got.labels, got.edges) == (want.labels, want.edges)

    def test_prune_tie_keeps_the_later_end(self):
        pruned = prune_reciprocal_leaves(build_unweighted([("a", "b"), ("b", "a")]))
        assert pruned.labels == ("b",) and pruned.m == 0

    def test_prune_keeps_isolated_vertices(self):
        g = build_unweighted(mirror([(1, 2), (2, 3)]), vertices=[9, 1, 2, 3])
        pruned = prune_reciprocal_leaves(g)
        assert pruned.labels == rescan_prune_reciprocal_leaves(g).labels == (9, 3)

    @settings(max_examples=50, deadline=None)
    @given(_pieces, st.sampled_from([2, 3, "1/2"]))
    def test_prune_refuses_weights(self, case, weight):
        g = _digraph(case)
        triples = [(u, v, 1) for u, v, _ in g.edges] + [(g.n, g.n + 1, weight)]
        with pytest.raises(WeightedUnsupportedError):
            prune_reciprocal_leaves(build_graph(triples, vertices=range(g.n)))

    @settings(max_examples=300, deadline=None)
    @given(_pieces)
    def test_undirected_components_match_bfs(self, case):
        g = _digraph(case)
        assert connected_components_undirected(g) == bfs_components_undirected(g)

    @settings(max_examples=200, deadline=None)
    @given(_pieces)
    def test_bipartite_count_matches_brute(self, case):
        g = undirectization(_digraph(case))
        assert bipartite_component_count(g) == _brute_bipartite_count(g)

    @settings(max_examples=300, deadline=None)
    @given(_pieces)
    def test_scc_arc_counts_match_brute(self, case):
        g = _digraph(case)
        arcs = g.edge_set()
        want = []
        for comp in brute_scc_partition(g):
            inside = [(u, v) for u, v in arcs if u in comp and v in comp]
            want.append((tuple(comp), len(inside),
                         sum((v, u) in arcs for u, v in inside)))
        got = [(c.vertices, c.arc_count, c.reciprocated_count)
               for c in scc_decompose(g).components]
        assert got == want
